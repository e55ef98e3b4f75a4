//! # scu-bench — the experiment harness
//!
//! One module per figure and table of the paper's evaluation (§6),
//! each with a `run(cfg)` function that produces structured rows and a
//! `render` function that prints them in the paper's layout. The
//! binaries in `src/bin/` drive them (`fig01`, `fig09`, `fig10`,
//! `fig11`, `fig12`, `fig13`, `tables`, `filtering_report`,
//! `area_report`, `ablation`, `reproduce_all`); the Criterion benches
//! under `benches/` time the same experiments at reduced scale.
//!
//! Experiment scale is configurable with environment variables (see
//! [`config::ExperimentConfig::from_env`]): `SCU_SCALE` (fraction of
//! the published dataset sizes, default 1/16), `SCU_SEED`, and
//! `SCU_PR_ITERS`. `EXPERIMENTS.md` records paper-vs-measured values
//! at the default scale.

pub mod config;
pub mod experiments;
pub mod table;

pub use config::ExperimentConfig;

/// Exits with code 2 and a one-line error when the process was given
/// any command-line arguments — for the figure and report binaries,
/// which take none (they are configured through `SCU_SCALE`,
/// `SCU_SEED` and `SCU_PR_ITERS`).
pub fn reject_args() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        eprintln!(
            "unexpected arguments: {args:?} (this binary takes none; configure it with \
             SCU_SCALE, SCU_SEED and SCU_PR_ITERS)"
        );
        std::process::exit(2);
    }
}
