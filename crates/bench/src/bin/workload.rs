//! Prints the per-dataset workload characterisation (frontier shapes
//! and duplicate factors).
use scu_bench::experiments::workload;
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    let cfg = ExperimentConfig::from_env();
    print!("{}", workload::render(&workload::rows(&cfg)));
}
