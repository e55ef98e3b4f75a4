//! Runs the design-space ablations (hash size, pipeline width, BFS grouping).
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    print!(
        "{}",
        scu_bench::experiments::ablation::render(&ExperimentConfig::from_env())
    );
}
