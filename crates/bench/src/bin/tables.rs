//! Prints Tables 1-5 (configurations and dataset summaries).
use scu_bench::experiments::tables;
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    print!("{}", tables::render_all(&ExperimentConfig::from_env()));
}
