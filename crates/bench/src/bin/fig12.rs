//! Regenerates Figure 12 (coalescing improvement from grouping).
use scu_algos::runner::Mode;
use scu_bench::experiments::{fig12, matrix::Matrix};
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    let cfg = ExperimentConfig::from_env();
    let m = Matrix::collect(&cfg, &[Mode::ScuFilteringOnly, Mode::ScuEnhanced]);
    print!("{}", fig12::render(&fig12::rows(&m)));
}
