//! Regenerates the section 6.3 filtering-effectiveness report.
use scu_algos::runner::Mode;
use scu_bench::experiments::{filtering, matrix::Matrix};
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    let cfg = ExperimentConfig::from_env();
    let m = Matrix::collect(&cfg, &[Mode::GpuBaseline, Mode::ScuEnhanced]);
    print!("{}", filtering::render(&filtering::rows(&m)));
}
