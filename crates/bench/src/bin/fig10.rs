//! Regenerates Figure 10 (normalised execution time).
use scu_algos::runner::Mode;
use scu_bench::experiments::{fig10, matrix::Matrix};
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    let cfg = ExperimentConfig::from_env();
    let m = Matrix::collect(&cfg, &[Mode::GpuBaseline, Mode::ScuEnhanced]);
    print!("{}", fig10::render(&fig10::rows(&m)));
}
