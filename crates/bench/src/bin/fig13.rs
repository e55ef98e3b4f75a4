//! Regenerates Figure 13 (memory bandwidth utilisation).
use scu_algos::runner::Mode;
use scu_bench::experiments::{fig13, matrix::Matrix};
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    let cfg = ExperimentConfig::from_env();
    let m = Matrix::collect(&cfg, &[Mode::GpuBaseline, Mode::ScuEnhanced]);
    print!("{}", fig13::render(&fig13::rows(&m)));
}
