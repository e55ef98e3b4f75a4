//! Regenerates Figure 11 (basic vs enhanced SCU breakdown).
use scu_algos::runner::Mode;
use scu_bench::experiments::{fig11, matrix::Matrix};
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    let cfg = ExperimentConfig::from_env();
    let m = Matrix::collect(
        &cfg,
        &[Mode::GpuBaseline, Mode::ScuBasic, Mode::ScuEnhanced],
    );
    print!("{}", fig11::render(&fig11::rows(&m)));
}
