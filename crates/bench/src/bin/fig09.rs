//! Regenerates Figure 9 (normalised energy).
use scu_algos::runner::Mode;
use scu_bench::experiments::{fig09, matrix::Matrix};
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    let cfg = ExperimentConfig::from_env();
    let m = Matrix::collect(&cfg, &[Mode::GpuBaseline, Mode::ScuEnhanced]);
    print!("{}", fig09::render(&fig09::rows(&m)));
}
