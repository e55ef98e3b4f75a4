//! Regenerates Figure 1 (baseline compaction/processing time split).
use scu_algos::runner::Mode;
use scu_bench::experiments::{fig01, matrix::Matrix};
use scu_bench::ExperimentConfig;

fn main() {
    scu_bench::reject_args();
    let cfg = ExperimentConfig::from_env();
    let m = Matrix::collect(&cfg, &[Mode::GpuBaseline]);
    print!("{}", fig01::render(&fig01::rows(&m)));
}
