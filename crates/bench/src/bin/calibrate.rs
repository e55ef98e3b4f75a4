//! Quick calibration probe: prints headline metrics per dataset.
use scu_algos::{run, Algorithm, Mode, SystemKind};
use scu_graph::Dataset;

fn main() {
    scu_bench::reject_args();
    let scale: f64 = std::env::var("SCU_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0 / 32.0);
    for kind in [SystemKind::Tx1, SystemKind::Gtx980] {
        for algo in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::PageRank] {
            for d in [Dataset::Cond, Dataset::Kron, Dataset::Ca] {
                let g = d.build(scale, 42);
                let base = run(algo, &g, kind, Mode::GpuBaseline);
                let basic = run(algo, &g, kind, Mode::ScuBasic);
                let enh = run(algo, &g, kind, Mode::ScuEnhanced);
                println!(
                    "{kind:7} {algo:4} {d:9} n={:7} m={:8} | base_frac={:.2} | basic: sp={:.2} er={:.2} | enh: sp={:.2} er={:.2} insts={:.2} coal={:.2}/{:.2} bw={:.2}/{:.2}",
                    g.num_nodes(), g.num_edges(),
                    base.report.compaction_fraction(),
                    basic.report.speedup_vs(&base.report),
                    basic.report.energy_reduction_vs(&base.report),
                    enh.report.speedup_vs(&base.report),
                    enh.report.energy_reduction_vs(&base.report),
                    enh.report.gpu_thread_insts() as f64 / base.report.gpu_thread_insts() as f64,
                    base.report.gpu_coalescing(), enh.report.gpu_coalescing(),
                    base.report.bandwidth_utilization(), enh.report.bandwidth_utilization(),
                );
            }
        }
    }
}
