//! The shared measurement grid all figures draw from.
//!
//! Collection runs through [`scu_harness`]: every (algorithm × dataset
//! × system × mode) combination becomes one pure [`Cell`] job, so the
//! grid fills on all cores, completed cells are cached on disk between
//! invocations, and a panicking cell surfaces as a failed entry in the
//! sweep summary instead of killing the run. Entries always come back
//! in planning order — parallel and sequential collection produce
//! byte-identical grids.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use scu_algos::cell::{Cell, CellResult};
use scu_algos::runner::{Algorithm, Mode};
use scu_algos::{RunReport, SystemKind};
use scu_graph::Dataset;
use scu_harness::{Harness, Job, Sweep};
use scu_trace::{PhaseRow, Timeline};

use crate::config::ExperimentConfig;

/// Shared collector the traced jobs push their timelines into.
type TraceLog = Arc<Mutex<Vec<(String, Timeline)>>>;

/// One cell of the measurement grid.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Graph primitive.
    pub algo: Algorithm,
    /// Dataset.
    pub dataset: Dataset,
    /// Platform.
    pub system: SystemKind,
    /// Machine variant.
    pub mode: Mode,
    /// The measured report.
    pub report: RunReport,
    /// FNV-1a fingerprint of the algorithm's answer values — equal
    /// across modes of the same (algo, dataset) when the machines
    /// agree on the answer.
    pub values_fnv: u64,
    /// Per-iteration phase breakdown, derived from the cell's event
    /// timeline.
    pub phases: Vec<PhaseRow>,
}

/// The filled grid.
#[derive(Debug, Clone)]
pub struct Matrix {
    entries: Vec<Measurement>,
}

impl Matrix {
    /// Plans the grid: one [`Cell`] per (dataset × algorithm × system
    /// × mode) combination, in that nesting order. `filter` keeps only
    /// cells whose [`Cell::id`] contains the substring. Delegates to
    /// [`scu_algos::experiment::plan_cells`], the single planner shared
    /// with the sweep server.
    pub fn plan(cfg: &ExperimentConfig, modes: &[Mode], filter: Option<&str>) -> Vec<Cell> {
        scu_algos::experiment::plan_cells(cfg, modes, filter)
    }

    /// Runs every combination on a default [`Harness`] (all cores, no
    /// cache, silent) and panics if any cell fails — the strict
    /// entry point for tests and figure code that needs a full grid.
    pub fn collect(cfg: &ExperimentConfig, modes: &[Mode]) -> Matrix {
        let (matrix, sweep) = Matrix::collect_with(cfg, modes, &Harness::new(), None);
        assert!(
            sweep.summary.all_done(),
            "matrix collection incomplete:\n{}",
            sweep.summary.render()
        );
        matrix
    }

    /// Runs the planned cells on `harness` and returns the grid plus
    /// the sweep record (timings, cache hits, failures). Cells that
    /// fail or time out are absent from the grid but listed in the
    /// summary; the rest of the sweep completes regardless.
    pub fn collect_with(
        cfg: &ExperimentConfig,
        modes: &[Mode],
        harness: &Harness,
        filter: Option<&str>,
    ) -> (Matrix, Sweep) {
        Matrix::collect_inner(cfg, modes, harness, filter, None)
    }

    /// [`Matrix::collect_with`], additionally capturing the full event
    /// timeline of every cell that actually simulated. Cells served
    /// from the cache or the resume journal carry no event stream and
    /// are absent from the returned list; timelines come back in
    /// planning order regardless of worker scheduling.
    pub fn collect_traced(
        cfg: &ExperimentConfig,
        modes: &[Mode],
        harness: &Harness,
        filter: Option<&str>,
    ) -> (Matrix, Sweep, Vec<(String, Timeline)>) {
        let log: TraceLog = Arc::new(Mutex::new(Vec::new()));
        let (matrix, sweep) = Matrix::collect_inner(cfg, modes, harness, filter, Some(&log));
        let mut timelines = std::mem::take(&mut *scu_harness::error::lock_unpoisoned(
            &log,
            "trace collector",
        ));
        // Workers push in completion order; restore planning order so
        // the exported document is deterministic across --jobs levels.
        let order: HashMap<String, usize> = Matrix::plan(cfg, modes, filter)
            .iter()
            .enumerate()
            .map(|(i, c)| (c.id(), i))
            .collect();
        timelines.sort_by_key(|(id, _)| order.get(id).copied().unwrap_or(usize::MAX));
        (matrix, sweep, timelines)
    }

    fn collect_inner(
        cfg: &ExperimentConfig,
        modes: &[Mode],
        harness: &Harness,
        filter: Option<&str>,
        trace: Option<&TraceLog>,
    ) -> (Matrix, Sweep) {
        let cells = Matrix::plan(cfg, modes, filter);
        let jobs: Vec<Job> = cells
            .iter()
            .map(|cell| {
                let work = cell.clone();
                let job = match trace {
                    None => Job::new(cell.id(), move || work.run_value()),
                    Some(log) => {
                        let log = Arc::clone(log);
                        Job::new(cell.id(), move || {
                            let (result, timeline) = work.run_traced();
                            let value = serde_json::to_value(&result);
                            scu_harness::error::lock_unpoisoned(&log, "trace collector")
                                .push((work.id(), timeline));
                            value
                        })
                    }
                };
                job.with_cache_key(cell.cache_key())
            })
            .collect();
        let sweep = harness.run(&jobs);
        let mut entries = Vec::new();
        for (cell, outcome) in cells.iter().zip(&sweep.outcomes) {
            if let Some(value) = outcome.value() {
                // A malformed result (e.g. a foreign-version blob that
                // slipped past cache verification) drops this one cell
                // from the grid; the sweep's other cells stay usable.
                match CellResult::from_value(value) {
                    Ok(result) => entries.push(Measurement {
                        algo: cell.algorithm,
                        dataset: cell.dataset,
                        system: cell.system,
                        mode: cell.mode,
                        report: result.report,
                        values_fnv: result.values_fnv,
                        phases: result.phases,
                    }),
                    Err(e) => eprintln!(
                        "[scu-bench] cell {} result malformed ({e:?}); dropped from grid",
                        cell.id()
                    ),
                }
            }
        }
        (Matrix { entries }, sweep)
    }

    /// All cells.
    pub fn entries(&self) -> &[Measurement] {
        &self.entries
    }

    /// The report for one exact cell.
    ///
    /// # Panics
    ///
    /// Panics if the combination was not collected.
    pub fn report(
        &self,
        algo: Algorithm,
        dataset: Dataset,
        system: SystemKind,
        mode: Mode,
    ) -> &RunReport {
        self.entries
            .iter()
            .find(|m| {
                m.algo == algo && m.dataset == dataset && m.system == system && m.mode == mode
            })
            .map(|m| &m.report)
            .unwrap_or_else(|| panic!("missing cell {algo}/{dataset}/{system}/{mode}"))
    }

    /// Datasets present in the grid.
    pub fn datasets(&self) -> Vec<Dataset> {
        let mut v: Vec<Dataset> = Vec::new();
        for m in &self.entries {
            if !v.contains(&m.dataset) {
                v.push(m.dataset);
            }
        }
        v
    }

    /// Geometric mean of `f(baseline, variant)` over all datasets for
    /// one (algo, system) pair — how the paper averages its ratios.
    pub fn geomean_over_datasets(
        &self,
        algo: Algorithm,
        system: SystemKind,
        base_mode: Mode,
        variant_mode: Mode,
        f: impl Fn(&RunReport, &RunReport) -> f64,
    ) -> f64 {
        let ds = self.datasets();
        let product: f64 = ds
            .iter()
            .map(|&d| {
                f(
                    self.report(algo, d, system, base_mode),
                    self.report(algo, d, system, variant_mode),
                )
            })
            .product();
        product.powf(1.0 / ds.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> Matrix {
        Matrix::collect(
            &ExperimentConfig::tiny(),
            &[Mode::GpuBaseline, Mode::ScuEnhanced],
        )
    }

    #[test]
    fn grid_is_complete() {
        let m = tiny_matrix();
        // 2 datasets x 5 algos (3 paper + CC/k-core) x 2 systems x 2 modes.
        assert_eq!(m.entries().len(), 40);
        let r = m.report(
            Algorithm::Bfs,
            Dataset::Cond,
            SystemKind::Tx1,
            Mode::ScuEnhanced,
        );
        assert!(r.total_time_ns() > 0.0);
    }

    #[test]
    fn extensions_are_collected() {
        let m = tiny_matrix();
        for algo in [Algorithm::Cc, Algorithm::KCore] {
            let r = m.report(algo, Dataset::Kron, SystemKind::Gtx980, Mode::GpuBaseline);
            assert!(r.total_time_ns() > 0.0, "{algo} missing from grid");
        }
    }

    #[test]
    fn modes_agree_on_answers_via_fingerprint() {
        let m = tiny_matrix();
        for base in m.entries().iter().filter(|m| m.mode == Mode::GpuBaseline) {
            let scu = m
                .entries()
                .iter()
                .find(|e| {
                    e.algo == base.algo
                        && e.dataset == base.dataset
                        && e.system == base.system
                        && e.mode == Mode::ScuEnhanced
                })
                .expect("paired SCU cell");
            assert_eq!(
                base.values_fnv, scu.values_fnv,
                "{}/{} answers diverge across modes",
                base.algo, base.dataset
            );
        }
    }

    #[test]
    fn traced_collection_returns_one_timeline_per_simulated_cell() {
        let cfg = ExperimentConfig::tiny();
        let modes = [Mode::GpuBaseline, Mode::ScuEnhanced];
        let (m, sweep, timelines) =
            Matrix::collect_traced(&cfg, &modes, &Harness::new(), Some("BFS/"));
        assert!(sweep.summary.all_done());
        assert_eq!(timelines.len(), m.entries().len());
        // Planning order, and every timeline has events to export.
        let planned: Vec<String> = Matrix::plan(&cfg, &modes, Some("BFS/"))
            .iter()
            .map(Cell::id)
            .collect();
        let got: Vec<&String> = timelines.iter().map(|(id, _)| id).collect();
        assert_eq!(got, planned.iter().collect::<Vec<_>>());
        assert!(timelines.iter().all(|(_, tl)| !tl.events.is_empty()));
        // The grid rows carry the derived per-iteration breakdown.
        assert!(m.entries().iter().all(|e| !e.phases.is_empty()));
    }

    #[test]
    fn filter_narrows_the_plan() {
        let cfg = ExperimentConfig::tiny();
        let modes = [Mode::GpuBaseline, Mode::ScuEnhanced];
        let all = Matrix::plan(&cfg, &modes, None);
        assert_eq!(all.len(), 40);
        let bfs = Matrix::plan(&cfg, &modes, Some("BFS/"));
        assert_eq!(bfs.len(), 8);
        assert!(bfs.iter().all(|c| c.algorithm == Algorithm::Bfs));
        assert!(Matrix::plan(&cfg, &modes, Some("no-such-cell")).is_empty());
    }

    #[test]
    fn geomean_speedup_is_positive() {
        let m = tiny_matrix();
        let sp = m.geomean_over_datasets(
            Algorithm::Bfs,
            SystemKind::Tx1,
            Mode::GpuBaseline,
            Mode::ScuEnhanced,
            |base, v| v.speedup_vs(base),
        );
        assert!(sp > 0.1 && sp < 100.0, "speedup {sp}");
    }

    #[test]
    #[should_panic(expected = "missing cell")]
    fn missing_cell_panics() {
        let m = tiny_matrix();
        let _ = m.report(
            Algorithm::Bfs,
            Dataset::Human,
            SystemKind::Tx1,
            Mode::GpuBaseline,
        );
    }
}
