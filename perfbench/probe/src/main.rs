//! In-process layer probe and closed-loop HTTP client for `perfbench/run.py`.
//!
//! Every subcommand prints one JSON object on stdout; errors go to stderr
//! with exit code 2. Scale and seed come from `SCU_SCALE` and `SCU_SEED`,
//! read by `ExperimentConfig::from_env` exactly as the daemon reads them.
//!
//! - `artifacts GRAPH_DIR DATASETS` builds each dataset's CSR artifact
//!   through `GraphStore::load_or_build` into an empty `GRAPH_DIR`, then
//!   loads it once more warm (digest check + mmap), timing both.
//! - `refs GRAPH_DIR DATASETS` fingerprints the host reference answers
//!   (BFS and SSSP distances from node 0, CC labels) the way `CellResult`
//!   fingerprints simulated ones: FNV-1a over little-endian u64s.
//! - `analyze RESULTS` folds a `GET /sweeps/{id}/results` body into the
//!   simulated per-layer statistics, gpu and SCU modes apart, and the
//!   Fig 9/10 headline ratios.
//! - `trace GRAPH_DIR STORE_DIR SPANS_OUT EXPECT JOBS CELL...` runs the
//!   cells in process on `JOBS` threads, records a span around every call
//!   into a layer, writes the spans to `SPANS_OUT`, and checks each result
//!   against the daemon's (`EXPECT`, a results body for the same cells).
//! - `client URL EXPECT SEED SECONDS MIN_REQUESTS` fetches
//!   `GET /cells/{id}` for the cells of `EXPECT` in a seeded random order,
//!   one request per connection, until both `SECONDS` have passed and
//!   `MIN_REQUESTS` were sent, and checks every answer fingerprint. It
//!   reports, for each consecutive 1000-request chunk, the p50 (the median
//!   over cells of each cell's median), the p99 and the request rate.
//!
//! `DATASETS` is a comma-separated list of dataset names.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scu_algos::cell::{Cell, CellResult};
use scu_algos::runner::{run_configured, Algorithm, Mode};
use scu_algos::{bfs, cc, sssp, ExperimentConfig, RunReport, SystemKind};
use scu_graph::artifact::GraphStore;
use scu_graph::{Csr, Dataset};
use scu_store::{GetResult, LsmStore, ResultStore};
use serde_json::Value;

const USAGE: &str = "usage: probe artifacts GRAPH_DIR DATASETS\n       \
    probe refs GRAPH_DIR DATASETS\n       \
    probe analyze RESULTS\n       \
    probe trace GRAPH_DIR STORE_DIR SPANS_OUT EXPECT JOBS CELL...\n       \
    probe client URL EXPECT SEED SECONDS MIN_REQUESTS";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.first().map(String::as_str) {
        Some("artifacts") if args.len() == 3 => artifacts(&args[1], &args[2]),
        Some("refs") if args.len() == 3 => refs(&args[1], &args[2]),
        Some("analyze") if args.len() == 2 => analyze(&args[1]),
        Some("trace") if args.len() >= 7 => trace(
            &args[1],
            &args[2],
            &args[3],
            &args[4],
            parse_num(&args[5], "JOBS"),
            &args[6..],
        ),
        Some("client") if args.len() == 6 => client(
            &args[1],
            &args[2],
            parse_num(&args[3], "SEED"),
            parse_num(&args[4], "SECONDS"),
            parse_num(&args[5], "MIN_REQUESTS"),
        ),
        _ => Err(USAGE.to_string()),
    };
    match out {
        Ok(v) => println!(
            "{}",
            serde_json::to_string(&v).expect("a probe report always serialises")
        ),
        Err(e) => {
            eprintln!("probe: {e}");
            std::process::exit(2);
        }
    }
}

fn parse_num<T: std::str::FromStr>(text: &str, what: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("probe: {what} must be a number, got '{text}'\n{USAGE}");
        std::process::exit(2);
    })
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn datasets(list: &str) -> Result<Vec<Dataset>, String> {
    list.split(',')
        .map(|n| Dataset::from_name(n).ok_or_else(|| format!("unknown dataset '{n}'")))
        .collect()
}

/// The daemon's cell for an id like `BFS/cond/GTX980/scu-enhanced`.
fn parse_cell(cfg: &ExperimentConfig, id: &str) -> Result<Cell, String> {
    let parts: Vec<&str> = id.split('/').collect();
    let [algo, dataset, system, mode] = parts[..] else {
        return Err(format!("cell id '{id}' is not ALGO/DATASET/SYSTEM/MODE"));
    };
    let bad = || format!("cell id '{id}' names something outside the matrix");
    Ok(cfg.cell(
        Algorithm::from_name(algo).ok_or_else(bad)?,
        Dataset::from_name(dataset).ok_or_else(bad)?,
        SystemKind::from_name(system).ok_or_else(bad)?,
        Mode::from_name(mode).ok_or_else(bad)?,
    ))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// `(cell id, value)` pairs of a `GET /sweeps/{id}/results` body.
fn sweep_results(path: &str) -> Result<Vec<(String, Value)>, String> {
    let body = read_json(path)?;
    let rows = body
        .get("results")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no 'results' array"))?;
    rows.iter()
        .map(|row| {
            let id = row.get("cell").and_then(Value::as_str);
            match (id, row.get("value")) {
                (Some(id), Some(v)) => Ok((id.to_string(), v.clone())),
                _ => Err(format!("{path}: a results row lacks 'cell' or 'value'")),
            }
        })
        .collect()
}

/// FNV-1a over the little-endian bytes of `values` widened to u64 — the
/// hash `CellResult::values_fnv` applies to simulated answers.
fn fnv1a_widened(values: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in values {
        for b in (v as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn load_graph(store: &GraphStore, cfg: &ExperimentConfig, d: Dataset) -> Result<Csr, String> {
    store.load_or_build(d, cfg.scale, cfg.seed, || d.try_build(cfg.scale, cfg.seed))
}

fn artifacts(dir: &str, list: &str) -> Result<Value, String> {
    let cfg = ExperimentConfig::from_env();
    let store = GraphStore::new(dir);
    let (mut build_s, mut map_ms) = (0.0, 0.0);
    for d in datasets(list)? {
        let t = Instant::now();
        load_graph(&store, &cfg, d)?;
        build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        store.load_or_build(d, cfg.scale, cfg.seed, || {
            Err(format!(
                "artifact for {d} missing right after it was published"
            ))
        })?;
        map_ms += t.elapsed().as_secs_f64() * 1e3;
    }
    Ok(obj(vec![
        ("build_s", Value::F64(build_s)),
        ("map_ms", Value::F64(map_ms)),
    ]))
}

fn refs(dir: &str, list: &str) -> Result<Value, String> {
    let cfg = ExperimentConfig::from_env();
    let store = GraphStore::new(dir);
    let mut fields = Vec::new();
    for d in datasets(list)? {
        let g = load_graph(&store, &cfg, d)?;
        for (algo, answer) in [
            ("BFS", bfs::reference::distances(&g, 0)),
            ("SSSP", sssp::reference::distances(&g, 0)),
            ("CC", cc::reference::labels(&g)),
        ] {
            fields.push((format!("{algo}/{d}"), Value::U64(fnv1a_widened(&answer))));
        }
    }
    Ok(Value::Object(fields))
}

/// Simulated statistics summed over the cells of one mode class.
#[derive(Default)]
struct SimTotals {
    launches: u64,
    warp_slots: u64,
    thread_insts: u64,
    gpu_ns: f64,
    transactions: u64,
    mem_slots: u64,
    l1_hits: u64,
    l1_accesses: u64,
    l2_hits: u64,
    l2_accesses: u64,
    dram_bytes: u64,
    row_hits: u64,
    row_accesses: u64,
    scu_ops: u64,
    scu_elements: u64,
    scu_ns: f64,
    filter_probes: u64,
    filter_dropped: u64,
    group_elements: u64,
    groups: u64,
    energy_pj: f64,
    iterations: u64,
}

impl SimTotals {
    fn add(&mut self, r: &RunReport) {
        for k in [&r.gpu_processing, &r.gpu_compaction] {
            self.launches += k.launches;
            self.warp_slots += k.warp_slots;
            self.thread_insts += k.thread_insts;
            self.transactions += k.transactions;
            self.mem_slots += k.mem_slots;
            self.l1_hits += k.l1.hits;
            self.l1_accesses += k.l1.accesses;
        }
        for m in [&r.gpu_processing.mem, &r.gpu_compaction.mem, &r.scu.mem] {
            self.l2_hits += m.l2.hits;
            self.l2_accesses += m.l2.accesses;
            self.row_hits += m.dram.row_hits;
            self.row_accesses += m.dram.row_hits + m.dram.row_misses;
        }
        self.gpu_ns += r.gpu_time_ns();
        self.dram_bytes += r.dram_bytes();
        self.scu_ops += r.scu.ops;
        self.scu_elements += r.scu.control_elements + r.scu.data_elements;
        self.scu_ns += r.scu.time_ns;
        self.filter_probes += r.scu.filter.probes;
        self.filter_dropped += r.scu.filter.dropped;
        self.group_elements += r.scu.group.elements;
        self.groups += r.scu.group.groups;
        self.energy_pj += r.energy.total_pj();
        self.iterations += r.iterations as u64;
    }

    /// Simulated events: warp issue slots (processing and compaction)
    /// plus SCU control and data elements.
    fn events(&self) -> u64 {
        self.warp_slots + self.scu_elements
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn analyze(path: &str) -> Result<Value, String> {
    let mut gpu = SimTotals::default();
    let mut scu = SimTotals::default();
    // (algo, dataset, system) -> (baseline, enhanced) reports.
    let mut pairs: BTreeMap<String, (Option<RunReport>, Option<RunReport>)> = BTreeMap::new();
    let mut iterations = Vec::new();
    for (id, value) in sweep_results(path)? {
        let result = CellResult::from_value(&value).map_err(|e| format!("{id}: {e:?}"))?;
        let (row, mode) = id
            .rsplit_once('/')
            .ok_or_else(|| format!("cell id '{id}' has no mode"))?;
        let mode = Mode::from_name(mode).ok_or_else(|| format!("cell id '{id}': unknown mode"))?;
        let totals = if mode.uses_scu() { &mut scu } else { &mut gpu };
        totals.add(&result.report);
        iterations.push((id.clone(), Value::U64(result.report.iterations as u64)));
        let pair = pairs.entry(row.to_string()).or_default();
        match mode {
            Mode::GpuBaseline => pair.0 = Some(result.report),
            Mode::ScuEnhanced => pair.1 = Some(result.report),
            _ => {}
        }
    }
    let mut sim = Vec::new();
    for (tag, t) in [("gpu_mode", &gpu), ("scu_mode", &scu)] {
        let mut put = |name: &str, v: f64| sim.push((format!("{name}.{tag}"), Value::F64(v)));
        put("gpu.launches", t.launches as f64);
        put("gpu.warp_insts", t.warp_slots as f64);
        put("gpu.thread_insts", t.thread_insts as f64);
        put("gpu.sim_ms", t.gpu_ns / 1e6);
        put("mem.tx_per_mem_inst", ratio(t.transactions, t.mem_slots));
        put("mem.l1_hit_rate", ratio(t.l1_hits, t.l1_accesses));
        put("mem.l2_accesses", t.l2_accesses as f64);
        put("mem.l2_hit_rate", ratio(t.l2_hits, t.l2_accesses));
        put("mem.dram_mb", t.dram_bytes as f64 / 1e6);
        put("mem.dram_row_hit_rate", ratio(t.row_hits, t.row_accesses));
        put("energy.mj", t.energy_pj / 1e9);
        put("algos.iterations", t.iterations as f64);
    }
    for (name, v) in [
        ("core.scu_ops", scu.scu_ops as f64),
        ("core.scu_elements", scu.scu_elements as f64),
        ("core.scu_sim_ms", scu.scu_ns / 1e6),
        (
            "core.filter_drop_rate",
            ratio(scu.filter_dropped, scu.filter_probes),
        ),
        (
            "core.group_mean_size",
            ratio(scu.group_elements, scu.groups),
        ),
    ] {
        sim.push((name.to_string(), Value::F64(v)));
    }
    // Fig 10 / Fig 9 averages: per platform, the geometric mean over the
    // rows of 1 / (enhanced / baseline), as fig10::average_speedup and
    // fig09::average_reduction fold them.
    let mut ratios = Vec::new();
    for system in SystemKind::ALL {
        let suffix = format!("/{}", system.name());
        let rows: Vec<(&RunReport, &RunReport)> = pairs
            .iter()
            .filter(|(row, _)| row.ends_with(&suffix))
            .filter_map(|(_, (b, e))| Some((b.as_ref()?, e.as_ref()?)))
            .collect();
        if rows.is_empty() {
            continue;
        }
        let n = rows.len() as f64;
        let speedup: f64 = rows
            .iter()
            .map(|(b, e)| 1.0 / (e.total_time_ns() / b.total_time_ns()))
            .product();
        let energy: f64 = rows
            .iter()
            .map(|(b, e)| 1.0 / (e.energy.total_pj() / b.energy.total_pj()))
            .product();
        let tag = system.name().to_ascii_lowercase();
        ratios.push((
            format!("fig10.speedup_{tag}"),
            Value::F64(speedup.powf(1.0 / n)),
        ));
        ratios.push((
            format!("fig9.energy_x_{tag}"),
            Value::F64(energy.powf(1.0 / n)),
        ));
    }
    Ok(obj(vec![
        ("events", Value::U64(gpu.events() + scu.events())),
        ("sim", Value::Object(sim)),
        ("ratios", Value::Object(ratios)),
        ("iterations", Value::Object(iterations)),
    ]))
}

/// One timed call into a layer.
struct Span {
    name: &'static str,
    cell: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A worker's spans, kept in memory until the run ends. A disabled
/// recorder reads no clock and keeps nothing: the untraced pass.
struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, cell: usize, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            cell,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        if self.enabled {
            self.spans[span].end_ns = self.now();
        }
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        cell: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, cell, Some(parent));
        let v = f();
        self.close(span);
        v
    }
}

/// One finished cell: its index, result value and result JSON text.
type Ran = (usize, Value, String);

/// What one worker ran: its spans and cells.
struct Probed {
    spans: Vec<Span>,
    values: Vec<Ran>,
    error: Option<String>,
}

/// One pass over `cells` on `jobs` threads, each cell going through the
/// layers the daemon calls: graph map (once per dataset), simulation,
/// summary, encode, store put. Returns the wall time, the spans (none when
/// `traced` is off) and the values in cell order.
fn run_cells(
    cfg: &ExperimentConfig,
    cells: &[Cell],
    graphs: &GraphStore,
    store: &LsmStore,
    jobs: usize,
    traced: bool,
) -> Result<(f64, Recorder, Vec<Ran>), String> {
    let memo: Mutex<HashMap<Dataset, Arc<Csr>>> = Mutex::new(HashMap::new());
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let worker = || {
        let mut rec = Recorder {
            epoch,
            enabled: traced,
            spans: Vec::new(),
        };
        let mut values = Vec::new();
        let mut error = None;
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(cell) = cells.get(i) else { break };
            let root = rec.open("cell", i, None);
            let cached = memo
                .lock()
                .expect("graph memo lock poisoned by a panicking worker")
                .get(&cell.dataset)
                .cloned();
            let g = match cached {
                Some(g) => g,
                None => match rec.time("graph.map", i, root, || {
                    load_graph(graphs, cfg, cell.dataset)
                }) {
                    Ok(g) => {
                        let g = Arc::new(g);
                        memo.lock()
                            .expect("graph memo lock poisoned by a panicking worker")
                            .insert(cell.dataset, Arc::clone(&g));
                        g
                    }
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                },
            };
            let out = rec.time("algos.run", i, root, || {
                run_configured(
                    cell.algorithm,
                    &g,
                    cell.system,
                    cell.mode,
                    cell.pr_iters,
                    cell.scu_config.as_ref(),
                )
            });
            let result = rec.time("trace.summarise", i, root, || {
                CellResult::new(cell.id(), &out)
            });
            let text = rec.time("codec.encode", i, root, || serde_json::to_string(&result));
            let value = serde_json::to_value(&result);
            let put = rec.time("store.put", i, root, || {
                store.put(&cell.cache_key(), &value)
            });
            rec.close(root);
            match (text, put) {
                (Ok(text), Ok(())) => values.push((i, value, text)),
                (Err(e), _) => error = Some(format!("{}: encode: {e:?}", cell.id())),
                (_, Err(e)) => error = Some(format!("{}: store put: {e}", cell.id())),
            }
        }
        Probed {
            spans: rec.spans,
            values,
            error,
        }
    };
    let probed: Vec<Probed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.max(1)).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a probe worker panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();

    let mut rec = Recorder {
        epoch,
        enabled: traced,
        spans: Vec::new(),
    };
    let mut values = Vec::new();
    for p in probed {
        if let Some(e) = p.error {
            return Err(e);
        }
        let base = rec.spans.len();
        rec.spans.extend(p.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|i| i + base),
            ..s
        }));
        values.extend(p.values);
    }
    values.sort_by_key(|(i, ..)| *i);
    if values.len() != cells.len() {
        return Err(format!("{} of {} cells ran", values.len(), cells.len()));
    }
    Ok((wall_s, rec, values))
}

fn open_store(dir: String) -> Result<LsmStore, String> {
    LsmStore::open(&dir).map_err(|e| format!("{dir}: {e}"))
}

fn trace(
    graph_dir: &str,
    store_dir: &str,
    spans_out: &str,
    expect_path: &str,
    jobs: usize,
    ids: &[String],
) -> Result<Value, String> {
    let cfg = ExperimentConfig::from_env();
    let cells: Vec<Cell> = ids
        .iter()
        .map(|id| parse_cell(&cfg, id))
        .collect::<Result<_, _>>()?;
    let expected: HashMap<String, Value> = sweep_results(expect_path)?.into_iter().collect();
    let graphs = GraphStore::new(graph_dir);

    // The same pass twice, spans off then on: the difference in wall time
    // is what the tracing costs.
    let untraced_store = open_store(format!("{store_dir}/untraced"))?;
    let (untraced_wall_s, _, _) = run_cells(&cfg, &cells, &graphs, &untraced_store, jobs, false)?;
    let store = open_store(format!("{store_dir}/traced"))?;
    let (wall_s, mut rec, values) = run_cells(&cfg, &cells, &graphs, &store, jobs, true)?;

    let flush = rec.open("store.flush", usize::MAX, None);
    store.flush().map_err(|e| format!("store flush: {e}"))?;
    rec.close(flush);
    let mut mismatches = Vec::new();
    for (i, value, text) in &values {
        let cell = &cells[*i];
        let root = rec.open("readback", *i, None);
        let got = rec.time("store.get", *i, root, || store.get(&cell.cache_key()));
        let decoded = rec.time("codec.decode", *i, root, || {
            serde_json::from_str::<CellResult>(text)
        });
        rec.close(root);
        let id = cell.id();
        let same_as_daemon = expected.get(&id).is_some_and(|want| {
            serde_json::to_string(want).ok() == serde_json::to_string(value).ok()
        });
        let round_trips = matches!(&got, GetResult::Hit(v) if v == value)
            && decoded.is_ok_and(|r| serde_json::to_value(&r) == *value);
        if !same_as_daemon || !round_trips {
            mismatches.push(Value::Str(id));
        }
    }

    write_spans(spans_out, &rec.spans, &cells)?;
    Ok(obj(vec![
        ("wall_s", Value::F64(wall_s)),
        ("untraced_wall_s", Value::F64(untraced_wall_s)),
        ("spans", Value::U64(rec.spans.len() as u64)),
        ("layers", layer_totals(&rec.spans)),
        ("run_s", per_cell_seconds(&rec.spans, &cells, "algos.run")),
        ("mismatches", Value::Array(mismatches)),
    ]))
}

/// Per span name: call count, total seconds, self seconds (duration
/// minus the part its children cover), and the median call in seconds.
fn layer_totals(spans: &[Span]) -> Value {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        by_name
            .entry(s.name)
            .or_default()
            .push((dur, dur.saturating_sub(*children)));
    }
    Value::Object(
        by_name
            .into_iter()
            .map(|(name, mut calls)| {
                calls.sort_unstable();
                let total: u64 = calls.iter().map(|c| c.0).sum();
                let self_ns: u64 = calls.iter().map(|c| c.1).sum();
                let median = calls[calls.len() / 2].0;
                (
                    name.to_string(),
                    obj(vec![
                        ("count", Value::U64(calls.len() as u64)),
                        ("total_s", Value::F64(total as f64 / 1e9)),
                        ("self_s", Value::F64(self_ns as f64 / 1e9)),
                        ("median_s", Value::F64(median as f64 / 1e9)),
                    ]),
                )
            })
            .collect(),
    )
}

fn per_cell_seconds(spans: &[Span], cells: &[Cell], name: &str) -> Value {
    Value::Object(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                (
                    cells[s.cell].id(),
                    Value::F64((s.end_ns - s.start_ns) as f64 / 1e9),
                )
            })
            .collect(),
    )
}

fn write_spans(path: &str, spans: &[Span], cells: &[Cell]) -> Result<(), String> {
    let rows = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            obj(vec![
                ("id", Value::U64(i as u64)),
                ("name", Value::Str(s.name.to_string())),
                (
                    "cell",
                    cells
                        .get(s.cell)
                        .map_or(Value::Null, |c| Value::Str(c.id())),
                ),
                ("start_ns", Value::U64(s.start_ns)),
                ("end_ns", Value::U64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
            ])
        })
        .collect();
    let text = serde_json::to_string(&Value::Array(rows)).map_err(|e| format!("{e:?}"))?;
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// One `GET` on a fresh connection: status and body, read to the close.
fn fetch(addr: &SocketAddr, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response has no header end"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other("response has no status code"))?;
    Ok((status, raw.split_off(head_end + 4)))
}

/// SplitMix64: the request order's generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Nearest-rank percentile of a sorted, non-empty slice.
fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Requests per statistics chunk: enough that ten lie beyond each chunk's
/// p99. The driver takes medians over chunks, so a second of host slowdown
/// does not move a whole run's figures.
const CHUNK: usize = 1000;

fn client(
    url: &str,
    expect_path: &str,
    seed: u64,
    seconds: f64,
    min_requests: usize,
) -> Result<Value, String> {
    let host = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("URL '{url}' is not http://HOST:PORT"))?
        .trim_end_matches('/');
    let addr = host
        .to_socket_addrs()
        .map_err(|e| format!("{host}: {e}"))?
        .next()
        .ok_or_else(|| format!("{host} resolves to nothing"))?;
    let cells: Vec<(Vec<u8>, String, u64)> = sweep_results(expect_path)?
        .into_iter()
        .map(|(id, value)| {
            let fnv = value.get("values_fnv").and_then(Value::as_u64).unwrap_or(0);
            let request =
                format!("GET /cells/{id} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
            (request.into_bytes(), id, fnv)
        })
        .collect();
    if cells.is_empty() {
        return Err(format!("{expect_path}: no cells to request"));
    }
    let min_requests = min_requests.max(CHUNK);
    let mut state = seed;
    let mut order: Vec<usize> = (0..cells.len()).collect();
    // (cell index, latency, completion time since start), times in microseconds.
    let mut samples: Vec<(usize, u64, u64)> = Vec::with_capacity(min_requests);
    let (mut non_200, mut errors, mut mismatched) = (0u64, 0u64, 0u64);
    let mut mismatches = Vec::new();
    let start = Instant::now();
    'outer: loop {
        shuffle(&mut order, &mut state);
        for &cell in &order {
            if samples.len() >= min_requests && start.elapsed().as_secs_f64() >= seconds {
                break 'outer;
            }
            let (request, id, fnv) = &cells[cell];
            let t = Instant::now();
            let reply = fetch(&addr, request);
            samples.push((
                cell,
                t.elapsed().as_micros() as u64,
                start.elapsed().as_micros() as u64,
            ));
            match reply {
                Ok((200, body)) => {
                    let got = std::str::from_utf8(&body)
                        .ok()
                        .and_then(|text| serde_json::from_str::<Value>(text).ok())
                        .and_then(|v| v.get("value")?.get("values_fnv")?.as_u64());
                    if got != Some(*fnv) {
                        mismatched += 1;
                        if mismatches.len() < 16 {
                            mismatches.push(Value::Str(id.clone()));
                        }
                    }
                }
                Ok(_) => non_200 += 1,
                Err(_) => errors += 1,
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (mut p50s, mut p99s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut chunk_start_us = 0;
    for chunk in samples.chunks_exact(CHUNK) {
        let mut latencies: Vec<u64> = chunk.iter().map(|s| s.1).collect();
        latencies.sort_unstable();
        p99s.push(Value::U64(percentile(&latencies, 0.99)));
        // The chunk's p50 is the median over cells of each cell's median:
        // with few distinct cells the pooled median sits in the gap
        // between two cells' latencies and jumps between them.
        let mut by_cell: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for &(cell, latency, _) in chunk {
            by_cell.entry(cell).or_default().push(latency);
        }
        let mut cell_p50s: Vec<u64> = by_cell
            .into_values()
            .map(|mut v| {
                v.sort_unstable();
                percentile(&v, 0.50)
            })
            .collect();
        cell_p50s.sort_unstable();
        p50s.push(Value::U64(percentile(&cell_p50s, 0.50)));
        let chunk_end_us = chunk[CHUNK - 1].2;
        rates.push(Value::F64(
            CHUNK as f64 * 1e6 / (chunk_end_us - chunk_start_us).max(1) as f64,
        ));
        chunk_start_us = chunk_end_us;
    }
    Ok(obj(vec![
        ("requests", Value::U64(samples.len() as u64)),
        ("non_200", Value::U64(non_200)),
        ("errors", Value::U64(errors)),
        ("mismatched", Value::U64(mismatched)),
        ("mismatches", Value::Array(mismatches)),
        ("wall_s", Value::F64(wall_s)),
        ("chunk_p50_us", Value::Array(p50s)),
        ("chunk_p99_us", Value::Array(p99s)),
        ("chunk_req_per_s", Value::Array(rates)),
    ]))
}
