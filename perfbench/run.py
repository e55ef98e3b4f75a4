#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --compare OLD.json NEW.json

Run it from the repository root. It builds the release daemon (`scu_serve`)
and the benchmark's own probe (`perfbench/probe`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then drives the daemon the way a user does: default
flags, `--jobs 2`, and one client with at most one connection open.

Workloads (BENCHMARK.json says why each exists). cc-mesh is not listed
there: its four read-back cells are all ~23 KB, so its p99 is a pure tail
that follows the host's slow phases (a 23% spread over five seeds on a
2-vCPU KVM guest), and a third workload would leave the other two too little
closed-loop time within the benchmark's time budget.

- paper-sweep: the 72 cells behind Fig 9/10 ({BFS, SSSP, PR} x six datasets
  x {GTX980, TX1} x {gpu, scu-enhanced}), posted in matrix order as one cell
  list to a fresh daemon.
- cc-mesh: the 4 CC/delaunay cells, posted the same way.
- serve-warm: set-up computes the 40 cond cells through the daemon and
  restarts it; a closed-loop client then fetches GET /cells/{id} in a seeded
  random order. Each of the SETUP_REPS set-ups gets an equal share of
  --seconds, so the loop samples the host across the whole run.

A batch workload (paper-sweep, cc-mesh) runs one sweep on a fresh daemon and
an empty store, writes the store through to disk, and then a restarted daemon
serves its cells back to the same closed-loop client for --seconds. Request
latency on a shared 2-vCPU VM wanders by a quarter in phases of seconds to
minutes, so the loop must be long to be steady.

Every workload prints every metric: serve-warm's `wall_s` and
`sim_mevents_per_s` come from its set-up sweeps, and `paper_gap` folds the
workload's own (algorithm, dataset) rows, which only on paper-sweep are the
18 rows per platform of Fig 9/10. Closed-loop figures are medians over
1000-request chunks, the p50 of a chunk being the median over cells of each
cell's median latency.

Every run starts in an empty directory under `.bench_runs/` with a fresh
store, fresh graph artifacts and a fresh daemon; the seed reaches the program
only as SCU_SEED. Set-up (artifacts built through GraphStore::load_or_build,
daemon listening, and for serve-warm the warm-up sweep and restart) is
repeated SETUP_REPS times per run and `setup_s` is the median.

`--trace 0` prints the end-to-end metrics. `--trace 1` makes the same
untraced measurement, then runs the workload's cells in process through the
probe twice, spans off and on, and prints the per-layer metrics; the
difference between the two passes is the tracing overhead.

The run fails (exit 1, `"correct": false`) when a cell does not finish as
`done`, modes disagree on an answer, a BFS/SSSP/CC answer differs from the
host reference, a served answer differs from the one the sweep produced, or
simulated statistics differ between two runs of the same build: two sweeps
of one run, the daemon and the in-process probe, or this run and an earlier
one with the same build, workload and seed (`.bench_runs/ledger.json`).

Each run writes a record with the host fingerprint to `.bench_runs/records/`;
`--compare` diffs two records and refuses (exit 3) when their hosts differ.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.parse
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUNS = ROOT / ".bench_runs"

JOBS = 2
SETUP_REPS = 5
# At least this many requests per closed loop, so ten lie beyond p99.
MIN_REQUESTS = 1000

# Fig 10 speedups and Fig 9 energy reductions the paper reports.
PAPER = {
    "fig10.speedup_gtx980": 1.37,
    "fig10.speedup_tx1": 2.32,
    "fig9.energy_x_gtx980": 6.55,
    "fig9.energy_x_tx1": 3.24,
}

DATASETS = ["ca", "cond", "delaunay", "human", "kron", "msdoor"]
SYSTEMS = ["GTX980", "TX1"]


def plan(algos, datasets, modes):
    """Cell ids in the experiment matrix's order: dataset, algorithm, system, mode."""
    return [f"{a}/{d}/{s}/{m}" for d in datasets for a in algos for s in SYSTEMS for m in modes]


WORKLOADS = {
    "paper-sweep": plan(["BFS", "SSSP", "PR"], DATASETS, ["gpu", "scu-enhanced"]),
    "cc-mesh": plan(["CC"], ["delaunay"], ["gpu", "scu-enhanced"]),
    "serve-warm": plan(
        ["BFS", "SSSP", "PR", "CC", "KCORE"],
        ["cond"],
        ["gpu", "scu-basic", "scu-filtering", "scu-enhanced"],
    ),
}
SERVE_WORKLOADS = {"serve-warm"}


class BenchError(Exception):
    """The benchmark could not measure (build, daemon or probe failure)."""


def median(values):
    return statistics.median(values)


def paper_gap(ratios):
    """Mean |ln(measured / paper)| over the four Fig 9/10 headline ratios."""
    return sum(abs(math.log(ratios[k] / ref)) for k, ref in PAPER.items()) / len(PAPER)


# --------------------------------------------------------------------------
# Host, build and processes


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "rustc": rustc,
    }


def build():
    """Builds the daemon and the probe; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} holds no repository to build (no Cargo.toml or crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "scu-server", "--bin", "scu_serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH_DIR / "probe" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "scu_serve", target / "release" / "scu-perfbench-probe"


# Closed loops run the daemon and the client on one CPU: a wakeup that
# crosses vCPUs waits for the hypervisor to run the other one, which on a
# shared host adds a tail of milliseconds and swings latency 30-60% between
# daemons. The loop takes the last CPU, because CPU 0 also serves the VM's
# device interrupts, timers and RCU callbacks: on a 2-vCPU KVM guest, 16 s
# loops spread 17% (p50) on CPU 0 and 6% on CPU 1, interleaved.
LOOP_CPUS = {max(os.sched_getaffinity(0))}


def pinned(cpus):
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


LIVE = []


class Daemon:
    """One `scu_serve --port 0 --jobs 2` in `cwd`, stopped with SIGINT."""

    def __init__(self, exe, cwd, env, cpus=None):
        out_path = cwd / "serve.out"
        out_path.write_text("")
        with open(out_path, "ab") as out, open(cwd / "serve.err", "ab") as err:
            self.proc = subprocess.Popen(
                [str(exe), "--port", "0", "--jobs", str(JOBS)],
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                preexec_fn=pinned(cpus),
            )
        LIVE.append(self)
        prefix = "scu-serve listening on "
        deadline = time.monotonic() + 60
        while "\n" not in (text := out_path.read_text()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError(f"scu_serve did not start; see {cwd / 'serve.err'}")
            time.sleep(0.002)
        line = text.splitlines()[0]
        if not line.startswith(prefix):
            self.stop()
            raise BenchError(f"unexpected scu_serve banner: {line!r}")
        self.url = line[len(prefix):].strip()

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for ln in f:
                if ln.startswith("VmHWM:"):
                    return int(ln.split()[1]) * 1024 / 1e6
        raise BenchError("no VmHWM for scu_serve")

    def metrics(self):
        """`GET /metrics`; every field is optional to the benchmark."""
        status, raw = http_call(self.url, "GET", "/metrics")
        return json.loads(raw) if status == 200 else {}

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self in LIVE:
            LIVE.remove(self)


def stop_all():
    for d in list(LIVE):
        if d.proc.poll() is None:
            d.proc.kill()
            d.proc.wait()
        LIVE.remove(d)


def probe(exe, args, env, timeout=170, cpus=None):
    done = subprocess.run(
        [str(exe), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=pinned(cpus),
    )
    if done.returncode != 0:
        raise BenchError(f"probe {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def http_call(url, method, path, body=None):
    u = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(u.hostname, u.port, timeout=170)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def dir_bytes(path):
    return sum(
        os.lstat(os.path.join(base, name)).st_size for base, _, files in os.walk(path) for name in files
    )


def fsync_tree(path):
    """Writes every file under `path` through to disk."""
    for base, _, files in os.walk(path):
        for name in files:
            fd = os.open(os.path.join(base, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


# --------------------------------------------------------------------------
# Sweeps, closed loops and checks


def run_sweep(daemon, ids, results_path):
    """Posts `ids` as one cell list and follows the event stream to `done`.

    Returns the wall time, `(seconds since submit, event)` pairs, the parsed
    results body (also saved raw to `results_path`), and the daemon's
    /metrics and VmHWM right after."""
    cells = [dict(zip(("algorithm", "dataset", "system", "mode"), i.split("/"))) for i in ids]
    t0 = time.perf_counter()
    status, data = http_call(daemon.url, "POST", "/sweeps", json.dumps({"cells": cells}))
    if status != 201:
        raise BenchError(f"POST /sweeps -> {status}: {data[:200]!r}")
    sweep_id = json.loads(data)["id"]
    u = urllib.parse.urlsplit(daemon.url)
    conn = http.client.HTTPConnection(u.hostname, u.port, timeout=170)
    events = []
    try:
        conn.request("GET", f"/sweeps/{sweep_id}/events")
        resp = conn.getresponse()
        while not events or events[-1][1].get("type") != "done":
            line = resp.readline()
            if not line:
                raise BenchError("event stream closed before the done event")
            if line.strip():
                events.append((time.perf_counter() - t0, json.loads(line)))
    finally:
        conn.close()
    status, raw = http_call(daemon.url, "GET", f"/sweeps/{sweep_id}/results")
    if status != 200:
        raise BenchError(f"GET /sweeps/{sweep_id}/results -> {status}")
    results_path.write_bytes(raw)
    return {
        "wall_s": events[-1][0],
        "events": events,
        "results": json.loads(raw),
        "path": results_path,
        "metrics": daemon.metrics(),
        "peak_rss_mb": daemon.vm_hwm_mb(),
    }


def closed_loop(daemon, probe_exe, results_path, seed, seconds, env):
    """One client, one connection at a time, fetching the sweep's cells."""
    client = probe(
        probe_exe,
        ["client", daemon.url, results_path, seed, seconds, MIN_REQUESTS],
        env,
        timeout=seconds + 120,
        cpus=LOOP_CPUS,
    )
    client["metrics"] = daemon.metrics()
    client["peak_rss_mb"] = daemon.vm_hwm_mb()
    return client


def merge_loops(loops):
    """Pools closed-loop segments; each latency and rate figure is the
    median over all their 1000-request chunks."""
    def chunks(key):
        return [v for loop in loops for v in loop[key]]

    def total(key):
        return sum(loop[key] for loop in loops)

    return {
        "requests": total("requests"),
        "non_200": total("non_200"),
        "errors": total("errors"),
        "mismatched": total("mismatched"),
        "mismatches": chunks("mismatches"),
        "p50_us": median(chunks("chunk_p50_us")),
        "p99_us": median(chunks("chunk_p99_us")),
        "req_per_s": median(chunks("chunk_req_per_s")),
        "metrics": loops[-1]["metrics"],
        "peak_rss_mb": loops[-1]["peak_rss_mb"],
    }


def check_sweep(sweep, ids, refs, problems):
    """The correctness gate for one sweep. Returns the number of failed cells."""
    labels = {ev.get("cell"): ev.get("label") for _, ev in sweep["events"] if ev.get("type") == "cell"}
    values = {row["cell"]: row["value"] for row in sweep["results"].get("results", [])}
    failed = 0
    answers = defaultdict(set)
    for cid in ids:
        value = values.get(cid)
        if labels.get(cid) != "done" or value is None:
            failed += 1
            problems.append(f"{cid} finished as {labels.get(cid)!r}, not 'done'")
            continue
        algo, dataset, system, _ = cid.split("/")
        answers[(algo, dataset, system)].add(value["values_fnv"])
        ref = refs.get(f"{algo}/{dataset}")
        if ref is not None and value["values_fnv"] != ref:
            problems.append(f"{cid} answer {value['values_fnv']:#x} differs from the host reference {ref:#x}")
    for (algo, dataset, system), fnvs in sorted(answers.items()):
        if len(fnvs) > 1:
            problems.append(f"{algo}/{dataset}/{system}: modes disagree on the answer ({len(fnvs)} fingerprints)")
    return failed


def worker_stats(sweep):
    """Utilization and tail of the daemon's two workers, from the event stream.

    With two workers, the first goes idle when the second-to-last cell ends."""
    cells = {ev["cell"]: (t, ev.get("duration_ns", 0) / 1e9) for t, ev in sweep["events"] if ev.get("type") == "cell"}
    ends = sorted(t for t, _ in cells.values())
    first_idle = ends[-2] if len(ends) >= 2 else 0.0
    return {
        "utilization": sum(d for _, d in cells.values()) / (sweep["wall_s"] * JOBS),
        "tail_s": sweep["wall_s"] - first_idle,
        "cell_s": {cid: d for cid, (_, d) in cells.items()},
    }


def sim_digest(analysis, sweep):
    """A digest of everything simulated: statistics, ratios and per-cell answers and timelines."""
    cells = sorted(
        (row["cell"], row["value"]["values_fnv"], row["value"]["timeline_digest"])
        for row in sweep["results"].get("results", [])
    )
    blob = json.dumps([analysis["sim"], analysis["ratios"], analysis["iterations"], cells], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def check_ledger(key, digest, problems):
    """Fails when an earlier run of the same build (daemon and probe),
    workload and seed simulated differently."""
    path = RUNS / "ledger.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    if ledger.get(key, digest) != digest:
        problems.append(f"simulated statistics differ from an earlier run of the same build ({key})")
        return
    ledger[key] = digest
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(path)


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()[:16]


# --------------------------------------------------------------------------
# One run


def setup(workload, ids, datasets, run_dir, fill_path, serve_exe, probe_exe, env):
    """From an empty directory to a listening daemon."""
    run_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    artifacts = probe(probe_exe, ["artifacts", run_dir / "results" / "graphs", ",".join(datasets)], env)
    daemon = Daemon(serve_exe, run_dir, env)
    fill = None
    if workload in SERVE_WORKLOADS:
        fill = run_sweep(daemon, ids, fill_path)
        daemon.stop()
        daemon = Daemon(serve_exe, run_dir, env, cpus=LOOP_CPUS)
    return {"setup_s": time.perf_counter() - t0, "artifacts": artifacts, "daemon": daemon, "fill": fill}


def measure(args, ids, datasets, base, serve_exe, probe_exe, env, problems):
    """Set-up, the untraced measurement and the correctness gate. Returns the
    values of every metric by name plus what the report needs."""
    serve = args.workload in SERVE_WORKLOADS
    setups, loops = [], []
    for rep in range(SETUP_REPS):
        if setups:
            setups[-1]["daemon"].stop()
            shutil.rmtree(base / f"rep{rep - 1}")
        run_dir = base / f"rep{rep}"
        s = setup(args.workload, ids, datasets, run_dir, base / f"fill{rep}.json", serve_exe, probe_exe, env)
        setups.append(s)
        if serve:
            loops.append(closed_loop(s["daemon"], probe_exe, s["fill"]["path"], args.seed, args.seconds / SETUP_REPS, env))
    daemon = setups[-1]["daemon"]
    refs = probe(probe_exe, ["refs", run_dir / "results" / "graphs", ",".join(datasets)], env)
    if args.forge_fingerprint:
        key = next(k for k in (cid.rsplit("/", 2)[0] for cid in ids) if k in refs)
        refs[key] ^= 1
        print(f"[perfbench] forged the reference fingerprint of {key}", file=sys.stderr)

    if serve:
        sweeps = [s["fill"] for s in setups]
        daemon.stop()
        main = sweeps[-1]
        peak_rss = loops[-1]["peak_rss_mb"]
        disk = dir_bytes(run_dir / "results" / "cache") / 1e6
    else:
        main = run_sweep(daemon, ids, base / "sweep.json")
        daemon.stop()
        sweeps, peak_rss = [main], main["peak_rss_mb"]
        disk = dir_bytes(run_dir / "results" / "cache") / 1e6
        # paper-sweep leaves ~640 MB of dirty pages; flushed here, their
        # writeback does not share the CPU with the timed requests.
        fsync_tree(run_dir / "results")
        reader = Daemon(serve_exe, run_dir, env, cpus=LOOP_CPUS)
        loops.append(closed_loop(reader, probe_exe, main["path"], args.seed, args.seconds, env))
        reader.stop()
    loop = merge_loops(loops)

    failed = sum(check_sweep(s, ids, refs, problems) for s in sweeps)
    attempted = len(ids) * len(sweeps) + loop["requests"]
    failed += loop["non_200"] + loop["errors"]
    if loop["mismatched"]:
        problems.append(f"{loop['mismatched']} served answers differ from the sweep's, e.g. {loop['mismatches'][:3]}")

    analysis = probe(probe_exe, ["analyze", main["path"]], env)
    digest = sim_digest(analysis, main)
    for s in sweeps:
        if s is not main and sim_digest(probe(probe_exe, ["analyze", s["path"]], env), s) != digest:
            problems.append("simulated statistics differ between two sweeps of one run")
    scale = args.scale if args.scale is not None else "default"
    build_id = file_sha(serve_exe) + file_sha(probe_exe)
    check_ledger(f"{build_id}:{args.workload}:seed{args.seed}:scale{scale}", digest, problems)

    wall = median(s["wall_s"] for s in sweeps)
    values = {
        "wall_s": wall,
        "sim_mevents_per_s": analysis["events"] / 1e6 / wall,
        "setup_s": median(s["setup_s"] for s in setups),
        "peak_rss_mb": peak_rss,
        "disk_mb": disk,
        "req_p50_ms": loop["p50_us"] / 1e3,
        "req_p99_ms": loop["p99_us"] / 1e3,
        "req_per_s": loop["req_per_s"],
        "success_frac": 1.0 - failed / attempted,
        "paper_gap": paper_gap(analysis["ratios"]),
    }
    state = {
        "setups": setups,
        "main": main,
        "analysis": analysis,
        "loop": loop,
        "run_dir": run_dir,
        "attempted": attempted,
        "failed": failed,
    }
    return values, state


def traced_values(ids, state, probe_exe, env, problems):
    """Runs the cells in process with spans around every layer call, and
    derives the per-layer values from the spans, the untraced sweep and the
    simulated statistics."""
    sweep, analysis, loop, run_dir = state["main"], state["analysis"], state["loop"], state["run_dir"]
    traced = probe(
        probe_exe,
        ["trace", run_dir / "results" / "graphs", run_dir / "probe-store", run_dir / "spans.json",
         sweep["path"], JOBS, *ids],
        env,
    )
    if traced["mismatches"]:
        problems.append(
            f"in-process results differ from the daemon's for {len(traced['mismatches'])} cells, "
            f"e.g. {traced['mismatches'][:3]}"
        )
    layers = traced["layers"]
    run_s = traced["run_s"]
    total_run = sum(run_s.values())
    workers = worker_stats(sweep)
    get_us = layers["store.get"]["median_s"] * 1e6
    encode_us = layers["codec.encode"]["median_s"] * 1e6
    req_us = loop["p50_us"]
    setups = state["setups"]
    values = {
        "graph.build_s": median(s["artifacts"]["build_s"] for s in setups),
        "graph.map_ms": median(s["artifacts"]["map_ms"] for s in setups),
        "algos.run_s": total_run,
        "algos.gpu_mode_s": sum(t for cid, t in run_s.items() if cid.endswith("/gpu")),
        "algos.scu_mode_s": sum(t for cid, t in run_s.items() if not cid.endswith("/gpu")),
        "algos.ns_per_event": total_run * 1e9 / max(analysis["events"], 1),
        "algos.ms_per_iter": total_run * 1e3 / max(sum(analysis["iterations"].values()), 1),
        "trace.summarise_ms": layers["trace.summarise"]["total_s"] * 1e3,
        "trace.overhead_s": traced["wall_s"] - traced["untraced_wall_s"],
        "harness.cell_overhead_s": sum(workers["cell_s"].get(c, 0.0) - t for c, t in run_s.items()),
        "harness.utilization": workers["utilization"],
        "harness.tail_s": workers["tail_s"],
        "store.put_ms": layers["store.put"]["median_s"] * 1e3,
        "store.get_us": get_us,
        "store.flush_ms": layers["store.flush"]["total_s"] * 1e3,
        # Writes are counted on the daemon that computed the cells, reads
        # on the one that served them.
        "store.wal_appends": sweep["metrics"].get("wal_appends", 0),
        "store.compactions": sweep["metrics"].get("compactions", 0),
        "store.segment_reads": loop["metrics"].get("segment_reads", 0),
        "codec.encode_us": encode_us,
        "codec.decode_us": layers["codec.decode"]["median_s"] * 1e6,
        "server.req_us": req_us,
        "server.overhead_us": req_us - get_us - encode_us,
    }
    values.update(analysis["sim"])
    values.update({name: analysis["ratios"][name] for name in PAPER})
    return values, layers


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ids = WORKLOADS[args.workload]
    datasets = sorted({cid.split("/")[1] for cid in ids}, key=DATASETS.index)
    host = host_fingerprint()
    serve_exe, probe_exe = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCU_")}
    env["SCU_SEED"] = str(args.seed)
    if args.scale is not None:
        env["SCU_SCALE"] = repr(args.scale)
    base = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    problems = []
    metrics, state = {}, {"attempted": 0, "failed": 0, "loop": {"requests": 0}}
    trace_overhead, spans = None, {}
    try:
        values, state = measure(args, ids, datasets, base, serve_exe, probe_exe, env, problems)
        kind = "end_to_end"
        if args.trace:
            values, spans = traced_values(ids, state, probe_exe, env, problems)
            trace_overhead = values["trace.overhead_s"]
            kind = "per_layer"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    except BenchError as e:
        problems.append(str(e))
    finally:
        stop_all()

    correct = not problems and bool(metrics)
    attempted, failed = max(state["attempted"], 1), state["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "req_samples": state["loop"]["requests"],
        "trace_overhead_s": trace_overhead,
        "spans": spans,
        "metrics": metrics,
    }
    records = RUNS / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=1))
    spans_file = base / f"rep{SETUP_REPS - 1}" / "spans.json"
    if spans_file.exists():
        shutil.copy(spans_file, record_path.with_suffix(".spans.json"))
    shutil.rmtree(base, ignore_errors=True)

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"{record['req_samples']} request samples; record {record_path.relative_to(ROOT)}")
    if trace_overhead is not None:
        print(f"tracing overhead: {trace_overhead:+.3f} s; spans by name (count, total s, self s):")
        for name, t in spans.items():
            print(f"  {name:20} {t['count']:8} {t['total_s']:12.6f} {t['self_s']:12.6f}")
    for p in problems:
        print(f"FAIL: {p}")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# Comparing two records


def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if old["host"] != new["host"]:
        print("HOST MISMATCH: these records come from different hosts; not comparing")
        for key in sorted(set(old["host"]) | set(new["host"])):
            if old["host"].get(key) != new["host"].get(key):
                print(f"  {key}: {old['host'].get(key)!r} vs {new['host'].get(key)!r}")
        return 3
    print(f"{old['workload']} seed {old['seed']} -> {new['workload']} seed {new['seed']}")
    for name, m in old["metrics"].items():
        if name in new["metrics"]:
            a, b = m["value"], new["metrics"][name]["value"]
            delta = f"{(b - a) / a * 100:+.1f}%" if a else "n/a"
            print(f"  {name:32} {a:12.6g} -> {b:12.6g} {m['unit']:10} {delta}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, help="dataset scale (SCU_SCALE); default: the program's 1/16")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="diff two run records")
    # Test hook: corrupts one host reference so the correctness gate must trip.
    parser.add_argument("--forge-fingerprint", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except BenchError as e:
        print(f"[perfbench] {e}", file=sys.stderr)
        return 2
    finally:
        stop_all()


if __name__ == "__main__":
    sys.exit(main())
