//! The HTTP front end: accept loop, connection workers, and routing.
//!
//! | method | path                  | behaviour                                   |
//! |--------|-----------------------|---------------------------------------------|
//! | GET    | `/healthz`            | liveness + uptime + load state              |
//! | GET    | `/metrics`            | scheduler counters (dedup proof lives here) |
//! | POST   | `/sweeps`             | submit a sweep (see [`crate::api`])         |
//! | GET    | `/sweeps/{id}`        | status + per-cell states                    |
//! | GET    | `/sweeps/{id}/events` | chunked NDJSON stream of live completions   |
//! | GET    | `/sweeps/{id}/results`| resolved cell values, planned order         |
//! | DELETE | `/sweeps/{id}`        | cancel                                      |
//! | GET    | `/cells/{cell id}`    | cache read, zero recompute (404 if cold)    |
//!
//! Connections are handed to a small fixed worker pool; event-stream
//! connections occupy a worker until the sweep closes, so the pool is
//! sized above the handful of concurrent clients a workstation daemon
//! sees.
//!
//! Degraded-conditions posture (see DESIGN.md §3e):
//!
//! - every accepted socket gets read/write timeouts plus a wall-clock
//!   request deadline, so a slowloris client is cut off, not served;
//! - the connection queue is bounded — overflow connections are shed
//!   with an immediate `503 Retry-After` instead of queueing without
//!   bound;
//! - a client that vanishes mid-event-stream releases its sweep
//!   (`Scheduler::client_disconnected`), so orphaned work stops
//!   consuming the shared harness.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use scu_harness::error::lock_unpoisoned;
use scu_harness::failpoint;
use serde_json::Value;

use crate::api;
use crate::http::{self, ChunkedWriter, ReadLimits, Request};
use crate::scheduler::Scheduler;

/// Socket and pool knobs; defaults suit a workstation daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection handler threads. Streaming clients hold one each.
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this they are
    /// shed with `503 Retry-After`.
    pub max_queued_conns: usize,
    /// Per-`read(2)` socket timeout.
    pub read_timeout: Duration,
    /// Per-`write(2)` socket timeout (bounds a stalled stream write).
    pub write_timeout: Duration,
    /// Total wall-clock budget for reading one request — the slowloris
    /// bound (per-read timeouts alone never fire for a client that
    /// trickles a byte per window).
    pub request_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            max_queued_conns: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
        }
    }
}

/// Work queue feeding accepted connections to the handler pool,
/// bounded so a connection flood sheds instead of accumulating.
struct ConnQueue {
    queue: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
    cap: usize,
    /// Connections shed because the queue was full.
    shed: AtomicU64,
}

impl ConnQueue {
    fn new(cap: usize) -> Arc<Self> {
        Arc::new(ConnQueue {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            cap: cap.max(1),
            shed: AtomicU64::new(0),
        })
    }

    /// Enqueues the connection, or hands it back when the queue is at
    /// capacity so the caller can shed it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut guard = lock_unpoisoned(&self.queue, "connection queue");
        if guard.0.len() >= self.cap {
            return Err(stream);
        }
        guard.0.push_back(stream);
        drop(guard);
        self.ready.notify_one();
        Ok(())
    }

    fn close(&self) {
        lock_unpoisoned(&self.queue, "connection queue").1 = true;
        self.ready.notify_all();
    }

    /// Pops the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut guard = lock_unpoisoned(&self.queue, "connection queue");
        loop {
            if let Some(stream) = guard.0.pop_front() {
                return Some(stream);
            }
            if guard.1 {
                return None;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
}

/// Stops a running [`Server`] from another thread (the SIGINT watcher,
/// a test).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Graceful shutdown: refuse new work, drain the scheduler (the
    /// running batch finishes and reaches cache + journal), then
    /// unblock the accept loop. Blocks until the scheduler is drained.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.scheduler.shutdown();
        // The accept loop blocks in accept(2); one throwaway
        // connection wakes it to observe the stop flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds the listener with default [`ServerConfig`]. Use port 0
    /// for an OS-assigned port.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, bad address).
    pub fn bind(addr: &str, scheduler: Arc<Scheduler>) -> std::io::Result<Server> {
        Server::bind_with(addr, scheduler, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit socket/pool knobs.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, bad address).
    pub fn bind_with(
        addr: &str,
        scheduler: Arc<Scheduler>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            scheduler,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has an address")
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            scheduler: Arc::clone(&self.scheduler),
            stop: Arc::clone(&self.stop),
        }
    }

    /// Serves until [`ServerHandle::shutdown`]. Returns after every
    /// worker thread has drained — no leaked threads.
    pub fn run(self) {
        let queue = ConnQueue::new(self.cfg.max_queued_conns);
        let workers: Vec<_> = (0..self.cfg.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let scheduler = Arc::clone(&self.scheduler);
                let cfg = self.cfg.clone();
                std::thread::Builder::new()
                    .name(format!("scu-http-{i}"))
                    .spawn(move || {
                        while let Some(mut stream) = queue.pop() {
                            handle_connection(&mut stream, &scheduler, &cfg, &queue);
                        }
                    })
                    .expect("spawning an HTTP worker")
            })
            .collect();
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    // Failpoint site: a fault here models accept(2) or
                    // early-socket failures — the connection is dropped,
                    // the loop must keep serving.
                    if let Err(e) = failpoint::io("server-accept") {
                        eprintln!("[scu-server] accept failed: {e}");
                        continue;
                    }
                    if let Err(stream) = queue.push(stream) {
                        queue.shed.fetch_add(1, Ordering::Relaxed);
                        shed_connection(stream);
                    }
                }
                Err(e) => eprintln!("[scu-server] accept failed: {e}"),
            }
        }
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// Best-effort `503 Retry-After` on a connection the queue cannot
/// hold; the write is bounded so a slow flood cannot stall the accept
/// loop.
fn shed_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = http::respond_error_with(
        &mut stream,
        503,
        &[("Retry-After", "1")],
        "server overloaded: connection queue is full; retry later",
    );
}

/// Reads one request, routes it, writes one response. All errors
/// degrade to an error response or a dropped connection — a bad client
/// never takes the server down.
fn handle_connection(
    stream: &mut TcpStream,
    scheduler: &Arc<Scheduler>,
    cfg: &ServerConfig,
    queue: &ConnQueue,
) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let limits = ReadLimits {
        deadline: Some(cfg.request_deadline),
        ..ReadLimits::default()
    };
    let request = match http::read_request(stream, &limits) {
        Ok(r) => r,
        Err(e) => {
            let status = match e.kind() {
                // The request deadline or a socket read timeout fired:
                // the client was too slow, not malformed.
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => 408,
                _ if e.to_string().contains("too large") => 413,
                _ => 400,
            };
            let _ = http::respond_error(stream, status, &format!("bad request: {e}"));
            return;
        }
    };
    // Every route error is a failed response write — the request was
    // fully read before routing, so by the time route() errors the
    // response has (at least partly) gone out, most visibly a chunked
    // event stream cut off by a vanished or stalled client. Appending
    // another response onto that partial one would corrupt the HTTP
    // framing; dropping the connection is the only well-formed ending.
    let _ = route(stream, &request, scheduler, queue);
}

fn route(
    stream: &mut TcpStream,
    req: &Request,
    scheduler: &Arc<Scheduler>,
    queue: &ConnQueue,
) -> std::io::Result<()> {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => http::respond_json(
            stream,
            200,
            &Value::Object(vec![
                ("status".to_string(), Value::Str("ok".to_string())),
                (
                    "load".to_string(),
                    Value::Str(scheduler.load_state().to_string()),
                ),
                (
                    "uptime_secs".to_string(),
                    Value::F64(scheduler.uptime_secs()),
                ),
                (
                    "matrix_cells".to_string(),
                    Value::U64(scheduler.matrix_size() as u64),
                ),
            ]),
        ),
        ("GET", "/metrics") => {
            let mut metrics = scheduler.metrics();
            if let Value::Object(fields) = &mut metrics {
                fields.push((
                    "shed_connections".to_string(),
                    Value::U64(queue.shed_count()),
                ));
            }
            http::respond_json(stream, 200, &metrics)
        }
        ("POST", "/sweeps") => submit_sweep(stream, req, scheduler),
        _ => {
            if let Some(rest) = path.strip_prefix("/sweeps/") {
                return route_sweep(stream, req, scheduler, rest);
            }
            if let Some(cell_id) = path.strip_prefix("/cells/") {
                return route_cell(stream, req, scheduler, cell_id);
            }
            http::respond_error(stream, 404, &format!("no route for {path}"))
        }
    }
}

fn submit_sweep(
    stream: &mut TcpStream,
    req: &Request,
    scheduler: &Arc<Scheduler>,
) -> std::io::Result<()> {
    let body_text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return http::respond_error(stream, 400, "body is not UTF-8"),
    };
    let body: Value = match serde_json::from_str(body_text) {
        Ok(v) => v,
        Err(e) => return http::respond_error(stream, 400, &format!("body is not JSON: {e:?}")),
    };
    let cells = match api::parse_sweep_request(&body, scheduler.experiment()) {
        Ok(c) => c,
        Err(e) => return http::respond_error(stream, 400, &e),
    };
    let deadline = match api::parse_deadline(&body) {
        Ok(d) => d,
        Err(e) => return http::respond_error(stream, 400, &e),
    };
    match scheduler.submit(cells, deadline) {
        Ok(sweep) => http::respond_json(
            stream,
            201,
            &Value::Object(vec![
                ("id".to_string(), Value::U64(sweep.id)),
                ("total".to_string(), Value::U64(sweep.cells.len() as u64)),
                (
                    "cells".to_string(),
                    Value::Array(
                        sweep
                            .cells
                            .iter()
                            .map(|id| Value::Str(id.clone()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        Err(e) if e.contains("shutting down") => http::respond_error(stream, 503, &e),
        Err(e) if e.contains("overloaded") => {
            http::respond_error_with(stream, 429, &[("Retry-After", "1")], &e)
        }
        Err(e) => http::respond_error(stream, 400, &e),
    }
}

fn route_sweep(
    stream: &mut TcpStream,
    req: &Request,
    scheduler: &Arc<Scheduler>,
    rest: &str,
) -> std::io::Result<()> {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return http::respond_error(stream, 400, &format!("bad sweep id '{id_text}'"));
    };
    let Some(sweep) = scheduler.sweep(id) else {
        return http::respond_error(stream, 404, &format!("no sweep {id}"));
    };
    match (req.method.as_str(), tail) {
        ("GET", None) => http::respond_json(stream, 200, &sweep.status()),
        ("GET", Some("results")) => http::respond_json(stream, 200, &sweep.results()),
        ("GET", Some("events")) => {
            let streamed = (|| {
                let mut writer = ChunkedWriter::start(stream, 200)?;
                let mut cursor = 0usize;
                loop {
                    let (events, done) = sweep.wait_events(cursor);
                    cursor += events.len();
                    for event in &events {
                        writer.send(event)?;
                    }
                    // `done` was read under the same lock as the copy,
                    // and nothing appends after it rises — the stream
                    // is complete.
                    if done {
                        break;
                    }
                }
                writer.finish()
            })();
            if let Err(e) = streamed {
                // The consumer vanished (or stalled past the write
                // timeout) — possibly before the response head was even
                // out: release its sweep so orphaned cells stop
                // consuming the harness, then drop the dead connection.
                scheduler.client_disconnected(id);
                return Err(e);
            }
            Ok(())
        }
        ("DELETE", None) => {
            scheduler.cancel_sweep(id);
            http::respond_json(
                stream,
                200,
                &Value::Object(vec![
                    ("id".to_string(), Value::U64(id)),
                    ("cancelled".to_string(), Value::Bool(true)),
                ]),
            )
        }
        _ => http::respond_error(stream, 405, "unsupported method for this sweep path"),
    }
}

fn route_cell(
    stream: &mut TcpStream,
    req: &Request,
    scheduler: &Arc<Scheduler>,
    cell_id: &str,
) -> std::io::Result<()> {
    if req.method != "GET" {
        return http::respond_error(stream, 405, "cells are read-only");
    }
    match scheduler.cached_cell(cell_id) {
        Err(e) => http::respond_error(stream, 404, &e),
        Ok(None) => http::respond_error(
            stream,
            404,
            &format!("cell {cell_id} is not cached yet — submit a sweep to compute it"),
        ),
        Ok(Some(value)) => {
            // The stored text is canonical JSON, so splicing it into
            // the envelope prints exactly what encoding the parsed
            // value would: `{"cell":…,"cached":true,"value":…}`.
            let id = serde_json::to_string(&Value::Str(cell_id.to_string()))
                .expect("serialising a Value cannot fail");
            let body = format!("{{\"cell\":{id},\"cached\":true,\"value\":{value}}}");
            http::respond_json_text(stream, 200, &[], &body)
        }
    }
}
