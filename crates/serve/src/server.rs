//! The server: one acceptor thread, a fixed pool of connection workers,
//! and graceful shutdown that drains in-flight work.
//!
//! ## Architecture
//!
//! ```text
//!        TcpListener (nonblocking accept loop)
//!              │ bounded handoff queue — overflow answered 503
//!        ┌─────┴─────┬───────────┐
//!    worker 0    worker 1 …  worker W-1     (keep-alive request loops)
//!        │ search     │ insert/delete
//!        ▼            ▼
//!  Snapshot::search_cancellable        Mutex<Collection> (writers only)
//! ```
//!
//! A search runs on the worker that parsed it and never touches the
//! writer lock: it goes through the collection's [`CollectionReader`]
//! snapshot path. Mutations serialize on a per-collection
//! `Mutex<Collection>`. A panic while handling a request is caught at
//! the worker, answered `500` and counted in `server_errors`; the worker
//! keeps serving.
//!
//! ## Shutdown ordering
//!
//! 1. the shutdown flag flips — the acceptor stops accepting, connection
//!    workers finish (and answer) their current request, then close;
//! 2. connections still queued for a worker were never read; each is
//!    answered `503` and counted in `shed_unavailable`;
//! 3. workers are joined.
//!
//! The result: every request a worker read is fully answered, and every
//! accepted connection gets a response or a clean close.

use crate::http::{HttpConn, ReadOutcome, Response};
use crate::metrics::ServerMetrics;
use crate::router;
use rabitq_store::{Collection, CollectionReader};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-connection socket write timeout: a client that stops reading its
/// response gets disconnected instead of pinning a worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Consecutive read-timeout ticks an idle keep-alive connection may hold
/// a worker before being closed.
const IDLE_TIMEOUT_TICKS: u32 = 600;

/// Everything tunable about the server.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Connection worker threads.
    pub workers: usize,
    /// Accepted connections waiting for a worker beyond this are answered
    /// `503` immediately and counted as overload sheds. With at most
    /// `workers` requests in flight, this is the server's admission bound.
    pub conn_backlog: usize,
    /// Largest accepted request body, bytes (`413` beyond).
    pub max_body: usize,
    /// Default `k` when a search request omits it.
    pub default_k: usize,
    /// Default `nprobe` when a search request omits it.
    pub default_nprobe: usize,
    /// Largest `k` a search request may ask for (`400` beyond). Bounds
    /// the per-request heap allocation in the search path.
    pub max_k: usize,
    /// Largest `nprobe` a search request may ask for (`400` beyond).
    pub max_nprobe: usize,
    /// Per-connection socket read timeout (also the shutdown poll tick).
    pub read_timeout: Duration,
    /// Consecutive read-timeout ticks tolerated mid-request before `408`.
    pub partial_timeout_ticks: u32,
    /// Searches slower than this (end-to-end, milliseconds) are recorded
    /// in the collection's event journal with their parameters and stage
    /// breakdown. `0` disables the slow-query log.
    pub slow_query_ms: u64,
    /// Capacity of each collection's in-memory event journal (applied at
    /// startup; open-time events are preserved).
    pub events_capacity: usize,
    /// Default search deadline, milliseconds, applied when a request
    /// omits `timeout_ms`. `0` means no deadline. The deadline runs from
    /// the moment the request head was parsed; an expired search is
    /// answered `504` — refused before the scan began, or cooperatively
    /// cancelled mid-scan.
    pub default_timeout_ms: u64,
    /// Upper bound a request's `timeout_ms` is clamped to (`0` disables
    /// the cap). Keeps one client from opting out of deadline discipline.
    pub max_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            conn_backlog: 128,
            max_body: 1 << 20, // 1 MiB
            default_k: 10,
            default_nprobe: 32,
            max_k: 4096,
            max_nprobe: 65536,
            read_timeout: Duration::from_millis(100),
            partial_timeout_ticks: 20,
            slow_query_ms: 0,
            events_capacity: 256,
            default_timeout_ms: 0,
            max_timeout_ms: 60_000,
        }
    }
}

/// One collection as served: lock-free read handle for searches,
/// mutex-serialized writer for mutations.
pub(crate) struct ServedCollection {
    pub(crate) writer: Mutex<Collection>,
    pub(crate) reader: CollectionReader,
}

/// Shared server state, one `Arc` per thread.
pub(crate) struct ServerState {
    pub(crate) config: ServeConfig,
    pub(crate) collections: HashMap<String, Arc<ServedCollection>>,
    pub(crate) default_name: String,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) started: Instant,
}

struct ConnQueue {
    queue: Mutex<(VecDeque<TcpStream>, bool)>, // (connections, shutdown)
    ready: Condvar,
}

/// A running server; dropping it (or calling [`Server::shutdown`]) stops
/// it gracefully.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    conns: Arc<ConnQueue>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `collections` (name → open collection).
    /// The first name in the list is also reachable via the unprefixed
    /// `/search`, `/insert`, `/delete` routes.
    pub fn start(
        config: ServeConfig,
        collections: Vec<(String, Collection)>,
    ) -> io::Result<Server> {
        assert!(!collections.is_empty(), "need at least one collection");
        assert!(config.workers > 0, "need at least one worker");
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let metrics = Arc::new(ServerMetrics::new());
        let default_name = collections[0].0.clone();
        let mut map = HashMap::new();
        for (name, collection) in collections {
            collection
                .metrics()
                .journal
                .set_capacity(config.events_capacity);
            map.insert(
                name,
                Arc::new(ServedCollection {
                    reader: collection.reader(),
                    writer: Mutex::new(collection),
                }),
            );
        }
        let state = Arc::new(ServerState {
            config: config.clone(),
            collections: map,
            default_name,
            metrics,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });
        let conns = Arc::new(ConnQueue {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });

        let acceptor = {
            let state = state.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("rabitq-acceptor".into())
                .spawn(move || accept_loop(&listener, &state, &conns))
                .expect("spawn acceptor")
        };
        let workers = (0..config.workers)
            .map(|i| {
                let state = state.clone();
                let conns = conns.clone();
                std::thread::Builder::new()
                    .name(format!("rabitq-conn-{i}"))
                    .spawn(move || worker_loop(&state, &conns))
                    .expect("spawn connection worker")
            })
            .collect();

        Ok(Server {
            addr,
            state,
            conns,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics handle.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        self.state.metrics.clone()
    }

    /// Gracefully stops: drains in-flight requests (see the module docs
    /// for the ordering), joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake workers parked on the connection queue.
        {
            let mut q = self.conns.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.1 = true;
        }
        self.conns.ready.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().ok();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, state: &ServerState, conns: &ConnQueue) {
    loop {
        if state.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(Some(state.config.read_timeout))
                    .ok();
                // A write timeout too: without it, a client that stops
                // reading blocks write_all forever once the socket buffer
                // fills, pinning this worker and hanging shutdown's join.
                stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
                let mut q = conns.queue.lock().unwrap_or_else(|e| e.into_inner());
                if q.0.len() >= state.config.conn_backlog {
                    drop(q);
                    // Over backlog: fail fast so the client can back off,
                    // instead of queueing into unbounded latency.
                    shed(
                        state,
                        stream,
                        &state.metrics.shed_overload,
                        "connection backlog full",
                    );
                    continue;
                }
                q.0.push_back(stream);
                drop(q);
                conns.ready.notify_one();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn worker_loop(state: &ServerState, conns: &ConnQueue) {
    loop {
        let stream = {
            let mut q = conns.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(stream) = q.0.pop_front() {
                    break stream;
                }
                if q.1 {
                    return; // shutdown with nothing queued
                }
                q = conns.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // During shutdown, still-queued connections were never read.
        if state.shutdown.load(Ordering::Relaxed) {
            shed(
                state,
                stream,
                &state.metrics.shed_unavailable,
                "server is shutting down",
            );
            continue;
        }
        handle_connection(state, stream);
    }
}

/// Answers a connection no worker will read with `503`, counting it in
/// `counter`.
fn shed(state: &ServerState, stream: TcpStream, counter: &AtomicU64, reason: &str) {
    counter.fetch_add(1, Ordering::Relaxed);
    state.metrics.count_response(503);
    HttpConn::new(stream)
        .write_response(&Response::error(503, reason), false)
        .ok();
}

/// Runs `handler` and tallies its status. A panic is caught here and
/// answered `500`, so it costs one request, never the worker.
fn respond(metrics: &ServerMetrics, handler: impl FnOnce() -> Response) -> Response {
    let resp = std::panic::catch_unwind(AssertUnwindSafe(handler))
        .unwrap_or_else(|_| Response::error(500, "internal error while handling the request"));
    metrics.count_response(resp.status);
    resp
}

/// Serves one connection's keep-alive loop until close, error, idle
/// expiry, or shutdown.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    let mut conn = HttpConn::new(stream);
    let mut timeout_ticks = 0u32;
    loop {
        match conn.read_request(state.config.max_body) {
            ReadOutcome::Request(req) => {
                timeout_ticks = 0;
                state.metrics.requests.fetch_add(1, Ordering::Relaxed);
                let resp = respond(&state.metrics, || router::handle(state, &req));
                let shutting_down = state.shutdown.load(Ordering::Relaxed);
                let keep = req.keep_alive && !shutting_down;
                if conn.write_response(&resp, keep).is_err() {
                    return;
                }
                if !keep || resp.close {
                    return;
                }
            }
            ReadOutcome::Closed | ReadOutcome::Disconnected => return,
            ReadOutcome::Timeout { partial } => {
                if state.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                timeout_ticks += 1;
                if partial && timeout_ticks > state.config.partial_timeout_ticks {
                    state.metrics.count_response(408);
                    conn.write_response(&Response::error(408, "request timed out"), false)
                        .ok();
                    return;
                }
                if !partial && timeout_ticks > IDLE_TIMEOUT_TICKS {
                    return; // reclaim the worker from an idle connection
                }
            }
            ReadOutcome::Error(e) => {
                state.metrics.count_response(e.status);
                conn.write_response(&Response::error(e.status, &e.message), false)
                    .ok();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_handler_answers_500_and_the_worker_keeps_serving() {
        let metrics = ServerMetrics::new();
        let resp = respond(&metrics, || panic!("handler bug"));
        assert_eq!(resp.status, 500);
        assert_eq!(metrics.server_errors.load(Ordering::Relaxed), 1);
        // The same thread answers the next request normally.
        let resp = respond(&metrics, || Response::json(200, "{}".into()));
        assert_eq!(resp.status, 200);
        assert_eq!(metrics.ok_responses.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.server_errors.load(Ordering::Relaxed), 1);
    }
}
