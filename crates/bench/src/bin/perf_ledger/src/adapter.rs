//! Every end-to-end path of the ledger. This file touches the system only
//! through `Collection::{open, open_existing, insert, delete, seal,
//! compact, reader}`, `CollectionReader::{search, search_many}`,
//! `Server::start` and the HTTP wire, so an API change there is answered
//! here (and in `layers.rs`) and nowhere else in the benchmark.

use crate::stats::{cpu_ms, now_ns, REPS};
use crate::trace::{Span, Tracer};
use crate::workloads::{BATCH, INSERTS_PER_DELETE, K};
use rabitq_ivf::SearchResult;
use rabitq_metrics::Stage;
use rabitq_serve::{Json, ServeConfig, Server};
use rabitq_store::{Collection, CollectionConfig, CollectionReader, ParallelOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Span names of the five engine stages, in `Stage::ALL` order.
pub const STAGE_SPANS: [&str; 5] = [
    "ivf.stage.rotate",
    "ivf.stage.lut_build",
    "ivf.stage.scan",
    "ivf.stage.rerank",
    "ivf.stage.merge",
];

/// A collection directory removed when the guard drops — on return, on
/// `?`, and on unwind alike.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh directory under `target/perf_ledger/` of the working
    /// directory (the benchmark writes nowhere else).
    pub fn new(tag: &str) -> io::Result<Self> {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let path = PathBuf::from("target/perf_ledger").join(format!(
            "tmp-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Bytes of every file directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

fn store_err(e: rabitq_store::StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Ingests `rows` into a fresh collection at `dir` and seals it into
/// exactly `segments` segments. Returns the collection and the seconds
/// the inserts and seals took. The WAL flush policy is the store default:
/// no fsync per insert, fsync on seal and manifest switch.
pub fn build_collection(
    dir: &Path,
    dim: usize,
    rows: &[f32],
    segments: usize,
) -> io::Result<(Collection, f64)> {
    let n = rows.len() / dim;
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = n.div_ceil(segments);
    config.auto_compact = false;
    let mut collection = Collection::open(dir, config)?;
    let t0 = now_ns();
    for row in rows.chunks_exact(dim) {
        collection.insert(row).map_err(store_err)?;
    }
    collection.seal().map_err(store_err)?;
    Ok((collection, (now_ns() - t0) as f64 / 1e9))
}

/// Reopens a built collection with the writer settings of the mixed
/// workload: small memtable, automatic compaction.
pub fn reopen_for_writes(dir: &Path, dim: usize, memtable: usize) -> io::Result<Collection> {
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = memtable;
    config.auto_compact = true;
    Collection::open(dir, config)
}

/// The server of the HTTP workload: default (batched) mode, one
/// connection worker per core.
pub fn start_server(collection: Collection, nprobe: usize, workers: usize) -> io::Result<Server> {
    let config = ServeConfig {
        workers,
        default_k: K,
        default_nprobe: nprobe,
        ..ServeConfig::default()
    };
    Server::start(config, vec![("ledger".into(), collection)])
}

/// The correctness gate on one reply: at most `K` neighbours, ascending
/// finite distances, live ids only.
pub fn reply_ok(neighbors: &[(u32, f32)], is_live: impl Fn(u32) -> bool) -> bool {
    neighbors.len() <= K
        && neighbors.windows(2).all(|w| w[0].1 <= w[1].1)
        && neighbors
            .iter()
            .all(|&(id, d)| d.is_finite() && is_live(id))
}

/// What every search loop of a workload shares: the queries it cycles
/// through, the frozen `nprobe`, the seed its RNG streams derive from, how
/// long it runs and whether the harness records spans.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    /// Flat `n x dim` query vectors.
    pub queries: &'a [f32],
    pub dim: usize,
    pub nprobe: usize,
    pub seed: u64,
    pub secs: f64,
    pub traced: bool,
}

impl Load<'_> {
    /// Query `i`, cycling through the set.
    pub fn query(&self, i: usize) -> &[f32] {
        let n = self.queries.len() / self.dim;
        &self.queries[(i % n) * self.dim..(i % n + 1) * self.dim]
    }
}

/// One completed operation: when it ended and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub end_ns: u64,
    pub lat_ns: u64,
}

/// What one closed-loop phase recorded.
#[derive(Default)]
pub struct PhaseLog {
    pub start_ns: u64,
    pub secs: f64,
    /// Searches answered correctly.
    pub samples: Vec<Sample>,
    /// Process CPU milliseconds at each repetition boundary.
    pub cpu_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    /// Work counted at the same boundary as the spans.
    pub n_estimated: u64,
    pub n_reranked: u64,
    /// Engine stage time as reported by the replies, `Stage::ALL` order.
    pub stage_ns: [u64; 5],
    /// Server handler time (`?debug=timings` `elapsed`), traced HTTP only.
    pub handler_ns: u64,
}

impl PhaseLog {
    /// Adds another log's samples, counts and spans to this one; the
    /// window fields (`start_ns`, `secs`, `cpu_ms`) are the caller's.
    pub fn absorb(&mut self, other: PhaseLog) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.n_estimated += other.n_estimated;
        self.n_reranked += other.n_reranked;
        for (a, b) in self.stage_ns.iter_mut().zip(other.stage_ns) {
            *a += b;
        }
        self.handler_ns += other.handler_ns;
        let merged = crate::trace::merge(vec![std::mem::take(&mut self.spans), other.spans]);
        self.spans = merged;
    }
}

/// Sleeps through a window of `secs` from `start_ns`, reading the process
/// CPU clock at every repetition boundary. The caller's worker threads
/// run meanwhile.
fn sample_cpu(start_ns: u64, secs: f64) -> Vec<f64> {
    let rep_ns = (secs * 1e9 / REPS as f64) as u64;
    let mut out = vec![cpu_ms()];
    for r in 1..=REPS as u64 {
        let due = start_ns + r * rep_ns;
        let now = now_ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        out.push(cpu_ms());
    }
    out
}

fn stage_parts(result: &SearchResult) -> [(&'static str, u64); 5] {
    let mut parts = [("", 0u64); 5];
    for (i, &stage) in Stage::ALL.iter().enumerate() {
        parts[i] = (STAGE_SPANS[i], result.stages.get_ns(stage));
    }
    parts
}

/// One engine caller: `CollectionReader::search` back to back until
/// `deadline_ns`, every reply checked.
fn engine_caller(
    reader: &CollectionReader,
    load: &Load,
    deadline_ns: u64,
    is_live: impl Fn(u32, u64) -> bool,
) -> PhaseLog {
    let mut rng = StdRng::seed_from_u64(load.seed ^ 0xE61E_CA11);
    let mut tracer = Tracer::new(load.traced);
    let mut log = PhaseLog::default();
    let mut i = 0usize;
    loop {
        let t0 = now_ns();
        if t0 >= deadline_ns {
            break;
        }
        let request = tracer.begin("request", None);
        let call = tracer.begin("store.search", Some(request));
        let result = reader.search(load.query(i), K, load.nprobe, &mut rng);
        let t1 = now_ns();
        tracer.end(call);
        tracer.synthetic_children(call, &stage_parts(&result));
        let check = tracer.begin("harness.check", Some(request));
        let ok = reply_ok(&result.neighbors, |id| is_live(id, t0));
        tracer.end(check);
        tracer.end(request);
        log.attempted += 1;
        if ok {
            log.samples.push(Sample {
                end_ns: t1,
                lat_ns: t1 - t0,
            });
        } else {
            log.failed += 1;
        }
        log.n_estimated += result.n_estimated as u64;
        log.n_reranked += result.n_reranked as u64;
        for (sum, &stage) in log.stage_ns.iter_mut().zip(Stage::ALL.iter()) {
            *sum += result.stages.get_ns(stage);
        }
        i += 1;
    }
    log.spans = tracer.into_spans();
    log
}

/// Closed loop, one caller, in process. Ids below `n_rows` are live.
pub fn engine_closed_loop(reader: &CollectionReader, load: &Load, n_rows: u32) -> PhaseLog {
    let start_ns = now_ns();
    let deadline_ns = start_ns + (load.secs * 1e9) as u64;
    let (mut log, cpu) = std::thread::scope(|scope| {
        let caller = scope.spawn(|| engine_caller(reader, load, deadline_ns, |id, _| id < n_rows));
        let cpu = sample_cpu(start_ns, load.secs);
        (caller.join().expect("engine caller panicked"), cpu)
    });
    log.start_ns = start_ns;
    log.secs = load.secs;
    log.cpu_ms = cpu;
    log
}

/// What the batch phase measured.
pub struct BatchLog {
    /// Queries per second of each repetition.
    pub qps: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// `search_many` in [`BATCH`]-query batches at `threads` threads, back to
/// back for `load.secs`.
pub fn batch_phase(
    reader: &CollectionReader,
    load: &Load,
    threads: usize,
    is_live: impl Fn(u32) -> bool,
) -> BatchLog {
    let (queries, dim) = (load.queries, load.dim);
    let n_batches = (queries.len() / dim / BATCH).max(1);
    let opts = ParallelOptions::threaded(threads);
    let rep_ns = (load.secs * 1e9 / REPS as f64) as u64;
    let mut log = BatchLog {
        qps: Vec::with_capacity(REPS),
        attempted: 0,
        failed: 0,
    };
    let mut b = 0usize;
    for _ in 0..REPS {
        let start = now_ns();
        let mut done = 0u64;
        let elapsed = loop {
            let lo = (b % n_batches) * BATCH * dim;
            let hi = (lo + BATCH * dim).min(queries.len());
            let results = reader.search_many(&queries[lo..hi], K, load.nprobe, opts);
            for r in &results {
                log.attempted += 1;
                if reply_ok(&r.neighbors, &is_live) {
                    done += 1;
                } else {
                    log.failed += 1;
                }
            }
            b += 1;
            let elapsed = now_ns() - start;
            if elapsed >= rep_ns {
                break elapsed;
            }
        };
        log.qps.push(done as f64 * 1e9 / elapsed as f64);
    }
    log
}

/// Whether `search_many` answers one batch identically, bit for bit, at
/// one thread and at `threads`.
pub fn batch_bit_identical(reader: &CollectionReader, load: &Load, threads: usize) -> bool {
    let batch = &load.queries[..(BATCH * load.dim).min(load.queries.len())];
    let run = |t: usize| reader.search_many(batch, K, load.nprobe, ParallelOptions::threaded(t));
    let (one, many) = (run(1), run(threads.max(2)));
    one.len() == many.len()
        && one
            .iter()
            .zip(&many)
            .all(|(a, b)| a.neighbors == b.neighbors)
}

// ---------------------------------------------------------------------
// HTTP wire
// ---------------------------------------------------------------------

/// One keep-alive connection.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads one response; the body lands in `body`.
    pub fn roundtrip(&mut self, request: &[u8], body: &mut String) -> io::Result<u16> {
        self.stream.write_all(request)?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| bad("head not utf-8"))?;
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("status line"))?;
                let length: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .unwrap_or(0);
                let total = head_end + 4 + length;
                if self.buf.len() >= total {
                    body.clear();
                    body.push_str(
                        std::str::from_utf8(&self.buf[head_end + 4..total])
                            .map_err(|_| bad("body not utf-8"))?,
                    );
                    self.buf.drain(..total);
                    return Ok(status);
                }
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// `GET path` on this connection; returns the body of a `200`.
    pub fn get(&mut self, path: &str) -> io::Result<String> {
        let mut body = String::new();
        let request = format!("GET {path} HTTP/1.1\r\nhost: ledger\r\n\r\n");
        match self.roundtrip(request.as_bytes(), &mut body)? {
            200 => Ok(body),
            status => Err(io::Error::other(format!("GET {path}: status {status}"))),
        }
    }
}

/// The JSON body of one search.
pub fn search_body(vector: &[f32], nprobe: usize) -> String {
    let mut body = String::with_capacity(vector.len() * 12 + 48);
    body.push_str("{\"vector\":[");
    for (i, v) in vector.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&v.to_string());
    }
    body.push_str(&format!("],\"k\":{K},\"nprobe\":{nprobe}}}"));
    body
}

/// Every query as a ready-to-send `POST /search`, so the timed loops
/// spend no client time formatting floats.
pub fn search_requests(queries: &[f32], dim: usize, nprobe: usize, timings: bool) -> Vec<Vec<u8>> {
    let path = if timings {
        "/search?debug=timings"
    } else {
        "/search"
    };
    queries
        .chunks_exact(dim)
        .map(|q| {
            let body = search_body(q, nprobe);
            format!(
                "POST {path} HTTP/1.1\r\nhost: ledger\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect()
}

/// A decoded search reply.
pub struct Reply {
    pub neighbors: Vec<(u32, f32)>,
    pub n_estimated: u64,
    pub n_reranked: u64,
    /// `timings_us` of `?debug=timings`: the five stages, then `elapsed`,
    /// in nanoseconds.
    pub timings: Option<([u64; 5], u64)>,
}

pub fn parse_reply(body: &str) -> Option<Reply> {
    let json = Json::parse(body).ok()?;
    let neighbors = json
        .get("neighbors")?
        .as_array()?
        .iter()
        .map(|n| {
            let id = u32::try_from(n.get("id")?.as_u64()?).ok()?;
            Some((id, n.get("distance")?.as_f64()? as f32))
        })
        .collect::<Option<Vec<_>>>()?;
    let timings = json.get("timings_us").and_then(|t| {
        let mut stages = [0u64; 5];
        for (slot, stage) in stages.iter_mut().zip(Stage::ALL) {
            *slot = t.get(stage.name())?.as_u64()? * 1000;
        }
        Some((stages, t.get("elapsed")?.as_u64()? * 1000))
    });
    Some(Reply {
        neighbors,
        n_estimated: json.get("n_estimated")?.as_u64()?,
        n_reranked: json.get("n_reranked")?.as_u64()?,
        timings,
    })
}

/// One client connection with everything a request on it records.
struct Conn<'a> {
    client: &'a mut HttpClient,
    body: String,
    tracer: Tracer,
    log: PhaseLog,
    /// Ids below this are live.
    n_rows: u32,
}

impl<'a> Conn<'a> {
    fn new(client: &'a mut HttpClient, tracer: Tracer, n_rows: u32) -> Self {
        Self {
            client,
            body: String::new(),
            tracer,
            log: PhaseLog::default(),
            n_rows,
        }
    }

    /// Sends one search, decodes and checks the reply, and logs it.
    /// Latency runs from `from_ns` (the send time in a closed loop, the
    /// due time in an open one) to the last byte of the response.
    fn search(&mut self, request: &[u8], from_ns: u64) {
        let (tracer, log) = (&mut self.tracer, &mut self.log);
        let span = tracer.begin("request", None);
        let wire = tracer.begin("client.roundtrip", Some(span));
        let status = self.client.roundtrip(request, &mut self.body);
        let t1 = now_ns();
        tracer.end(wire);
        let decode = tracer.begin("client.decode", Some(span));
        let reply = match status {
            Ok(200) => parse_reply(&self.body),
            _ => None,
        };
        tracer.end(decode);
        let check = tracer.begin("harness.check", Some(span));
        let n_rows = self.n_rows;
        let good = reply.filter(|r| reply_ok(&r.neighbors, |id| id < n_rows));
        tracer.end(check);
        if let Some((stages, elapsed)) = good.as_ref().and_then(|r| r.timings) {
            let handler = tracer.synthetic_children(wire, &[("serve.handler", elapsed)]);
            let mut parts = [("", 0u64); 5];
            for i in 0..5 {
                parts[i] = (STAGE_SPANS[i], stages[i]);
                log.stage_ns[i] += stages[i];
            }
            tracer.synthetic_children(handler, &parts);
            log.handler_ns += elapsed;
        }
        tracer.end(span);
        log.attempted += 1;
        match good {
            Some(r) => {
                log.samples.push(Sample {
                    end_ns: t1,
                    lat_ns: t1.saturating_sub(from_ns),
                });
                log.n_estimated += r.n_estimated;
                log.n_reranked += r.n_reranked;
            }
            None => log.failed += 1,
        }
    }

    fn finish(mut self) -> PhaseLog {
        self.log.spans = self.tracer.into_spans();
        self.log
    }
}

/// Closed loop over `conns` keep-alive connections: each sends its next
/// search when the previous reply has arrived. Any status but `200`, an
/// undecodable body or an invalid reply counts as failed.
pub fn http_closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    conns: usize,
    secs: f64,
    traced: bool,
    n_rows: u32,
) -> io::Result<PhaseLog> {
    let mut clients = (0..conns)
        .map(|_| HttpClient::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start_ns = now_ns();
    let deadline_ns = start_ns + (secs * 1e9) as u64;
    let mut log = PhaseLog {
        start_ns,
        secs,
        ..PhaseLog::default()
    };
    let (logs, cpu) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut conn = Conn::new(client, Tracer::new(traced), n_rows);
                    let mut i = c;
                    loop {
                        let t0 = now_ns();
                        if t0 >= deadline_ns {
                            break;
                        }
                        conn.search(&requests[i % requests.len()], t0);
                        i += conns;
                    }
                    conn.finish()
                })
            })
            .collect();
        let cpu = sample_cpu(start_ns, secs);
        let logs: Vec<PhaseLog> = handles
            .into_iter()
            .map(|h| h.join().expect("http client panicked"))
            .collect();
        (logs, cpu)
    });
    for l in logs {
        log.absorb(l);
    }
    log.cpu_ms = cpu;
    Ok(log)
}

/// One step of the open-loop ladder.
pub struct OpenLoopStep {
    pub rate: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every good reply, from its due time, ascending.
    pub lat_from_due_ns: Vec<u64>,
    /// How late each request was sent, ascending.
    pub lag_ns: Vec<u64>,
    /// How late the last request of the step was sent: the backlog the
    /// step leaves behind.
    pub final_lag_ns: u64,
}

/// Open loop: request `i` is due at `start + i / rate` whatever happened
/// to the ones before it, spread round-robin over `conns` connections.
/// Latency is timed from the due time, so a stall charges every request
/// it delays.
pub fn http_open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    conns: usize,
    rate: f64,
    secs: f64,
    n_rows: u32,
) -> io::Result<OpenLoopStep> {
    let mut clients = (0..conns)
        .map(|_| HttpClient::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start_ns = now_ns() + 1_000_000;
    let total = (rate * secs) as usize;
    let gap_ns = 1e9 / rate;
    let results: Vec<(PhaseLog, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut conn = Conn::new(client, Tracer::new(false), n_rows);
                    let mut lags = Vec::new();
                    for i in (c..total).step_by(conns) {
                        let due = start_ns + (i as f64 * gap_ns) as u64;
                        // Sleep most of the way, spin the last stretch:
                        // a sleep alone overshoots by a scheduler tick.
                        loop {
                            let now = now_ns();
                            if now >= due {
                                break;
                            }
                            if due - now > 300_000 {
                                std::thread::sleep(Duration::from_nanos(due - now - 200_000));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        lags.push(now_ns() - due);
                        conn.search(&requests[i % requests.len()], due);
                    }
                    (conn.finish(), lags)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    let mut step = OpenLoopStep {
        rate,
        attempted: 0,
        failed: 0,
        lat_from_due_ns: Vec::new(),
        lag_ns: Vec::new(),
        final_lag_ns: 0,
    };
    for (log, lags) in results {
        step.attempted += log.attempted;
        step.failed += log.failed;
        step.lat_from_due_ns
            .extend(log.samples.iter().map(|s| s.lat_ns));
        step.final_lag_ns = step.final_lag_ns.max(lags.last().copied().unwrap_or(0));
        step.lag_ns.extend(lags);
    }
    step.lat_from_due_ns.sort_unstable();
    step.lag_ns.sort_unstable();
    Ok(step)
}

// ---------------------------------------------------------------------
// Writes beside reads
// ---------------------------------------------------------------------

/// What the writer of the mixed workload recorded.
pub struct WriterLog {
    /// Every acked insert.
    pub inserts: Vec<Sample>,
    pub deletes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Rows in the collection's id space when the window closed.
    pub next_id: usize,
    /// The writer ran out of pool rows before the window closed.
    pub pool_exhausted: bool,
}

/// Which ids a reply may contain: inserted, and not deleted before the
/// search began. Shared between the writer (which publishes) and the
/// reader's correctness gate.
pub struct LiveSet {
    inserted: AtomicU32,
    /// Per id, the clock reading after its delete was acked; 0 while live.
    deleted_at: Vec<AtomicU64>,
}

impl LiveSet {
    pub fn new(inserted: usize, capacity: usize) -> Self {
        Self {
            inserted: AtomicU32::new(inserted as u32),
            deleted_at: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Whether a search that began at `search_start_ns` may return `id`.
    pub fn may_return(&self, id: u32, search_start_ns: u64) -> bool {
        if id >= self.inserted.load(Ordering::Acquire) {
            return false;
        }
        let at = self.deleted_at[id as usize].load(Ordering::Acquire);
        at == 0 || at >= search_start_ns
    }

    pub fn is_deleted(&self, id: usize) -> bool {
        self.deleted_at[id].load(Ordering::Acquire) != 0
    }
}

/// One writer (`insert`, one `delete` per [`INSERTS_PER_DELETE`] inserts)
/// beside one reader in a closed `search` loop, for `secs`. `rows` holds
/// the set-up rows followed by the writer's pool; ids equal row indices.
pub fn mixed_rw(
    collection: &mut Collection,
    rows: &[f32],
    load: &Load,
    live: &LiveSet,
) -> (PhaseLog, WriterLog) {
    let (dim, secs) = (load.dim, load.secs);
    let reader = collection.reader();
    let first = live.inserted.load(Ordering::Acquire) as usize;
    let total_rows = rows.len() / dim;
    let start_ns = now_ns();
    let deadline_ns = start_ns + (secs * 1e9) as u64;
    let (mut reads, writes, cpu) = std::thread::scope(|scope| {
        let caller = scope
            .spawn(|| engine_caller(&reader, load, deadline_ns, |id, t0| live.may_return(id, t0)));
        let writer = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(load.seed ^ 0x0DE1_E7E5);
            let mut log = WriterLog {
                inserts: Vec::new(),
                deletes: 0,
                attempted: 0,
                failed: 0,
                next_id: first,
                pool_exhausted: false,
            };
            while now_ns() < deadline_ns {
                if log.next_id == total_rows {
                    log.pool_exhausted = true;
                    break;
                }
                let row = &rows[log.next_id * dim..(log.next_id + 1) * dim];
                // The row is searchable before `insert` returns, so the
                // reader's gate must admit its id from here on.
                live.inserted
                    .store(log.next_id as u32 + 1, Ordering::Release);
                let t0 = now_ns();
                let acked = collection.insert(row);
                let t1 = now_ns();
                log.attempted += 1;
                match acked {
                    Ok(id) if id as usize == log.next_id => {
                        log.next_id += 1;
                        log.inserts.push(Sample {
                            end_ns: t1,
                            lat_ns: t1 - t0,
                        });
                    }
                    _ => {
                        log.failed += 1;
                        break;
                    }
                }
                if (log.next_id - first).is_multiple_of(INSERTS_PER_DELETE) {
                    let victim = (0..8)
                        .map(|_| rng.gen_range(0..log.next_id))
                        .find(|&id| !live.is_deleted(id));
                    if let Some(victim) = victim {
                        log.attempted += 1;
                        match collection.delete(victim as u32) {
                            Ok(true) => {
                                live.deleted_at[victim].store(now_ns(), Ordering::Release);
                                log.deletes += 1;
                            }
                            _ => log.failed += 1,
                        }
                    }
                }
            }
            log
        });
        let cpu = sample_cpu(start_ns, secs);
        (
            caller.join().expect("reader panicked"),
            writer.join().expect("writer panicked"),
            cpu,
        )
    });
    reads.start_ns = start_ns;
    reads.secs = secs;
    reads.cpu_ms = cpu;
    (reads, writes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_gate_rejects_each_violation() {
        let live = |id: u32| id < 100;
        assert!(reply_ok(&[(1, 0.5), (2, 0.5), (3, 0.7)], live));
        assert!(reply_ok(&[], live));
        assert!(!reply_ok(&[(1, 0.7), (2, 0.5)], live), "descending");
        assert!(!reply_ok(&[(100, 0.1)], live), "dead id");
        assert!(!reply_ok(&[(1, f32::NAN)], live), "nan");
        let eleven: Vec<(u32, f32)> = (0..11).map(|i| (i, i as f32)).collect();
        assert!(!reply_ok(&eleven, live), "more than k");
    }

    #[test]
    fn live_set_orders_deletes_against_search_starts() {
        let live = LiveSet::new(10, 20);
        assert!(live.may_return(9, 5));
        assert!(!live.may_return(10, 5), "not inserted yet");
        live.deleted_at[3].store(100, Ordering::Release);
        assert!(live.may_return(3, 50), "search began before the delete");
        assert!(!live.may_return(3, 150), "search began after the delete");
    }

    #[test]
    fn reply_round_trips_through_the_wire_format() {
        let body = "{\"neighbors\":[{\"id\":7,\"distance\":0.25}],\"n_estimated\":40,\
                    \"n_reranked\":3,\"timings_us\":{\"rotate\":1,\"lut_build\":2,\"scan\":3,\
                    \"rerank\":4,\"merge\":5,\"stage_total\":15,\"elapsed\":20}}";
        let r = parse_reply(body).expect("valid reply");
        assert_eq!(r.neighbors, vec![(7, 0.25)]);
        assert_eq!((r.n_estimated, r.n_reranked), (40, 3));
        assert_eq!(r.timings, Some(([1000, 2000, 3000, 4000, 5000], 20_000)));
        assert!(parse_reply("{\"error\":\"x\"}").is_none());
        let request = search_requests(&[1.0, 2.5], 2, 4, false);
        let text = String::from_utf8(request[0].clone()).unwrap();
        assert!(
            text.ends_with("{\"vector\":[1,2.5],\"k\":10,\"nprobe\":4}"),
            "{text}"
        );
    }
}
