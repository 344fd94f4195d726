//! One run of one workload: set-up, ground truth, warm-up, the measured
//! windows, the correctness gate, and (with `--trace`) the traced re-run
//! and the layer probes. System calls live in `adapter.rs` and
//! `layers.rs`; this file only sequences them and turns logs into metrics.

use crate::adapter::{self, HttpClient, LiveSet, PhaseLog, Sample, TempDir, WriterLog};
use crate::layers::{self, recall};
use crate::report::{Ledger, END_TO_END, PER_LAYER};
use crate::stats::{now_ns, percentile, Spread, REPS};
use crate::trace;
use crate::workloads::{
    Kind, Shape, K, MIXED_MEMTABLE, MIXED_SCORED_QUERIES, N_QUERIES, SETUP_REPS,
};
use rabitq_core::hw::cores;
use rabitq_data::generate::Dataset;
use rabitq_serve::Server;
use rabitq_store::{Collection, CollectionReader};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::PathBuf;

pub struct Opts {
    pub seed: u64,
    /// Measured seconds of the run, shared out among its windows.
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports.
pub struct Outcome {
    pub ledger: Ledger,
    pub attempted: u64,
    pub failed: u64,
    /// Every way the run broke the correctness gate; empty means correct.
    pub violations: Vec<String>,
    pub trace_file: Option<PathBuf>,
}

/// The system under test after set-up, by workload kind.
enum System {
    Engine(Collection),
    Http {
        server: Server,
        reader: CollectionReader,
    },
    Mixed(Collection),
}

/// Declared before `dir` so the collection or server is gone before its
/// directory is removed.
struct Built {
    system: System,
    data: Dataset,
    dir: TempDir,
}

/// Data generation, ingest, seal and (HTTP) server start: what `setup_s`
/// times. Returns the built system, the seconds, and ingested rows/s.
fn set_up(shape: &Shape, seed: u64) -> io::Result<(Built, f64, f64)> {
    let t0 = now_ns();
    let dim = shape.dataset.dim();
    let data = shape
        .dataset
        .generate(shape.n + shape.pool, N_QUERIES, seed);
    let dir = TempDir::new(shape.name)?;
    let (collection, ingest_s) =
        adapter::build_collection(dir.path(), dim, &data.data[..shape.n * dim], shape.segments)?;
    let system = match shape.kind {
        Kind::Engine => System::Engine(collection),
        Kind::Http => {
            let reader = collection.reader();
            let server = adapter::start_server(collection, shape.nprobe, cores())?;
            System::Http { server, reader }
        }
        Kind::MixedRw => {
            drop(collection);
            System::Mixed(adapter::reopen_for_writes(dir.path(), dim, MIXED_MEMTABLE)?)
        }
    };
    let setup_s = (now_ns() - t0) as f64 / 1e9;
    Ok((
        Built { system, data, dir },
        setup_s,
        shape.n as f64 / ingest_s,
    ))
}

/// Per-repetition rates and latencies of one closed-loop phase.
struct PhaseStats {
    qps: Spread,
    p50_us: Spread,
    p95_us: Spread,
    cpu_ms_per_query: Spread,
    fewest_samples: usize,
}

/// Splits `events` (by end time) into the window's repetitions.
fn by_rep(events: &[Sample], start_ns: u64, secs: f64) -> Vec<Vec<&Sample>> {
    let rep_ns = secs * 1e9 / REPS as f64;
    let mut reps: Vec<Vec<&Sample>> = vec![Vec::new(); REPS];
    for s in events {
        let r = (s.end_ns.saturating_sub(start_ns) as f64 / rep_ns) as usize;
        // A call that straddles the deadline ends just past it.
        reps[r.min(REPS - 1)].push(s);
    }
    reps
}

fn phase_stats(log: &PhaseLog) -> Option<PhaseStats> {
    let reps = by_rep(&log.samples, log.start_ns, log.secs);
    if reps.iter().any(Vec::is_empty) {
        return None;
    }
    let rep_s = log.secs / REPS as f64;
    let (mut qps, mut p50, mut p95, mut cpu) = (vec![], vec![], vec![], vec![]);
    for (r, rep) in reps.iter().enumerate() {
        let mut lat: Vec<u64> = rep.iter().map(|s| s.lat_ns).collect();
        lat.sort_unstable();
        qps.push(rep.len() as f64 / rep_s);
        p50.push(percentile(&lat, 0.5) as f64 / 1e3);
        p95.push(percentile(&lat, 0.95) as f64 / 1e3);
        cpu.push((log.cpu_ms[r + 1] - log.cpu_ms[r]) / rep.len() as f64);
    }
    Some(PhaseStats {
        qps: Spread::of(&qps),
        p50_us: Spread::of(&p50),
        p95_us: Spread::of(&p95),
        cpu_ms_per_query: Spread::of(&cpu),
        fewest_samples: reps.iter().map(Vec::len).min().unwrap_or(0),
    })
}

/// The closed-loop window of the workload.
fn closed_loop(
    built: &mut Built,
    shape: &Shape,
    seed: u64,
    secs: f64,
    traced: bool,
    live: &LiveSet,
) -> io::Result<(PhaseLog, Option<WriterLog>)> {
    let load = adapter::Load {
        traced,
        ..load_of(&built.data, shape, seed, secs)
    };
    Ok(match &mut built.system {
        System::Engine(collection) => (
            adapter::engine_closed_loop(&collection.reader(), &load, shape.n as u32),
            None,
        ),
        System::Http { server, .. } => {
            let requests = adapter::search_requests(load.queries, load.dim, shape.nprobe, traced);
            let log = adapter::http_closed_loop(
                server.addr(),
                &requests,
                cores(),
                secs,
                traced,
                shape.n as u32,
            )?;
            (log, None)
        }
        System::Mixed(collection) => {
            let (reads, writes) = adapter::mixed_rw(collection, &built.data.data, &load, live);
            (reads, Some(writes))
        }
    })
}

/// One untimed pass over every query through the workload's own path:
/// warms caches and scores `recall_at_10` against `truth`. Returns mean
/// recall and how many replies failed the gate.
fn warm_and_score(
    built: &Built,
    shape: &Shape,
    seed: u64,
    truth: &[Vec<u32>],
    live: &LiveSet,
) -> io::Result<(f64, u64)> {
    let dim = shape.dataset.dim();
    let queries = built.data.queries.chunks_exact(dim).take(truth.len());
    let mut total = 0.0;
    let mut bad = 0u64;
    // `None` is a reply that never decoded.
    let mut score = |neighbors: Option<&[(u32, f32)]>, truth: &[u32]| match neighbors {
        Some(n) if adapter::reply_ok(n, |id| live.may_return(id, now_ns())) => {
            total += recall(truth, n);
        }
        _ => bad += 1,
    };
    match &built.system {
        System::Engine(collection) | System::Mixed(collection) => {
            let reader = collection.reader();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5C04E);
            for (q, t) in queries.zip(truth) {
                let result = reader.search(q, K, shape.nprobe, &mut rng);
                score(Some(&result.neighbors), t);
            }
        }
        System::Http { server, .. } => {
            let requests = adapter::search_requests(&built.data.queries, dim, shape.nprobe, false);
            let mut client = HttpClient::connect(server.addr())?;
            let mut body = String::new();
            for (request, t) in requests.iter().zip(truth) {
                let reply = match client.roundtrip(request, &mut body)? {
                    200 => adapter::parse_reply(&body),
                    _ => None,
                };
                score(reply.as_ref().map(|r| r.neighbors.as_slice()), t);
            }
        }
    }
    Ok((total / truth.len() as f64, bad))
}

/// Exact top-`K` ids per query over the rows whose ids are `ids`.
fn exact_truth(data: &Dataset, ids: &[u32], n_queries: usize) -> Vec<Vec<u32>> {
    let dim = data.dim;
    let contiguous = ids.iter().enumerate().all(|(i, &id)| i as u32 == id);
    let gathered: Vec<f32>;
    let rows = if contiguous {
        &data.data[..ids.len() * dim]
    } else {
        gathered = ids
            .iter()
            .flat_map(|&id| data.vector(id as usize).iter().copied())
            .collect();
        &gathered
    };
    rabitq_data::exact_knn(rows, dim, &data.queries[..n_queries * dim], K, cores())
        .into_iter()
        .map(|nn| nn.into_iter().map(|(i, _)| ids[i as usize]).collect())
        .collect()
}

/// Operations counted against the correctness gate, and how it broke.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn require_recall(&mut self, recall: f64, shape: &Shape) {
        if recall < shape.recall_floor {
            self.violations.push(format!(
                "recall_at_10 {recall:.4} below the floor {}",
                shape.recall_floor
            ));
        }
    }
}

fn load_of<'a>(data: &'a Dataset, shape: &Shape, seed: u64, secs: f64) -> adapter::Load<'a> {
    adapter::Load {
        queries: &data.queries,
        dim: shape.dataset.dim(),
        nprobe: shape.nprobe,
        seed,
        secs,
        traced: false,
    }
}

/// The untraced run: closed loop for two thirds of the window,
/// `search_many` for the last third. Files the end-to-end metrics that
/// come from the windows; set-up's are the caller's.
fn measure_end_to_end(
    built: &mut Built,
    shape: &Shape,
    opts: &Opts,
    live: &LiveSet,
    warm_recall: f64,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> io::Result<()> {
    let (log, writes) = closed_loop(
        built,
        shape,
        opts.seed,
        opts.seconds * 2.0 / 3.0,
        false,
        live,
    )?;
    tally.add(log.attempted, log.failed);
    let Some(stats) = phase_stats(&log) else {
        return Err(io::Error::other("a repetition completed no search"));
    };
    println!(
        "# closed loop: {} searches, fewest per repetition {}",
        log.samples.len(),
        stats.fewest_samples
    );
    let mut recall_at_10 = warm_recall;
    if let Some(w) = &writes {
        tally.add(w.attempted, w.failed);
        if w.pool_exhausted {
            tally
                .violations
                .push("writer ran out of pool rows; raise Shape::pool".into());
        }
        // The writer's rate falls through the window as merges grow, so
        // the figure is the whole window's, seal and compaction stalls
        // included; the repetitions are stages of one run, not repeats,
        // and are printed for context only.
        let rep_s = log.secs / REPS as f64;
        let rates: Vec<String> = by_rep(&w.inserts, log.start_ns, log.secs)
            .iter()
            .map(|r| format!("{:.0}", r.len() as f64 / rep_s))
            .collect();
        println!("# writer rows/s by repetition: {}", rates.join(" "));
        ledger.put("ingest_rows_per_s", w.inserts.len() as f64 / log.secs);
        // Quiesced: score against the harness's own live-row oracle.
        let live_ids: Vec<u32> = (0..w.next_id as u32)
            .filter(|&id| !live.is_deleted(id as usize))
            .collect();
        let oracle = exact_truth(&built.data, &live_ids, MIXED_SCORED_QUERIES.min(N_QUERIES));
        let (r, bad) = warm_and_score(built, shape, opts.seed, &oracle, live)?;
        tally.add(oracle.len() as u64, bad);
        recall_at_10 = r;
        println!(
            "# writer: {} inserts, {} deletes, {} live rows at the end",
            w.inserts.len(),
            w.deletes,
            live_ids.len()
        );
    }

    let reader = match &built.system {
        System::Engine(c) | System::Mixed(c) => c.reader(),
        System::Http { reader, .. } => reader.clone(),
    };
    let threads = cores();
    let load = load_of(&built.data, shape, opts.seed, opts.seconds / 3.0);
    if !adapter::batch_bit_identical(&reader, &load, threads) {
        tally.violations.push(format!(
            "search_many differs between 1 and {threads} threads"
        ));
    }
    let quiesced = now_ns();
    let batch = adapter::batch_phase(&reader, &load, threads, |id| live.may_return(id, quiesced));
    tally.add(batch.attempted, batch.failed);

    ledger.put_spread("qps", stats.qps);
    ledger.put_spread("batch_qps", Spread::of(&batch.qps));
    if threads == 1 {
        ledger.note("not_meaningful as thread scaling: one core");
    }
    ledger.put_spread("lat_p50_us", stats.p50_us);
    ledger.put_spread("lat_p95_us", stats.p95_us);
    ledger.put("recall_at_10", recall_at_10);
    ledger.put_spread("cpu_ms_per_query", stats.cpu_ms_per_query);
    tally.require_recall(recall_at_10, shape);
    Ok(())
}

/// The traced run: the closed loop untraced and traced (15 % of the
/// window each, in alternating slices), the span file, then every layer probe at this
/// workload's shape. Consumes the built system: the probes reopen its
/// directory themselves.
fn measure_layers(
    mut built: Built,
    shape: &Shape,
    opts: &Opts,
    live: &LiveSet,
    truth: &[Vec<u32>],
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> io::Result<PathBuf> {
    // Untraced and traced slices alternate, so host drift over the
    // window lands on both sides of `trace_overhead_pct` alike.
    const SLICES: usize = 3;
    let slice = opts.seconds * 0.15 / SLICES as f64;
    let (mut plain, mut traced) = (PhaseLog::default(), PhaseLog::default());
    let mut next_id = shape.n;
    for _ in 0..SLICES {
        for (sum, on) in [(&mut plain, false), (&mut traced, true)] {
            let (log, writes) = closed_loop(&mut built, shape, opts.seed, slice, on, live)?;
            sum.secs += log.secs;
            sum.absorb(log);
            if let Some(w) = writes {
                tally.add(w.attempted, w.failed);
                next_id = next_id.max(w.next_id);
            }
        }
    }
    let (tried, bad) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    tally.add(tried, bad);

    let summary = trace::summarize(&traced.spans);
    let good = traced.samples.len().max(1) as f64;
    let mut counts = vec![
        ("requests", traced.attempted as f64),
        ("failed", traced.failed as f64),
        ("n_estimated_per_request", traced.n_estimated as f64 / good),
        ("n_reranked_per_request", traced.n_reranked as f64 / good),
    ];
    for (name, ns) in adapter::STAGE_SPANS.iter().zip(traced.stage_ns) {
        counts.push((name, ns as f64 / good));
    }
    let path = PathBuf::from(format!(
        "target/perf_ledger/trace-{}-{}.json",
        shape.name, opts.seed
    ));
    trace::write_file(
        &path,
        shape.name,
        opts.seed,
        &traced.spans,
        &summary,
        &counts,
    )?;
    println!(
        "# trace: {} spans of {} requests",
        traced.spans.len(),
        summary.requests
    );
    for (name, ns) in &summary.self_ns {
        println!(
            "# self time {name}: {:.1} us/request",
            *ns as f64 / 1e3 / summary.requests.max(1) as f64
        );
    }
    if summary.max_self_sum_error > 0.05 {
        tally.violations.push(format!(
            "self times miss a request span by {:.1}%",
            100.0 * summary.max_self_sum_error
        ));
    }

    let dim = shape.dataset.dim();
    let Built { system, data, dir } = built;
    drop(system);
    let ctx = layers::Ctx {
        load: load_of(&data, shape, opts.seed, 0.0),
        rows: &data.data[..shape.n * dim],
        truth,
        dir: dir.path(),
        segments: shape.segments,
        n_ids: next_id as u32,
        nproc: cores(),
        budget_s: opts.seconds * 0.7,
    };
    layers::probe_all(&ctx, ledger)?;
    let qps = |log: &PhaseLog| log.samples.len() as f64 / log.secs;
    ledger.put("error_rate", bad as f64 / tried.max(1) as f64);
    ledger.put(
        "trace.self_sum_error_pct",
        100.0 * summary.max_self_sum_error,
    );
    ledger.put(
        "trace_overhead_pct",
        100.0 * (qps(&plain) - qps(&traced)) / qps(&plain).max(f64::MIN_POSITIVE),
    );
    Ok(path)
}

pub fn run(shape: &Shape, opts: &Opts) -> io::Result<Outcome> {
    let mut ledger = Ledger::default();
    let mut tally = Tally::default();

    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let (mut setup_s, mut ingest) = (vec![], vec![]);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take()); // the previous set-up's directory goes first
        let (b, secs, rows_per_s) = set_up(shape, opts.seed)?;
        setup_s.push(secs);
        ingest.push(rows_per_s);
        built = Some(b);
    }
    let mut built = built.expect("at least one set-up");
    let disk_bytes = adapter::dir_bytes(built.dir.path())? as f64 / shape.n as f64;
    let live = LiveSet::new(shape.n, shape.n + shape.pool);
    let setup_ids: Vec<u32> = (0..shape.n as u32).collect();
    let truth = exact_truth(&built.data, &setup_ids, N_QUERIES);
    let (warm_recall, bad) = warm_and_score(&built, shape, opts.seed, &truth, &live)?;
    tally.add(truth.len() as u64, bad);

    let mut trace_file = None;
    if opts.trace {
        tally.require_recall(warm_recall, shape);
        let path = measure_layers(built, shape, opts, &live, &truth, &mut ledger, &mut tally)?;
        trace_file = Some(path);
        tally.violations.extend(ledger.check_against(&PER_LAYER));
    } else {
        ledger.put_spread("setup_s", Spread::of(&setup_s));
        ledger.put("disk_bytes_per_vector", disk_bytes);
        if shape.kind != Kind::MixedRw {
            ledger.put_spread("ingest_rows_per_s", Spread::of(&ingest));
        }
        measure_end_to_end(
            &mut built,
            shape,
            opts,
            &live,
            warm_recall,
            &mut ledger,
            &mut tally,
        )?;
        tally.violations.extend(ledger.check_against(&END_TO_END));
    }

    if tally.failed > 0 {
        tally.violations.push(format!(
            "{} of {} operations failed",
            tally.failed, tally.attempted
        ));
    }
    Ok(Outcome {
        ledger,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations,
        trace_file,
    })
}
