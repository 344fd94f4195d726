//! Per-layer probes: each layer measured from outside, by timing calls
//! into its public functions and reading public result fields, at the
//! workload's own shape (dimension, rows per segment, `nprobe`). Unlike
//! `adapter.rs` this file may call any public function; together the two
//! files are the benchmark's whole contact surface with the system.

use crate::adapter::{self, HttpClient, Load, TempDir};
use crate::report::Ledger;
use crate::stats::{now_ns, percentile, time_reps};
use crate::workloads::{BATCH, INSERTS_PER_DELETE, K, MIXED_MEMTABLE};
use rabitq_core::{QueryScratch, Rabitq, RabitqConfig};
use rabitq_ivf::{IvfConfig, IvfRabitq, RerankStrategy, SearchScratch};
use rabitq_kmeans::KMeansConfig;
use rabitq_metrics::timer::time_once;
use rabitq_metrics::Stage;
use rabitq_serve::{json_obj, Json};
use rabitq_store::{Collection, CollectionConfig, ParallelOptions, Segment, StoreMetrics};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Ladder of the open-loop phase, requests per second.
pub const LADDER_RPS: [f64; 4] = [200.0, 400.0, 800.0, 1600.0];
/// Latency limit on the ladder: p95 from the due time.
pub const SLO_P95_NS: u64 = 5_000_000;
/// `nprobe` values of the QPS–recall sweep (paper Fig. 4).
const CURVE_NPROBE: [(usize, &str, &str); 3] = [
    (4, "ivf.curve.nprobe4.qps", "ivf.curve.nprobe4.recall"),
    (16, "ivf.curve.nprobe16.qps", "ivf.curve.nprobe16.recall"),
    (64, "ivf.curve.nprobe64.qps", "ivf.curve.nprobe64.recall"),
];
/// Queries of every fixed (counted, not timed) pass, so counts repeat
/// exactly for a seed.
const FIXED_PASS: usize = 200;

/// What the probes run against.
pub struct Ctx<'a> {
    /// The workload's queries, dimension, frozen `nprobe` and seed.
    pub load: Load<'a>,
    /// The rows the workload ingested during set-up.
    pub rows: &'a [f32],
    /// Exact top-`K` ids per query over `rows`.
    pub truth: &'a [Vec<u32>],
    /// The collection directory set-up built; no handle is open on it.
    pub dir: &'a Path,
    pub segments: usize,
    /// One past the largest id the collection at `dir` may return.
    pub n_ids: u32,
    pub nproc: usize,
    /// Seconds shared out among the timed probes.
    pub budget_s: f64,
}

impl Ctx<'_> {
    fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.budget_s * fraction)
    }

    fn row(&self, i: usize) -> &[f32] {
        let (n, dim) = (self.rows.len() / self.load.dim, self.load.dim);
        &self.rows[(i % n) * dim..(i % n + 1) * dim]
    }
}

/// `recall@K` of one reply against the exact ids.
pub fn recall(truth: &[u32], got: &[(u32, f32)]) -> f64 {
    let ids: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
    rabitq_metrics::recall_at_k(truth, &ids)
}

/// Runs every probe and files every per-layer metric except the three
/// the traced workload run owns (`error_rate`, `trace.*`, `trace_overhead_pct`).
pub fn probe_all(ctx: &Ctx, out: &mut Ledger) -> io::Result<()> {
    core_probes(ctx, out);
    kmeans_probes(ctx, out);
    ivf_probes(ctx, out);
    store_write_probe(ctx, out)?;
    let collection = store_read_probes(ctx, out)?;
    serve_probes(ctx, collection, out)
}

fn core_probes(ctx: &Ctx, out: &mut Ledger) {
    let dim = ctx.load.dim;
    let quantizer = Rabitq::new(dim, RabitqConfig::default());
    let mut rng = StdRng::seed_from_u64(ctx.load.seed ^ 0xC0DE);

    let mut rotated = Vec::new();
    let mut i = 0;
    out.put_spread(
        "core.rotate_ns",
        time_reps(ctx.share(0.02), || {
            quantizer.rotate_into(ctx.load.query(i), &mut rotated);
            black_box(&rotated);
            i += 1;
            1
        }),
    );

    // Code sets the size of the workload's buckets: a segment of
    // n/segments rows holds 4*sqrt(n/segments) of them.
    let seg_rows = ctx.rows.len() / dim / ctx.segments;
    let bucket_rows = (seg_rows / IvfConfig::clusters_for(seg_rows)).max(1);
    const BUCKETS: usize = 64;
    let centroids: Vec<&[f32]> = (0..BUCKETS).map(|b| ctx.row(b * bucket_rows)).collect();
    let sets: Vec<_> = centroids
        .iter()
        .enumerate()
        .map(|(b, c)| {
            quantizer.encode_set((0..bucket_rows).map(|r| ctx.row(b * bucket_rows + r)), c)
        })
        .collect();
    let packed: Vec<_> = sets.iter().map(|s| quantizer.pack(s)).collect();
    let rotated_centroids: Vec<Vec<f32>> = centroids.iter().map(|c| quantizer.rotate(c)).collect();
    let rotated_queries: Vec<Vec<f32>> = (0..BUCKETS)
        .map(|q| quantizer.rotate(ctx.load.query(q)))
        .collect();

    let mut scratch = QueryScratch::new();
    let mut i = 0;
    out.put_spread(
        "core.query_prep_ns",
        time_reps(ctx.share(0.02), || {
            quantizer.prepare_query_prerotated_into(
                &rotated_queries[i % BUCKETS],
                &rotated_centroids[(i / BUCKETS) % BUCKETS],
                &mut scratch,
                &mut rng,
            );
            i += 1;
            1
        }),
    );

    let mut sums = Vec::new();
    let mut b = 0;
    let scan = time_reps(ctx.share(0.02), || {
        packed[b % BUCKETS].scan_all(scratch.lut(), &mut sums);
        black_box(&sums);
        b += 1;
        bucket_rows as u64
    });
    out.put_spread("core.fastscan_codes_per_s", scan.map(|ns| 1e9 / ns));

    let mut estimates = Vec::new();
    let epsilon0 = quantizer.config().epsilon0;
    let mut b = 0;
    out.put_spread(
        "core.estimate_ns_per_code",
        time_reps(ctx.share(0.02), || {
            quantizer.estimate_batch_with_lut(
                scratch.query(),
                scratch.lut(),
                &packed[b % BUCKETS],
                &sets[b % BUCKETS],
                epsilon0,
                &mut estimates,
            );
            black_box(&estimates);
            b += 1;
            bucket_rows as u64
        }),
    );

    let mut set = quantizer.new_code_set();
    let mut i = 0;
    out.put_spread(
        "core.encode_ns_per_vector",
        time_reps(ctx.share(0.02), || {
            if set.len() >= 4096 {
                set = quantizer.new_code_set();
            }
            quantizer.encode_into(ctx.row(i), centroids[0], &mut set);
            i += 1;
            1
        }),
    );
}

fn kmeans_probes(ctx: &Ctx, out: &mut Ledger) {
    // What sealing one segment trains: its rows, 4*sqrt(n) clusters, the
    // IVF defaults.
    let seg_rows = ctx.rows.len() / ctx.load.dim / ctx.segments;
    let ivf = IvfConfig::new(IvfConfig::clusters_for(seg_rows));
    let mut config = KMeansConfig::new(ivf.n_clusters.min(seg_rows));
    config.max_iters = ivf.kmeans_iters;
    config.seed = ivf.seed;
    config.training_sample = ivf.kmeans_sample;
    config.threads = ivf.threads;
    let (model, took) = time_once(|| {
        rabitq_kmeans::train(&ctx.rows[..seg_rows * ctx.load.dim], ctx.load.dim, &config)
    });
    out.put("kmeans.train_s", took.as_secs_f64());

    let mut probes = Vec::new();
    let mut i = 0;
    out.put_spread(
        "kmeans.assign_top_n_ns",
        time_reps(ctx.share(0.02), || {
            model.assign_top_n_into(ctx.load.query(i), ctx.load.nprobe, &mut probes);
            black_box(&probes);
            i += 1;
            1
        }),
    );
}

fn ivf_probes(ctx: &Ctx, out: &mut Ledger) {
    let dim = ctx.load.dim;
    let n = ctx.rows.len() / dim;
    let (index, took) = time_once(|| {
        IvfRabitq::build(
            ctx.rows,
            dim,
            &IvfConfig::new(IvfConfig::clusters_for(n)),
            RabitqConfig::default(),
        )
    });
    out.put("ivf.build_s", took.as_secs_f64());

    let mut scratch = SearchScratch::new();
    let fixed = FIXED_PASS.min(ctx.truth.len());
    // One counted pass at the workload's nprobe: work counts and the
    // engine's own stage split, exact for a seed.
    let mut rng = StdRng::seed_from_u64(ctx.load.seed ^ 0x1F);
    let mut pass = |scratch: &mut SearchScratch| {
        let (mut estimated, mut reranked, mut stage_ns) = (0usize, 0usize, [0u64; 5]);
        for q in 0..fixed {
            let (e, r) = index.search_into(
                ctx.load.query(q),
                K,
                ctx.load.nprobe,
                RerankStrategy::ErrorBound,
                scratch,
                &mut rng,
            );
            estimated += e;
            reranked += r;
            for (sum, &stage) in stage_ns.iter_mut().zip(Stage::ALL.iter()) {
                *sum += scratch.stages.get_ns(stage);
            }
        }
        (estimated, reranked, stage_ns)
    };
    pass(&mut scratch); // grows the scratch to its steady shape
    let mut counted = (0, 0, [0; 5]);
    let allocs = crate::count_allocs(|| counted = pass(&mut scratch));
    let (estimated, reranked, stage_ns) = counted;
    let per_query = |v: u64| v as f64 / fixed as f64;
    for (name, ns) in [
        "ivf.stage.rotate_ns",
        "ivf.stage.lut_build_ns",
        "ivf.stage.scan_ns",
        "ivf.stage.rerank_ns",
        "ivf.stage.merge_ns",
    ]
    .into_iter()
    .zip(stage_ns)
    {
        out.put(name, per_query(ns));
    }
    out.put("ivf.n_estimated_per_query", per_query(estimated as u64));
    out.put("ivf.n_reranked_per_query", per_query(reranked as u64));
    out.put(
        "ivf.rerank_ratio",
        reranked as f64 / estimated.max(1) as f64,
    );
    out.put("ivf.allocs_per_query", per_query(allocs as u64));

    let mut i = 0;
    let mut timed = |nprobe: usize, budget: Duration, rng: &mut StdRng| {
        time_reps(budget, || {
            index.search_into(
                ctx.load.query(i),
                K,
                nprobe,
                RerankStrategy::ErrorBound,
                &mut scratch,
                rng,
            );
            black_box(&scratch.neighbors);
            i += 1;
            1
        })
    };
    out.put_spread(
        "ivf.search_ns",
        timed(ctx.load.nprobe, ctx.share(0.05), &mut rng),
    );

    for (nprobe, qps_name, recall_name) in CURVE_NPROBE {
        let qps = timed(nprobe, ctx.share(0.05), &mut rng).map(|ns| 1e9 / ns);
        out.put_spread(qps_name, qps);
        let mut rng = StdRng::seed_from_u64(ctx.load.seed ^ 0xC04E);
        let mut scratch = SearchScratch::new();
        let total: f64 = (0..fixed)
            .map(|q| {
                index.search_into(
                    ctx.load.query(q),
                    K,
                    nprobe,
                    RerankStrategy::ErrorBound,
                    &mut scratch,
                    &mut rng,
                );
                recall(&ctx.truth[q], &scratch.neighbors)
            })
            .sum();
        out.put(recall_name, total / fixed as f64);
    }
}

/// One writer on a fresh collection with the mixed workload's writer
/// settings: what an insert costs, what seals and compactions cost and
/// how long they stall the writer, and the write amplification.
fn store_write_probe(ctx: &Ctx, out: &mut Ledger) -> io::Result<()> {
    let dim = ctx.load.dim;
    let n_rows = ctx.rows.len() / dim;
    let dir = TempDir::new("write-probe")?;
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = MIXED_MEMTABLE.min(n_rows / 4).max(64);
    config.auto_compact = true;
    let capacity = config.memtable_capacity;
    let mut collection = Collection::open(dir.path(), config)?;
    let err = |e: rabitq_store::StoreError| io::Error::other(e.to_string());

    let wal = dir.path().join(rabitq_store::WAL_FILE);
    let wal_empty = std::fs::metadata(&wal)?.len();
    let first_rows = capacity / 2;
    for i in 0..first_rows {
        collection.insert(ctx.row(i)).map_err(err)?;
    }
    let wal_bytes = std::fs::metadata(&wal)?.len() - wal_empty;
    out.put(
        "store.wal_bytes_per_row",
        wal_bytes as f64 / first_rows as f64,
    );

    let budget_ns = ctx.share(0.12).as_nanos() as u64;
    let start = now_ns();
    let mut lat_ns = Vec::new();
    let mut i = first_rows;
    // At least two seals, so seal cost exists even in a one-second run.
    while now_ns() - start < budget_ns || i < 2 * capacity + 1 {
        let t0 = now_ns();
        let id = collection.insert(ctx.row(i)).map_err(err)?;
        lat_ns.push(now_ns() - t0);
        i += 1;
        if i.is_multiple_of(INSERTS_PER_DELETE) {
            collection.delete(id / 2).map_err(err)?;
        }
    }
    if collection.n_segments() > 1 {
        // Guarantees a compaction to time when the policy asked for none.
        collection.compact().map_err(err)?;
    }
    // An insert that sealed or compacted takes milliseconds; one that
    // did not takes microseconds. The stalls are the former.
    let mut stalls: Vec<u64> = lat_ns
        .iter()
        .copied()
        .filter(|&ns| ns >= 1_000_000)
        .collect();
    stalls.sort_unstable();
    lat_ns.sort_unstable();
    out.put("store.insert_ns", percentile(&lat_ns, 0.5) as f64);
    let m = collection.metrics();
    let mean_s = |h: &rabitq_metrics::LatencyHistogram| h.mean_us() / 1e6;
    out.put("store.seal_s", mean_s(&m.seal_us));
    out.put("store.compact_s", mean_s(&m.compaction_us));
    out.put("store.wal_syncs", StoreMetrics::get(&m.wal_syncs) as f64);
    out.put("store.publishes", StoreMetrics::get(&m.publishes) as f64);
    out.put(
        "store.compaction_bytes_in",
        StoreMetrics::get(&m.compaction_bytes_in) as f64,
    );
    out.put(
        "store.compaction_bytes_out",
        StoreMetrics::get(&m.compaction_bytes_out) as f64,
    );
    let p95 = if stalls.is_empty() {
        0.0
    } else {
        percentile(&stalls, 0.95) as f64 / 1e6
    };
    out.put("store.seal_stall_ms_p95", p95);
    out.put("store.segments_at_end", collection.n_segments() as f64);
    Ok(())
}

/// Reopens the built collection and splits `CollectionReader::search`
/// into the per-segment scans and what the fan-out adds on top.
fn store_read_probes(ctx: &Ctx, out: &mut Ledger) -> io::Result<Collection> {
    let dim = ctx.load.dim;
    let (collection, took) = time_once(|| Collection::open_existing(ctx.dir));
    let collection = collection?;
    out.put("store.reopen_s", took.as_secs_f64());
    let reader = collection.reader();

    let mut names: Vec<_> = std::fs::read_dir(ctx.dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rbq"))
        .collect();
    names.sort();
    let segments = names
        .iter()
        .map(|p| Segment::load(p))
        .collect::<io::Result<Vec<_>>>()?;

    let mut rng = StdRng::seed_from_u64(ctx.load.seed ^ 0x5704E);
    let mut i = 0;
    let search = time_reps(ctx.share(0.05), || {
        black_box(reader.search(ctx.load.query(i), K, ctx.load.nprobe, &mut rng));
        i += 1;
        1
    });
    out.put_spread("store.search_ns", search);

    let mut scratch = SearchScratch::new();
    let mut i = 0;
    let scans = time_reps(ctx.share(0.05), || {
        for segment in &segments {
            segment.search_into(
                ctx.load.query(i),
                K,
                ctx.load.nprobe,
                &mut scratch,
                &mut rng,
            );
            black_box(&scratch.neighbors);
        }
        i += 1;
        1
    });
    out.put("store.fanout_overhead_ns", search.median - scans.median);

    if !adapter::batch_bit_identical(&reader, &ctx.load, ctx.nproc) {
        return Err(io::Error::other(format!(
            "search_many differs between 1 and {} threads",
            ctx.nproc
        )));
    }
    let n_batches = (ctx.load.queries.len() / dim / BATCH).max(1);
    let many = |threads: usize| {
        let mut b = 0;
        time_reps(ctx.share(0.04), || {
            let lo = (b % n_batches) * BATCH * dim;
            let hi = (lo + BATCH * dim).min(ctx.load.queries.len());
            let res = reader.search_many(
                &ctx.load.queries[lo..hi],
                K,
                ctx.load.nprobe,
                ParallelOptions::threaded(threads),
            );
            b += 1;
            black_box(res).len() as u64
        })
        .map(|ns| 1e9 / ns)
    };
    let one = many(1);
    let mt = many(ctx.nproc);
    out.put_spread("store.search_many_qps_1t", one);
    out.put_spread("store.search_many_qps_mt", mt);
    out.put("store.mt_speedup", mt.median / one.median);
    if ctx.nproc == 1 {
        out.note("not_meaningful: one core");
    }
    out.put("store.batch_speedup", one.median * search.median / 1e9);
    Ok(collection)
}

/// The HTTP front end over the reopened collection: its fixed costs
/// (JSON, socket round trip), where a request's time goes according to
/// the server itself, and the open-loop ladder.
fn serve_probes(ctx: &Ctx, collection: Collection, out: &mut Ledger) -> io::Result<()> {
    let dim = ctx.load.dim;
    let n_rows = ctx.n_ids;

    let body = adapter::search_body(ctx.load.query(0), ctx.load.nprobe);
    let parse = time_reps(ctx.share(0.02), || {
        black_box(Json::parse(black_box(&body)).expect("search body parses"));
        1
    });
    out.put_spread("serve.json_parse_ns", parse);
    let reply = json_obj! {
        "neighbors" => Json::Arr(
            (0..K)
                .map(|i| json_obj! {"id" => 1000 * i as u64, "distance" => 0.125 + i as f64 / 3.0})
                .collect(),
        ),
        "n_estimated" => 1234usize,
        "n_reranked" => 56usize
    };
    let encode = time_reps(ctx.share(0.02), || {
        black_box(black_box(&reply).encode());
        1
    });
    out.put_spread("serve.json_encode_ns", encode);

    // Dropping the server (on `?` as on return) drains and stops it.
    let server = adapter::start_server(collection, ctx.load.nprobe, ctx.nproc)?;
    let addr = server.addr();
    let healthz = {
        let mut client = HttpClient::connect(addr)?;
        let mut failed = None;
        let s = time_reps(ctx.share(0.03), || {
            if let Err(e) = client.get("/healthz") {
                failed = Some(e);
            }
            1
        });
        if let Some(e) = failed {
            return Err(e);
        }
        s.map(|ns| ns / 1e3)
    };
    out.put_spread("serve.healthz_rtt_us", healthz);

    // Closed loop with the server's own timings in every reply.
    let timed = adapter::search_requests(ctx.load.queries, dim, ctx.load.nprobe, true);
    let window = ctx.share(0.08).as_secs_f64();
    let log = adapter::http_closed_loop(addr, &timed, ctx.nproc, window, false, n_rows)?;
    if log.samples.is_empty() {
        return Err(io::Error::other("no search succeeded over HTTP"));
    }
    let mut lat: Vec<u64> = log.samples.iter().map(|s| s.lat_ns).collect();
    lat.sort_unstable();
    let good = log.samples.len() as f64;
    let p50_us = percentile(&lat, 0.5) as f64 / 1e3;
    let stage_us = log.stage_ns.iter().sum::<u64>() as f64 / good / 1e3;
    let handler_us = log.handler_ns as f64 / good / 1e3;
    let explained = handler_us + healthz.median + (parse.median + encode.median) / 1e3;
    out.put("serve.lat_p50_us", p50_us);
    out.put("serve.stage_sum_us", stage_us);
    out.put("serve.queue_wait_us", handler_us - stage_us);
    out.put("serve.unexplained_us", p50_us - explained);
    out.put(
        "serve.unexplained_pct",
        100.0 * (p50_us - explained) / p50_us,
    );

    let plain = adapter::search_requests(ctx.load.queries, dim, ctx.load.nprobe, false);
    let us = |v: &[u64], q: f64| {
        if v.is_empty() {
            0.0
        } else {
            percentile(v, q) as f64 / 1e3
        }
    };
    let mut best: Option<adapter::OpenLoopStep> = None;
    let mut first_miss: Option<adapter::OpenLoopStep> = None;
    for rate in LADDER_RPS {
        let secs = ctx.share(0.05).as_secs_f64();
        let step = adapter::http_open_loop(addr, &plain, ctx.nproc, rate, secs, n_rows)?;
        let meets = step.failed == 0
            && !step.lat_from_due_ns.is_empty()
            && percentile(&step.lat_from_due_ns, 0.95) <= SLO_P95_NS
            && step.final_lag_ns <= SLO_P95_NS;
        println!(
            "# ladder {rate} req/s: sent {} failed {} p95_from_due_us {} final_lag_us {} {}",
            step.attempted,
            step.failed,
            us(&step.lat_from_due_ns, 0.95),
            step.final_lag_ns / 1000,
            if meets { "meets" } else { "misses" }
        );
        if meets {
            best = Some(step);
        } else if first_miss.is_none() {
            first_miss = Some(step);
        }
    }
    out.put("serve.slo_rate_rps", best.as_ref().map_or(0.0, |s| s.rate));
    // The tail at the highest rate that met the limit, or, when none
    // did, at the first rate that missed it.
    let tail = best.or(first_miss).expect("the ladder has steps");
    out.put("client.lat_p99_us", us(&tail.lat_from_due_ns, 0.99));
    out.put("client.lat_max_us", us(&tail.lat_from_due_ns, 1.0));
    out.put("client.generator_lag_us_p95", us(&tail.lag_ns, 0.95));

    // The load connections are closed; a worker is free for /stats.
    let stats = HttpClient::connect(addr)?.get("/stats")?;
    let stats = Json::parse(&stats).map_err(|e| io::Error::other(e.to_string()))?;
    let metric = |key: &str| {
        stats
            .get("metrics")
            .and_then(|m| m.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| io::Error::other(format!("/stats lacks metrics.{key}")))
    };
    out.put("serve.mean_batch_size", metric("mean_batch_size")?);
    out.put(
        "serve.shed_rate",
        metric("shed_overload")? / metric("requests")?.max(1.0),
    );
    server.shutdown();
    Ok(())
}
