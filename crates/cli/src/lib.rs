//! # rabitq-cli — command-line front end
//!
//! End-to-end workflows over `.fvecs`/`.ivecs` files (the interchange
//! format of the public ANN benchmarks):
//!
//! ```text
//! rabitq generate      --dataset sift --n 100000 --queries 1000 \
//!                      --out-data base.fvecs --out-queries q.fvecs
//! rabitq ground-truth  --data base.fvecs --queries q.fvecs --k 100 --out gt.ivecs
//! rabitq build         --data base.fvecs --clusters 1024 --out index.rbq [--dense]
//! rabitq search        --index index.rbq --queries q.fvecs --k 100 \
//!                      --nprobe 64 --gt gt.ivecs --out results.ivecs
//! rabitq info          --index index.rbq
//! rabitq graph-build   --data base.fvecs --centroids 64 --out index.gph
//! rabitq graph-search  --index index.gph --queries q.fvecs --k 100 \
//!                      --ef-search 400 --gt gt.ivecs --out results.ivecs
//! ```
//!
//! And the live-collection workflows backed by `rabitq-store` (WAL +
//! sealed segments + compaction):
//!
//! ```text
//! rabitq ingest             --dir ./coll --data base.fvecs --memtable 4096
//! rabitq delete             --dir ./coll --ids 17,42,99
//! rabitq compact            --dir ./coll
//! rabitq verify             --dir ./coll
//! rabitq collection-search  --dir ./coll --queries q.fvecs --k 100 \
//!                           --nprobe 64 --gt gt.ivecs --out results.ivecs
//! rabitq serve              --dir ./coll --addr 127.0.0.1:7878 \
//!                           --workers 8 --slow-query-ms 50 \
//!                           --events-capacity 256
//! rabitq events             --dir ./coll
//! ```
//!
//! `serve` runs the `rabitq-serve` HTTP front end over a collection
//! until interrupted (or for `--duration-ms` if given): each search runs
//! on the connection worker that read it, mutations go through the WAL.
//! `--workers` bounds the requests in flight; a connection that finds
//! 128 others already waiting for a worker is answered `503`.
//! `--slow-query-ms N` journals every search slower than `N` ms with
//! its stage breakdown (default 0 = disabled); `--events-capacity`
//! bounds each collection's event journal (default 256 events).
//!
//! `events` opens a collection read-only and dumps its bounded event
//! journal — on a fresh open that is the `open` record plus any
//! quarantines; under `serve` the live journal (seals, compactions,
//! slow queries, read-only flips) is served by `/stats` instead.
//!
//! `collection-search` runs the whole query file as one batch
//! (`search_many`): `--threads N` spreads whole queries over up to `N`
//! threads of the shared worker pool, and per-query seeded RNGs make the
//! results bit-identical for every `N`, `1` included.
//!
//! The library surface (`run`) is process-free so the whole pipeline is
//! exercised by integration tests.

use rabitq_core::{RabitqConfig, RotatorKind};
use rabitq_data::io;
use rabitq_data::registry::PaperDataset;
use rabitq_graph::{GraphRabitq, GraphRabitqConfig, GraphRerank};
use rabitq_hnsw::HnswConfig;
use rabitq_ivf::{IvfConfig, IvfRabitq};
use rabitq_metrics::{recall_at_k, Stopwatch};
use rabitq_store::{
    Collection, CollectionConfig, DiskIo, Manifest, ParallelOptions, Segment, Wal, MANIFEST_FILE,
    QUARANTINE_SUFFIX, WAL_FILE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Runs one CLI invocation. `args` excludes the program name.
pub fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or_else(usage)?;
    let flags = Flags::parse(rest)?;
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "ground-truth" => cmd_ground_truth(&flags),
        "build" => cmd_build(&flags),
        "search" => cmd_search(&flags),
        "info" => cmd_info(&flags),
        "graph-build" => cmd_graph_build(&flags),
        "graph-search" => cmd_graph_search(&flags),
        "ingest" => cmd_ingest(&flags),
        "delete" => cmd_delete(&flags),
        "compact" => cmd_compact(&flags),
        "verify" => cmd_verify(&flags),
        "collection-search" => cmd_collection_search(&flags),
        "serve" => cmd_serve(&flags),
        "events" => cmd_events(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// Every subcommand `run` accepts, in usage order.
pub const COMMANDS: &[&str] = &[
    "generate",
    "ground-truth",
    "build",
    "search",
    "info",
    "graph-build",
    "graph-search",
    "ingest",
    "delete",
    "compact",
    "verify",
    "collection-search",
    "serve",
    "events",
    "help",
];

/// The usage banner (public so tooling and tests can assert on it).
pub fn usage() -> String {
    String::from(
        "usage: rabitq <command> [--flag value]...\n\
         \n\
         one-shot index workflows:\n\
         \x20 generate           synthesize an .fvecs dataset + queries\n\
         \x20 ground-truth       exact top-k for a query file\n\
         \x20 build              build an IVF-RaBitQ index from .fvecs;\n\
         \x20                    --dense picks the paper's O(D^2) Haar rotation\n\
         \x20                    over the default O(D log D) Hadamard one\n\
         \x20                    (graph-build takes it too)\n\
         \x20 search             query an IVF-RaBitQ index file\n\
         \x20 info               print an index file's parameters\n\
         \x20 graph-build        build a Graph-RaBitQ (HNSW) index\n\
         \x20 graph-search       query a Graph-RaBitQ index file\n\
         \n\
         live collection workflows (rabitq-store):\n\
         \x20 ingest             append .fvecs vectors to a collection dir\n\
         \x20 delete             tombstone ids in a collection\n\
         \x20 compact            force-merge all segments, reclaim tombstones\n\
         \x20 verify             read-only scrub: checksum every segment,\n\
         \x20                    scan the WAL, list quarantined/orphan files\n\
         \x20 collection-search  query a collection (memtable + segments);\n\
         \x20                    --threads N spreads the batch over N threads\n\
         \x20 serve              HTTP front end over a collection (JSON API,\n\
         \x20                    one search per connection worker, 503 when\n\
         \x20                    the connection backlog is full);\n\
         \x20                    --slow-query-ms N journals searches >= N ms\n\
         \x20                    (default 0 = off), --events-capacity bounds\n\
         \x20                    the event journal (default 256),\n\
         \x20                    --timeout-ms N default search deadline\n\
         \x20                    (default 0 = none), --max-timeout-ms N caps\n\
         \x20                    client timeouts (default 60000, 0 = no cap)\n\
         \x20 events             dump a collection's event journal (seals,\n\
         \x20                    compactions, quarantines, slow queries)\n\
         \n\
         \x20 help               this text\n\
         see crate docs for per-command flags",
    )
}

/// Flags that are switches: present or absent, no value token.
const BOOLEAN_FLAGS: &[&str] = &["dense", "seal"];

/// Parsed `--key value` flags.
struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    fn parse(tokens: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut iter = tokens.iter();
        while let Some(tok) = iter.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {tok:?}"))?;
            if BOOLEAN_FLAGS.contains(&key) {
                values.insert(key.to_string(), "true".to_string());
                continue;
            }
            let val = iter
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            values.insert(key.to_string(), val.clone());
        }
        Ok(Self { values })
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.values
            .get(key)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map(String::as_str).unwrap_or(default)
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be an integer, got {v:?}")),
        }
    }

    fn f32_or(&self, key: &str, default: f32) -> Result<f32, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be a number, got {v:?}")),
        }
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be an integer, got {v:?}")),
        }
    }

    fn flag_present(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

fn io_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let name = flags.str_or("dataset", "sift");
    let dataset = PaperDataset::parse(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let n = flags.usize_or("n", 10_000)?;
    let queries = flags.usize_or("queries", 100)?;
    let seed = flags.u64_or("seed", 42)?;
    let out_data = flags.path("out-data")?;
    let out_queries = flags.path("out-queries")?;
    let ds = dataset.generate(n, queries, seed);
    io::write_fvecs(&out_data, &ds.data, ds.dim).map_err(|e| io_err("writing data", e))?;
    io::write_fvecs(&out_queries, &ds.queries, ds.dim).map_err(|e| io_err("writing queries", e))?;
    println!(
        "wrote {} base vectors -> {} and {} queries -> {} (D = {})",
        n,
        out_data.display(),
        queries,
        out_queries.display(),
        ds.dim
    );
    Ok(())
}

fn cmd_ground_truth(flags: &Flags) -> Result<(), String> {
    let (data, dim) = read_fvecs_checked(&flags.path("data")?)?;
    let (queries, qdim) = read_fvecs_checked(&flags.path("queries")?)?;
    if dim != qdim {
        return Err(format!("data D = {dim} but queries D = {qdim}"));
    }
    let k = flags.usize_or("k", 100)?;
    let out = flags.path("out")?;
    let gt = rabitq_data::exact_knn(&data, dim, &queries, k, 1);
    let flat: Vec<i32> = gt
        .iter()
        .flat_map(|nbrs| nbrs.iter().map(|&(id, _)| id as i32))
        .collect();
    io::write_ivecs(&out, &flat, k).map_err(|e| io_err("writing ground truth", e))?;
    println!(
        "wrote exact top-{k} for {} queries -> {}",
        gt.len(),
        out.display()
    );
    Ok(())
}

/// The quantizer settings `build`, `graph-build` and `ingest` share: the
/// library defaults, overridden by `--bq`, `--epsilon0`, `--seed`, and
/// `--dense` (the paper's O(D²) Haar rotation in place of the default
/// Hadamard one). Settings no quantizer takes are refused here, before
/// any index or collection file is written.
fn rabitq_config(flags: &Flags) -> Result<RabitqConfig, String> {
    let defaults = RabitqConfig::default();
    let bq = flags.usize_or("bq", defaults.bq as usize)?;
    let config = RabitqConfig {
        // A value past `u8` is out of range, as 0 is.
        bq: u8::try_from(bq).unwrap_or(0),
        epsilon0: flags.f32_or("epsilon0", defaults.epsilon0)?,
        seed: flags.u64_or("seed", defaults.seed)?,
        rotator: if flags.flag_present("dense") {
            RotatorKind::DenseOrthogonal
        } else {
            defaults.rotator
        },
        padded_dim: None,
    };
    config
        .validate()
        .map_err(|e| format!("--bq {bq} --epsilon0 {}: {e}", config.epsilon0))?;
    Ok(config)
}

fn cmd_build(flags: &Flags) -> Result<(), String> {
    let (data, dim) = read_fvecs_checked(&flags.path("data")?)?;
    let n = data.len() / dim;
    let clusters = flags.usize_or("clusters", IvfConfig::clusters_for(n))?;
    let out = flags.path("out")?;
    let config = rabitq_config(flags)?;
    let mut sw = Stopwatch::new();
    sw.start();
    let index = IvfRabitq::build(&data, dim, &IvfConfig::new(clusters), config);
    sw.stop();
    index.save(&out).map_err(|e| io_err("saving index", e))?;
    println!(
        "built IVF-RaBitQ over {n} x {dim}D in {:.1}s ({} buckets, {}-bit codes) -> {}",
        sw.elapsed().as_secs_f64(),
        index.n_buckets(),
        index.quantizer().padded_dim(),
        out.display()
    );
    Ok(())
}

fn cmd_search(flags: &Flags) -> Result<(), String> {
    let index = IvfRabitq::load(&flags.path("index")?).map_err(|e| io_err("loading index", e))?;
    let (queries, qdim) = read_fvecs_checked(&flags.path("queries")?)?;
    if qdim != index.dim() {
        return Err(format!("index D = {} but queries D = {qdim}", index.dim()));
    }
    let k = flags.usize_or("k", 100)?;
    let nprobe = flags.usize_or("nprobe", 64)?;
    let seed = flags.u64_or("seed", 1)?;
    let nq = queries.len() / qdim;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = Stopwatch::new();
    let mut answers: Vec<Vec<u32>> = Vec::with_capacity(nq);
    for q in queries.chunks_exact(qdim) {
        sw.start();
        let res = index.search(q, k, nprobe, &mut rng);
        sw.stop();
        answers.push(res.neighbors.iter().map(|&(id, _)| id).collect());
    }
    println!(
        "searched {nq} queries: k = {k}, nprobe = {nprobe}, {:.0} QPS",
        sw.per_second(nq as u64)
    );
    report_answers(flags, answers, k)
}

/// The tail every search command shares: pads each query's answer to `k`
/// ids with `u32::MAX`, prints recall@k against `--gt` and writes the ids
/// to `--out` as `.ivecs`.
fn report_answers(flags: &Flags, mut answers: Vec<Vec<u32>>, k: usize) -> Result<(), String> {
    for ids in &mut answers {
        ids.resize(k, u32::MAX); // pad short answers deterministically
    }
    if let Ok(gt_path) = flags.path("gt") {
        let (gt_flat, gt_k) = io::read_ivecs(&gt_path).map_err(|e| io_err("reading gt", e))?;
        let gt_rows = gt_flat.len().checked_div(gt_k).unwrap_or(0);
        if gt_rows < answers.len() {
            return Err(format!(
                "{} holds ground truth for {gt_rows} queries, fewer than the {} searched",
                gt_path.display(),
                answers.len()
            ));
        }
        let mut recall = 0.0;
        for (qi, ids) in answers.iter().enumerate() {
            let want: Vec<u32> = gt_flat[qi * gt_k..qi * gt_k + gt_k.min(k)]
                .iter()
                .map(|&v| v as u32)
                .collect();
            recall += recall_at_k(&want, ids);
        }
        println!("recall@{k}: {:.4}", recall / answers.len() as f64);
    }

    if let Ok(out) = flags.path("out") {
        let all_ids: Vec<i32> = answers.iter().flatten().map(|&id| id as i32).collect();
        io::write_ivecs(&out, &all_ids, k).map_err(|e| io_err("writing results", e))?;
        println!("wrote neighbor ids -> {}", out.display());
    }
    Ok(())
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let path = flags.path("index")?;
    let index = IvfRabitq::load(&path).map_err(|e| io_err("loading index", e))?;
    let cfg = index.quantizer().config();
    println!("index file : {}", path.display());
    println!("vectors    : {}", index.len());
    println!("dimension  : {}", index.dim());
    println!("code bits  : {}", index.quantizer().padded_dim());
    println!("buckets    : {}", index.n_buckets());
    println!("B_q        : {}", cfg.bq);
    println!("epsilon0   : {}", cfg.epsilon0);
    println!("rotator    : {:?}", cfg.rotator);
    println!(
        "bit entropy: {:.2}%",
        index.normalized_code_entropy() * 100.0
    );
    Ok(())
}

fn cmd_graph_build(flags: &Flags) -> Result<(), String> {
    let (data, dim) = read_fvecs_checked(&flags.path("data")?)?;
    let n = data.len() / dim;
    let out = flags.path("out")?;
    let config = GraphRabitqConfig {
        hnsw: HnswConfig {
            m: flags.usize_or("m", 16)?,
            ef_construction: flags.usize_or("ef-construction", 500)?,
            seed: flags.u64_or("seed", 0x4452)?,
        },
        rabitq: rabitq_config(flags)?,
        rerank: GraphRerank::ErrorBound,
        centroids: flags.usize_or("centroids", 1)?,
    };
    let mut sw = Stopwatch::new();
    sw.start();
    let index = GraphRabitq::build(&data, dim, config);
    sw.stop();
    let file = std::fs::File::create(&out).map_err(|e| io_err("creating index file", e))?;
    let mut w = std::io::BufWriter::new(file);
    index.write(&mut w).map_err(|e| io_err("saving index", e))?;
    let (layers, degree) = index.graph().graph_stats();
    println!(
        "built Graph-RaBitQ over {n} x {dim}D in {:.1}s ({layers} layers, avg degree \
         {degree:.1}, {} centroid(s), {}-bit codes) -> {}",
        sw.elapsed().as_secs_f64(),
        index.n_centroids(),
        index.quantizer().padded_dim(),
        out.display()
    );
    Ok(())
}

fn cmd_graph_search(flags: &Flags) -> Result<(), String> {
    let file = std::fs::File::open(flags.path("index")?).map_err(|e| io_err("opening index", e))?;
    let mut r = std::io::BufReader::new(file);
    let index = GraphRabitq::read(&mut r).map_err(|e| io_err("loading index", e))?;
    let (queries, qdim) = read_fvecs_checked(&flags.path("queries")?)?;
    if qdim != index.dim() {
        return Err(format!("index D = {} but queries D = {qdim}", index.dim()));
    }
    let k = flags.usize_or("k", 100)?;
    let ef = flags.usize_or("ef-search", 4 * k)?;
    let seed = flags.u64_or("seed", 1)?;
    let nq = queries.len() / qdim;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = Stopwatch::new();
    let mut answers: Vec<Vec<u32>> = Vec::with_capacity(nq);
    let (mut est, mut rer) = (0usize, 0usize);
    for q in queries.chunks_exact(qdim) {
        sw.start();
        let res = index.search(q, k, ef, &mut rng);
        sw.stop();
        est += res.n_estimated;
        rer += res.n_reranked;
        answers.push(res.neighbors.iter().map(|&(id, _)| id).collect());
    }
    println!(
        "searched {nq} queries: k = {k}, efSearch = {ef}, {:.0} QPS, \
         {:.0} estimated / {:.0} re-ranked per query",
        sw.per_second(nq as u64),
        est as f64 / nq as f64,
        rer as f64 / nq as f64
    );
    report_answers(flags, answers, k)
}

fn cmd_ingest(flags: &Flags) -> Result<(), String> {
    let dir = flags.path("dir")?;
    let (data, dim) = read_fvecs_checked(&flags.path("data")?)?;
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = flags.usize_or("memtable", 4096)?;
    config.rabitq = rabitq_config(flags)?;
    let mut collection =
        Collection::open(&dir, config).map_err(|e| io_err("opening collection", e))?;
    let n = data.len() / dim;
    let mut sw = Stopwatch::new();
    sw.start();
    let mut first = u32::MAX;
    let mut last = 0u32;
    for row in data.chunks_exact(dim) {
        let id = collection
            .insert(row)
            .map_err(|e| io_err("inserting vector", e))?;
        first = first.min(id);
        last = last.max(id);
    }
    if flags.flag_present("seal") {
        collection
            .seal()
            .map_err(|e| io_err("sealing memtable", e))?;
    }
    sw.stop();
    println!(
        "ingested {n} x {dim}D vectors (ids {first}..={last}) in {:.1}s -> {} \
         ({} live, {} segments, {} in memtable)",
        sw.elapsed().as_secs_f64(),
        dir.display(),
        collection.len(),
        collection.n_segments(),
        collection.memtable_len()
    );
    Ok(())
}

fn cmd_delete(flags: &Flags) -> Result<(), String> {
    let dir = flags.path("dir")?;
    let spec = flags
        .values
        .get("ids")
        .ok_or("missing required flag --ids (comma-separated)")?;
    let ids = parse_id_list(spec)?;
    let mut collection =
        Collection::open_existing(&dir).map_err(|e| io_err("opening collection", e))?;
    let mut removed = 0usize;
    for id in &ids {
        if collection
            .delete(*id)
            .map_err(|e| io_err("deleting vector", e))?
        {
            removed += 1;
        }
    }
    println!(
        "tombstoned {removed} of {} ids ({} live remain)",
        ids.len(),
        collection.len()
    );
    Ok(())
}

fn cmd_compact(flags: &Flags) -> Result<(), String> {
    let dir = flags.path("dir")?;
    let mut collection =
        Collection::open_existing(&dir).map_err(|e| io_err("opening collection", e))?;
    let before = collection.n_segments();
    let mut sw = Stopwatch::new();
    sw.start();
    collection
        .seal()
        .map_err(|e| io_err("sealing memtable", e))?;
    let merged = collection.compact().map_err(|e| io_err("compacting", e))?;
    sw.stop();
    if merged || collection.n_segments() != before {
        println!(
            "compacted {before} segments -> {} in {:.1}s ({} live vectors)",
            collection.n_segments(),
            sw.elapsed().as_secs_f64(),
            collection.len()
        );
    } else {
        println!("nothing to compact ({before} segments, no tombstones)");
    }
    Ok(())
}

fn cmd_verify(flags: &Flags) -> Result<(), String> {
    let dir = flags.path("dir")?;
    let manifest =
        Manifest::load(&dir.join(MANIFEST_FILE)).map_err(|e| io_err("loading manifest", e))?;
    let rabitq = &manifest.rabitq;
    println!(
        "verifying {} : D = {}, rotator {:?}, {}-bit codes, {} segment(s), wal floor {}",
        dir.display(),
        manifest.dim,
        rabitq.rotator,
        rabitq.rotator.code_length(manifest.dim, rabitq.padded_dim),
        manifest.segments.len(),
        manifest.wal_floor
    );

    // Checksum-verify every segment the manifest references, without
    // opening the collection (a corrupt one would get quarantined by
    // `open`; a scrub must only observe).
    let mut problems: Vec<String> = Vec::new();
    for meta in &manifest.segments {
        match Segment::load(&dir.join(&meta.file)) {
            Ok(seg) => println!(
                "  segment {:<24} ok       {} rows, {} live",
                meta.file,
                seg.len(),
                seg.n_live()
            ),
            Err(e) => {
                println!("  segment {:<24} CORRUPT  {e}", meta.file);
                problems.push(format!("segment {} is unreadable: {e}", meta.file));
            }
        }
    }

    match Wal::scan(&dir.join(WAL_FILE), manifest.dim, &DiskIo) {
        Ok(replay) if replay.recovered_torn_tail => {
            println!(
                "  wal     {:<24} TORN     {} intact record(s), trailing garbage \
                 (the next open truncates it)",
                WAL_FILE,
                replay.records.len()
            );
            problems.push("wal has a torn tail".to_string());
        }
        Ok(replay) => println!(
            "  wal     {:<24} ok       {} record(s)",
            WAL_FILE,
            replay.records.len()
        ),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("  wal     {WAL_FILE:<24} absent");
        }
        Err(e) => {
            println!("  wal     {WAL_FILE:<24} CORRUPT  {e}");
            problems.push(format!("wal is unreadable: {e}"));
        }
    }

    // Files the manifest does not account for: quarantined segments from
    // an earlier degraded open, or orphans a crash left behind.
    let referenced: std::collections::HashSet<&str> =
        manifest.segments.iter().map(|m| m.file.as_str()).collect();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| io_err("listing collection dir", e))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().to_str().map(String::from))
        .collect();
    names.sort();
    for name in &names {
        if name == MANIFEST_FILE || name == WAL_FILE || referenced.contains(name.as_str()) {
            continue;
        }
        if name.ends_with(QUARANTINE_SUFFIX) {
            println!("  extra   {name:<24} quarantined (kept for forensics)");
        } else if name.ends_with(".tmp") || (name.starts_with("seg-") && name.ends_with(".rbq")) {
            println!("  extra   {name:<24} orphan (the next open removes it)");
        }
    }

    if problems.is_empty() {
        println!("verify: clean");
        Ok(())
    } else {
        Err(format!(
            "verify found {} problem(s): {}",
            problems.len(),
            problems.join("; ")
        ))
    }
}

fn cmd_collection_search(flags: &Flags) -> Result<(), String> {
    let dir = flags.path("dir")?;
    let collection =
        Collection::open_existing(&dir).map_err(|e| io_err("opening collection", e))?;
    let (queries, qdim) = read_fvecs_checked(&flags.path("queries")?)?;
    if qdim != collection.dim() {
        return Err(format!(
            "collection D = {} but queries D = {qdim}",
            collection.dim()
        ));
    }
    let k = flags.usize_or("k", 100)?;
    let nprobe = flags.usize_or("nprobe", 64)?;
    let seed = flags.u64_or("seed", 1)?;
    let threads = flags.usize_or("threads", 1)?;
    let nq = queries.len() / qdim;

    // One search_many call over the whole query file: per-query seeded
    // RNGs make the neighbour file the same at every thread count.
    let mut sw = Stopwatch::new();
    sw.start();
    let results =
        collection
            .snapshot()
            .search_many(&queries, k, nprobe, ParallelOptions { threads, seed });
    sw.stop();
    let answers: Vec<Vec<u32>> = results
        .iter()
        .map(|res| res.neighbors.iter().map(|&(id, _)| id).collect())
        .collect();
    println!(
        "searched {nq} queries over {} segments + memtable ({} live): \
         k = {k}, nprobe = {nprobe}, {threads} thread(s), {:.0} QPS",
        collection.n_segments(),
        collection.len(),
        sw.per_second(nq as u64)
    );
    report_answers(flags, answers, k)
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let dir = flags.path("dir")?;
    let collection =
        Collection::open_existing(&dir).map_err(|e| io_err("opening collection", e))?;
    let name = flags.str_or("name", "default").to_string();
    let mut config = rabitq_serve::ServeConfig {
        addr: flags.str_or("addr", "127.0.0.1:7878").to_string(),
        workers: flags.usize_or("workers", 8)?,
        default_k: flags.usize_or("k", 10)?,
        default_nprobe: flags.usize_or("nprobe", 32)?,
        max_k: flags.usize_or("max-k", 4096)?,
        max_nprobe: flags.usize_or("max-nprobe", 65536)?,
        ..rabitq_serve::ServeConfig::default()
    };
    config.slow_query_ms = flags.u64_or("slow-query-ms", config.slow_query_ms)?;
    config.events_capacity = flags.usize_or("events-capacity", config.events_capacity)?;
    config.default_timeout_ms = flags.u64_or("timeout-ms", config.default_timeout_ms)?;
    config.max_timeout_ms = flags.u64_or("max-timeout-ms", config.max_timeout_ms)?;
    let duration_ms = flags.u64_or("duration-ms", 0)?;

    let (live, segments) = (collection.len(), collection.n_segments());
    let server = rabitq_serve::Server::start(config, vec![(name.clone(), collection)])
        .map_err(|e| io_err("starting server", e))?;
    println!(
        "serving collection {name:?} ({live} live vectors, {segments} segments) \
         on http://{}",
        server.addr()
    );
    if duration_ms == 0 {
        // Run until the process is killed; the collection's WAL makes
        // an abrupt exit safe.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(duration_ms));
    server.shutdown();
    println!("shut down after {duration_ms} ms");
    Ok(())
}

fn cmd_events(flags: &Flags) -> Result<(), String> {
    let dir = flags.path("dir")?;
    let collection =
        Collection::open_existing(&dir).map_err(|e| io_err("opening collection", e))?;
    let journal = &collection.metrics().journal;
    let events = journal.recent();
    println!(
        "{}: {} event(s) retained ({} recorded, {} evicted)",
        dir.display(),
        events.len(),
        journal.total_recorded(),
        journal.dropped()
    );
    for e in &events {
        println!(
            "  #{:<5} ts_ms={:<14} {:<12} {}",
            e.seq, e.ts_ms, e.kind, e.detail
        );
    }
    Ok(())
}

/// Parses a comma-separated id list, with `a..b` ranges (`b` exclusive).
fn parse_id_list(spec: &str) -> Result<Vec<u32>, String> {
    let mut ids = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        match part.split_once("..") {
            Some((a, b)) => {
                let a: u32 = a.trim().parse().map_err(|_| format!("bad id {part:?}"))?;
                let b: u32 = b.trim().parse().map_err(|_| format!("bad id {part:?}"))?;
                ids.extend(a..b);
            }
            None => ids.push(
                part.trim()
                    .parse()
                    .map_err(|_| format!("bad id {part:?}"))?,
            ),
        }
    }
    Ok(ids)
}

/// Reads an `.fvecs` file every command takes rows or queries through:
/// it must hold at least one vector, and only finite values (no index,
/// collection or search is defined over a NaN or an infinity).
fn read_fvecs_checked(path: &Path) -> Result<(Vec<f32>, usize), String> {
    let (data, dim) = io::read_fvecs(path).map_err(|e| io_err("reading fvecs", e))?;
    if dim == 0 || data.is_empty() {
        return Err(format!("{} holds no vectors", path.display()));
    }
    if let Some(at) = data.iter().position(|v| !v.is_finite()) {
        return Err(format!(
            "row {} of {} holds a non-finite value; only finite rows are taken",
            at / dim,
            path.display()
        ));
    }
    Ok((data, dim))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rabitq-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn full_pipeline_generate_build_search() {
        let dir = tmp_dir("pipeline");
        let data = dir.join("base.fvecs");
        let queries = dir.join("q.fvecs");
        let gt = dir.join("gt.ivecs");
        let index = dir.join("index.rbq");
        let results = dir.join("res.ivecs");

        run(&args(&[
            "generate",
            "--dataset",
            "sift",
            "--n",
            "800",
            "--queries",
            "5",
            "--out-data",
            data.to_str().unwrap(),
            "--out-queries",
            queries.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "ground-truth",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "10",
            "--out",
            gt.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--clusters",
            "8",
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "search",
            "--index",
            index.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "10",
            "--nprobe",
            "8",
            "--gt",
            gt.to_str().unwrap(),
            "--out",
            results.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&["info", "--index", index.to_str().unwrap()])).unwrap();

        // A ground-truth file with fewer rows than queries is an error,
        // not an out-of-range slice.
        let short_gt = dir.join("short_gt.ivecs");
        let (gt_ids, gk) = io::read_ivecs(&gt).unwrap();
        io::write_ivecs(&short_gt, &gt_ids[..4 * gk], gk).unwrap();
        let err = run(&args(&[
            "search",
            "--index",
            index.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "10",
            "--gt",
            short_gt.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("ground truth for 4 queries"), "{err}");

        // `build` takes the library's rotator; `--dense` is the opt-out,
        // recorded in the index file (and searchable like any other).
        let built = |path: &Path| IvfRabitq::load(path).unwrap().quantizer().config().rotator;
        assert_eq!(built(&index), RabitqConfig::default().rotator);
        let dense = dir.join("dense.rbq");
        run(&args(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--clusters",
            "8",
            "--dense",
            "--out",
            dense.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(built(&dense), RotatorKind::DenseOrthogonal);
        assert!(usage().contains("--dense"));

        // The results file holds 5 queries × 10 ids.
        let (ids, k) = io::read_ivecs(&results).unwrap();
        assert_eq!(k, 10);
        assert_eq!(ids.len(), 50);
        // High-recall regime (everything probed): answers should mostly
        // match the exact ground truth.
        let (gt_ids, gk) = io::read_ivecs(&gt).unwrap();
        assert_eq!(gk, 10);
        let matches = ids
            .chunks_exact(10)
            .zip(gt_ids.chunks_exact(10))
            .map(|(a, b)| a.iter().filter(|x| b.contains(x)).count())
            .sum::<usize>();
        assert!(matches >= 45, "only {matches}/50 ids matched ground truth");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_pipeline_build_and_search() {
        let dir = tmp_dir("graph-pipeline");
        let data = dir.join("base.fvecs");
        let queries = dir.join("q.fvecs");
        let gt = dir.join("gt.ivecs");
        let index = dir.join("index.gph");
        let results = dir.join("res.ivecs");

        run(&args(&[
            "generate",
            "--dataset",
            "sift",
            "--n",
            "600",
            "--queries",
            "5",
            "--out-data",
            data.to_str().unwrap(),
            "--out-queries",
            queries.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "ground-truth",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "5",
            "--out",
            gt.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "graph-build",
            "--data",
            data.to_str().unwrap(),
            "--centroids",
            "4",
            "--ef-construction",
            "100",
            "--out",
            index.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "graph-search",
            "--index",
            index.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "5",
            "--ef-search",
            "100",
            "--gt",
            gt.to_str().unwrap(),
            "--out",
            results.to_str().unwrap(),
        ]))
        .unwrap();

        let (ids, k) = io::read_ivecs(&results).unwrap();
        assert_eq!(k, 5);
        assert_eq!(ids.len(), 25);
        let (gt_ids, _) = io::read_ivecs(&gt).unwrap();
        let matches = ids
            .chunks_exact(5)
            .zip(gt_ids.chunks_exact(5))
            .map(|(a, b)| a.iter().filter(|x| b.contains(x)).count())
            .sum::<usize>();
        assert!(matches >= 20, "only {matches}/25 ids matched ground truth");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_search_rejects_wrong_index_format() {
        let dir = tmp_dir("graph-wrong-format");
        let data = dir.join("base.fvecs");
        let ivf_index = dir.join("index.rbq");
        run(&args(&[
            "generate",
            "--dataset",
            "sift",
            "--n",
            "300",
            "--queries",
            "2",
            "--out-data",
            data.to_str().unwrap(),
            "--out-queries",
            dir.join("q.fvecs").to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "build",
            "--data",
            data.to_str().unwrap(),
            "--clusters",
            "4",
            "--out",
            ivf_index.to_str().unwrap(),
        ]))
        .unwrap();
        // Loading an IVF index as a graph index must fail with a clear
        // error, not a panic or garbage results.
        let err = run(&args(&[
            "graph-search",
            "--index",
            ivf_index.to_str().unwrap(),
            "--queries",
            dir.join("q.fvecs").to_str().unwrap(),
            "--k",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("loading index"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collection_pipeline_ingest_delete_compact_search() {
        let dir = tmp_dir("collection-pipeline");
        let data = dir.join("base.fvecs");
        let queries = dir.join("q.fvecs");
        let gt = dir.join("gt.ivecs");
        let coll = dir.join("coll");
        let results = dir.join("res.ivecs");

        run(&args(&[
            "generate",
            "--dataset",
            "sift",
            "--n",
            "600",
            "--queries",
            "5",
            "--out-data",
            data.to_str().unwrap(),
            "--out-queries",
            queries.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "ground-truth",
            "--data",
            data.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "10",
            "--out",
            gt.to_str().unwrap(),
        ]))
        .unwrap();
        // Tiny memtable so several segments seal during ingest; bare
        // `--seal` (a boolean switch, no value token) flushes the rest.
        run(&args(&[
            "ingest",
            "--dir",
            coll.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--memtable",
            "150",
            "--seal",
        ]))
        .unwrap();
        run(&args(&[
            "delete",
            "--dir",
            coll.to_str().unwrap(),
            "--ids",
            "990..1000,5",
        ]))
        .unwrap();
        run(&args(&["compact", "--dir", coll.to_str().unwrap()])).unwrap();
        run(&args(&[
            "collection-search",
            "--dir",
            coll.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "10",
            "--nprobe",
            "64",
            "--gt",
            gt.to_str().unwrap(),
            "--out",
            results.to_str().unwrap(),
        ]))
        .unwrap();

        let (ids, k) = io::read_ivecs(&results).unwrap();
        assert_eq!(k, 10);
        assert_eq!(ids.len(), 50);
        // id 5 was tombstoned; it must never appear in any answer.
        assert!(ids.iter().all(|&id| id != 5));
        // High-recall regime: answers should mostly match ground truth
        // (modulo the one deleted id, which gt may still contain).
        let (gt_ids, _) = io::read_ivecs(&gt).unwrap();
        let matches = ids
            .chunks_exact(10)
            .zip(gt_ids.chunks_exact(10))
            .map(|(a, b)| a.iter().filter(|x| b.contains(x)).count())
            .sum::<usize>();
        assert!(matches >= 44, "only {matches}/50 ids matched ground truth");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collection_batch_search_is_thread_count_invariant() {
        let dir = tmp_dir("collection-batch");
        let data = dir.join("base.fvecs");
        let queries = dir.join("q.fvecs");
        let coll = dir.join("coll");

        run(&args(&[
            "generate",
            "--dataset",
            "sift",
            "--n",
            "500",
            "--queries",
            "8",
            "--out-data",
            data.to_str().unwrap(),
            "--out-queries",
            queries.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "ingest",
            "--dir",
            coll.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--memtable",
            "125",
            "--seal",
        ]))
        .unwrap();

        // Same seed, different thread counts, one thread included: the
        // batch engine must emit bit-identical neighbor files.
        let mut outputs = Vec::new();
        for threads in ["1", "2", "4"] {
            let out = dir.join(format!("res-{threads}.ivecs"));
            run(&args(&[
                "collection-search",
                "--dir",
                coll.to_str().unwrap(),
                "--queries",
                queries.to_str().unwrap(),
                "--k",
                "10",
                "--nprobe",
                "32",
                "--threads",
                threads,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            outputs.push(io::read_ivecs(&out).unwrap());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_runs_for_duration_and_exits() {
        let dir = tmp_dir("serve-smoke");
        let data = dir.join("base.fvecs");
        let coll = dir.join("coll");
        run(&args(&[
            "generate",
            "--dataset",
            "sift",
            "--n",
            "300",
            "--queries",
            "2",
            "--out-data",
            data.to_str().unwrap(),
            "--out-queries",
            dir.join("q.fvecs").to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "ingest",
            "--dir",
            coll.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--memtable",
            "100",
            "--seal",
        ]))
        .unwrap();
        // Ephemeral port, bounded run: starts, serves, shuts down clean.
        // The observability flags parse and are accepted.
        run(&args(&[
            "serve",
            "--dir",
            coll.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--slow-query-ms",
            "25",
            "--events-capacity",
            "64",
            "--timeout-ms",
            "250",
            "--max-timeout-ms",
            "30000",
            "--duration-ms",
            "50",
        ]))
        .unwrap();
        // A non-numeric deadline flag is a clean parse error too.
        let err = run(&args(&[
            "serve",
            "--dir",
            coll.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--timeout-ms",
            "soon",
            "--duration-ms",
            "10",
        ]))
        .unwrap_err();
        assert!(err.contains("timeout-ms"), "{err}");
        // A non-numeric observability flag is a clean parse error.
        let err = run(&args(&[
            "serve",
            "--dir",
            coll.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--slow-query-ms",
            "fast",
            "--duration-ms",
            "10",
        ]))
        .unwrap_err();
        assert!(err.contains("slow-query-ms"), "{err}");
        // A missing collection is a clean error.
        assert!(run(&args(&[
            "serve",
            "--dir",
            dir.join("nonexistent").to_str().unwrap()
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_dumps_the_journal_of_an_existing_collection() {
        let dir = tmp_dir("events");
        let data = dir.join("base.fvecs");
        let coll = dir.join("coll");
        run(&args(&[
            "generate",
            "--dataset",
            "sift",
            "--n",
            "300",
            "--queries",
            "2",
            "--out-data",
            data.to_str().unwrap(),
            "--out-queries",
            dir.join("q.fvecs").to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "ingest",
            "--dir",
            coll.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--memtable",
            "100",
            "--seal",
        ]))
        .unwrap();
        // A fresh open journals at least the "open" record, so the dump
        // succeeds and has something to show.
        run(&args(&["events", "--dir", coll.to_str().unwrap()])).unwrap();
        // And the journal itself is queryable through the same surface
        // the command prints.
        let collection = Collection::open_existing(&coll).unwrap();
        let events = collection.metrics().journal.recent();
        assert!(events.iter().any(|e| e.kind == "open"), "{events:?}");
        drop(collection);
        // A missing collection is a clean error, not a panic.
        assert!(run(&args(&[
            "events",
            "--dir",
            dir.join("nonexistent").to_str().unwrap()
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_scrub_is_clean_then_flags_torn_wal_and_corrupt_segment() {
        let dir = tmp_dir("verify");
        let data = dir.join("base.fvecs");
        let coll = dir.join("coll");
        run(&args(&[
            "generate",
            "--dataset",
            "sift",
            "--n",
            "300",
            "--queries",
            "2",
            "--out-data",
            data.to_str().unwrap(),
            "--out-queries",
            dir.join("q.fvecs").to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "ingest",
            "--dir",
            coll.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
            "--memtable",
            "100",
            "--seal",
        ]))
        .unwrap();

        // A healthy collection scrubs clean.
        run(&args(&["verify", "--dir", coll.to_str().unwrap()])).unwrap();

        // Garbage appended to the WAL is a torn tail — verify reports it
        // without repairing, so a second scrub still sees it.
        let wal = coll.join("wal.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0xFF; 5]);
        std::fs::write(&wal, &bytes).unwrap();
        for _ in 0..2 {
            let err = run(&args(&["verify", "--dir", coll.to_str().unwrap()])).unwrap_err();
            assert!(err.contains("torn tail"), "{err}");
        }
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();

        // An intact frame holding a NaN row is corruption, not a torn
        // tail: verify reports the WAL unreadable and names the frame.
        let (mut log, _) = Wal::open(&wal, 128).unwrap();
        let mut row = vec![1.0f32; 128];
        row[9] = f32::NAN;
        log.append_insert(300, &row).unwrap();
        drop(log);
        let err = run(&args(&["verify", "--dir", coll.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("wal is unreadable"), "{err}");
        assert!(err.contains("id 300"), "{err}");
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();

        // A flipped byte inside a sealed segment fails the checksum and
        // the error names the file.
        let victim = std::fs::read_dir(&coll)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".rbq"))
            })
            .expect("a sealed segment exists");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let err = run(&args(&["verify", "--dir", coll.to_str().unwrap()])).unwrap_err();
        let name = victim.file_name().unwrap().to_str().unwrap();
        assert!(err.contains(name), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_mentions_every_command() {
        // `run(&["help"])` prints the same banner `usage()` returns; the
        // unknown-command error embeds it too, so a stale listing fails
        // loudly here.
        run(&args(&["help"])).unwrap();
        let banner = usage();
        let err = run(&args(&["frobnicate"])).unwrap_err();
        for command in COMMANDS {
            assert!(banner.contains(command), "usage() omits {command:?}");
            assert!(err.contains(command), "error text omits {command:?}");
        }
    }

    #[test]
    fn id_list_parsing() {
        assert_eq!(parse_id_list("1,2,3").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_id_list("5..8,1").unwrap(), vec![5, 6, 7, 1]);
        assert!(parse_id_list("x").is_err());
        assert!(parse_id_list("3..x").is_err());
        assert!(parse_id_list("").unwrap().is_empty());
    }

    #[test]
    fn missing_flags_and_unknown_commands_error_cleanly() {
        assert!(run(&args(&["build"])).is_err());
        assert!(run(&args(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(run(&args(&[
            "generate",
            "--dataset",
            "nope",
            "--out-data",
            "x",
            "--out-queries",
            "y"
        ]))
        .is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let dir = tmp_dir("dims");
        let a = dir.join("a.fvecs");
        let b = dir.join("b.fvecs");
        io::write_fvecs(&a, &[0.0f32; 40], 8).unwrap();
        io::write_fvecs(&b, &[0.0f32; 40], 10).unwrap();
        let err = run(&args(&[
            "ground-truth",
            "--data",
            a.to_str().unwrap(),
            "--queries",
            b.to_str().unwrap(),
            "--k",
            "3",
            "--out",
            dir.join("gt.ivecs").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("D = 8"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_refuses_non_finite_rows_before_opening_the_collection() {
        let dir = tmp_dir("non-finite");
        let data = dir.join("bad.fvecs");
        let mut rows = vec![0.5f32; 40];
        rows[21] = f32::NAN;
        io::write_fvecs(&data, &rows, 8).unwrap();
        let coll = dir.join("coll");
        let err = run(&args(&[
            "ingest",
            "--dir",
            coll.to_str().unwrap(),
            "--data",
            data.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("row 2") && err.contains("non-finite"), "{err}");
        assert!(!coll.exists(), "the collection was created");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_quantizer_flags_are_refused_before_any_file_is_written() {
        let dir = tmp_dir("bad-quantizer");
        let data = dir.join("base.fvecs");
        let rows: Vec<f32> = (0..400).map(|i| (i % 37) as f32 * 0.25).collect();
        io::write_fvecs(&data, &rows, 8).unwrap();
        let out = dir.join("out");
        let bad = [
            ("--bq", "0", "B_q"),
            ("--bq", "9", "B_q"),
            ("--bq", "300", "B_q"),
            ("--epsilon0", "-5", "epsilon0"),
            ("--epsilon0", "NaN", "epsilon0"),
            ("--epsilon0", "inf", "epsilon0"),
        ];
        for command in ["build", "graph-build", "ingest"] {
            let target = if command == "ingest" {
                "--dir"
            } else {
                "--out"
            };
            for (flag, value, named) in bad {
                let err = run(&args(&[
                    command,
                    "--data",
                    data.to_str().unwrap(),
                    target,
                    out.to_str().unwrap(),
                    "--memtable",
                    "20",
                    flag,
                    value,
                ]))
                .expect_err(&format!("{command} {flag} {value} was accepted"));
                assert!(err.contains(named), "{command} {flag} {value}: {err}");
                assert!(!out.exists(), "{command} {flag} {value} wrote {out:?}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_index_builds_refuse_non_finite_rows() {
        let dir = tmp_dir("non-finite-build");
        let data = dir.join("bad.fvecs");
        let mut rows: Vec<f32> = (0..400).map(|i| (i % 37) as f32 * 0.25).collect();
        rows[21] = f32::NAN;
        io::write_fvecs(&data, &rows, 8).unwrap();
        let out = dir.join("index");
        for command in ["build", "graph-build"] {
            let err = run(&args(&[
                command,
                "--data",
                data.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ]))
            .expect_err(&format!("{command} took a NaN row"));
            assert!(err.contains("row 2") && err.contains("non-finite"), "{err}");
            assert!(!out.exists(), "{command} wrote an index");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
