//! **Figure 3** — time-accuracy trade-off of distance estimation.
//!
//! For each dataset, every method estimates the squared distance between
//! each query and *every* base vector, scanning buckets in IVF probe order
//! (the paper's cache-realistic protocol). Reported per method/code-length:
//! average time per vector (including query preparation, amortized), and
//! the average and maximum relative error — the two panels of Figure 3.
//!
//! Methods: RaBitQ-single (bitwise), RaBitQ-batch (fast scan), PQx8-single,
//! PQx4fs-batch, OPQx8-single, OPQx4fs-batch, LSQ-style AQx4fs-batch.
//! Code lengths sweep via zero-padding (RaBitQ) or segment count (PQ/OPQ).
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin fig3_distance_estimation -- \
//!     --datasets sift,msong,gist --n 10000 --queries 20
//! ```

use rabitq_aq::{AdditiveQuantizer, AqConfig};
use rabitq_bench::{Args, Table, Testbed};
use rabitq_core::{CodeSet, PackedCodes, QuantizedQuery, Rabitq, RabitqConfig};
use rabitq_data::registry::PaperDataset;
use rabitq_math::vecs;
use rabitq_metrics::{RelativeErrorStats, Stopwatch};
use rabitq_pq::{Opq, OpqConfig, PqCodes, PqConfig, PqPacked, ProductQuantizer, QuantizedLuts};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n = args.usize("n", 10_000);
    let queries = args.usize("queries", 20);
    let seed = args.u64("seed", 42);
    let aq_sample = args.usize("aq-sample", 3_000);
    let datasets = args.datasets(&[PaperDataset::Sift, PaperDataset::Msong, PaperDataset::Gist]);

    println!("# Figure 3: time-accuracy trade-off for distance estimation");
    println!("# n = {n}, queries = {queries}, seed = {seed}\n");

    for dataset in datasets {
        // Match the paper's per-bucket workload (1M vectors / 4096 buckets
        // ≈ 256 per bucket) rather than its absolute bucket count.
        let clusters = args.usize("clusters", (n / 256).max(16));
        let tb = Testbed::paper(dataset, n, queries, clusters, seed);
        let dim = tb.ds.dim;
        println!("## {} (D = {dim}, {} buckets)", tb.ds.name, tb.coarse.k());

        // Exact distances per query (reference for the error metrics).
        let exact: Vec<Vec<f32>> = (0..queries)
            .map(|qi| tb.exact_distances(tb.ds.query(qi)))
            .collect();

        let mut table = Table::new(&["method", "bits/vec", "ns/vec", "avg-rel-err", "max-rel-err"]);

        // --- RaBitQ at 1× and 2× code length, single and batch. ---
        for pad in [1usize, 2] {
            let padded = (dim * pad).div_ceil(64) * 64;
            let (codes, quantizer) = build_rabitq(&tb, padded, seed);
            for single in [true, false] {
                let (sw, err) = eval_rabitq(&tb, &quantizer, &codes, &exact, single, seed);
                table.row(&[
                    format!("RaBitQ-{}", if single { "single" } else { "batch" }),
                    padded.to_string(),
                    format!("{:.1}", sw.nanos_per((queries * n) as u64)),
                    format!("{:.3}%", err.average() * 100.0),
                    format!("{:.2}%", err.maximum() * 100.0),
                ]);
            }
        }

        // --- PQ / OPQ at D-bit and 2D-bit budgets. ---
        // k=8: bits = 8M → M targets D/8, D/4. k=4: bits = 4M → D/4, D/2.
        for (k_bits, m_div) in [(8u8, 8usize), (8, 4), (4, 4), (4, 2)] {
            let m = largest_divisor_at_most(dim, dim / m_div);
            let bits = m * k_bits as usize;
            for use_opq in [false, true] {
                let label = format!(
                    "{}x{}{}",
                    if use_opq { "OPQ" } else { "PQ" },
                    k_bits,
                    if k_bits == 4 { "fs-batch" } else { "-single" }
                );
                let (sw, err) = eval_pq(&tb, m, k_bits, use_opq, &exact, seed);
                table.row(&[
                    label,
                    bits.to_string(),
                    format!("{:.1}", sw.nanos_per((queries * n) as u64)),
                    format!("{:.3}%", err.average() * 100.0),
                    format!("{:.2}%", err.maximum() * 100.0),
                ]);
            }
        }

        // --- LSQ-style AQ (4-bit fast scan), on a subsample: its ICM
        // encoder is the paper's ">24h on GIST" method. ---
        let aq_n = aq_sample.min(n);
        let m_aq = dim / 4; // bits ≈ D, matching RaBitQ's budget
        let (sw, err) = eval_aq(&tb, m_aq, aq_n, &exact, seed);
        table.row(&[
            format!("LSQ(AQ)x4fs-batch [first {aq_n}]"),
            (4 * m_aq).to_string(),
            format!("{:.1}", sw.nanos_per((queries * aq_n) as u64)),
            format!("{:.3}%", err.average() * 100.0),
            format!("{:.2}%", err.maximum() * 100.0),
        ]);

        table.print();
        println!();
    }
}

/// Largest divisor of `dim` that is ≤ `target` (PQ requires M | D).
fn largest_divisor_at_most(dim: usize, target: usize) -> usize {
    (1..=target.max(1))
        .rev()
        .find(|m| dim.is_multiple_of(*m))
        .unwrap_or(1)
}

struct RabitqIndex {
    buckets: Vec<(CodeSet, PackedCodes)>,
    rotated_centroids: Vec<f32>,
}

fn build_rabitq(tb: &Testbed, padded: usize, seed: u64) -> (RabitqIndex, Rabitq) {
    let dim = tb.ds.dim;
    let cfg = RabitqConfig {
        padded_dim: Some(padded),
        seed,
        ..RabitqConfig::default()
    };
    let quantizer = Rabitq::new(dim, cfg);
    let mut rotated_centroids = vec![0.0f32; tb.coarse.k() * padded];
    for c in 0..tb.coarse.k() {
        rotated_centroids[c * padded..(c + 1) * padded]
            .copy_from_slice(&quantizer.rotate(tb.coarse.centroid(c)));
    }
    let buckets = tb
        .buckets
        .iter()
        .enumerate()
        .map(|(c, ids)| {
            let mut set = quantizer.new_code_set();
            for &id in ids {
                quantizer.encode_into(tb.ds.vector(id as usize), tb.coarse.centroid(c), &mut set);
            }
            let packed = quantizer.pack(&set);
            (set, packed)
        })
        .collect();
    (
        RabitqIndex {
            buckets,
            rotated_centroids,
        },
        quantizer,
    )
}

fn eval_rabitq(
    tb: &Testbed,
    quantizer: &Rabitq,
    index: &RabitqIndex,
    exact: &[Vec<f32>],
    single: bool,
    seed: u64,
) -> (Stopwatch, RelativeErrorStats) {
    let padded = quantizer.padded_dim();
    let bq = quantizer.config().bq;
    let n = tb.ds.n();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF163);
    let mut residual = vec![0.0f32; padded];
    let mut est_buf = vec![0.0f32; n];
    let mut batch = Vec::new();
    let mut sw = Stopwatch::new();
    let mut err = RelativeErrorStats::new();
    for (qi, exact_row) in exact.iter().enumerate().take(tb.ds.n_queries()) {
        let query = tb.ds.query(qi);
        let order = tb.probe_order(query);
        sw.start();
        let rotated_q = quantizer.rotate(query);
        for &c in &order {
            let ids = &tb.buckets[c];
            if ids.is_empty() {
                continue;
            }
            let rc = &index.rotated_centroids[c * padded..(c + 1) * padded];
            vecs::sub(&rotated_q, rc, &mut residual);
            let prepared = QuantizedQuery::from_rotated_residual(&residual, bq, &mut rng);
            let (set, packed) = &index.buckets[c];
            if single {
                for (slot, &id) in ids.iter().enumerate() {
                    est_buf[id as usize] = quantizer.estimate(&prepared, set, slot).dist_sq;
                }
            } else {
                quantizer.estimate_batch(&prepared, packed, set, &mut batch);
                for (e, &id) in batch.iter().zip(ids.iter()) {
                    est_buf[id as usize] = e.dist_sq;
                }
            }
        }
        std::hint::black_box(&est_buf);
        sw.stop();
        for (i, &e) in est_buf.iter().enumerate() {
            err.record(e, exact_row[i]);
        }
    }
    (sw, err)
}

fn eval_pq(
    tb: &Testbed,
    m: usize,
    k_bits: u8,
    use_opq: bool,
    exact: &[Vec<f32>],
    seed: u64,
) -> (Stopwatch, RelativeErrorStats) {
    let dim = tb.ds.dim;
    let n = tb.ds.n();
    let pq_cfg = PqConfig {
        m,
        k_bits,
        train_iters: 10,
        training_sample: Some(10_000),
        seed,
    };
    // Train on residuals; encode residuals per bucket.
    enum Q {
        Pq(ProductQuantizer),
        Opq(Opq),
    }
    let quantizer = if use_opq {
        let mut ocfg = OpqConfig::new(pq_cfg.clone());
        ocfg.outer_iters = 3;
        ocfg.procrustes_sample = 8_000;
        Q::Opq(Opq::train(&tb.residuals, dim, &ocfg))
    } else {
        Q::Pq(ProductQuantizer::train(&tb.residuals, dim, &pq_cfg))
    };
    let inner = match &quantizer {
        Q::Pq(p) => p,
        Q::Opq(o) => o.pq(),
    };
    // Pre-rotate centroids for the OPQ rotate-once path.
    let rotated_centroids: Vec<f32> = match &quantizer {
        Q::Pq(_) => Vec::new(),
        Q::Opq(o) => {
            let mut out = vec![0.0f32; tb.coarse.k() * dim];
            for c in 0..tb.coarse.k() {
                out[c * dim..(c + 1) * dim].copy_from_slice(&o.rotate(tb.coarse.centroid(c)));
            }
            out
        }
    };
    // Encode per bucket (rotating residuals for OPQ).
    let buckets: Vec<(PqCodes, Option<PqPacked>)> = tb
        .buckets
        .iter()
        .map(|ids| {
            let mut codes = PqCodes {
                m,
                codes: Vec::new(),
            };
            for &id in ids {
                match &quantizer {
                    Q::Pq(p) => p.encode(tb.residual(id), &mut codes.codes),
                    Q::Opq(o) => o.encode(tb.residual(id), &mut codes.codes),
                }
            }
            let packed = (k_bits == 4).then(|| PqPacked::pack(&codes));
            (codes, packed)
        })
        .collect();

    let mut est_buf = vec![0.0f32; n];
    let mut fast = Vec::new();
    let mut residual_q = vec![0.0f32; dim];
    let mut sw = Stopwatch::new();
    let mut err = RelativeErrorStats::new();
    for (qi, exact_row) in exact.iter().enumerate().take(tb.ds.n_queries()) {
        let query = tb.ds.query(qi);
        let order = tb.probe_order(query);
        sw.start();
        // OPQ: rotate the query once.
        let rotated_q: Vec<f32> = match &quantizer {
            Q::Pq(_) => Vec::new(),
            Q::Opq(o) => o.rotate(query),
        };
        for &c in &order {
            let ids = &tb.buckets[c];
            if ids.is_empty() {
                continue;
            }
            // LUTs on the (rotated) residual query.
            let luts = match &quantizer {
                Q::Pq(p) => {
                    vecs::sub(query, tb.coarse.centroid(c), &mut residual_q);
                    p.build_luts(&residual_q)
                }
                Q::Opq(_) => {
                    let rc = &rotated_centroids[c * dim..(c + 1) * dim];
                    vecs::sub(&rotated_q, rc, &mut residual_q);
                    inner.build_luts(&residual_q)
                }
            };
            let (codes, packed) = &buckets[c];
            if k_bits == 4 {
                let qluts = QuantizedLuts::from_f32_luts(&luts, m, 16);
                packed
                    .as_ref()
                    .expect("packed codes exist for k=4")
                    .scan_all(&qluts, &mut fast);
                for (&e, &id) in fast.iter().zip(ids.iter()) {
                    est_buf[id as usize] = e;
                }
            } else {
                for (slot, &id) in ids.iter().enumerate() {
                    est_buf[id as usize] = inner.adc_distance(&luts, codes.code(slot));
                }
            }
        }
        std::hint::black_box(&est_buf);
        sw.stop();
        for (i, &e) in est_buf.iter().enumerate() {
            err.record(e, exact_row[i]);
        }
    }
    (sw, err)
}

fn eval_aq(
    tb: &Testbed,
    m: usize,
    aq_n: usize,
    exact: &[Vec<f32>],
    seed: u64,
) -> (Stopwatch, RelativeErrorStats) {
    let dim = tb.ds.dim;
    let cfg = AqConfig {
        m,
        k_bits: 4,
        refine_iters: 1,
        icm_passes: 1,
        kmeans_iters: 8,
        training_sample: Some(2_000.min(aq_n)),
        seed,
    };
    let aq = AdditiveQuantizer::train(&tb.ds.data[..aq_n * dim], dim, &cfg);
    let codes = aq.encode_set(tb.ds.data[..aq_n * dim].chunks_exact(dim));
    let packed = PqPacked::pack(&codes.codes);

    let mut est = Vec::new();
    let mut sw = Stopwatch::new();
    let mut err = RelativeErrorStats::new();
    for (qi, exact_row) in exact.iter().enumerate().take(tb.ds.n_queries()) {
        let query = tb.ds.query(qi);
        sw.start();
        aq.fastscan_distances(query, &packed, &codes, &mut est);
        std::hint::black_box(&est);
        sw.stop();
        for (i, &e) in est.iter().enumerate() {
            err.record(e, exact_row[i]);
        }
    }
    (sw, err)
}
