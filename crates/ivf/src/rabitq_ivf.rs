//! IVF + RaBitQ — the in-memory ANN index of Section 4.
//!
//! **Index phase**: KMeans buckets the raw vectors; within each bucket the
//! vectors are normalized against the bucket centroid and RaBitQ-encoded;
//! codes are additionally packed for the batch fast-scan kernel. Each code
//! also gets a centre offset `g = ⟨x̄, P⁻¹(c − μ)⟩` about the index's
//! centre `μ`.
//!
//! Nothing derivable is persisted (see [`IvfRabitq::write`]): the rotated
//! centroids `P⁻¹c`, the popcounts, the fast-scan packing, the offsets `g`
//! and the coarse probe's screen are all rebuilt at load.
//!
//! ## One query path
//!
//! A search builds one query plan and scans with it. The plan rotates
//! the centred query `w = P⁻¹(q − μ)` **once**, quantizes it **once** (at
//! [`Rabitq::plan_bq`] bits) and builds **one** fast-scan LUT; every
//! probed bucket is then estimated from that LUT, its coarse-probe
//! distance `‖q − c‖` and its codes' offsets `g` (see
//! [`rabitq_core::estimator`]), with no per-bucket rotation, quantization
//! or LUT. Candidates are re-ranked by the paper's error-bound rule into
//! the plan's **one** top-K: a candidate's exact distance is computed iff
//! its distance lower bound beats the current K-th best exact distance.
//! With `ε₀ = 1.9` the true nearest neighbors of the probed buckets reach
//! re-ranking with near-certainty — no tuning parameter exists.
//!
//! A single index is a one-index collection: [`IvfRabitq::search_into`] is
//! [`SearchScratch::begin`], [`IvfRabitq::plan_into`],
//! [`IvfRabitq::scan_planned`] and [`SearchScratch::finish`]. The
//! collection engine (`rabitq-store`) runs the same four steps with one
//! plan over all of its segments, which share one rotation and one
//! centre, so the first segment's results already tighten the bound for
//! the rest.

use crate::cancel::CancelToken;
use crate::common::{IvfConfig, RerankStrategy, SearchResult};
use rabitq_core::{CodeSet, DistanceEstimate, PackedCodes, QueryScratch, Rabitq, RabitqConfig};
use rabitq_kmeans::{train as kmeans_train, KMeans, KMeansConfig};
use rabitq_math::topk::TopK;
use rabitq_math::{pool, vecs};
use rabitq_metrics::{Stage, StageNanos};
use rand::Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Section tag written by [`IvfRabitq::write`].
const SECTION: &str = "ivf-rabitq-v3";

/// The previous format, still read: it also persisted the rotated
/// centroids and each bucket's code popcounts, which v3 derives at load.
const SECTION_V2: &str = "ivf-rabitq-v2";

/// One IVF bucket: original vector ids plus their RaBitQ codes.
struct Bucket {
    ids: Vec<u32>,
    codes: CodeSet,
    packed: PackedCodes,
    /// Centre offset `g = ⟨x̄, P⁻¹(c − μ)⟩` per code; derived from the
    /// index's centre, never persisted.
    offsets: Vec<f32>,
}

/// The IVF-RaBitQ index.
pub struct IvfRabitq {
    dim: usize,
    quantizer: Rabitq,
    coarse: KMeans,
    /// `μ`, the centre every query plan quantizes about: the
    /// size-weighted mean of the centroids, or the collection's centre.
    centre: Vec<f32>,
    buckets: Vec<Bucket>,
    /// Owned copy of the raw vectors for exact re-ranking.
    data: Vec<f32>,
    /// Tombstone bitmap, one bit per id. Deleted ids stay encoded in their
    /// buckets (so the fast-scan pack is untouched) but are skipped by every
    /// search path; compaction (in `rabitq-store`) reclaims the space.
    ///
    /// The words are atomic so [`IvfRabitq::remove`] takes `&self`: a
    /// sealed segment shared behind an `Arc` can tombstone rows while
    /// concurrent readers search it. Setting a bit is monotonic, so a racy
    /// read just sees the state a moment earlier or later — both valid.
    deleted: Vec<AtomicU64>,
    /// Number of set bits in `deleted`.
    n_deleted: AtomicUsize,
}

/// One query's preparation, built once and read by every index the query
/// scans: the centred query `q − μ`, its one rotation `w = P⁻¹(q − μ)`,
/// and `w` quantized with its one fast-scan LUT.
struct QueryPlan {
    centred: Vec<f32>,
    rotated: Vec<f32>,
    query: QueryScratch,
}

/// Reusable per-thread buffers for [`IvfRabitq::search_into`]: the query
/// plan, the one top-K every scan pushes into, and every other buffer the
/// query path would otherwise allocate per call (or worse, per probed
/// bucket) live here and are overwritten in place. One scratch serves one
/// search thread; at steady state (after the buffers have grown to the
/// workload's shape) a search performs **zero heap allocations**.
pub struct SearchScratch {
    /// The current query's plan (see [`IvfRabitq::plan_into`]).
    plan: QueryPlan,
    /// The plan's one threshold: every scan of the query pushes into it.
    top: TopK,
    /// The `nprobe` nearest coarse centroids of the index being scanned,
    /// with their squared distances from the query.
    probes: Vec<(usize, f32)>,
    /// Per-bucket batch estimates.
    estimates: Vec<DistanceEstimate>,
    /// Candidate pool for [`RerankStrategy::TopCandidates`].
    pool: Vec<(u32, f32)>,
    /// Neighbors of the most recent finished query: `(id, squared
    /// distance)` ascending, same contract as [`SearchResult::neighbors`].
    /// Public so engine layers (e.g. segment id remapping in
    /// `rabitq-store`) can rewrite ids in place.
    pub neighbors: Vec<(u32, f32)>,
    /// Stage breakdown of the current (or most recent) query, plan and
    /// every scan together (`Copy`, fixed-size — no allocation).
    pub stages: StageNanos,
}

impl SearchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            plan: QueryPlan {
                centred: Vec::new(),
                rotated: Vec::new(),
                query: QueryScratch::new(),
            },
            top: TopK::new(0),
            probes: Vec::new(),
            estimates: Vec::new(),
            pool: Vec::new(),
            neighbors: Vec::new(),
            stages: StageNanos::new(),
        }
    }

    /// Starts a query for `k` neighbors: clears the stage trace and the
    /// previous neighbors and arms the one top-K.
    pub fn begin(&mut self, k: usize) {
        self.neighbors.clear();
        self.stages.clear();
        self.top.reset(k);
    }

    /// The query's top-K, for candidates found outside an index (e.g. a
    /// collection's unsealed rows) — pushed before or between scans, they
    /// tighten the bound for every later bucket.
    pub fn top_mut(&mut self) -> &mut TopK {
        &mut self.top
    }

    /// Ends the query: drains the top-K, ascending, into `out`, charged
    /// to [`Stage::Merge`]. The top-K keeps its storage for the next
    /// query.
    pub fn finish_into(&mut self, out: &mut Vec<(u32, f32)>) {
        let t = Instant::now();
        self.top.drain_sorted_into(out);
        lap(&mut self.stages, Stage::Merge, t);
    }

    /// [`SearchScratch::finish_into`] into [`SearchScratch::neighbors`].
    pub fn finish(&mut self) {
        let mut neighbors = std::mem::take(&mut self.neighbors);
        self.finish_into(&mut neighbors);
        self.neighbors = neighbors;
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Closes one traced stage: charges the time since `since` to `stage` and
/// returns the boundary instant for the next stage. Two clock reads per
/// stage transition, nothing else — the only cost tracing adds to the hot
/// path.
#[inline]
fn lap(stages: &mut StageNanos, stage: Stage, since: Instant) -> Instant {
    let now = Instant::now();
    stages.add_ns(
        stage,
        now.duration_since(since)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64,
    );
    now
}

/// `Σ w·c / Σ w` over `(centroid, weight)` pairs, accumulated in `f64` in
/// the given order (deterministic); zeros when every weight is 0.
fn weighted_mean<'a>(dim: usize, parts: impl IntoIterator<Item = (&'a [f32], usize)>) -> Vec<f32> {
    let mut sum = vec![0.0f64; dim];
    let mut total = 0usize;
    for (centroid, weight) in parts {
        for (s, &v) in sum.iter_mut().zip(centroid) {
            *s += v as f64 * weight as f64;
        }
        total += weight;
    }
    let inv = if total == 0 { 0.0 } else { 1.0 / total as f64 };
    sum.into_iter().map(|s| (s * inv) as f32).collect()
}

/// The centre offsets `g = ⟨x̄, P⁻¹(c − μ)⟩` of `codes`, encoded about
/// `centroid`, into `out`, given `rotated_centre = P⁻¹μ`. `P⁻¹c` is one
/// rotation by the quantizer, derived here rather than kept, so a built
/// and a loaded index take the same offsets.
fn centre_offsets(
    quantizer: &Rabitq,
    centroid: &[f32],
    rotated_centre: &[f32],
    codes: &CodeSet,
    out: &mut Vec<f32>,
) {
    let mut offset = quantizer.rotate(centroid);
    vecs::sub_assign(&mut offset, rotated_centre);
    codes.centre_offsets(&offset, out);
}

impl IvfRabitq {
    /// Builds the index over a flat `n × dim` buffer, centred on the
    /// size-weighted mean of its own centroids.
    pub fn build(data: &[f32], dim: usize, ivf: &IvfConfig, rabitq: RabitqConfig) -> Self {
        Self::build_centred(data, dim, ivf, rabitq, None)
    }

    /// [`IvfRabitq::build`] about a given centre `μ` (`None` = the
    /// size-weighted mean of the index's own centroids). A collection
    /// passes its one centre so that every segment scans under one plan;
    /// the offsets are computed inside the encode pass.
    ///
    /// # Panics
    /// Panics if `centre` is not `dim` long, or if `rabitq` fails
    /// [`RabitqConfig::validate`] (see [`Rabitq::new`]).
    pub fn build_centred(
        data: &[f32],
        dim: usize,
        ivf: &IvfConfig,
        rabitq: RabitqConfig,
        centre: Option<&[f32]>,
    ) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "data shape");
        let n = data.len() / dim;
        assert!(n > 0, "cannot index an empty dataset");
        let quantizer = Rabitq::new(dim, rabitq);

        let mut km_cfg = KMeansConfig::new(ivf.n_clusters.min(n));
        km_cfg.max_iters = ivf.kmeans_iters;
        km_cfg.seed = ivf.seed;
        km_cfg.training_sample = ivf.kmeans_sample;
        km_cfg.threads = ivf.threads;
        let coarse = kmeans_train(data, dim, &km_cfg);

        // Assign and encode per bucket. Encoding dominates the build (one
        // rotation per vector), so buckets are fanned out over the shared
        // pool.
        let assignment = coarse.assign_all(data, ivf.threads);
        let mut ids_per_bucket: Vec<Vec<u32>> = vec![Vec::new(); coarse.k()];
        for (i, &c) in assignment.iter().enumerate() {
            ids_per_bucket[c as usize].push(i as u32);
        }
        let centre = match centre {
            Some(centre) => {
                assert_eq!(centre.len(), dim, "centre dimensionality");
                centre.to_vec()
            }
            None => weighted_mean(
                dim,
                ids_per_bucket
                    .iter()
                    .enumerate()
                    .map(|(c, ids)| (coarse.centroid(c), ids.len())),
            ),
        };
        let rotated_centre = quantizer.rotate(&centre);
        let encoded = pool::map(coarse.k(), ivf.threads, |c| {
            let centroid = coarse.centroid(c);
            let mut codes = quantizer.new_code_set();
            for &id in &ids_per_bucket[c] {
                quantizer.encode_into(
                    &data[id as usize * dim..(id as usize + 1) * dim],
                    centroid,
                    &mut codes,
                );
            }
            let packed = quantizer.pack(&codes);
            let mut offsets = Vec::new();
            centre_offsets(&quantizer, centroid, &rotated_centre, &codes, &mut offsets);
            (codes, packed, offsets)
        });
        let buckets = ids_per_bucket
            .into_iter()
            .zip(encoded)
            .map(|(ids, (codes, packed, offsets))| Bucket {
                ids,
                codes,
                packed,
                offsets,
            })
            .collect();

        Self {
            dim,
            quantizer,
            coarse,
            centre,
            buckets,
            data: data.to_vec(),
            deleted: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            n_deleted: AtomicUsize::new(0),
        }
    }

    /// The size-weighted mean of the centroids of `indexes` (weights:
    /// bucket sizes, tombstoned rows included) — the centre a standalone
    /// index takes, and the one a collection derives from its segments
    /// when its metadata records none.
    pub fn centroid_mean<'a>(
        dim: usize,
        indexes: impl IntoIterator<Item = &'a IvfRabitq>,
    ) -> Vec<f32> {
        weighted_mean(
            dim,
            indexes.into_iter().flat_map(|index| {
                index
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(c, b)| (index.coarse.centroid(c), b.ids.len()))
            }),
        )
    }

    /// Re-centres the index on `centre`: recomputes every code's offset
    /// (O(n·B) plus one rotation per centroid and one of the centre).
    /// Codes, ids and answers' exact distances are untouched; only the
    /// plan's quantization changes.
    ///
    /// # Panics
    /// Panics if `centre` is not `dim` long.
    pub fn recentre(&mut self, centre: &[f32]) {
        assert_eq!(centre.len(), self.dim, "centre dimensionality");
        let rotated_centre = self.quantizer.rotate(centre);
        for (c, bucket) in self.buckets.iter_mut().enumerate() {
            centre_offsets(
                &self.quantizer,
                self.coarse.centroid(c),
                &rotated_centre,
                &bucket.codes,
                &mut bucket.offsets,
            );
        }
        self.centre.clear();
        self.centre.extend_from_slice(centre);
    }

    /// The centre `μ` every query plan of this index quantizes about.
    pub fn centre(&self) -> &[f32] {
        &self.centre
    }

    /// Number of indexed vector slots, live and tombstoned alike. Ids are
    /// never reused, so this is also one past the largest assigned id.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of live (non-tombstoned) vectors.
    #[inline]
    pub fn n_live(&self) -> usize {
        self.len() - self.n_deleted()
    }

    /// Number of tombstoned vectors.
    #[inline]
    fn n_deleted(&self) -> usize {
        self.n_deleted.load(Ordering::Relaxed)
    }

    /// Whether `id` is tombstoned. Ids past the end count as deleted so
    /// callers can treat "never existed" and "removed" uniformly.
    #[inline]
    pub fn is_deleted(&self, id: u32) -> bool {
        let idx = id as usize;
        if idx >= self.len() {
            return true;
        }
        self.deleted[idx / 64].load(Ordering::Relaxed) >> (idx % 64) & 1 == 1
    }

    /// Tombstones one vector. Its code stays in place (the fast-scan pack
    /// is untouched) but every search path skips it from now on; the space
    /// is reclaimed when the index is rebuilt (e.g. by `rabitq-store`
    /// compaction). Returns `false` if the id is out of range or already
    /// tombstoned.
    ///
    /// Takes `&self`: the bitmap is atomic, so an index shared behind an
    /// `Arc` (a sealed `rabitq-store` segment) can be tombstoned while
    /// other threads search it.
    pub fn remove(&self, id: u32) -> bool {
        let idx = id as usize;
        if idx >= self.len() {
            return false;
        }
        let mask = 1u64 << (idx % 64);
        let prev = self.deleted[idx / 64].fetch_or(mask, Ordering::Relaxed);
        if prev & mask != 0 {
            return false; // already tombstoned (possibly by a racing caller)
        }
        self.n_deleted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The raw vector stored under `id` (tombstoned or not).
    #[inline]
    pub fn vector(&self, id: u32) -> &[f32] {
        let base = id as usize * self.dim;
        &self.data[base..base + self.dim]
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying quantizer (exposed for experiments).
    #[inline]
    pub fn quantizer(&self) -> &Rabitq {
        &self.quantizer
    }

    /// Number of buckets.
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Bucket `c` as the search loop sees it: its raw centroid, the ids it
    /// holds (tombstoned ones included), their codes and their centre
    /// offsets, in step. Read-only — for checks that recompute estimates
    /// outside the index, such as the collection-level statistical tests.
    pub fn bucket(&self, c: usize) -> (&[f32], &[u32], &CodeSet, &[f32]) {
        let bucket = &self.buckets[c];
        (
            self.coarse.centroid(c),
            &bucket.ids,
            &bucket.codes,
            &bucket.offsets,
        )
    }

    /// Searches with the paper's error-bound re-ranking.
    pub fn search<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rng: &mut R,
    ) -> SearchResult {
        self.search_with(query, k, nprobe, RerankStrategy::ErrorBound, rng)
    }

    /// Searches with an explicit re-ranking strategy (used by the Figure 10
    /// ablation and the baseline comparisons).
    ///
    /// Thin wrapper over [`IvfRabitq::search_into`] with a throwaway
    /// [`SearchScratch`]. Serving layers that care about the allocator
    /// (e.g. `rabitq-store`) hold a scratch per thread instead.
    pub fn search_with<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        strategy: RerankStrategy,
        rng: &mut R,
    ) -> SearchResult {
        let mut scratch = SearchScratch::new();
        let (n_estimated, n_reranked) =
            self.search_into(query, k, nprobe, strategy, &mut scratch, rng);
        SearchResult {
            neighbors: std::mem::take(&mut scratch.neighbors),
            n_estimated,
            n_reranked,
            stages: scratch.stages,
        }
    }

    /// The allocation-free search core. Results land in
    /// [`SearchScratch::neighbors`] (`(id, squared distance)` ascending —
    /// the [`SearchResult`] contract); the return value is
    /// `(n_estimated, n_reranked)`. Once `scratch` has warmed up (its
    /// buffers reached the workload's shape), the steady-state query path
    /// performs **zero heap allocations** — verified by the
    /// counting-allocator test in `tests/alloc_free.rs`.
    ///
    /// The four steps of a one-index collection, never cancelled; a caller
    /// with a [`CancelToken`] runs [`SearchScratch::begin`],
    /// [`IvfRabitq::plan_into`], [`IvfRabitq::scan_planned`] and
    /// [`SearchScratch::finish`] itself.
    pub fn search_into<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        strategy: RerankStrategy,
        scratch: &mut SearchScratch,
        rng: &mut R,
    ) -> (usize, usize) {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        scratch.begin(k);
        if self.is_empty() || k == 0 {
            return (0, 0);
        }
        self.plan_into(query, scratch, rng);
        let never = CancelToken::none();
        let counts = self
            .scan_planned(query, nprobe, strategy, scratch, |id| id, &never)
            .expect("a never-cancelling token cannot cancel");
        scratch.finish();
        counts
    }

    /// Builds the query plan for `query` into `scratch`: `q − μ`, its one
    /// rotation (charged to [`Stage::Rotate`]), and its one quantization
    /// and LUT (charged to [`Stage::LutBuild`]). Any index sharing this
    /// index's rotation and centre can then scan under the plan.
    pub fn plan_into<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        scratch: &mut SearchScratch,
        rng: &mut R,
    ) {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        let plan = &mut scratch.plan;
        let t = Instant::now();
        plan.centred.resize(self.dim, 0.0);
        vecs::sub(query, &self.centre, &mut plan.centred);
        self.quantizer.rotate_into(&plan.centred, &mut plan.rotated);
        let t = lap(&mut scratch.stages, Stage::Rotate, t);
        self.quantizer
            .prepare_centred_into(&plan.rotated, &mut plan.query, rng);
        lap(&mut scratch.stages, Stage::LutBuild, t);
    }

    /// Scans this index under the plan in `scratch` (built by
    /// [`IvfRabitq::plan_into`] on an index with the same rotation and
    /// centre): probes the `nprobe` nearest buckets (charged to
    /// [`Stage::Rotate`]) through the coarse quantizer's exact screen
    /// ([`KMeans::assign_top_n_into`]: an integer pass over 7-bit centroid
    /// codes, then float distances only where the bound cannot rule a
    /// centroid out; the buckets and distances are the full scan's),
    /// estimates their codes from the plan's one LUT
    /// and re-ranks by `strategy` into the plan's one top-K, pushing each
    /// row as `remap(local id)`. Returns `(n_estimated, n_reranked)`, or
    /// `None` when `cancel` fired at a bucket boundary (the top-K then
    /// holds partial results the caller must discard).
    ///
    /// # Panics
    /// Panics if the plan was built for another code length.
    pub fn scan_planned(
        &self,
        query: &[f32],
        nprobe: usize,
        strategy: RerankStrategy,
        scratch: &mut SearchScratch,
        remap: impl Fn(u32) -> u32,
        cancel: &CancelToken,
    ) -> Option<(usize, usize)> {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        let SearchScratch {
            plan,
            top,
            probes,
            estimates,
            pool,
            stages,
            ..
        } = scratch;
        assert_eq!(
            plan.rotated.len(),
            self.quantizer.padded_dim(),
            "query plan built for another code length"
        );
        if self.is_empty() {
            return Some((0, 0));
        }
        let mut t = Instant::now();
        self.coarse.assign_top_n_into(query, nprobe.max(1), probes);
        t = lap(stages, Stage::Rotate, t);

        let mut n_estimated = 0usize;
        let mut n_reranked = 0usize;
        let epsilon0 = match strategy {
            RerankStrategy::ErrorBoundWithEpsilon(e) => e,
            _ => self.quantizer.config().epsilon0,
        };
        pool.clear();

        // Algorithm 2 over the shared plan: estimate every code of a
        // probed bucket from the one LUT; the strategy only decides what
        // happens to the estimates.
        for &(c, centroid_dist_sq) in probes.iter() {
            if cancel.is_cancelled() {
                return None;
            }
            let bucket = &self.buckets[c];
            if bucket.ids.is_empty() {
                continue;
            }
            self.quantizer.estimate_batch_centred(
                &plan.query,
                centroid_dist_sq,
                &bucket.packed,
                &bucket.codes,
                &bucket.offsets,
                epsilon0,
                estimates,
            );
            n_estimated += estimates.len();
            let live = estimates
                .iter()
                .zip(bucket.ids.iter())
                .filter(|&(_, &id)| !self.is_deleted(id));
            match strategy {
                RerankStrategy::ErrorBound | RerankStrategy::ErrorBoundWithEpsilon(_) => {
                    t = lap(stages, Stage::Scan, t);
                    for (est, &id) in live {
                        // The paper's rule: drop iff lower bound exceeds the
                        // current K-th best exact distance.
                        if est.lower_bound < top.threshold() {
                            let exact = self.exact_distance(id, query);
                            n_reranked += 1;
                            top.push(remap(id), exact);
                        }
                    }
                    t = lap(stages, Stage::Rerank, t);
                }
                RerankStrategy::TopCandidates(_) => {
                    pool.extend(live.map(|(est, &id)| (id, est.dist_sq)));
                    t = lap(stages, Stage::Scan, t);
                }
                RerankStrategy::None => {
                    for (est, &id) in live {
                        top.push(remap(id), est.dist_sq);
                    }
                    t = lap(stages, Stage::Scan, t);
                }
            }
        }
        if let RerankStrategy::TopCandidates(rerank_n) = strategy {
            let take = rerank_n.max(top.k()).min(pool.len());
            if take > 0 {
                pool.select_nth_unstable_by(take - 1, |a, b| a.1.total_cmp(&b.1));
                pool.truncate(take);
            }
            for &(id, _) in pool.iter() {
                let exact = self.exact_distance(id, query);
                n_reranked += 1;
                top.push(remap(id), exact);
            }
            lap(stages, Stage::Rerank, t);
        }
        Some((n_estimated, n_reranked))
    }

    #[inline]
    fn exact_distance(&self, id: u32, query: &[f32]) -> f32 {
        let base = id as usize * self.dim;
        vecs::l2_sq(&self.data[base..base + self.dim], query)
    }

    /// Saves the index to a file (see [`IvfRabitq::write`]).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.write(&mut w)?;
        use std::io::Write;
        w.flush()
    }

    /// Serializes the index to any writer, as `ivf-rabitq-v3`:
    ///
    /// 1. the dimension and the quantizer (with its sampled rotation);
    /// 2. the coarse centroids;
    /// 3. every bucket's ids and codes (bits, `‖o_r − c‖`, `⟨ō, o⟩`);
    /// 4. the raw vectors (needed for exact re-ranking);
    /// 5. the tombstone bitmap.
    ///
    /// The read derives everything else (see the module docs).
    pub fn write<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use rabitq_core::persist as p;
        p::write_header(w, SECTION)?;
        p::write_usize(w, self.dim)?;
        self.quantizer.write(w)?;
        p::write_f32_slice(w, self.coarse.centroids())?;
        p::write_usize(w, self.buckets.len())?;
        for bucket in &self.buckets {
            p::write_u32_slice(w, &bucket.ids)?;
            bucket.codes.write(w)?;
        }
        p::write_f32_slice(w, &self.data)?;
        let deleted: Vec<u64> = self
            .deleted
            .iter()
            .map(|word| word.load(Ordering::Relaxed))
            .collect();
        p::write_u64_slice(w, &deleted)?;
        Ok(())
    }

    /// Loads an index written by [`IvfRabitq::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let mut r = std::io::BufReader::new(file);
        Self::read(&mut r)
    }

    /// Deserializes an index written by [`IvfRabitq::write`] (or by the
    /// `ivf-rabitq-v2` writer before it), centred on the size-weighted
    /// mean of its centroids (the centre [`IvfRabitq::build`] gives it;
    /// centres are never persisted).
    pub fn read<R: std::io::Read>(r: &mut R) -> std::io::Result<Self> {
        Self::read_centred(r, None)
    }

    /// [`IvfRabitq::read`] about a given centre (`None` = the
    /// size-weighted mean of the centroids): the offsets are computed once,
    /// while the buckets are rebuilt. A stored index whose dimension is
    /// not the centre's length is `InvalidData`.
    pub fn read_centred<R: std::io::Read>(
        r: &mut R,
        centre: Option<&[f32]>,
    ) -> std::io::Result<Self> {
        use rabitq_core::persist as p;
        let section = p::read_header(r)?;
        if section == "ivf-rabitq" {
            return Err(p::invalid(
                "this is a v1 ivf-rabitq file (no tombstone bitmap); rebuild \
                 the index with this version to load it",
            ));
        }
        let v2 = section == SECTION_V2;
        if !v2 && section != SECTION {
            return Err(p::invalid(format!(
                "expected {SECTION} file, got {section:?}"
            )));
        }
        let dim = p::read_usize(r)?;
        if centre.is_some_and(|c| c.len() != dim) {
            return Err(p::invalid(format!(
                "index is {dim}-dimensional, its centre is not"
            )));
        }
        let quantizer = Rabitq::read(&mut *r)?;
        if quantizer.dim() != dim {
            return Err(p::invalid("quantizer dimensionality mismatch"));
        }
        let centroids = p::read_f32_vec(&mut *r)?;
        if centroids.is_empty() || centroids.len() % dim != 0 {
            return Err(p::invalid("centroid buffer shape"));
        }
        // A non-finite centroid poisons every distance the probe and the
        // estimator take from it; no build writes one.
        if !centroids.iter().all(|v| v.is_finite()) {
            return Err(p::invalid("non-finite centroid"));
        }
        let coarse = KMeans::from_centroids(centroids, dim);
        if v2 {
            p::read_f32_vec(&mut *r)?; // the rotated centroids
        }
        let n_buckets = p::read_usize(&mut *r)?;
        if n_buckets != coarse.k() {
            return Err(p::invalid("bucket count disagrees with centroids"));
        }
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            let ids = p::read_u32_vec(&mut *r)?;
            let codes = CodeSet::read(&mut *r)?;
            if v2 {
                p::read_u32_vec(&mut *r)?; // the code popcounts
            }
            if codes.len() != ids.len() || codes.padded_dim() != quantizer.padded_dim() {
                return Err(p::invalid("bucket codes disagree with ids"));
            }
            let packed = quantizer.pack(&codes);
            buckets.push(Bucket {
                ids,
                codes,
                packed,
                offsets: Vec::new(),
            });
        }
        let data = p::read_f32_vec(&mut *r)?;
        if data.len() % dim != 0 {
            return Err(p::invalid("raw data buffer shape"));
        }
        let n = data.len() / dim;
        // The buckets must partition `0..n`: an id past the end could never
        // be found (it reads as tombstoned), and an id in two buckets would
        // be re-ranked twice and answered twice.
        let mut seen = vec![0u64; n.div_ceil(64)];
        let mut listed = 0usize;
        for id in buckets.iter().flat_map(|b| &b.ids) {
            let id = *id as usize;
            if id >= n {
                return Err(p::invalid(format!("bucket id {id} out of range 0..{n}")));
            }
            let (word, bit) = (id / 64, 1u64 << (id % 64));
            if seen[word] & bit != 0 {
                return Err(p::invalid(format!("bucket id {id} listed twice")));
            }
            seen[word] |= bit;
            listed += 1;
        }
        if listed != n {
            return Err(p::invalid(format!("buckets list {listed} of {n} ids")));
        }
        let deleted = p::read_u64_vec(&mut *r)?;
        if deleted.len() != n.div_ceil(64) {
            return Err(p::invalid("tombstone bitmap shape"));
        }
        if let Some(last) = deleted.last() {
            if n % 64 != 0 && *last >> (n % 64) != 0 {
                return Err(p::invalid("tombstone bits past the last vector"));
            }
        }
        let n_deleted = deleted.iter().map(|w| w.count_ones() as usize).sum();
        let mut index = Self {
            dim,
            quantizer,
            coarse,
            centre: Vec::new(),
            buckets,
            data,
            deleted: deleted.into_iter().map(AtomicU64::new).collect(),
            n_deleted: AtomicUsize::new(n_deleted),
        };
        let centre = centre.map_or_else(|| Self::centroid_mean(dim, [&index]), <[f32]>::to_vec);
        index.recentre(&centre);
        Ok(index)
    }

    /// Total bit entropy of all stored codes divided by total code length —
    /// the Appendix E uniformity diagnostic (≈ 1.0 when normalization
    /// spreads vectors evenly on the hypersphere).
    pub fn normalized_code_entropy(&self) -> f64 {
        let mut entropy = 0.0f64;
        let mut weight = 0.0f64;
        for bucket in &self.buckets {
            if bucket.codes.is_empty() {
                continue;
            }
            let w = bucket.codes.len() as f64;
            entropy += bucket.codes.total_bit_entropy() / bucket.codes.padded_dim() as f64 * w;
            weight += w;
        }
        if weight == 0.0 {
            0.0
        } else {
            entropy / weight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_core::RotatorKind;
    use rabitq_data::{exact_knn, generate, DatasetSpec, Profile};
    use rabitq_metrics::recall_at_k;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(n: usize, dim: usize) -> DatasetSpec {
        DatasetSpec {
            name: "ivf-test".into(),
            dim,
            n,
            n_queries: 15,
            profile: Profile::Clustered {
                clusters: 12,
                cluster_std: 0.8,
                center_scale: 3.0,
            },
            seed: 11,
        }
    }

    fn dataset(n: usize, dim: usize) -> rabitq_data::Dataset {
        generate(&spec(n, dim))
    }

    /// Every [`RerankStrategy`] variant, for tests that must hold on each.
    const ALL_STRATEGIES: [RerankStrategy; 4] = [
        RerankStrategy::ErrorBound,
        RerankStrategy::ErrorBoundWithEpsilon(1.0),
        RerankStrategy::TopCandidates(100),
        RerankStrategy::None,
    ];

    fn build(ds: &rabitq_data::Dataset, clusters: usize) -> IvfRabitq {
        let ivf = IvfConfig::new(clusters);
        IvfRabitq::build(&ds.data, ds.dim, &ivf, RabitqConfig::default())
    }

    #[test]
    fn full_probe_with_bound_rerank_reaches_high_recall() {
        // All buckets probed: the only possible misses are bound failures,
        // which at ε₀ = 1.9 cost ≈ 0.5% recall for either rotator. The
        // margin to 0.99 is a few per-query standard errors only over
        // hundreds of queries, so: 100 queries × 4 rotations per kind.
        let ds = generate(&DatasetSpec {
            n_queries: 100,
            ..spec(3000, 64)
        });
        let gt = exact_knn(&ds.data, ds.dim, &ds.queries, 10, 1);
        for rotator in [
            RotatorKind::DenseOrthogonal,
            RotatorKind::RandomizedHadamard,
        ] {
            let mut total = 0.0;
            let seeds = 4;
            for seed in 0..seeds {
                let config = RabitqConfig {
                    rotator,
                    seed,
                    ..RabitqConfig::default()
                };
                let index = IvfRabitq::build(&ds.data, ds.dim, &IvfConfig::new(16), config);
                let mut rng = StdRng::seed_from_u64(1);
                for (qi, truth) in gt.iter().enumerate().take(ds.n_queries()) {
                    let res = index.search(ds.query(qi), 10, 16, &mut rng);
                    let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
                    let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
                    total += recall_at_k(&want, &got);
                }
            }
            let avg = total / (seeds as usize * ds.n_queries()) as f64;
            assert!(avg > 0.99, "{rotator:?}: average recall {avg}");
        }
    }

    #[test]
    fn reranked_distances_are_exact() {
        let ds = dataset(500, 32);
        let index = build(&ds, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let res = index.search(ds.query(0), 5, 8, &mut rng);
        for &(id, d) in &res.neighbors {
            let exact = vecs::l2_sq(ds.vector(id as usize), ds.query(0));
            assert!((d - exact).abs() < 1e-4, "id {id}: {d} vs {exact}");
        }
    }

    #[test]
    fn error_bound_rule_reranks_a_small_fraction() {
        let ds = dataset(4000, 64);
        let index = build(&ds, 20);
        let mut rng = StdRng::seed_from_u64(3);
        let res = index.search(ds.query(1), 10, 20, &mut rng);
        assert_eq!(res.n_estimated, 4000);
        // The bound should prune the vast majority of candidates.
        assert!(
            res.n_reranked < res.n_estimated / 2,
            "reranked {} of {}",
            res.n_reranked,
            res.n_estimated
        );
        assert!(res.n_reranked >= 10);
    }

    #[test]
    fn fewer_probes_scan_fewer_candidates() {
        let ds = dataset(2000, 32);
        let index = build(&ds, 16);
        let mut rng = StdRng::seed_from_u64(4);
        let little = index.search(ds.query(2), 5, 2, &mut rng);
        let lots = index.search(ds.query(2), 5, 16, &mut rng);
        assert!(little.n_estimated < lots.n_estimated);
    }

    #[test]
    fn strategies_agree_when_probing_everything_generously() {
        let ds = dataset(1000, 32);
        let index = build(&ds, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let bound = index.search_with(ds.query(3), 5, 8, RerankStrategy::ErrorBound, &mut rng);
        let fixed = index.search_with(
            ds.query(3),
            5,
            8,
            RerankStrategy::TopCandidates(1000),
            &mut rng,
        );
        let a: Vec<u32> = bound.neighbors.iter().map(|&(id, _)| id).collect();
        let b: Vec<u32> = fixed.neighbors.iter().map(|&(id, _)| id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn no_rerank_strategy_returns_estimates() {
        let ds = dataset(800, 32);
        let index = build(&ds, 8);
        let mut rng = StdRng::seed_from_u64(6);
        let res = index.search_with(ds.query(0), 5, 8, RerankStrategy::None, &mut rng);
        assert_eq!(res.n_reranked, 0);
        assert_eq!(res.neighbors.len(), 5);
    }

    #[test]
    fn code_entropy_is_near_one() {
        // Appendix E: with per-bucket normalization the code bits are
        // nearly unbiased coins.
        let ds = dataset(2000, 64);
        let index = build(&ds, 12);
        let h = index.normalized_code_entropy();
        assert!(h > 0.95, "normalized entropy {h}");
    }

    #[test]
    fn threaded_build_matches_single_threaded_build() {
        let ds = dataset(600, 16);
        let mut cfg1 = IvfConfig::new(8);
        cfg1.threads = 1;
        let mut cfg4 = IvfConfig::new(8);
        cfg4.threads = 4;
        let a = IvfRabitq::build(&ds.data, ds.dim, &cfg1, RabitqConfig::default());
        let b = IvfRabitq::build(&ds.data, ds.dim, &cfg4, RabitqConfig::default());
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        for qi in 0..ds.n_queries() {
            let ra = a.search(ds.query(qi), 5, 8, &mut rng_a);
            let rb = b.search(ds.query(qi), 5, 8, &mut rng_b);
            assert_eq!(ra.neighbors, rb.neighbors, "query {qi}");
        }
    }

    #[test]
    fn removed_vectors_vanish_from_search_immediately() {
        let ds = dataset(400, 16);
        let index = build(&ds, 4);
        let mut rng = StdRng::seed_from_u64(9);
        // Query with a stored vector, confirm it wins, then tombstone it:
        // the next search must not return it, under every re-ranking
        // strategy.
        let victim = 123u32;
        let probe = ds.vector(victim as usize).to_vec();
        let res = index.search(&probe, 3, 4, &mut rng);
        assert_eq!(res.neighbors[0].0, victim);

        assert!(index.remove(victim));
        assert!(index.is_deleted(victim));
        assert_eq!(index.n_live(), 399);
        for strategy in ALL_STRATEGIES {
            let res = index.search_with(&probe, 3, 4, strategy, &mut rng);
            assert_eq!(res.neighbors.len(), 3);
            assert!(
                res.neighbors.iter().all(|&(id, _)| id != victim),
                "{strategy:?} returned a tombstoned id"
            );
        }
        // Double-remove and out-of-range are clean no-ops.
        assert!(!index.remove(victim));
        assert!(!index.remove(10_000));
        assert_eq!(index.n_deleted(), 1);
    }

    #[test]
    fn tombstones_survive_save_and_load() {
        let ds = dataset(300, 16);
        let index = build(&ds, 4);
        for id in [3u32, 77, 140, 299] {
            assert!(index.remove(id));
        }
        let path =
            std::env::temp_dir().join(format!("rabitq-ivf-tombstones-{}.rbq", std::process::id()));
        index.save(&path).unwrap();
        let loaded = IvfRabitq::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.n_deleted(), 4);
        assert_eq!(loaded.n_live(), 296);
        for id in [3u32, 77, 140, 299] {
            assert!(loaded.is_deleted(id));
        }
        let mut rng = StdRng::seed_from_u64(12);
        let res = loaded.search(ds.vector(77), 5, 4, &mut rng);
        assert!(res.neighbors.iter().all(|&(id, _)| id != 77));
    }

    #[test]
    fn read_rejects_bucket_ids_that_do_not_partition_the_rows() {
        let ds = dataset(300, 16);
        let mut index = build(&ds, 4);
        let mut bytes = Vec::new();
        index.write(&mut bytes).unwrap();
        assert!(IvfRabitq::read(&mut bytes.as_slice()).is_ok());
        // Rewrite one bucket id: the code count still equals the id count,
        // so only the partition check can catch it.
        let first = index
            .buckets
            .iter()
            .position(|b| !b.ids.is_empty())
            .unwrap();
        let last = *index
            .buckets
            .iter()
            .rev()
            .find_map(|b| b.ids.last())
            .unwrap();
        for (id, why) in [(last, "listed twice"), (300, "out of range")] {
            index.buckets[first].ids[0] = id;
            let mut bytes = Vec::new();
            index.write(&mut bytes).unwrap();
            let err = IvfRabitq::read(&mut bytes.as_slice())
                .err()
                .expect("a bad bucket id was accepted");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn read_rejects_non_finite_centroids() {
        let ds = dataset(300, 16);
        let mut index = build(&ds, 4);
        let rewritten = |index: &IvfRabitq| {
            let mut bytes = Vec::new();
            index.write(&mut bytes).unwrap();
            IvfRabitq::read(&mut bytes.as_slice())
                .err()
                .expect("a non-finite centroid was accepted")
        };
        let mut centroids = index.coarse.centroids().to_vec();
        centroids[5] = f32::NAN;
        index.coarse = KMeans::from_centroids(centroids, 16);
        let err = rewritten(&index);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("non-finite centroid"), "{err}");
    }

    #[test]
    fn reused_scratch_matches_fresh_search_bit_for_bit() {
        // One scratch reused across queries and strategies must reproduce
        // the allocating wrapper exactly (same RNG streams).
        let ds = dataset(1500, 32);
        let index = build(&ds, 10);
        let mut scratch = SearchScratch::new();
        for strategy in ALL_STRATEGIES {
            for qi in 0..ds.n_queries() {
                let seed = 1000 + qi as u64;
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let fresh = index.search_with(ds.query(qi), 5, 6, strategy, &mut rng_a);
                let (e, r) =
                    index.search_into(ds.query(qi), 5, 6, strategy, &mut scratch, &mut rng_b);
                assert_eq!(
                    scratch.neighbors, fresh.neighbors,
                    "{strategy:?} query {qi}"
                );
                assert_eq!(e, fresh.n_estimated);
                assert_eq!(r, fresh.n_reranked);
            }
        }
    }

    #[test]
    fn remove_through_shared_reference_is_thread_safe() {
        // The atomic tombstone bitmap lets `remove` take &self; racing
        // removers must tombstone every id exactly once in total.
        let ds = dataset(512, 16);
        let index = build(&ds, 4);
        let hits: usize = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let index = &index;
                handles
                    .push(scope.spawn(move || (0..512u32).filter(|&id| index.remove(id)).count()));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(hits, 512, "every id removed exactly once across threads");
        assert_eq!(index.n_deleted(), 512);
        assert_eq!(index.n_live(), 0);
    }

    #[test]
    fn cancelled_token_bails_without_results() {
        let ds = dataset(1000, 32);
        let index = build(&ds, 8);
        let mut scratch = SearchScratch::new();
        let token = CancelToken::new();
        token.cancel();
        for strategy in ALL_STRATEGIES {
            let mut rng = StdRng::seed_from_u64(21);
            scratch.begin(5);
            index.plan_into(ds.query(0), &mut scratch, &mut rng);
            let got = index.scan_planned(ds.query(0), 8, strategy, &mut scratch, |id| id, &token);
            assert!(got.is_none(), "{strategy:?} must observe cancellation");
            assert!(
                scratch.neighbors.is_empty(),
                "partial candidates must not leak"
            );
        }
    }

    #[test]
    fn uncancelled_token_matches_plain_search_bit_for_bit() {
        let ds = dataset(1200, 32);
        let index = build(&ds, 8);
        let mut scratch_a = SearchScratch::new();
        let mut scratch_b = SearchScratch::new();
        let token = CancelToken::with_deadline(
            std::time::Instant::now() + std::time::Duration::from_secs(3600),
        );
        for strategy in ALL_STRATEGIES {
            for qi in 0..ds.n_queries() {
                let seed = 3000 + qi as u64;
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let plain =
                    index.search_into(ds.query(qi), 5, 8, strategy, &mut scratch_a, &mut rng_a);
                scratch_b.begin(5);
                index.plan_into(ds.query(qi), &mut scratch_b, &mut rng_b);
                let cancellable = index
                    .scan_planned(ds.query(qi), 8, strategy, &mut scratch_b, |id| id, &token)
                    .expect("far deadline never cancels");
                scratch_b.finish();
                assert_eq!(plain, cancellable, "{strategy:?} query {qi}");
                assert_eq!(
                    scratch_a.neighbors, scratch_b.neighbors,
                    "{strategy:?} query {qi}"
                );
            }
        }
    }

    #[test]
    fn build_rejects_configs_no_reader_accepts() {
        let ds = dataset(100, 16);
        for (bq, epsilon0) in [(0u8, 1.9f32), (9, 1.9), (4, -5.0), (4, f32::NAN)] {
            let config = RabitqConfig {
                bq,
                epsilon0,
                ..RabitqConfig::default()
            };
            let panic = std::panic::catch_unwind(|| {
                IvfRabitq::build(&ds.data, ds.dim, &IvfConfig::new(4), config)
            })
            .err()
            .unwrap_or_else(|| panic!("B_q {bq}, epsilon0 {epsilon0} was built"));
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.contains(config.validate().unwrap_err()),
                "{message}"
            );
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        let ds = dataset(100, 16);
        let index = build(&ds, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let res = index.search(ds.query(0), 0, 4, &mut rng);
        assert!(res.neighbors.is_empty());
    }

    #[test]
    fn nprobe_beyond_bucket_count_is_clamped() {
        let ds = dataset(300, 16);
        let index = build(&ds, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let res = index.search(ds.query(0), 3, 100, &mut rng);
        assert_eq!(res.neighbors.len(), 3);
    }
}
