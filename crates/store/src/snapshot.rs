//! The concurrent read path: immutable [`Snapshot`]s published by the
//! writer, cheap to clone, searched without any lock held.
//!
//! ## Shape
//!
//! A snapshot is the pair (memtable clone, `Arc`'d segment list).
//! The writer rebuilds it after **every** mutation and swaps it into a
//! shared slot; readers load the current `Arc<Snapshot>` (a read-lock held
//! only long enough to clone the `Arc`) and then run the entire query on
//! that frozen state. Seal and compaction do their expensive work — IVF
//! builds, file writes — on the writer's private state and only then swap,
//! so **writers never block readers**: the longest a reader can wait is
//! the nanoseconds of an `Arc` pointer swap.
//!
//! The memtable is the writer's own [`Memtable`], cloned: its rows sit in
//! `Arc`'d chunks the writer never mutates once shared (an insert copies
//! at most the one open chunk), so publishing a new snapshot copies three
//! pointers and older snapshots keep seeing exactly the rows and deletes
//! they were created with. Segments are immutable by construction; their
//! only mutation — tombstoning — is an atomic bitmap write that is safe
//! (and immediately visible) under concurrent readers.
//!
//! Memory reclamation is `Arc`-drop: a sealed-away memtable chunk or a
//! compacted-away segment lives exactly as long as the last snapshot that
//! references it, then frees without any epoch or GC machinery.
//!
//! ## One query path
//!
//! Every public search runs the same private fan-out core,
//! `Snapshot::search_one`: scan the frozen memtable, scan the segments in
//! order through the calling thread's thread-local [`SearchScratch`],
//! merge in segment order. [`Snapshot::search`] feeds it the caller's RNG;
//! [`Snapshot::search_many`] and [`Snapshot::search_many_cancellable`]
//! feed it one RNG per (query, segment) task derived from a caller seed,
//! and fan the *queries* out over the process-wide persistent
//! [`WorkerPool`] — threads are created once and parked between calls, so
//! a batch never pays thread startup. The thread-local scratch is reused
//! across queries *and* across batches, which keeps the steady state
//! allocation-free, and the per-task seeding makes batch results
//! **bit-identical for every thread count** — the scheduler can never
//! change an answer.

use crate::error::HealthReport;
use crate::error::HealthState;
use crate::memtable::Memtable;
use crate::observe::StoreMetrics;
use crate::pool::WorkerPool;
use crate::segment::Segment;
use rabitq_core::RabitqConfig;
use rabitq_ivf::{CancelToken, SearchResult, SearchScratch, TopK};
use rabitq_metrics::{Stage, StageNanos};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{RefCell, UnsafeCell};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Nanoseconds since `t0`, saturated to `u64` (the stage-trace unit).
#[inline]
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

thread_local! {
    /// Per-thread reusable scratch: pool workers are persistent, so this
    /// amortizes to zero allocations per query at steady state.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// Write-once result slots shared with pool workers. Disjointness is
/// guaranteed by the pool's item claiming: each index is handed to exactly
/// one task invocation, and the pool's completion barrier orders all
/// writes before the submitter reads.
struct ResultSlots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: see above — indices are written by their unique claimant only.
unsafe impl<T: Send> Sync for ResultSlots<T> {}

impl<T> ResultSlots<T> {
    fn new(n: usize) -> Self {
        Self((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// # Safety
    /// Must be called at most once per index, with no concurrent access
    /// to the same index.
    unsafe fn put(&self, i: usize, value: T) {
        *self.0[i].get() = Some(value);
    }

    fn into_results(self) -> Vec<T> {
        self.0
            .into_iter()
            .map(|c| c.into_inner().expect("every slot filled"))
            .collect()
    }
}

/// Thread-count and determinism knobs for the batch search paths.
#[derive(Clone, Copy, Debug)]
pub struct ParallelOptions {
    /// Worker threads (clamped to the available work; `0` and `1` both
    /// mean serial).
    pub threads: usize,
    /// Seed from which every (query, segment) task RNG is derived. Two
    /// runs with the same seed return bit-identical results regardless of
    /// `threads`.
    pub seed: u64,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            seed: 0x5EED_FA17,
        }
    }
}

impl ParallelOptions {
    /// Serial execution with the default seed.
    pub fn serial() -> Self {
        Self::default()
    }

    /// `threads` workers with the default seed.
    pub fn threaded(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// How one query of a cancellable batch ended: with a result, or
/// abandoned at a cancellation checkpoint. Cancellation is per query —
/// one expired deadline never poisons its batchmates, whose outcomes
/// (and bits) are identical to an all-healthy batch thanks to the
/// per-(query, segment) RNG seeding.
#[derive(Debug)]
pub enum SearchOutcome {
    /// The query ran to completion.
    Done(SearchResult),
    /// The query's token cancelled mid-scan; partial candidates were
    /// discarded (never returned).
    Cancelled,
}

impl SearchOutcome {
    /// Whether this query was abandoned.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SearchOutcome::Cancelled)
    }

    /// The completed result, if any.
    pub fn into_result(self) -> Option<SearchResult> {
        match self {
            SearchOutcome::Done(res) => Some(res),
            SearchOutcome::Cancelled => None,
        }
    }
}

/// An immutable, searchable view of a collection at one instant.
pub struct Snapshot {
    dim: usize,
    memtable: Memtable,
    segments: Vec<Arc<Segment>>,
}

/// The SplitMix64-style finalizer deriving one task seed per
/// (query, segment) pair. Execution order and thread placement therefore
/// cannot change any RNG stream.
fn task_seed(seed: u64, query: usize, segment: usize) -> u64 {
    let mut z = seed
        ^ (query as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (segment as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Snapshot {
    pub(crate) fn new(dim: usize, memtable: Memtable, segments: Vec<Arc<Segment>>) -> Self {
        Self {
            dim,
            memtable,
            segments,
        }
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Live vectors across the frozen memtable and all segments.
    pub fn len(&self) -> usize {
        self.memtable.len() + self.segments.iter().map(|s| s.n_live()).sum::<usize>()
    }

    /// Whether no live vectors exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments in this view.
    #[inline]
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Rows visible in the frozen memtable.
    #[inline]
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Serial search with a caller-provided RNG — the historical
    /// [`crate::Collection::search`] contract: exact squared distances,
    /// ascending, memtable scanned first, then segments in order sharing
    /// `rng`.
    pub fn search<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rng: &mut R,
    ) -> SearchResult {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        let cancel = CancelToken::none();
        self.search_one(query, k, &cancel, |_, segment, scratch| {
            segment.search_into_cancellable(query, k, nprobe, scratch, rng, &cancel)
        })
        .expect("a never-cancelling token cannot cancel")
    }

    /// Batch search: `queries` is a flat `n × dim` buffer; returns one
    /// [`SearchResult`] per query, in query order. Queries are claimed
    /// dynamically by up to `opts.threads` participants of the persistent
    /// [`WorkerPool`] (submitter included), each reusing its thread-local
    /// [`SearchScratch`] across all queries, segments, and batches — the
    /// allocation-free path without per-call thread startup. Results are
    /// bit-identical for every thread count (per-(query, segment) seeded
    /// RNGs, merge in segment order).
    pub fn search_many(
        &self,
        queries: &[f32],
        k: usize,
        nprobe: usize,
        opts: ParallelOptions,
    ) -> Vec<SearchResult> {
        self.run_batch(queries, k, nprobe, opts, None)
            .into_iter()
            .map(|res| res.expect("a never-cancelling token cannot cancel"))
            .collect()
    }

    /// [`Snapshot::search_many`] with per-query cooperative cancellation:
    /// `tokens[qi]` guards query `qi` alone. A query whose token cancels
    /// (deadline passed, client gone) bails at the next probed-bucket or
    /// segment boundary and yields [`SearchOutcome::Cancelled`]; its
    /// batchmates are untouched — their results are bit-identical to an
    /// all-healthy [`Snapshot::search_many`] run with the same seed,
    /// because every (query, segment) task derives its own RNG.
    pub fn search_many_cancellable(
        &self,
        queries: &[f32],
        k: usize,
        nprobe: usize,
        opts: ParallelOptions,
        tokens: &[CancelToken],
    ) -> Vec<SearchOutcome> {
        assert_eq!(
            tokens.len(),
            queries.len() / self.dim,
            "one token per query"
        );
        self.run_batch(queries, k, nprobe, opts, Some(tokens))
            .into_iter()
            .map(|res| res.map_or(SearchOutcome::Cancelled, SearchOutcome::Done))
            .collect()
    }

    /// The batch dispatch shared by [`Snapshot::search_many`] and
    /// [`Snapshot::search_many_cancellable`]: runs the fan-out core for
    /// every query of the flat `n × dim` buffer, each segment scan drawing
    /// from its own RNG derived from `(opts.seed, query, segment)`, and
    /// returns the outcomes in query order (`None` = that query's token
    /// cancelled; without `tokens` nothing can). Inline when one thread is
    /// asked for or there is one query, otherwise claimed dynamically by
    /// up to `opts.threads` participants of the [`WorkerPool`].
    fn run_batch(
        &self,
        queries: &[f32],
        k: usize,
        nprobe: usize,
        opts: ParallelOptions,
        tokens: Option<&[CancelToken]>,
    ) -> Vec<Option<SearchResult>> {
        assert!(
            queries.len().is_multiple_of(self.dim),
            "queries buffer must be n × dim"
        );
        let n = queries.len() / self.dim;
        let never = CancelToken::none();
        let one = |qi: usize| {
            let query = &queries[qi * self.dim..(qi + 1) * self.dim];
            let cancel = tokens.map_or(&never, |tokens| &tokens[qi]);
            self.search_one(query, k, cancel, |si, segment, scratch| {
                let mut rng = StdRng::seed_from_u64(task_seed(opts.seed, qi, si));
                segment.search_into_cancellable(query, k, nprobe, scratch, &mut rng, cancel)
            })
        };
        let threads = opts.threads.max(1).min(n);
        if threads <= 1 {
            return (0..n).map(one).collect();
        }
        let slots = ResultSlots::new(n);
        WorkerPool::global().run(n, threads - 1, |qi| {
            // SAFETY: the pool claims each `qi` exactly once.
            unsafe { slots.put(qi, one(qi)) };
        });
        slots.into_results()
    }

    /// The one fan-out core: memtable scan, then `scan_segment(si, segment,
    /// scratch)` for each segment in order through this thread's
    /// [`SearchScratch`], then the merge. `scan_segment` owns the RNG
    /// choice (the caller's shared stream, or one per task) and returns
    /// `None` when its token cancelled mid-scan; the token is also polled
    /// here before the memtable scan. `None` means the query was
    /// abandoned; nothing partial is returned.
    fn search_one(
        &self,
        query: &[f32],
        k: usize,
        cancel: &CancelToken,
        mut scan_segment: impl FnMut(usize, &Segment, &mut SearchScratch) -> Option<(usize, usize)>,
    ) -> Option<SearchResult> {
        let mut top = TopK::new(k);
        let mut stages = StageNanos::new();
        let mut n_estimated = 0usize;
        let mut n_reranked = 0usize;
        if k > 0 {
            if cancel.is_cancelled() {
                return None;
            }
            let t0 = Instant::now();
            n_reranked += self.memtable.scan_into(query, &mut top);
            stages.add_ns(Stage::Rerank, ns_since(t0));
            SCRATCH.with(|s| {
                let scratch = &mut *s.borrow_mut();
                for (si, segment) in self.segments.iter().enumerate() {
                    let (e, r) = scan_segment(si, segment, scratch)?;
                    stages.merge(&scratch.stages);
                    n_estimated += e;
                    n_reranked += r;
                    for &(id, dist) in &scratch.neighbors {
                        top.push(id, dist);
                    }
                }
                Some(())
            })?;
        }
        let t0 = Instant::now();
        let neighbors = top.into_sorted();
        stages.add_ns(Stage::Merge, ns_since(t0));
        Some(SearchResult {
            neighbors,
            n_estimated,
            n_reranked,
            stages,
        })
    }
}

/// The shared slot a collection publishes snapshots through. Writers
/// replace the `Arc` under a write lock held for one pointer store;
/// readers clone it under a read lock held just as briefly.
pub(crate) struct SnapshotSlot {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotSlot {
    pub(crate) fn new(snapshot: Snapshot) -> Self {
        Self {
            current: RwLock::new(Arc::new(snapshot)),
        }
    }

    pub(crate) fn load(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn store(&self, snapshot: Snapshot) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snapshot);
    }
}

/// A detached read handle: clones freely, lives independently of the
/// writer's `&mut Collection` borrow, and always observes the latest
/// published snapshot. This is how reader threads search concurrently
/// with insert/seal/compact.
#[derive(Clone)]
pub struct CollectionReader {
    pub(crate) slot: Arc<SnapshotSlot>,
    pub(crate) dim: usize,
    pub(crate) rabitq: RabitqConfig,
    pub(crate) health: Arc<HealthState>,
    pub(crate) metrics: Arc<StoreMetrics>,
}

impl CollectionReader {
    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The quantizer configuration every segment of this collection is
    /// built with — the manifest's, fixed for the collection's lifetime
    /// (so `rotator` says whether searches pay the O(D²) dense rotation).
    #[inline]
    pub fn rabitq(&self) -> &RabitqConfig {
        &self.rabitq
    }

    /// A point-in-time copy of the collection's health flags (degraded /
    /// read-only / quarantined segments), shared live with the writer —
    /// the serving layer reads this without any writer lock.
    pub fn health(&self) -> HealthReport {
        self.health.report()
    }

    /// The collection's operational metrics and event journal — shared
    /// live with the writer, so the serving layer renders store counters
    /// (and pushes slow-query events) through this handle alone.
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// The latest published snapshot (an `Arc` clone — O(1)).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.slot.load()
    }

    /// Live vectors in the latest snapshot (memtable + segments). The
    /// serving layer's `/stats` accessor — no writer lock involved.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the latest snapshot holds no live vectors.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Sealed segments in the latest snapshot.
    pub fn n_segments(&self) -> usize {
        self.snapshot().n_segments()
    }

    /// Rows visible in the latest snapshot's frozen memtable.
    pub fn memtable_len(&self) -> usize {
        self.snapshot().memtable_len()
    }

    /// Serial search over the latest snapshot (the
    /// [`crate::Collection::search`] contract).
    pub fn search<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rng: &mut R,
    ) -> SearchResult {
        self.snapshot().search(query, k, nprobe, rng)
    }

    /// Batch search over the latest snapshot (see
    /// [`Snapshot::search_many`]).
    pub fn search_many(
        &self,
        queries: &[f32],
        k: usize,
        nprobe: usize,
        opts: ParallelOptions,
    ) -> Vec<SearchResult> {
        self.snapshot().search_many(queries, k, nprobe, opts)
    }

    /// Cancellable batch search over the latest snapshot (see
    /// [`Snapshot::search_many_cancellable`]).
    pub fn search_many_cancellable(
        &self,
        queries: &[f32],
        k: usize,
        nprobe: usize,
        opts: ParallelOptions,
        tokens: &[CancelToken],
    ) -> Vec<SearchOutcome> {
        self.snapshot()
            .search_many_cancellable(queries, k, nprobe, opts, tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_seeds_are_distinct_across_queries_and_segments() {
        let mut seen = std::collections::HashSet::new();
        for qi in 0..50 {
            for si in 0..8 {
                assert!(
                    seen.insert(task_seed(42, qi, si)),
                    "collision at ({qi},{si})"
                );
            }
        }
        // And the derivation is pure: same inputs, same seed.
        assert_eq!(task_seed(7, 3, 1), task_seed(7, 3, 1));
        assert_ne!(task_seed(7, 3, 1), task_seed(8, 3, 1));
    }
}
