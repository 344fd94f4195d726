//! Pipeline stage tracing for the search hot path.
//!
//! A query's cost decomposes into the stages the RaBitQ paper itself
//! evaluates separately: rotating/preparing the query, building the
//! query's LUT, fast-scanning the packed codes, confidence-bound
//! re-ranking, and the final top-k merge. [`StageNanos`] is the plain
//! per-query accumulator threaded through the search scratch (a fixed
//! `[u64; N]` — no allocation, no atomics, safe for the hot path), and
//! [`StageTimers`] is the process-wide sink: one lock-free
//! [`LatencyHistogram`] per stage, fed by the serving layer after each
//! query completes.
//!
//! ## Overhead contract
//!
//! Instrumentation on the hot path is limited to `Instant::now()` reads
//! (a vDSO clock read, no syscall, no allocation) and relaxed atomic adds
//! off the per-query critical path. The counting-allocator test in
//! `rabitq-ivf` runs with stage tracing enabled, so "allocation-free
//! steady state" includes the observability layer.

use crate::latency::LatencyHistogram;

/// The traced stages of one query, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Query rotation + coarse-quantizer probe selection.
    Rotate,
    /// The query plan's one quantized query + LUT preparation.
    LutBuild,
    /// Packed-code fast scan producing distance estimates.
    Scan,
    /// Confidence-bound exact re-ranking (and memtable exact scans).
    Rerank,
    /// Bounded top-k maintenance and the final sorted merge.
    Merge,
}

/// Number of traced stages.
pub const STAGE_COUNT: usize = 5;

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Rotate,
        Stage::LutBuild,
        Stage::Scan,
        Stage::Rerank,
        Stage::Merge,
    ];

    /// Stable snake_case name (Prometheus label value, JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Rotate => "rotate",
            Stage::LutBuild => "lut_build",
            Stage::Scan => "scan",
            Stage::Rerank => "rerank",
            Stage::Merge => "merge",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Stage::Rotate => 0,
            Stage::LutBuild => 1,
            Stage::Scan => 2,
            Stage::Rerank => 3,
            Stage::Merge => 4,
        }
    }
}

/// Per-query stage durations in nanoseconds. `Copy`, fixed-size, and
/// allocation-free — lives inside the search scratch and rides back to
/// the caller inside the search result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageNanos {
    ns: [u64; STAGE_COUNT],
}

impl StageNanos {
    /// All-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` nanoseconds to one stage.
    #[inline]
    pub fn add_ns(&mut self, stage: Stage, ns: u64) {
        self.ns[stage.index()] += ns;
    }

    /// Nanoseconds accumulated in one stage.
    #[inline]
    pub fn get_ns(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Adds every stage of `other` into `self` (e.g. summing the
    /// per-segment breakdowns of one query).
    #[inline]
    pub fn merge(&mut self, other: &StageNanos) {
        for (mine, theirs) in self.ns.iter_mut().zip(other.ns.iter()) {
            *mine += theirs;
        }
    }

    /// Total nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Zeroes every stage (re-arming a reused scratch).
    #[inline]
    pub fn clear(&mut self) {
        self.ns = [0; STAGE_COUNT];
    }
}

/// The process-wide stage sink: one concurrent [`LatencyHistogram`] per
/// stage. `record` is a handful of relaxed atomic adds — called once per
/// query *after* the result is produced, never inside the scan loops.
#[derive(Debug, Default)]
pub struct StageTimers {
    hists: [LatencyHistogram; STAGE_COUNT],
}

impl StageTimers {
    /// Empty timers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one query's breakdown in. Each stage records one sample in
    /// microseconds (rounded to nearest; sub-µs stages round to 0 but the
    /// sample still counts, so per-stage counts equal query counts).
    pub fn record(&self, stages: &StageNanos) {
        for stage in Stage::ALL {
            self.hists[stage.index()].record_us((stages.get_ns(stage) + 500) / 1000);
        }
    }

    /// The histogram behind one stage.
    pub fn hist(&self, stage: Stage) -> &LatencyHistogram {
        &self.hists[stage.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_ordered() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["rotate", "lut_build", "scan", "rerank", "merge"]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn nanos_accumulate_and_merge() {
        let mut a = StageNanos::new();
        a.add_ns(Stage::Rotate, 100);
        a.add_ns(Stage::Scan, 50);
        a.add_ns(Stage::Scan, 25);
        let mut b = StageNanos::new();
        b.add_ns(Stage::Scan, 5);
        b.add_ns(Stage::Merge, 7);
        a.merge(&b);
        assert_eq!(a.get_ns(Stage::Rotate), 100);
        assert_eq!(a.get_ns(Stage::Scan), 80);
        assert_eq!(a.get_ns(Stage::Merge), 7);
        assert_eq!(a.total_ns(), 187);
        a.clear();
        assert_eq!(a.total_ns(), 0);
    }

    #[test]
    fn timers_record_one_sample_per_stage_per_query() {
        let t = StageTimers::new();
        let mut q = StageNanos::new();
        q.add_ns(Stage::Rotate, 2_000); // 2 µs
        q.add_ns(Stage::Scan, 10_499); // rounds to 10 µs
        q.add_ns(Stage::Merge, 400); // rounds to 0 µs, still counted
        t.record(&q);
        for stage in Stage::ALL {
            assert_eq!(t.hist(stage).count(), 1, "{}", stage.name());
        }
        assert_eq!(t.hist(Stage::Rotate).sum_us(), 2);
        assert_eq!(t.hist(Stage::Scan).sum_us(), 10);
        assert_eq!(t.hist(Stage::Merge).sum_us(), 0);
    }
}
