//! Server-side counters and latency histograms, all lock-free.
//!
//! One [`ServerMetrics`] is shared by every connection worker; `/metrics`
//! exports every field as Prometheus text, and `/stats` keeps only the
//! three keys the perf ledger reads. Latency uses the log-bucketed
//! [`LatencyHistogram`] from `rabitq-metrics`.

use crate::json::Json;
use crate::json_obj;
use rabitq_metrics::{LatencyHistogram, StageTimers};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared serving metrics.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests fully parsed off a connection.
    pub requests: AtomicU64,
    /// Responses with 2xx status.
    pub ok_responses: AtomicU64,
    /// Responses with 4xx status (including sheds).
    pub client_errors: AtomicU64,
    /// Responses with 5xx status (including sheds).
    pub server_errors: AtomicU64,
    /// Connections answered `503` because the connection backlog was
    /// full.
    pub shed_overload: AtomicU64,
    /// Connections answered `503` because the server was shutting down
    /// before a worker read them.
    pub shed_unavailable: AtomicU64,
    /// Mutations answered `503` because the collection is read-only
    /// (frozen after a write-path storage fault or by an operator).
    pub rejected_read_only: AtomicU64,
    /// Searches answered `504` because their deadline passed (before the
    /// scan began, or mid-scan).
    pub deadline_exceeded: AtomicU64,
    /// Deadline-expired searches that expired before the scan began — no
    /// search work was wasted.
    pub expired_in_queue: AtomicU64,
    /// Searches cooperatively cancelled mid-scan by their deadline: the
    /// scan bailed at a checkpoint instead of running to completion.
    pub cancelled_mid_scan: AtomicU64,
    /// How long a `504`ed search had been in flight when the server
    /// observed its cancellation, µs. A histogram dominated by values
    /// near the configured timeout means cancellation is prompt; a long
    /// tail means checkpoints are too coarse.
    pub cancelled_after: LatencyHistogram,
    /// Vectors inserted.
    pub inserts: AtomicU64,
    /// Tombstones applied.
    pub deletes: AtomicU64,
    /// End-to-end search latency (request head parsed to response
    /// ready), µs.
    pub search_latency: LatencyHistogram,
    /// Per-pipeline-stage time across every answered search (rotate, LUT
    /// build, scan, re-rank, merge) — the global aggregate of the
    /// per-query [`rabitq_metrics::StageNanos`] breakdowns.
    pub stages: StageTimers,
}

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tallies a response status into the 2xx/4xx/5xx counters.
    pub fn count_response(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.ok_responses,
            400..=499 => &self.client_errors,
            _ => &self.server_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Searches per engine call: `1.0` once a search has been answered,
    /// `0.0` before, because every search is one engine call. It stays
    /// only because the frozen perf ledger reads
    /// `/stats` `metrics.mean_batch_size`; ROADMAP item 2 removes it.
    fn mean_batch_size(&self) -> f64 {
        if self.search_latency.count() > 0 {
            1.0
        } else {
            0.0
        }
    }

    /// The `/stats` `metrics` fragment: the three keys the frozen perf
    /// ledger reads.
    pub fn to_json(&self) -> Json {
        json_obj! {
            "requests" => self.requests.load(Ordering::Relaxed),
            "shed_overload" => self.shed_overload.load(Ordering::Relaxed),
            "mean_batch_size" => self.mean_batch_size()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_batch_size_is_one_once_a_search_was_answered() {
        let m = ServerMetrics::new();
        assert_eq!(m.mean_batch_size(), 0.0);
        m.search_latency.record_us(150);
        assert_eq!(m.mean_batch_size(), 1.0);
    }

    #[test]
    fn response_counting_buckets_by_class() {
        let m = ServerMetrics::new();
        m.count_response(200);
        m.count_response(404);
        m.count_response(429);
        m.count_response(503);
        assert_eq!(m.ok_responses.load(Ordering::Relaxed), 1);
        assert_eq!(m.client_errors.load(Ordering::Relaxed), 2);
        assert_eq!(m.server_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_json_is_well_formed() {
        let m = ServerMetrics::new();
        m.requests.fetch_add(2, Ordering::Relaxed);
        m.search_latency.record_us(150);
        let j = m.to_json();
        let Json::Obj(fields) = &j else {
            panic!("not an object: {j:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["requests", "shed_overload", "mean_batch_size"]);
        assert_eq!(j.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("shed_overload").and_then(Json::as_u64), Some(0));
        assert_eq!(j.get("mean_batch_size").and_then(Json::as_f64), Some(1.0));
        // And it encodes + reparses.
        let text = j.encode();
        assert!(Json::parse(&text).is_ok(), "{text}");
    }
}
