//! Server-side counters and latency histograms, all lock-free.
//!
//! One [`ServerMetrics`] is shared by every connection worker; `/stats`
//! renders it as JSON. Latency uses the log-bucketed [`LatencyHistogram`]
//! from `rabitq-metrics`.

use crate::json::Json;
use crate::json_obj;
use rabitq_metrics::{LatencyHistogram, Stage, StageTimers};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared serving metrics.
#[derive(Debug)]
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

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self {
            requests: AtomicU64::new(0),
            ok_responses: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_unavailable: AtomicU64::new(0),
            rejected_read_only: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            expired_in_queue: AtomicU64::new(0),
            cancelled_mid_scan: AtomicU64::new(0),
            cancelled_after: LatencyHistogram::new(),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            search_latency: LatencyHistogram::new(),
            stages: StageTimers::new(),
        }
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

    /// Renders everything as the `/stats` JSON fragment.
    pub fn to_json(&self) -> Json {
        json_obj! {
            "requests" => self.requests.load(Ordering::Relaxed),
            "responses_2xx" => self.ok_responses.load(Ordering::Relaxed),
            "responses_4xx" => self.client_errors.load(Ordering::Relaxed),
            "responses_5xx" => self.server_errors.load(Ordering::Relaxed),
            "shed_overload" => self.shed_overload.load(Ordering::Relaxed),
            "shed_unavailable" => self.shed_unavailable.load(Ordering::Relaxed),
            "rejected_read_only" => self.rejected_read_only.load(Ordering::Relaxed),
            "deadline_exceeded" => self.deadline_exceeded.load(Ordering::Relaxed),
            "expired_in_queue" => self.expired_in_queue.load(Ordering::Relaxed),
            "cancelled_mid_scan" => self.cancelled_mid_scan.load(Ordering::Relaxed),
            "cancelled_after_us" => json_obj! {
                "count" => self.cancelled_after.count(),
                "mean" => self.cancelled_after.mean_us(),
                "p99" => self.cancelled_after.quantile_us(0.99)
            },
            "inserts" => self.inserts.load(Ordering::Relaxed),
            "deletes" => self.deletes.load(Ordering::Relaxed),
            "search_latency_us" => json_obj! {
                "count" => self.search_latency.count(),
                "mean" => self.search_latency.mean_us(),
                "p50" => self.search_latency.quantile_us(0.50),
                "p95" => self.search_latency.quantile_us(0.95),
                "p99" => self.search_latency.quantile_us(0.99)
            },
            "search_stages_us" => Json::Obj(
                Stage::ALL
                    .iter()
                    .map(|&stage| {
                        let h = self.stages.hist(stage);
                        (
                            stage.name().to_string(),
                            json_obj! {
                                "count" => h.count(),
                                "total" => h.sum_us(),
                                "mean" => h.mean_us(),
                                "p99" => h.quantile_us(0.99)
                            },
                        )
                    })
                    .collect(),
            ),
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
        m.search_latency.record_us(150);
        let j = m.to_json();
        assert_eq!(j.get("mean_batch_size").and_then(Json::as_f64), Some(1.0));
        let lat = j.get("search_latency_us").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(1));
        // And it encodes + reparses.
        let text = j.encode();
        assert!(Json::parse(&text).is_ok(), "{text}");
    }
}
