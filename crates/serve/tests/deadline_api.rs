//! End-to-end request deadlines over real sockets: `timeout_ms` sets a
//! deadline measured from the moment the request head was parsed, an
//! expired search is answered `504` without the scan running (asserted
//! via the stage timers, which only completed searches feed), the cap
//! clamps client-supplied timeouts, and the 504s are visible in
//! `/metrics` and `/stats`.
//!
//! To expire a request before its scan, a test sends the head, waits
//! [`GAP`] — longer than the deadline — and only then sends the body.

mod common;

use common::{
    late_body_request, request, row_vector, search_body, start_server, timed_search_body, top_id,
    Client,
};
use rabitq_serve::{Json, ServeConfig};
use std::time::Duration;

/// The wait between a request's head and its body: ten times the 5 ms
/// deadlines below.
const GAP: Duration = Duration::from_millis(50);

/// A deadline that passes while the body is still arriving expires
/// before the scan began: the request is answered `504` and the scan
/// never ran — which the stage timers prove, since only completed
/// searches record stage samples.
#[test]
fn queued_expiry_returns_504_without_running_the_scan() {
    let (server, dir) = start_server("deadline-queue", ServeConfig::default());
    let addr = server.addr();

    let resp = late_body_request(
        addr,
        "/search",
        &timed_search_body(&row_vector(3, 4), 3, 5),
        GAP,
    );
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("deadline exceeded"), "{}", resp.body);

    let m = server.metrics();
    use std::sync::atomic::Ordering;
    assert_eq!(m.deadline_exceeded.load(Ordering::Relaxed), 1);
    assert_eq!(m.expired_in_queue.load(Ordering::Relaxed), 1);
    assert_eq!(m.cancelled_mid_scan.load(Ordering::Relaxed), 0);
    // The scan never completed — no latency sample, no stage samples.
    assert_eq!(m.search_latency.count(), 0, "504 must not record latency");
    assert_eq!(
        m.stages.hist(rabitq_metrics::Stage::Scan).count(),
        0,
        "an expired search must not have run its scan"
    );
    assert!(
        m.cancelled_after.count() == 1,
        "the wasted-time histogram tracks the 504"
    );

    // A generous deadline on the same server gets a real answer.
    let resp = request(
        addr,
        "POST",
        "/search",
        &timed_search_body(&row_vector(3, 4), 3, 30_000),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(top_id(&resp), 3);
    assert!(m.search_latency.count() >= 1);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `max_timeout_ms` clamps a client asking for an hour down to a bound
/// that expires inside the head-to-body gap — proving the cap is applied.
#[test]
fn client_timeout_is_clamped_to_the_configured_cap() {
    let config = ServeConfig {
        max_timeout_ms: 5,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("deadline-cap", config);

    let resp = late_body_request(
        server.addr(),
        "/search",
        &timed_search_body(&row_vector(0, 4), 2, 3_600_000),
        GAP,
    );
    assert_eq!(
        resp.status, 504,
        "cap must clamp the timeout: {}",
        resp.body
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `default_timeout_ms` applies when the request omits `timeout_ms`.
#[test]
fn server_default_timeout_applies_when_request_omits_it() {
    let config = ServeConfig {
        default_timeout_ms: 5,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("deadline-default", config);

    let resp = late_body_request(
        server.addr(),
        "/search",
        &search_body(&row_vector(0, 4), 2),
        GAP,
    );
    assert_eq!(resp.status, 504, "default deadline: {}", resp.body);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_timeout_is_a_400_and_zero_disables_the_deadline() {
    let (server, dir) = start_server("deadline-validate", ServeConfig::default());
    let addr = server.addr();

    let resp = request(
        addr,
        "POST",
        "/search",
        "{\"vector\":[0,0,0,0],\"timeout_ms\":\"soon\"}",
    );
    assert_eq!(resp.status, 400, "{}", resp.body);

    // timeout_ms: 0 = no deadline, even with a tiny max.
    let resp = request(
        addr,
        "POST",
        "/search",
        &timed_search_body(&row_vector(1, 4), 2, 0),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Tight deadlines race the scan; with a generous deadline a search
/// still answers correctly.
#[test]
fn tight_deadlines_answer_200_or_504() {
    let (server, dir) = start_server("deadline-tight", ServeConfig::default());
    let addr = server.addr();

    let resp = request(
        addr,
        "POST",
        "/search",
        &timed_search_body(&row_vector(5, 4), 3, 30_000),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(top_id(&resp), 5);

    // Tight deadlines: every answer is either a
    // completed 200 or a 504 that fed no stage timers. (Whether a given
    // request completes is timing-dependent; the invariant is not.)
    let mut fours = 0u64;
    let mut twos = 0u64;
    let mut client = Client::connect(addr);
    for i in 0..50 {
        client.send(
            "POST",
            "/search",
            &timed_search_body(&row_vector(i % 64, 4), 3, 1),
        );
        match client.read_response().status {
            200 => twos += 1,
            504 => fours += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    use std::sync::atomic::Ordering;
    let m = server.metrics();
    assert_eq!(m.deadline_exceeded.load(Ordering::Relaxed), fours);
    // Stage timers saw exactly the completed searches — the 504s (if
    // any) never finished a scan.
    assert_eq!(
        m.stages.hist(rabitq_metrics::Stage::Merge).count(),
        twos + 1, // +1 for the generous-deadline search above
        "only completed searches feed stage timers"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The 504s and their stage breakdown are scrapeable.
#[test]
fn deadline_counters_surface_in_metrics_and_stats() {
    let (server, dir) = start_server("deadline-metrics", ServeConfig::default());
    let addr = server.addr();

    for _ in 0..3 {
        let resp = late_body_request(
            addr,
            "/search",
            &timed_search_body(&row_vector(1, 4), 2, 5),
            GAP,
        );
        assert_eq!(resp.status, 504);
    }

    let scrape = request(addr, "GET", "/metrics", "");
    assert_eq!(scrape.status, 200);
    rabitq_metrics::prometheus::validate(&scrape.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", scrape.body));
    for needle in [
        "rabitq_deadline_exceeded_total 3",
        "rabitq_deadline_stage_total{stage=\"queue\"} 3",
        "rabitq_deadline_stage_total{stage=\"scan\"} 0",
        "rabitq_cancelled_after_seconds_count 3",
    ] {
        assert!(scrape.body.contains(needle), "missing {needle:?}");
    }

    let stats = request(addr, "GET", "/stats", "").json();
    let metrics = stats.get("metrics").unwrap();
    assert_eq!(
        metrics.get("deadline_exceeded").and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(
        metrics.get("expired_in_queue").and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(
        metrics
            .get("cancelled_after_us")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(3)
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
