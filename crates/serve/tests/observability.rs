//! Socket-level tests of the observability surface: `/metrics` scraped
//! under live traffic and validated against the exposition-format
//! checker, `?debug=timings` breakdowns, the slow-query log, the
//! enriched `/healthz`, store metrics in `/metrics` and events in
//! `/stats`.

mod common;

use common::{late_body_request, request, row_vector, sample, search_body, start_server, Client};
use rabitq_serve::{Json, ServeConfig};
use std::time::Duration;

#[test]
fn metrics_scrape_under_live_traffic_is_valid_exposition_text() {
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("metrics", config);
    let addr = server.addr();

    // Live traffic on several connections: searches, inserts, deletes,
    // and a client error.
    let writers: Vec<std::thread::JoinHandle<()>> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..20 {
                    client.send("POST", "/search", &search_body(&row_vector(i, 4), 3));
                    assert_eq!(client.read_response().status, 200);
                }
            })
        })
        .collect();
    request(addr, "POST", "/insert", "{\"vector\":[0.5,0.5,0.5,0.5]}");
    request(addr, "POST", "/delete", "{\"id\":0}");
    request(addr, "POST", "/search", "{}"); // 400: missing vector

    // Scrape mid-traffic: the text must already be valid.
    let mid = request(addr, "GET", "/metrics", "");
    assert_eq!(mid.status, 200);
    rabitq_metrics::prometheus::validate(&mid.body)
        .unwrap_or_else(|e| panic!("mid-traffic scrape invalid: {e}\n{}", mid.body));

    for w in writers {
        w.join().unwrap();
    }

    let scrape = request(addr, "GET", "/metrics", "");
    assert_eq!(scrape.status, 200);
    let series = rabitq_metrics::prometheus::validate(&scrape.body)
        .unwrap_or_else(|e| panic!("final scrape invalid: {e}\n{}", scrape.body));
    assert!(series > 40, "expected a rich scrape, got {series} series");

    // Every advertised family is present: server edge, stage timers,
    // per-collection store, info gauges.
    for needle in [
        "rabitq_requests_total",
        "rabitq_responses_total{class=\"2xx\"}",
        "rabitq_responses_total{class=\"4xx\"}",
        "rabitq_shed_total{reason=\"overload\"}",
        "rabitq_search_latency_seconds_bucket",
        "rabitq_search_stage_seconds_bucket{stage=\"scan\"",
        "rabitq_search_stage_seconds_count{stage=\"rerank\"",
        "rabitq_store_wal_appends_total{collection=\"test\"}",
        "rabitq_store_seals_total{collection=\"test\"}",
        "rabitq_collection_live_vectors{collection=\"test\"}",
        "rabitq_events_recorded_total{collection=\"test\"}",
        "rabitq_build_info{version=\"",
        "rabitq_kernel_info{",
        "distance_kernel=\"",
    ] {
        assert!(scrape.body.contains(needle), "missing {needle:?}");
    }
    // Every search is one engine call on its worker: no batch families.
    for gone in ["rabitq_batch", "rabitq_collection_queued_searches"] {
        assert!(!scrape.body.contains(gone), "unexpected {gone:?}");
    }
    // 60 searches were answered; each records one sample per stage.
    assert!(
        scrape
            .body
            .contains("rabitq_search_latency_seconds_count 6"),
        "latency count missing:\n{}",
        scrape.body
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn debug_timings_flag_adds_a_stage_breakdown() {
    let (server, dir) = start_server("timings", ServeConfig::default());
    let addr = server.addr();

    let plain = request(addr, "POST", "/search", &search_body(&row_vector(1, 4), 3));
    assert_eq!(plain.status, 200);
    assert!(plain.json().get("timings_us").is_none());

    let debugged = request(
        addr,
        "POST",
        "/search?debug=timings",
        &search_body(&row_vector(1, 4), 3),
    );
    assert_eq!(debugged.status, 200);
    let body = debugged.json();
    let timings = body.get("timings_us").expect("timings_us present");
    for stage in ["rotate", "lut_build", "scan", "rerank", "merge"] {
        assert!(timings.get(stage).is_some(), "missing stage {stage}");
    }
    let stage_total = timings
        .get("stage_total")
        .and_then(Json::as_u64)
        .expect("stage_total");
    let elapsed = timings
        .get("elapsed")
        .and_then(Json::as_u64)
        .expect("elapsed");
    // Stages are measured inside the edge window (single-threaded path),
    // so their sum cannot exceed what the edge observed.
    assert!(
        stage_total <= elapsed,
        "stage_total {stage_total}us > elapsed {elapsed}us"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_query_log_and_stats_surface_store_metrics_and_events() {
    let config = ServeConfig {
        slow_query_ms: 1,
        events_capacity: 8,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("slowlog", config);
    let addr = server.addr();

    // Each body arrives 3 ms after its head, and a search's latency runs
    // from the head, so every request below is "slow" however fast the
    // engine answers.
    for i in 0..16 {
        let resp = late_body_request(
            addr,
            "/search",
            &search_body(&row_vector(i, 4), 5),
            Duration::from_millis(3),
        );
        assert_eq!(resp.status, 200);
    }

    let stats = request(addr, "GET", "/stats", "").json();
    let coll = stats
        .get("collections")
        .and_then(|c| c.get("test"))
        .unwrap();
    // The operator can see which rotation each collection pays for.
    assert_eq!(
        coll.get("rotator").and_then(Json::as_str),
        Some("RandomizedHadamard")
    );
    assert_eq!(coll.get("code_bits").and_then(Json::as_u64), Some(64));
    let events = coll.get("events").and_then(Json::as_array).unwrap();
    assert!(!events.is_empty());
    assert!(
        events.len() <= 8,
        "journal capacity must bound /stats events, got {}",
        events.len()
    );
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    // Sixteen slow queries through an 8-slot ring: only slow queries are
    // left, eviction happened, and sequence numbers kept climbing.
    assert_eq!(kinds, ["slow_query"; 8], "ring after 16 slow queries");
    let seqs: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("seq").and_then(Json::as_u64))
        .collect();
    assert!(seqs[0] >= 8, "oldest retained seq {} < 8", seqs[0]);
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "seqs {seqs:?}");
    // Each slow query names its parameters and every stage, in order.
    for event in events {
        let detail = event.get("detail").and_then(Json::as_str).unwrap();
        let words: Vec<&str> = detail.split(' ').collect();
        let elapsed = words[0].strip_suffix("us");
        assert!(
            elapsed.is_some_and(|n| n.parse::<u64>().is_ok()),
            "{detail}"
        );
        assert_eq!(words[1..4], ["k=5", "nprobe=32", "stages_us"], "{detail}");
        let stages: Vec<&str> = words[4..]
            .iter()
            .map(|w| {
                let (name, us) = w.split_once('=').expect(detail);
                assert!(us.parse::<u64>().is_ok(), "{detail}");
                name
            })
            .collect();
        assert_eq!(stages, ["rotate", "lut_build", "scan", "rerank", "merge"]);
    }

    let scrape = request(addr, "GET", "/metrics", "").body;
    // The seeded collection WAL'd 64 inserts and sealed at least once.
    assert_eq!(
        sample(
            &scrape,
            "rabitq_store_wal_appends_total{collection=\"test\"}"
        ),
        64.0
    );
    assert!(sample(&scrape, "rabitq_store_seals_total{collection=\"test\"}") >= 1.0);
    assert_eq!(
        sample(&scrape, "rabitq_search_stage_seconds_count{stage=\"scan\"}"),
        16.0
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_reports_uptime_version_and_kernel() {
    let (server, dir) = start_server("healthz", ServeConfig::default());
    let body = request(server.addr(), "GET", "/healthz", "").json();
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
    assert!(body.get("uptime_ms").and_then(Json::as_u64).is_some());
    assert_eq!(
        body.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let kernel = body.get("kernel").and_then(Json::as_str).unwrap();
    assert!(
        ["scalar", "avx2", "avx512", "neon"].contains(&kernel),
        "unexpected kernel {kernel:?}"
    );
    let distance_kernel = body.get("distance_kernel").and_then(Json::as_str).unwrap();
    assert_eq!(distance_kernel, rabitq_core::hw::active_distance_kernel());
    if std::env::var("RABITQ_FORCE_KERNEL").is_ok_and(|name| name.trim() == "scalar") {
        assert_eq!((kernel, distance_kernel), ("scalar", "portable"));
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
