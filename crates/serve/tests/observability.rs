//! Socket-level tests of the observability surface: `/metrics` scraped
//! under live traffic and validated against the exposition-format
//! checker, `?debug=timings` breakdowns, the slow-query log, the
//! enriched `/healthz`, and store metrics/events in `/stats`.

mod common;

use common::{request, row_vector, search_body, start_server, Client};
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

    // Live traffic on several connections: batched + direct searches,
    // inserts, deletes, and a client error.
    let writers: Vec<std::thread::JoinHandle<()>> = (0..3)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..20 {
                    let mode = if (t + i) % 2 == 0 {
                        "batched"
                    } else {
                        "direct"
                    };
                    client.send(
                        "POST",
                        "/search",
                        &search_body(&row_vector(i, 4), 3, Some(mode)),
                    );
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

    // Every advertised family is present: server edge, batcher, stage
    // timers, per-collection store, info gauges.
    for needle in [
        "rabitq_requests_total",
        "rabitq_responses_total{class=\"2xx\"}",
        "rabitq_responses_total{class=\"4xx\"}",
        "rabitq_batches_total",
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

    let plain = request(
        addr,
        "POST",
        "/search",
        &search_body(&row_vector(1, 4), 3, None),
    );
    assert_eq!(plain.status, 200);
    assert!(plain.json().get("timings_us").is_none());

    let debugged = request(
        addr,
        "POST",
        "/search?debug=timings",
        &search_body(&row_vector(1, 4), 3, None),
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
    let mut config = ServeConfig {
        slow_query_ms: 1,
        events_capacity: 8,
        ..ServeConfig::default()
    };
    // A lone batched search waits out the whole linger before dispatch,
    // so every request below is "slow" however fast the engine answers.
    config.batch.linger = Duration::from_millis(3);
    let (server, dir) = start_server("slowlog", config);
    let addr = server.addr();

    for i in 0..16 {
        let resp = request(
            addr,
            "POST",
            "/search",
            &search_body(&row_vector(i, 4), 5, Some("batched")),
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
    let store = coll.get("store").expect("store metrics in /stats");
    // The seeded collection WAL'd 64 inserts and sealed at least once.
    assert_eq!(store.get("wal_appends").and_then(Json::as_u64), Some(64));
    assert!(store.get("seals").and_then(Json::as_u64).unwrap() >= 1);
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

    let stages = stats
        .get("metrics")
        .and_then(|m| m.get("search_stages_us"))
        .expect("aggregated stage timers in /stats");
    assert_eq!(
        stages
            .get("scan")
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64),
        Some(16)
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
