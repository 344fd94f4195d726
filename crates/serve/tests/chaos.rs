//! Socket-level chaos: clients that reset mid-body, slow-loris senders,
//! and impatient clients that disconnect without reading — plus the
//! transient-fault → freeze → auto-thaw cycle driven over HTTP. The
//! invariant under every abuse: the server never hangs, never leaks a
//! worker, and every request it *admits* is answered (observable via the
//! response counters even when the client has already left).

mod common;

use common::{request, row_vector, search_body, start_server, timed_search_body, top_id, Client};
use rabitq_serve::{Json, ServeConfig, Server};
use rabitq_store::{disk_io, Collection, CollectionConfig, FaultIo, FaultKind, FaultScript};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spins until `cond` holds or the bounded wall-clock budget runs out.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Clients that promise a body and vanish mid-way: the request never
/// parses, nothing is admitted, and the worker moves on cleanly.
#[test]
fn reset_mid_body_leaves_the_server_healthy() {
    let (server, dir) = start_server("chaos-reset", ServeConfig::default());
    let addr = server.addr();

    for _ in 0..6 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /search HTTP/1.1\r\ncontent-length: 512\r\n\r\n{\"vec")
            .unwrap();
        stream.flush().unwrap();
        drop(stream); // half a body, then gone
    }

    // The torn requests were never parsed, so they were never admitted —
    // and the server still answers real traffic immediately.
    let resp = request(addr, "POST", "/search", &search_body(&row_vector(2, 4), 3));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(top_id(&resp), 2);

    let m = server.metrics();
    assert_eq!(
        m.server_errors.load(Ordering::Relaxed),
        0,
        "torn uploads are not server errors"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A slow-loris sender drip-feeding a request head is cut off with `408`
/// once it exhausts the partial-timeout budget — it cannot pin a worker.
#[test]
fn slow_loris_partial_head_is_answered_408() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(10),
        partial_timeout_ticks: 3,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("chaos-loris", config);

    let mut client = Client::connect(server.addr());
    client.send_raw(b"POST /search HTTP/1.1\r\ncontent-le");
    // Stall. After ~3 read-timeout ticks the server gives up on us.
    let resp = client.read_response();
    assert_eq!(resp.status, 408, "{}", resp.body);

    // And the worker it occupied is free again for honest clients.
    let resp = request(
        server.addr(),
        "POST",
        "/search",
        &search_body(&row_vector(1, 4), 2),
    );
    assert_eq!(resp.status, 200);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Impatient clients: fully-admitted searches whose clients hang up
/// without reading. Every one of them is still executed (or expired) and
/// *answered* — the response counters account for all of them, and the
/// abandoned work never wedges a worker or shutdown.
#[test]
fn abandoned_requests_are_all_answered_anyway() {
    let config = ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("chaos-abandon", config);
    let addr = server.addr();
    let m = server.metrics();
    let base_requests = m.requests.load(Ordering::Relaxed);

    // 4 patient-deadline clients and 4 with 5 ms deadlines whose body
    // arrives 50 ms after the head; all 8 disconnect without reading
    // their response.
    for t in 0..8 {
        let mut client = Client::connect(addr);
        if t % 2 == 0 {
            let body = timed_search_body(&row_vector(t, 4), 3, 30_000);
            client.send("POST", "/search", &body);
        } else {
            let body = timed_search_body(&row_vector(t, 4), 3, 5);
            client.send_with_body_gap("POST", "/search", &body, Duration::from_millis(50));
        }
        drop(client); // leave before the answer
    }

    // Every admitted request is answered even though nobody is listening:
    // 4 completed (2xx) + 4 deadline-expired (5xx bucket, 504).
    wait_for("all abandoned requests to be answered", || {
        m.requests.load(Ordering::Relaxed) - base_requests >= 8
            && m.ok_responses.load(Ordering::Relaxed) + m.server_errors.load(Ordering::Relaxed) >= 8
    });
    assert_eq!(m.ok_responses.load(Ordering::Relaxed), 4);
    assert_eq!(m.deadline_exceeded.load(Ordering::Relaxed), 4);
    assert_eq!(m.expired_in_queue.load(Ordering::Relaxed), 4);

    // The server is unwedged: live traffic flows and shutdown drains.
    let resp = request(addr, "POST", "/search", &search_body(&row_vector(7, 4), 3));
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The self-healing cycle over HTTP: a scripted transient fault freezes
/// the collection mid-batch (503 + `inserted_ids` resume contract), the
/// script heals, the next mutation thaws it, and the whole story —
/// retries, the flip, the thaw — is scrapeable from `/metrics`.
#[test]
fn transient_fault_freeze_and_thaw_over_http() {
    let dir = std::env::temp_dir().join(format!("chaos-thaw-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = CollectionConfig::new(4);
    config.memtable_capacity = 100;
    config.io_retry_attempts = 0; // freeze on the first write fault
    config.thaw_cooldown = Duration::ZERO; // probe on the next mutation

    // Count the ops a fresh open performs so the script can target the
    // third insert's WAL append precisely.
    let probe_dir = std::env::temp_dir().join(format!("chaos-thaw-ops-{}", std::process::id()));
    std::fs::remove_dir_all(&probe_dir).ok();
    let counting = Arc::new(FaultIo::counting(disk_io()));
    drop(Collection::open_with_io(&probe_dir, config.clone(), counting.clone()).unwrap());
    let at = counting.ops();
    std::fs::remove_dir_all(&probe_dir).ok();

    let io = Arc::new(FaultIo::scripted(
        disk_io(),
        FaultScript::transient(at + 2, 1, FaultKind::Eio),
    ));
    let collection = Collection::open_with_io(&dir, config, io).unwrap();
    let server = Server::start(ServeConfig::default(), vec![("test".into(), collection)]).unwrap();
    let addr = server.addr();

    // A 5-row batch: rows 0 and 1 commit, row 2 hits the fault → 503
    // with the committed prefix in the body.
    let batch_body = "{\"vectors\":[[0,0,0,1],[0,0,0,2],[0,0,0,3],[0,0,0,4],[0,0,0,5]]}";
    let resp = request(addr, "POST", "/insert", batch_body);
    assert_eq!(
        resp.status, 503,
        "retryable freeze, not a 500: {}",
        resp.body
    );
    let inserted: Vec<u64> = resp
        .json()
        .get("inserted_ids")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    assert_eq!(inserted, vec![0, 1], "committed prefix reported");

    let health = request(addr, "GET", "/healthz", "").json();
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded")
    );
    assert_eq!(health.get("read_only").and_then(Json::as_bool), Some(true));

    // Resume from the failure point: the script healed, so this mutation
    // runs the thaw probe, recovers the collection, and commits the rest.
    let resume_body = "{\"vectors\":[[0,0,0,3],[0,0,0,4],[0,0,0,5]]}";
    let resp = request(addr, "POST", "/insert", resume_body);
    assert_eq!(
        resp.status, 200,
        "thaw must let the resume commit: {}",
        resp.body
    );
    let resumed: Vec<u64> = resp
        .json()
        .get("ids")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    assert_eq!(
        resumed,
        vec![2, 3, 4],
        "dense ids: no double-commit, no gap"
    );

    let health = request(addr, "GET", "/healthz", "").json();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    // The cycle is scrapeable: the flip and the thaw both happened.
    let scrape = request(addr, "GET", "/metrics", "");
    rabitq_metrics::prometheus::validate(&scrape.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", scrape.body));
    for needle in [
        "rabitq_store_read_only_flips_total{collection=\"test\"} 1",
        "rabitq_store_thaws_total{collection=\"test\"} 1",
    ] {
        assert!(scrape.body.contains(needle), "missing {needle:?}");
    }
    let stats = request(addr, "GET", "/stats", "").json();
    let store = stats
        .get("collections")
        .and_then(|c| c.get("test"))
        .and_then(|c| c.get("store"))
        .unwrap();
    assert_eq!(store.get("read_only_flips").and_then(Json::as_u64), Some(1));
    assert_eq!(store.get("thaws").and_then(Json::as_u64), Some(1));

    // The journal tells the story in order: read_only, then recovered.
    let events = stats
        .get("collections")
        .and_then(|c| c.get("test"))
        .and_then(|c| c.get("events"))
        .and_then(Json::as_array)
        .unwrap();
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    let ro = kinds.iter().position(|&k| k == "read_only").unwrap();
    let rec = kinds.iter().position(|&k| k == "recovered").unwrap();
    assert!(ro < rec, "freeze precedes recovery: {kinds:?}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
