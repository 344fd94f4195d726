//! End-to-end server lifecycle: concurrent clients mutating and
//! searching over real sockets, admission-control shedding under
//! saturation, and graceful shutdown that loses no admitted request.

mod common;

use common::*;
use rabitq_serve::{BatchConfig, Json, ServeConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn insert_search_delete_round_trip() {
    let (server, dir) = start_server("roundtrip", ServeConfig::default());
    let addr = server.addr();

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().get("status").and_then(Json::as_str),
        Some("ok")
    );

    // Row 7 finds itself, batched and direct.
    for mode in [Some("batched"), Some("direct"), None] {
        let resp = request(
            addr,
            "POST",
            "/collections/test/search",
            &search_body(&row_vector(7, 4), 3, mode),
        );
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        assert_eq!(top_id(&resp), 7, "mode {mode:?}");
    }

    // Insert a far-away vector; it becomes its own nearest neighbour.
    let outlier = request(
        addr,
        "POST",
        "/insert",
        "{\"vector\":[100.0,100.0,100.0,100.0]}",
    );
    assert_eq!(outlier.status, 200, "{:?}", outlier.body);
    let new_id = outlier
        .json()
        .get("ids")
        .and_then(Json::as_array)
        .and_then(|ids| ids.first().and_then(Json::as_u64))
        .unwrap();
    assert_eq!(new_id, 64);

    let found = request(
        addr,
        "POST",
        "/search",
        &search_body(&[100.0, 100.0, 100.0, 100.0], 1, None),
    );
    assert_eq!(top_id(&found), new_id);

    // Delete it; the same search no longer returns it.
    let deleted = request(addr, "POST", "/delete", &format!("{{\"id\":{new_id}}}"));
    assert_eq!(deleted.status, 200);
    assert_eq!(
        deleted.json().get("deleted").and_then(Json::as_u64),
        Some(1)
    );
    let gone = request(
        addr,
        "POST",
        "/search",
        &search_body(&[100.0, 100.0, 100.0, 100.0], 1, None),
    );
    assert_ne!(top_id(&gone), new_id);

    // Stats reflect the traffic.
    let stats = request(addr, "GET", "/stats", "").json();
    let metrics = stats.get("metrics").unwrap();
    assert_eq!(metrics.get("inserts").and_then(Json::as_u64), Some(1));
    assert_eq!(metrics.get("deletes").and_then(Json::as_u64), Some(1));
    assert!(metrics.get("requests").and_then(Json::as_u64).unwrap() >= 7);
    let coll = stats.get("collections").unwrap().get("test").unwrap();
    assert_eq!(coll.get("dim").and_then(Json::as_u64), Some(4));

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let config = ServeConfig {
        workers: 8,
        batch: BatchConfig {
            linger: Duration::from_micros(500),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("concurrent", config);
    let addr = server.addr();

    // 8 connections, each running a burst of self-lookup searches plus
    // interleaved inserts/deletes of its own private outlier vector.
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for round in 0..10 {
                    let row = (t * 7 + round) % 64;
                    client.send(
                        "POST",
                        "/search",
                        &search_body(&row_vector(row, 4), 3, Some("batched")),
                    );
                    let resp = client.read_response();
                    assert_eq!(resp.status, 200, "{:?}", resp.body);
                    assert_eq!(top_id(&resp), row as u64, "thread {t} round {round}");

                    let base = 1000.0 + t as f32 * 10.0;
                    client.send(
                        "POST",
                        "/insert",
                        &format!("{{\"vector\":[{base},{base},{base},{base}]}}"),
                    );
                    let inserted = client.read_response();
                    assert_eq!(inserted.status, 200, "{:?}", inserted.body);
                    let id = inserted
                        .json()
                        .get("ids")
                        .and_then(Json::as_array)
                        .and_then(|ids| ids.first().and_then(Json::as_u64))
                        .unwrap();
                    client.send("POST", "/delete", &format!("{{\"id\":{id}}}"));
                    let deleted = client.read_response();
                    assert_eq!(deleted.status, 200, "{:?}", deleted.body);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let metrics = server.metrics();
    assert!(
        metrics.batches.load(Ordering::Relaxed) > 0,
        "batching never engaged"
    );
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn saturation_sheds_429_and_shutdown_drains() {
    // Tiny admission queue + long linger: concurrent searches pile up
    // behind a slow batch window, so some must be shed with 429.
    let config = ServeConfig {
        workers: 16,
        batch: BatchConfig {
            max_batch: 2,
            linger: Duration::from_millis(30),
            queue_depth: 2,
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("saturate", config);
    let addr = server.addr();

    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..12)
        .map(|t| {
            let ok = ok.clone();
            let shed = shed.clone();
            std::thread::spawn(move || {
                let resp = request(
                    addr,
                    "POST",
                    "/search",
                    &search_body(&row_vector(t % 64, 4), 2, Some("batched")),
                );
                match resp.status {
                    200 => {
                        assert_eq!(top_id(&resp), (t % 64) as u64);
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    429 => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected status {other}: {:?}", resp.body),
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    assert_eq!(ok + shed, 12, "every request got a response");
    assert!(ok > 0, "saturation must not starve everyone");
    assert!(shed > 0, "queue_depth=2 with 12 clients must shed");
    assert_eq!(server.metrics().shed_overload.load(Ordering::Relaxed), shed);

    // Graceful shutdown with requests still in flight: every client
    // blocked inside the server when the flag flips still gets a full
    // response (200 if admitted, 503 if it lost the race).
    let late: Vec<_> = (0..6)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                client.send(
                    "POST",
                    "/search",
                    &search_body(&row_vector(t, 4), 2, Some("batched")),
                );
                client.read_response_or_close()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    server.shutdown();
    for t in late {
        if let Some(resp) = t.join().unwrap() {
            assert!(
                matches!(resp.status, 200 | 429 | 503),
                "unexpected status {}: {:?}",
                resp.status,
                resp.body
            );
            if resp.status == 200 {
                // An admitted search was fully answered despite shutdown.
                assert!(resp.json().get("neighbors").is_some());
            }
        }
        // None = the connection was still queued (never read) when the
        // server stopped; the client saw a clean close, not a hang.
    }
    std::fs::remove_dir_all(dir).ok();
}
