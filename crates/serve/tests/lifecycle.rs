//! End-to-end server lifecycle: concurrent clients mutating and
//! searching over real sockets, deterministic answers, shedding at a full
//! connection backlog, and graceful shutdown that loses no request a
//! worker read.

mod common;

use common::*;
use rabitq_serve::{Json, ServeConfig, Server};
use rabitq_store::ParallelOptions;
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

    // Row 7 finds itself.
    let resp = request(
        addr,
        "POST",
        "/collections/test/search",
        &search_body(&row_vector(7, 4), 3),
    );
    assert_eq!(resp.status, 200, "{:?}", resp.body);
    assert_eq!(top_id(&resp), 7);

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
        &search_body(&[100.0, 100.0, 100.0, 100.0], 1),
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
        &search_body(&[100.0, 100.0, 100.0, 100.0], 1),
    );
    assert_ne!(top_id(&gone), new_id);

    // The counters reflect the traffic.
    let scrape = request(addr, "GET", "/metrics", "").body;
    assert_eq!(sample(&scrape, "rabitq_inserts_total"), 1.0);
    assert_eq!(sample(&scrape, "rabitq_deletes_total"), 1.0);

    // `/stats` keeps exactly what Prometheus text cannot carry, plus the
    // three keys the perf ledger reads.
    let stats = request(addr, "GET", "/stats", "").json();
    let keys = |j: &Json| match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("not an object: {other:?}"),
    };
    assert_eq!(keys(&stats), ["uptime_ms", "metrics", "collections"]);
    let metrics = stats.get("metrics").unwrap();
    assert_eq!(
        keys(metrics),
        ["requests", "shed_overload", "mean_batch_size"]
    );
    assert!(metrics.get("requests").and_then(Json::as_u64).unwrap() >= 5);
    assert_eq!(metrics.get("shed_overload").and_then(Json::as_u64), Some(0));
    assert_eq!(
        metrics.get("mean_batch_size").and_then(Json::as_f64),
        Some(1.0)
    );
    let collections = stats.get("collections").unwrap();
    assert_eq!(keys(collections), ["test"]);
    let coll = collections.get("test").unwrap();
    assert_eq!(
        keys(coll),
        [
            "dim",
            "rotator",
            "code_bits",
            "degraded",
            "read_only",
            "quarantined_segments",
            "events"
        ]
    );
    assert_eq!(coll.get("dim").and_then(Json::as_u64), Some(4));

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let config = ServeConfig {
        workers: 8,
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
                    client.send("POST", "/search", &search_body(&row_vector(row, 4), 3));
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

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// An HTTP search answers exactly what the engine answers for the same
/// query, `k` and `nprobe` with the serial default seed — ids and
/// distance bits — and the same request twice gets the same answer.
#[test]
fn http_answers_equal_the_engine_bit_for_bit() {
    let (dim, k, nprobe) = (16, 10, 4);
    let (dir, collection) = seeded_collection("bit-identical", dim, 400);
    let reader = collection.reader();
    let server = Server::start(ServeConfig::default(), vec![("test".into(), collection)]).unwrap();
    let addr = server.addr();

    let mut client = Client::connect(addr);
    for i in 0..8 {
        // Dyadic values: exact in the decimal text, in f64 and in f32.
        let query: Vec<f32> = (0..dim)
            .map(|d| ((i * 37 + d * 11) % 64) as f32 * 0.25)
            .collect();
        let want = &reader.search_many(&query, k, nprobe, ParallelOptions::serial())[0];
        let body = search_body(&query, k).replace('}', &format!(",\"nprobe\":{nprobe}}}"));
        let mut answers = Vec::new();
        for _ in 0..2 {
            client.send("POST", "/search", &body);
            let resp = client.read_response();
            assert_eq!(resp.status, 200, "{}", resp.body);
            let got: Vec<(u32, u32)> = resp
                .json()
                .get("neighbors")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|n| {
                    let id = n.get("id").and_then(Json::as_u64).unwrap() as u32;
                    let dist = n.get("distance").and_then(Json::as_f64).unwrap() as f32;
                    (id, dist.to_bits())
                })
                .collect();
            answers.push(got);
        }
        let expected: Vec<(u32, u32)> = want
            .neighbors
            .iter()
            .map(|&(id, dist)| (id, dist.to_bits()))
            .collect();
        assert_eq!(expected.len(), k, "query {i}");
        assert_eq!(
            answers[0], expected,
            "query {i}: HTTP differs from the engine"
        );
        assert_eq!(answers[1], answers[0], "query {i}: a repeat differs");
    }

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// With one worker pinned by a keep-alive connection and the one-slot
/// backlog taken, the next connection is answered `503` at once and
/// counted as an overload shed.
#[test]
fn full_connection_backlog_sheds_503_as_overload() {
    let config = ServeConfig {
        workers: 1,
        conn_backlog: 1,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("backlog", config);
    let addr = server.addr();

    // Pin the only worker: it answers, then waits on this connection.
    let mut pinned = Client::connect(addr);
    pinned.send("GET", "/healthz", "");
    assert_eq!(pinned.read_response().status, 200);

    // Take the backlog slot with a request no worker can read yet.
    let mut queued = Client::connect(addr);
    queued.send("GET", "/stats", "");

    // Accepted in order after `queued`, this one finds the backlog full.
    let mut shed = Client::connect(addr);
    let resp = shed.read_response();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("backlog full"), "{}", resp.body);

    // Release the worker; it serves the queued connection next.
    drop(pinned);
    let stats = queued.read_response();
    assert_eq!(stats.status, 200, "{}", stats.body);
    let metrics = stats.json();
    let metrics = metrics.get("metrics").unwrap();
    assert_eq!(metrics.get("shed_overload").and_then(Json::as_u64), Some(1));
    queued.send("GET", "/metrics", "");
    let scrape = queued.read_response().body;
    assert_eq!(
        sample(&scrape, "rabitq_shed_total{reason=\"overload\"}"),
        1.0
    );
    assert_eq!(
        sample(&scrape, "rabitq_shed_total{reason=\"unavailable\"}"),
        0.0
    );

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn shutdown_drains_in_flight_searches() {
    let (server, dir) = start_server("drain", ServeConfig::default());
    let addr = server.addr();

    // Graceful shutdown with requests still in flight: every client
    // whose request a worker read still gets a full response (200), one
    // still waiting for a worker is answered 503.
    let late: Vec<_> = (0..6)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                client.send("POST", "/search", &search_body(&row_vector(t, 4), 2));
                client.read_response_or_close()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    server.shutdown();
    for t in late {
        if let Some(resp) = t.join().unwrap() {
            assert!(
                matches!(resp.status, 200 | 503),
                "unexpected status {}: {:?}",
                resp.status,
                resp.body
            );
            if resp.status == 200 {
                // A search a worker read was fully answered despite shutdown.
                assert!(resp.json().get("neighbors").is_some());
            }
        }
        // None = the connection never reached a worker's queue before the
        // server stopped; the client saw a clean close, not a hang.
    }
    std::fs::remove_dir_all(dir).ok();
}
