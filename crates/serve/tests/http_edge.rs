//! HTTP protocol edge cases over real sockets: oversized bodies,
//! truncated requests, unknown routes, and keep-alive pipelining.

mod common;

use common::*;
use rabitq_serve::{Json, ServeConfig};
use std::time::Duration;

#[test]
fn oversized_body_is_rejected_with_413() {
    let config = ServeConfig {
        max_body: 256,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("oversized", config);

    let huge = format!("{{\"vector\":[{}]}}", "0.5,".repeat(300) + "0.5");
    assert!(huge.len() > 256);
    let resp = request(server.addr(), "POST", "/search", &huge);
    assert_eq!(resp.status, 413, "{:?}", resp.body);

    // The 413 closes that connection; a fresh one serves normally.
    let ok = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(ok.status, 200);

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn truncated_request_times_out_with_408() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(10),
        partial_timeout_ticks: 3,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("truncated", config);

    // Half a request head, then silence: the server answers 408 and
    // closes instead of pinning the worker.
    let mut client = Client::connect(server.addr());
    client.send_raw(b"POST /search HTTP/1.1\r\ncontent-le");
    match client.read_response_or_close() {
        Some(resp) => assert_eq!(resp.status, 408, "{:?}", resp.body),
        None => panic!("expected a 408, got a silent close"),
    }

    // A request promising more body than it sends also times out.
    let mut client = Client::connect(server.addr());
    client.send_raw(b"POST /search HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"vec");
    match client.read_response_or_close() {
        Some(resp) => assert_eq!(resp.status, 408, "{:?}", resp.body),
        None => panic!("expected a 408, got a silent close"),
    }

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn unknown_routes_and_methods() {
    let (server, dir) = start_server("routes", ServeConfig::default());
    let addr = server.addr();

    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(
        request(addr, "POST", "/collections/ghost/search", "{}").status,
        404
    );
    assert_eq!(
        request(addr, "POST", "/collections/test/purge", "{}").status,
        404
    );
    // Wrong method on a real route.
    assert_eq!(request(addr, "POST", "/healthz", "").status, 405);
    assert_eq!(request(addr, "GET", "/search", "").status, 405);
    // Malformed JSON body on a real route.
    let bad = request(addr, "POST", "/search", "{\"vector\": [0.1,");
    assert_eq!(bad.status, 400);
    // Wrong dimensionality.
    let short = request(addr, "POST", "/search", "{\"vector\": [0.1]}");
    assert_eq!(short.status, 400);
    assert!(short.body.contains("dimension"), "{:?}", short.body);

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn oversized_k_and_nprobe_are_rejected_not_allocated() {
    let config = ServeConfig {
        max_k: 100,
        max_nprobe: 64,
        ..ServeConfig::default()
    };
    let (server, dir) = start_server("clamp", config);
    let addr = server.addr();

    // A hostile k (would size a ~petabyte TopK heap if it got through)
    // is a 400, not an allocation.
    let vec_json = search_body(&row_vector(0, 4), 1);
    let huge_k = vec_json.replace("\"k\":1", "\"k\":1000000000000000");
    let resp = request(addr, "POST", "/search", &huge_k);
    assert_eq!(resp.status, 400, "{:?}", resp.body);
    assert!(resp.body.contains("1..=100"), "{:?}", resp.body);

    let huge_nprobe = vec_json.replace("\"k\":1", "\"k\":1,\"nprobe\":999999");
    let resp = request(addr, "POST", "/search", &huge_nprobe);
    assert_eq!(resp.status, 400, "{:?}", resp.body);

    // At the bound is fine.
    let at_max = vec_json.replace("\"k\":1", "\"k\":100,\"nprobe\":64");
    let resp = request(addr, "POST", "/search", &at_max);
    assert_eq!(resp.status, 200, "{:?}", resp.body);

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn keep_alive_pipelining_answers_in_order() {
    let (server, dir) = start_server("pipeline", ServeConfig::default());

    // Three requests written back-to-back before reading anything; the
    // responses come back complete and in order on the same connection.
    let mut client = Client::connect(server.addr());
    let search = search_body(&row_vector(3, 4), 1);
    let batch: String = [
        "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n".to_string(),
        format!(
            "POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{search}",
            search.len()
        ),
        "GET /stats HTTP/1.1\r\nhost: t\r\n\r\n".to_string(),
    ]
    .concat();
    client.send_raw(batch.as_bytes());

    let health = client.read_response();
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().get("status").and_then(Json::as_str),
        Some("ok")
    );

    let found = client.read_response();
    assert_eq!(found.status, 200);
    assert_eq!(top_id(&found), 3);

    let stats = client.read_response();
    assert_eq!(stats.status, 200);
    assert!(stats.json().get("metrics").is_some());

    // The connection is still usable afterwards.
    client.send("GET", "/healthz", "");
    assert_eq!(client.read_response().status, 200);

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}
