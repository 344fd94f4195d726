//! Degraded-mode serving: a collection that froze read-only (write-path
//! storage fault) or opened degraded (quarantined segment) must keep
//! answering searches, reject mutations with `503` (not `500`), and
//! surface its state through `/healthz` and `/stats`.

mod common;

use common::{row_vector, search_body, seeded_collection, top_id, Client};
use rabitq_serve::{Json, ServeConfig, Server};
use rabitq_store::Collection;

#[test]
fn read_only_collection_serves_searches_and_rejects_writes_with_503() {
    let (dir, collection) = seeded_collection("readonly", 4, 64);
    collection.set_read_only("simulated storage fault");
    let server = Server::start(ServeConfig::default(), vec![("test".into(), collection)]).unwrap();
    let mut client = Client::connect(server.addr());

    // Liveness: still up, but distinctly not healthy.
    client.send("GET", "/healthz", "");
    let resp = client.read_response();
    assert_eq!(resp.status, 200, "read-only still serves: {}", resp.body);
    let health = resp.json();
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded")
    );
    assert_eq!(health.get("read_only").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("degraded").and_then(Json::as_bool), Some(false));

    // Searches answer normally (row 3 is its own nearest neighbour).
    client.send("POST", "/search", &search_body(&row_vector(3, 4), 3));
    let resp = client.read_response();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(top_id(&resp), 3);

    // Mutations are shed as retryable, with the reason in the body.
    client.send("POST", "/insert", "{\"vector\":[1,2,3,4]}");
    let resp = client.read_response();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("read-only"), "{}", resp.body);
    client.send("POST", "/delete", "{\"id\":1}");
    let resp = client.read_response();
    assert_eq!(resp.status, 503, "{}", resp.body);

    // And the shed shows up in /stats, per collection and as a counter.
    client.send("GET", "/stats", "");
    let stats = client.read_response().json();
    let metrics = stats.get("metrics").unwrap();
    assert_eq!(
        metrics.get("rejected_read_only").and_then(Json::as_u64),
        Some(2)
    );
    let coll = stats.get("collections").unwrap().get("test").unwrap();
    assert_eq!(coll.get("read_only").and_then(Json::as_bool), Some(true));
    assert_eq!(coll.get("degraded").and_then(Json::as_bool), Some(false));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_segment_surfaces_as_degraded_but_writable() {
    let (dir, collection) = seeded_collection("quarantine", 4, 64);
    let n_rows = 64;
    assert!(collection.n_segments() >= 1);
    drop(collection);

    // Corrupt the first sealed segment on disk, then reopen: the store
    // quarantines it and comes up degraded.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".rbq"))
        })
        .expect("a sealed segment exists");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim, &bytes).unwrap();

    let collection = Collection::open_existing(&dir).unwrap();
    let health = collection.health();
    assert!(health.degraded && !health.read_only, "{health:?}");
    assert!(collection.len() < n_rows, "quarantine dropped rows");

    let server = Server::start(ServeConfig::default(), vec![("test".into(), collection)]).unwrap();
    let mut client = Client::connect(server.addr());

    client.send("GET", "/healthz", "");
    let health = client.read_response().json();
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded")
    );
    assert_eq!(health.get("degraded").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("read_only").and_then(Json::as_bool), Some(false));

    client.send("GET", "/stats", "");
    let stats = client.read_response().json();
    let coll = stats.get("collections").unwrap().get("test").unwrap();
    assert_eq!(coll.get("degraded").and_then(Json::as_bool), Some(true));
    assert_eq!(
        coll.get("quarantined_segments").and_then(Json::as_u64),
        Some(1)
    );

    // The survivors keep serving…
    client.send("POST", "/search", &search_body(&row_vector(60, 4), 3));
    let resp = client.read_response();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(!resp
        .json()
        .get("neighbors")
        .and_then(Json::as_array)
        .unwrap()
        .is_empty());

    // …and, unlike read-only, a degraded collection still accepts writes.
    client.send("POST", "/insert", "{\"vector\":[9,9,9,9]}");
    let resp = client.read_response();
    assert_eq!(resp.status, 200, "{}", resp.body);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
