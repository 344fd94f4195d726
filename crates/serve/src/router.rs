//! Route dispatch and the JSON API handlers.
//!
//! | Route | Method | Body | Response |
//! |---|---|---|---|
//! | `/healthz` | GET | — | `{"status":"ok"|"degraded"|"draining","read_only":…,"degraded":…,"draining":…,"uptime_ms":…,"version":…,"kernel":…,"distance_kernel":…}` |
//! | `/stats` | GET | — | `{"uptime_ms","metrics":{"requests","shed_overload","mean_batch_size"},"collections":{name:{"dim","rotator","code_bits","degraded","read_only","quarantined_segments","events"}}}` |
//! | `/metrics` | GET | — | every count and duration, as Prometheus text (`text/plain; version=0.0.4`) |
//! | `/collections/:name/search` | POST | `{"vector":[…], "k"?, "nprobe"?, "timeout_ms"?}` | `{"neighbors":[{"id","distance"}…],…}`; `?debug=timings` adds `timings_us` |
//! | `/collections/:name/insert` | POST | `{"vector":[…]}` or `{"vectors":[[…]…]}` | `{"ids":[…]}` |
//! | `/collections/:name/delete` | POST | `{"id":n}` or `{"ids":[…]}` | `{"deleted":n}` |
//! | `/search`, `/insert`, `/delete` | POST | as above | against the default collection |
//!
//! A search runs on the connection worker that parsed it, as one
//! `search_many_cancellable` call with one query and one token, always
//! with the same seed: the same request gets the same answer, bit for
//! bit.
//!
//! `"timeout_ms"` sets the search's end-to-end deadline, measured from
//! [`Request::received`] (default `ServeConfig::default_timeout_ms`,
//! clamped to `max_timeout_ms`; `0` disables). An expired search is
//! answered `504`: refused before the scan began when its deadline has
//! already passed, otherwise cooperatively cancelled mid-scan at the next
//! checkpoint.
//!
//! A collection that opened **degraded** (quarantined segments) or froze
//! **read-only** (write-path storage fault) keeps serving searches;
//! `/healthz` stays `200` but reports `"degraded"` so orchestrators can
//! distinguish "up but wounded" from healthy, and mutations against a
//! read-only collection are answered `503` (retryable elsewhere) rather
//! than `500`.

use crate::http::{Request, Response};
use crate::json::Json;
use crate::json_obj;
use crate::server::{ServedCollection, ServerState};
use rabitq_core::hw;
use rabitq_ivf::SearchResult;
use rabitq_metrics::{EventJournal, PromEncoder, Stage, StageNanos};
use rabitq_store::{CancelToken, ParallelOptions, SearchOutcome, StoreMetrics};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Dispatches one request.
pub(crate) fn handle(state: &ServerState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => method(req, "GET", |_| healthz(state)),
        ["stats"] => method(req, "GET", |_| stats(state)),
        ["metrics"] => method(req, "GET", |_| metrics_text(state)),
        ["search"] => method(req, "POST", |r| search(state, default(state), r)),
        ["insert"] => method(req, "POST", |r| insert(state, default(state), r)),
        ["delete"] => method(req, "POST", |r| delete(state, default(state), r)),
        ["collections", name, action] => {
            let Some(served) = state.collections.get(*name) else {
                return Response::error(404, &format!("unknown collection {name:?}"));
            };
            match *action {
                "search" => method(req, "POST", |r| search(state, served, r)),
                "insert" => method(req, "POST", |r| insert(state, served, r)),
                "delete" => method(req, "POST", |r| delete(state, served, r)),
                _ => Response::error(404, &format!("unknown action {action:?}")),
            }
        }
        _ => Response::error(404, &format!("no route for {:?}", req.path)),
    }
}

fn default(state: &ServerState) -> &ServedCollection {
    &state.collections[&state.default_name]
}

fn method(req: &Request, want: &str, f: impl FnOnce(&Request) -> Response) -> Response {
    if req.method == want {
        f(req)
    } else {
        Response::error(405, &format!("use {want} for this route"))
    }
}

/// Liveness with nuance: the server keeps answering `200` while any
/// collection is degraded or read-only — it *is* serving — but the body
/// says `"degraded"` so a probe can tell wounded from healthy, and
/// `"draining"` during graceful shutdown so load balancers stop routing
/// new traffic while in-flight requests finish.
fn healthz(state: &ServerState) -> Response {
    let mut degraded = false;
    let mut read_only = false;
    for served in state.collections.values() {
        let health = served.reader.health();
        degraded |= health.degraded;
        read_only |= health.read_only;
    }
    let draining = state.shutdown.load(Ordering::Relaxed);
    let status = if draining {
        "draining"
    } else if degraded || read_only {
        "degraded"
    } else {
        "ok"
    };
    let body = json_obj! {
        "status" => status,
        "degraded" => degraded,
        "read_only" => read_only,
        "draining" => draining,
        "uptime_ms" => state.started.elapsed().as_millis() as u64,
        "version" => env!("CARGO_PKG_VERSION"),
        "kernel" => hw::active_kernel(),
        "distance_kernel" => hw::active_distance_kernel()
    };
    Response::json(200, body.encode())
}

/// `/stats`: only what Prometheus text cannot carry — each collection's
/// configuration, health and event journal — plus the three `metrics`
/// keys the perf ledger reads. Every count and duration is in `/metrics`.
fn stats(state: &ServerState) -> Response {
    let collections = Json::Obj(
        state
            .collections
            .iter()
            .map(|(name, served)| {
                let dim = served.reader.dim();
                let health = served.reader.health();
                let rabitq = served.reader.rabitq();
                (
                    name.clone(),
                    json_obj! {
                        "dim" => dim,
                        "rotator" => format!("{:?}", rabitq.rotator),
                        "code_bits" => rabitq.rotator.code_length(dim, rabitq.padded_dim),
                        "degraded" => health.degraded,
                        "read_only" => health.read_only,
                        "quarantined_segments" => health.quarantined_segments,
                        "events" => events_json(&served.reader.metrics().journal)
                    },
                )
            })
            .collect(),
    );
    let body = json_obj! {
        "uptime_ms" => state.started.elapsed().as_millis() as u64,
        "metrics" => state.metrics.to_json(),
        "collections" => collections
    };
    Response::json(200, body.encode())
}

/// `/metrics`: the whole observability surface — server edge,
/// per-collection store, and search-stage metrics — in Prometheus text
/// exposition format (hand-rolled encoder, no dependency).
fn metrics_text(state: &ServerState) -> Response {
    let m = &state.metrics;
    let mut enc = PromEncoder::new();
    enc.gauge(
        "rabitq_uptime_seconds",
        "Seconds since the server started.",
        &[],
        state.started.elapsed().as_secs_f64(),
    );
    enc.counter(
        "rabitq_requests_total",
        "Requests fully parsed off a connection.",
        &[],
        m.requests.load(Ordering::Relaxed),
    );
    for (class, counter) in [
        ("2xx", &m.ok_responses),
        ("4xx", &m.client_errors),
        ("5xx", &m.server_errors),
    ] {
        enc.counter(
            "rabitq_responses_total",
            "Responses by status class.",
            &[("class", class)],
            counter.load(Ordering::Relaxed),
        );
    }
    for (reason, counter) in [
        ("overload", &m.shed_overload),
        ("unavailable", &m.shed_unavailable),
    ] {
        enc.counter(
            "rabitq_shed_total",
            "Connections answered 503 without being read: backlog full \
             (overload) or shutting down (unavailable).",
            &[("reason", reason)],
            counter.load(Ordering::Relaxed),
        );
    }
    enc.counter(
        "rabitq_rejected_read_only_total",
        "Mutations rejected because the collection is read-only.",
        &[],
        m.rejected_read_only.load(Ordering::Relaxed),
    );
    enc.counter(
        "rabitq_deadline_exceeded_total",
        "Searches answered 504 because their deadline passed.",
        &[],
        m.deadline_exceeded.load(Ordering::Relaxed),
    );
    for (stage, counter) in [
        ("queue", &m.expired_in_queue),
        ("scan", &m.cancelled_mid_scan),
    ] {
        enc.counter(
            "rabitq_deadline_stage_total",
            "Where deadline-expired searches were cancelled: expired \
             before the scan began (queue), or cooperatively mid-scan.",
            &[("stage", stage)],
            counter.load(Ordering::Relaxed),
        );
    }
    enc.histogram_us(
        "rabitq_cancelled_after_seconds",
        "Time a deadline-exceeded search had consumed when its cancellation was observed.",
        &[],
        &m.cancelled_after,
    );
    enc.counter(
        "rabitq_inserts_total",
        "Vectors inserted.",
        &[],
        m.inserts.load(Ordering::Relaxed),
    );
    enc.counter(
        "rabitq_deletes_total",
        "Tombstones applied.",
        &[],
        m.deletes.load(Ordering::Relaxed),
    );
    enc.histogram_us(
        "rabitq_search_latency_seconds",
        "End-to-end search latency (request head parsed to response ready).",
        &[],
        &m.search_latency,
    );
    for &stage in Stage::ALL.iter() {
        enc.histogram_us(
            "rabitq_search_stage_seconds",
            "Per-query time spent in each search pipeline stage.",
            &[("stage", stage.name())],
            m.stages.hist(stage),
        );
    }

    for (name, served) in &state.collections {
        let store = served.reader.metrics();
        let snapshot = served.reader.snapshot();
        let health = served.reader.health();
        let labels: &[(&str, &str)] = &[("collection", name.as_str())];
        enc.gauge(
            "rabitq_collection_live_vectors",
            "Live vectors in the latest snapshot.",
            labels,
            snapshot.len() as f64,
        );
        enc.gauge(
            "rabitq_collection_segments",
            "Sealed segments in the latest snapshot.",
            labels,
            snapshot.n_segments() as f64,
        );
        enc.gauge(
            "rabitq_collection_memtable_rows",
            "Rows in the latest snapshot's memtable view.",
            labels,
            snapshot.memtable_len() as f64,
        );
        enc.gauge(
            "rabitq_collection_degraded",
            "1 when segments were quarantined at open.",
            labels,
            u8::from(health.degraded).into(),
        );
        enc.gauge(
            "rabitq_collection_read_only",
            "1 when mutations are frozen.",
            labels,
            u8::from(health.read_only).into(),
        );
        for (metric, help, counter) in [
            (
                "rabitq_store_wal_appends_total",
                "WAL records appended.",
                &store.wal_appends,
            ),
            (
                "rabitq_store_wal_syncs_total",
                "Explicit WAL fsyncs.",
                &store.wal_syncs,
            ),
            (
                "rabitq_store_seals_total",
                "Memtable seals completed.",
                &store.seals,
            ),
            (
                "rabitq_store_segment_opens_total",
                "Segment files opened.",
                &store.segment_opens,
            ),
            (
                "rabitq_store_compactions_total",
                "Compactions completed.",
                &store.compactions,
            ),
            (
                "rabitq_store_compaction_bytes_in_total",
                "Live vector bytes read by compactions.",
                &store.compaction_bytes_in,
            ),
            (
                "rabitq_store_compaction_bytes_out_total",
                "Segment bytes written by compactions.",
                &store.compaction_bytes_out,
            ),
            (
                "rabitq_store_quarantines_total",
                "Segments quarantined at open.",
                &store.quarantines,
            ),
            (
                "rabitq_store_read_only_flips_total",
                "Healthy-to-read-only transitions.",
                &store.read_only_flips,
            ),
            (
                "rabitq_store_io_retries_total",
                "Transient write-path I/O faults absorbed by backoff-retry.",
                &store.io_retries,
            ),
            (
                "rabitq_store_thaws_total",
                "Read-only-to-healthy recoveries after a successful thaw probe.",
                &store.thaws,
            ),
            (
                "rabitq_store_publishes_total",
                "Snapshots published.",
                &store.publishes,
            ),
        ] {
            enc.counter(metric, help, labels, StoreMetrics::get(counter));
        }
        for (metric, help, hist) in [
            (
                "rabitq_store_wal_append_seconds",
                "WAL append duration.",
                &store.wal_append_us,
            ),
            (
                "rabitq_store_wal_sync_seconds",
                "WAL fsync duration.",
                &store.wal_sync_us,
            ),
            (
                "rabitq_store_seal_seconds",
                "Memtable seal duration.",
                &store.seal_us,
            ),
            (
                "rabitq_store_segment_open_seconds",
                "Segment open duration.",
                &store.segment_open_us,
            ),
            (
                "rabitq_store_compaction_seconds",
                "Compaction duration.",
                &store.compaction_us,
            ),
        ] {
            enc.histogram_us(metric, help, labels, hist);
        }
        enc.counter(
            "rabitq_events_recorded_total",
            "Events pushed into the journal since open.",
            labels,
            store.journal.total_recorded(),
        );
        enc.counter(
            "rabitq_events_dropped_total",
            "Events evicted from the bounded journal.",
            labels,
            store.journal.dropped(),
        );
    }

    enc.info(
        "rabitq_build_info",
        "Build metadata.",
        &[("version", env!("CARGO_PKG_VERSION"))],
    );
    let features = hw::cpu_features().join(",");
    let cores = hw::cores().to_string();
    enc.info(
        "rabitq_kernel_info",
        "Active fastscan and float-distance kernels, detected CPU features.",
        &[
            ("kernel", hw::active_kernel()),
            ("distance_kernel", hw::active_distance_kernel()),
            ("cpu_features", &features),
            ("cores", &cores),
        ],
    );
    Response {
        status: 200,
        body: enc.render().into_bytes(),
        content_type: "text/plain; version=0.0.4",
        close: false,
    }
}

/// The event journal (oldest first) as a `/stats` fragment.
fn events_json(journal: &EventJournal) -> Json {
    Json::Arr(
        journal
            .recent()
            .into_iter()
            .map(|e| {
                json_obj! {
                    "seq" => e.seq,
                    "ts_ms" => e.ts_ms,
                    "kind" => e.kind,
                    "detail" => e.detail
                }
            })
            .collect(),
    )
}

/// Parses the request body as a JSON object, or answers `400`.
fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(Response::error(400, "empty body; send a JSON object"));
    }
    Json::parse(text).map_err(|e| Response::error(400, &e.to_string()))
}

/// Extracts a vector of `dim` floats from a JSON array.
fn parse_vector(value: &Json, dim: usize) -> Result<Vec<f32>, String> {
    let items = value
        .as_array()
        .ok_or_else(|| "vector must be a JSON array of numbers".to_string())?;
    if items.len() != dim {
        return Err(format!(
            "vector has {} dimensions, collection expects {dim}",
            items.len()
        ));
    }
    items
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|f| f as f32)
                .ok_or_else(|| "vector elements must be numbers".to_string())
        })
        .collect()
}

fn search(state: &ServerState, served: &ServedCollection, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let dim = served.reader.dim();
    let Some(vector_json) = body.get("vector") else {
        return Response::error(400, "missing \"vector\"");
    };
    let query = match parse_vector(vector_json, dim) {
        Ok(q) => q,
        Err(msg) => return Response::error(400, &msg),
    };
    let k = match optional_usize(&body, "k", state.config.default_k, state.config.max_k) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let nprobe = match optional_usize(
        &body,
        "nprobe",
        state.config.default_nprobe,
        state.config.max_nprobe,
    ) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let timeout_ms = match body.get("timeout_ms") {
        None => state.config.default_timeout_ms,
        Some(v) => match v.as_u64() {
            Some(n) => n,
            None => {
                return Response::error(400, "\"timeout_ms\" must be a non-negative integer");
            }
        },
    };
    let timeout_ms = if state.config.max_timeout_ms > 0 && timeout_ms > 0 {
        timeout_ms.min(state.config.max_timeout_ms)
    } else {
        timeout_ms
    };
    let token = if timeout_ms > 0 {
        CancelToken::with_deadline(req.received + Duration::from_millis(timeout_ms))
    } else {
        CancelToken::none()
    };

    let outcome = if token.is_cancelled() {
        state
            .metrics
            .expired_in_queue
            .fetch_add(1, Ordering::Relaxed);
        SearchOutcome::Cancelled
    } else {
        let outcome = served
            .reader
            .snapshot()
            .search_many_cancellable(&query, k, nprobe, ParallelOptions::serial(), &[token])
            .pop()
            .expect("one query, one outcome");
        if outcome.is_cancelled() {
            state
                .metrics
                .cancelled_mid_scan
                .fetch_add(1, Ordering::Relaxed);
        }
        outcome
    };
    let elapsed = req.received.elapsed();
    let SearchOutcome::Done(result) = outcome else {
        state
            .metrics
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        state.metrics.cancelled_after.record(elapsed);
        return Response::error(504, "deadline exceeded");
    };
    state.metrics.search_latency.record(elapsed);
    state.metrics.stages.record(&result.stages);
    if state.config.slow_query_ms > 0 && elapsed.as_millis() as u64 >= state.config.slow_query_ms {
        let stages: String = Stage::ALL
            .iter()
            .map(|&s| format!(" {}={}", s.name(), result.stages.get_ns(s) / 1000))
            .collect();
        served.reader.metrics().journal.push(
            "slow_query",
            format!(
                "{}us k={k} nprobe={nprobe} stages_us{stages}",
                elapsed.as_micros()
            ),
        );
    }
    let mut body = search_json(&result);
    // Opt-in per-query breakdown: `POST /…/search?debug=timings`.
    if req.query_param("debug") == Some("timings") {
        if let Json::Obj(fields) = &mut body {
            fields.push(("timings_us".into(), timings_json(&result.stages, elapsed)));
        }
    }
    Response::json(200, body.encode())
}

/// The `?debug=timings` response fragment: per-stage and total stage
/// time, plus the edge-observed elapsed time, all in microseconds.
fn timings_json(stages: &StageNanos, elapsed: Duration) -> Json {
    let mut fields: Vec<(String, Json)> = Stage::ALL
        .iter()
        .map(|&s| (s.name().to_string(), Json::from(stages.get_ns(s) / 1000)))
        .collect();
    fields.push(("stage_total".into(), Json::from(stages.total_ns() / 1000)));
    fields.push((
        "elapsed".into(),
        Json::from(elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
    ));
    Json::Obj(fields)
}

fn search_json(result: &SearchResult) -> Json {
    let neighbors = Json::Arr(
        result
            .neighbors
            .iter()
            .map(|&(id, dist)| {
                json_obj! {"id" => u64::from(id), "distance" => f64::from(dist)}
            })
            .collect(),
    );
    json_obj! {
        "neighbors" => neighbors,
        "n_estimated" => result.n_estimated,
        "n_reranked" => result.n_reranked
    }
}

/// Reads an optional positive integer, bounded by a server-configured
/// maximum. The bound is load-bearing: `k`/`nprobe` size allocations in
/// the search path (`TopK` heaps, probe lists), so an unclamped
/// `{"k": 1e15}` would be a one-request memory bomb.
fn optional_usize(body: &Json, key: &str, default: usize, max: usize) -> Result<usize, Response> {
    match body.get(key) {
        None => Ok(default.min(max)),
        Some(v) => match v.as_u64() {
            Some(n) if n > 0 && n <= max as u64 => Ok(n as usize),
            _ => Err(Response::error(
                400,
                &format!("\"{key}\" must be an integer in 1..={max}"),
            )),
        },
    }
}

fn insert(state: &ServerState, served: &ServedCollection, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let dim = served.reader.dim();
    let mut rows: Vec<Vec<f32>> = Vec::new();
    if let Some(single) = body.get("vector") {
        match parse_vector(single, dim) {
            Ok(v) => rows.push(v),
            Err(msg) => return Response::error(400, &msg),
        }
    } else if let Some(many) = body.get("vectors").and_then(Json::as_array) {
        for (i, item) in many.iter().enumerate() {
            match parse_vector(item, dim) {
                Ok(v) => rows.push(v),
                Err(msg) => return Response::error(400, &format!("vectors[{i}]: {msg}")),
            }
        }
    } else {
        return Response::error(400, "missing \"vector\" or \"vectors\"");
    }
    if rows.is_empty() {
        return Response::error(400, "\"vectors\" is empty");
    }

    let mut writer = served.writer.lock().unwrap_or_else(|e| e.into_inner());
    let mut ids = Vec::with_capacity(rows.len());
    for row in &rows {
        match writer.insert(row) {
            Ok(id) => ids.push(id),
            Err(e) => {
                drop(writer);
                // Ids already inserted are durable; count and report them.
                // The error body carries them so a client can resume from
                // the failure point instead of replaying the whole batch
                // (which would duplicate the committed rows).
                state
                    .metrics
                    .inserts
                    .fetch_add(ids.len() as u64, Ordering::Relaxed);
                let ids_json = Json::Arr(ids.iter().map(|&id| Json::from(u64::from(id))).collect());
                let body = json_obj! {
                    "error" => format!("insert failed after {}: {e}", ids.len()),
                    "inserted_ids" => ids_json
                }
                .encode();
                // Retryable (503) when the collection is read-only —
                // either it already was, or this very failure exhausted
                // the retry budget and froze it. Both mean "try a healthy
                // replica", not "server bug".
                return if e.is_read_only() || served.reader.health().read_only {
                    state
                        .metrics
                        .rejected_read_only
                        .fetch_add(1, Ordering::Relaxed);
                    Response::json(503, body)
                } else {
                    Response::json(500, body)
                };
            }
        }
    }
    drop(writer);
    state
        .metrics
        .inserts
        .fetch_add(ids.len() as u64, Ordering::Relaxed);
    let ids_json = Json::Arr(ids.iter().map(|&id| Json::from(u64::from(id))).collect());
    Response::json(200, json_obj! {"ids" => ids_json}.encode())
}

fn delete(state: &ServerState, served: &ServedCollection, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let mut ids: Vec<u32> = Vec::new();
    if let Some(single) = body.get("id") {
        match single.as_u64() {
            Some(id) if id <= u64::from(u32::MAX) => ids.push(id as u32),
            _ => return Response::error(400, "\"id\" must be a u32"),
        }
    } else if let Some(many) = body.get("ids").and_then(Json::as_array) {
        for item in many {
            match item.as_u64() {
                Some(id) if id <= u64::from(u32::MAX) => ids.push(id as u32),
                _ => return Response::error(400, "\"ids\" must be u32 values"),
            }
        }
    } else {
        return Response::error(400, "missing \"id\" or \"ids\"");
    }

    let mut writer = served.writer.lock().unwrap_or_else(|e| e.into_inner());
    let mut deleted = 0u64;
    for id in ids {
        match writer.delete(id) {
            Ok(true) => deleted += 1,
            Ok(false) => {}
            Err(e) => {
                drop(writer);
                state.metrics.deletes.fetch_add(deleted, Ordering::Relaxed);
                let msg = format!("delete failed after {deleted}: {e}");
                return if e.is_read_only() || served.reader.health().read_only {
                    state
                        .metrics
                        .rejected_read_only
                        .fetch_add(1, Ordering::Relaxed);
                    Response::error(503, &msg)
                } else {
                    Response::error(500, &msg)
                };
            }
        }
    }
    drop(writer);
    state.metrics.deletes.fetch_add(deleted, Ordering::Relaxed);
    Response::json(200, json_obj! {"deleted" => deleted}.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServerMetrics;
    use crate::server::{ServeConfig, ServedCollection, ServerState};
    use rabitq_store::{Collection, CollectionConfig};
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    fn test_state(dir: &std::path::Path) -> ServerState {
        std::fs::remove_dir_all(dir).ok();
        let collection = Collection::open(dir, CollectionConfig::new(4)).unwrap();
        let mut collections = HashMap::new();
        collections.insert(
            "test".to_string(),
            Arc::new(ServedCollection {
                reader: collection.reader(),
                writer: Mutex::new(collection),
            }),
        );
        ServerState {
            config: ServeConfig::default(),
            collections,
            default_name: "test".into(),
            metrics: Arc::new(ServerMetrics::new()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    #[test]
    fn healthz_reports_draining_during_shutdown() {
        let dir = std::env::temp_dir().join(format!("router-draining-{}", std::process::id()));
        let state = test_state(&dir);

        let before = healthz(&state);
        let body = Json::parse(std::str::from_utf8(&before.body).unwrap()).unwrap();
        assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(body.get("draining").and_then(Json::as_bool), Some(false));

        state.shutdown.store(true, Ordering::Relaxed);
        let during = healthz(&state);
        assert_eq!(during.status, 200, "a draining server is still alive");
        let body = Json::parse(std::str::from_utf8(&during.body).unwrap()).unwrap();
        assert_eq!(
            body.get("status").and_then(Json::as_str),
            Some("draining"),
            "draining must be distinct from ok/degraded"
        );
        assert_eq!(body.get("draining").and_then(Json::as_bool), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }
}
