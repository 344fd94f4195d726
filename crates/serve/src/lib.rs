//! `rabitq-serve` — a dependency-free network front end for
//! [`rabitq-store`](../rabitq_store/index.html) collections.
//!
//! The crate serves a JSON-over-HTTP/1.1 API from `std::net` alone: no
//! async runtime, no HTTP framework, no serde. The interesting part is
//! not the protocol plumbing but the *execution model* between socket
//! and engine:
//!
//! - **One search path**: each search runs on the connection worker that
//!   parsed it, as one [`Snapshot::search_many_cancellable`] call with a
//!   single query and a single cancellation token. The paper's search
//!   answers one query at a time, and a CPU batch shares no work between
//!   its queries, so there is no queue between socket and engine.
//! - **Admission control** at the connection edge: at most `workers`
//!   requests are in flight, and accepted connections beyond
//!   `conn_backlog` are answered `503` at once instead of queueing into
//!   unbounded latency.
//! - **Graceful shutdown** ([`server`]): connection workers finish and
//!   answer their in-flight request, connections still waiting for a
//!   worker are answered `503`, then threads join.
//!
//! [`Snapshot::search_many_cancellable`]: rabitq_store::Snapshot::search_many_cancellable
//!
//! ## Quick start
//!
//! ```no_run
//! use rabitq_serve::{ServeConfig, Server};
//! use rabitq_store::{Collection, CollectionConfig};
//! use std::path::Path;
//!
//! let collection =
//!     Collection::open(Path::new("data/demo"), CollectionConfig::new(64)).unwrap();
//! let server = Server::start(ServeConfig::default(), vec![("demo".into(), collection)]).unwrap();
//! println!("serving on http://{}", server.addr());
//! // ... later:
//! server.shutdown(); // drains in-flight work, joins every thread
//! ```
//!
//! ## API
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/healthz` | GET | liveness probe (uptime, version, SIMD kernel) |
//! | `/stats` | GET | per-collection configuration, health and event journal |
//! | `/metrics` | GET | every count and duration, as Prometheus text |
//! | `/collections/:name/search` | POST | k-NN search; `?debug=timings` adds a stage breakdown |
//! | `/collections/:name/insert` | POST | insert one vector or many |
//! | `/collections/:name/delete` | POST | tombstone ids |
//! | `/search` `/insert` `/delete` | POST | same, against the default collection |

pub mod http;
pub mod json;
pub mod metrics;
mod router;
pub mod server;

pub use json::{Json, JsonError};
pub use metrics::ServerMetrics;
pub use server::{ServeConfig, Server};
