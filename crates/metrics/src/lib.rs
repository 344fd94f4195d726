//! # rabitq-metrics — evaluation and serving metrics
//!
//! The exact metrics of the paper's Section 5.1:
//!
//! * [`errors`] — average and maximum *relative error* of estimated squared
//!   distances (distance-estimation accuracy, Figure 3);
//! * [`recall`] — recall@K and *average distance ratio* against exact
//!   ground truth (ANN accuracy, Figure 4);
//! * [`timer`] — wall-clock helpers for per-vector estimation time and QPS;
//! * [`stats`] — least-squares regression (Figure 7's unbiasedness fit) and
//!   histograms (Figure 8's distribution verification).
//!
//! Plus the serving-side observability layer:
//!
//! * [`latency`] — a lock-free log-bucketed latency histogram
//!   (p50/p95/p99 under concurrent recording) for the network front end
//!   and its load harness;
//! * [`stage`] — per-query pipeline stage tracing (rotate → LUT build →
//!   scan → re-rank → merge) with a process-wide atomic sink;
//! * [`events`] — a bounded ring journal of structured operational events
//!   (seals, compactions, quarantines, slow queries);
//! * [`prometheus`] — a hand-rolled text exposition encoder and the tiny
//!   format checker the serving tests run on live `/metrics` scrapes.

pub mod errors;
pub mod events;
pub mod latency;
pub mod prometheus;
pub mod recall;
pub mod stage;
pub mod stats;
pub mod timer;

pub use errors::RelativeErrorStats;
pub use events::{Event, EventJournal};
pub use latency::LatencyHistogram;
pub use prometheus::PromEncoder;
pub use recall::{average_distance_ratio, recall_at_k};
pub use stage::{Stage, StageNanos, StageTimers, STAGE_COUNT};
pub use stats::{linear_regression, Histogram, LinearFit};
pub use timer::Stopwatch;
