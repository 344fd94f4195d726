//! # rabitq-data — dataset substrate
//!
//! The paper evaluates on six public datasets (Table 3) that are not
//! shipped with this repository. This crate provides:
//!
//! * [`generate`](mod@generate) — synthetic generators reproducing the *traits the
//!   evaluation depends on* for each dataset (clustered structure,
//!   unit-norm embeddings, low-rank correlation, heterogeneous
//!   per-dimension scales — the MSong failure trigger);
//! * [`registry`] — one constructor per paper dataset, at matched
//!   dimensionality and configurable scale;
//! * [`ground_truth`] — threaded exact K-NN for recall/ratio metrics;
//! * [`io`] — `.fvecs`/`.ivecs` readers and writers so real datasets can be
//!   dropped in when available.

pub mod generate;
pub mod ground_truth;
pub mod io;
pub mod registry;

pub use generate::{generate, Dataset, DatasetSpec, Profile};
pub use ground_truth::{exact_knn, Neighbors};
