//! # rabitq-ivf — in-memory ANN indexes
//!
//! The application layer of the paper (Section 4): [`IvfRabitq`], an
//! inverted-file index pairing a KMeans coarse quantizer with RaBitQ codes
//! per bucket, the one-plan query path (rotate once, one LUT, one top-K)
//! and **error-bound-based re-ranking** (no tuning parameter). [`FlatMips`] carries the same
//! bound-gated re-rank over to inner-product and cosine search.
//!
//! This crate is part of the engine: the collection engine and the server
//! build on it. The PQ/OPQ baseline index (`IvfPq`) lives in `rabitq-pq`,
//! which depends on this crate for [`IvfConfig`] and [`SearchResult`],
//! never the reverse. The bounded top-K heap every search keeps its
//! answer in is `rabitq_math::topk::TopK`.

pub mod cancel;
pub mod common;
pub mod mips;
pub mod rabitq_ivf;

pub use cancel::CancelToken;
pub use common::{IvfConfig, RerankStrategy, SearchResult};
pub use mips::{FlatMips, MipsResult};
pub use rabitq_ivf::{IvfRabitq, SearchScratch};
