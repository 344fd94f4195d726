//! # rabitq-ivf — in-memory ANN indexes
//!
//! The application layer of the paper (Section 4): [`IvfRabitq`], an
//! inverted-file index pairing a KMeans coarse quantizer with RaBitQ codes
//! per bucket, the rotate-once query path, and **error-bound-based
//! re-ranking** (no tuning parameter). [`FlatMips`] carries the same
//! bound-gated re-rank over to inner-product and cosine search.
//!
//! This crate is part of the engine: the collection engine and the server
//! build on it. The PQ/OPQ baseline index (`IvfPq`) lives in `rabitq-pq`,
//! which depends on this crate for [`IvfConfig`], [`SearchResult`] and
//! [`TopK`], never the reverse.

pub mod cancel;
pub mod common;
pub mod mips;
pub mod rabitq_ivf;

pub use cancel::CancelToken;
pub use common::{IvfConfig, RerankStrategy, SearchResult, TopK};
pub use mips::{FlatMips, MipsResult};
pub use rabitq_ivf::{IvfRabitq, SearchScratch};
