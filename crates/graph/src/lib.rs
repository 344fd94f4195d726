//! # rabitq-graph — graph-based ANN search over RaBitQ codes
//!
//! The RaBitQ paper applies its quantizer to the IVF index and names the
//! combination with *graph-based* indexes as future work (Section 7); the
//! production systems that adopted RaBitQ (NGT-QG before it, Lucene and
//! Milvus after) pair the codes with a proximity graph. This crate is that
//! combination: an HNSW graph whose traversal ranks candidates by the
//! RaBitQ **single-code bitwise kernel** instead of full-precision
//! distances, followed by the paper's error-bound-based re-ranking.
//!
//! The pairing matters because graph search visits vertices *one after
//! another* along the greedy walk — candidates cannot be packed into
//! batches of 32, so PQ's fast-scan layout is unusable and PQ falls back
//! to cache-hostile LUT lookups. RaBitQ's single-code kernel (`B_q`
//! AND+popcount passes, Section 3.3.2) is the implementation the paper
//! builds precisely for this access pattern (Table 1), which is what makes
//! the graph combination practical.
//!
//! ## Search pipeline
//!
//! 1. The query is rotated, residualized against the index centroid and
//!    scalar-quantized **once** (Algorithm 2, lines 1–2).
//! 2. Greedy descent through the upper HNSW layers and the base-layer beam
//!    search both rank vertices by the unbiased estimator `⟨ō,q⟩/⟨ō,o⟩`.
//!    They are `rabitq-hnsw`'s own walk (`Hnsw::descend` and
//!    `Hnsw::search_layer_by`), the one that exact HNSW search and graph
//!    construction run, called with the estimate as its distance.
//! 3. Every vertex the traversal estimated — not just the `ef` beam
//!    survivors, whose ordering 1-bit estimates cannot be trusted to get
//!    right — is a re-rank candidate under the Section 4 rule: a
//!    candidate is skipped iff its distance *lower bound* exceeds the
//!    current K-th best exact distance. No tuning parameter, unlike
//!    PQ-style fixed re-rank depths, and the bound keeps the exact
//!    computations to a small fraction of the visited set. The exact
//!    answers are kept in `rabitq_math::topk::TopK`, the same bounded heap
//!    the IVF re-rank uses.
//!
//! ```
//! use rabitq_graph::{GraphRabitq, GraphRabitqConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let (n, dim) = (400, 48);
//! let mut rng = StdRng::seed_from_u64(7);
//! let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
//!
//! let index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
//! let query = rabitq_math::rng::standard_normal_vec(&mut rng, dim);
//! let result = index.search(&query, 5, 64, &mut rng);
//! assert_eq!(result.neighbors.len(), 5);
//! assert!(result.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
//! ```

mod index;
mod persist;

pub use index::{GraphRabitq, GraphRabitqConfig, GraphRerank, GraphSearchResult};
