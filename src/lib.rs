//! # rabitq — a faithful Rust reproduction of RaBitQ (SIGMOD 2024)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the RaBitQ quantizer: random-rotation codebook, `D`-bit
//!   codes, the unbiased estimator with its `O(1/√D)` error bound, and the
//!   bitwise / fast-scan kernels.
//! * [`ivf`] — the IVF index with error-bound-based re-ranking (Section 4).
//! * [`graph`] — HNSW traversal over RaBitQ codes (the Section 7
//!   future-work combination, in the style of NGT-QG).
//! * [`store`] — the WAL-backed segmented collection engine: live ingest,
//!   tombstone deletes, crash recovery, and compaction over sealed
//!   IVF-RaBitQ segments.
//! * [`pq`] / [`aq`] — the PQ, OPQ and LSQ-style baselines, including
//!   the IVF-PQ / IVF-OPQ index [`pq::IvfPq`].
//! * [`hnsw`] — the graph baseline.
//! * [`kmeans`], [`math`], [`data`], [`metrics`] — substrates.
//!
//! The crates form two cones. The engine cone (`math`, `core`, `kmeans`,
//! `metrics`, `ivf`, `store`, and the `rabitq-serve` server) never
//! depends on the reproduction cone (`pq`, `aq`, `hnsw`, `graph`, `data`
//! and the benchmark binaries), which builds on the engine. This facade
//! re-exports both.
//!
//! See `examples/quickstart.rs` for the five-minute tour, `README.md` for
//! the crate map, and `DESIGN.md` for the full system inventory.
//!
//! ```
//! use rabitq::core::RabitqConfig;
//! use rabitq::ivf::{IvfConfig, IvfRabitq};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 500 Gaussian vectors in 64 dimensions.
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = rabitq::math::rng::standard_normal_vec(&mut rng, 500 * 64);
//!
//! // Build an IVF-RaBitQ index and search with error-bound re-ranking.
//! let index = IvfRabitq::build(&data, 64, &IvfConfig::new(8), RabitqConfig::default());
//! let query = rabitq::math::rng::standard_normal_vec(&mut rng, 64);
//! let result = index.search(&query, 10, 8, &mut rng);
//! assert_eq!(result.neighbors.len(), 10);
//! // Neighbors are exact distances, ascending.
//! assert!(result.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
//! ```

pub use rabitq_aq as aq;
pub use rabitq_core as core;
pub use rabitq_data as data;
pub use rabitq_graph as graph;
pub use rabitq_hnsw as hnsw;
pub use rabitq_ivf as ivf;
pub use rabitq_kmeans as kmeans;
pub use rabitq_math as math;
pub use rabitq_metrics as metrics;
pub use rabitq_pq as pq;
pub use rabitq_store as store;
