//! # rabitq-core — the RaBitQ quantizer
//!
//! A from-scratch implementation of *RaBitQ: Quantizing High-Dimensional
//! Vectors with a Theoretical Error Bound for Approximate Nearest Neighbor
//! Search* (Gao & Long, SIGMOD 2024).
//!
//! RaBitQ quantizes a `D`-dimensional vector into a `D`-bit string and
//! estimates squared Euclidean distances from those bits with an **unbiased**
//! estimator whose error is `O(1/√D)` with high probability — the
//! asymptotically optimal rate for `D`-bit codes. Contrast with PQ and its
//! variants, whose estimators are biased and carry no bound.
//!
//! The crate is organized along the paper's structure:
//!
//! | Module | Paper section | Content |
//! |---|---|---|
//! | [`rotation`] | 3.1.2 | Haar-orthogonal & randomized-Hadamard rotators |
//! | [`code`] | 3.1.3 | bit-string codes + precomputed factors |
//! | [`query`] | 3.3.1 | randomized `B_q`-bit query quantization |
//! | [`kernels`] | 3.3.2 | single-code bitwise AND+popcount kernel |
//! | [`fastscan`] | 3.3.2 | 32-code batch layout; its scan kernels live in `rabitq_math::simd` |
//! | [`estimator`] | 3.2 | unbiased estimator + confidence bounds |
//! | [`quantizer`] | 3.4 | the [`Rabitq`] orchestrator (Algorithms 1–2) |
//! | [`similarity`] | 7 (footnote 8) | inner-product & cosine estimation |
//!
//! Start at [`Rabitq`].

pub mod code;
pub mod estimator;
pub mod fastscan;
pub mod hw;
pub mod kernels;
pub mod persist;
pub mod quantizer;
pub mod query;
pub mod rotation;
pub mod similarity;

pub use code::{CodeFactors, CodeSet};
pub use estimator::DistanceEstimate;
pub use fastscan::{BlockScanner, Lut, PackedCodes};
pub use quantizer::{QueryScratch, Rabitq, RabitqConfig};
pub use query::QuantizedQuery;
pub use rotation::{default_padded_dim, Rotator, RotatorKind};
pub use similarity::{CosineEstimate, IpEstimate, IpQueryTerms};
