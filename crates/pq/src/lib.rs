//! # rabitq-pq — PQ and OPQ baselines
//!
//! From-scratch implementations of the quantization baselines the RaBitQ
//! paper compares against (Section 5.1):
//!
//! * [`pq`] — Product Quantization with `k = 8` (`x8-single`: f32 LUTs in
//!   RAM) and `k = 4` codes;
//! * [`fastscan`] — the `x4fs-batch` SIMD fast scan with u8-quantized LUTs,
//!   sharing kernels with `rabitq-core` and faithfully reproducing the u8
//!   dynamic-range failure mode behind PQ's MSong collapse;
//! * [`opq`] — Optimized PQ: a learned orthogonal rotation fitted by
//!   alternating Procrustes, the strongest stable baseline in the paper;
//! * [`ivf`] — [`IvfPq`], the IVF-PQ / IVF-OPQ baseline index: residual
//!   encoding, f32 or u8-fast-scan LUT scans, and conventional
//!   fixed-count re-ranking.
//!
//! These estimators are **biased** (they treat the quantized vector as the
//! data vector) and provide no error bound — which is precisely the gap
//! RaBitQ closes.
//!
//! This crate is part of the reproduction, not the engine: it depends on
//! `rabitq-ivf` for the shared IVF configuration and result types, and
//! nothing the collection engine or the server compiles depends on it.

pub mod fastscan;
pub mod ivf;
pub mod opq;
pub mod pq;

pub use fastscan::{PqPacked, QuantizedLuts};
pub use ivf::{IvfPq, PqVariant, ScanMode};
pub use opq::{Opq, OpqConfig};
pub use pq::{PqCodes, PqConfig, ProductQuantizer};
