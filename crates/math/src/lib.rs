//! Dense linear-algebra and numeric substrate for the RaBitQ reproduction.
//!
//! This crate deliberately implements everything the rest of the workspace
//! needs from first principles — vector kernels (with every SIMD kernel of
//! the workspace, fast scan included, under one dispatch in [`simd`]), the
//! one worker pool every parallel fan-out runs on ([`pool`]), the one
//! bounded top-K heap every exact answer is kept in ([`topk`]), a small
//! row-major matrix type, orthogonalization, polar decomposition (for the OPQ Procrustes
//! step), the fast Walsh–Hadamard transform, Gaussian sampling and the
//! special functions used by the paper's closed-form expectations — so that
//! the reproduction has no dependency on external BLAS/LAPACK.
//!
//! Conventions:
//! * all vectors are `&[f32]` slices; all matrices are row-major [`Matrix`];
//! * accumulations in reductions are carried out in `f64` where the result
//!   feeds a statistical estimate (norms, inner products of long vectors);
//! * functions never allocate in per-candidate hot paths; callers pass
//!   scratch buffers where needed.

pub mod hadamard;
pub mod matrix;
pub mod orthogonal;
pub mod polar;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod special;
pub mod topk;
pub mod vecs;

pub use matrix::Matrix;
pub use rng::GaussianSource;
