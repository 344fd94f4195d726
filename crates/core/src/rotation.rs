//! The random rotation underlying RaBitQ's codebook.
//!
//! Section 3.1.2 of the paper constructs the codebook `C_rand = {P·x}` by
//! rotating the hypercube vertices with a Haar-random orthogonal matrix `P`.
//! The algorithm never materializes the codebook — it only ever applies the
//! *inverse* rotation `P⁻¹ = Pᵀ` to data and query vectors (Eq. 8 and 17).
//! Because the Haar measure is inversion-invariant, we directly sample the
//! inverse transform and call it a [`Rotator`].
//!
//! Two implementations are provided:
//!
//! * [`RotatorKind::RandomizedHadamard`] — the default: the O(D log D)
//!   structured JLT `(H·Dᵢ)³` used by production ports (Lucene, Milvus);
//!   statistically it behaves like a Haar rotation for the quantities
//!   RaBitQ depends on (`tests/statistical.rs` holds both kinds to the
//!   same bias and bound checks);
//! * [`RotatorKind::DenseOrthogonal`] — the paper's construction and the
//!   statistical reference: a sampled Haar-orthogonal matrix applied in
//!   O(D²), and D² floats to store.
//!
//! Both map `dim`-dimensional input to `padded_dim ≥ dim` output, where
//! `padded_dim` is the code length `B` (a multiple of 64 so codes pack into
//! `u64` words; the paper pads with zeros the same way, Section 5.1). The
//! Hadamard transform needs a power of two, so it pads further: 960 → 1024
//! bits, 768 → 1024, 100 → 128.

use rabitq_math::hadamard::{fwht_normalized, SignDiagonal};
use rabitq_math::orthogonal::random_orthogonal;
use rabitq_math::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which rotation construction to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotatorKind {
    /// Dense Haar-orthogonal matrix — the paper's construction. O(D²) per
    /// apply and D² floats per persisted rotator.
    DenseOrthogonal,
    /// Three rounds of sign-flip + normalized Walsh–Hadamard — the default
    /// of [`crate::RabitqConfig`]. O(D log D) per apply; requires the
    /// padded dimension to be a power of two and pads further if necessary.
    RandomizedHadamard,
    /// No rotation (zero-padding only): the *deterministic* hypercube
    /// codebook `C` of Eq. 3. Exists for the Appendix F.1 ablation — it
    /// voids the theoretical guarantees (the codebook then favors specific
    /// directions) and must not be used in production.
    Identity,
}

/// A sampled random rotation `R = P⁻¹` mapping `dim → padded_dim`.
#[derive(Clone, Debug)]
pub struct Rotator {
    dim: usize,
    padded_dim: usize,
    imp: RotatorImpl,
}

#[derive(Clone, Debug)]
enum RotatorImpl {
    Dense(Matrix),
    Hadamard { diagonals: [SignDiagonal; 3] },
    Identity,
}

/// Rounds `dim` up to the code length used by RaBitQ: the smallest multiple
/// of 64 that is ≥ `dim` (Section 5.1 of the paper).
pub fn default_padded_dim(dim: usize) -> usize {
    dim.div_ceil(64) * 64
}

impl RotatorKind {
    /// The code length `B` a rotator of this kind gets for `dim`-dimensional
    /// input: `padded_dim` (`None` = [`default_padded_dim`]), which the
    /// Hadamard construction rounds up to a power of two. This is what
    /// [`Rotator::sample`] allocates, computable without sampling.
    pub fn code_length(self, dim: usize, padded_dim: Option<usize>) -> usize {
        let padded = padded_dim.unwrap_or_else(|| default_padded_dim(dim));
        match self {
            RotatorKind::RandomizedHadamard => padded.next_power_of_two(),
            RotatorKind::DenseOrthogonal | RotatorKind::Identity => padded,
        }
    }
}

impl Rotator {
    /// Samples a rotator for `dim`-dimensional input.
    ///
    /// `padded_dim` is the code length `B`; pass `None` for the paper
    /// default (next multiple of 64). The Hadamard construction rounds it
    /// further up to a power of two.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `padded_dim < dim`.
    pub fn sample(kind: RotatorKind, dim: usize, padded_dim: Option<usize>, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let requested = padded_dim.unwrap_or_else(|| default_padded_dim(dim));
        assert!(requested >= dim, "padded_dim {requested} < dim {dim}");
        assert!(
            requested.is_multiple_of(64),
            "padded_dim must be a multiple of 64"
        );
        let padded = kind.code_length(dim, Some(requested));
        let mut rng = StdRng::seed_from_u64(seed);
        let imp = match kind {
            RotatorKind::DenseOrthogonal => RotatorImpl::Dense(random_orthogonal(&mut rng, padded)),
            RotatorKind::RandomizedHadamard => RotatorImpl::Hadamard {
                diagonals: [
                    SignDiagonal::random(&mut rng, padded),
                    SignDiagonal::random(&mut rng, padded),
                    SignDiagonal::random(&mut rng, padded),
                ],
            },
            RotatorKind::Identity => RotatorImpl::Identity,
        };
        Self {
            dim,
            padded_dim: padded,
            imp,
        }
    }

    /// Input dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Output dimensionality = code length `B`.
    #[inline]
    pub fn padded_dim(&self) -> usize {
        self.padded_dim
    }

    /// The construction this rotator was sampled from.
    pub fn kind(&self) -> RotatorKind {
        match &self.imp {
            RotatorImpl::Dense(_) => RotatorKind::DenseOrthogonal,
            RotatorImpl::Hadamard { .. } => RotatorKind::RandomizedHadamard,
            RotatorImpl::Identity => RotatorKind::Identity,
        }
    }

    /// Applies the rotation: `out = R · pad(input)`.
    ///
    /// `input` may have any length ≤ `padded_dim` (zero-padded); `out` must
    /// have length `padded_dim`. Rotation preserves Euclidean norm, so
    /// `‖out‖ = ‖input‖` up to round-off.
    pub fn rotate(&self, input: &[f32], out: &mut [f32]) {
        assert!(
            input.len() <= self.padded_dim,
            "input length {} exceeds padded dim {}",
            input.len(),
            self.padded_dim
        );
        assert_eq!(out.len(), self.padded_dim, "output length");
        match &self.imp {
            RotatorImpl::Dense(m) => {
                if input.len() == self.padded_dim {
                    m.matvec(input, out);
                } else {
                    // Zero-padding means only the first `input.len()` columns
                    // contribute; dot against row prefixes.
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = rabitq_math::vecs::dot(&m.row(i)[..input.len()], input);
                    }
                }
            }
            RotatorImpl::Hadamard { diagonals } => {
                out[..input.len()].copy_from_slice(input);
                out[input.len()..].fill(0.0);
                for d in diagonals {
                    d.apply(out);
                    fwht_normalized(out);
                }
            }
            RotatorImpl::Identity => {
                out[..input.len()].copy_from_slice(input);
                out[input.len()..].fill(0.0);
            }
        }
    }

    /// Convenience wrapper allocating the output vector.
    pub fn rotate_vec(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.padded_dim];
        self.rotate(input, &mut out);
        out
    }

    /// Serializes the rotator (see [`crate::persist`]).
    pub fn write<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use crate::persist as p;
        p::write_usize(w, self.dim)?;
        p::write_usize(w, self.padded_dim)?;
        match &self.imp {
            RotatorImpl::Dense(m) => {
                p::write_u8(w, 0)?;
                p::write_f32_slice(w, m.as_slice())
            }
            RotatorImpl::Hadamard { diagonals } => {
                p::write_u8(w, 1)?;
                for d in diagonals {
                    p::write_u64_slice(w, d.bits())?;
                }
                Ok(())
            }
            RotatorImpl::Identity => p::write_u8(w, 2),
        }
    }

    /// Deserializes a rotator written by [`Rotator::write`].
    pub fn read<R: std::io::Read>(r: &mut R) -> std::io::Result<Self> {
        use crate::persist as p;
        use rabitq_math::hadamard::SignDiagonal;
        use rabitq_math::Matrix;
        let dim = p::read_usize(r)?;
        let padded_dim = p::read_usize(r)?;
        if dim == 0 || padded_dim < dim || padded_dim % 64 != 0 {
            return Err(p::invalid("inconsistent rotator dimensions"));
        }
        let imp = match p::read_u8(r)? {
            0 => {
                let data = p::read_f32_vec(r)?;
                // checked: `padded_dim` is attacker-controlled here and
                // `padded² ` overflows usize for a corrupted prefix.
                let expected = padded_dim
                    .checked_mul(padded_dim)
                    .ok_or_else(|| p::invalid("rotator dimension overflows"))?;
                if data.len() != expected {
                    return Err(p::invalid("dense rotation size mismatch"));
                }
                RotatorImpl::Dense(Matrix::from_vec(padded_dim, padded_dim, data))
            }
            1 => {
                let mut diagonals = Vec::with_capacity(3);
                for _ in 0..3 {
                    let bits = p::read_u64_vec(r)?;
                    if bits.len() != padded_dim.div_ceil(64) {
                        return Err(p::invalid("sign diagonal size mismatch"));
                    }
                    diagonals.push(SignDiagonal::from_bits(bits, padded_dim));
                }
                let diagonals: [SignDiagonal; 3] =
                    diagonals.try_into().expect("exactly three diagonals");
                if !padded_dim.is_power_of_two() {
                    return Err(p::invalid("hadamard rotator needs power-of-two dim"));
                }
                RotatorImpl::Hadamard { diagonals }
            }
            2 => RotatorImpl::Identity,
            other => return Err(p::invalid(format!("unknown rotator kind {other}"))),
        };
        Ok(Self {
            dim,
            padded_dim,
            imp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_math::rng::standard_normal_vec;
    use rabitq_math::vecs;

    #[test]
    fn default_padding_rounds_to_multiple_of_64() {
        assert_eq!(default_padded_dim(1), 64);
        assert_eq!(default_padded_dim(64), 64);
        assert_eq!(default_padded_dim(65), 128);
        assert_eq!(default_padded_dim(960), 960);
        assert_eq!(default_padded_dim(961), 1024);
    }

    #[test]
    fn dense_rotation_preserves_norm_and_inner_product() {
        let rot = Rotator::sample(RotatorKind::DenseOrthogonal, 100, None, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = standard_normal_vec(&mut rng, 100);
        let y = standard_normal_vec(&mut rng, 100);
        let rx = rot.rotate_vec(&x);
        let ry = rot.rotate_vec(&y);
        assert_eq!(rx.len(), 128);
        assert!((vecs::norm(&x) - vecs::norm(&rx)).abs() < 1e-3);
        let ip_before = vecs::dot(&x, &y);
        let ip_after = vecs::dot(&rx, &ry);
        assert!((ip_before - ip_after).abs() < 1e-2 * (1.0 + ip_before.abs()));
    }

    #[test]
    fn hadamard_rotation_preserves_norm_and_inner_product() {
        let rot = Rotator::sample(RotatorKind::RandomizedHadamard, 100, None, 7);
        assert_eq!(rot.padded_dim(), 128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = standard_normal_vec(&mut rng, 100);
        let y = standard_normal_vec(&mut rng, 100);
        let rx = rot.rotate_vec(&x);
        let ry = rot.rotate_vec(&y);
        assert!((vecs::norm(&x) - vecs::norm(&rx)).abs() < 1e-3);
        let ip_before = vecs::dot(&x, &y);
        let ip_after = vecs::dot(&rx, &ry);
        assert!((ip_before - ip_after).abs() < 1e-2 * (1.0 + ip_before.abs()));
    }

    #[test]
    fn rotation_is_linear() {
        let rot = Rotator::sample(RotatorKind::DenseOrthogonal, 64, None, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = standard_normal_vec(&mut rng, 64);
        let y = standard_normal_vec(&mut rng, 64);
        let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let r_sum = rot.rotate_vec(&sum);
        let rx = rot.rotate_vec(&x);
        let ry = rot.rotate_vec(&y);
        for i in 0..64 {
            assert!((r_sum[i] - (rx[i] + ry[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn same_seed_same_rotation_different_seed_different() {
        let x = vec![1.0f32; 64];
        let a = Rotator::sample(RotatorKind::DenseOrthogonal, 64, None, 9).rotate_vec(&x);
        let b = Rotator::sample(RotatorKind::DenseOrthogonal, 64, None, 9).rotate_vec(&x);
        let c = Rotator::sample(RotatorKind::DenseOrthogonal, 64, None, 10).rotate_vec(&x);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn explicit_padded_dim_is_honored() {
        let rot = Rotator::sample(RotatorKind::DenseOrthogonal, 60, Some(256), 1);
        assert_eq!(rot.padded_dim(), 256);
        let x = vec![1.0f32; 60];
        let rx = rot.rotate_vec(&x);
        assert!((vecs::norm(&rx) - (60.0f32).sqrt()).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "padded_dim")]
    fn padded_dim_below_dim_is_rejected() {
        Rotator::sample(RotatorKind::DenseOrthogonal, 100, Some(64), 1);
    }

    #[test]
    fn padded_coordinates_spread_energy() {
        // After rotating a zero-padded vector, the tail coordinates must be
        // populated (that is the point of padding-then-rotating).
        let rot = Rotator::sample(RotatorKind::DenseOrthogonal, 65, None, 5);
        let x = vec![1.0f32; 65];
        let rx = rot.rotate_vec(&x);
        let tail_energy: f32 = rx[65..].iter().map(|v| v * v).sum();
        assert!(tail_energy > 1e-3, "tail energy {tail_energy}");
    }
}
