//! Query-side quantization (Section 3.3.1).
//!
//! The rotated query residual `q' = P⁻¹(q_r − c)` is normalized and its
//! entries are quantized to `B_q`-bit unsigned integers with **randomized
//! uniform scalar quantization**: a value `v = v_l + m·Δ + t` rounds down
//! with probability `1 − t/Δ` and up with probability `t/Δ`, which makes the
//! quantized inner product unbiased (Eq. 18) and lets Theorem 3.3 bound the
//! extra error with `B_q = Θ(log log D)`; `B_q = 4` in practice.
//!
//! The quantized entries are stored three ways, each serving one kernel:
//! * `qu` — one `u8` per dimension (reference kernel, LUT construction);
//! * `bitplanes` — `B_q` bit-planes of `B` bits each, for the bitwise
//!   AND+popcount kernel (Eq. 21–22);
//! * per-query scalars (`Δ`, `v_l`, `Σq̄_u`, `‖q_r − c‖`) consumed by the
//!   estimator algebra (Eq. 20).

use rabitq_math::vecs;
use rand::Rng;

/// A query residual quantized against one centroid.
#[derive(Clone, Debug)]
pub struct QuantizedQuery {
    padded_dim: usize,
    bq: u8,
    /// Quantized entries `q̄_u[i] ∈ [0, 2^B_q)`.
    qu: Vec<u8>,
    /// `B_q` bit-planes, each `padded_dim/64` words; plane `j` holds bit `j`
    /// of every entry.
    bitplanes: Vec<u64>,
    /// Quantization step `Δ = (v_r − v_l)/(2^B_q − 1)`; `0` for a constant
    /// residual (e.g. the query coincides with the centroid).
    pub delta: f32,
    /// Grid origin `v_l = min_i q'[i]`.
    pub v_l: f32,
    /// `Σ_i q̄_u[i]`, shared across all codes scanned under this query.
    pub sum_qu: u32,
    /// `‖q_r − c‖` — distance from the raw query to the centroid.
    pub q_dist: f32,
}

impl QuantizedQuery {
    /// An empty shell whose buffers are filled by
    /// [`QuantizedQuery::quantize_from_rotated_residual`] — the anchor of
    /// the allocation-free scratch path. Every accessor is valid (all
    /// buffers empty / zero) but the shell estimates nothing useful until
    /// it is quantized.
    pub fn empty() -> Self {
        Self {
            padded_dim: 0,
            bq: 1,
            qu: Vec::new(),
            bitplanes: Vec::new(),
            delta: 0.0,
            v_l: 0.0,
            sum_qu: 0,
            q_dist: 0.0,
        }
    }

    /// Quantizes a rotated query residual `P⁻¹(q_r − c)` (unnormalized;
    /// rotation preserves the norm, so `‖q_r − c‖` is recovered here).
    ///
    /// # Panics
    /// Panics unless `rotated.len()` is a positive multiple of 64 and
    /// `1 ≤ bq ≤ 8`.
    pub fn from_rotated_residual<R: Rng + ?Sized>(rotated: &[f32], bq: u8, rng: &mut R) -> Self {
        let mut q = Self::empty();
        q.quantize_from_rotated_residual(rotated, bq, rng);
        q
    }

    /// [`QuantizedQuery::from_rotated_residual`] into `self`, reusing the
    /// entry and bit-plane buffers. After the first call with a given
    /// shape this performs **no heap allocation** — the IVF hot path calls
    /// it once per probed bucket on one scratch query.
    ///
    /// # Panics
    /// Same contract as [`QuantizedQuery::from_rotated_residual`].
    pub fn quantize_from_rotated_residual<R: Rng + ?Sized>(
        &mut self,
        rotated: &[f32],
        bq: u8,
        rng: &mut R,
    ) {
        let padded_dim = rotated.len();
        assert!(
            padded_dim > 0 && padded_dim.is_multiple_of(64),
            "rotated residual length must be a positive multiple of 64"
        );
        assert!((1..=8).contains(&bq), "B_q must be in 1..=8");

        let q_dist = vecs::norm(rotated);
        let words = padded_dim / 64;
        let levels = (1u32 << bq) - 1;

        self.qu.resize(padded_dim, 0);
        let qu = &mut self.qu[..];
        let (mut v_l, mut delta) = (0.0f32, 0.0f32);
        let mut wrote_entries = false;
        if q_dist > f32::EPSILON {
            let inv_norm = 1.0 / q_dist;
            // Normalized entries; computed on the fly to avoid an extra
            // allocation of q'.
            let (lo, hi) = vecs::min_max(rotated);
            v_l = lo * inv_norm;
            let v_r = hi * inv_norm;
            delta = (v_r - v_l) / levels as f32;
            if delta > 0.0 {
                let inv_delta = 1.0 / delta;
                for (slot, &raw) in qu.iter_mut().zip(rotated.iter()) {
                    let v = raw * inv_norm;
                    let pos = (v - v_l) * inv_delta + rng.gen_range(0.0f32..1.0);
                    *slot = (pos as u32).min(levels) as u8;
                }
                wrote_entries = true;
            }
            // delta == 0 (all entries equal): every q̄_u stays 0 and the
            // estimator's v_l term carries the whole value.
        }
        if !wrote_entries {
            qu.fill(0);
        }

        let sum_qu: u32 = qu.iter().map(|&v| v as u32).sum();
        // Bit-planes, eight entries per step: load them as one `u64`, keep
        // bit `j` of every byte, and let one multiply gather those eight
        // bits into the top byte (the partial products land on distinct
        // bit positions, so nothing carries). Every plane word is
        // overwritten, so a reused buffer needs no clear.
        const BYTE_LSBS: u64 = 0x0101_0101_0101_0101;
        const GATHER: u64 = 0x0102_0408_1020_4080;
        self.bitplanes.resize(bq as usize * words, 0);
        for (w, entries) in qu.chunks_exact(64).enumerate() {
            for j in 0..bq as usize {
                let mut plane = 0u64;
                for (g, eight) in entries.chunks_exact(8).enumerate() {
                    let x = u64::from_le_bytes(eight.try_into().expect("8 entries"));
                    let bits = ((x >> j) & BYTE_LSBS).wrapping_mul(GATHER) >> 56;
                    plane |= bits << (8 * g);
                }
                self.bitplanes[j * words + w] = plane;
            }
        }

        self.padded_dim = padded_dim;
        self.bq = bq;
        self.delta = delta;
        self.v_l = v_l;
        self.sum_qu = sum_qu;
        self.q_dist = q_dist;
    }

    /// Code length `B` this query was quantized for.
    #[inline]
    pub fn padded_dim(&self) -> usize {
        self.padded_dim
    }

    /// Number of quantization bits `B_q`.
    #[inline]
    pub fn bq(&self) -> u8 {
        self.bq
    }

    /// Quantized entries, one per dimension.
    #[inline]
    pub fn qu(&self) -> &[u8] {
        &self.qu
    }

    /// Bit-plane `j` (`0 ≤ j < B_q`) as `padded_dim/64` words.
    #[inline]
    pub fn bitplane(&self, j: usize) -> &[u64] {
        let words = self.padded_dim / 64;
        &self.bitplanes[j * words..(j + 1) * words]
    }

    /// The de-quantized value `v_l + Δ·q̄_u[i]` of entry `i` — the entry of
    /// the quantized unit query `q̄`.
    #[inline]
    pub fn dequantized(&self, i: usize) -> f32 {
        self.v_l + self.delta * self.qu[i] as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_residual(dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        rabitq_math::rng::standard_normal_vec(&mut rng, dim)
    }

    #[test]
    fn entries_stay_within_bq_range() {
        let residual = sample_residual(256, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for bq in 1..=8u8 {
            let q = QuantizedQuery::from_rotated_residual(&residual, bq, &mut rng);
            let max = (1u32 << bq) - 1;
            assert!(q.qu().iter().all(|&v| (v as u32) <= max), "bq={bq}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The multiply-gather planes against the per-bit loop it
        /// replaced, through one reused shell (planes are overwritten,
        /// never cleared, so stale words would show here).
        #[test]
        fn bitplanes_reconstruct_qu(
            shapes in proptest::collection::vec((1usize..=32, 1u8..=8), 1..4),
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = QuantizedQuery::empty();
            for &(words, bq) in &shapes {
                let residual = rabitq_math::rng::standard_normal_vec(&mut rng, words * 64);
                q.quantize_from_rotated_residual(&residual, bq, &mut rng);
                let mut want = vec![0u64; bq as usize * words];
                for (d, &v) in q.qu().iter().enumerate() {
                    for j in 0..bq as usize {
                        if (v >> j) & 1 == 1 {
                            want[j * words + d / 64] |= 1u64 << (d % 64);
                        }
                    }
                }
                for j in 0..bq as usize {
                    prop_assert_eq!(
                        q.bitplane(j),
                        &want[j * words..(j + 1) * words],
                        "B = {} bq = {} plane {}",
                        words * 64,
                        bq,
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn quantization_error_is_within_one_step() {
        let residual = sample_residual(512, 5);
        let norm = vecs::norm(&residual);
        let mut rng = StdRng::seed_from_u64(6);
        let q = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        for (i, &raw) in residual.iter().enumerate() {
            let exact = raw / norm;
            let approx = q.dequantized(i);
            assert!(
                (exact - approx).abs() <= q.delta * 1.0001,
                "entry {i}: exact {exact}, approx {approx}, Δ {}",
                q.delta
            );
        }
    }

    #[test]
    fn randomized_rounding_is_unbiased_in_the_mean() {
        // Quantize the same residual many times; the mean de-quantized value
        // of each entry must converge to the exact value (Sec. 3.3.1).
        let residual = sample_residual(64, 7);
        let norm = vecs::norm(&residual);
        let trials = 4000;
        let mut rng = StdRng::seed_from_u64(8);
        let mut sums = vec![0.0f64; 64];
        for _ in 0..trials {
            let q = QuantizedQuery::from_rotated_residual(&residual, 3, &mut rng);
            for (i, s) in sums.iter_mut().enumerate() {
                *s += q.dequantized(i) as f64;
            }
        }
        for (i, &raw) in residual.iter().enumerate() {
            let exact = (raw / norm) as f64;
            let mean = sums[i] / trials as f64;
            // Standard error of the mean is ≤ Δ/√trials ≈ 0.3/63 ≈ 0.005.
            assert!(
                (mean - exact).abs() < 0.01,
                "entry {i}: mean {mean} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sum_qu_matches_entries() {
        let residual = sample_residual(128, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let q = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        let manual: u32 = q.qu().iter().map(|&v| v as u32).sum();
        assert_eq!(q.sum_qu, manual);
    }

    #[test]
    fn q_dist_equals_residual_norm() {
        let residual = sample_residual(128, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let q = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        assert!((q.q_dist - vecs::norm(&residual)).abs() < 1e-5);
    }

    #[test]
    fn zero_residual_is_handled() {
        let residual = vec![0.0f32; 64];
        let mut rng = StdRng::seed_from_u64(13);
        let q = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        assert_eq!(q.q_dist, 0.0);
        assert_eq!(q.sum_qu, 0);
        assert_eq!(q.delta, 0.0);
    }

    #[test]
    fn constant_residual_yields_zero_delta_but_correct_v_l() {
        // All entries equal → v_l carries the whole (normalized) value.
        let residual = vec![2.0f32; 64];
        let mut rng = StdRng::seed_from_u64(14);
        let q = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        assert_eq!(q.delta, 0.0);
        let expected = 1.0 / (64.0f32).sqrt(); // normalized constant entry
        assert!((q.v_l - expected).abs() < 1e-5);
        assert_eq!(q.sum_qu, 0);
    }

    #[test]
    fn reused_shell_matches_fresh_quantization_bit_for_bit() {
        // The scratch path must be indistinguishable from the allocating
        // one, including across shape changes (shrinking then growing).
        let mut shell = QuantizedQuery::empty();
        for (dim, bq, seed) in [(256usize, 4u8, 21u64), (64, 3, 22), (192, 6, 23)] {
            let residual = sample_residual(dim, seed);
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0xAB);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0xAB);
            let fresh = QuantizedQuery::from_rotated_residual(&residual, bq, &mut rng_a);
            shell.quantize_from_rotated_residual(&residual, bq, &mut rng_b);
            assert_eq!(shell.qu(), fresh.qu(), "dim={dim} bq={bq}");
            assert_eq!(shell.padded_dim(), fresh.padded_dim());
            assert_eq!(shell.bq(), fresh.bq());
            assert_eq!(shell.delta, fresh.delta);
            assert_eq!(shell.v_l, fresh.v_l);
            assert_eq!(shell.sum_qu, fresh.sum_qu);
            assert_eq!(shell.q_dist, fresh.q_dist);
            for j in 0..bq as usize {
                assert_eq!(shell.bitplane(j), fresh.bitplane(j), "plane {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "B_q")]
    fn bq_zero_is_rejected() {
        let residual = vec![1.0f32; 64];
        let mut rng = StdRng::seed_from_u64(15);
        QuantizedQuery::from_rotated_residual(&residual, 0, &mut rng);
    }
}
