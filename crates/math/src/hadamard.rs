//! Fast Walsh–Hadamard transform and the randomized-Hadamard rotator.
//!
//! The paper samples a dense Haar-orthogonal matrix (O(D²) to apply). A
//! widely used drop-in in production ports of RaBitQ (Lucene, Milvus) is the
//! structured rotation `H·D₃·H·D₂·H·D₁` where `H` is the normalized
//! Walsh–Hadamard transform and `Dᵢ` are random ±1 sign-flip diagonals —
//! an O(D log D) Johnson–Lindenstrauss transform with near-identical
//! empirical behaviour. Both rotators are offered by `rabitq-core`; this
//! module provides the transform itself.

use rand::Rng;

/// In-place unnormalized fast Walsh–Hadamard transform.
///
/// The first three butterfly stages (`h = 1, 2, 4`) run in registers on
/// one 8-lane chunk at a time — one pass over the data instead of three —
/// and the wider stages walk the slice as before. Every output is the same
/// sequence of `a + b` / `a − b` roundings as the one-stage-per-pass loop,
/// so results are bit-identical to it (rotators persisted by older builds
/// keep producing the same codes).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn fwht(data: &mut [f32]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FWHT length must be a power of two");
    if n < 8 {
        butterfly_stages(data, 1);
        return;
    }
    for chunk in data.chunks_exact_mut(8) {
        let [a0, a1, a2, a3, a4, a5, a6, a7] = *<&[f32; 8]>::try_from(&*chunk).expect("8 lanes");
        let b = [
            a0 + a1,
            a0 - a1,
            a2 + a3,
            a2 - a3,
            a4 + a5,
            a4 - a5,
            a6 + a7,
            a6 - a7,
        ];
        let c = [
            b[0] + b[2],
            b[1] + b[3],
            b[0] - b[2],
            b[1] - b[3],
            b[4] + b[6],
            b[5] + b[7],
            b[4] - b[6],
            b[5] - b[7],
        ];
        for i in 0..4 {
            chunk[i] = c[i] + c[i + 4];
            chunk[i + 4] = c[i] - c[i + 4];
        }
    }
    butterfly_stages(data, 8);
}

/// Butterfly stages `h = from, 2·from, …` up to `data.len() / 2`, one pass
/// over the slice per stage.
fn butterfly_stages(data: &mut [f32], from: usize) {
    let mut h = from;
    while h < data.len() {
        for block in data.chunks_exact_mut(h * 2) {
            let (lo, hi) = block.split_at_mut(h);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let a = *x;
                let b = *y;
                *x = a + b;
                *y = a - b;
            }
        }
        h *= 2;
    }
}

/// In-place *orthonormal* Walsh–Hadamard transform (`H/√n`), which
/// preserves Euclidean norms exactly (up to round-off).
pub fn fwht_normalized(data: &mut [f32]) {
    fwht(data);
    let scale = 1.0 / (data.len() as f32).sqrt();
    for x in data.iter_mut() {
        *x *= scale;
    }
}

/// Random ±1 sign-flip diagonal, stored as one bit per coordinate.
#[derive(Clone, Debug)]
pub struct SignDiagonal {
    bits: Vec<u64>,
    len: usize,
}

impl SignDiagonal {
    /// Samples a diagonal of `len` independent ±1 signs.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let words = len.div_ceil(64);
        let mut bits = vec![0u64; words];
        for w in bits.iter_mut() {
            *w = rng.gen();
        }
        // Mask tail bits so equality and popcount-style invariants hold.
        if !len.is_multiple_of(64) {
            let last = bits.len() - 1;
            bits[last] &= (1u64 << (len % 64)) - 1;
        }
        Self { bits, len }
    }

    /// Reconstructs a diagonal from its packed sign bits (see
    /// [`SignDiagonal::bits`]); used by index deserialization.
    ///
    /// # Panics
    /// Panics if `bits` does not hold exactly `len.div_ceil(64)` words.
    pub fn from_bits(bits: Vec<u64>, len: usize) -> Self {
        assert_eq!(bits.len(), len.div_ceil(64), "sign diagonal word count");
        Self { bits, len }
    }

    /// The packed sign bits (bit set ⇒ −1 at that coordinate).
    #[inline]
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Length of the diagonal.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the diagonal is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sign at coordinate `i`: `+1.0` or `−1.0`.
    #[inline]
    pub fn sign(&self, i: usize) -> f32 {
        debug_assert!(i < self.len);
        if (self.bits[i / 64] >> (i % 64)) & 1 == 1 {
            -1.0
        } else {
            1.0
        }
    }

    /// Applies the diagonal in place: `data[i] *= sign(i)`, as an XOR of
    /// the IEEE sign bit, eight lanes per byte of the packed signs. For
    /// every non-NaN value that is the exact result of multiplying by ±1.
    pub fn apply(&self, data: &mut [f32]) {
        const SIGN: u32 = 1 << 31;
        debug_assert_eq!(data.len(), self.len);
        let mut lanes = data.chunks_exact_mut(8);
        for (j, chunk) in lanes.by_ref().enumerate() {
            let byte = (self.bits[j / 8] >> (8 * (j % 8))) as u32 & 0xFF;
            for (k, x) in chunk.iter_mut().enumerate() {
                // Bit `k` of `byte`, moved to the sign position.
                *x = f32::from_bits(x.to_bits() ^ ((byte << (31 - k)) & SIGN));
            }
        }
        let tail = lanes.into_remainder();
        let done = self.len - tail.len();
        for (i, x) in tail.iter_mut().enumerate() {
            *x *= self.sign(done + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecs;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-stage-per-pass transform `fwht` replaced: the bit-identity
    /// oracle (`butterfly_stages` from `h = 1` is exactly that loop).
    fn fwht_reference(data: &mut [f32]) {
        butterfly_stages(data, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Persisted Hadamard rotators stay valid only while the transform
        /// reproduces the old outputs to the bit.
        #[test]
        fn fwht_is_bit_identical_to_the_one_stage_per_pass_loop(
            log_n in 0u32..=12,
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let orig = crate::rng::standard_normal_vec(&mut rng, 1 << log_n);
            let (mut fast, mut slow) = (orig.clone(), orig);
            fwht(&mut fast);
            fwht_reference(&mut slow);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "n = 2^{} lane {}", log_n, i);
            }
        }

        /// XOR of the sign bit equals multiplying by `sign(i)`, including
        /// on zeros, for lengths that are not multiples of 8 or 64.
        #[test]
        fn sign_apply_is_bit_identical_to_multiplying_by_sign(
            len in 1usize..=4096,
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = SignDiagonal::random(&mut rng, len);
            let mut v = crate::rng::standard_normal_vec(&mut rng, len);
            v[len / 2] = 0.0;
            v[len / 3] = -0.0;
            let want: Vec<f32> = v.iter().enumerate().map(|(i, x)| x * d.sign(i)).collect();
            d.apply(&mut v);
            for (i, (a, b)) in v.iter().zip(&want).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "len {} lane {}", len, i);
            }
        }
    }

    #[test]
    fn fwht_of_delta_is_constant() {
        let mut v = vec![0.0f32; 8];
        v[0] = 1.0;
        fwht(&mut v);
        assert!(v.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn fwht_is_self_inverse_up_to_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let orig = crate::rng::standard_normal_vec(&mut rng, 64);
        let mut v = orig.clone();
        fwht(&mut v);
        fwht(&mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((a / 64.0 - b).abs() < 1e-4);
        }
    }

    #[test]
    fn normalized_fwht_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(2);
        let orig = crate::rng::standard_normal_vec(&mut rng, 256);
        let mut v = orig.clone();
        fwht_normalized(&mut v);
        assert!((vecs::norm(&v) - vecs::norm(&orig)).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fwht_rejects_non_power_of_two() {
        let mut v = vec![0.0f32; 12];
        fwht(&mut v);
    }

    #[test]
    fn sign_diagonal_is_an_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SignDiagonal::random(&mut rng, 100);
        let orig = crate::rng::standard_normal_vec(&mut rng, 100);
        let mut v = orig.clone();
        d.apply(&mut v);
        d.apply(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn sign_diagonal_signs_are_unit_magnitude_and_mixed() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = SignDiagonal::random(&mut rng, 512);
        let negatives = (0..512).filter(|&i| d.sign(i) < 0.0).count();
        assert!(negatives > 128 && negatives < 384, "negatives {negatives}");
    }
}
