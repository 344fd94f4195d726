//! Storage for RaBitQ quantization codes.
//!
//! A code is the `B`-bit sign string `x̄_b` of the rotated residual vector
//! (Section 3.1.3), stored as `B/64` little-endian `u64` words. Alongside
//! each code the index phase precomputes (Algorithm 1):
//!
//! * `norm = ‖o_r − c‖` — distance from the raw vector to its centroid;
//! * `ip_oo = ⟨ō, o⟩ = ‖P⁻¹o‖₁ / √B` — alignment between the vector and its
//!   quantized form (Eq. 30), the denominator of the estimator;
//! * `popcount` — number of 1 bits, reused by the estimator (Eq. 20).
//!
//! Codes are stored struct-of-arrays so that scans stream through the bit
//! words without dragging the factors into cache, and so that the fast-scan
//! packer can re-layout the bits independently.
//!
//! Beyond the raw factors, `push` precomputes the query-independent terms
//! the estimator needs per (query, code) pair — `1/⟨ō,o⟩`, `‖o_r − c‖²`,
//! and the `ε₀`-independent confidence half-width of Eq. 16 — so the batch
//! estimate reduces to an affine map over the kernel outputs with no
//! division or `sqrt` in the scan loop. The derived columns are never
//! persisted: [`CodeSet::read`] recomputes them, keeping the on-disk
//! format unchanged.

use crate::estimator;

/// Per-vector precomputed factors used by the distance estimator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodeFactors {
    /// `‖o_r − c‖`: distance from the raw vector to the centroid.
    pub norm: f32,
    /// `⟨ō, o⟩`: inner product between the quantized and exact unit vector.
    /// Concentrated around 0.8 (Section 3.2.1). `1.0` for zero residuals.
    pub ip_oo: f32,
    /// Number of set bits in the code.
    pub popcount: u32,
}

/// A struct-of-arrays collection of RaBitQ codes sharing one rotation.
#[derive(Clone, Debug, Default)]
pub struct CodeSet {
    padded_dim: usize,
    words_per_code: usize,
    bits: Vec<u64>,
    norms: Vec<f32>,
    ip_oos: Vec<f32>,
    popcounts: Vec<u32>,
    // Derived, query-independent estimator columns (recomputed on read).
    norms_sq: Vec<f32>,
    inv_ip_oos: Vec<f32>,
    err_bases: Vec<f32>,
}

impl CodeSet {
    /// Creates an empty set for codes of length `padded_dim` bits.
    ///
    /// # Panics
    /// Panics unless `padded_dim` is a positive multiple of 64.
    pub fn new(padded_dim: usize) -> Self {
        assert!(
            padded_dim > 0 && padded_dim.is_multiple_of(64),
            "code length must be a positive multiple of 64"
        );
        Self {
            padded_dim,
            words_per_code: padded_dim / 64,
            bits: Vec::new(),
            norms: Vec::new(),
            ip_oos: Vec::new(),
            popcounts: Vec::new(),
            norms_sq: Vec::new(),
            inv_ip_oos: Vec::new(),
            err_bases: Vec::new(),
        }
    }

    /// Creates an empty set with capacity for `n` codes.
    pub fn with_capacity(padded_dim: usize, n: usize) -> Self {
        let mut s = Self::new(padded_dim);
        s.bits.reserve(n * s.words_per_code);
        s.norms.reserve(n);
        s.ip_oos.reserve(n);
        s.popcounts.reserve(n);
        s.norms_sq.reserve(n);
        s.inv_ip_oos.reserve(n);
        s.err_bases.reserve(n);
        s
    }

    /// Number of codes stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Code length in bits (`B`).
    #[inline]
    pub fn padded_dim(&self) -> usize {
        self.padded_dim
    }

    /// Appends a code. `bits` must hold exactly `padded_dim / 64` words.
    pub fn push(&mut self, bits: &[u64], norm: f32, ip_oo: f32) {
        assert_eq!(bits.len(), self.words_per_code, "code word count");
        let popcount: u32 = bits.iter().map(|w| w.count_ones()).sum();
        self.bits.extend_from_slice(bits);
        self.norms.push(norm);
        self.ip_oos.push(ip_oo);
        self.popcounts.push(popcount);
        self.norms_sq.push(norm * norm);
        self.inv_ip_oos.push(estimator::inv_ip_oo(ip_oo));
        self.err_bases
            .push(estimator::error_base(ip_oo, self.padded_dim));
    }

    /// The bit words of code `i`.
    #[inline]
    pub fn code_bits(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words_per_code..(i + 1) * self.words_per_code]
    }

    /// The precomputed factors of code `i`.
    #[inline]
    pub fn factors(&self, i: usize) -> CodeFactors {
        CodeFactors {
            norm: self.norms[i],
            ip_oo: self.ip_oos[i],
            popcount: self.popcounts[i],
        }
    }

    /// All norms (`‖o_r − c‖` per vector).
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// All popcounts (set-bit count per code).
    #[inline]
    pub fn popcounts(&self) -> &[u32] {
        &self.popcounts
    }

    /// Struct-of-arrays factor columns for codes `start..start + len`, in
    /// the layout [`estimator::estimate_block`] consumes.
    #[inline]
    pub fn factor_slices(&self, start: usize, len: usize) -> estimator::FactorSlices<'_> {
        let end = start + len;
        estimator::FactorSlices {
            norms: &self.norms[start..end],
            norms_sq: &self.norms_sq[start..end],
            inv_ip_oos: &self.inv_ip_oos[start..end],
            err_bases: &self.err_bases[start..end],
            popcounts: &self.popcounts[start..end],
        }
    }

    /// Bit `d` of code `i` (dimension `d` of the sign string).
    #[inline]
    pub fn bit(&self, i: usize, d: usize) -> bool {
        debug_assert!(d < self.padded_dim);
        let w = self.code_bits(i)[d / 64];
        (w >> (d % 64)) & 1 == 1
    }

    /// Reconstructs the quantized unit vector `x̄ = (2x̄_b − 1)/√B` in the
    /// rotated basis. Used by tests and the ablation experiments; not a hot
    /// path.
    pub fn reconstruct_rotated(&self, i: usize) -> Vec<f32> {
        let inv_sqrt = 1.0 / (self.padded_dim as f32).sqrt();
        (0..self.padded_dim)
            .map(|d| if self.bit(i, d) { inv_sqrt } else { -inv_sqrt })
            .collect()
    }

    /// Serializes the set (see [`crate::persist`]).
    pub fn write<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use crate::persist as p;
        p::write_usize(w, self.padded_dim)?;
        p::write_u64_slice(w, &self.bits)?;
        p::write_f32_slice(w, &self.norms)?;
        p::write_f32_slice(w, &self.ip_oos)?;
        p::write_u32_slice(w, &self.popcounts)
    }

    /// Deserializes a set written by [`CodeSet::write`].
    pub fn read<R: std::io::Read>(r: &mut R) -> std::io::Result<Self> {
        use crate::persist as p;
        let padded_dim = p::read_usize(r)?;
        if padded_dim == 0 || padded_dim % 64 != 0 {
            return Err(p::invalid("bad code length"));
        }
        let words_per_code = padded_dim / 64;
        let bits = p::read_u64_vec(r)?;
        let norms = p::read_f32_vec(r)?;
        let ip_oos = p::read_f32_vec(r)?;
        let popcounts = p::read_u32_vec(r)?;
        let n = norms.len();
        if bits.len() != n * words_per_code || ip_oos.len() != n || popcounts.len() != n {
            return Err(p::invalid("code set arrays disagree on length"));
        }
        // The derived estimator columns are not part of the format;
        // recompute them with the same ops `push` uses so a loaded set is
        // bit-identical to a freshly built one.
        let norms_sq = norms.iter().map(|&v| v * v).collect();
        let inv_ip_oos = ip_oos.iter().map(|&v| estimator::inv_ip_oo(v)).collect();
        let err_bases = ip_oos
            .iter()
            .map(|&v| estimator::error_base(v, padded_dim))
            .collect();
        Ok(Self {
            padded_dim,
            words_per_code,
            bits,
            norms,
            ip_oos,
            popcounts,
            norms_sq,
            inv_ip_oos,
            err_bases,
        })
    }

    /// Shannon entropy (in bits) of each bit position across the set,
    /// summed over positions — the Appendix E uniformity diagnostic. A
    /// perfectly balanced code has entropy equal to `padded_dim`.
    pub fn total_bit_entropy(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let n = self.len() as f64;
        let mut ones = vec![0usize; self.padded_dim];
        for i in 0..self.len() {
            for (w_idx, &w) in self.code_bits(i).iter().enumerate() {
                let mut word = w;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    ones[w_idx * 64 + b] += 1;
                    word &= word - 1;
                }
            }
        }
        ones.iter()
            .map(|&c| {
                let p = c as f64 / n;
                if p <= 0.0 || p >= 1.0 {
                    0.0
                } else {
                    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_round_trips() {
        let mut set = CodeSet::new(128);
        let code = [0xDEAD_BEEF_u64, 0x0F0F_0F0F_0F0F_0F0F];
        set.push(&code, 2.5, 0.8);
        assert_eq!(set.len(), 1);
        assert_eq!(set.code_bits(0), &code);
        let f = set.factors(0);
        assert_eq!(f.norm, 2.5);
        assert_eq!(f.ip_oo, 0.8);
        assert_eq!(f.popcount, code.iter().map(|w| w.count_ones()).sum::<u32>());
    }

    #[test]
    fn bit_accessor_matches_word_layout() {
        let mut set = CodeSet::new(64);
        set.push(&[0b1010], 1.0, 1.0);
        assert!(!set.bit(0, 0));
        assert!(set.bit(0, 1));
        assert!(!set.bit(0, 2));
        assert!(set.bit(0, 3));
        assert!(!set.bit(0, 63));
    }

    #[test]
    fn reconstruct_produces_unit_vector_with_matching_signs() {
        let mut set = CodeSet::new(64);
        set.push(&[u64::MAX], 1.0, 1.0);
        let v = set.reconstruct_rotated(0);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>();
        assert!((norm - 1.0).abs() < 1e-5);
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn entropy_of_constant_bits_is_zero_and_balanced_is_full() {
        let mut set = CodeSet::new(64);
        set.push(&[0], 1.0, 1.0);
        set.push(&[0], 1.0, 1.0);
        assert_eq!(set.total_bit_entropy(), 0.0);

        let mut balanced = CodeSet::new(64);
        balanced.push(&[0], 1.0, 1.0);
        balanced.push(&[u64::MAX], 1.0, 1.0);
        assert!((balanced.total_bit_entropy() - 64.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rejects_unaligned_code_length() {
        CodeSet::new(100);
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn rejects_wrong_word_count_on_push() {
        let mut set = CodeSet::new(128);
        set.push(&[0u64], 1.0, 1.0);
    }
}
