//! The [`Rabitq`] quantizer: the user-facing type tying together rotation,
//! encoding (Algorithm 1), query preparation and estimation (Algorithm 2).
//!
//! ```
//! use rabitq_core::{Rabitq, RabitqConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let dim = 96;
//! let quantizer = Rabitq::new(dim, RabitqConfig::default());
//! let mut rng = StdRng::seed_from_u64(0);
//!
//! // Index phase: encode vectors against a centroid.
//! let centroid = vec![0.0f32; dim];
//! let data: Vec<Vec<f32>> = (0..100)
//!     .map(|_| rabitq_math::rng::standard_normal_vec(&mut rng, dim))
//!     .collect();
//! let codes = quantizer.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
//!
//! // Query phase: estimate distances from 1-bit codes.
//! let query = rabitq_math::rng::standard_normal_vec(&mut rng, dim);
//! let prepared = quantizer.prepare_query(&query, &centroid, &mut rng);
//! let est = quantizer.estimate(&prepared, &codes, 0);
//! let exact = rabitq_math::vecs::l2_sq(&data[0], &query);
//! assert!((est.dist_sq - exact).abs() / exact < 0.5);
//! ```

use crate::code::CodeSet;
use crate::estimator::{self, DistanceEstimate};
use crate::fastscan::{Lut, PackedCodes, BLOCK};
use crate::kernels::ip_code_query;
use crate::query::QuantizedQuery;
use crate::rotation::{Rotator, RotatorKind};
use rabitq_math::vecs;
use rand::Rng;

/// Configuration of a [`Rabitq`] quantizer. `B_q = 4` and `ε₀ = 1.9` are
/// the paper's; the default rotation is the O(D log D) randomized Hadamard
/// transform, whose code length is the smallest power of two ≥ `dim` (at
/// least 64). Set `rotator` to [`RotatorKind::DenseOrthogonal`] for the
/// paper's Haar matrix and its multiple-of-64 code length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RabitqConfig {
    /// Query quantization bits `B_q` (Theorem 3.3; 4 in practice).
    pub bq: u8,
    /// Confidence parameter `ε₀` of the error bound (Section 5.2.4).
    pub epsilon0: f32,
    /// Rotation construction.
    pub rotator: RotatorKind,
    /// Seed for sampling the rotation.
    pub seed: u64,
    /// Code length override (`None` = next multiple of 64 ≥ `dim`; the
    /// Hadamard rotator rounds either up to a power of two). Longer codes —
    /// the paper's zero-padding trick — trade space for accuracy.
    pub padded_dim: Option<usize>,
}

impl Default for RabitqConfig {
    fn default() -> Self {
        Self {
            bq: 4,
            epsilon0: 1.9,
            rotator: RotatorKind::RandomizedHadamard,
            seed: 0x5EED_AB17,
            padded_dim: None,
        }
    }
}

/// A RaBitQ quantizer for vectors of one dimensionality, sharing one
/// sampled rotation across all encoded vectors and queries.
#[derive(Clone, Debug)]
pub struct Rabitq {
    rotator: Rotator,
    dim: usize,
    config: RabitqConfig,
}

impl Rabitq {
    /// Samples a quantizer for `dim`-dimensional vectors.
    pub fn new(dim: usize, config: RabitqConfig) -> Self {
        let rotator = Rotator::sample(config.rotator, dim, config.padded_dim, config.seed);
        Self {
            rotator,
            dim,
            config,
        }
    }

    /// Input dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Code length `B` in bits.
    #[inline]
    pub fn padded_dim(&self) -> usize {
        self.rotator.padded_dim()
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &RabitqConfig {
        &self.config
    }

    /// Applies the index-wide rotation `P⁻¹` to an arbitrary raw vector.
    /// IVF uses this to rotate the query and all centroids once, then forms
    /// per-cluster residuals in rotated space (`P⁻¹` is linear).
    pub fn rotate(&self, v: &[f32]) -> Vec<f32> {
        self.rotator.rotate_vec(v)
    }

    /// [`Rabitq::rotate`] into a reused buffer (resized to `padded_dim`).
    /// Every element of `out` is overwritten, so at steady state the call
    /// performs no heap allocation.
    pub fn rotate_into(&self, v: &[f32], out: &mut Vec<f32>) {
        out.resize(self.padded_dim(), 0.0);
        self.rotator.rotate(v, out);
    }

    /// Creates an empty [`CodeSet`] compatible with this quantizer.
    pub fn new_code_set(&self) -> CodeSet {
        CodeSet::new(self.padded_dim())
    }

    /// Encodes one vector against `centroid`, appending to `set`
    /// (Algorithm 1, lines 1–4).
    pub fn encode_into(&self, vector: &[f32], centroid: &[f32], set: &mut CodeSet) {
        assert_eq!(vector.len(), self.dim, "vector dimensionality");
        assert_eq!(centroid.len(), self.dim, "centroid dimensionality");
        assert_eq!(set.padded_dim(), self.padded_dim(), "code set layout");
        let padded = self.padded_dim();
        let words = padded / 64;

        let mut residual = vec![0.0f32; self.dim];
        vecs::sub(vector, centroid, &mut residual);
        let norm = vecs::norm(&residual);

        let mut rotated = vec![0.0f32; padded];
        self.rotator.rotate(&residual, &mut rotated);

        let mut bits = vec![0u64; words];
        let ip_oo = if norm > f32::EPSILON {
            for (d, &x) in rotated.iter().enumerate() {
                if x >= 0.0 {
                    bits[d / 64] |= 1u64 << (d % 64);
                }
            }
            // ⟨ō,o⟩ = ‖P⁻¹o‖₁/√B with o the unit residual (Eq. 30).
            (vecs::l1_norm_f64(&rotated) / norm as f64 / (padded as f64).sqrt()) as f32
        } else {
            // Zero residual: no direction information. Convention: empty
            // code, perfect alignment; the estimator multiplies the inner
            // product by norm = 0, so the value never matters.
            1.0
        };
        set.push(&bits, norm, ip_oo);
    }

    /// Encodes a collection of vectors sharing one centroid.
    pub fn encode_set<'a, I>(&self, vectors: I, centroid: &[f32]) -> CodeSet
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut set = self.new_code_set();
        for v in vectors {
            self.encode_into(v, centroid, &mut set);
        }
        set
    }

    /// Prepares a raw query against `centroid` (Algorithm 2, lines 1–2):
    /// rotates the residual and scalar-quantizes it with randomized
    /// rounding.
    pub fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        centroid: &[f32],
        rng: &mut R,
    ) -> QuantizedQuery {
        self.prepare_query_bq(query, centroid, self.config.bq, rng)
    }

    /// [`Rabitq::prepare_query`] with an explicit `B_q` override — used by
    /// the Figure 6 verification study (the codes are `B_q`-independent,
    /// so one index serves every setting).
    pub fn prepare_query_bq<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        centroid: &[f32],
        bq: u8,
        rng: &mut R,
    ) -> QuantizedQuery {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        assert_eq!(centroid.len(), self.dim, "centroid dimensionality");
        let mut residual = vec![0.0f32; self.dim];
        vecs::sub(query, centroid, &mut residual);
        let rotated = self.rotator.rotate_vec(&residual);
        QuantizedQuery::from_rotated_residual(&rotated, bq, rng)
    }

    /// Prepares a query from pre-rotated pieces: `rotated_query = P⁻¹·q_r`
    /// and `rotated_centroid = P⁻¹·c`. This is the IVF fast path — the
    /// query is rotated once, and each probed cluster only pays an O(B)
    /// subtraction instead of another rotation.
    pub fn prepare_query_prerotated<R: Rng + ?Sized>(
        &self,
        rotated_query: &[f32],
        rotated_centroid: &[f32],
        rng: &mut R,
    ) -> QuantizedQuery {
        let padded = self.padded_dim();
        assert_eq!(rotated_query.len(), padded, "rotated query length");
        assert_eq!(rotated_centroid.len(), padded, "rotated centroid length");
        let mut residual = vec![0.0f32; padded];
        vecs::sub(rotated_query, rotated_centroid, &mut residual);
        QuantizedQuery::from_rotated_residual(&residual, self.config.bq, rng)
    }

    /// [`Rabitq::prepare_query_prerotated`] into reusable scratch state:
    /// the residual buffer, the quantized query, and the fast-scan LUT all
    /// live in `scratch` and are overwritten in place. After the scratch
    /// warms up (one call per shape), the per-probe cost is **zero heap
    /// allocations** — this is what lets the IVF search loop probe
    /// thousands of buckets without touching the allocator.
    pub fn prepare_query_prerotated_into<R: Rng + ?Sized>(
        &self,
        rotated_query: &[f32],
        rotated_centroid: &[f32],
        scratch: &mut QueryScratch,
        rng: &mut R,
    ) {
        let padded = self.padded_dim();
        assert_eq!(rotated_query.len(), padded, "rotated query length");
        assert_eq!(rotated_centroid.len(), padded, "rotated centroid length");
        scratch.residual.resize(padded, 0.0);
        vecs::sub(rotated_query, rotated_centroid, &mut scratch.residual);
        scratch
            .query
            .quantize_from_rotated_residual(&scratch.residual, self.config.bq, rng);
        scratch.lut.rebuild(&scratch.query);
    }

    /// Estimates the squared distance between the (raw) query behind
    /// `query` and the vector behind code `i`, via the single-code bitwise
    /// kernel (Algorithm 2, lines 3–5).
    pub fn estimate(&self, query: &QuantizedQuery, set: &CodeSet, i: usize) -> DistanceEstimate {
        self.estimate_with_epsilon(query, set, i, self.config.epsilon0)
    }

    /// [`Rabitq::estimate`] with an explicit `ε₀` — the Figure 5 study
    /// sweeps the confidence parameter without rebuilding the index.
    pub fn estimate_with_epsilon(
        &self,
        query: &QuantizedQuery,
        set: &CodeSet,
        i: usize,
        epsilon0: f32,
    ) -> DistanceEstimate {
        debug_assert_eq!(query.padded_dim(), self.padded_dim());
        let ip_bin = ip_code_query(set.code_bits(i), query);
        estimator::estimate(ip_bin, set.factors(i), query, self.padded_dim(), epsilon0)
    }

    /// Packs a code set for the batch (fast-scan) kernel.
    pub fn pack(&self, set: &CodeSet) -> PackedCodes {
        PackedCodes::pack(set)
    }

    /// Serializes the quantizer: configuration plus the sampled rotation
    /// (the rotation *must* be persisted — resampling from the seed is
    /// only equivalent for the same library version, and codes are
    /// meaningless under any other rotation).
    pub fn write<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use crate::persist as p;
        p::write_usize(w, self.dim)?;
        p::write_u8(w, self.config.bq)?;
        p::write_f32(w, self.config.epsilon0)?;
        p::write_u64(w, self.config.seed)?;
        self.rotator.write(w)
    }

    /// Deserializes a quantizer written by [`Rabitq::write`].
    pub fn read<R: std::io::Read>(r: &mut R) -> std::io::Result<Self> {
        use crate::persist as p;
        let dim = p::read_usize(r)?;
        let bq = p::read_u8(r)?;
        if !(1..=8).contains(&bq) {
            return Err(p::invalid("B_q out of range"));
        }
        let epsilon0 = p::read_f32(r)?;
        let seed = p::read_u64(r)?;
        let rotator = Rotator::read(r)?;
        if rotator.dim() != dim {
            return Err(p::invalid("rotator dimensionality mismatch"));
        }
        let config = RabitqConfig {
            bq,
            epsilon0,
            seed,
            rotator: rotator.kind(),
            padded_dim: Some(rotator.padded_dim()),
        };
        Ok(Self {
            rotator,
            dim,
            config,
        })
    }

    /// Batch estimation over all packed codes, writing one estimate per
    /// code into `out`. Returns estimates identical (bit-for-bit) to
    /// [`Rabitq::estimate`] because the integer kernels are exact.
    pub fn estimate_batch(
        &self,
        query: &QuantizedQuery,
        packed: &PackedCodes,
        set: &CodeSet,
        out: &mut Vec<DistanceEstimate>,
    ) {
        let lut = Lut::build(query);
        self.estimate_batch_with_lut(query, &lut, packed, set, self.config.epsilon0, out);
    }

    /// [`Rabitq::estimate_batch`] with an explicit `ε₀` and a
    /// caller-provided LUT (normally [`QueryScratch::lut`], built once per
    /// probe by [`Rabitq::prepare_query_prerotated_into`]). `out` is sized
    /// with a single `resize` and then overwritten in place, so a reused
    /// buffer at steady state is written exactly once per element and the
    /// call performs no heap allocation.
    ///
    /// The kernel function pointer and the query-side affine terms of
    /// Eq. 20 are resolved once up front; each block is then one SIMD
    /// scan followed by the autovectorized affine map of
    /// [`estimator::estimate_block`] over the precomputed factor columns.
    pub fn estimate_batch_with_lut(
        &self,
        query: &QuantizedQuery,
        lut: &Lut,
        packed: &PackedCodes,
        set: &CodeSet,
        epsilon0: f32,
        out: &mut Vec<DistanceEstimate>,
    ) {
        debug_assert_eq!(packed.len(), set.len());
        out.resize(set.len(), DistanceEstimate::default());
        let mut buf = [0u32; BLOCK];
        let terms = estimator::QueryTerms::new(query, self.padded_dim());
        let scanner = packed.scanner(lut);
        for b in 0..packed.n_blocks() {
            scanner.scan_block(b, &mut buf);
            let start = b * BLOCK;
            let take = BLOCK.min(set.len() - start);
            estimator::estimate_block(
                &buf[..take],
                set.factor_slices(start, take),
                &terms,
                epsilon0,
                &mut out[start..start + take],
            );
        }
    }
}

/// Reusable query-preparation state for the IVF fast path: the rotated
/// residual buffer, the quantized query, and its fast-scan LUT.
///
/// One scratch serves one search thread; [`Rabitq::prepare_query_prerotated_into`]
/// overwrites it per probed bucket without allocating (after the first,
/// shape-establishing call). This is the core half of the engine-level
/// `SearchScratch` in `rabitq-ivf`.
pub struct QueryScratch {
    pub(crate) residual: Vec<f32>,
    pub(crate) query: QuantizedQuery,
    pub(crate) lut: Lut,
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            residual: Vec::new(),
            query: QuantizedQuery::empty(),
            lut: Lut::empty(),
        }
    }

    /// The most recently prepared quantized query.
    #[inline]
    pub fn query(&self) -> &QuantizedQuery {
        &self.query
    }

    /// The LUT built for the most recently prepared query.
    #[inline]
    pub fn lut(&self) -> &Lut {
        &self.lut
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_math::rng::standard_normal_vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_data(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| standard_normal_vec(&mut rng, dim)).collect()
    }

    #[test]
    fn single_and_batch_paths_agree_bit_for_bit() {
        let dim = 120;
        let q = Rabitq::new(dim, RabitqConfig::default());
        let data = make_data(70, dim, 1);
        let centroid = vec![0.1f32; dim];
        let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
        let packed = q.pack(&codes);
        let mut rng = StdRng::seed_from_u64(2);
        let query_vec = standard_normal_vec(&mut rng, dim);
        let prepared = q.prepare_query(&query_vec, &centroid, &mut rng);
        let mut batch = Vec::new();
        q.estimate_batch(&prepared, &packed, &codes, &mut batch);
        assert_eq!(batch.len(), 70);
        for (i, &b) in batch.iter().enumerate().take(70) {
            let single = q.estimate(&prepared, &codes, i);
            assert_eq!(single, b, "code {i}");
        }
    }

    #[test]
    fn scratch_query_path_matches_allocating_path_bit_for_bit() {
        // Same RNG stream + same residual ⇒ the scratch-based prepare and
        // LUT must reproduce the allocating path exactly, across repeated
        // reuse against different centroids.
        let dim = 96;
        let q = Rabitq::new(dim, RabitqConfig::default());
        let data = make_data(40, dim, 15);
        let centroids: Vec<Vec<f32>> = (0..3)
            .map(|c| (0..dim).map(|i| ((i + c) as f32 * 0.05).cos()).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(16);
        let query_vec = standard_normal_vec(&mut rng, dim);
        let rotated_query = q.rotate(&query_vec);
        let mut scratch = QueryScratch::new();
        for centroid in &centroids {
            let codes = q.encode_set(data.iter().map(|v| v.as_slice()), centroid);
            let packed = q.pack(&codes);
            let rotated_centroid = q.rotate(centroid);
            let mut rng_a = StdRng::seed_from_u64(17);
            let mut rng_b = StdRng::seed_from_u64(17);
            let prepared =
                q.prepare_query_prerotated(&rotated_query, &rotated_centroid, &mut rng_a);
            q.prepare_query_prerotated_into(
                &rotated_query,
                &rotated_centroid,
                &mut scratch,
                &mut rng_b,
            );
            assert_eq!(scratch.query().qu(), prepared.qu());
            let mut batch_a = Vec::new();
            q.estimate_batch(&prepared, &packed, &codes, &mut batch_a);
            let mut batch_b = Vec::new();
            q.estimate_batch_with_lut(
                scratch.query(),
                scratch.lut(),
                &packed,
                &codes,
                q.config().epsilon0,
                &mut batch_b,
            );
            assert_eq!(batch_a, batch_b);
        }
    }

    #[test]
    fn estimates_track_true_distances() {
        // With D = 512 the bound is ~1.9·0.75/√511 ≈ 6% on ⟨o,q⟩; relative
        // distance errors should be well under 25% for generic Gaussian
        // data.
        let dim = 512;
        let q = Rabitq::new(dim, RabitqConfig::default());
        let data = make_data(50, dim, 3);
        let centroid = vec![0.0f32; dim];
        let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
        let mut rng = StdRng::seed_from_u64(4);
        let query_vec = standard_normal_vec(&mut rng, dim);
        let prepared = q.prepare_query(&query_vec, &centroid, &mut rng);
        let mut rel_err_sum = 0.0f64;
        for (i, v) in data.iter().enumerate() {
            let est = q.estimate(&prepared, &codes, i);
            let exact = vecs::l2_sq(v, &query_vec);
            rel_err_sum += ((est.dist_sq - exact).abs() / exact) as f64;
        }
        let avg = rel_err_sum / data.len() as f64;
        assert!(avg < 0.15, "average relative error {avg}");
    }

    #[test]
    fn lower_bound_holds_for_the_vast_majority() {
        // The one-sided miss probability at ε₀ = 1.9 is ≈ P(N(0,1) > 1.9)
        // ≈ 2.9% per pair (Lemma B.1 with √(D−1)·X₁ ≈ N(0,1)), so over 200
        // pairs we expect ~6 violations; 15 is > 3σ above that mean.
        let dim = 128;
        let q = Rabitq::new(dim, RabitqConfig::default());
        let data = make_data(200, dim, 5);
        let centroid = vec![0.0f32; dim];
        let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
        let mut rng = StdRng::seed_from_u64(6);
        let query_vec = standard_normal_vec(&mut rng, dim);
        let prepared = q.prepare_query(&query_vec, &centroid, &mut rng);
        let mut violations = 0;
        for (i, v) in data.iter().enumerate() {
            let est = q.estimate(&prepared, &codes, i);
            let exact = vecs::l2_sq(v, &query_vec);
            if est.lower_bound > exact {
                violations += 1;
            }
        }
        assert!(violations <= 15, "{violations} bound violations out of 200");
    }

    #[test]
    fn prerotated_query_path_matches_direct_path_statistically() {
        // The pre-rotated path quantizes the same residual, so with the
        // same RNG stream it must produce the identical query.
        let dim = 100;
        let q = Rabitq::new(dim, RabitqConfig::default());
        let centroid: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let query_vec = standard_normal_vec(&mut rng, dim);

        let mut rng_a = StdRng::seed_from_u64(8);
        let direct = q.prepare_query(&query_vec, &centroid, &mut rng_a);

        let rotated_query = q.rotate(&query_vec);
        let rotated_centroid = q.rotate(&centroid);
        let mut rng_b = StdRng::seed_from_u64(8);
        let prerotated = q.prepare_query_prerotated(&rotated_query, &rotated_centroid, &mut rng_b);

        // Rotation is linear so the residuals agree to f32 round-off; the
        // randomized rounding sees near-identical inputs and the identical
        // RNG stream. Allow an off-by-one on a few entries due to round-off
        // at rounding boundaries.
        assert!((direct.q_dist - prerotated.q_dist).abs() < 1e-3);
        let diffs = direct
            .qu()
            .iter()
            .zip(prerotated.qu().iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(diffs <= 2, "{diffs} entries differ");
    }

    #[test]
    fn alignment_concentrates_around_0_8() {
        let dim = 256;
        let q = Rabitq::new(dim, RabitqConfig::default());
        let data = make_data(100, dim, 9);
        let centroid = vec![0.0f32; dim];
        let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
        let mean: f64 = (0..100).map(|i| codes.factors(i).ip_oo as f64).sum::<f64>() / 100.0;
        assert!((mean - 0.8).abs() < 0.02, "mean alignment {mean}");
    }

    #[test]
    fn vector_equal_to_centroid_gets_exact_estimate() {
        let dim = 64;
        let q = Rabitq::new(dim, RabitqConfig::default());
        let centroid = vec![0.5f32; dim];
        let codes = q.encode_set(std::iter::once(centroid.as_slice()), &centroid);
        assert_eq!(codes.factors(0).norm, 0.0);
        let mut rng = StdRng::seed_from_u64(10);
        let query_vec = standard_normal_vec(&mut rng, dim);
        let prepared = q.prepare_query(&query_vec, &centroid, &mut rng);
        let est = q.estimate(&prepared, &codes, 0);
        let exact = vecs::l2_sq(&centroid, &query_vec);
        assert!((est.dist_sq - exact).abs() / exact < 1e-3);
    }

    #[test]
    fn longer_codes_reduce_error() {
        // The paper's padding trick (Section 5.1): more bits, lower error.
        let dim = 64;
        let data = make_data(80, dim, 11);
        let centroid = vec![0.0f32; dim];
        let mut avg_err = Vec::new();
        for padded in [64usize, 256] {
            let cfg = RabitqConfig {
                padded_dim: Some(padded),
                ..RabitqConfig::default()
            };
            let q = Rabitq::new(dim, cfg);
            let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
            let mut rng = StdRng::seed_from_u64(12);
            let query_vec = standard_normal_vec(&mut rng, dim);
            let prepared = q.prepare_query(&query_vec, &centroid, &mut rng);
            let mut err = 0.0f64;
            for (i, v) in data.iter().enumerate() {
                let est = q.estimate(&prepared, &codes, i);
                let exact = vecs::l2_sq(v, &query_vec);
                err += ((est.dist_sq - exact).abs() / exact) as f64;
            }
            avg_err.push(err / data.len() as f64);
        }
        assert!(
            avg_err[1] < avg_err[0],
            "256-bit codes ({}) should beat 64-bit codes ({})",
            avg_err[1],
            avg_err[0]
        );
    }

    #[test]
    fn both_rotator_kinds_produce_comparable_accuracy() {
        let dim = 128;
        let data = make_data(60, dim, 13);
        let centroid = vec![0.0f32; dim];
        for rotator in [
            RotatorKind::DenseOrthogonal,
            RotatorKind::RandomizedHadamard,
        ] {
            let cfg = RabitqConfig {
                rotator,
                ..RabitqConfig::default()
            };
            let q = Rabitq::new(dim, cfg);
            let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
            let mut rng = StdRng::seed_from_u64(14);
            let query_vec = standard_normal_vec(&mut rng, dim);
            let prepared = q.prepare_query(&query_vec, &centroid, &mut rng);
            let mut err = 0.0f64;
            for (i, v) in data.iter().enumerate() {
                let est = q.estimate(&prepared, &codes, i);
                let exact = vecs::l2_sq(v, &query_vec);
                err += ((est.dist_sq - exact).abs() / exact) as f64;
            }
            let avg = err / data.len() as f64;
            assert!(avg < 0.35, "{rotator:?}: average relative error {avg}");
        }
    }
}
