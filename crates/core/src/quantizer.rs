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

impl RabitqConfig {
    /// Checks the settings no quantizer can run with: a `B_q` outside
    /// `1..=8`, or an `ε₀` that is not a finite number ≥ 0. Every place a
    /// configuration enters — flags, a fresh collection, a decoded file —
    /// asks this one check.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(1..=8).contains(&self.bq) {
            return Err("B_q must be in 1..=8");
        }
        if !(self.epsilon0.is_finite() && self.epsilon0 >= 0.0) {
            return Err("epsilon0 must be a finite number >= 0");
        }
        Ok(())
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
    ///
    /// # Panics
    /// Panics with [`RabitqConfig::validate`]'s message if `config` is one
    /// no quantizer can run with, so no index is ever built (and saved)
    /// that its reader would reject.
    pub fn new(dim: usize, config: RabitqConfig) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid RaBitQ config: {why}");
        }
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

    /// `B_q` of a centred query plan: `min(B_q + 2, 6)`, never below the
    /// configured `B_q`. One quantized `w = P⁻¹(q − μ)` spans a 2–3× wider
    /// range than a per-centroid residual; two more bits bring the
    /// lower-bound failure rate back to the per-residual rate, and 6 is the
    /// widest query the `u8` fast-scan LUT admits.
    #[inline]
    pub fn plan_bq(&self) -> u8 {
        self.config
            .bq
            .saturating_add(2)
            .min(crate::fastscan::MAX_U8_LUT_BQ)
            .max(self.config.bq)
    }

    /// Applies the index-wide rotation `P⁻¹` to an arbitrary raw vector.
    /// IVF uses this to rotate its centroids and centre once (`P⁻¹` is
    /// linear, so residuals can be formed in rotated space).
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
    /// rounding. For another `B_q` (the Figure 6 study), quantize the
    /// rotated residual with [`QuantizedQuery::from_rotated_residual`].
    pub fn prepare_query<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        centroid: &[f32],
        rng: &mut R,
    ) -> QuantizedQuery {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        assert_eq!(centroid.len(), self.dim, "centroid dimensionality");
        let mut residual = vec![0.0f32; self.dim];
        vecs::sub(query, centroid, &mut residual);
        let rotated = self.rotator.rotate_vec(&residual);
        QuantizedQuery::from_rotated_residual(&rotated, self.config.bq, rng)
    }

    /// Prepares a per-residual query from pre-rotated pieces,
    /// `rotated_query = P⁻¹·q_r` and `rotated_centroid = P⁻¹·c`, into
    /// reusable scratch state: the residual buffer, the quantized query
    /// and the fast-scan LUT all live in `scratch` and are overwritten in
    /// place, with no heap allocation once the scratch has warmed up. The
    /// per-bucket preparation, kept for measuring it in isolation; the IVF
    /// engine prepares one centred query per search instead
    /// ([`Rabitq::prepare_centred_into`]).
    pub fn prepare_query_prerotated_into<R: Rng + ?Sized>(
        &self,
        rotated_query: &[f32],
        rotated_centroid: &[f32],
        scratch: &mut QueryScratch,
        rng: &mut R,
    ) {
        self.quantize_into(
            rotated_query,
            Some(rotated_centroid),
            self.config.bq,
            scratch,
            rng,
        );
    }

    /// Prepares the one centred query of a search plan: quantizes the
    /// rotated `w = P⁻¹(q − μ)` at [`Rabitq::plan_bq`] bits and builds its
    /// LUT into `scratch`, with no heap allocation once the scratch has
    /// warmed up. Every bucket is then estimated from this one LUT through
    /// [`QueryTerms::centred`](estimator::QueryTerms::centred) and the
    /// codes' centre offsets ([`CodeSet::centre_offsets`]).
    pub fn prepare_centred_into<R: Rng + ?Sized>(
        &self,
        rotated_centred: &[f32],
        scratch: &mut QueryScratch,
        rng: &mut R,
    ) {
        self.quantize_into(rotated_centred, None, self.plan_bq(), scratch, rng);
    }

    /// The body both scratch preparations share: `rotated` less the
    /// optional `rotated_centroid`, quantized at `bq` bits, and its LUT.
    fn quantize_into<R: Rng + ?Sized>(
        &self,
        rotated: &[f32],
        rotated_centroid: Option<&[f32]>,
        bq: u8,
        scratch: &mut QueryScratch,
        rng: &mut R,
    ) {
        let padded = self.padded_dim();
        assert_eq!(rotated.len(), padded, "rotated query length");
        let w = match rotated_centroid {
            Some(centroid) => {
                assert_eq!(centroid.len(), padded, "rotated centroid length");
                scratch.residual.resize(padded, 0.0);
                vecs::sub(rotated, centroid, &mut scratch.residual);
                &scratch.residual[..]
            }
            None => rotated,
        };
        scratch.query.quantize_from_rotated_residual(w, bq, rng);
        scratch.lut.rebuild(&scratch.query);
    }

    /// Estimates the squared distance between the (raw) query behind
    /// `query` and the vector behind code `i`, via the single-code bitwise
    /// kernel (Algorithm 2, lines 3–5).
    pub fn estimate(&self, query: &QuantizedQuery, set: &CodeSet, i: usize) -> DistanceEstimate {
        debug_assert_eq!(query.padded_dim(), self.padded_dim());
        let ip_bin = ip_code_query(set.code_bits(i), query);
        estimator::estimate(
            ip_bin,
            set.factors(i),
            query,
            self.padded_dim(),
            self.config.epsilon0,
        )
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
        config.validate().map_err(p::invalid)?;
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
    /// caller-provided LUT of a per-residual query (normally
    /// [`QueryScratch::lut`], built by
    /// [`Rabitq::prepare_query_prerotated_into`]).
    pub fn estimate_batch_with_lut(
        &self,
        query: &QuantizedQuery,
        lut: &Lut,
        packed: &PackedCodes,
        set: &CodeSet,
        epsilon0: f32,
        out: &mut Vec<DistanceEstimate>,
    ) {
        let terms = estimator::QueryTerms::new(query, self.padded_dim());
        Self::estimate_blocks(&terms, lut, packed, set, None, epsilon0, out);
    }

    /// Batch estimation of one bucket under the centred query held by
    /// `scratch` ([`Rabitq::prepare_centred_into`]): `centroid_dist_sq` is
    /// the bucket centroid's squared distance from the raw query and
    /// `offsets` its codes' centre offsets. Bit-identical to
    /// [`estimator::estimate_with_terms`] under
    /// [`QueryTerms::centred`](estimator::QueryTerms::centred) per code.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate_batch_centred(
        &self,
        scratch: &QueryScratch,
        centroid_dist_sq: f32,
        packed: &PackedCodes,
        set: &CodeSet,
        offsets: &[f32],
        epsilon0: f32,
        out: &mut Vec<DistanceEstimate>,
    ) {
        assert_eq!(offsets.len(), set.len(), "one centre offset per code");
        let terms =
            estimator::QueryTerms::centred(&scratch.query, self.padded_dim(), centroid_dist_sq);
        Self::estimate_blocks(
            &terms,
            &scratch.lut,
            packed,
            set,
            Some(offsets),
            epsilon0,
            out,
        );
    }

    /// The batch loop shared by the residual and the centred query.
    /// `out` is sized with a single `resize` and then overwritten in
    /// place, so a reused buffer at steady state is written exactly once
    /// per element and the call performs no heap allocation.
    ///
    /// The kernel function pointer is resolved once up front; each block
    /// is then one SIMD scan followed by the autovectorized affine map of
    /// [`estimator::estimate_block`] over the precomputed factor columns
    /// (offsets 0 for a residual query).
    fn estimate_blocks(
        terms: &estimator::QueryTerms,
        lut: &Lut,
        packed: &PackedCodes,
        set: &CodeSet,
        offsets: Option<&[f32]>,
        epsilon0: f32,
        out: &mut Vec<DistanceEstimate>,
    ) {
        const NO_OFFSETS: [f32; BLOCK] = [0.0; BLOCK];
        debug_assert_eq!(packed.len(), set.len());
        out.resize(set.len(), DistanceEstimate::default());
        let mut buf = [0u32; BLOCK];
        let scanner = packed.scanner(lut);
        for b in 0..packed.n_blocks() {
            scanner.scan_block(b, &mut buf);
            let start = b * BLOCK;
            let take = BLOCK.min(set.len() - start);
            estimator::estimate_block(
                &buf[..take],
                set.factor_slices(start, take),
                offsets.map_or(&NO_OFFSETS[..take], |g| &g[start..start + take]),
                terms,
                epsilon0,
                &mut out[start..start + take],
            );
        }
    }
}

/// Reusable query-preparation state: the quantized query and its
/// fast-scan LUT, plus the residual buffer of the per-bucket preparation.
///
/// One scratch serves one search thread; [`Rabitq::prepare_centred_into`]
/// (or [`Rabitq::prepare_query_prerotated_into`]) overwrites it without
/// allocating after the first, shape-establishing call. This is the core
/// half of the engine-level `SearchScratch` in `rabitq-ivf`.
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
            let mut residual = vec![0.0f32; q.padded_dim()];
            vecs::sub(&rotated_query, &rotated_centroid, &mut residual);
            let prepared =
                QuantizedQuery::from_rotated_residual(&residual, q.config().bq, &mut rng_a);
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
    fn centred_batch_matches_per_code_reference_bit_for_bit() {
        // Odd set sizes leave a ragged tail block (BLOCK = 32); the batch
        // must equal the per-code estimator under the same centred terms.
        let dim = 100;
        let centroid: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.03).sin()).collect();
        let centre: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.07).cos() * 0.5).collect();
        let mut from_centre = vec![0.0f32; dim];
        vecs::sub(&centroid, &centre, &mut from_centre);
        for rotator in [
            RotatorKind::DenseOrthogonal,
            RotatorKind::RandomizedHadamard,
        ] {
            let q = Rabitq::new(
                dim,
                RabitqConfig {
                    rotator,
                    ..RabitqConfig::default()
                },
            );
            let padded = q.padded_dim();
            let mut scratch = QueryScratch::new();
            let mut batch = Vec::new();
            for n in [1usize, 31, 33, 97] {
                let data = make_data(n, dim, 20 + n as u64);
                let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
                let packed = q.pack(&codes);
                let mut offsets = Vec::new();
                codes.centre_offsets(&q.rotate(&from_centre), &mut offsets);
                let mut rng = StdRng::seed_from_u64(21);
                let query_vec = standard_normal_vec(&mut rng, dim);
                let mut centred = vec![0.0f32; dim];
                vecs::sub(&query_vec, &centre, &mut centred);
                q.prepare_centred_into(&q.rotate(&centred), &mut scratch, &mut rng);
                let centroid_dist_sq = vecs::l2_sq(&centroid, &query_vec);
                let epsilon0 = q.config().epsilon0;
                q.estimate_batch_centred(
                    &scratch,
                    centroid_dist_sq,
                    &packed,
                    &codes,
                    &offsets,
                    epsilon0,
                    &mut batch,
                );
                assert_eq!(batch.len(), n);
                let terms =
                    estimator::QueryTerms::centred(scratch.query(), padded, centroid_dist_sq);
                for (i, &b) in batch.iter().enumerate() {
                    let single = estimator::estimate_with_terms(
                        ip_code_query(codes.code_bits(i), scratch.query()),
                        codes.factors(i),
                        offsets[i],
                        &terms,
                        padded,
                        epsilon0,
                    );
                    assert_eq!(single, b, "{rotator:?} n {n} code {i}");
                }
            }
        }
    }

    #[test]
    fn new_rejects_configs_no_reader_accepts() {
        let bad = [
            RabitqConfig {
                bq: 0,
                ..RabitqConfig::default()
            },
            RabitqConfig {
                bq: 9,
                ..RabitqConfig::default()
            },
            RabitqConfig {
                epsilon0: -5.0,
                ..RabitqConfig::default()
            },
            RabitqConfig {
                epsilon0: f32::NAN,
                ..RabitqConfig::default()
            },
        ];
        for config in bad {
            let why = config.validate().unwrap_err();
            let panic = std::panic::catch_unwind(|| Rabitq::new(64, config))
                .expect_err("an invalid config was accepted");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains(why), "{config:?}: {message}");
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
        let mut residual = vec![0.0f32; q.padded_dim()];
        vecs::sub(&rotated_query, &rotated_centroid, &mut residual);
        let mut rng_b = StdRng::seed_from_u64(8);
        let prerotated =
            QuantizedQuery::from_rotated_residual(&residual, q.config().bq, &mut rng_b);

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
