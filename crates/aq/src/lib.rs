//! # rabitq-aq — LSQ-style additive quantization baseline
//!
//! The RaBitQ paper's third baseline, LSQ/LSQ++ (Martinez et al., ECCV
//! 2016/2018), belongs to the *additive quantization* family: a vector is
//! approximated by the **sum of `M` full-dimensional codewords**, one from
//! each of `M` codebooks of `2^k` entries,
//!
//! ```text
//! x ≈ x̂ = Σ_m C_m[i_m],    i_m ∈ [0, 2^k).
//! ```
//!
//! Finding the optimal code `(i_1, …, i_M)` is NP-hard; LSQ++'s contribution
//! is a better approximate solver. This crate implements the standard
//! alternating scheme the LSQ line builds on (documented as a substitution
//! in `DESIGN.md` §5):
//!
//! * **init** — residual vector quantization (RVQ): codebook `m` is KMeans
//!   over the residuals left by codebooks `1..m`;
//! * **encoding** — iterated conditional modes (ICM): cyclic coordinate
//!   descent over the `M` code indices;
//! * **codebook update** — with codes fixed, codebook `m`'s entry `j` is the
//!   mean of `x − Σ_{m'≠m} C_{m'}[i_{m'}]` over vectors assigned `j` at `m`.
//!
//! It reproduces the paper's qualitative findings about LSQ: accuracy can
//! beat PQ at equal code length, but encoding is orders of magnitude slower
//! (Table 4's ">24 h" row) and quality is unstable across datasets.
//!
//! Distance estimation is ADC in inner-product form:
//! `‖q − x̂‖² = ‖q‖² − 2Σ_m ⟨q, C_m[i_m]⟩ + ‖x̂‖²`, with `‖x̂‖²` precomputed
//! at index time and `⟨q, C_m[·]⟩` tabulated per query — `k = 4` tables are
//! fast-scannable with the same machinery as PQ (`rabitq-pq::fastscan`).

use rabitq_kmeans::{train as kmeans_train, KMeansConfig};
use rabitq_math::vecs;
use rabitq_pq::{PqCodes, PqPacked, QuantizedLuts};

/// Configuration for [`AdditiveQuantizer::train`].
#[derive(Clone, Debug)]
pub struct AqConfig {
    /// Number of codebooks `M`.
    pub m: usize,
    /// Bits per codebook (4 → 16 codewords, enabling fast scan).
    pub k_bits: u8,
    /// Alternating (ICM re-encode + codebook refit) rounds after RVQ init.
    pub refine_iters: usize,
    /// ICM sweeps per encoding.
    pub icm_passes: usize,
    /// KMeans iterations for the RVQ init.
    pub kmeans_iters: usize,
    /// Cap on training vectors.
    pub training_sample: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl AqConfig {
    /// A default mirroring LSQ's `k = 4` fast-scan setup.
    pub fn x4(m: usize) -> Self {
        Self {
            m,
            k_bits: 4,
            refine_iters: 3,
            icm_passes: 2,
            kmeans_iters: 15,
            training_sample: Some(20_000),
            seed: 0xA9,
        }
    }
}

/// A trained additive quantizer.
#[derive(Clone, Debug)]
pub struct AdditiveQuantizer {
    dim: usize,
    m: usize,
    k: usize,
    /// `m × k × dim` codewords, flattened.
    codebooks: Vec<f32>,
    icm_passes: usize,
}

/// Encoded vectors plus the per-vector `‖x̂‖²` needed by the estimator.
#[derive(Clone, Debug)]
pub struct AqCodes {
    /// Code indices, stored in the PQ layout (`n × m` bytes) so the PQ
    /// fast-scan packer applies unchanged.
    pub codes: PqCodes,
    /// `‖x̂‖²` per vector.
    pub recon_norms_sq: Vec<f32>,
}

impl AqCodes {
    /// Number of encoded vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.recon_norms_sq.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.recon_norms_sq.is_empty()
    }
}

impl AdditiveQuantizer {
    /// Trains codebooks over `data` (flat `n × dim`).
    ///
    /// # Panics
    /// Panics on an empty dataset, `m == 0`, or `k_bits ∉ {4, 8}`.
    pub fn train(data: &[f32], dim: usize, config: &AqConfig) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "data shape");
        assert!(config.m > 0, "M must be positive");
        assert!(config.k_bits == 4 || config.k_bits == 8, "k must be 4 or 8");
        let n_all = data.len() / dim;
        assert!(n_all > 0, "cannot train on an empty dataset");
        let k = 1usize << config.k_bits;
        let n = config.training_sample.map_or(n_all, |cap| cap.min(n_all));
        let train_data = &data[..n * dim];

        // ---- RVQ init: codebook m = KMeans over current residuals. ----
        let mut residuals = train_data.to_vec();
        let mut codebooks = vec![0.0f32; config.m * k * dim];
        let mut codes = vec![0u8; n * config.m];
        for m in 0..config.m {
            let mut km_cfg = KMeansConfig::new(k);
            km_cfg.max_iters = config.kmeans_iters;
            km_cfg.seed = config.seed.wrapping_add(m as u64);
            let km = kmeans_train(&residuals, dim, &km_cfg);
            let book = &mut codebooks[m * k * dim..(m + 1) * k * dim];
            for c in 0..k {
                book[c * dim..(c + 1) * dim].copy_from_slice(km.centroid(c.min(km.k() - 1)));
            }
            for i in 0..n {
                let r = &mut residuals[i * dim..(i + 1) * dim];
                let (c, _) = km.assign(r);
                codes[i * config.m + m] = c as u8;
                vecs::sub_assign(r, km.centroid(c));
            }
        }

        let mut aq = Self {
            dim,
            m: config.m,
            k,
            codebooks,
            icm_passes: config.icm_passes,
        };

        // ---- Alternating refinement. ----
        for _ in 0..config.refine_iters {
            // (1) Re-encode with ICM.
            for i in 0..n {
                let v = &train_data[i * dim..(i + 1) * dim];
                aq.icm_encode(v, &mut codes[i * config.m..(i + 1) * config.m]);
            }
            // (2) Refit each codebook against the residuals it must explain.
            aq.refit_codebooks(train_data, &codes, n);
        }
        aq
    }

    /// With codes fixed, re-estimate every codeword as the mean of its
    /// assigned residuals (skipping empty codewords).
    fn refit_codebooks(&mut self, data: &[f32], codes: &[u8], n: usize) {
        let (dim, m, k) = (self.dim, self.m, self.k);
        let mut recon = vec![0.0f32; dim];
        for target in 0..m {
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for i in 0..n {
                let v = &data[i * dim..(i + 1) * dim];
                let code = &codes[i * m..(i + 1) * m];
                // Residual w.r.t. all codebooks except `target`.
                recon.fill(0.0);
                for (mm, &c) in code.iter().enumerate() {
                    if mm != target {
                        vecs::add_assign(&mut recon, self.codeword(mm, c as usize));
                    }
                }
                let j = code[target] as usize;
                counts[j] += 1;
                for (d, s) in sums[j * dim..(j + 1) * dim].iter_mut().enumerate() {
                    *s += (v[d] - recon[d]) as f64;
                }
            }
            let book = &mut self.codebooks[target * k * dim..(target + 1) * k * dim];
            for j in 0..k {
                if counts[j] > 0 {
                    let inv = 1.0 / counts[j] as f64;
                    for (dst, &s) in book[j * dim..(j + 1) * dim]
                        .iter_mut()
                        .zip(sums[j * dim..(j + 1) * dim].iter())
                    {
                        *dst = (s * inv) as f32;
                    }
                }
            }
        }
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of codebooks `M`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codeword `j` of codebook `m`.
    #[inline]
    pub fn codeword(&self, m: usize, j: usize) -> &[f32] {
        let base = (m * self.k + j) * self.dim;
        &self.codebooks[base..base + self.dim]
    }

    /// ICM encoding: greedy RVQ init then cyclic coordinate descent.
    /// `code` must hold `m` bytes and is fully overwritten.
    pub fn icm_encode(&self, v: &[f32], code: &mut [u8]) {
        assert_eq!(v.len(), self.dim, "vector dimensionality");
        assert_eq!(code.len(), self.m, "code length");
        // Greedy init: choose each codeword against the running residual.
        let mut residual = v.to_vec();
        for (m, slot) in code.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for j in 0..self.k {
                let d = vecs::l2_sq(&residual, self.codeword(m, j));
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            *slot = best as u8;
            vecs::sub_assign(&mut residual, self.codeword(m, best));
        }
        // ICM sweeps: residual currently equals v − x̂.
        for _ in 0..self.icm_passes {
            let mut changed = false;
            for (m, slot) in code.iter_mut().enumerate() {
                // Residual with codebook m's contribution added back.
                vecs::add_assign(&mut residual, self.codeword(m, *slot as usize));
                let mut best = *slot as usize;
                let mut best_d = f32::INFINITY;
                for j in 0..self.k {
                    let d = vecs::l2_sq(&residual, self.codeword(m, j));
                    if d < best_d {
                        best_d = d;
                        best = j;
                    }
                }
                if best != *slot as usize {
                    changed = true;
                    *slot = best as u8;
                }
                vecs::sub_assign(&mut residual, self.codeword(m, best));
            }
            if !changed {
                break;
            }
        }
    }

    /// Encodes a batch of vectors, precomputing `‖x̂‖²`.
    pub fn encode_set<'a, I>(&self, vectors: I) -> AqCodes
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut codes = PqCodes {
            m: self.m,
            codes: Vec::new(),
        };
        let mut norms = Vec::new();
        let mut code = vec![0u8; self.m];
        let mut recon = vec![0.0f32; self.dim];
        for v in vectors {
            self.icm_encode(v, &mut code);
            codes.codes.extend_from_slice(&code);
            self.decode(&code, &mut recon);
            norms.push(vecs::dot(&recon, &recon));
        }
        AqCodes {
            codes,
            recon_norms_sq: norms,
        }
    }

    /// Reconstructs `x̂ = Σ_m C_m[i_m]`.
    pub fn decode(&self, code: &[u8], out: &mut [f32]) {
        assert_eq!(code.len(), self.m, "code length");
        assert_eq!(out.len(), self.dim, "output length");
        out.fill(0.0);
        for (m, &j) in code.iter().enumerate() {
            vecs::add_assign(out, self.codeword(m, j as usize));
        }
    }

    /// Per-query inner-product tables: `lut[m][j] = ⟨q, C_m[j]⟩`.
    pub fn build_ip_luts(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        let mut luts = vec![0.0f32; self.m * self.k];
        for m in 0..self.m {
            for j in 0..self.k {
                luts[m * self.k + j] = vecs::dot(query, self.codeword(m, j));
            }
        }
        luts
    }

    /// Single-code ADC distance:
    /// `‖q‖² − 2Σ_m lut[m][i_m] + ‖x̂‖²`.
    #[inline]
    pub fn adc_distance(
        &self,
        ip_luts: &[f32],
        q_norm_sq: f32,
        code: &[u8],
        recon_norm_sq: f32,
    ) -> f32 {
        let ip: f32 = code
            .iter()
            .enumerate()
            .map(|(m, &j)| ip_luts[m * self.k + j as usize])
            .sum();
        q_norm_sq - 2.0 * ip + recon_norm_sq
    }

    /// Batch (fast-scan) distance estimation over packed codes; requires
    /// `k = 4`. The inner products run through the same u8-quantized LUT
    /// machinery as PQx4fs, inheriting its dynamic-range behaviour.
    pub fn fastscan_distances(
        &self,
        query: &[f32],
        packed: &PqPacked,
        codes: &AqCodes,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(self.k, 16, "fast scan requires k = 4");
        let ip_luts = self.build_ip_luts(query);
        let qluts = QuantizedLuts::from_f32_luts(&ip_luts, self.m, self.k);
        let q_norm_sq = vecs::dot(query, query);
        packed.scan_all(&qluts, out);
        for (est_ip, &norm_sq) in out.iter_mut().zip(codes.recon_norms_sq.iter()) {
            *est_ip = q_norm_sq - 2.0 * *est_ip + norm_sq;
        }
    }

    /// Mean squared reconstruction error over a dataset.
    pub fn reconstruction_mse(&self, data: &[f32]) -> f64 {
        let n = data.len() / self.dim;
        if n == 0 {
            return 0.0;
        }
        let mut code = vec![0u8; self.m];
        let mut rec = vec![0.0f32; self.dim];
        let mut acc = 0.0f64;
        for i in 0..n {
            let v = &data[i * self.dim..(i + 1) * self.dim];
            self.icm_encode(v, &mut code);
            self.decode(&code, &mut rec);
            acc += vecs::l2_sq(v, &rec) as f64;
        }
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_math::rng::standard_normal_vec;
    use rabitq_pq::{PqConfig, ProductQuantizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gaussian_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        standard_normal_vec(&mut rng, n * dim)
    }

    fn small_config(m: usize) -> AqConfig {
        AqConfig {
            m,
            k_bits: 4,
            refine_iters: 2,
            icm_passes: 2,
            kmeans_iters: 10,
            training_sample: None,
            seed: 9,
        }
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (n, dim, m) = (300, 16, 4);
        let data = gaussian_data(n, dim, 11);
        let a = AdditiveQuantizer::train(&data, dim, &small_config(m));
        let b = AdditiveQuantizer::train(&data, dim, &small_config(m));
        for seg in 0..m {
            for j in 0..4 {
                assert_eq!(
                    a.codeword(seg, j),
                    b.codeword(seg, j),
                    "segment {seg}, word {j}"
                );
            }
        }
        let ca = a.encode_set(data.chunks_exact(dim));
        let cb = b.encode_set(data.chunks_exact(dim));
        assert_eq!(ca.codes.codes, cb.codes.codes);

        let c = AdditiveQuantizer::train(
            &data,
            dim,
            &AqConfig {
                seed: 10,
                ..small_config(m)
            },
        );
        assert_ne!(
            c.codeword(0, 0),
            a.codeword(0, 0),
            "a different seed must land on a different codebook"
        );
    }

    #[test]
    fn more_refine_iterations_do_not_worsen_mse() {
        let (n, dim, m) = (400, 16, 4);
        let data = gaussian_data(n, dim, 12);
        let short = AdditiveQuantizer::train(
            &data,
            dim,
            &AqConfig {
                refine_iters: 0,
                ..small_config(m)
            },
        );
        let long = AdditiveQuantizer::train(
            &data,
            dim,
            &AqConfig {
                refine_iters: 4,
                ..small_config(m)
            },
        );
        let (mse_short, mse_long) = (
            short.reconstruction_mse(&data),
            long.reconstruction_mse(&data),
        );
        assert!(
            mse_long <= mse_short * 1.02,
            "alternating refinement regressed the objective: {mse_short} -> {mse_long}"
        );
    }

    #[test]
    fn training_sample_caps_cost_without_breaking_encoding() {
        let (n, dim, m) = (600, 16, 4);
        let data = gaussian_data(n, dim, 13);
        let sampled = AdditiveQuantizer::train(
            &data,
            dim,
            &AqConfig {
                training_sample: Some(100),
                ..small_config(m)
            },
        );
        // Training on a sample must still produce a quantizer that can
        // encode and decode the full set at sane error.
        let codes = sampled.encode_set(data.chunks_exact(dim));
        assert_eq!(codes.len(), n);
        let mse = sampled.reconstruction_mse(&data);
        // Baseline: predicting the zero vector costs E‖x‖² per vector.
        let zero_baseline: f64 = data
            .chunks_exact(dim)
            .map(|v| v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>())
            .sum::<f64>()
            / n as f64;
        assert!(
            mse < zero_baseline / 2.0,
            "reconstruction ({mse}) must clearly beat the zero-vector baseline ({zero_baseline})"
        );
    }

    #[test]
    fn single_vector_dataset_trains_and_encodes() {
        let dim = 16;
        let data = gaussian_data(1, dim, 14);
        let aq = AdditiveQuantizer::train(&data, dim, &small_config(4));
        let codes = aq.encode_set(data.chunks_exact(dim));
        assert_eq!(codes.len(), 1);
        let mut out = vec![0.0f32; dim];
        aq.decode(&codes.codes.codes[..aq.m()], &mut out);
        // One vector, 16 codewords to spend: reconstruction should be
        // essentially exact.
        let err = rabitq_math::vecs::l2_sq(&out, &data);
        let norm = rabitq_math::vecs::l2_sq(&data, &vec![0.0; dim]);
        assert!(err < norm * 0.05, "relative error {}", err / norm);
    }

    #[test]
    fn adc_matches_distance_to_reconstruction() {
        let dim = 16;
        let data = gaussian_data(200, dim, 1);
        let aq = AdditiveQuantizer::train(&data, dim, &small_config(4));
        let codes = aq.encode_set(data.chunks_exact(dim));
        let query = gaussian_data(1, dim, 2);
        let luts = aq.build_ip_luts(&query);
        let q_norm_sq = vecs::dot(&query, &query);
        let mut rec = vec![0.0f32; dim];
        for i in 0..codes.len() {
            let code = codes.codes.code(i);
            let adc = aq.adc_distance(&luts, q_norm_sq, code, codes.recon_norms_sq[i]);
            aq.decode(code, &mut rec);
            let direct = vecs::l2_sq(&query, &rec);
            assert!(
                (adc - direct).abs() < 1e-2 * (1.0 + direct),
                "code {i}: {adc} vs {direct}"
            );
        }
    }

    #[test]
    fn icm_never_worsens_the_greedy_solution() {
        let dim = 16;
        let data = gaussian_data(300, dim, 3);
        let aq = AdditiveQuantizer::train(&data, dim, &small_config(4));
        // Compare full ICM encode against greedy-only (icm_passes = 0).
        let greedy_only = AdditiveQuantizer {
            icm_passes: 0,
            ..aq.clone()
        };
        let mut rec = vec![0.0f32; dim];
        let mut code = vec![0u8; 4];
        for i in 0..50 {
            let v = &data[i * dim..(i + 1) * dim];
            greedy_only.icm_encode(v, &mut code);
            greedy_only.decode(&code, &mut rec);
            let greedy_err = vecs::l2_sq(v, &rec);
            aq.icm_encode(v, &mut code);
            aq.decode(&code, &mut rec);
            let icm_err = vecs::l2_sq(v, &rec);
            assert!(
                icm_err <= greedy_err + 1e-4,
                "vector {i}: ICM {icm_err} vs greedy {greedy_err}"
            );
        }
    }

    #[test]
    fn aq_beats_pq_at_equal_code_length_on_gaussian_data() {
        // Full-dimensional codewords capture cross-segment structure that
        // PQ cannot; at equal (M, k) AQ's reconstruction must be at least
        // as good on generic data.
        let dim = 16;
        let data = gaussian_data(600, dim, 4);
        let aq = AdditiveQuantizer::train(&data, dim, &small_config(8));
        let pq_cfg = PqConfig {
            m: 8,
            k_bits: 4,
            train_iters: 15,
            training_sample: None,
            seed: 9,
        };
        let pq = ProductQuantizer::train(&data, dim, &pq_cfg);
        let aq_mse = aq.reconstruction_mse(&data);
        let pq_mse = pq.reconstruction_mse(&data);
        assert!(
            aq_mse < pq_mse * 1.05,
            "AQ MSE {aq_mse} should be ≤ PQ MSE {pq_mse}"
        );
    }

    #[test]
    fn fastscan_matches_exact_adc_within_lut_quantization() {
        let dim = 16;
        let data = gaussian_data(200, dim, 5);
        let aq = AdditiveQuantizer::train(&data, dim, &small_config(4));
        let codes = aq.encode_set(data.chunks_exact(dim));
        let packed = PqPacked::pack(&codes.codes);
        let query = gaussian_data(1, dim, 6);
        let mut fast = Vec::new();
        aq.fastscan_distances(&query, &packed, &codes, &mut fast);
        let luts = aq.build_ip_luts(&query);
        let q_norm_sq = vecs::dot(&query, &query);
        for (i, f) in fast.iter().enumerate().take(codes.len()) {
            let exact = aq.adc_distance(
                &luts,
                q_norm_sq,
                codes.codes.code(i),
                codes.recon_norms_sq[i],
            );
            assert!(
                (f - exact).abs() < 0.15 * (1.0 + exact.abs()),
                "code {i}: {} vs {exact}",
                f
            );
        }
    }

    #[test]
    fn encoding_is_much_slower_than_pq_per_vector() {
        // The Table 4 qualitative claim: AQ/LSQ indexing cost dwarfs PQ's.
        // Compare operation counts via wall time on a small batch.
        let dim = 32;
        let data = gaussian_data(400, dim, 7);
        let aq = AdditiveQuantizer::train(&data, dim, &small_config(16));
        let pq_cfg = PqConfig {
            m: 16,
            k_bits: 4,
            train_iters: 10,
            training_sample: None,
            seed: 3,
        };
        let pq = ProductQuantizer::train(&data, dim, &pq_cfg);
        let t0 = std::time::Instant::now();
        let _ = aq.encode_set(data.chunks_exact(dim));
        let aq_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let _ = pq.encode_set(data.chunks_exact(dim));
        let pq_time = t1.elapsed();
        assert!(
            aq_time > pq_time,
            "AQ encode ({aq_time:?}) should be slower than PQ ({pq_time:?})"
        );
    }

    #[test]
    fn decode_sums_selected_codewords() {
        let dim = 8;
        let data = gaussian_data(100, dim, 8);
        let aq = AdditiveQuantizer::train(&data, dim, &small_config(2));
        let code = [3u8, 7u8];
        let mut rec = vec![0.0f32; dim];
        aq.decode(&code, &mut rec);
        for (d, r) in rec.iter().enumerate().take(dim) {
            let want = aq.codeword(0, 3)[d] + aq.codeword(1, 7)[d];
            assert!((r - want).abs() < 1e-6);
        }
    }
}
