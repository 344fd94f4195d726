//! The unbiased distance estimator and its confidence bound
//! (Sections 3.2 and 3.3, Theorem 3.2).
//!
//! Given the integer kernel output `ip_bin = ⟨x̄_b, q̄_u⟩`, the quantized
//! inner product of unit vectors is recovered by Eq. 20:
//!
//! ```text
//! ⟨x̄, q̄⟩ = 2Δ/√B·⟨x̄_b,q̄_u⟩ + 2v_l/√B·popcount(x̄_b) − Δ/√B·Σq̄_u − √B·v_l
//! ```
//!
//! then `⟨o,q⟩ ≈ ⟨x̄,q̄⟩ / ⟨ō,o⟩` (unbiased, Eq. 13) and the squared raw
//! distance follows from Eq. 2. The half-width of the confidence interval
//! on `⟨o,q⟩` is `ε₀·√((1−⟨ō,o⟩²)/(⟨ō,o⟩²·(B−1)))` (Eq. 14/16), with
//! `ε₀ = 1.9` giving near-perfect coverage in practice (Section 5.2.4).
//!
//! **Centred queries.** An index that scans many buckets (or a collection
//! that scans many segments) quantizes one query `w = P⁻¹(q_r − μ)` about a
//! fixed centre `μ` instead of one residual per centroid `c`. Linearity of
//! the rotation gives `⟨x̄, P⁻¹(q_r − c)⟩ = ⟨x̄, w⟩ − g` with the
//! query-independent per-code offset `g = ⟨x̄, P⁻¹(c − μ)⟩`, so
//!
//! ```text
//! ⟨x̄, q̄⟩ = (‖w‖·⟨x̄, w̄⟩ − g) / ‖q_r − c‖
//! ```
//!
//! where `⟨x̄, w̄⟩` is Eq. 20 applied to the quantized unit `w`. The rest of
//! the estimator is unchanged; [`QueryTerms::centred`] folds `‖w‖` and
//! `1/‖q_r − c‖` into the affine map. A per-residual query is the special
//! case `‖w‖ = 1`, `g = 0`, `1/‖q_r − c‖ = 1`, which reproduces the
//! uncentred arithmetic bit for bit.

use crate::code::CodeFactors;
use crate::query::QuantizedQuery;

/// `⟨ō,o⟩` below this is treated as degenerate (probability ~0 under the
/// random rotation); the estimator then reports maximal uncertainty rather
/// than dividing by ~0.
const MIN_IP_OO: f32 = 1e-5;

/// Output of the estimator for one (query, code) pair.
///
/// `Default` is the all-zero estimate — it exists so batch outputs can be
/// `resize`d (single touch) before being overwritten in place.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DistanceEstimate {
    /// Unbiased estimate of the squared raw distance `‖o_r − q_r‖²`.
    pub dist_sq: f32,
    /// Lower confidence bound on the squared distance (clamped to ≥ 0).
    /// Used by the re-ranking rule of Section 4: a candidate whose lower
    /// bound exceeds the current K-th best exact distance is dropped.
    pub lower_bound: f32,
    /// Upper confidence bound on the squared distance — the dual of
    /// [`DistanceEstimate::lower_bound`]: a candidate whose upper bound is
    /// below a range-query radius is *certified* inside without touching
    /// the raw vector.
    pub upper_bound: f32,
    /// Estimated inner product `⟨o, q⟩` of the unit residuals.
    pub ip_est: f32,
    /// Half-width of the confidence interval on `⟨o, q⟩`.
    pub ip_error: f32,
}

/// Per-code state the estimator needs besides the kernel output.
///
/// This mirrors [`CodeFactors`] but is kept separate so callers can stage
/// factors in scan order without touching the bit storage.
pub type Factors = CodeFactors;

/// The query-independent reciprocal alignment `1/max(⟨ō,o⟩, ε)` — the
/// estimator divides by `⟨ō,o⟩` once per (query, code) pair, so the batch
/// path precomputes the reciprocal at encode time and multiplies instead.
#[inline]
pub fn inv_ip_oo(ip_oo: f32) -> f32 {
    1.0 / ip_oo.max(MIN_IP_OO)
}

/// The `ε₀`-independent part of the Eq. 16 confidence half-width:
/// `√((1−⟨ō,o⟩²)/(⟨ō,o⟩²·(B−1)))`. Query-independent, so it is
/// precomputed per code at encode time — this removes the `sqrt` the
/// estimator used to pay per (query, code) pair.
#[inline]
pub fn error_base(ip_oo: f32, padded_dim: usize) -> f32 {
    let ip = ip_oo.max(MIN_IP_OO);
    let ratio = ((1.0 - ip * ip).max(0.0)) / (ip * ip);
    (ratio / (padded_dim as f32 - 1.0)).sqrt()
}

/// The confidence half-width on `⟨o,q⟩` for a code with alignment `ip_oo`
/// and code length `padded_dim`, at confidence parameter `epsilon0`
/// (Eq. 16). Independent of the query; `epsilon0 · error_base` exactly,
/// so a precomputed [`error_base`] reproduces this bit-for-bit.
#[inline]
pub fn ip_confidence_halfwidth(ip_oo: f32, padded_dim: usize, epsilon0: f32) -> f32 {
    epsilon0 * error_base(ip_oo, padded_dim)
}

/// Query-side coefficients of the estimator's affine map, computed once
/// per (query, bucket) pair. Eq. 20 recovers `⟨x̄, q̄⟩` as
/// `(a·⟨x̄_b,q̄_u⟩ + b·popcount + c − g)·inv_q_dist`, and Eq. 2 turns
/// `⟨o,q⟩` into a squared distance through `base − cross·⟨o,q⟩` — every
/// per-code quantity the scan loop needs is a few multiply-adds away from
/// the kernel output.
#[derive(Clone, Copy, Debug)]
pub struct QueryTerms {
    /// `2Δ/√B·s` — coefficient of the kernel output (`s = ‖w‖` for a
    /// centred query, 1 for a residual).
    pub a: f32,
    /// `2v_l/√B·s` — coefficient of the code popcount.
    pub b: f32,
    /// `(−Δ/√B·Σq̄_u − √B·v_l)·s` — the per-query constant.
    pub c: f32,
    /// `1/‖q_r − c‖` for a centred query (0 when the query sits on the
    /// centroid, where every estimate is exact anyway), 1 for a residual.
    pub inv_q_dist: f32,
    /// `‖q_r − c‖²` — the query half of the distance identity.
    pub q_dist_sq: f32,
    /// `2‖q_r − c‖` — the cross term is `two_q_dist · norm`.
    pub two_q_dist: f32,
}

impl QueryTerms {
    /// Precomputes the coefficients for one quantized query residual
    /// `P⁻¹(q_r − c)` (the per-bucket preparation of Algorithm 2).
    #[inline]
    pub fn new(query: &QuantizedQuery, padded_dim: usize) -> Self {
        let sqrt_b = (padded_dim as f32).sqrt();
        let inv_sqrt_b = 1.0 / sqrt_b;
        Self {
            a: 2.0 * query.delta * inv_sqrt_b,
            b: 2.0 * query.v_l * inv_sqrt_b,
            c: -(query.delta * inv_sqrt_b * query.sum_qu as f32) - sqrt_b * query.v_l,
            inv_q_dist: 1.0,
            q_dist_sq: query.q_dist * query.q_dist,
            two_q_dist: 2.0 * query.q_dist,
        }
    }

    /// The coefficients of a centred query `w = P⁻¹(q_r − μ)` for one
    /// bucket whose centroid lies at squared distance `centroid_dist_sq`
    /// from the raw query (the coarse probe's own distance). Per code the
    /// estimator then subtracts that code's offset `g` (see the module
    /// docs).
    #[inline]
    pub fn centred(query: &QuantizedQuery, padded_dim: usize, centroid_dist_sq: f32) -> Self {
        let unit = Self::new(query, padded_dim);
        let scale = query.q_dist;
        let q_dist = centroid_dist_sq.max(0.0).sqrt();
        Self {
            a: unit.a * scale,
            b: unit.b * scale,
            c: unit.c * scale,
            inv_q_dist: if q_dist > f32::EPSILON {
                1.0 / q_dist
            } else {
                0.0
            },
            q_dist_sq: centroid_dist_sq,
            two_q_dist: 2.0 * q_dist,
        }
    }

    /// Recovers `⟨x̄, q̄⟩` from the integer kernel output (Eq. 20) for a
    /// code whose centre offset is `offset` (0 for a residual query).
    #[inline]
    pub fn ip_quantized(&self, ip_bin: u32, popcount: u32, offset: f32) -> f32 {
        (self.a * ip_bin as f32 + self.b * popcount as f32 + self.c - offset) * self.inv_q_dist
    }
}

/// The shared per-code estimator body. Every public entry point — the
/// single-code [`estimate`] and the batch [`estimate_block`] — funnels
/// through this exact instruction sequence, which is what makes their
/// outputs bit-identical (SIMD lanes perform the same IEEE-754 ops as the
/// scalar loop).
#[inline(always)]
fn estimate_core(
    ip_xq: f32,
    inv_oo: f32,
    err_base: f32,
    norm: f32,
    norm_sq: f32,
    terms: &QueryTerms,
    epsilon0: f32,
) -> DistanceEstimate {
    let ip_est = ip_xq * inv_oo;
    let ip_error = epsilon0 * err_base;
    let cross = terms.two_q_dist * norm;
    let base = norm_sq + terms.q_dist_sq;
    DistanceEstimate {
        dist_sq: base - cross * ip_est,
        lower_bound: (base - cross * (ip_est + ip_error)).max(0.0),
        upper_bound: base - cross * (ip_est - ip_error),
        ip_est,
        ip_error,
    }
}

/// Full estimator: kernel output + per-code factors → distance estimate
/// with confidence bound.
#[inline]
pub fn estimate(
    ip_bin: u32,
    factors: Factors,
    query: &QuantizedQuery,
    padded_dim: usize,
    epsilon0: f32,
) -> DistanceEstimate {
    estimate_with_terms(
        ip_bin,
        factors,
        0.0,
        &QueryTerms::new(query, padded_dim),
        padded_dim,
        epsilon0,
    )
}

/// [`estimate`] under precomputed [`QueryTerms`] — residual or centred —
/// for a code whose centre offset is `offset`. Bit-identical to the batch
/// [`estimate_block`] under the same terms and offset.
#[inline]
pub fn estimate_with_terms(
    ip_bin: u32,
    factors: Factors,
    offset: f32,
    terms: &QueryTerms,
    padded_dim: usize,
    epsilon0: f32,
) -> DistanceEstimate {
    estimate_core(
        terms.ip_quantized(ip_bin, factors.popcount, offset),
        inv_ip_oo(factors.ip_oo),
        error_base(factors.ip_oo, padded_dim),
        factors.norm,
        factors.norm * factors.norm,
        terms,
        epsilon0,
    )
}

/// Struct-of-arrays view of the per-code factor columns for one contiguous
/// code range, in scan order. Produced by
/// [`crate::code::CodeSet::factor_slices`].
#[derive(Clone, Copy, Debug)]
pub struct FactorSlices<'a> {
    /// `‖o_r − c‖` per code.
    pub norms: &'a [f32],
    /// `‖o_r − c‖²` per code (precomputed at encode time).
    pub norms_sq: &'a [f32],
    /// `1/max(⟨ō,o⟩, ε)` per code (precomputed; see [`inv_ip_oo`]).
    pub inv_ip_oos: &'a [f32],
    /// [`error_base`] per code (precomputed).
    pub err_bases: &'a [f32],
    /// Set-bit count per code.
    pub popcounts: &'a [u32],
}

/// Batch estimator over one block of kernel outputs: the affine map
/// `dist = base − cross·((a·ip_bin + b·pop + c − g)·inv_q_dist·inv_ip_oo)`
/// applied column-wise over struct-of-arrays factors and centre offsets
/// `g` — no division, no `sqrt`, no per-code branching, so the loop
/// autovectorizes. Results are bit-identical to calling
/// [`estimate_with_terms`] per code.
pub fn estimate_block(
    ip_bins: &[u32],
    factors: FactorSlices<'_>,
    offsets: &[f32],
    terms: &QueryTerms,
    epsilon0: f32,
    out: &mut [DistanceEstimate],
) {
    let n = ip_bins.len();
    assert!(
        factors.norms.len() == n
            && factors.norms_sq.len() == n
            && factors.inv_ip_oos.len() == n
            && factors.err_bases.len() == n
            && factors.popcounts.len() == n
            && offsets.len() == n
            && out.len() == n,
        "factor columns out of sync with kernel outputs"
    );
    for i in 0..n {
        out[i] = estimate_core(
            terms.ip_quantized(ip_bins[i], factors.popcounts[i], offsets[i]),
            factors.inv_ip_oos[i],
            factors.err_bases[i],
            factors.norms[i],
            factors.norms_sq[i],
            terms,
            epsilon0,
        );
    }
}

/// The *biased* PQ-style alternative `⟨o,q⟩ ≈ ⟨ō,q⟩` (i.e. treating the
/// quantized vector as the data vector), provided for the Appendix F.2
/// ablation. Its bias is ≈ E[⟨ō,o⟩] ≈ 0.8.
#[inline]
pub fn estimate_biased(
    ip_bin: u32,
    factors: Factors,
    query: &QuantizedQuery,
    padded_dim: usize,
) -> DistanceEstimate {
    let ip_est = QueryTerms::new(query, padded_dim).ip_quantized(ip_bin, factors.popcount, 0.0);
    let cross = 2.0 * factors.norm * query.q_dist;
    let base = factors.norm * factors.norm + query.q_dist * query.q_dist;
    DistanceEstimate {
        dist_sq: base - cross * ip_est,
        lower_bound: 0.0,
        upper_bound: f32::INFINITY,
        ip_est,
        ip_error: f32::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ip_code_query;
    use crate::query::QuantizedQuery;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ip_quantized_matches_direct_inner_product() {
        // ⟨x̄, q̄⟩ computed through the integer identity must equal the
        // direct dot product between the reconstructed ±1/√B vector and the
        // de-quantized query entries.
        let padded = 128usize;
        let mut rng = StdRng::seed_from_u64(21);
        let residual = rabitq_math::rng::standard_normal_vec(&mut rng, padded);
        let query = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);

        let mut set = crate::code::CodeSet::new(padded);
        let code: Vec<u64> = (0..padded / 64).map(|_| rand::Rng::gen(&mut rng)).collect();
        set.push(&code, 1.0, 0.8);

        let ip_bin = ip_code_query(set.code_bits(0), &query);
        let via_identity =
            QueryTerms::new(&query, padded).ip_quantized(ip_bin, set.factors(0).popcount, 0.0);

        let xbar = set.reconstruct_rotated(0);
        let direct: f32 = (0..padded).map(|i| xbar[i] * query.dequantized(i)).sum();

        assert!(
            (via_identity - direct).abs() < 1e-3,
            "{via_identity} vs {direct}"
        );
    }

    #[test]
    fn error_halfwidth_matches_formula_and_shrinks_with_dimension() {
        let e0 = 1.9f32;
        let hw128 = ip_confidence_halfwidth(0.8, 128, e0);
        let manual = e0 * ((1.0 - 0.64f32) / 0.64 / 127.0).sqrt();
        assert!((hw128 - manual).abs() < 1e-6);
        let hw1024 = ip_confidence_halfwidth(0.8, 1024, e0);
        assert!(hw1024 < hw128 / 2.0, "O(1/√B): {hw128} vs {hw1024}");
    }

    #[test]
    fn degenerate_alignment_reports_huge_uncertainty_without_nan() {
        let hw = ip_confidence_halfwidth(0.0, 128, 1.9);
        assert!(hw.is_finite());
        assert!(hw > 1000.0);
    }

    #[test]
    fn zero_norm_vector_estimates_exactly_q_dist_sq() {
        let padded = 64usize;
        let mut rng = StdRng::seed_from_u64(33);
        let residual = rabitq_math::rng::standard_normal_vec(&mut rng, padded);
        let query = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        let f = Factors {
            norm: 0.0,
            ip_oo: 1.0,
            popcount: 0,
        };
        let est = estimate(123, f, &query, padded, 1.9);
        let want = query.q_dist * query.q_dist;
        assert!((est.dist_sq - want).abs() < 1e-4);
        assert!(est.lower_bound <= est.dist_sq);
    }

    #[test]
    fn lower_bound_never_exceeds_estimate() {
        let padded = 128usize;
        let mut rng = StdRng::seed_from_u64(44);
        let residual = rabitq_math::rng::standard_normal_vec(&mut rng, padded);
        let query = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        for ip_bin in [0u32, 100, 500, 1000] {
            let f = Factors {
                norm: 2.0,
                ip_oo: 0.8,
                popcount: 64,
            };
            let est = estimate(ip_bin, f, &query, padded, 1.9);
            assert!(est.lower_bound <= est.dist_sq.max(0.0) + 1e-5);
            assert!(est.lower_bound >= 0.0);
            assert!(est.upper_bound >= est.dist_sq - 1e-5);
            // Interval is symmetric around the estimate (before the ≥0
            // clamp on the lower end).
            let width_up = est.upper_bound - est.dist_sq;
            assert!(width_up >= 0.0);
        }
    }

    #[test]
    fn epsilon0_zero_collapses_bound_to_estimate() {
        let padded = 128usize;
        let mut rng = StdRng::seed_from_u64(55);
        let residual = rabitq_math::rng::standard_normal_vec(&mut rng, padded);
        let query = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        let f = Factors {
            norm: 1.5,
            ip_oo: 0.8,
            popcount: 60,
        };
        let est = estimate(200, f, &query, padded, 0.0);
        assert!((est.lower_bound - est.dist_sq.max(0.0)).abs() < 1e-5);
    }

    #[test]
    fn biased_estimator_scales_ip_by_alignment() {
        let padded = 128usize;
        let mut rng = StdRng::seed_from_u64(66);
        let residual = rabitq_math::rng::standard_normal_vec(&mut rng, padded);
        let query = QuantizedQuery::from_rotated_residual(&residual, 4, &mut rng);
        let f = Factors {
            norm: 1.0,
            ip_oo: 0.8,
            popcount: 64,
        };
        let unbiased = estimate(500, f, &query, padded, 1.9);
        let biased = estimate_biased(500, f, &query, padded);
        assert!((biased.ip_est - unbiased.ip_est * 0.8).abs() < 1e-5);
    }
}
