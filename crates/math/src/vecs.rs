//! Vector kernels over `&[f32]` slices.
//!
//! [`l2_sq`] and [`dot`] — the innermost loops of the coarse probe, the
//! re-rank, the memtable scan and k-means — run the explicit kernels of
//! [`crate::simd`], which give the same bits on every ISA. The element-wise
//! helpers iterate over `zip`-ed slices and are left to the compiler.

use crate::simd;

/// Inner product of two equal-length vectors, accumulated in `f32`.
///
/// This is the throughput kernel used inside scans; for statistically
/// sensitive accumulations over long vectors prefer [`dot_f64`].
///
/// # Panics
/// If the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    simd::dot(simd::active_kernel(), a, b)
}

/// Inner product accumulated in `f64` for numerically sensitive reductions.
#[inline]
pub fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

/// Squared Euclidean distance `‖a − b‖²`.
///
/// # Panics
/// If the lengths differ.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    simd::l2_sq(simd::active_kernel(), a, b)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm `‖a‖²` accumulated in `f64`.
#[inline]
pub fn norm_sq_f64(a: &[f32]) -> f64 {
    a.iter().map(|&x| x as f64 * x as f64).sum()
}

/// ℓ1 norm `‖a‖₁` accumulated in `f64` (used for `⟨ō,o⟩ = ‖P⁻¹o‖₁/√D`).
#[inline]
pub fn l1_norm_f64(a: &[f32]) -> f64 {
    a.iter().map(|&x| x.abs() as f64).sum()
}

/// `out = a − b`, element-wise.
#[inline]
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x - y;
    }
}

/// `acc += a`, element-wise.
#[inline]
pub fn add_assign(acc: &mut [f32], a: &[f32]) {
    debug_assert_eq!(acc.len(), a.len());
    for (o, &x) in acc.iter_mut().zip(a.iter()) {
        *o += x;
    }
}

/// `acc −= a`, element-wise.
#[inline]
pub fn sub_assign(acc: &mut [f32], a: &[f32]) {
    debug_assert_eq!(acc.len(), a.len());
    for (o, &x) in acc.iter_mut().zip(a.iter()) {
        *o -= x;
    }
}

/// `acc += alpha * a` (AXPY).
#[inline]
pub fn axpy(alpha: f32, a: &[f32], acc: &mut [f32]) {
    debug_assert_eq!(acc.len(), a.len());
    for (o, &x) in acc.iter_mut().zip(a.iter()) {
        *o += alpha * x;
    }
}

/// Scales a vector in place.
#[inline]
pub fn scale(a: &mut [f32], alpha: f32) {
    for x in a.iter_mut() {
        *x *= alpha;
    }
}

/// Normalizes `a` to unit length in place and returns the original norm.
///
/// If `a` is the zero vector (norm below `f32::EPSILON`), `a` is left
/// unchanged and `0.0` is returned; callers treat that case specially
/// (a data vector equal to its centroid carries no direction information).
#[inline]
pub fn normalize(a: &mut [f32]) -> f32 {
    let n = norm(a);
    if n > f32::EPSILON {
        scale(a, 1.0 / n);
    }
    n
}

/// Index of the minimum value; ties resolve to the lowest index.
///
/// Returns `None` on an empty slice.
#[inline]
pub fn argmin(values: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Minimum and maximum of a non-empty slice.
#[inline]
pub fn min_max(values: &[f32]) -> (f32, f32) {
    assert!(!values.is_empty(), "min_max of empty slice");
    let mut lo = values[0];
    let mut hi = values[0];
    for &v in &values[1..] {
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    (lo, hi)
}

/// Mean of a slice, in `f64`.
#[inline]
pub fn mean(values: &[f32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn dot_matches_naive_on_odd_lengths() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 17, 64, 65] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos()).collect();
            let got = dot(&a, &b);
            let want = naive_dot(&a, &b);
            assert!(
                (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
                "len={len}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn l2_sq_matches_expansion() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let b = [0.5f32, -1.0, 2.0, 4.0, 10.0];
        let direct = l2_sq(&a, &b);
        let expanded = dot(&a, &a) + dot(&b, &b) - 2.0 * dot(&a, &b);
        assert!((direct - expanded).abs() < 1e-4);
    }

    #[test]
    fn normalize_produces_unit_vector_and_returns_norm() {
        let mut v = vec![3.0f32, 4.0];
        let n = normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-6);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_a_noop() {
        let mut v = vec![0.0f32; 8];
        let n = normalize(&mut v);
        assert_eq!(n, 0.0);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn argmin_picks_first_of_ties() {
        assert_eq!(argmin(&[3.0, 1.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmin(&[]), None);
    }

    #[test]
    fn min_max_on_mixed_signs() {
        assert_eq!(min_max(&[0.0, -2.0, 5.0, 1.0]), (-2.0, 5.0));
    }

    #[test]
    fn axpy_and_sub_are_consistent() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        let mut out = [0.0f32; 3];
        sub(&b, &a, &mut out);
        let mut acc = a;
        axpy(1.0, &out, &mut acc);
        assert_eq!(acc, b);
    }

    #[test]
    fn l1_norm_matches_manual_sum() {
        assert_eq!(l1_norm_f64(&[-1.0, 2.0, -3.0]), 6.0);
    }
}
