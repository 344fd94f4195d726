//! Special functions for the paper's closed-form expectations.
//!
//! Appendix B of the paper gives `E[⟨ō,o⟩] = √(D/π)·2Γ(D/2) / ((D−1)Γ((D−1)/2))`
//! and the density of a single coordinate of a uniform point on the sphere,
//! `p_D(x) = Γ(D/2)/(√π·Γ((D−1)/2)) · (1−x²)^{(D−3)/2}`. Both are needed by
//! the Figure 1/8 verification experiments and by tests.

/// Natural log of the Gamma function (Lanczos approximation, g=7, n=9).
///
/// Accurate to ~1e-13 relative error for positive arguments, which is far
/// beyond what the verification experiments need.
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the approximation in its valid range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Closed-form `E[⟨ō,o⟩]` from Appendix B.1 (Eq. 36):
/// `√(D/π) · 2Γ(D/2) / ((D−1)·Γ((D−1)/2))`.
///
/// The paper observes this lies in [0.798, 0.800] for D ∈ [10², 10⁶].
pub fn expected_code_alignment(d: usize) -> f64 {
    assert!(d >= 2, "dimension must be at least 2");
    let d = d as f64;
    let log_ratio = ln_gamma(d / 2.0) - ln_gamma((d - 1.0) / 2.0);
    (d / std::f64::consts::PI).sqrt() * 2.0 / (d - 1.0) * log_ratio.exp()
}

/// Density `p_D(x)` of one coordinate of a uniform point on the unit sphere
/// `S^{D−1}` (Lemma B.1): `Γ(D/2)/(√π Γ((D−1)/2)) (1−x²)^{(D−3)/2}` on [−1,1].
pub fn sphere_coordinate_density(d: usize, x: f64) -> f64 {
    assert!(d >= 2, "dimension must be at least 2");
    if !(-1.0..=1.0).contains(&x) {
        return 0.0;
    }
    let df = d as f64;
    let log_norm =
        ln_gamma(df / 2.0) - ln_gamma((df - 1.0) / 2.0) - 0.5 * std::f64::consts::PI.ln();
    let base = 1.0 - x * x;
    if base <= 0.0 {
        // Endpoint: density is 0 for D > 3, +inf for D = 2; report 0.
        return if d > 3 { 0.0 } else { f64::INFINITY };
    }
    (log_norm + (df - 3.0) / 2.0 * base.ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let facts = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let got = ln_gamma((n + 1) as f64).exp();
            assert!((got - f).abs() < 1e-8 * f.max(1.0), "Γ({}) = {got}", n + 1);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        let got = ln_gamma(0.5).exp();
        assert!((got - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn expected_alignment_is_near_0_8_for_paper_range() {
        for d in [100usize, 420, 960, 4096, 100_000] {
            let e = expected_code_alignment(d);
            assert!((0.7978..=0.8005).contains(&e), "D={d}: E[⟨ō,o⟩]={e}");
        }
    }

    #[test]
    fn expected_alignment_matches_sqrt_2_over_pi_asymptote() {
        // As D→∞ the expectation tends to √(2/π) ≈ 0.7979.
        let limit = (2.0 / std::f64::consts::PI).sqrt();
        let e = expected_code_alignment(1_000_000);
        assert!((e - limit).abs() < 1e-4);
    }

    #[test]
    fn density_integrates_to_one() {
        // Trapezoidal integration over [−1, 1].
        for d in [4usize, 32, 128] {
            let steps = 20_000;
            let mut acc = 0.0;
            for i in 0..steps {
                let x0 = -1.0 + 2.0 * i as f64 / steps as f64;
                let x1 = -1.0 + 2.0 * (i + 1) as f64 / steps as f64;
                acc += 0.5
                    * (sphere_coordinate_density(d, x0) + sphere_coordinate_density(d, x1))
                    * (x1 - x0);
            }
            assert!((acc - 1.0).abs() < 1e-3, "D={d}: ∫p={acc}");
        }
    }

    #[test]
    fn density_is_symmetric_and_zero_outside_support() {
        assert_eq!(sphere_coordinate_density(64, 1.5), 0.0);
        let a = sphere_coordinate_density(64, 0.3);
        let b = sphere_coordinate_density(64, -0.3);
        assert!((a - b).abs() < 1e-12);
    }
}
