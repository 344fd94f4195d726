//! Random orthogonal matrices and Gram–Schmidt orthonormalization.
//!
//! The paper constructs its codebook by rotating the hypercube vertices with
//! an orthogonal matrix sampled "uniformly from all rotations". Sampling a
//! Gaussian matrix and orthonormalizing its rows (QR with the sign fix of
//! Mezzadri 2007) yields exactly the Haar measure on O(D).

use crate::matrix::Matrix;
use crate::rng::GaussianSource;
use crate::vecs;
use rand::Rng;

/// Orthonormalizes the rows of `m` in place with modified Gram–Schmidt.
///
/// Re-orthogonalizes each row once ("twice is enough" rule) so the result
/// stays orthogonal to ~1e-6 in `f32` even for D in the thousands.
///
/// # Panics
/// Panics if a row degenerates to (numerically) zero, which for Gaussian
/// inputs happens with probability 0.
fn gram_schmidt_rows(m: &mut Matrix) {
    let n = m.rows();
    let cols = m.cols();
    for i in 0..n {
        for _pass in 0..2 {
            for j in 0..i {
                // Safe split: row j is before row i.
                let (head, tail) = m.as_mut_slice().split_at_mut(i * cols);
                let rj = &head[j * cols..(j + 1) * cols];
                let ri = &mut tail[..cols];
                let proj = vecs::dot(rj, ri);
                vecs::axpy(-proj, rj, ri);
            }
        }
        let norm = vecs::normalize(m.row_mut(i));
        assert!(norm > 1e-20, "degenerate row {i} in Gram–Schmidt");
    }
}

/// Samples a `dim × dim` orthogonal matrix from the Haar measure.
pub fn random_orthogonal<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Matrix {
    let mut gauss = GaussianSource::new();
    let mut m = Matrix::zeros(dim, dim);
    gauss.fill(rng, m.as_mut_slice());
    gram_schmidt_rows(&mut m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_orthogonal_is_orthogonal() {
        let mut rng = StdRng::seed_from_u64(3);
        for dim in [2usize, 8, 33, 128] {
            let p = random_orthogonal(&mut rng, dim);
            let defect = p.orthogonality_defect();
            assert!(defect < 1e-4, "dim {dim}: defect {defect}");
        }
    }

    #[test]
    fn rotation_preserves_norms_and_inner_products() {
        let mut rng = StdRng::seed_from_u64(5);
        let dim = 64;
        let p = random_orthogonal(&mut rng, dim);
        let x = crate::rng::standard_normal_vec(&mut rng, dim);
        let y = crate::rng::standard_normal_vec(&mut rng, dim);
        let mut px = vec![0.0f32; dim];
        let mut py = vec![0.0f32; dim];
        p.matvec(&x, &mut px);
        p.matvec(&y, &mut py);
        let ip_before = vecs::dot(&x, &y);
        let ip_after = vecs::dot(&px, &py);
        assert!((ip_before - ip_after).abs() < 1e-3 * (1.0 + ip_before.abs()));
        assert!((vecs::norm(&x) - vecs::norm(&px)).abs() < 1e-3);
    }

    #[test]
    fn transpose_acts_as_inverse() {
        let mut rng = StdRng::seed_from_u64(9);
        let dim = 48;
        let p = random_orthogonal(&mut rng, dim);
        let x = crate::rng::standard_normal_vec(&mut rng, dim);
        let mut px = vec![0.0f32; dim];
        let mut back = vec![0.0f32; dim];
        p.matvec(&x, &mut px);
        p.matvec_t(&px, &mut back);
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn different_seeds_give_different_rotations() {
        let p1 = random_orthogonal(&mut StdRng::seed_from_u64(1), 16);
        let p2 = random_orthogonal(&mut StdRng::seed_from_u64(2), 16);
        assert_ne!(p1.as_slice(), p2.as_slice());
    }

    #[test]
    fn first_column_is_uniform_on_sphere_in_expectation() {
        // Each coordinate of a Haar-orthogonal matrix has mean 0 and
        // variance 1/D; check the empirical variance over many samples.
        let dim = 16;
        let samples = 400;
        let mut rng = StdRng::seed_from_u64(13);
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..samples {
            let p = random_orthogonal(&mut rng, dim);
            let v = p[(0, 0)] as f64;
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / samples as f64;
        let var = sum_sq / samples as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0 / dim as f64).abs() < 0.03, "var {var}");
    }
}
