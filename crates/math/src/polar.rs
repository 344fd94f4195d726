//! Polar decomposition via Higham's scaled Newton iteration, plus the
//! Gauss–Jordan inverse it relies on.
//!
//! The OPQ baseline needs the orthogonal Procrustes solution
//! `R* = argmin_{R orthogonal} ‖X − R·B‖_F`, which is the orthogonal polar
//! factor of `X·Bᵀ`. Rather than a full SVD, we compute the polar factor
//! directly with the Newton iteration `Y ← (γY + (γY)⁻ᵀ)/2`, which converges
//! quadratically for non-singular inputs (Higham 1986).

use crate::matrix::Matrix;

/// Inverts a square matrix with Gauss–Jordan elimination and partial
/// pivoting. Returns `None` if the matrix is numerically singular.
fn invert(m: &Matrix) -> Option<Matrix> {
    assert_eq!(m.rows(), m.cols(), "invert: matrix must be square");
    let n = m.rows();
    // Work in f64: the Newton iteration amplifies f32 round-off on
    // ill-conditioned correlation matrices.
    let mut a: Vec<f64> = m.as_slice().iter().map(|&x| x as f64).collect();
    let mut inv: Vec<f64> = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for j in 0..n {
                a.swap(col * n + j, pivot_row * n + j);
                inv.swap(col * n + j, pivot_row * n + j);
            }
        }
        let pivot = a[col * n + col];
        let inv_pivot = 1.0 / pivot;
        for j in 0..n {
            a[col * n + j] *= inv_pivot;
            inv[col * n + j] *= inv_pivot;
        }
        // Elimination against a copy of the pivot rows lets the inner
        // loops borrow disjoint slices and auto-vectorize — this is the
        // O(n³) kernel behind the OPQ Procrustes step.
        let a_piv: Vec<f64> = a[col * n..(col + 1) * n].to_vec();
        let inv_piv: Vec<f64> = inv[col * n..(col + 1) * n].to_vec();
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = a[r * n + col];
            if factor == 0.0 {
                continue;
            }
            let a_row = &mut a[r * n..(r + 1) * n];
            for (x, &p) in a_row.iter_mut().zip(a_piv.iter()) {
                *x -= factor * p;
            }
            let inv_row = &mut inv[r * n..(r + 1) * n];
            for (x, &p) in inv_row.iter_mut().zip(inv_piv.iter()) {
                *x -= factor * p;
            }
        }
    }
    Some(Matrix::from_vec(
        n,
        n,
        inv.into_iter().map(|x| x as f32).collect(),
    ))
}

/// Computes the orthogonal polar factor `U` of `m = U·H` (with `H`
/// symmetric positive semi-definite) via scaled Newton iteration.
///
/// Returns `None` if `m` is numerically singular (no unique polar factor) or
/// the iteration fails to converge in `max_iters` steps.
pub fn orthogonal_polar_factor(m: &Matrix, max_iters: usize) -> Option<Matrix> {
    assert_eq!(m.rows(), m.cols(), "polar factor: matrix must be square");
    let n = m.rows();
    let mut y = m.clone();
    for _ in 0..max_iters {
        let y_inv = invert(&y)?;
        let y_inv_t = y_inv.transposed();
        // Frobenius-norm scaling accelerates early iterations.
        let fy = y.frobenius_norm();
        let fyi = y_inv_t.frobenius_norm();
        if fy == 0.0 || fyi == 0.0 {
            return None;
        }
        let gamma = (fyi / fy).sqrt() as f32;
        let mut next = Matrix::zeros(n, n);
        let mut delta = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let v = 0.5 * (gamma * y[(i, j)] + y_inv_t[(i, j)] / gamma);
                delta = delta.max((v as f64 - y[(i, j)] as f64).abs());
                next[(i, j)] = v;
            }
        }
        y = next;
        if delta < 1e-6 {
            return Some(y);
        }
    }
    // Accept the result if it is orthogonal enough even without the
    // per-step delta falling below the threshold.
    if y.orthogonality_defect() < 1e-3 {
        Some(y)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orthogonal::random_orthogonal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invert_identity_is_identity() {
        let i = Matrix::identity(5);
        assert_eq!(invert(&i).unwrap(), i);
    }

    #[test]
    fn invert_times_original_is_identity() {
        let m = Matrix::from_vec(3, 3, vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let inv = invert(&m).unwrap();
        let prod = m.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn invert_detects_singular_matrix() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(invert(&m).is_none());
    }

    #[test]
    fn polar_factor_of_orthogonal_matrix_is_itself() {
        let mut rng = StdRng::seed_from_u64(17);
        let p = random_orthogonal(&mut rng, 12);
        let u = orthogonal_polar_factor(&p, 30).unwrap();
        for (a, b) in u.as_slice().iter().zip(p.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn polar_factor_recovers_rotation_from_scaled_rotation() {
        // m = 3.5 * P has polar decomposition U = P, H = 3.5 I.
        let mut rng = StdRng::seed_from_u64(23);
        let p = random_orthogonal(&mut rng, 10);
        let mut m = p.clone();
        for x in m.as_mut_slice() {
            *x *= 3.5;
        }
        let u = orthogonal_polar_factor(&m, 40).unwrap();
        for (a, b) in u.as_slice().iter().zip(p.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn polar_factor_is_orthogonal_for_generic_input() {
        let mut rng = StdRng::seed_from_u64(29);
        let dim = 16;
        let g = crate::rng::standard_normal_vec(&mut rng, dim * dim);
        let m = Matrix::from_vec(dim, dim, g);
        let u = orthogonal_polar_factor(&m, 60).unwrap();
        assert!(u.orthogonality_defect() < 1e-3);
    }

    #[test]
    fn polar_factor_rejects_singular_input() {
        let m = Matrix::zeros(4, 4);
        assert!(orthogonal_polar_factor(&m, 20).is_none());
    }
}
