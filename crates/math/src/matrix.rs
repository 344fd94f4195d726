//! A small row-major dense matrix used for rotations and the OPQ
//! Procrustes step.
//!
//! The matrices in this workspace are at most `D × D` with `D ≤ 4096`
//! (rotation matrices, covariance-like products), so a simple cache-blocked
//! `ikj` GEMM is sufficient; no external BLAS is used.

use crate::vecs;

/// Row-major `rows × cols` matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `self · x` for a column vector `x`; writes into `out`.
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn matvec(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(out.len(), self.rows, "matvec: out length");
        for (o, i) in out.iter_mut().zip(0..self.rows) {
            *o = vecs::dot(self.row(i), x);
        }
    }

    /// `selfᵀ · x`; writes into `out`. Used to apply the inverse of an
    /// orthogonal matrix without materializing the transpose.
    pub fn matvec_t(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length");
        assert_eq!(out.len(), self.cols, "matvec_t: out length");
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                vecs::axpy(xi, self.row(i), out);
            }
        }
    }

    /// Matrix product `self · other` with a cache-blocked `ikj` loop order.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimensions");
        let mut out = Matrix::zeros(self.rows, other.cols);
        const BLOCK: usize = 64;
        for kb in (0..self.cols).step_by(BLOCK) {
            let kend = (kb + BLOCK).min(self.cols);
            for i in 0..self.rows {
                let arow = self.row(i);
                let orow_range = i * other.cols..(i + 1) * other.cols;
                let orow = &mut out.data[orow_range];
                for (k, &a) in arow.iter().enumerate().take(kend).skip(kb) {
                    if a != 0.0 {
                        vecs::axpy(a, other.row(k), orow);
                    }
                }
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn: inner dimensions");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let arow = self.row(r);
            let brow = other.row(r);
            for (i, &a) in arow.iter().enumerate() {
                if a != 0.0 {
                    let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                    vecs::axpy(a, brow, orow);
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| x as f64 * x as f64)
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum absolute deviation of `selfᵀ·self` from the identity —
    /// a cheap orthogonality check used in tests and debug assertions.
    pub fn orthogonality_defect(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "orthogonality is for square matrices");
        let gram = self.matmul_tn(self);
        let mut worst = 0.0f64;
        for i in 0..gram.rows {
            for j in 0..gram.cols {
                let want = if i == j { 1.0 } else { 0.0 };
                let dev = (gram[(i, j)] as f64 - want).abs();
                if dev > worst {
                    worst = dev;
                }
            }
        }
        worst
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i2 = Matrix::identity(2);
        let i3 = Matrix::identity(3);
        assert_eq!(i2.matmul(&a), a);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose_product() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.0, 1.0, 1.0]);
        let fast = a.matmul_tn(&b);
        let slow = a.transposed().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matvec_and_matvec_t_are_transposes_of_each_other() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        let x = [1.0f32, 2.0];
        let y = [1.0f32, 0.5, -1.0];
        // ⟨A y, x⟩ must equal ⟨y, Aᵀ x⟩.
        let mut ay = [0.0f32; 2];
        a.matvec(&y, &mut ay);
        let mut atx = [0.0f32; 3];
        a.matvec_t(&x, &mut atx);
        let lhs = vecs::dot(&ay, &x);
        let rhs = vecs::dot(&y, &atx);
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn orthogonality_defect_of_identity_is_zero() {
        assert_eq!(Matrix::identity(8).orthogonality_defect(), 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
