//! Dense row-major `f64` matrices.
//!
//! Deliberately small: the crossbar simulator and the from-scratch CNN need
//! matmul, transpose, elementwise maps, and row/column views — nothing more.

use crate::rng::Rng64;

/// Samples that one pass of [`Matrix::matvec_rows`] over a row tile
/// serves.
const SAMPLE_BLOCK: usize = 8;

/// Matrix rows per tile of [`Matrix::matvec_rows`].
const ROW_BLOCK: usize = 2;

/// `matvec`'s sum for one row: left to right from `+0.0`, one product at
/// a time. Every matrix–vector kernel here computes each output with it
/// or with the same additions in the same order.
#[inline]
fn row_dot(row: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (a, b) in row.iter().zip(x) {
        acc += a * b;
    }
    acc
}

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use xlda_num::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = [1.0, 1.0];
/// assert_eq!(a.matvec(&x), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "no rows given");
        let cols = rows[0].len();
        assert!(cols > 0, "empty rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix of i.i.d. normal samples.
    pub fn random_normal(rows: usize, cols: usize, mean: f64, sigma: f64, rng: &mut Rng64) -> Self {
        let data = rng.normal_vec(rows * cols, mean, sigma);
        Self::from_vec(rows, cols, data)
    }

    /// Creates a matrix of i.i.d. Rademacher (+1/-1) samples.
    pub fn random_bipolar(rows: usize, cols: usize, rng: &mut Rng64) -> Self {
        Self::from_vec(rows, cols, rng.bipolar_vec(rows * cols))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column out of bounds");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *yr = row_dot(row, x);
        }
        y
    }

    /// Matrix–vector products `self * x` for every row `x` of the
    /// row-major block `xs`: row `s` of the result equals
    /// `self.matvec(&xs[s * cols..(s + 1) * cols])` bit for bit.
    ///
    /// Every output is the same left-to-right sum from `+0.0` that
    /// [`matvec`](Matrix::matvec) computes; the kernel only interleaves
    /// the sums of different samples and rows, so one pass over the
    /// matrix serves a whole block of samples. Samples and rows left over
    /// from the blocks take `matvec`'s scalar path.
    ///
    /// ```
    /// use xlda_num::Matrix;
    ///
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// let y = a.matvec_rows(&[1.0, 1.0, 0.5, -1.0]);
    /// assert_eq!(y.row(0), a.matvec(&[1.0, 1.0]));
    /// assert_eq!(y.row(1), a.matvec(&[0.5, -1.0]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or its length is not a multiple of `cols`.
    pub fn matvec_rows(&self, xs: &[f64]) -> Matrix {
        let cols = self.cols;
        assert!(
            !xs.is_empty() && xs.len().is_multiple_of(cols),
            "matvec_rows dimension mismatch"
        );
        let mut out = Matrix::zeros(xs.len() / cols, self.rows);
        // The current sample block, column-major: entry `k` holds the
        // block's inputs at column `k`, one per sample.
        let mut block = vec![[0.0; SAMPLE_BLOCK]; cols];
        let mut groups = xs.chunks_exact(SAMPLE_BLOCK * cols);
        for (g, group) in groups.by_ref().enumerate() {
            for (s, x) in group.chunks_exact(cols).enumerate() {
                for (lane, &v) in block.iter_mut().zip(x) {
                    lane[s] = v;
                }
            }
            let first = g * SAMPLE_BLOCK;
            let mut tiles = self.data.chunks_exact(ROW_BLOCK * cols);
            for (t, tile) in tiles.by_ref().enumerate() {
                let w: [&[f64]; ROW_BLOCK] = std::array::from_fn(|r| &tile[r * cols..][..cols]);
                let mut acc = [[0.0; SAMPLE_BLOCK]; ROW_BLOCK];
                for (k, lane) in block.iter().enumerate() {
                    for (acc_r, w_r) in acc.iter_mut().zip(w) {
                        let a = w_r[k];
                        for (y, &x) in acc_r.iter_mut().zip(lane) {
                            *y += a * x;
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    for (s, &y) in acc_r.iter().enumerate() {
                        out.data[(first + s) * self.rows + t * ROW_BLOCK + r] = y;
                    }
                }
            }
            let done = self.rows - tiles.remainder().len() / cols;
            for (r, row) in tiles.remainder().chunks_exact(cols).enumerate() {
                for (s, x) in group.chunks_exact(cols).enumerate() {
                    out.data[(first + s) * self.rows + done + r] = row_dot(row, x);
                }
            }
        }
        let first = (xs.len() - groups.remainder().len()) / cols;
        for (s, x) in groups.remainder().chunks_exact(cols).enumerate() {
            for (r, row) in self.data.chunks_exact(cols).enumerate() {
                out.data[(first + s) * self.rows + r] = row_dot(row, x);
            }
        }
        out
    }

    /// Vector–matrix product `x^T * self` (length = cols).
    ///
    /// This is the natural orientation for a crossbar: inputs drive the rows
    /// and currents sum down the columns.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "vecmat dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, &w) in y.iter_mut().zip(row) {
                *yc += xi * w;
            }
        }
        y
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise sum with another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every element in place.
    pub fn scale_inplace(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm of a slice.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Cosine similarity; returns 0.0 when either vector is all-zero.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    cosine_with_norms(a, b, norm(a), norm(b))
}

/// [`cosine_similarity`] with the norms `na = norm(a)` and `nb = norm(b)`
/// supplied by the caller, for searches that reuse them across many
/// pairs; returns 0.0 when either norm is zero.
///
/// # Panics
///
/// Panics if both norms are nonzero and the lengths differ.
pub fn cosine_with_norms(a: &[f64], b: &[f64], na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Squared Euclidean distance between two slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.at(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn matvec_vecmat_agree_with_transpose() {
        let mut rng = Rng64::new(3);
        let m = Matrix::random_normal(4, 6, 0.0, 1.0, &mut rng);
        let x = rng.normal_vec(4, 0.0, 1.0);
        let a = m.vecmat(&x);
        let b = m.transpose().matvec(&x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_identity() {
        let mut eye = Matrix::zeros(3, 3);
        for i in 0..3 {
            *eye.at_mut(i, i) = 1.0;
        }
        let mut rng = Rng64::new(4);
        let m = Matrix::random_normal(3, 3, 0.0, 1.0, &mut rng);
        let p = m.matmul(&eye);
        assert_eq!(p, m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(5);
        let m = Matrix::random_normal(3, 5, 0.0, 1.0, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn map_and_scale() {
        let mut m = Matrix::filled(2, 2, 2.0);
        m.map_inplace(|x| x * x);
        assert_eq!(m, Matrix::filled(2, 2, 4.0));
        m.scale_inplace(0.5);
        assert_eq!(m, Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn vector_helpers() {
        let a = [3.0, 4.0];
        assert_eq!(norm(&a), 5.0);
        assert_eq!(dot(&a, &a), 25.0);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &a), 0.0);
        assert_eq!(squared_euclidean(&[0.0, 0.0], &a), 25.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    fn random_bipolar_entries() {
        let mut rng = Rng64::new(6);
        let m = Matrix::random_bipolar(10, 10, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x == 1.0 || x == -1.0));
    }
}
