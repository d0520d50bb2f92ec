//! Column-major dense matrix type.
//!
//! [`Mat`] is the single owned matrix type used throughout the suite. It is
//! deliberately simple: an `f64` buffer in column-major (Fortran) order with
//! explicit dimensions. Column-major order matches the access pattern of the
//! blocked GEMM and LU kernels in this crate and makes multi-right-hand-side
//! panels (`M x R`) contiguous per right-hand side.

use crate::view::{MatMut, MatRef};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Owned dense `rows x cols` matrix of `f64` in column-major order.
///
/// Element `(i, j)` lives at buffer offset `i + j * rows`.
///
/// # Examples
///
/// ```
/// use bt_dense::Mat;
///
/// let mut a = Mat::zeros(2, 2);
/// a[(0, 0)] = 1.0;
/// a[(1, 1)] = 2.0;
/// assert_eq!(a.trace(), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The canonical `0 x 0` empty matrix (no allocation).
    ///
    /// Use this — not `Mat::zeros(0, 0)` — where a slot is structurally
    /// present but holds no data (e.g. the sub-diagonal factor of the
    /// first block row). Any arithmetic that actually reads elements of
    /// an empty matrix trips the usual shape assertions, so accidental
    /// use fails fast instead of silently producing empty products.
    pub fn empty() -> Self {
        Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// A `rows x 0` matrix (no allocation): the identity element for
    /// column-wise accumulation and the seed value of the scan kernels,
    /// which require a row count but carry no columns yet.
    pub fn zero_width(rows: usize) -> Self {
        Self {
            rows,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// True if the matrix holds no elements (either dimension is 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates an `n x n` diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix from a column-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from rows given in row-major order (convenient for
    /// literals in tests and examples).
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged row {i}");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows the whole matrix as an immutable [`MatRef`] view.
    #[allow(clippy::should_implement_trait)] // matrix view, not AsRef<T>
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            col_stride: self.rows,
        }
    }

    /// Borrows the whole matrix as a mutable [`MatMut`] view.
    #[allow(clippy::should_implement_trait)] // matrix view, not AsMut<T>
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_> {
        MatMut {
            data: &mut self.data,
            rows: self.rows,
            cols: self.cols,
            col_stride: self.rows,
        }
    }

    /// Borrows the `br x bc` submatrix at `(r0, c0)` as a strided view —
    /// the no-copy counterpart of [`Mat::block`].
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, br: usize, bc: usize) -> MatRef<'_> {
        self.as_ref().submatrix(r0, c0, br, bc)
    }

    /// Mutable strided view of the `br x bc` submatrix at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the matrix bounds.
    pub fn submatrix_mut(&mut self, r0: usize, c0: usize, br: usize, bc: usize) -> MatMut<'_> {
        self.as_mut().submatrix_mut(r0, c0, br, bc)
    }

    /// Immutable view of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable view of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Unchecked-in-release element read (bounds checked in debug builds).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Unchecked-in-release element write (bounds checked in debug builds).
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// Sets every element to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sets every element to `v`, retaining the allocation.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Overwrites `self` with the contents of `src`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: &Mat) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t[(j, i)] = self.get(i, j);
            }
        }
        t
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// Extracts the `br x bc` submatrix whose top-left corner is `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block exceeds the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, br: usize, bc: usize) -> Mat {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "block out of bounds"
        );
        let mut b = Mat::zeros(br, bc);
        for j in 0..bc {
            let src = &self.data[(c0 + j) * self.rows + r0..(c0 + j) * self.rows + r0 + br];
            b.col_mut(j).copy_from_slice(src);
        }
        b
    }

    /// Writes `blk` into the submatrix with top-left corner `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, r0: usize, c0: usize, blk: &Mat) {
        assert!(
            r0 + blk.rows <= self.rows && c0 + blk.cols <= self.cols,
            "set_block out of bounds"
        );
        for j in 0..blk.cols {
            let dst_off = (c0 + j) * self.rows + r0;
            self.data[dst_off..dst_off + blk.rows].copy_from_slice(blk.col(j));
        }
    }

    /// Extracts columns `c0..c0 + k` as a new `rows x k` matrix.
    pub fn columns(&self, c0: usize, k: usize) -> Mat {
        self.block(0, c0, self.rows, k)
    }

    /// In-place scale: `self *= s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    pub fn scaled(&self, s: f64) -> Mat {
        let mut out = self.clone();
        out.scale(s);
        out
    }

    /// In-place negation.
    pub fn negate(&mut self) {
        for v in &mut self.data {
            *v = -*v;
        }
    }

    /// In-place element-wise add: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// In-place element-wise subtract: `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= *b;
        }
    }

    /// In-place `self += s * other` (matrix AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: f64, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * *b;
        }
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &Mat) -> Mat {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &Mat) -> Mat {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Largest absolute entry (`max |a_ij|`); 0 for empty
    /// matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// True if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Stacks `top` above `bottom`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vstack(top: &Mat, bottom: &Mat) -> Mat {
        assert_eq!(top.cols, bottom.cols, "vstack column mismatch");
        let mut out = Mat::zeros(top.rows + bottom.rows, top.cols);
        out.set_block(0, 0, top);
        out.set_block(top.rows, 0, bottom);
        out
    }

    /// Concatenates `left` and `right` horizontally.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hstack(left: &Mat, right: &Mat) -> Mat {
        assert_eq!(left.rows, right.rows, "hstack row mismatch");
        let mut out = Mat::zeros(left.rows, left.cols + right.cols);
        out.set_block(0, 0, left);
        out.set_block(0, left.cols, right);
        out
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            if self.cols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m: Mat = Mat::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diag() {
        let m: Mat = Mat::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn col_major_layout() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // column-major: [1, 3, 2, 4]
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn from_col_major_roundtrip() {
        let m = Mat::from_col_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 2)], 5.0);
        assert_eq!(m.into_vec(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_col_major_bad_len_panics() {
        let _ = Mat::from_col_major(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn block_get_set_roundtrip() {
        let mut m = Mat::zeros(4, 4);
        let b = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        m.set_block(1, 2, &b);
        assert_eq!(m.block(1, 2, 2, 2), b);
        assert_eq!(m[(1, 2)], 1.0);
        assert_eq!(m[(2, 3)], 4.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "block out of bounds")]
    fn block_out_of_bounds_panics() {
        let m: Mat = Mat::zeros(3, 3);
        let _ = m.block(2, 2, 2, 2);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Mat::from_rows(&[&[5., 6.], &[7., 8.]]);
        assert_eq!(a.add(&b), Mat::from_rows(&[&[6., 8.], &[10., 12.]]));
        assert_eq!(b.sub(&a), Mat::from_rows(&[&[4., 4.], &[4., 4.]]));
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c, Mat::from_rows(&[&[11., 14.], &[17., 20.]]));
        assert_eq!(a.scaled(3.0), Mat::from_rows(&[&[3., 6.], &[9., 12.]]));
    }

    #[test]
    fn trace_and_max_abs() {
        let a = Mat::from_rows(&[&[1., -9.], &[3., 4.]]);
        assert_eq!(a.trace(), 5.0);
        assert_eq!(a.max_abs(), 9.0);
    }

    #[test]
    fn stack_ops() {
        let a = Mat::identity(2);
        let b = Mat::filled(2, 2, 3.0);
        let v = Mat::vstack(&a, &b);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(2, 0)], 3.0);
        let h = Mat::hstack(&a, &b);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(0, 2)], 3.0);
        assert_eq!(h[(0, 0)], 1.0);
    }

    #[test]
    fn columns_extract() {
        let m = Mat::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]);
        let c = m.columns(1, 2);
        assert_eq!(c, Mat::from_rows(&[&[2., 3.], &[5., 6.]]));
    }

    #[test]
    fn from_fn_builder() {
        let m = Mat::from_fn(3, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Mat::identity(2);
        assert!(m.all_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn empty_and_zero_width() {
        let e: Mat = Mat::empty();
        assert_eq!(e.shape(), (0, 0));
        assert!(e.is_empty());
        let z: Mat = Mat::zero_width(3);
        assert_eq!(z.shape(), (3, 0));
        assert!(z.is_empty());
        assert!(!Mat::zeros(1, 1).is_empty());
        // hstack accumulation with a zero-width identity element.
        let a = Mat::identity(3);
        assert_eq!(Mat::hstack(&z, &a), a);
    }

    #[test]
    fn fill_and_copy_from() {
        let mut m = Mat::zeros(2, 2);
        m.fill(7.0);
        assert_eq!(m, Mat::filled(2, 2, 7.0));
        let src = Mat::identity(2);
        m.copy_from(&src);
        assert_eq!(m, src);
        m.fill_zero();
        assert_eq!(m, Mat::zeros(2, 2));
    }
}
