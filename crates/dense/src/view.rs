//! Borrowed column-major matrix views: [`MatRef`] / [`MatMut`].
//!
//! A view is `(data, rows, cols, col_stride)` over an element buffer in
//! column-major order: element `(i, j)` lives at `i + j * col_stride`.
//! With `col_stride == rows` the view is *contiguous* (identical layout
//! to [`Mat`]); with `col_stride > rows` it addresses a column-aligned
//! window of a larger matrix. Columns are always contiguous slices
//! either way, which is the access pattern every kernel in this crate
//! relies on.
//!
//! Views exist so hot paths can operate on submatrices without
//! materializing temporaries: the GEMM/GEMV kernels and the LU panel
//! solves all accept `impl Into<MatRef>` / `impl Into<MatMut>`, so
//! `&Mat` / `&mut Mat` callers keep working unchanged while callers
//! aiming a kernel at a window pass views (DESIGN.md §"Memory model").

use crate::mat::Mat;
use std::fmt;

/// Backing length required by a `rows x cols` view with `col_stride`.
#[inline]
pub(crate) fn required_len(rows: usize, cols: usize, col_stride: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (cols - 1) * col_stride + rows
    }
}

/// Immutable borrowed view of a column-major matrix.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    pub(crate) data: &'a [f64],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) col_stride: usize,
}

impl<'a> MatRef<'a> {
    /// Builds a view over `data` with an explicit column stride.
    ///
    /// # Panics
    ///
    /// Panics if `col_stride < rows` or `data` is too short for the
    /// requested shape.
    pub fn from_parts(data: &'a [f64], rows: usize, cols: usize, col_stride: usize) -> Self {
        assert!(col_stride >= rows, "col_stride {col_stride} < rows {rows}");
        assert!(
            data.len() >= required_len(rows, cols, col_stride),
            "backing slice of {} too short for {rows}x{cols} stride {col_stride}",
            data.len()
        );
        Self {
            data,
            rows,
            cols,
            col_stride,
        }
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

    /// Distance between column starts in the backing buffer.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// True when the columns are packed back to back (`Mat` layout).
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.col_stride == self.rows || self.cols <= 1
    }

    /// Column `j` as a contiguous slice (borrowing the backing buffer,
    /// not the view).
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.col_stride..j * self.col_stride + self.rows]
    }

    /// Element read (bounds checked in debug builds).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.col_stride]
    }

    /// The `br x bc` sub-view with top-left corner `(r0, c0)` — no copy.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the view bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, br: usize, bc: usize) -> MatRef<'a> {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "submatrix out of bounds"
        );
        let start = c0 * self.col_stride + r0;
        let len = required_len(br, bc, self.col_stride);
        MatRef {
            data: &self.data[start..start + len],
            rows: br,
            cols: bc,
            col_stride: self.col_stride,
        }
    }

    /// Copies the view into a freshly allocated [`Mat`].
    pub fn to_mat(&self) -> Mat {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for j in 0..self.cols {
            data.extend_from_slice(self.col(j));
        }
        Mat::from_col_major(self.rows, self.cols, data)
    }
}

/// Mutable borrowed view of a column-major matrix.
pub struct MatMut<'a> {
    pub(crate) data: &'a mut [f64],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) col_stride: usize,
}

impl<'a> MatMut<'a> {
    /// Builds a mutable view over `data` with an explicit column stride.
    ///
    /// # Panics
    ///
    /// Panics if `col_stride < rows` or `data` is too short for the
    /// requested shape.
    pub fn from_parts(data: &'a mut [f64], rows: usize, cols: usize, col_stride: usize) -> Self {
        assert!(col_stride >= rows, "col_stride {col_stride} < rows {rows}");
        assert!(
            data.len() >= required_len(rows, cols, col_stride),
            "backing slice of {} too short for {rows}x{cols} stride {col_stride}",
            data.len()
        );
        Self {
            data,
            rows,
            cols,
            col_stride,
        }
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

    /// Distance between column starts in the backing buffer.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// True when the columns are packed back to back (`Mat` layout).
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.col_stride == self.rows || self.cols <= 1
    }

    /// Immutable reborrow of this view.
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            col_stride: self.col_stride,
        }
    }

    /// Mutable reborrow: a shorter-lived `MatMut` over the same window,
    /// so a view can be passed to a consuming kernel and used again.
    #[inline]
    pub fn rb_mut(&mut self) -> MatMut<'_> {
        MatMut {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            col_stride: self.col_stride,
        }
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.col_stride..j * self.col_stride + self.rows]
    }

    /// Mutable column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.col_stride..j * self.col_stride + self.rows]
    }

    /// Element read (bounds checked in debug builds).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.col_stride]
    }

    /// Element write (bounds checked in debug builds).
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.col_stride] = v;
    }

    /// Zeroes every element of the window (gap elements of a strided
    /// backing buffer are untouched).
    pub fn fill_zero(&mut self) {
        for j in 0..self.cols {
            self.col_mut(j).fill(0.0);
        }
    }

    /// Sets every element of the window to `v`.
    pub fn fill(&mut self, v: f64) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }

    /// Scales every element of the window by `s`.
    pub fn scale(&mut self, s: f64) {
        for j in 0..self.cols {
            for v in self.col_mut(j) {
                *v *= s;
            }
        }
    }

    /// Overwrites the window with the contents of `src`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        if self.is_contiguous() && src.is_contiguous() {
            let len = self.rows * self.cols;
            self.data[..len].copy_from_slice(&src.data[..len]);
            return;
        }
        for j in 0..self.cols {
            self.col_mut(j).copy_from_slice(src.col(j));
        }
    }

    /// The `br x bc` mutable sub-view with top-left corner `(r0, c0)`,
    /// consuming this view (use [`MatMut::rb_mut`] first to keep it).
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the view bounds.
    pub fn submatrix_mut(self, r0: usize, c0: usize, br: usize, bc: usize) -> MatMut<'a> {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "submatrix out of bounds"
        );
        let start = c0 * self.col_stride + r0;
        let len = required_len(br, bc, self.col_stride);
        MatMut {
            data: &mut self.data[start..start + len],
            rows: br,
            cols: bc,
            col_stride: self.col_stride,
        }
    }
}

impl<'a> From<&'a Mat> for MatRef<'a> {
    fn from(m: &'a Mat) -> Self {
        m.as_ref()
    }
}

impl<'a> From<&'a mut Mat> for MatRef<'a> {
    fn from(m: &'a mut Mat) -> Self {
        m.as_ref()
    }
}

impl<'a> From<&'a mut Mat> for MatMut<'a> {
    fn from(m: &'a mut Mat) -> Self {
        m.as_mut()
    }
}

impl<'short, 'long: 'short> From<&'short MatMut<'long>> for MatRef<'short> {
    fn from(m: &'short MatMut<'long>) -> Self {
        m.rb()
    }
}

impl<'short, 'long: 'short> From<&'short mut MatMut<'long>> for MatMut<'short> {
    fn from(m: &'short mut MatMut<'long>) -> Self {
        m.rb_mut()
    }
}

// Debug prints shape + stride, not contents — views over large
// matrices would otherwise dump megabytes.
impl fmt::Debug for MatRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MatRef {}x{} (col_stride {})",
            self.rows, self.cols, self.col_stride
        )
    }
}

impl fmt::Debug for MatMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MatMut {}x{} (col_stride {})",
            self.rows, self.cols, self.col_stride
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: usize, cols: usize) -> Mat {
        Mat::from_fn(rows, cols, |i, j| (i * 100 + j) as f64)
    }

    #[test]
    fn full_view_roundtrip() {
        let m = seq(3, 4);
        let v = m.as_ref();
        assert_eq!(v.shape(), (3, 4));
        assert!(v.is_contiguous());
        assert_eq!(v.get(2, 3), 203.0);
        assert_eq!(v.col(1), m.col(1));
        assert_eq!(v.to_mat(), m);
    }

    #[test]
    fn submatrix_strides() {
        let m = seq(5, 5);
        let v = m.submatrix(1, 2, 3, 2);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.col_stride(), 5);
        assert!(!v.is_contiguous());
        assert_eq!(v.get(0, 0), m.get(1, 2));
        assert_eq!(v.get(2, 1), m.get(3, 3));
        assert_eq!(v.to_mat(), m.block(1, 2, 3, 2));
        // Nested sub-view.
        let w = v.submatrix(1, 1, 2, 1);
        assert_eq!(w.to_mat(), m.block(2, 3, 2, 1));
    }

    #[test]
    fn mut_view_writes_through() {
        let mut m = seq(4, 4);
        {
            let mut v = m.submatrix_mut(1, 1, 2, 2);
            v.set(0, 0, -1.0);
            v.col_mut(1)[1] = -2.0;
        }
        assert_eq!(m.get(1, 1), -1.0);
        assert_eq!(m.get(2, 2), -2.0);
    }

    #[test]
    fn fill_and_copy_only_touch_window() {
        let mut m = seq(4, 4);
        let orig = m.clone();
        let src = Mat::filled(2, 2, 7.0);
        {
            let mut v = m.submatrix_mut(1, 1, 2, 2);
            v.fill_zero();
            v.copy_from(src.as_ref());
        }
        for j in 0..4 {
            for i in 0..4 {
                let inside = (1..3).contains(&i) && (1..3).contains(&j);
                let expect = if inside { 7.0 } else { orig.get(i, j) };
                assert_eq!(m.get(i, j), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn reborrows() {
        let mut m = seq(3, 3);
        let mut v = m.as_mut();
        v.rb_mut().fill(1.0);
        assert_eq!(v.rb().get(2, 2), 1.0);
        v.set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "submatrix out of bounds")]
    fn submatrix_out_of_bounds_panics() {
        let m = seq(3, 3);
        let _ = m.as_ref().submatrix(2, 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn from_parts_checks_length() {
        let data = [0.0f64; 5];
        let _ = MatRef::from_parts(&data, 2, 3, 2);
    }
}
