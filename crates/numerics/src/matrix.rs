//! Dense, row-major real matrices.
//!
//! Sized for power-system workloads (up to a few hundred rows/columns), so a
//! contiguous row-major `Vec<f64>` with straightforward loops is both the
//! simplest and — at these sizes — a perfectly competitive representation.

use crate::error::NumericsError;
use crate::vector::Vector;
use crate::Result;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major matrix of `f64`.
#[derive(serde::Serialize)]
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create an `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a closure over `(row, col)` indices.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Create a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`NumericsError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NumericsError::invalid(
                "Matrix::from_rows",
                format!("data length {} != {}x{}", data.len(), rows, cols),
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Create a matrix whose columns are the given vectors.
    ///
    /// # Errors
    /// Returns an error when the columns have inconsistent lengths or the
    /// input is empty.
    pub fn from_columns(cols: &[Vector]) -> Result<Self> {
        let first = cols
            .first()
            .ok_or_else(|| NumericsError::invalid("Matrix::from_columns", "no columns"))?;
        let rows = first.len();
        for (j, c) in cols.iter().enumerate() {
            if c.len() != rows {
                return Err(NumericsError::invalid(
                    "Matrix::from_columns",
                    format!("column {} has length {}, expected {}", j, c.len(), rows),
                ));
            }
        }
        Ok(Matrix::from_fn(rows, cols.len(), |r, c| cols[c][r]))
    }

    /// Build a diagonal matrix from the given entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in entries.iter().enumerate() {
            m[(i, i)] = d;
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow a single row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow a single row as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy a column out as a [`Vector`].
    pub fn column(&self, c: usize) -> Vector {
        Vector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Replace column `c` with `v`.
    ///
    /// # Panics
    /// Panics when `v.len() != self.rows()` or `c` is out of bounds.
    pub fn set_column(&mut self, c: usize, v: &Vector) {
        assert_eq!(v.len(), self.rows, "set_column: length mismatch");
        for r in 0..self.rows {
            self[(r, c)] = v[r];
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Tile edge of the blocked [`Matrix::matmul`] kernel. 64×64 f64 tiles
    /// (32 KiB for the `rhs` tile) fit comfortably in L1/L2 alongside the
    /// accumulator rows.
    const MATMUL_BLOCK: usize = 64;

    /// Matrix-matrix product using a cache-blocked i-k-j kernel.
    ///
    /// The k and j dimensions are tiled so the active `rhs` panel and the
    /// accumulator row segment stay cache-resident while an entire panel of
    /// `self` streams past them; within a tile the inner loop runs over
    /// contiguous row slices. Gram products and subspace projections funnel
    /// through this routine, so it is the hottest dense kernel in the
    /// workspace. See [`Matrix::matmul_reference`] for the plain triple
    /// loop it is tested against.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] on incompatible shapes.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(NumericsError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if !pmu_obs::enabled() {
            return Ok(self.matmul_blocked(rhs));
        }
        // Shape/time stats for the hottest dense kernel; only reached when
        // instrumentation is on, so disabled runs never read the clock.
        let t = std::time::Instant::now();
        let out = self.matmul_blocked(rhs);
        let us = t.elapsed().as_secs_f64() * 1e6;
        pmu_obs::counter!("numerics.matmul_calls").inc();
        pmu_obs::histogram!("numerics.matmul_us").observe(us);
        pmu_obs::histogram!("numerics.matmul_flops")
            .observe((2 * self.rows * self.cols * rhs.cols) as f64);
        Ok(out)
    }

    /// The cache-blocked kernel behind [`Matrix::matmul`] (shapes already
    /// checked).
    fn matmul_blocked(&self, rhs: &Matrix) -> Matrix {
        let b = Self::MATMUL_BLOCK;
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let mut kk = 0;
        while kk < self.cols {
            let kend = (kk + b).min(self.cols);
            let mut jj = 0;
            while jj < rhs.cols {
                let jend = (jj + b).min(rhs.cols);
                for i in 0..self.rows {
                    let arow = &self.row(i)[kk..kend];
                    let orow = &mut out.data[i * rhs.cols + jj..i * rhs.cols + jend];
                    for (k, &aik) in (kk..kend).zip(arow) {
                        if aik == 0.0 {
                            continue;
                        }
                        let rrow = &rhs.row(k)[jj..jend];
                        for (o, &r) in orow.iter_mut().zip(rrow) {
                            *o += aik * r;
                        }
                    }
                }
                jj = jend;
            }
            kk = kend;
        }
        out
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    ///
    /// Both operands are walked row-by-row, accumulating the rank-1
    /// update `self_row(r)ᵀ · rhs_row(r)` into the output, so every
    /// inner loop is a contiguous axpy and the accumulator (cols ×
    /// rhs.cols) stays cache-resident while the tall operands stream
    /// past once. For tall-skinny shapes like softmax gradients
    /// (`Eᵀ X` with thousands of rows and ~100 columns) this beats
    /// `transpose().matmul()` by skipping the transpose copy entirely.
    /// The accumulation order over the shared row index matches the
    /// blocked kernel's k-order, so the result is bit-identical to
    /// `self.transpose().matmul(rhs)`.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] when the row counts
    /// (the contracted dimension) differ.
    pub fn tr_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(NumericsError::ShapeMismatch {
                op: "tr_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let arow = self.row(r);
            let brow = rhs.row(r);
            for (c, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = out.row_mut(c);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Reference matrix product: the naive i-j-k triple loop with a scalar
    /// accumulator. Bit-exact ground truth for property tests of the
    /// blocked [`Matrix::matmul`] kernel; not used on any hot path.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] on incompatible shapes.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(NumericsError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self[(i, k)] * rhs[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] on incompatible shapes.
    pub fn matvec(&self, v: &Vector) -> Result<Vector> {
        if self.cols != v.len() {
            return Err(NumericsError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(Vector::from_fn(self.rows, |r| {
            self.row(r).iter().zip(v.as_slice()).map(|(a, b)| a * b).sum()
        }))
    }

    /// Transposed matrix-vector product `A^T v` without forming `A^T`.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] on incompatible shapes.
    pub fn tr_matvec(&self, v: &Vector) -> Result<Vector> {
        if self.rows != v.len() {
            return Err(NumericsError::ShapeMismatch {
                op: "tr_matvec",
                lhs: (self.cols, self.rows),
                rhs: (v.len(), 1),
            });
        }
        let mut out = Vector::zeros(self.cols);
        for r in 0..self.rows {
            let vr = v[r];
            if vr == 0.0 {
                continue;
            }
            for (o, &a) in out.as_mut_slice().iter_mut().zip(self.row(r)) {
                *o += vr * a;
            }
        }
        Ok(out)
    }

    /// `A^T A` (Gram matrix), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ai = row[i];
                if ai == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ai * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Select a subset of rows (in the given order) into a new matrix.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        Matrix::from_fn(idx.len(), self.cols, |r, c| self[(idx[r], c)])
    }

    /// Select a subset of columns (in the given order) into a new matrix.
    pub fn select_columns(&self, idx: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, idx.len(), |r, c| self[(r, idx[c])])
    }

    /// The first `k` columns as a new matrix (`k` is clamped to the column
    /// count). Equivalent to `select_columns(&(0..k).collect::<Vec<_>>())`
    /// but copies each row prefix contiguously instead of going through an
    /// index indirection per element.
    pub fn leading_columns(&self, k: usize) -> Matrix {
        let k = k.min(self.cols);
        let mut out = Matrix::zeros(self.rows, k);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[..k]);
        }
        out
    }

    /// Horizontally concatenate `[self | rhs]`.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] when the row counts differ.
    pub fn hcat(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(NumericsError::ShapeMismatch {
                op: "hcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(Matrix::from_fn(self.rows, self.cols + rhs.cols, |r, c| {
            if c < self.cols {
                self[(r, c)]
            } else {
                rhs[(r, c - self.cols)]
            }
        }))
    }

    /// Horizontally concatenate many matrices `[a | b | c | …]` in one
    /// pass, preallocating the full width. Folding [`Matrix::hcat`] instead
    /// re-copies the whole accumulated matrix per part — O(parts²) traffic
    /// that this routine avoids.
    ///
    /// # Errors
    /// Returns [`NumericsError::InvalidArgument`] for an empty part list
    /// and [`NumericsError::ShapeMismatch`] when row counts differ.
    pub fn hcat_all(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts
            .first()
            .ok_or_else(|| NumericsError::invalid("Matrix::hcat_all", "no parts"))?;
        let rows = first.rows;
        let mut cols = 0usize;
        for p in parts {
            if p.rows != rows {
                return Err(NumericsError::ShapeMismatch {
                    op: "hcat_all",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            cols += p.cols;
        }
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let orow = out.row_mut(r);
            let mut offset = 0;
            for p in parts {
                orow[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        Ok(out)
    }

    /// Vertically concatenate `[self; rhs]`.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] when the column counts differ.
    pub fn vcat(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(NumericsError::ShapeMismatch {
                op: "vcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Ok(Matrix { rows: self.rows + rhs.rows, cols: self.cols, data })
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (`0.0` for an empty matrix).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Scale all entries in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Subtract the row-wise mean from every column (center each row across
    /// time). Returns the vector of row means.
    ///
    /// The detector treats rows as sensors and columns as time instants, so
    /// "centering" removes each sensor's steady-state operating point.
    pub fn center_rows_mut(&mut self) -> Vector {
        let mut means = Vector::zeros(self.rows);
        if self.cols == 0 {
            return means;
        }
        for r in 0..self.rows {
            let row = self.row(r);
            let m = row.iter().sum::<f64>() / self.cols as f64;
            means[r] = m;
            for x in self.row_mut(r) {
                *x -= m;
            }
        }
        means
    }

    /// Maximum absolute difference with `other`; `f64::INFINITY` when shapes
    /// differ. Handy in tests.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        if self.shape() != other.shape() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl serde::Deserialize for Matrix {
    /// Rebuild a matrix from `{"rows", "cols", "data"}`, rejecting a
    /// `data` length that disagrees with the declared shape (a shape whose
    /// element count overflows `usize` included) — indexing would
    /// otherwise go out of bounds on untrusted input.
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let rows: usize = serde::from_field(v, "rows")?;
        let cols: usize = serde::from_field(v, "cols")?;
        let data: Vec<f64> = serde::from_field(v, "data")?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError::new(format!(
                "Matrix: {} values for a {rows}x{cols} shape",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "Matrix add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "Matrix sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    /// Panicking operator form of [`Matrix::matmul`] for ergonomic call sites
    /// where shapes are statically known to agree.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("Matrix mul: shape mismatch")
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.column(1).as_slice(), &[1.0, 4.0]);
        let id = Matrix::identity(3);
        assert_eq!(id[(0, 0)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
        assert!(Matrix::from_rows(2, 2, vec![1.0; 3]).is_err());
        let d = Matrix::diag(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn from_columns_builds_expected() {
        let c0 = Vector::from(vec![1.0, 2.0]);
        let c1 = Vector::from(vec![3.0, 4.0]);
        let m = Matrix::from_columns(&[c0, c1]).unwrap();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert!(Matrix::from_columns(&[]).is_err());
        assert!(Matrix::from_columns(&[Vector::zeros(2), Vector::zeros(3)]).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_rows(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&Matrix::zeros(3, 2)).is_err());
        // identity is neutral
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
        // operator form
        assert_eq!((&a * &b).as_slice(), c.as_slice());
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]).unwrap();
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.matvec(&v).unwrap().as_slice(), &[7.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 0)], 2.0);
        // A^T v computed directly equals transpose().matvec
        let w = Vector::from(vec![1.0, -1.0]);
        assert_eq!(
            a.tr_matvec(&w).unwrap().as_slice(),
            t.matvec(&w).unwrap().as_slice()
        );
        assert!(a.matvec(&Vector::zeros(2)).is_err());
        assert!(a.tr_matvec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn gram_is_ata() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 0.0, 1.0, -1.0, 3.0]).unwrap();
        let g = a.gram();
        let expected = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&expected) < 1e-14);
    }

    #[test]
    fn selection_and_concat() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let rsel = a.select_rows(&[2, 0]);
        assert_eq!(rsel.row(0), &[6.0, 7.0, 8.0]);
        assert_eq!(rsel.row(1), &[0.0, 1.0, 2.0]);
        let csel = a.select_columns(&[1]);
        assert_eq!(csel.column(0).as_slice(), &[1.0, 4.0, 7.0]);
        let h = a.hcat(&csel).unwrap();
        assert_eq!(h.shape(), (3, 4));
        assert_eq!(h[(0, 3)], 1.0);
        let v = a.vcat(&rsel).unwrap();
        assert_eq!(v.shape(), (5, 3));
        assert_eq!(v[(3, 0)], 6.0);
        assert!(a.hcat(&Matrix::zeros(2, 2)).is_err());
        assert!(a.vcat(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn blocked_matmul_matches_reference_past_tile_edges() {
        // Shapes straddling the 64-wide tile edge exercise every partial-
        // tile branch of the blocked kernel.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 70, 5), (65, 64, 63), (10, 130, 67)] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17) % 13) as f64 - 6.0);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 7 + c * 29) % 11) as f64 - 5.0);
            let blocked = a.matmul(&b).unwrap();
            let reference = a.matmul_reference(&b).unwrap();
            assert_eq!(blocked, reference, "({m},{k},{n})");
        }
        assert!(Matrix::zeros(2, 3).matmul_reference(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn hcat_all_matches_folded_hcat() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(3, 1, |r, _| r as f64 * 10.0);
        let c = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let folded = a.hcat(&b).unwrap().hcat(&c).unwrap();
        let all = Matrix::hcat_all(&[&a, &b, &c]).unwrap();
        assert_eq!(all, folded);
        assert_eq!(Matrix::hcat_all(&[&a]).unwrap(), a);
        assert!(Matrix::hcat_all(&[]).is_err());
        assert!(Matrix::hcat_all(&[&a, &Matrix::zeros(2, 2)]).is_err());
    }

    #[test]
    fn center_rows_removes_means() {
        let mut m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 10.0, 10.0, 10.0]).unwrap();
        let means = m.center_rows_mut();
        assert_eq!(means.as_slice(), &[2.0, 10.0]);
        assert_eq!(m.row(0), &[-1.0, 0.0, 1.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(2, 2, vec![3.0, 0.0, 0.0, -4.0]).unwrap();
        assert_eq!(m.norm_fro(), 5.0);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn deserialize_rejects_inconsistent_shapes() {
        let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<Matrix>(&json).unwrap(), m);
        for bad in [
            r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#,
            r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0,4.0,5.0]}"#,
            r#"{"rows":0,"cols":3,"data":[1.0]}"#,
            // rows * cols overflows usize; must not wrap to a small count.
            r#"{"rows":4294967296,"cols":4294967296,"data":[]}"#,
            r#"{"rows":9223372036854775807,"cols":2,"data":[1.0,2.0]}"#,
        ] {
            let err = serde_json::from_str::<Matrix>(bad).expect_err(bad).to_string();
            assert!(err.contains("shape"), "{bad}: {err}");
        }
        assert!(serde_json::from_str::<Matrix>(r#"{"rows":3,"cols":0,"data":[]}"#).is_ok());
    }

    #[test]
    fn set_column_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        m.set_column(1, &v);
        assert_eq!(m.column(1).as_slice(), v.as_slice());
        assert_eq!(m.column(0).as_slice(), &[0.0, 0.0, 0.0]);
    }
}
