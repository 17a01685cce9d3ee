//! Dense matrices over [`Gf256`], with the operations the slicing
//! protocol needs: multiplication, Gauss–Jordan inversion, rank, solving,
//! and random-invertible generation.

use rand::Rng;

use crate::gf256::{axpy, dot, scale, sub_scaled, Gf256};

/// A dense row-major matrix over GF(2⁸).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// All-zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Gf256::zero(); rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.set(i, i, Gf256::one());
        }
        m
    }

    /// Build from a flat row-major element vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Gf256>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<Gf256>]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.concat(),
        }
    }

    /// Uniformly random matrix.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| Gf256::random(rng)).collect();
        Matrix { rows, cols, data }
    }

    /// Random *invertible* `n × n` matrix, by rejection sampling.
    ///
    /// Over GF(2⁸) a uniform random square matrix is invertible with
    /// probability ≈ ∏(1 − 2⁻⁸ᵏ) ≈ 0.996, so the expected number of
    /// samples is ~1.004; the loop terminates almost immediately.
    pub fn random_invertible<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        loop {
            let m = Self::random(n, n, rng);
            if m.is_invertible() {
                return m;
            }
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Gf256 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Gf256) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Gf256] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Gf256] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[Gf256] {
        &self.data
    }

    /// Matrix × matrix.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn mul_mat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a.is_zero() {
                    continue;
                }
                let (dst, src) = (i * rhs.cols, k * rhs.cols);
                let rhs_row = &rhs.data[src..src + rhs.cols];
                axpy(&mut out.data[dst..dst + rhs.cols], a, rhs_row);
            }
        }
        out
    }

    /// Matrix × column-vector.
    ///
    /// # Panics
    /// Panics if `v.len() != ncols()`.
    pub fn mul_vec(&self, v: &[Gf256]) -> Vec<Gf256> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zero(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Row rank via Gaussian elimination (non-destructive).
    ///
    /// Elimination runs row-at-a-time through the slice kernels
    /// ([`scale`], [`sub_scaled`]), which stream each row update through
    /// one 64 KiB-table row instead of per-element log/exp.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        for col in 0..m.cols {
            if rank == m.rows {
                break;
            }
            // Find pivot.
            let pivot = (rank..m.rows).find(|&r| !m.get(r, col).is_zero());
            let Some(p) = pivot else { continue };
            m.swap_rows(rank, p);
            let inv = m.get(rank, col).inv();
            scale(&mut m.row_mut(rank)[col..], inv);
            for r in 0..m.rows {
                if r != rank && !m.get(r, col).is_zero() {
                    let factor = m.get(r, col);
                    let (pivot_row, row) = m.two_rows_mut(rank, r);
                    sub_scaled(&mut row[col..], factor, &pivot_row[col..]);
                }
            }
            rank += 1;
        }
        rank
    }

    /// Whether this matrix is square and full rank.
    pub fn is_invertible(&self) -> bool {
        self.rows == self.cols && self.rank() == self.rows
    }

    /// Gauss–Jordan inverse; `None` if singular or non-square.
    ///
    /// Pivot normalization and row elimination go through the slice
    /// kernels (see [`Matrix::rank`]).
    pub fn inverse(&self) -> Option<Matrix> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv: Matrix = Matrix::identity(n);
        for col in 0..n {
            let pivot = (col..n).find(|&r| !a.get(r, col).is_zero())?;
            a.swap_rows(col, pivot);
            inv.swap_rows(col, pivot);
            let norm = a.get(col, col).inv();
            scale(a.row_mut(col), norm);
            scale(inv.row_mut(col), norm);
            for r in 0..n {
                if r != col && !a.get(r, col).is_zero() {
                    let factor = a.get(r, col);
                    let (pivot_row, row) = a.two_rows_mut(col, r);
                    sub_scaled(row, factor, pivot_row);
                    let (pivot_row, row) = inv.two_rows_mut(col, r);
                    sub_scaled(row, factor, pivot_row);
                }
            }
        }
        Some(inv)
    }

    /// Solve `self · x = b` for a square invertible system; `None` if the
    /// system is singular.
    ///
    /// # Panics
    /// Panics if `b.len() != nrows()`.
    pub fn solve(&self, b: &[Gf256]) -> Option<Vec<Gf256>> {
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut x: Vec<Gf256> = b.to_vec();
        for col in 0..n {
            let pivot = (col..n).find(|&r| !a.get(r, col).is_zero())?;
            a.swap_rows(col, pivot);
            x.swap(col, pivot);
            let norm = a.get(col, col).inv();
            scale(a.row_mut(col), norm);
            x[col] = x[col].mul(norm);
            for r in 0..n {
                if r != col && !a.get(r, col).is_zero() {
                    let factor = a.get(r, col);
                    let (pivot_row, row) = a.two_rows_mut(col, r);
                    sub_scaled(row, factor, pivot_row);
                    x[r] = x[r].sub(factor.mul(x[col]));
                }
            }
        }
        Some(x)
    }

    /// New matrix formed from the given row indices (order preserved).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zero(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Mutably borrow two distinct rows at once (`(row_a, row_b)`), for
    /// row-wise elimination through the bulk kernels.
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of bounds.
    fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [Gf256], &mut [Gf256]) {
        assert_ne!(a, b, "two_rows_mut needs distinct rows");
        let cols = self.cols;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * cols);
        let row_lo = &mut head[lo * cols..(lo + 1) * cols];
        let row_hi = &mut tail[..cols];
        if a < b {
            (row_lo, row_hi)
        } else {
            (row_hi, row_lo)
        }
    }

    /// Swap two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.cols);
        head[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Serialize to bytes: one byte per element, row-major.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.data.iter().map(|e| e.value()).collect()
    }

    /// Deserialize from the encoding produced by [`Matrix::to_bytes`].
    ///
    /// # Panics
    /// Panics if `bytes.len() != rows * cols`.
    pub fn from_bytes(rows: usize, cols: usize, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), rows * cols, "length mismatch");
        let data = bytes.iter().map(|&b| Gf256::new(b)).collect();
        Matrix { rows, cols, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let mut rng = rng();
        let a = Matrix::random(4, 4, &mut rng);
        let i = Matrix::identity(4);
        assert_eq!(a.mul_mat(&i), a);
        assert_eq!(i.mul_mat(&a), a);
    }

    #[test]
    fn inverse_round_trip() {
        let mut rng = rng();
        for n in 1..=8 {
            let a = Matrix::random_invertible(n, &mut rng);
            let inv = a.inverse().expect("invertible by construction");
            assert_eq!(a.mul_mat(&inv), Matrix::identity(n));
            assert_eq!(inv.mul_mat(&a), Matrix::identity(n));
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let mut m = Matrix::zero(3, 3);
        m.set(0, 0, Gf256(1));
        m.set(1, 1, Gf256(1));
        // Row 2 duplicates row 0.
        m.set(2, 0, Gf256(1));
        assert!(m.inverse().is_none());
        assert_eq!(m.rank(), 2);
        assert!(!m.is_invertible());
    }

    #[test]
    fn solve_matches_inverse_multiplication() {
        let mut rng = rng();
        let a = Matrix::random_invertible(5, &mut rng);
        let b: Vec<Gf256> = (0..5).map(|_| Gf256::random(&mut rng)).collect();
        let x = a.solve(&b).unwrap();
        assert_eq!(a.mul_vec(&x), b);
        let via_inverse = a.inverse().unwrap().mul_vec(&b);
        assert_eq!(x, via_inverse);
    }

    #[test]
    fn rank_of_random_tall_matrix() {
        let mut rng = rng();
        let m = Matrix::random(8, 3, &mut rng);
        assert!(m.rank() <= 3);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = rng();
        let m = Matrix::random(3, 7, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn select_rows_preserves_content() {
        let mut rng = rng();
        let m = Matrix::random(6, 4, &mut rng);
        let s = m.select_rows(&[4, 1]);
        assert_eq!(s.row(0), m.row(4));
        assert_eq!(s.row(1), m.row(1));
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = rng();
        let m = Matrix::random(3, 5, &mut rng);
        let b = m.to_bytes();
        assert_eq!(Matrix::from_bytes(3, 5, &b), m);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_rows(&[vec![Gf256(1), Gf256(2)], vec![Gf256(3), Gf256(4)]]);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[Gf256(3), Gf256(4)]);
        assert_eq!(m.row(1), &[Gf256(1), Gf256(2)]);
    }
}
