//! Dense integer matrices with the elementary (unimodular) row and
//! column operations needed for Hermite/Smith normal form computation.

use crate::Int;
use std::fmt;
use std::ops::Mul;

/// A dense matrix of [`Int`] values, stored row-major.
///
/// ```
/// use presburger_arith::{Int, Matrix};
///
/// let m = Matrix::from_i64(2, 2, &[1, 2, 3, 4]);
/// let id = Matrix::identity(2);
/// assert_eq!(&m * &id, m);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Int>,
}

impl Matrix {
    /// Creates a `rows x cols` zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![Int::zero(); rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Int::one();
        }
        m
    }

    /// Creates a matrix from row-major entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != rows * cols`.
    pub fn from_entries(rows: usize, cols: usize, entries: Vec<Int>) -> Matrix {
        assert_eq!(entries.len(), rows * cols, "entry count mismatch");
        Matrix {
            rows,
            cols,
            data: entries,
        }
    }

    /// Convenience constructor from `i64` entries (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != rows * cols`.
    pub fn from_i64(rows: usize, cols: usize, entries: &[i64]) -> Matrix {
        Matrix::from_entries(rows, cols, entries.iter().map(|&v| Int::from(v)).collect())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(Int::is_zero)
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zero(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)].clone();
            }
        }
        t
    }

    /// Swap rows `i` and `j`.
    pub fn swap_rows(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(i * self.cols + c, j * self.cols + c);
        }
    }

    /// Swap columns `i` and `j`.
    pub fn swap_cols(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        for r in 0..self.rows {
            self.data.swap(r * self.cols + i, r * self.cols + j);
        }
    }

    /// Row operation `row[i] += k * row[j]` (unimodular for any integer `k`).
    pub fn add_row_multiple(&mut self, i: usize, j: usize, k: &Int) {
        assert_ne!(i, j, "row indices must differ");
        for c in 0..self.cols {
            let add = &self[(j, c)] * k;
            self[(i, c)] += &add;
        }
    }

    /// Column operation `col[i] += k * col[j]`.
    pub fn add_col_multiple(&mut self, i: usize, j: usize, k: &Int) {
        assert_ne!(i, j, "column indices must differ");
        for r in 0..self.rows {
            let add = &self[(r, j)] * k;
            self[(r, i)] += &add;
        }
    }

    /// Negate row `i`.
    pub fn negate_row(&mut self, i: usize) {
        for c in 0..self.cols {
            self[(i, c)] = -self[(i, c)].clone();
        }
    }

    /// Negate column `i`.
    pub fn negate_col(&mut self, i: usize) {
        for r in 0..self.rows {
            self[(r, i)] = -self[(r, i)].clone();
        }
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Int]) -> Vec<Int> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut acc = Int::zero();
                for j in 0..self.cols {
                    acc += &(&self[(i, j)] * &v[j]);
                }
                acc
            })
            .collect()
    }

    /// The determinant, by Bareiss fraction-free elimination (every
    /// intermediate division is exact, so entries stay integral and
    /// polynomially bounded).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn det(&self) -> Int {
        assert_eq!(self.rows, self.cols, "determinant of a non-square matrix");
        let n = self.rows;
        if n == 0 {
            return Int::one();
        }
        let mut m = self.clone();
        let mut sign = 1i32;
        let mut prev = Int::one();
        for k in 0..n - 1 {
            if m[(k, k)].is_zero() {
                let Some(p) = (k + 1..n).find(|&i| !m[(i, k)].is_zero()) else {
                    return Int::zero();
                };
                m.swap_rows(k, p);
                sign = -sign;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let num = &(&m[(k, k)] * &m[(i, j)]) - &(&m[(i, k)] * &m[(k, j)]);
                    let (q, r) = num.div_rem(&prev);
                    debug_assert!(r.is_zero(), "Bareiss division must be exact");
                    m[(i, j)] = q;
                }
                m[(i, k)] = Int::zero();
            }
            prev = m[(k, k)].clone();
        }
        let d = m[(n - 1, n - 1)].clone();
        if sign < 0 {
            -d
        } else {
            d
        }
    }

    /// Extracts column `j` as a vector.
    pub fn col(&self, j: usize) -> Vec<Int> {
        (0..self.rows).map(|i| self[(i, j)].clone()).collect()
    }

    /// Extracts row `i` as a vector.
    pub fn row(&self, i: usize) -> Vec<Int> {
        (0..self.cols).map(|j| self[(i, j)].clone()).collect()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = Int;
    fn index(&self, (i, j): (usize, usize)) -> &Int {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Int {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = &self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let add = a * &rhs[(k, j)];
                    out[(i, j)] += &add;
                }
            }
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>6} ", self[(i, j)].to_string())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let m = Matrix::from_i64(2, 3, &[1, -2, 3, 4, 5, -6]);
        assert_eq!(&Matrix::identity(2) * &m, m);
        assert_eq!(&m * &Matrix::identity(3), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_i64(2, 3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], Int::from(6));
    }

    #[test]
    fn row_col_ops_preserve_determinant_magnitude() {
        // For a 2x2 matrix, |det| is invariant under the unimodular ops.
        let det = |m: &Matrix| &(&m[(0, 0)] * &m[(1, 1)]) - &(&m[(0, 1)] * &m[(1, 0)]);
        let mut m = Matrix::from_i64(2, 2, &[3, 5, 7, 2]);
        let d0 = det(&m).abs();
        m.add_row_multiple(0, 1, &Int::from(-4));
        m.swap_cols(0, 1);
        m.negate_row(1);
        m.add_col_multiple(1, 0, &Int::from(9));
        assert_eq!(det(&m).abs(), d0);
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let m = Matrix::from_i64(2, 3, &[1, 2, 3, 4, 5, 6]);
        let v = vec![Int::from(1), Int::from(0), Int::from(-1)];
        assert_eq!(m.mul_vec(&v), vec![Int::from(-2), Int::from(-2)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_checks_dims() {
        let m = Matrix::zero(2, 3);
        let _ = m.mul_vec(&[Int::one()]);
    }

    #[test]
    fn row_col_extraction() {
        let m = Matrix::from_i64(2, 3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m.row(1), vec![Int::from(4), Int::from(5), Int::from(6)]);
        assert_eq!(m.col(2), vec![Int::from(3), Int::from(6)]);
    }
}
