//! Dense matrices over GF(2^8).
//!
//! Matrices drive the systematic Reed–Solomon codec: the generator matrix maps
//! data shards to coded shards, and reconstruction inverts the sub-matrix of
//! surviving rows. Only small matrices (tens of rows) ever occur, so a simple
//! dense representation with Gauss–Jordan elimination is sufficient and easy
//! to audit.

use std::fmt;
use std::ops::{Index, IndexMut, Mul};

use crate::{Gf256, GfError};

/// A dense row-major matrix over GF(2^8).
///
/// # Example
///
/// ```
/// use drc_gf::{Gf256, Matrix};
///
/// # fn main() -> Result<(), drc_gf::GfError> {
/// let v = Matrix::vandermonde(3, 3)?;
/// let inv = v.inverse()?;
/// assert_eq!(&v * &inv, Matrix::identity(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Creates a zero-filled matrix with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Creates a matrix from rows of byte values.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DimensionMismatch`] if the rows do not all have the
    /// same, non-zero length.
    pub fn from_rows(rows: &[Vec<u8>]) -> Result<Self, GfError> {
        let nrows = rows.len();
        let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
        if nrows == 0 || ncols == 0 || rows.iter().any(|r| r.len() != ncols) {
            return Err(GfError::DimensionMismatch {
                expected: "non-empty rows of equal length".to_string(),
                found: format!("{nrows} rows"),
            });
        }
        let data = rows
            .iter()
            .flat_map(|r| r.iter().copied().map(Gf256::new))
            .collect();
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates the `rows × cols` Vandermonde matrix with `a[i][j] = i^j`.
    ///
    /// Any square sub-matrix formed from distinct rows of a Vandermonde matrix
    /// with distinct evaluation points is invertible, which is exactly the
    /// property an erasure code's generator matrix needs.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DimensionMismatch`] if `rows` exceeds the field size
    /// (evaluation points would repeat) or either dimension is zero.
    pub fn vandermonde(rows: usize, cols: usize) -> Result<Self, GfError> {
        if rows == 0 || cols == 0 || rows > 256 {
            return Err(GfError::DimensionMismatch {
                expected: "1..=256 rows and cols >= 1".to_string(),
                found: format!("{rows}x{cols}"),
            });
        }
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = Gf256::new(i as u8).pow(j as u32);
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[Gf256] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over the rows of the matrix.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Gf256]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns rows `start..end` as one contiguous row-major coefficient
    /// slab (the matrix is stored row-major), suitable for
    /// [`crate::slice::matrix_mul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn rows_flat(&self, start: usize, end: usize) -> &[Gf256] {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        &self.data[start * self.cols..end * self.cols]
    }

    /// Returns a new matrix consisting of the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "select_rows requires at least one row");
        let mut m = Matrix::zero(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "row index out of bounds");
            for c in 0..self.cols {
                m[(dst, c)] = self[(src, c)];
            }
        }
        m
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DimensionMismatch`] if the column counts differ.
    pub fn stack(&self, other: &Matrix) -> Result<Matrix, GfError> {
        if self.cols != other.cols {
            return Err(GfError::DimensionMismatch {
                expected: format!("{} columns", self.cols),
                found: format!("{} columns", other.cols),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DimensionMismatch`] if the inner dimensions differ.
    pub fn checked_mul(&self, rhs: &Matrix) -> Result<Matrix, GfError> {
        if self.cols != rhs.rows {
            return Err(GfError::DimensionMismatch {
                expected: format!("rhs with {} rows", self.cols),
                found: format!("rhs with {} rows", rhs.rows),
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Returns the rank of the matrix (dimension of its row space).
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        for col in 0..m.cols {
            if rank == m.rows {
                break;
            }
            // Find a pivot in this column at or below `rank`.
            let Some(pivot) = (rank..m.rows).find(|&r| !m[(r, col)].is_zero()) else {
                continue;
            };
            m.swap_rows(rank, pivot);
            let inv = m[(rank, col)].inv();
            for c in 0..m.cols {
                m[(rank, c)] *= inv;
            }
            for r in 0..m.rows {
                if r != rank && !m[(r, col)].is_zero() {
                    let factor = m[(r, col)];
                    for c in 0..m.cols {
                        let v = m[(rank, c)];
                        m[(r, c)] += factor * v;
                    }
                }
            }
            rank += 1;
        }
        rank
    }

    /// Computes the inverse of a square matrix by Gauss–Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DimensionMismatch`] if the matrix is not square, or
    /// [`GfError::SingularMatrix`] if it has no inverse.
    pub fn inverse(&self) -> Result<Matrix, GfError> {
        if self.rows != self.cols {
            return Err(GfError::DimensionMismatch {
                expected: "square matrix".to_string(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            let Some(pivot) = (col..n).find(|&r| !work[(r, col)].is_zero()) else {
                return Err(GfError::SingularMatrix);
            };
            work.swap_rows(col, pivot);
            inv.swap_rows(col, pivot);

            let scale = work[(col, col)].inv();
            for c in 0..n {
                work[(col, c)] *= scale;
                inv[(col, c)] *= scale;
            }
            for r in 0..n {
                if r != col && !work[(r, col)].is_zero() {
                    let factor = work[(r, col)];
                    for c in 0..n {
                        let w = work[(col, c)];
                        let i = inv[(col, c)];
                        work[(r, c)] += factor * w;
                        inv[(r, c)] += factor * i;
                    }
                }
            }
        }
        Ok(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.checked_mul(rhs)
            // drc-lint: allow(panic-hygiene): operator `Mul` cannot return Result;
            // `checked_mul` is the fallible surface for dimension mismatches.
            .expect("matrix dimension mismatch in multiplication")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.iter_rows() {
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:02x}", v.value())?;
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
    fn identity_is_multiplicative_identity() {
        let v = Matrix::vandermonde(4, 4).unwrap();
        let id = Matrix::identity(4);
        assert_eq!(&v * &id, v);
        assert_eq!(&id * &v, v);
    }

    #[test]
    fn vandermonde_shape_and_first_rows() {
        let v = Matrix::vandermonde(3, 4).unwrap();
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 4);
        // Row 0: 0^0, 0^1, ... = 1, 0, 0, 0
        assert_eq!(
            v.row(0),
            &[Gf256::ONE, Gf256::ZERO, Gf256::ZERO, Gf256::ZERO]
        );
        // Row 1: all ones.
        assert!(v.row(1).iter().all(|x| *x == Gf256::ONE));
    }

    #[test]
    fn vandermonde_rejects_bad_dims() {
        assert!(Matrix::vandermonde(0, 3).is_err());
        assert!(Matrix::vandermonde(3, 0).is_err());
        assert!(Matrix::vandermonde(257, 3).is_err());
    }

    #[test]
    fn from_rows_validation() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1, 2], vec![3]]).is_err());
        let m = Matrix::from_rows(&[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(m[(1, 0)], Gf256::new(3));
    }

    #[test]
    fn inverse_roundtrip_vandermonde() {
        for n in 1..=8 {
            let rows: Vec<usize> = (0..n).collect();
            let v = Matrix::vandermonde(12, n).unwrap().select_rows(&rows);
            let inv = v.inverse().unwrap();
            assert_eq!(&v * &inv, Matrix::identity(n));
            assert_eq!(&inv * &v, Matrix::identity(n));
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let m = Matrix::from_rows(&[vec![1, 2, 3], vec![1, 2, 3], vec![0, 1, 0]]).unwrap();
        assert_eq!(m.inverse(), Err(GfError::SingularMatrix));
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn non_square_inverse_rejected() {
        let m = Matrix::zero(2, 3);
        assert!(matches!(
            m.inverse(),
            Err(GfError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(Matrix::identity(5).rank(), 5);
        assert_eq!(Matrix::zero(4, 6).rank(), 0);
    }

    #[test]
    fn select_rows_and_stack() {
        let id = Matrix::identity(3);
        let v = Matrix::vandermonde(2, 3).unwrap();
        let stacked = id.stack(&v).unwrap();
        assert_eq!(stacked.rows(), 5);
        let picked = stacked.select_rows(&[0, 3, 4]);
        assert_eq!(picked.row(0), id.row(0));
        assert_eq!(picked.row(1), v.row(0));
        assert!(id.stack(&Matrix::zero(1, 2)).is_err());
    }

    #[test]
    fn checked_mul_dimension_errors() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        assert!(a.checked_mul(&b).is_err());
    }

    #[test]
    fn display_formats_all_entries() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert_eq!(s, "01 00\n00 01\n");
    }
}
