//! Linear-algebra substrate for the `ed-security` workspace.
//!
//! The power-flow and optimization crates in this workspace need a small but
//! reliable set of numerical kernels:
//!
//! - [`Matrix`] — a row-major dense `f64` matrix with the usual arithmetic,
//!   slicing and assembly helpers.
//! - [`Lu`] — dense LU factorization with partial pivoting, for the
//!   genuinely dense systems: the Newton–Raphson AC power flow Jacobian and
//!   the active-set and interior-point QP KKT matrices.
//! - [`SparseLu`] — sparse LU with threshold Markowitz pivoting, factoring
//!   column lists without forming the dense matrix.
//! - [`UpdatableLu`] — a [`SparseLu`] plus a product-form file of sparse
//!   rank-1 updates (column replacement and Sherman–Morrison), with a
//!   stability-triggered refactorization fallback; backs the simplex basis
//!   and the shared susceptance factorization behind DC power flow and PTDF.
//! - [`Complex`] — complex arithmetic for AC admittance matrices.
//! - [`CscMatrix`] — compressed sparse column storage for constraint
//!   matrices, with dense↔sparse conversion and column iteration; the
//!   interchange format between the optimization model IR and presolve.
//!
//! Everything here is implemented from scratch (no external linear-algebra
//! crates) and sized for the problems in this workspace: networks with up to
//! a few hundred buses, and optimization bases with up to a few thousand
//! rows. The dense kernels are `O(n^3)` with partial pivoting; the sparse
//! factorization costs what its fill costs.
//!
//! # Example
//!
//! ```
//! use ed_linalg::{Matrix, Lu};
//!
//! # fn main() -> Result<(), ed_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let lu = Lu::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod error;
mod lu;
mod lu_update;
mod matrix;
mod sparse;
mod sparse_lu;
mod vector;

pub use complex::Complex;
pub use error::LinalgError;
pub use lu::Lu;
pub use lu_update::UpdatableLu;
pub use matrix::Matrix;
pub use sparse::CscMatrix;
pub use sparse_lu::SparseLu;
pub use vector::{axpy, dot, norm_inf, norm_two, scale, sub};
