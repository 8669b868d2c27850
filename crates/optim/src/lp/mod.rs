//! Linear programming: a bounded-variable two-phase revised simplex solver
//! over the shared sparse model IR.
//!
//! The solver handles general bounds `l <= x <= u` (including infinite and
//! fixed bounds), `<=`/`>=`/`==` rows, minimization and maximization, and
//! reports primal values, row duals, and reduced costs. The basis is kept as
//! an LU factorization plus product-form eta updates (see the `simplex` module).
//!
//! The problem type here is the workspace-wide [`crate::model::Model`];
//! [`LpProblem`] is an alias kept for the original LP-centric call sites.
//! Quadratic terms and integrality marks on a model are *ignored* by the
//! simplex solver — the QP/MILP front ends layer those on top.
//!
//! See [`LpProblem`] for the entry point.

pub mod basis;
pub(crate) mod pricing;
pub(crate) mod simplex;

pub use crate::model::{LpSolution, LpStatus, Row, RowId, RowSense, Sense, VarId};
pub use basis::{Basis, BasisStatus};
pub use simplex::{phase1_basis, Pricing, SimplexOptions};

/// The LP problem type — an alias of the shared sparse [`crate::model::Model`].
pub type LpProblem = crate::model::Model;
