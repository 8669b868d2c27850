//! DC economic dispatch (the operator's problem, Eq. 8/11 of the paper).
//!
//! The entry point is [`DcOpf`]: configure demand and line ratings, pick a
//! [`Formulation`], and solve. With strictly convex quadratic costs the QP
//! active-set solver is used; with any linear-cost generator present the
//! problem is solved as an LP. Both the angle (`θ`) formulation the paper
//! writes down and an equivalent PTDF (injection-shift) formulation are
//! provided; they agree to solver tolerance and are cross-checked in tests
//! and in the `ablation_formulation` bench.

mod certified;
mod dcopf;
mod form;
mod loss;
mod resilient;
mod safety;

pub use certified::CertifiedDispatch;
pub use dcopf::{DcOpf, Dispatch, Formulation};
pub use loss::loss_adjusted_dispatch;
pub use resilient::{
    Degradation, DegradationReason, DispatchRung, ResilientDispatch, ResilientDispatcher,
};
pub use safety::{SafetyGate, SafetyLimits, SafetyReport, SafetyViolation};
