//! # pmu-flow
//!
//! Steady-state power-flow solvers — the workspace's substitute for
//! MATPOWER's `runpf` (DESIGN.md substitution #1). The paper generates its
//! training and test synchrophasors by solving the **AC** power flow for
//! every load realization and line-outage topology; this crate provides
//! that solver (full Newton–Raphson in polar coordinates) plus the DC
//! linearization used for comparison and for Eq. (1)'s `X = Y⁺ P` view.
//!
//! - [`ac`] — Newton–Raphson AC power flow.
//! - [`dc`] — DC (linearized) power flow.
//! - [`cascade`] — overload-cascade simulation and N-1 screening.
//! - [`flows`] — per-branch complex power flows from a solved state.
//! - [`error`] — solver error type.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ac;
pub mod cascade;
pub mod dc;
pub mod error;
pub mod flows;

pub use ac::{solve_ac, AcConfig, AcSolution, AcSolver, LinearSolver};
pub use dc::{solve_dc, DcSolution};
pub use error::FlowError;

/// Convenience result alias for solver operations.
pub type Result<T> = std::result::Result<T, FlowError>;
