//! # pmu-numerics
//!
//! Self-contained dense linear algebra for the `pmu-outage` workspace.
//!
//! The outage-detection pipeline of the paper needs a fairly complete
//! numerical toolbox: complex arithmetic for admittance matrices, LU
//! factorization for Newton–Raphson power-flow steps, QR for orthonormal
//! bases, SVD for subspace learning and pseudo-inverses, and a symmetric
//! eigensolver for projector-based subspace intersection. All of it is
//! implemented here from scratch (no BLAS/LAPACK), sized for power-system
//! matrices (N ≤ a few hundred), with an emphasis on numerical robustness
//! and testability over raw throughput.
//!
//! ## Module map
//!
//! - [`complex`] — `Complex64` scalar type.
//! - [`vector`] — dense real vectors and elementary operations.
//! - [`matrix`] — row-major dense real matrices.
//! - [`cmatrix`] — dense complex matrices (admittance matrices).
//! - [`lu`] — LU factorization with partial pivoting (real and complex).
//! - [`qr`] — Householder QR, thin factors, least squares.
//! - [`svd`] — one-sided Jacobi SVD, pseudo-inverse, numerical rank.
//! - [`rsvd`] — truncated randomized SVD (deterministic Gaussian range
//!   finder + power iterations; the rank-limited training fast path).
//! - [`eigen`] — Jacobi eigensolver for symmetric matrices.
//! - [`subspace`] — orthonormal subspaces: projection, residuals, unions,
//!   intersections, principal angles.
//! - [`packed`] — projector banks: every subspace residual of a sample
//!   from dimension-grouped, interleaved bases (the detection hot path).
//! - [`sparse`] — compressed sparse row matrices, real and complex
//!   (admittance matrices and NR Jacobians are ~99% zero at scale).
//! - [`sparse_lu`] — sparse LU with RCM ordering and symbolic pattern
//!   reuse (the power-flow fast path).
//! - [`hash`] — streaming FNV-1a content fingerprints (model bundles,
//!   artifact-store keys).
//! - [`stats`] — small statistics helpers (means, quantiles, covariance).
//! - [`par`] — zero-dependency data-parallel executor (`par_map`) used by
//!   the scenario-generation and training pipelines.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cmatrix;
pub mod complex;
pub mod eigen;
pub mod error;
pub mod hash;
pub mod lu;
pub mod matrix;
pub mod packed;
pub mod par;
pub mod qr;
pub mod rsvd;
pub mod sparse;
pub mod sparse_lu;
pub mod stats;
pub mod subspace;
pub mod svd;
pub mod vector;

pub use cmatrix::CMatrix;
pub use complex::Complex64;
pub use error::NumericsError;
pub use lu::{CluFactors, LuFactors};
pub use matrix::Matrix;
pub use packed::ProjectorBank;
pub use qr::QrFactors;
pub use rsvd::RsvdConfig;
pub use sparse::{CsrCMatrix, CsrMatrix};
pub use sparse_lu::{SparseLu, SymbolicLu};
pub use subspace::Subspace;
pub use svd::Svd;
pub use vector::Vector;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;
