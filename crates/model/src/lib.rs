//! # pmu-model
//!
//! The train/serve split of the workspace: versioned, serializable
//! **model bundles** and a content-addressed on-disk **artifact store**.
//!
//! The paper's detector is trained once per topology (subspaces, ellipses,
//! capabilities, detection groups — Sec. IV) and then consumed online
//! against streaming, possibly-incomplete PMU samples. This crate is the
//! seam between those two phases:
//!
//! - [`ModelBundle`] packages everything the online stage needs — the
//!   trained [`Detector`](pmu_detect::Detector), the trained
//!   [`MlrDetector`](pmu_baseline::MlrDetector) baseline, the exact
//!   configurations and seed that produced them, and the network/dataset
//!   fingerprints they were trained against — behind a schema version and
//!   an integrity checksum. (De)serialization is deterministic: the
//!   vendored `serde_json` renders `f64`s with shortest-roundtrip
//!   formatting, so a reloaded bundle reproduces *bit-identical*
//!   detections (pinned by `tests/bundle_roundtrip.rs`).
//! - [`ArtifactStore`] persists bundles under keys derived from the
//!   training inputs (system + scale + seed + configs), so `repro`,
//!   `perfbench`, the CLI and the examples transparently reuse trained
//!   models across process runs instead of retraining on every boot.
//! - [`SessionSnapshot`] persists one *serving session*'s state — the
//!   streaming detector's voting history and event machine plus the
//!   serving-level degraded-mode state — behind the same checksummed,
//!   schema-versioned envelope discipline, so fleet sessions can
//!   migrate between shards and survive process restart bit-identically.
//!
//! Corrupted, truncated, version-skewed or wrong-topology artifacts all
//! surface as typed [`ModelError`]s — never a panic, and never a silently
//! wrong detector.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bundle;
mod envelope;
pub mod snapshot;
pub mod store;

pub use bundle::{bundle_key, ModelBundle, ModelError, ReuseStats, SCHEMA_VERSION};
pub use snapshot::{SessionSnapshot, SESSION_SCHEMA_VERSION};
pub use store::{default_store, set_store_policy, ArtifactStore, BuildOutcome, StorePolicy};

/// Convenience result alias for model-bundle operations.
pub type Result<T> = std::result::Result<T, ModelError>;
