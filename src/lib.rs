//! # pmu-outage
//!
//! A complete Rust implementation of **“Robust Power Line Outage Detection
//! with Unreliable Phasor Measurements”** (Cordova-Garcia & Wang, ICDE
//! 2017): a data-driven power-line outage detector that keeps working when
//! PMU measurements go missing, together with every substrate the paper
//! depends on — dense numerics, grid modelling, AC/DC power flow, PMU
//! measurement simulation, a multinomial-logistic-regression baseline, and
//! the full experiment harness reproducing the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use pmu_outage::prelude::*;
//!
//! // 1. Pick a grid and synthesize PMU training data (normal operation +
//! //    one window per valid single-line outage).
//! let net = ieee14().unwrap();
//! let gen = GenConfig { train_len: 16, test_len: 4, ..GenConfig::default() };
//! let data = generate_dataset(&net, &gen).unwrap();
//!
//! // 2. Train the subspace detector.
//! let detector = train_default(&data).unwrap();
//!
//! // 3. Feed it a live sample — here a test sample of a real outage with
//! //    the outage-local PMUs dark.
//! let case = &data.cases[0];
//! let mask = outage_endpoints_mask(net.n_buses(), case.endpoints);
//! let sample = case.test.sample(0).masked(&mask);
//! let verdict = detector.detect(&sample).unwrap();
//! assert!(verdict.outage);
//! ```
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`numerics`] | `pmu-numerics` | matrices, SVD, LU, QR, eigen, subspaces |
//! | [`grid`] | `pmu-grid` | buses/branches, Y-bus, IEEE cases, PDC clusters |
//! | [`flow`] | `pmu-flow` | Newton–Raphson AC and DC power flow |
//! | [`sim`] | `pmu-sim` | OU loads, noise, scenarios, missing data, reliability |
//! | [`detect`] | `pmu-detect` | the paper's subspace detector |
//! | [`baseline`] | `pmu-baseline` | the MLR comparison methodology |
//! | [`model`] | `pmu-model` | versioned model bundles + on-disk artifact store |
//! | [`serve`] | `pmu-serve` | serving fleet: sharded feed sessions, batched detection |
//! | [`eval`] | `pmu-eval` | IA/FA metrics and per-figure experiment runners |
//! | [`obs`] | `pmu-obs` | tracing spans, counters, histograms |

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use pmu_baseline as baseline;
pub use pmu_detect as detect;
pub use pmu_eval as eval;
pub use pmu_flow as flow;
pub use pmu_grid as grid;
pub use pmu_model as model;
pub use pmu_numerics as numerics;
pub use pmu_obs as obs;
pub use pmu_serve as serve;
pub use pmu_sim as sim;

/// The most common imports for using the library.
pub mod prelude {
    pub use pmu_baseline::{MlrConfig, MlrDetector};
    pub use pmu_detect::detector::{train_default, Detection};
    pub use pmu_detect::{Detector, DetectorConfig};
    pub use pmu_eval::metrics::{sample_fa, sample_ia, Metrics};
    pub use pmu_flow::{solve_ac, solve_dc, AcConfig};
    pub use pmu_grid::cases::{by_name, ieee118, ieee14, ieee30, ieee57};
    pub use pmu_grid::cluster::partition_clusters;
    pub use pmu_grid::Network;
    pub use pmu_model::{ArtifactStore, ModelBundle};
    pub use pmu_serve::{EngineConfig, FeedKey, FeedMode, Fleet, FleetConfig, ServeError};
    pub use pmu_sim::missing::{cluster_mask, outage_endpoints_mask};
    pub use pmu_sim::{
        generate_dataset, Dataset, FaultKind, FaultSchedule, GenConfig, Mask,
        MeasurementKind, MissingPattern, PhasorSample,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let net = ieee14().unwrap();
        assert_eq!(net.n_buses(), 14);
        let sol = solve_ac(&net, &AcConfig::default()).unwrap();
        assert!(sol.max_mismatch < 1e-8);
        let clusters = partition_clusters(&net, 3).unwrap();
        assert_eq!(clusters.n_clusters(), 3);
    }
}
