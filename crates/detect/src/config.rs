//! Detector configuration.

use crate::error::DetectError;
use crate::Result;
use pmu_sim::MeasurementKind;

/// How the per-node normal-operation ellipses (Eq. 4) are fitted.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EllipseMethod {
    /// Covariance ellipse inflated so every training point lies inside
    /// (fast; the default).
    ScaledCovariance,
    /// Khachiyan's minimum-volume enclosing ellipsoid (tighter; used in
    /// `repro ablations`).
    MinVolume,
}

/// Full configuration of the detector. `Default` reproduces the paper's
/// proposed scheme; the ablation experiments flip individual fields.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Which scalar the subspace model consumes. Angles carry the topology
    /// signature most strongly (default).
    pub kind: MeasurementKind,
    /// Dimension of each learned case subspace (top singular directions
    /// retained; the residual equals the projection onto the complementary
    /// lowest directions of Sec. IV-A — see `subspaces` module docs).
    pub subspace_dim: usize,
    /// Dimension of the normal-operation subspace `S⁰`. The normal
    /// load-variation manifold grows with system size (independent OU
    /// demand per bus), so `None` picks `max(subspace_dim, N/6)` clamped
    /// to half the training-window length.
    pub normal_dim: Option<usize>,
    /// Ellipse fitting method.
    pub ellipse: EllipseMethod,
    /// Safety margin multiplying the fitted ellipse radius; > 1 guards the
    /// capability statistics against noise.
    pub ellipse_margin: f64,
    /// Capability threshold τ realizing the "p ≈ 1" membership rule of
    /// Eq. (8).
    pub capability_threshold: f64,
    /// Minimum detection-group size; groups are topped up with the
    /// highest-capability observed nodes when selection and missing data
    /// leave fewer members.
    pub min_group_size: usize,
    /// Fraction of detection-group members chosen by capability learning
    /// (Eq. 8) versus naive orthogonal loadings — the x-axis of Fig. 4.
    /// `1.0` is the proposed scheme.
    pub capability_fraction: f64,
    /// Number of PDC clusters the PMU network is partitioned into.
    pub n_clusters: usize,
    /// Quantile of normalized normal-training residuals used for the
    /// outage/normal decision threshold.
    pub normal_quantile: f64,
    /// Multiplier on the learned threshold (guards against optimistic
    /// training residuals).
    pub threshold_margin: f64,
    /// Proximity-rule expansion: a node joins the candidate prefix only
    /// while its scaled proximity stays within this factor of the best.
    pub prefix_ratio: f64,
    /// Edge filter: a candidate line survives only if its score (sum of
    /// endpoint proximities) is within this factor of the best line.
    pub edge_ratio: f64,
    /// Apply the Eq. (11) scaling (`false` only in `repro ablations`).
    pub scale_proximities: bool,
    /// Ratio test backing the threshold decision: a sample is also flagged
    /// as an outage when the best outage-subspace proximity undercuts the
    /// normal proximity by this factor (catches mild outages whose `S⁰`
    /// residual stays under the threshold).
    pub decision_ratio: f64,
    /// Candidate shortlist size for stage-2 node ranking: rank only the
    /// `shortlist_k` nodes with the best stage-1 case-residual proxies
    /// (plus capability-guarded nodes), falling back to the exhaustive
    /// ranking when the shortlist margin is ambiguous. `0` disables the
    /// shortlist (always exhaustive).
    pub shortlist_k: usize,
    /// Decisiveness margin for the shortlist: the worst shortlisted exact
    /// score must exceed the proximity-rule band limit by this factor,
    /// otherwise the detector falls back to the exhaustive ranking.
    pub shortlist_margin: f64,
    /// Force full Jacobi SVDs during training instead of the truncated
    /// randomized path. The default (`false`) is ~20× faster on large
    /// systems; the exact path is kept for the rsvd-vs-full parity suite
    /// and as an escape hatch.
    pub exact_svd: bool,
    /// Run the bad-data screen on outage verdicts: a largest-normalized-
    /// residual test against `S⁰` flags suspect observed channels, which
    /// are then masked out and the sample re-scored (one extra cache-keyed
    /// matmul group per excision). Clean samples — where no channel fires
    /// — are bit-identical to the screen-off path.
    pub robust_screen: bool,
    /// LNR firing threshold: the best leverage-normalized residual must
    /// exceed this multiple of the robust scale (RMS of the remaining
    /// normalized residuals) before the channel is excised. Must be ≥ 1
    /// when the screen is on; larger is more conservative.
    pub robust_threshold: f64,
    /// Maximum number of peel-off iterations (channels excised per
    /// sample) before the screen gives up and keeps the current verdict.
    pub robust_budget: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            kind: MeasurementKind::Angle,
            subspace_dim: 3,
            normal_dim: None,
            ellipse: EllipseMethod::ScaledCovariance,
            ellipse_margin: 1.05,
            capability_threshold: 0.5,
            min_group_size: 8,
            capability_fraction: 1.0,
            n_clusters: 3,
            normal_quantile: 0.99,
            threshold_margin: 1.15,
            prefix_ratio: 100.0,
            edge_ratio: 1.3,
            scale_proximities: true,
            decision_ratio: 0.75,
            shortlist_k: 0,
            shortlist_margin: 4.0,
            exact_svd: false,
            robust_screen: true,
            robust_threshold: 4.0,
            robust_budget: 3,
        }
    }
}

impl DetectorConfig {
    /// Validate internal consistency.
    ///
    /// # Errors
    /// Returns [`DetectError::InvalidConfig`] on out-of-range fields.
    pub fn validate(&self) -> Result<()> {
        if self.subspace_dim == 0 {
            return Err(DetectError::InvalidConfig("subspace_dim must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.capability_fraction) {
            return Err(DetectError::InvalidConfig(
                "capability_fraction must be in [0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.capability_threshold) {
            return Err(DetectError::InvalidConfig(
                "capability_threshold must be in [0, 1]".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.normal_quantile) {
            return Err(DetectError::InvalidConfig("normal_quantile must be in [0, 1)".into()));
        }
        if self.threshold_margin < 1.0 || self.prefix_ratio < 1.0 || self.edge_ratio < 1.0 {
            return Err(DetectError::InvalidConfig(
                "margins and ratios must be >= 1".into(),
            ));
        }
        if self.ellipse_margin < 1.0 {
            return Err(DetectError::InvalidConfig("ellipse_margin must be >= 1".into()));
        }
        if self.n_clusters == 0 {
            return Err(DetectError::InvalidConfig("n_clusters must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.decision_ratio) {
            return Err(DetectError::InvalidConfig("decision_ratio must be in [0, 1]".into()));
        }
        if self.shortlist_k > 0 && self.shortlist_margin < 1.0 {
            return Err(DetectError::InvalidConfig(
                "shortlist_margin must be >= 1 when the shortlist is on".into(),
            ));
        }
        if self.robust_screen && self.robust_threshold < 1.0 {
            return Err(DetectError::InvalidConfig(
                "robust_threshold must be >= 1 when the screen is on".into(),
            ));
        }
        if self.robust_screen && self.robust_budget == 0 {
            return Err(DetectError::InvalidConfig(
                "robust_budget must be > 0 when the screen is on".into(),
            ));
        }
        if self.min_group_size <= self.subspace_dim {
            return Err(DetectError::InvalidConfig(format!(
                "min_group_size ({}) must exceed subspace_dim ({})",
                self.min_group_size, self.subspace_dim
            )));
        }
        Ok(())
    }

    /// The naive-groups ablation point (x = 0 in Fig. 4).
    pub fn naive_groups(mut self) -> Self {
        self.capability_fraction = 0.0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        DetectorConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_fields() {
        let bad = DetectorConfig { subspace_dim: 0, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig { capability_fraction: 1.5, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig { capability_threshold: -0.1, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig { normal_quantile: 1.0, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig { threshold_margin: 0.5, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig { ellipse_margin: 0.9, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig { n_clusters: 0, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig {
            min_group_size: 5,
            subspace_dim: 5,
            ..DetectorConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig {
            shortlist_k: 8,
            shortlist_margin: 0.5,
            ..DetectorConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig { robust_threshold: 0.5, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = DetectorConfig { robust_budget: 0, ..DetectorConfig::default() };
        assert!(bad.validate().is_err());
        // Off-screen configs do not police the robust knobs.
        let off = DetectorConfig {
            robust_screen: false,
            robust_threshold: 0.0,
            robust_budget: 0,
            ..DetectorConfig::default()
        };
        off.validate().unwrap();
    }

    #[test]
    fn naive_groups_zeroes_fraction() {
        let cfg = DetectorConfig::default().naive_groups();
        assert_eq!(cfg.capability_fraction, 0.0);
        cfg.validate().unwrap();
    }
}
