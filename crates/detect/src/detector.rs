//! The end-to-end detector — Sec. IV-C of the paper.
//!
//! Training learns, in order: PDC clusters, case/node subspaces (Eq. 3),
//! per-node ellipses (Eq. 4), detection capabilities (Eq. 5–7), detection
//! groups (Eq. 8), and a normal-operation decision threshold from training
//! residuals. Detection on a (possibly incomplete) sample then:
//!
//! 1. evaluates the proximity of the observed data to `S⁰` and to the
//!    best-matching outage subspace — a sample is *normal* when its `S⁰`
//!    residual stays under the learned threshold and no outage subspace
//!    explains the data decisively better (this is what lets the scheme
//!    tell data problems apart from physical failures);
//! 2. per node *i*, selects the detection group per Eq. (10) (in-cluster
//!    when the node's cluster is fully observed, out-of-cluster
//!    otherwise), computes proximities to `S_i^∪`, `S_i^∩` and `S⁰`
//!    restricted to the group (Eq. 9), and scales them per Eq. (11).
//!    The proximity to the union `S_i^∪ = ⋃_k S^{\e_ik}` is the minimum
//!    of the per-member proximities — the distance to a union of sets is
//!    the minimum of the member distances;
//! 3. ranks nodes by scaled proximity, extends the best node into a
//!    connected *proximity-rule* prefix, and emits the candidate line set
//!    `F̂` by scoring each in-prefix line's own outage subspace.

// Indexed loops are the clearest expression of the dense numerical
// kernels in this module.
#![allow(clippy::needless_range_loop)]

use crate::capability::{fit_node_ellipses, learn_capabilities, CapabilityMatrix};
use crate::config::DetectorConfig;
use crate::error::DetectError;
use crate::groups::{build_groups, DetectionGroups};
use crate::proximity::{proximity, proximity_fast};
use crate::scoring::{NodeScorer, NodeScorers, RestrictedBank, ScoringCache};
use crate::subspaces::{learn_subspaces_reusing, LearnedSubspaces};
use crate::Result;
use pmu_grid::cluster::{partition_clusters, Clustering};
use pmu_grid::Network;
use pmu_numerics::stats::quantile;
use pmu_numerics::{par, Matrix, Vector};
use pmu_sim::dataset::Dataset;
use pmu_sim::{PhasorSample, PhasorWindow};
use std::collections::HashMap;

/// Floor protecting the Eq. (11) division.
const PROX_EPS: f64 = 1e-18;

/// Leverage floor for the bad-data screen: a channel whose leverage
/// `h_i` approaches 1 is (near-)perfectly explained by `S⁰` alone and its
/// residual carries no information, so `1 - h_i` is clamped here before
/// normalizing.
const MIN_LEVERAGE_GAP: f64 = 0.05;

/// Ascending node ranking plus the detection group each node was scored
/// with (indexed by node).
type NodeRanking = (Vec<(usize, f64)>, Vec<Vec<usize>>);

/// The result of running the detector on one sample.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// `true` when the sample is classified as containing an outage.
    pub outage: bool,
    /// Branch indices of the identified outaged lines (`F̂`); empty for a
    /// normal classification.
    pub lines: Vec<usize>,
    /// Nodes ranked by scaled proximity, ascending (most suspicious
    /// first); only meaningful when `outage`.
    pub node_ranking: Vec<(usize, f64)>,
    /// The `S⁰` residual of the observed data (per residual dimension).
    pub normal_residual: f64,
    /// The best per-case outage-subspace residual of the observed data.
    pub best_case_residual: f64,
    /// The decision threshold the `S⁰` residual was compared against.
    pub threshold: f64,
    /// Observed channels the bad-data screen flagged and excised (in
    /// peel-off order); the verdict above was computed with these channels
    /// masked out. Empty when the screen is off or nothing fired.
    pub suspect_nodes: Vec<usize>,
}

/// A trained outage detector.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: DetectorConfig,
    n: usize,
    /// Branch index of each learned outage case (aligned with the learned
    /// per-case subspaces).
    case_branch: Vec<usize>,
    /// Endpoints of each learned case.
    case_endpoints: Vec<(usize, usize)>,
    /// Cases incident to each node (the paper's `F_i`).
    incident_cases: Vec<Vec<usize>>,
    /// Bus adjacency over in-service lines.
    adjacency: Vec<Vec<usize>>,
    clustering: Clustering,
    subspaces: LearnedSubspaces,
    capabilities: CapabilityMatrix,
    groups: DetectionGroups,
    /// Hard threshold: `S⁰` residual above this is an outage outright.
    threshold: f64,
    /// Soft threshold (the largest calibration residual): the ratio test
    /// against the best outage subspace only applies above this floor, so
    /// noise-level residual fluctuations can never trip it.
    threshold_soft: f64,
    /// Calibrated ratio cut for the ratio test (≤ `cfg.decision_ratio`):
    /// on held-out normal samples with *light* random masks, the best
    /// outage subspace never undercut `S⁰` by more than this factor.
    ratio_cut: f64,
    /// As `ratio_cut`, calibrated against *heavy* masks (a dark PDC
    /// cluster); applied when a large share of the sample is missing.
    ratio_cut_heavy: f64,
    /// Packed stage-1 scorer for the full-observation mask: every learned
    /// subspace row-restricted, clamped, and concatenated into one
    /// projector tensor at training time (ships inside the model bundle).
    scorer_full: RestrictedBank,
    /// Capability-ranked detector order per node, precomputed so group
    /// top-up needs no per-call sort of the capability matrix.
    capability_order: Vec<Vec<usize>>,
}

impl Detector {
    /// Train a detector on a dataset.
    ///
    /// # Errors
    /// Returns configuration and training-data validation errors, and
    /// propagates numerical failures from the learning stages.
    pub fn train(data: &Dataset, cfg: &DetectorConfig) -> Result<Self> {
        Self::train_reusing(data, cfg, &[])
    }

    /// [`Detector::train`] with warm-started per-case subspaces:
    /// `reuse[ci]`, when `Some`, replaces the decomposition of case
    /// `ci`'s training window. Everything downstream — node
    /// unions/intersections, ellipses, capabilities, groups, calibration,
    /// the packed scorer bank — is recomputed from scratch, so provided
    /// the reused bases are exactly what training would compute (the
    /// caller's contract; see
    /// [`learn_subspaces_reusing`](crate::subspaces::learn_subspaces_reusing)),
    /// the result is bit-identical to a cold [`Detector::train`].
    ///
    /// # Errors
    /// As [`Detector::train`].
    pub fn train_reusing(
        data: &Dataset,
        cfg: &DetectorConfig,
        reuse: &[Option<&pmu_numerics::Subspace>],
    ) -> Result<Self> {
        cfg.validate()?;
        let net = &data.network;
        let n = net.n_buses();
        let mut trace_span = pmu_obs::span("detect.train")
            .with("system", net.name.as_str())
            .with("buses", n)
            .with("cases", data.cases.len());
        if data.normal_train.n_nodes() != n {
            return Err(DetectError::InvalidTrainingData(
                "normal window node count differs from network".into(),
            ));
        }
        let n_clusters = cfg.n_clusters.min(n);
        let clustering = partition_clusters(net, n_clusters)
            .map_err(|e| DetectError::InvalidTrainingData(e.to_string()))?;
        let mut subspaces = learn_subspaces_reusing(data, cfg, reuse)?;
        // Hold out the tail of the normal window for threshold calibration
        // and refit S⁰ on the head only, so calibration sees honest
        // residuals (the OU load process drifts over the window).
        let t_total = data.normal_train.len();
        let holdout_start = (t_total * 2 / 3).clamp(1, t_total.saturating_sub(2));
        if t_total >= 6 {
            let head: Vec<usize> = (0..holdout_start).collect();
            let head_m = data.normal_train.matrix(cfg.kind).select_columns(&head);
            let t = head.len();
            let normal_dim = cfg
                .normal_dim
                .unwrap_or_else(|| cfg.subspace_dim.max(n / 6))
                .min((t / 2).max(cfg.subspace_dim));
            subspaces.normal = crate::subspaces::case_subspace(&head_m, normal_dim)?;
        }
        let ellipses = fit_node_ellipses(&data.normal_train, cfg)?;
        let capabilities = learn_capabilities(data, &ellipses, cfg)?;

        // PCA loading matrix for the naive-group ablation: normal + all
        // outage training windows concatenated. hcat_all preallocates the
        // full width once; folding pairwise hcat here is O(cases²) copies.
        let mut parts: Vec<&Matrix> = Vec::with_capacity(1 + data.cases.len());
        parts.push(data.normal_train.matrix(cfg.kind));
        for case in &data.cases {
            parts.push(case.train.matrix(cfg.kind));
        }
        let concat = Matrix::hcat_all(&parts)?;
        let groups = build_groups(&clustering, &capabilities, &concat, cfg)?;

        let calib = calibrate(&subspaces, &data.normal_train, holdout_start, cfg)?;
        let (threshold, threshold_soft, ratio_cut, ratio_cut_heavy) =
            (calib.hard, calib.soft, calib.ratio_cut, calib.ratio_cut_heavy);

        let case_branch: Vec<usize> = data.cases.iter().map(|c| c.branch).collect();
        let case_endpoints: Vec<(usize, usize)> =
            data.cases.iter().map(|c| c.endpoints).collect();
        let mut incident_cases: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ci, &(a, b)) in case_endpoints.iter().enumerate() {
            incident_cases[a].push(ci);
            incident_cases[b].push(ci);
        }
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for br in net.branches().iter().filter(|b| b.status) {
            adjacency[br.from].push(br.to);
            adjacency[br.to].push(br.from);
        }

        let full: Vec<usize> = (0..n).collect();
        let scorer_full = RestrictedBank::build(&subspaces, &full)?;
        let capability_order: Vec<Vec<usize>> =
            (0..n).map(|i| capabilities.ranked_detectors(i)).collect();

        trace_span.record("threshold", threshold);
        Ok(Detector {
            cfg: cfg.clone(),
            n,
            case_branch,
            case_endpoints,
            incident_cases,
            adjacency,
            clustering,
            subspaces,
            capabilities,
            groups,
            threshold,
            threshold_soft,
            ratio_cut,
            ratio_cut_heavy,
            scorer_full,
            capability_order,
        })
    }

    /// Number of monitored nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// The learned normal/outage decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The calibration floor: the largest `S⁰` residual observed on
    /// held-out normal samples (complete and masked). `threshold()` is
    /// this value times the configured margin.
    pub fn threshold_soft(&self) -> f64 {
        self.threshold_soft
    }

    /// The calibrated ratio cut used by the best-case/normal ratio test.
    pub fn ratio_cut(&self) -> f64 {
        self.ratio_cut
    }

    /// The learned capability matrix (exposed for analysis and benches).
    pub fn capabilities(&self) -> &CapabilityMatrix {
        &self.capabilities
    }

    /// The learned detection groups (exposed for analysis and benches).
    pub fn groups(&self) -> &DetectionGroups {
        &self.groups
    }

    /// The PDC clustering in effect.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The learned subspaces (exposed for analysis and benches).
    pub fn subspaces(&self) -> &LearnedSubspaces {
        &self.subspaces
    }

    /// This detector with a different stage-2 shortlist setting.
    ///
    /// The shortlist is a pure scoring-time strategy — no trained state
    /// depends on it — so A/B comparisons (parity suite, benches) derive
    /// both variants from one training run. `k = 0` disables the
    /// shortlist (always exhaustive ranking).
    #[must_use]
    pub fn with_shortlist(mut self, k: usize, margin: f64) -> Self {
        self.cfg.shortlist_k = k;
        self.cfg.shortlist_margin = margin;
        self
    }

    /// This detector with the bad-data screen toggled.
    ///
    /// Like the shortlist, the screen is a pure scoring-time strategy —
    /// no trained state depends on it — so the overhead bench and the
    /// corruption-sweep evaluation derive both variants from one
    /// training run.
    #[must_use]
    pub fn with_robust_screen(mut self, on: bool) -> Self {
        self.cfg.robust_screen = on;
        self
    }

    /// Classify one (possibly incomplete) sample.
    ///
    /// Convenience wrapper over [`Detector::detect_with_cache`] with a
    /// throwaway cache; callers scoring streams or batches should hold a
    /// [`ScoringCache`] so per-mask restrictions are paid once.
    ///
    /// # Errors
    /// Returns [`DetectError::SampleMismatch`] for a wrong-sized sample,
    /// [`DetectError::NonFinite`] when any observed entry is NaN or
    /// infinite, and [`DetectError::InsufficientData`] when fewer than
    /// `subspace_dim + 2` measurements are observed.
    pub fn detect(&self, sample: &PhasorSample) -> Result<Detection> {
        self.detect_with_cache(sample, &ScoringCache::new())
    }

    /// Classify one sample, memoizing mask restrictions in `cache`.
    ///
    /// Stage 1 scores the observed sub-vector against every learned
    /// subspace through the packed projector bank (the precomputed
    /// full-observation bank when nothing is missing, a cached per-mask
    /// bank otherwise); stage 2 ranks through the cached per-mask node
    /// scorers. Output is bit-identical to
    /// [`Detector::detect_reference`] when the shortlist is off.
    ///
    /// # Errors
    /// As [`Detector::detect`].
    pub fn detect_with_cache(
        &self,
        sample: &PhasorSample,
        cache: &ScoringCache,
    ) -> Result<Detection> {
        self.detect_budget(sample, cache, self.cfg.robust_budget)
    }

    /// [`Detector::detect_with_cache`] with an explicit peel-off budget —
    /// the bad-data screen re-enters here on the excised sample with
    /// `budget - 1`, so the recursion is bounded by `robust_budget`.
    fn detect_budget(
        &self,
        sample: &PhasorSample,
        cache: &ScoringCache,
        budget: usize,
    ) -> Result<Detection> {
        let observed = self.guard(sample)?;
        let x_obs = Vector::from(
            sample
                .values_for(&observed, self.cfg.kind)
                .expect("observed nodes are unmasked"),
        );
        // Stage timing clocks are only read while metrics are on, so the
        // disabled path stays one load + branch per stage.
        let t1 = pmu_obs::metrics_enabled().then(std::time::Instant::now);
        let prox = if sample.mask().n_missing() == 0 {
            self.scorer_full.proximities_one(&x_obs)?
        } else {
            let bank =
                cache.bank_for(&self.subspaces, sample.mask().fingerprint(), &observed)?;
            bank.proximities_one(&x_obs)?
        };
        if let Some(t) = t1 {
            pmu_obs::histogram!("detect.stage1_us").observe(t.elapsed().as_secs_f64() * 1e6);
        }
        self.finish_budget(sample, &observed, &prox, cache, budget)
    }

    /// Classify a batch of samples through the packed stage-1 path.
    ///
    /// Samples are grouped by missing-mask fingerprint; each group's
    /// stage-1 residuals against every learned subspace come from **one**
    /// pass over the mask's projector bank, and the
    /// per-sample ranking/localization tail fans out over the worker pool.
    /// Per-sample results are returned in input order and are bit-identical
    /// to calling [`Detector::detect_with_cache`] sample by sample.
    pub fn detect_batch_with_cache(
        &self,
        samples: &[PhasorSample],
        cache: &ScoringCache,
    ) -> Vec<Result<Detection>> {
        let mut out: Vec<Option<Result<Detection>>> = samples.iter().map(|_| None).collect();
        // Group scorable samples by mask fingerprint, input order kept
        // within each group.
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            match self.guard(s) {
                Ok(_) => {
                    let fp = s.mask().fingerprint();
                    let slot = groups.entry(fp).or_default();
                    if slot.is_empty() {
                        order.push(fp);
                    }
                    slot.push(i);
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        for fp in order {
            let idxs = &groups[&fp];
            let observed = samples[idxs[0]].mask().observed();
            let t1 = pmu_obs::metrics_enabled().then(std::time::Instant::now);
            let stage1 = (|| -> Result<Matrix> {
                let holder;
                let bank: &RestrictedBank = if samples[idxs[0]].mask().n_missing() == 0 {
                    &self.scorer_full
                } else {
                    holder = cache.bank_for(&self.subspaces, fp, &observed)?;
                    &holder
                };
                let mut x = Matrix::zeros(observed.len(), idxs.len());
                for (c, &i) in idxs.iter().enumerate() {
                    let vals = samples[i]
                        .values_for(&observed, self.cfg.kind)
                        .expect("observed nodes are unmasked");
                    for (r, v) in vals.into_iter().enumerate() {
                        x[(r, c)] = v;
                    }
                }
                bank.proximities(&x)
            })();
            if let Some(t) = t1 {
                // One packed matmul scored the whole group: a
                // count-weighted observation of the per-sample share
                // keeps the stage-1 quantiles per-sample like the
                // scalar path's.
                pmu_obs::histogram!("detect.stage1_us").observe_n(
                    t.elapsed().as_secs_f64() * 1e6 / idxs.len() as f64,
                    idxs.len() as u64,
                );
            }
            match stage1 {
                Ok(prox) => {
                    let cols: Vec<(usize, Vec<f64>)> = idxs
                        .iter()
                        .enumerate()
                        .map(|(c, &i)| {
                            (i, (0..prox.rows()).map(|b| prox[(b, c)]).collect())
                        })
                        .collect();
                    let results = par::par_map(&cols, |(i, col)| {
                        self.finish(&samples[*i], &observed, col, cache)
                    });
                    for ((i, _), r) in cols.iter().zip(results) {
                        out[*i] = Some(r);
                    }
                }
                // Stage-1 failures past the guard are exotic (numerical
                // breakdown); re-run those samples through the scalar
                // entry point so each reports its own error.
                Err(_) => {
                    for &i in idxs {
                        out[i] = Some(self.detect_with_cache(&samples[i], cache));
                    }
                }
            }
        }
        out.into_iter().map(|r| r.expect("every sample classified")).collect()
    }

    /// The retained per-line reference scorer: classify one sample with
    /// fresh row-restriction and re-orthonormalization per proximity call,
    /// no packing, no caching, no shortlist. Exists as the ground truth
    /// the packed path is pinned against (parity suite) and for A/B
    /// benchmarks; production callers should use [`Detector::detect`].
    ///
    /// # Errors
    /// As [`Detector::detect`].
    pub fn detect_reference(&self, sample: &PhasorSample) -> Result<Detection> {
        self.detect_reference_budget(sample, self.cfg.robust_budget)
    }

    /// [`Detector::detect_reference`] with an explicit peel-off budget;
    /// the bad-data screen recurses through the reference machinery so
    /// packed/reference parity holds with the screen on.
    fn detect_reference_budget(
        &self,
        sample: &PhasorSample,
        budget: usize,
    ) -> Result<Detection> {
        let observed = self.guard(sample)?;
        let needed = self.cfg.subspace_dim + 2;

        // --- 1. Normal / outage decision over all observed data. ---
        let x_obs = Vector::from(
            sample
                .values_for(&observed, self.cfg.kind)
                .expect("observed nodes are unmasked"),
        );
        let normal_residual = proximity(&self.subspaces.normal, &observed, &x_obs)?;
        let mut best_case_residual = f64::INFINITY;
        for s in &self.subspaces.per_case {
            let r = proximity(s, &observed, &x_obs)?;
            if r < best_case_residual {
                best_case_residual = r;
            }
        }
        if let Some(d) =
            self.decide_normal(sample, normal_residual, best_case_residual)
        {
            return Ok(d);
        }

        // Outage verdict: run the bad-data screen before ranking — an
        // excision discards the ranking anyway. Fresh restriction here
        // (the reference path caches nothing by design); same floats as
        // the cached construction.
        if self.screen_applies(budget, observed.len(), best_case_residual) {
            let (capped, _) = crate::proximity::restricted_capped(
                &self.subspaces.normal,
                &observed,
            )?;
            if let Some(node) = self.lnr_suspect(capped.basis(), &observed, &x_obs) {
                match self.detect_reference_budget(&self.excised(sample, node), budget - 1)
                {
                    // Keep the excision only when it made the sample well
                    // explained (normal, or inside a learned case
                    // subspace). A structural anomaly — e.g. an unmodeled
                    // multi-line outage — stays far from everything no
                    // matter which channel is removed, and must keep its
                    // un-excised verdict.
                    Ok(mut d) if !d.outage || d.best_case_residual <= d.threshold => {
                        d.suspect_nodes.insert(0, node);
                        return Ok(d);
                    }
                    Ok(_) => {}
                    // Excision starved the sample: keep the un-excised
                    // verdict below rather than fail a scorable sample.
                    Err(DetectError::InsufficientData { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        }

        // --- 2. Per-node scaled proximities (Eq. 9–11). ---
        let mut scored: Vec<(usize, f64)> = Vec::with_capacity(self.n);
        let mut groups_used: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for node in 0..self.n {
            if self.incident_cases[node].is_empty() {
                continue; // No learned outage behaviour for this node.
            }
            let d = self.group_for(node, sample);
            if d.len() < 2 {
                continue;
            }
            let x_d = Vector::from(
                sample.values_for(&d, self.cfg.kind).expect("group members observed"),
            );
            // prox to S_i^∪ = min over the member case subspaces. Stage 2
            // ranks through the shared Gram-solve scorer (both detection
            // paths use the same formula, so packed parity holds without
            // forcing the slow QR construction on the hot path).
            let mut ru = f64::INFINITY;
            for &ci in &self.incident_cases[node] {
                let r = proximity_fast(&self.subspaces.per_case[ci], &d, &x_d)?;
                if r < ru {
                    ru = r;
                }
            }
            let score = if self.cfg.scale_proximities {
                let rn = proximity_fast(&self.subspaces.intersection[node], &d, &x_d)?;
                let r0 = proximity_fast(&self.subspaces.normal, &d, &x_d)?;
                ru * rn / r0.max(PROX_EPS)
            } else {
                ru
            };
            scored.push((node, score));
            groups_used[node] = d;
        }
        if scored.is_empty() {
            return Err(DetectError::InsufficientData { observed: observed.len(), needed });
        }
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));

        // --- 3. Proximity rule: connected prefix of the ranking. ---
        let loc_group = self.localization_group(&scored, &groups_used, &observed);
        let lines = self.localize(&scored, &loc_group, sample)?;

        Ok(Detection {
            outage: true,
            lines,
            node_ranking: scored,
            normal_residual,
            best_case_residual,
            threshold: self.threshold,
            suspect_nodes: Vec::new(),
        })
    }

    /// Structural validation shared by every entry point: size, observed
    /// finiteness, minimum observability. Returns the observed-node list.
    fn guard(&self, sample: &PhasorSample) -> Result<Vec<usize>> {
        if sample.n_nodes() != self.n {
            return Err(DetectError::SampleMismatch { expected: self.n, got: sample.n_nodes() });
        }
        let observed = sample.mask().observed();
        // The sample contract says missing data is masked, never NaN; a
        // non-finite *observed* entry is corruption and would poison every
        // residual downstream, so reject before any proximity math runs.
        for &node in &observed {
            if !sample.phasor_unchecked(node).is_finite() {
                return Err(DetectError::NonFinite { node });
            }
        }
        let needed = self.cfg.subspace_dim + 2;
        if observed.len() < needed {
            return Err(DetectError::InsufficientData { observed: observed.len(), needed });
        }
        Ok(observed)
    }

    /// The stage-1 normal/outage decision: `Some(detection)` when the
    /// sample is classified normal, `None` when stages 2–3 must run.
    fn decide_normal(
        &self,
        sample: &PhasorSample,
        normal_residual: f64,
        best_case_residual: f64,
    ) -> Option<Detection> {
        let over_threshold = normal_residual > self.threshold;
        // The ratio cuts are calibrated so that *no* held-out normal sample
        // (complete or masked) fires them, so they need no residual floor.
        // Heavy missing data gets its own (stricter) cut.
        let cut = if sample.mask().n_missing() * 6 > self.n {
            self.ratio_cut_heavy
        } else {
            self.ratio_cut
        };
        let ratio_hit = best_case_residual < cut * normal_residual;
        if over_threshold || ratio_hit {
            return None;
        }
        Some(Detection {
            outage: false,
            lines: Vec::new(),
            node_ranking: Vec::new(),
            normal_residual,
            best_case_residual,
            threshold: self.threshold,
            suspect_nodes: Vec::new(),
        })
    }

    /// Whether the bad-data screen should run: configured on, budget
    /// left, enough observed channels that excising one still leaves a
    /// scorable sample (`needed = subspace_dim + 2`, plus one spare so
    /// the robust scale is estimated from more than noise) — and, the
    /// discriminating gate, *no learned case subspace explains the data
    /// either*. A genuine outage lands near its own case subspace
    /// (residual at noise level, under the calibrated threshold), so the
    /// screen never touches it and clean detections stay bit-identical;
    /// a corrupted channel is far from `S⁰` *and* every outage subspace.
    fn screen_applies(
        &self,
        budget: usize,
        n_observed: usize,
        best_case_residual: f64,
    ) -> bool {
        self.cfg.robust_screen
            && budget > 0
            && n_observed > self.cfg.subspace_dim + 3
            && best_case_residual > self.threshold
    }

    /// `sample` with `node` additionally masked out — the excision step
    /// of the peel-off loop.
    fn excised(&self, sample: &PhasorSample, node: usize) -> PhasorSample {
        let mut missing = sample.mask().missing_nodes();
        missing.push(node);
        missing.sort_unstable();
        sample.masked(&pmu_sim::Mask::with_missing(self.n, &missing))
    }

    /// The largest-normalized-residual bad-data test against `S⁰`
    /// (the classic LNR identification step, transplanted from weighted
    /// least squares onto the subspace residual): project the observed
    /// sub-vector onto the capped restricted base `u`, normalize each
    /// channel's residual by its leverage `sqrt(1 - h_i)`, and flag the
    /// largest when it dominates the robust scale — the *median* of the
    /// other normalized residuals, so a second corrupted channel cannot
    /// mask the first the way an RMS scale would — by `robust_threshold`.
    /// A genuine outage spreads its `S⁰` residual over the electrical
    /// neighbourhood (modest ratio); a corrupted channel concentrates it
    /// in one coordinate (huge ratio). Ties break to the lowest node.
    /// Pure math — both detection paths call this with identical inputs,
    /// so parity holds bit for bit.
    fn lnr_suspect(
        &self,
        u: &Matrix,
        observed: &[usize],
        x_obs: &Vector,
    ) -> Option<usize> {
        let m = observed.len();
        let k = u.cols();
        // y = Uᵀ x.
        let mut y = vec![0.0_f64; k];
        for i in 0..m {
            let row = u.row(i);
            let xi = x_obs[i];
            for a in 0..k {
                y[a] += row[a] * xi;
            }
        }
        let mut best_i = 0usize;
        let mut best_nr = 0.0_f64;
        let mut nrs = vec![0.0_f64; m];
        for i in 0..m {
            let row = u.row(i);
            let mut proj = 0.0;
            let mut leverage = 0.0;
            for a in 0..k {
                proj += row[a] * y[a];
                leverage += row[a] * row[a];
            }
            let nr =
                (x_obs[i] - proj).abs() / (1.0 - leverage).max(MIN_LEVERAGE_GAP).sqrt();
            nrs[i] = nr;
            if nr > best_nr {
                best_nr = nr;
                best_i = i;
            }
        }
        // Robust scale: median of the normalized residuals excluding the
        // champion (upper median for even counts — deterministic).
        nrs.swap_remove(best_i);
        nrs.sort_by(|a, b| a.partial_cmp(b).expect("finite residuals"));
        let scale = nrs[nrs.len() / 2];
        (best_nr > self.cfg.robust_threshold * scale).then(|| observed[best_i])
    }

    /// Stages 2–3 of the cached path, starting from the stage-1
    /// proximities (`prox[0]` = `S⁰`, `prox[1 + ci]` = case `ci`,
    /// `prox[1 + n_cases + i]` = node-`i` intersection). Entry point for
    /// the batch path; starts the bad-data screen with a full budget.
    fn finish(
        &self,
        sample: &PhasorSample,
        observed: &[usize],
        prox: &[f64],
        cache: &ScoringCache,
    ) -> Result<Detection> {
        self.finish_budget(sample, observed, prox, cache, self.cfg.robust_budget)
    }

    /// [`Detector::finish`] with the remaining peel-off budget threaded
    /// through.
    fn finish_budget(
        &self,
        sample: &PhasorSample,
        observed: &[usize],
        prox: &[f64],
        cache: &ScoringCache,
        budget: usize,
    ) -> Result<Detection> {
        let n_cases = self.subspaces.per_case.len();
        let normal_residual = prox[0];
        let case_prox = &prox[1..=n_cases];
        let mut best_case_residual = f64::INFINITY;
        for &r in case_prox {
            if r < best_case_residual {
                best_case_residual = r;
            }
        }
        if let Some(d) =
            self.decide_normal(sample, normal_residual, best_case_residual)
        {
            return Ok(d);
        }

        // Outage verdict: bad-data screen before the (soon-to-be-wasted)
        // ranking. The capped `S⁰` restriction is cache-keyed on the mask
        // fingerprint, and the excised re-score below re-enters
        // `detect_budget` under the reduced mask's own fingerprint — one
        // extra cache-keyed matmul group per peel-off iteration.
        if self.screen_applies(budget, observed.len(), best_case_residual) {
            let x_obs = Vector::from(
                sample
                    .values_for(observed, self.cfg.kind)
                    .expect("observed nodes are unmasked"),
            );
            let basis = cache.robust_basis_for(
                &self.subspaces,
                sample.mask().fingerprint(),
                observed,
            )?;
            if let Some(node) = self.lnr_suspect(basis.basis(), observed, &x_obs) {
                match self.detect_budget(&self.excised(sample, node), cache, budget - 1) {
                    // Keep the excision only when it made the sample well
                    // explained (normal, or inside a learned case
                    // subspace). A structural anomaly — e.g. an unmodeled
                    // multi-line outage — stays far from everything no
                    // matter which channel is removed, and must keep its
                    // un-excised verdict.
                    Ok(mut d) if !d.outage || d.best_case_residual <= d.threshold => {
                        pmu_obs::counter!("detect.bad_data_excised").inc();
                        d.suspect_nodes.insert(0, node);
                        return Ok(d);
                    }
                    Ok(_) => {}
                    // Excision starved the sample: keep the un-excised
                    // verdict rather than fail a scorable sample.
                    Err(DetectError::InsufficientData { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        }

        let t2 = pmu_obs::metrics_enabled().then(std::time::Instant::now);
        let (scored, groups_used) = self.rank_nodes(sample, observed, prox, cache)?;
        if let Some(t) = t2 {
            pmu_obs::histogram!("detect.stage2_us").observe(t.elapsed().as_secs_f64() * 1e6);
        }
        if scored.is_empty() {
            let needed = self.cfg.subspace_dim + 2;
            return Err(DetectError::InsufficientData { observed: observed.len(), needed });
        }

        let t3 = pmu_obs::metrics_enabled().then(std::time::Instant::now);
        let loc_group = self.localization_group(&scored, &groups_used, observed);
        let lines = self.localize(&scored, &loc_group, sample)?;
        if let Some(t) = t3 {
            pmu_obs::histogram!("detect.stage3_us").observe(t.elapsed().as_secs_f64() * 1e6);
        }

        Ok(Detection {
            outage: true,
            lines,
            node_ranking: scored,
            normal_residual,
            best_case_residual,
            threshold: self.threshold,
            suspect_nodes: Vec::new(),
        })
    }

    /// Stage-2 node ranking through the per-mask node scorers, with the
    /// optional stage-1 shortlist. Returns the ascending ranking plus each
    /// node's group.
    fn rank_nodes(
        &self,
        sample: &PhasorSample,
        observed: &[usize],
        prox: &[f64],
        cache: &ScoringCache,
    ) -> Result<NodeRanking> {
        let n_cases = self.subspaces.per_case.len();
        let case_prox = &prox[1..=n_cases];
        let scorers = cache
            .node_scorers_for(sample.mask().fingerprint(), || self.build_node_scorers(sample))?;
        let candidates: Vec<usize> =
            (0..self.n).filter(|&i| scorers[i].is_some()).collect();
        let k = self.cfg.shortlist_k;
        let shortlist_on = k > 0 && k < candidates.len();

        // Gather the sample's observed scalar measurements once: detection
        // groups overlap heavily across nodes, and the per-entry angle
        // conversion (atan2) is expensive enough to dominate stage 2 when
        // repeated for every group.
        let mut vals = vec![0.0_f64; self.n];
        for &i in observed {
            vals[i] = sample.value(i, self.cfg.kind).expect("observed node");
        }

        // Exact Eq. (9)–(11) score of one node through its pre-factored
        // scorer — the same floats the reference path computes on the
        // same group.
        let score_one = |node: usize| -> Result<f64> {
            let sc = scorers[node].as_ref().expect("candidate has a scorer");
            let group = sc.group();
            let x_d = Vector::from_fn(group.len(), |j| vals[group[j]]);
            let p = sc.proximities_one(&x_d)?;
            // prox to S_i^∪ = min over the member case subspaces.
            let mut ru = f64::INFINITY;
            for &r in &p[..sc.n_cases()] {
                if r < ru {
                    ru = r;
                }
            }
            Ok(if self.cfg.scale_proximities {
                let rn = p[sc.n_cases()];
                let r0 = p[sc.n_cases() + 1];
                ru * rn / r0.max(PROX_EPS)
            } else {
                ru
            })
        };
        // Shortlist proxy: the Eq. (11) expression evaluated on the *full
        // observed set* — every factor is already paid for by the packed
        // stage-1 bank (cases, intersection, normal blocks). Same units as
        // the exact group-restricted score, so the decisive-margin test
        // below compares like with like.
        let proxy = |node: usize| -> f64 {
            let mut ru = f64::INFINITY;
            for &ci in &self.incident_cases[node] {
                let r = case_prox[ci];
                if r < ru {
                    ru = r;
                }
            }
            if self.cfg.scale_proximities {
                let rn = prox[1 + n_cases + node];
                ru * rn / prox[0].max(PROX_EPS)
            } else {
                ru
            }
        };

        let pick: Vec<usize> = if shortlist_on {
            let mut by_proxy: Vec<(usize, f64)> =
                candidates.iter().map(|&i| (i, proxy(i))).collect();
            by_proxy.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let mut pick: Vec<usize> = by_proxy.iter().take(k).map(|&(i, _)| i).collect();
            // Capability guard: a node no observed sensor can vouch for
            // (Eq. 5–7) has an untrustworthy proxy — never prune it. The
            // flag is mask-only state, precomputed with the scorers.
            for &i in &candidates {
                if pick.contains(&i) {
                    continue;
                }
                if scorers[i].as_ref().expect("candidate").low_capability() {
                    pick.push(i);
                }
            }
            pick.sort_unstable();
            pick
        } else {
            candidates.clone()
        };

        let mut scored: Vec<(usize, f64)> = Vec::with_capacity(pick.len());
        for &node in &pick {
            scored.push((node, score_one(node)?));
        }
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));

        if shortlist_on {
            // A pruned node can threaten the *ranking* only by displacing
            // the top-3 that seeds the localization group and the band
            // anchor. Its proxy is in score units, so compare directly —
            // any candidate whose proxy lands within `shortlist_margin ×`
            // of the third-best exact score gets scored exactly too
            // (partial fallback); the rest cannot plausibly reach the top.
            let third = scored[scored.len().min(3) - 1].1;
            let limit = third.max(PROX_EPS) * self.cfg.shortlist_margin;
            let offenders: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|i| pick.binary_search(i).is_err())
                .filter(|&i| proxy(i) <= limit)
                .collect();
            if !offenders.is_empty() {
                for &node in &offenders {
                    scored.push((node, score_one(node)?));
                }
                scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            }

            // Localization reads the proximity-band connected component of
            // the best node (`localize`), so the scored set must contain
            // exactly the nodes that component can reach. Grow it lazily:
            // walk the grid from the best node, exact-scoring unscored
            // neighbours on demand, continuing through any that land
            // inside the band. A node the walk never reaches cannot enter
            // the exhaustive component either (every path to it crosses an
            // out-of-band node), so its score is irrelevant to `localize`.
            let mut score_of: Vec<Option<f64>> = vec![None; self.n];
            for &(node, s) in &scored {
                score_of[node] = Some(s);
            }
            let band = scored[0].1.max(PROX_EPS) * self.cfg.prefix_ratio;
            let mut in_comp = vec![false; self.n];
            in_comp[scored[0].0] = true;
            let mut frontier = vec![scored[0].0];
            while let Some(u) = frontier.pop() {
                for &v in &self.adjacency[u] {
                    if in_comp[v] || scorers[v].is_none() {
                        continue;
                    }
                    let s = match score_of[v] {
                        Some(s) => s,
                        None => {
                            let s = score_one(v)?;
                            score_of[v] = Some(s);
                            scored.push((v, s));
                            s
                        }
                    };
                    if s <= band {
                        in_comp[v] = true;
                        frontier.push(v);
                    }
                }
            }
            // `localize` widens to the *full* band when no learned case
            // has both endpoints inside the component — rare, but it then
            // needs every node's score, so rescore exhaustively rather
            // than risk a divergent line set.
            if !self.case_endpoints.iter().any(|&(a, b)| in_comp[a] && in_comp[b]) {
                for &node in &candidates {
                    if score_of[node].is_none() {
                        scored.push((node, score_one(node)?));
                    }
                }
            }
            scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            // "Hit" = the shortlist actually pruned exact scoring work;
            // "fallback" = between the top-3 guard, the component walk and
            // the empty-candidate rescue, every candidate got scored
            // anyway (the exhaustive cost, plus the proxy sort).
            if scored.len() < candidates.len() {
                pmu_obs::counter!("detect.shortlist_hits").inc();
            } else {
                pmu_obs::counter!("detect.shortlist_fallbacks").inc();
            }
        }
        // Localization only reads the groups of the top-3 ranked nodes;
        // materializing every scored node's group is pure allocation churn.
        let mut groups_used: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for &(node, _) in scored.iter().take(3) {
            groups_used[node] = scorers[node].as_ref().expect("scored").group().to_vec();
        }
        Ok((scored, groups_used))
    }

    /// Build the per-mask stage-2 scorers: every node's Eq. (10) group and
    /// packed subspace restrictions. Group selection depends only on the
    /// mask, so the result is cached per mask fingerprint.
    fn build_node_scorers(&self, sample: &PhasorSample) -> Result<NodeScorers> {
        let observed = sample.mask().observed();
        let mut out: NodeScorers = Vec::with_capacity(self.n);
        for node in 0..self.n {
            if self.incident_cases[node].is_empty() {
                out.push(None); // No learned outage behaviour for this node.
                continue;
            }
            let d = self.group_for(node, sample);
            if d.len() < 2 {
                out.push(None);
                continue;
            }
            let best_cap = observed
                .iter()
                .map(|&s| self.capabilities.get(node, s))
                .fold(0.0_f64, f64::max);
            out.push(Some(NodeScorer::build(
                &self.subspaces,
                &self.incident_cases[node],
                node,
                d,
                best_cap < self.cfg.capability_threshold,
            )?));
        }
        Ok(out)
    }

    /// The stage-3 coordinate set: union of the top-ranked nodes' groups
    /// plus capability-selected extras.
    ///
    /// Line scoring restricted to the union of the top-ranked nodes'
    /// detection groups: group formation (Fig. 4) and the cluster-aware
    /// alternatives (Eq. 10) carry through to localization quality, while
    /// the union keeps enough coordinates to disambiguate neighbouring
    /// lines.
    fn localization_group(
        &self,
        scored: &[(usize, f64)],
        groups_used: &[Vec<usize>],
        observed: &[usize],
    ) -> Vec<usize> {
        let mut loc_group: Vec<usize> = Vec::new();
        for &(node, _) in scored.iter().take(3) {
            for &k in &groups_used[node] {
                if !loc_group.contains(&k) {
                    loc_group.push(k);
                }
            }
        }
        // "Ideally all nodes with high detection capabilities in D_C
        // should be included in the detection group" (Sec. V-B): add every
        // observed node whose learned capability for the best candidate is
        // above threshold. The naive ablation (fraction = 0) has no
        // capability knowledge and honestly skips this.
        if self.cfg.capability_fraction > 0.0 {
            let best_node = scored[0].0;
            for &k in observed {
                if self.capabilities.get(best_node, k) >= self.cfg.capability_threshold
                    && !loc_group.contains(&k)
                {
                    loc_group.push(k);
                }
            }
        }
        loc_group.sort_unstable();
        loc_group
    }

    /// Eq. (10) group selection for `node` given the sample's mask, with
    /// observed-only filtering and capability-ranked top-up to the minimum
    /// size.
    fn group_for(&self, node: usize, sample: &PhasorSample) -> Vec<usize> {
        let c = self.clustering.cluster_of(node);
        let cluster_dark = sample.mask().any_missing_of(self.clustering.members(c));
        let base = self.groups.select(c, cluster_dark);
        let mut d: Vec<usize> =
            base.iter().copied().filter(|&k| !sample.mask().is_missing(k)).collect();
        if d.len() < self.cfg.min_group_size {
            // Top-up source honours the Fig. 4 ablation: the proposed
            // scheme (fraction > 0) uses learned capabilities — ranked
            // once at training time — the naive scheme falls back to
            // plain node order.
            let plain: Vec<usize>;
            let order: &[usize] = if self.cfg.capability_fraction > 0.0 {
                &self.capability_order[node]
            } else {
                plain = (0..self.n).collect();
                &plain
            };
            for &k in order {
                if d.len() >= self.cfg.min_group_size {
                    break;
                }
                if !sample.mask().is_missing(k) && !d.contains(&k) {
                    d.push(k);
                }
            }
        }
        d.sort_unstable();
        d
    }

    /// Proximity-rule localization: grow a connected prefix from the
    /// best-ranked node, then score each candidate line by its own outage
    /// subspace and keep those within `edge_ratio` of the best. Candidate
    /// scoring runs through the Gram-solve fast path
    /// ([`proximity_fast`]) — the localization group varies per sample
    /// (it follows the ranking), so there is nothing to cache; both the
    /// packed and the reference detection paths share this exact code.
    fn localize(
        &self,
        scored: &[(usize, f64)],
        best_group: &[usize],
        sample: &PhasorSample,
    ) -> Result<Vec<usize>> {
        let (best, best_score) = scored[0];
        let limit = (best_score.max(PROX_EPS)) * self.cfg.prefix_ratio;
        let in_band: Vec<usize> = scored
            .iter()
            .filter(|&&(_, s)| s <= limit)
            .map(|&(n, _)| n)
            .collect();
        // Connected component of `best` inside the band.
        let mut component = vec![best];
        let mut frontier = vec![best];
        while let Some(u) = frontier.pop() {
            for &v in &self.adjacency[u] {
                if in_band.contains(&v) && !component.contains(&v) {
                    component.push(v);
                    frontier.push(v);
                }
            }
        }

        // Candidate cases, widening progressively: both endpoints inside
        // the component; any endpoint inside the proximity band; incident
        // to the best node. The final case-subspace scoring below is what
        // separates true from spurious candidates, so a wider candidate
        // set improves recall without inflating false alarms.
        let mut cand: Vec<usize> = (0..self.case_branch.len())
            .filter(|&ci| {
                let (a, b) = self.case_endpoints[ci];
                component.contains(&a) && component.contains(&b)
            })
            .collect();
        if cand.is_empty() {
            cand = (0..self.case_branch.len())
                .filter(|&ci| {
                    let (a, b) = self.case_endpoints[ci];
                    in_band.contains(&a) || in_band.contains(&b)
                })
                .collect();
        }
        if cand.is_empty() {
            cand = self.incident_cases[best].clone();
        }
        if cand.is_empty() {
            return Ok(Vec::new());
        }

        // Score candidates by their case subspace on the best node's group.
        let x_d = Vector::from(
            sample
                .values_for(best_group, self.cfg.kind)
                .expect("group members observed"),
        );
        let mut scored_cases: Vec<(usize, f64)> = Vec::with_capacity(cand.len());
        for ci in cand {
            let r = proximity_fast(&self.subspaces.per_case[ci], best_group, &x_d)?;
            scored_cases.push((ci, r));
        }
        scored_cases.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let best_edge = scored_cases[0].1.max(PROX_EPS);
        Ok(scored_cases
            .into_iter()
            .filter(|&(_, s)| s <= best_edge * self.cfg.edge_ratio)
            .map(|(ci, _)| self.case_branch[ci])
            .collect())
    }
}

/// Calibrated decision quantities.
struct Calibration {
    /// `S⁰` residual above this ⇒ outage outright.
    hard: f64,
    /// Ratio test applies only above this floor.
    soft: f64,
    /// Ratio cut for the best-case/normal comparison (light missing data).
    ratio_cut: f64,
    /// Ratio cut under heavy (cluster-scale) missing data.
    ratio_cut_heavy: f64,
}

/// Calibrate the normal/outage decision on held-out normal samples
/// (`t ≥ holdout_start`), each evaluated complete and under a few random
/// missing-data masks so the statistics match what detection will see.
fn calibrate(
    subspaces: &LearnedSubspaces,
    normal: &PhasorWindow,
    holdout_start: usize,
    cfg: &DetectorConfig,
) -> Result<Calibration> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let n = normal.n_nodes();
    let m = normal.matrix(cfg.kind);
    let t_total = m.cols();
    let start = holdout_start.min(t_total.saturating_sub(1));
    let k_missing = (n / 15).max(2).min(n.saturating_sub(cfg.subspace_dim + 2));
    let mut rng = StdRng::seed_from_u64(0xCA11B8);

    let mut residuals: Vec<f64> = Vec::new();
    let mut ratios_light: Vec<f64> = Vec::new();
    let mut ratios_heavy: Vec<f64> = Vec::new();
    // Cluster-scale missing data (a dark PDC) is a first-class scenario:
    // calibrate against heavy masks too.
    let k_heavy = (n / 2).max(k_missing).min(n.saturating_sub(cfg.subspace_dim + 2));
    for t in start..t_total {
        // Complete, light-mask, and heavy-mask variants per held-out sample.
        for variant in 0..8 {
            let observed: Vec<usize> = if variant == 0 {
                (0..n).collect()
            } else {
                let k = if variant >= 5 { k_heavy } else { k_missing };
                let mut obs: Vec<usize> = (0..n).collect();
                for _ in 0..k {
                    if obs.len() > cfg.subspace_dim + 2 {
                        let pos = rng.gen_range(0..obs.len());
                        obs.remove(pos);
                    }
                }
                obs
            };
            let x = Vector::from_fn(observed.len(), |i| m[(observed[i], t)]);
            let r0 = proximity(&subspaces.normal, &observed, &x)?;
            residuals.push(r0);
            let mut best = f64::INFINITY;
            for s in &subspaces.per_case {
                let r = proximity(s, &observed, &x)?;
                if r < best {
                    best = r;
                }
            }
            if r0 > 1e-18 && best.is_finite() {
                if variant >= 5 {
                    ratios_heavy.push(best / r0);
                } else {
                    ratios_light.push(best / r0);
                }
            }
        }
    }
    // The configured quantile is a lower bound on the soft threshold; the
    // observed maximum dominates it for well-behaved calibration sets.
    let q = quantile(&residuals, cfg.normal_quantile)?;
    let max_resid = residuals.iter().fold(0.0_f64, |a, &b| a.max(b));
    let soft = max_resid.max(q).max(1e-15);
    let hard = (soft * cfg.threshold_margin).max(1e-15);
    // The ratio tests must never have fired on held-out normal data: cut
    // below the smallest observed normal ratio, capped by the config.
    let cut_from = |ratios: &[f64]| {
        let min_ratio = ratios.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        if min_ratio.is_finite() {
            (0.9 * min_ratio).clamp(0.05, cfg.decision_ratio)
        } else {
            cfg.decision_ratio
        }
    };
    let ratio_cut = cut_from(&ratios_light);
    let ratio_cut_heavy = cut_from(&ratios_heavy).min(ratio_cut);
    Ok(Calibration { hard, soft, ratio_cut, ratio_cut_heavy })
}

/// Convenience: train on a dataset with the default configuration and the
/// network's own cluster count heuristic (≈ one PDC per 10 buses, min 2).
///
/// # Errors
/// As [`Detector::train`].
pub fn train_default(data: &Dataset) -> Result<Detector> {
    Detector::train(data, &default_config_for(&data.network))
}

/// Size-aware default configuration: cluster count and detection-group
/// size scale gently with the grid, and large systems (where stage 2 is
/// the dominant cost) rank through the stage-1 shortlist — the margin
/// fallback keeps localization identical to the exhaustive ranking.
pub fn default_config_for(net: &Network) -> DetectorConfig {
    let n = net.n_buses();
    DetectorConfig {
        n_clusters: cluster_heuristic(net),
        min_group_size: (n / 4).max(8),
        shortlist_k: if n >= 40 { n / 3 } else { 0 },
        ..DetectorConfig::default()
    }
}

/// ≈ one PDC per 10 buses, between 2 and 8 (Fig. 1 scale).
pub fn cluster_heuristic(net: &Network) -> usize {
    (net.n_buses() / 10).clamp(2, 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmu_grid::cases::ieee14;
    use pmu_sim::missing::outage_endpoints_mask;
    use pmu_sim::{generate_dataset, GenConfig};

    fn dataset() -> Dataset {
        let net = ieee14().unwrap();
        let cfg = GenConfig { train_len: 20, test_len: 6, ..GenConfig::default() };
        generate_dataset(&net, &cfg).unwrap()
    }

    fn detector(data: &Dataset) -> Detector {
        train_default(data).unwrap()
    }

    #[test]
    fn normal_samples_classified_normal() {
        let data = dataset();
        let det = detector(&data);
        let mut normal_ok = 0usize;
        for t in 0..data.normal_test.len() {
            let d = det.detect(&data.normal_test.sample(t)).unwrap();
            if !d.outage {
                normal_ok += 1;
                assert!(d.lines.is_empty());
            }
        }
        assert!(
            normal_ok >= data.normal_test.len() - 1,
            "{normal_ok}/{} normal samples passed",
            data.normal_test.len()
        );
    }

    #[test]
    fn outage_samples_flagged_and_localized() {
        let data = dataset();
        let det = detector(&data);
        let mut flagged = 0usize;
        let mut hit = 0usize;
        for case in &data.cases {
            let d = det.detect(&case.test.sample(0)).unwrap();
            if d.outage {
                flagged += 1;
                if d.lines.contains(&case.branch) {
                    hit += 1;
                }
            }
        }
        let e = data.n_cases();
        assert!(flagged * 10 >= e * 9, "only {flagged}/{e} outages flagged");
        assert!(hit * 10 >= e * 8, "only {hit}/{e} outages localized");
    }

    #[test]
    fn robust_to_missing_outage_endpoints() {
        let data = dataset();
        let det = detector(&data);
        let mut hit = 0usize;
        for case in &data.cases {
            let mask = outage_endpoints_mask(14, case.endpoints);
            let sample = case.test.sample(0).masked(&mask);
            let d = det.detect(&sample).unwrap();
            if d.outage && d.lines.contains(&case.branch) {
                hit += 1;
            }
        }
        let e = data.n_cases();
        assert!(hit * 10 >= e * 7, "only {hit}/{e} localized with endpoints dark");
    }

    #[test]
    fn missing_data_on_normal_sample_not_an_outage() {
        use pmu_sim::Mask;
        let data = dataset();
        let det = detector(&data);
        let mut false_alarms = 0usize;
        let trials = data.normal_test.len();
        for t in 0..trials {
            let mask = Mask::with_missing(14, &[t % 14, (t + 5) % 14]);
            let d = det.detect(&data.normal_test.sample(t).masked(&mask)).unwrap();
            if d.outage {
                false_alarms += 1;
            }
        }
        assert!(false_alarms <= 1, "{false_alarms}/{trials} false alarms");
    }

    #[test]
    fn rejects_bad_samples() {
        use pmu_sim::Mask;
        let data = dataset();
        let det = detector(&data);
        // Wrong size.
        let bad = PhasorSample::complete(vec![pmu_numerics::Complex64::ONE; 5]);
        assert!(matches!(det.detect(&bad), Err(DetectError::SampleMismatch { .. })));
        // Nearly everything missing.
        let mask = Mask::with_missing(14, &(0..12).collect::<Vec<_>>());
        let s = data.normal_test.sample(0).masked(&mask);
        assert!(matches!(det.detect(&s), Err(DetectError::InsufficientData { .. })));
    }

    #[test]
    fn non_finite_observed_entries_rejected() {
        use pmu_numerics::Complex64;
        use pmu_sim::Mask;
        let data = dataset();
        let det = detector(&data);
        let clean = data.normal_test.sample(0);
        let poison = |node: usize, z: Complex64| {
            let phasors: Vec<Complex64> = (0..clean.n_nodes())
                .map(|i| if i == node { z } else { clean.phasor_unchecked(i) })
                .collect();
            PhasorSample::complete(phasors)
        };
        // NaN and infinity are both rejected, naming the offending node.
        let nan = poison(5, Complex64::new(f64::NAN, 0.0));
        assert_eq!(det.detect(&nan).unwrap_err(), DetectError::NonFinite { node: 5 });
        let inf = poison(2, Complex64::new(0.0, f64::INFINITY));
        assert_eq!(det.detect(&inf).unwrap_err(), DetectError::NonFinite { node: 2 });
        // A non-finite value behind the mask is invisible: masked entries
        // are missing, not observed, and must not trigger the check.
        let masked_nan = poison(5, Complex64::new(f64::NAN, f64::NAN))
            .masked(&Mask::with_missing(14, &[5]));
        assert!(det.detect(&masked_nan).is_ok());
    }

    #[test]
    fn detection_reports_diagnostics() {
        let data = dataset();
        let det = detector(&data);
        let d = det.detect(&data.cases[0].test.sample(0)).unwrap();
        assert!(d.outage);
        assert!(d.best_case_residual.is_finite());
        assert_eq!(d.threshold, det.threshold());
        assert!(!d.node_ranking.is_empty());
        // Ranking is ascending.
        for w in d.node_ranking.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Accessors exist and are consistent.
        assert_eq!(det.n_nodes(), 14);
        assert_eq!(det.capabilities().n_nodes(), 14);
        assert!(!det.groups().in_cluster.is_empty());
        assert!(det.clustering().n_clusters() >= 2);
        assert_eq!(det.subspaces().per_case.len(), data.n_cases());
    }

    /// `sample` with `node`'s phasor angle rotated by `delta` radians —
    /// a finite, observed, single-channel corruption.
    fn corrupt_angle(sample: &PhasorSample, node: usize, delta: f64) -> PhasorSample {
        use pmu_numerics::Complex64;
        use pmu_sim::Mask;
        let phasors: Vec<Complex64> = (0..sample.n_nodes())
            .map(|i| {
                let z = sample.phasor_unchecked(i);
                if i == node {
                    Complex64::from_polar(z.abs(), z.arg() + delta)
                } else {
                    z
                }
            })
            .collect();
        let missing = sample.mask().missing_nodes();
        PhasorSample::with_mask(phasors, Mask::with_missing(sample.n_nodes(), &missing))
    }

    #[test]
    fn robust_screen_excises_corrupted_channel() {
        let data = dataset();
        let det = detector(&data);
        let det_off = det.clone().with_robust_screen(false);
        let mut excised = 0usize;
        let mut recovered = 0usize;
        let mut baseline_hit = 0usize;
        for case in &data.cases {
            let clean = case.test.sample(0);
            if !det_off.detect(&clean).unwrap().outage {
                continue;
            }
            // Corrupt a channel far from the outage (graph-wise: neither
            // endpoint nor a neighbour of one).
            let (a, b) = case.endpoints;
            let net = ieee14().unwrap();
            let near: Vec<usize> = {
                let mut v = vec![a, b];
                v.extend(net.neighbors(a));
                v.extend(net.neighbors(b));
                v
            };
            let victim = (0..14).find(|i| !near.contains(i)).unwrap();
            let bad = corrupt_angle(&clean, victim, 0.8);
            let d = det.detect(&bad).unwrap();
            if d.suspect_nodes.contains(&victim) {
                excised += 1;
                if d.outage && d.lines.contains(&case.branch) {
                    recovered += 1;
                }
            }
            if det_off.detect(&clean).unwrap().lines.contains(&case.branch) {
                baseline_hit += 1;
            }
        }
        assert!(
            excised * 10 >= data.n_cases() * 7,
            "screen excised the corrupted channel in only {excised}/{} cases",
            data.n_cases()
        );
        assert!(
            recovered * 10 >= baseline_hit * 8,
            "excision recovered localization in only {recovered} cases \
             (clean baseline {baseline_hit})"
        );
    }

    #[test]
    fn robust_screen_clears_corruption_induced_false_alarm() {
        // A corrupted channel during *normal* operation trips the outage
        // decision; the screen must excise it and restore the normal
        // verdict instead of raising a phantom outage.
        let data = dataset();
        let det = detector(&data);
        let mut cleared = 0usize;
        let trials = data.normal_test.len();
        for t in 0..trials {
            let clean = data.normal_test.sample(t);
            if det.detect(&clean).unwrap().outage {
                continue; // already a (rare) clean false alarm; skip
            }
            let bad = corrupt_angle(&clean, (t * 3) % 14, 1.0);
            let d = det.detect(&bad).unwrap();
            if !d.outage && !d.suspect_nodes.is_empty() {
                cleared += 1;
            }
        }
        assert!(
            cleared * 10 >= trials * 7,
            "screen cleared only {cleared}/{trials} corruption-induced alarms"
        );
    }

    #[test]
    fn robust_screen_is_bit_identical_when_nothing_fires() {
        // Clean samples (normal and outage) must produce byte-identical
        // detections with the screen on and off — the screen only runs on
        // outage verdicts and must not fire on genuine data.
        let data = dataset();
        let det = detector(&data);
        let det_off = det.clone().with_robust_screen(false);
        for t in 0..data.normal_test.len() {
            let s = data.normal_test.sample(t);
            let on = det.detect(&s).unwrap();
            let off = det_off.detect(&s).unwrap();
            assert!(on.suspect_nodes.is_empty(), "screen fired on clean normal t={t}");
            assert_eq!(on, off, "screen-on diverged on clean normal t={t}");
        }
        for (ci, case) in data.cases.iter().enumerate() {
            let s = case.test.sample(0);
            let on = det.detect(&s).unwrap();
            let off = det_off.detect(&s).unwrap();
            assert!(on.suspect_nodes.is_empty(), "screen fired on clean outage {ci}");
            assert_eq!(on, off, "screen-on diverged on clean outage {ci}");
        }
    }

    #[test]
    fn robust_screen_peels_multiple_channels_within_budget() {
        let data = dataset();
        let det = detector(&data);
        let case = &data.cases[0];
        let clean = case.test.sample(0);
        let (a, b) = case.endpoints;
        let victims: Vec<usize> =
            (0..14).filter(|&i| i != a && i != b).take(2).collect();
        let mut bad = clean.clone();
        for (j, &v) in victims.iter().enumerate() {
            bad = corrupt_angle(&bad, v, 0.7 + 0.3 * j as f64);
        }
        let d = det.detect(&bad).unwrap();
        for v in &victims {
            assert!(
                d.suspect_nodes.contains(v),
                "victim {v} not excised: suspects {:?}",
                d.suspect_nodes
            );
        }
        assert!(d.suspect_nodes.len() <= DetectorConfig::default().robust_budget);
    }

    #[test]
    fn best_ranked_node_is_near_outage() {
        let data = dataset();
        let det = detector(&data);
        let mut near = 0usize;
        for case in &data.cases {
            let d = det.detect(&case.test.sample(1)).unwrap();
            if !d.outage {
                continue;
            }
            let best = d.node_ranking[0].0;
            let (a, b) = case.endpoints;
            let neighborhood: Vec<usize> = {
                let net = ieee14().unwrap();
                let mut v = vec![a, b];
                v.extend(net.neighbors(a));
                v.extend(net.neighbors(b));
                v
            };
            if neighborhood.contains(&best) {
                near += 1;
            }
        }
        assert!(
            near * 10 >= data.n_cases() * 8,
            "best node near outage in only {near}/{} cases",
            data.n_cases()
        );
    }
}
