//! Packed scoring state for the detection hot path.
//!
//! The reference scorer ([`crate::proximity::proximity`]) rebuilds the
//! row-restricted, dimension-clamped subspace on *every* call — an
//! `O(cases × samples)` stream of restrict/QR work that dominates batch
//! detection at IEEE-118 scale. This module packages the pieces that make
//! the packed path fast without changing a single output bit:
//!
//! - [`RestrictedBank`] — every stage-1 subspace (normal `S⁰`, one per
//!   outage case, one per-node intersection `S_i^∩`), row-restricted to a
//!   fixed observed-node set, clamped exactly as the reference path
//!   clamps, and grouped into one [`ProjectorBank`] so a sample is scored
//!   against every subspace in a few vectorized loops. The
//!   intersection blocks double as *score-unit* shortlist proxies for the
//!   stage-2 pruning rule. The full-observation bank is precomputed at
//!   training time and ships inside the model bundle.
//! - [`NodeScorer`] — one node's stage-2 state under one mask: its
//!   Eq. (10) detection group plus the incident-case / intersection /
//!   normal restrictions, each held as a pre-factored Gram block (the
//!   [`proximity_fast`](crate::proximity) construction with the
//!   per-group Cholesky work hoisted out of the sample loop). Group
//!   selection depends only on the missing-data mask, so a whole batch
//!   reuses the same scorers.
//! - [`ScoringCache`] — runtime memoization: stage-1 banks and stage-2
//!   node-scorer sets, both keyed on the missing mask's fingerprint, so
//!   streaming and batch detection pay each restriction once per mask
//!   instead of once per sample.
//!
//! ## Bit-compatibility contract
//!
//! The stage-1 bank reuses [`restricted_capped`](crate::proximity) — the
//! exact construction inside the reference scorer — so a packed stage-1
//! score is the *same float* `proximity` computes. The stage-2 scorers
//! replay `proximity_fast` term by term (same Gram assembly order, same
//! shared Cholesky, same solve), so a cached stage-2 score is the same
//! float the reference path computes through `proximity_fast`. The parity
//! suite (`tests/packed_parity.rs`) pins both end to end.

use crate::error::DetectError;
use crate::proximity::{cholesky_lower, gram_eligible, gram_quad, restricted_capped};
use crate::subspaces::LearnedSubspaces;
use crate::Result;
use pmu_numerics::{Matrix, ProjectorBank, Subspace, Vector};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Banks cached per missing-data mask. A deployment cycles through the
/// recurring masks of its fault surface — all-present, every single-PDC
/// blackout, the per-case outage-endpoint masks the evaluation sweeps
/// replay — which at IEEE-118 scale is a few hundred distinct masks, so
/// the cap must hold the full cycle (32 used to thrash: every overflow
/// cleared the map wholesale and the next cycle rebuilt every bank,
/// which made the packed path *slower* than the reference scorer).
const BANK_CACHE_CAP: usize = 256;

/// Per-mask stage-2 node-scorer sets; same mask-recurrence argument as
/// the stage-1 banks.
const NODE_CACHE_CAP: usize = 256;

/// Evict one pseudo-randomly chosen entry. Random replacement is immune
/// to the cyclic-scan pathology that defeats LRU here (a batch sweeping
/// `> cap` masks in a fixed order evicts every entry exactly before its
/// reuse, degenerating to a 0% hit rate); random keeps an expected
/// `cap / distinct` fraction of any cycle resident. Which entry goes is
/// a caching decision only — detection outputs never depend on it (a
/// re-evicted mask just re-pays one restriction pass).
fn evict_one<V>(map: &mut HashMap<u64, V>, salt: u64) {
    let mut x = salt ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let idx = (x as usize) % map.len().max(1);
    if let Some(&k) = map.keys().nth(idx) {
        map.remove(&k);
    }
}

/// Divide each packed block residual by its co-dimension, in place.
fn normalize_rows(out: &mut Matrix, codims: &[f64]) {
    for (b, &codim) in codims.iter().enumerate().take(out.rows()) {
        for v in out.row_mut(b) {
            *v /= codim;
        }
    }
}

/// All stage-1 subspaces restricted to one observed-node set and packed
/// for batched residuals: block 0 is `S⁰`, block `1 + ci` is outage case
/// `ci`, block `1 + n_cases + i` is node `i`'s intersection `S_i^∩`.
/// Stored in the trained model for the full-observation mask and built on
/// demand (then cached) for every other mask.
#[derive(serde::Serialize)]
#[derive(Debug, Clone)]
pub struct RestrictedBank {
    /// Ascending observed-node indices this bank is restricted to.
    observed: Vec<usize>,
    /// Packed clamped bases, blocks ordered normal / cases / intersections.
    bank: ProjectorBank,
    /// Residual co-dimensions, aligned with the blocks.
    codims: Vec<f64>,
    /// Number of outage-case blocks (blocks `1..=n_cases`).
    n_cases: usize,
}

impl RestrictedBank {
    /// Restrict and clamp every stage-1 subspace to `observed`, then pack.
    ///
    /// # Errors
    /// As the reference scorer: fewer than 2 observed nodes, or numerical
    /// failures.
    pub fn build(subspaces: &LearnedSubspaces, observed: &[usize]) -> Result<Self> {
        let n_cases = subspaces.per_case.len();
        let n_blocks = 1 + n_cases + subspaces.intersection.len();
        let mut bases: Vec<Matrix> = Vec::with_capacity(n_blocks);
        let mut codims: Vec<f64> = Vec::with_capacity(n_blocks);
        for s in std::iter::once(&subspaces.normal)
            .chain(&subspaces.per_case)
            .chain(&subspaces.intersection)
        {
            let (capped, codim) = restricted_capped(s, observed)?;
            bases.push(capped.basis().clone());
            codims.push(codim);
        }
        let refs: Vec<&Matrix> = bases.iter().collect();
        let bank = ProjectorBank::from_bases(&refs)
            .map_err(|e| DetectError::InvalidTrainingData(e.to_string()))?;
        Ok(RestrictedBank { observed: observed.to_vec(), bank, codims, n_cases })
    }

    /// The observed-node set this bank is restricted to.
    pub fn observed(&self) -> &[usize] {
        &self.observed
    }

    /// Number of packed subspaces (1 normal + cases + intersections).
    pub fn n_blocks(&self) -> usize {
        self.bank.n_blocks()
    }

    /// Number of outage-case blocks (blocks `1..=n_cases()`).
    pub fn n_cases(&self) -> usize {
        self.n_cases
    }

    /// Stage-1 proximities of one observed sub-vector: entry 0 is the
    /// `S⁰` proximity, entry `1 + ci` the case-`ci` proximity, entry
    /// `1 + n_cases + i` the node-`i` intersection proximity.
    ///
    /// # Errors
    /// Shape mismatches from the packed kernel.
    pub fn proximities_one(&self, x_d: &Vector) -> Result<Vec<f64>> {
        let m = Matrix::from_fn(x_d.len(), 1, |r, _| x_d[r]);
        let r = self.residuals(&m)?;
        Ok((0..self.n_blocks()).map(|b| r[(b, 0)]).collect())
    }

    /// Stage-1 proximities for a whole batch (`|observed| × n_samples`
    /// columns): returns `n_blocks × n_samples`, rows ordered as in
    /// [`Self::proximities_one`]. This is the packed hot path — one
    /// projector-bank call for the entire batch.
    ///
    /// # Errors
    /// Shape mismatches from the packed kernel.
    pub fn proximities(&self, x: &Matrix) -> Result<Matrix> {
        self.residuals(x)
    }

    fn residuals(&self, x: &Matrix) -> Result<Matrix> {
        let mut out = self
            .bank
            .block_residuals(x)
            .map_err(|e| DetectError::InvalidTrainingData(e.to_string()))?;
        normalize_rows(&mut out, &self.codims);
        Ok(out)
    }
}

impl serde::Deserialize for RestrictedBank {
    /// Decode a bank from untrusted bytes. The shape fields are checked
    /// against the packed bank before anything indexes through them: one
    /// co-dimension per block, room for the normal block plus `n_cases`
    /// case blocks, and a strictly ascending `observed` list with one node
    /// per bank row.
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let observed: Vec<usize> = serde::from_field(v, "observed")?;
        let bank: ProjectorBank = serde::from_field(v, "bank")?;
        let codims: Vec<f64> = serde::from_field(v, "codims")?;
        let n_cases: usize = serde::from_field(v, "n_cases")?;
        let bad = |why: String| Err(serde::DeError::new(format!("RestrictedBank: {why}")));
        let blocks = bank.n_blocks();
        if codims.len() != blocks {
            return bad(format!("{} codims for {blocks} blocks", codims.len()));
        }
        // `1 + n_cases > blocks`, written so a huge count cannot overflow.
        if n_cases >= blocks {
            return bad(format!("n_cases {n_cases} leaves no normal block in {blocks} blocks"));
        }
        if let Some(w) = observed.windows(2).find(|w| w[1] <= w[0]) {
            return bad(format!("observed not strictly ascending at {} then {}", w[0], w[1]));
        }
        if observed.len() != bank.rows() {
            return bad(format!("{} observed nodes for {} bank rows", observed.len(), bank.rows()));
        }
        Ok(RestrictedBank { observed, bank, codims, n_cases })
    }
}

/// One subspace restricted to one group, pre-factored for scoring: the
/// cacheable half of [`proximity_fast`](crate::proximity). The Gram
/// variant stores the gathered basis rows and the Cholesky factor so a
/// sample costs one small matvec and a triangular solve; the exact
/// variant keeps the clamped reference construction for the regimes
/// where `proximity_fast` itself falls back.
#[derive(Debug)]
enum BlockScorer {
    /// `bt` is the `k × |group|` row-major restricted basis transpose,
    /// `l` the `k × k` lower Cholesky factor of its Gram matrix.
    Gram { bt: Vec<f64>, l: Vec<f64>, k: usize, codim: f64 },
    /// The clamped QR construction (`restricted_capped`), used when the
    /// basis exceeds the Eq. (9) cap or the Gram matrix is rank-deficient.
    Exact { sub: Subspace, codim: f64 },
}

impl BlockScorer {
    /// Pre-factor `s` restricted to `group`, choosing the same fast/exact
    /// branch `proximity_fast` would choose on this group.
    fn build(s: &Subspace, group: &[usize]) -> Result<Self> {
        if gram_eligible(s, group) {
            let g = group.len();
            let b = s.basis();
            let k = b.cols();
            let mut bt = vec![0.0_f64; k * g];
            let mut gram = vec![0.0_f64; k * k];
            // Same assembly order as `proximity_fast`: rows ascending,
            // upper triangle of the Gram matrix.
            for (i, &row) in group.iter().enumerate() {
                let br = b.row(row);
                for a in 0..k {
                    bt[a * g + i] = br[a];
                    for c in a..k {
                        gram[a * k + c] += br[a] * br[c];
                    }
                }
            }
            if let Some(l) = cholesky_lower(&gram, k) {
                return Ok(BlockScorer::Gram { bt, l, k, codim: (g - k) as f64 });
            }
        }
        let (sub, codim) = restricted_capped(s, group)?;
        Ok(BlockScorer::Exact { sub, codim })
    }

    /// Proximity of the group sub-vector (`x_norm_sqr = ‖x_d‖²`, computed
    /// once per sample by the caller) — the same float `proximity_fast`
    /// returns on the same inputs.
    fn score(&self, x_d: &Vector, x_norm_sqr: f64) -> Result<f64> {
        match self {
            BlockScorer::Gram { bt, l, k, codim } => {
                let g = x_d.len();
                let mut y = vec![0.0_f64; *k];
                for (a, slot) in y.iter_mut().enumerate() {
                    let row = &bt[a * g..(a + 1) * g];
                    let mut acc = 0.0;
                    for i in 0..g {
                        acc += row[i] * x_d[i];
                    }
                    *slot = acc;
                }
                let quad = gram_quad(l, y, *k);
                Ok((x_norm_sqr - quad).max(0.0) / codim)
            }
            BlockScorer::Exact { sub, codim } => Ok(sub.residual_sqr(x_d)? / codim),
        }
    }
}

/// One node's stage-2 scoring state under one mask: the Eq. (10)
/// detection group and the pre-factored restrictions of every subspace
/// Eq. (9)–(11) touch — incident cases (in incident order), `S_i^∩`,
/// `S⁰`.
#[derive(Debug)]
pub(crate) struct NodeScorer {
    /// The node's detection group (ascending, all observed).
    group: Vec<usize>,
    /// Blocks `0..n_cases` are the incident cases; block `n_cases` is
    /// the intersection, block `n_cases + 1` is `S⁰`.
    blocks: Vec<BlockScorer>,
    n_cases: usize,
    /// `true` when no observed sensor has learned capability for this
    /// node under the scorer's mask (Eq. 5–7) — the shortlist must never
    /// prune such a node. Mask-dependent, so cached here with the rest of
    /// the per-mask state.
    low_capability: bool,
}

impl NodeScorer {
    /// Restrict this node's scoring subspaces to `group` and pre-factor.
    ///
    /// # Errors
    /// As the reference scorer on the same group.
    pub(crate) fn build(
        subspaces: &LearnedSubspaces,
        incident: &[usize],
        node: usize,
        group: Vec<usize>,
        low_capability: bool,
    ) -> Result<Self> {
        let n_cases = incident.len();
        let mut blocks: Vec<BlockScorer> = Vec::with_capacity(n_cases + 2);
        for s in incident
            .iter()
            .map(|&ci| &subspaces.per_case[ci])
            .chain([&subspaces.intersection[node], &subspaces.normal])
        {
            blocks.push(BlockScorer::build(s, &group)?);
        }
        Ok(NodeScorer { group, blocks, n_cases, low_capability })
    }

    /// The detection group the scorer is restricted to.
    pub(crate) fn group(&self) -> &[usize] {
        &self.group
    }

    /// Number of incident-case blocks.
    pub(crate) fn n_cases(&self) -> usize {
        self.n_cases
    }

    /// Whether the shortlist capability guard applies to this node.
    pub(crate) fn low_capability(&self) -> bool {
        self.low_capability
    }

    /// Proximities of the group sub-vector to every block, ordered
    /// incident cases / intersection / normal — each bit-identical to
    /// [`proximity_fast`](crate::proximity) on the same inputs.
    ///
    /// # Errors
    /// Shape mismatches from the exact-branch blocks.
    pub(crate) fn proximities_one(&self, x_d: &Vector) -> Result<Vec<f64>> {
        let x_norm_sqr = x_d.norm_sqr();
        self.blocks.iter().map(|b| b.score(x_d, x_norm_sqr)).collect()
    }
}

/// Per-mask stage-2 state: one optional scorer per node (`None` when the
/// node has no learned cases or its group degenerates under the mask).
pub(crate) type NodeScorers = Vec<Option<NodeScorer>>;

/// Runtime scoring caches shared across samples of one stream or batch.
///
/// Interior-mutable (`&self` lookups) so a detector can stay immutable;
/// on overflow both maps evict one pseudo-random entry (see
/// [`evict_one`]) — masks recur heavily in practice, and an eviction
/// merely re-pays one restriction pass for that mask.
#[derive(Default)]
pub struct ScoringCache {
    banks: Mutex<HashMap<u64, Arc<RestrictedBank>>>,
    node_scorers: Mutex<HashMap<u64, Arc<NodeScorers>>>,
    /// Capped `S⁰` restrictions for the bad-data screen. Kept separate
    /// from the banks: the bank packs subspaces into projector form,
    /// which does not expose the basis rows the leverage computation
    /// needs.
    robust: Mutex<HashMap<u64, Arc<Subspace>>>,
}

impl ScoringCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached sizes `(stage-1 banks, stage-2 scorer sets)` — observability
    /// hook.
    pub fn sizes(&self) -> (usize, usize) {
        (
            self.banks.lock().expect("bank cache poisoned").len(),
            self.node_scorers.lock().expect("node cache poisoned").len(),
        )
    }

    /// The stage-1 bank for a mask fingerprint, built from `subspaces`
    /// restricted to `observed` on first sight.
    pub(crate) fn bank_for(
        &self,
        subspaces: &LearnedSubspaces,
        fingerprint: u64,
        observed: &[usize],
    ) -> Result<Arc<RestrictedBank>> {
        {
            let map = self.banks.lock().expect("bank cache poisoned");
            if let Some(b) = map.get(&fingerprint) {
                return Ok(Arc::clone(b));
            }
        }
        // Build outside the lock: restriction is the expensive part and
        // concurrent callers may be working on different masks.
        pmu_obs::counter!("detect.bank_cache_miss").inc();
        let built = Arc::new(RestrictedBank::build(subspaces, observed)?);
        let mut map = self.banks.lock().expect("bank cache poisoned");
        if map.len() >= BANK_CACHE_CAP {
            pmu_obs::counter!("detect.bank_cache_evict").inc();
            evict_one(&mut map, fingerprint);
        }
        let entry = map.entry(fingerprint).or_insert_with(|| Arc::clone(&built));
        Ok(Arc::clone(entry))
    }

    /// The capped `S⁰` restriction the bad-data screen tests against,
    /// cached per mask fingerprint. `restricted_capped` is deterministic,
    /// so a cached basis is bit-identical to the fresh construction the
    /// reference path performs.
    pub(crate) fn robust_basis_for(
        &self,
        subspaces: &LearnedSubspaces,
        fingerprint: u64,
        observed: &[usize],
    ) -> Result<Arc<Subspace>> {
        {
            let map = self.robust.lock().expect("robust cache poisoned");
            if let Some(s) = map.get(&fingerprint) {
                return Ok(Arc::clone(s));
            }
        }
        pmu_obs::counter!("detect.robust_cache_miss").inc();
        let (capped, _) = restricted_capped(&subspaces.normal, observed)?;
        let built = Arc::new(capped);
        let mut map = self.robust.lock().expect("robust cache poisoned");
        if map.len() >= BANK_CACHE_CAP {
            evict_one(&mut map, fingerprint);
        }
        let entry = map.entry(fingerprint).or_insert_with(|| Arc::clone(&built));
        Ok(Arc::clone(entry))
    }

    /// The stage-2 node scorers for a mask fingerprint, built via `build`
    /// on first sight (outside the lock — concurrent first-timers may
    /// build duplicates; one wins, the rest are dropped).
    pub(crate) fn node_scorers_for(
        &self,
        fingerprint: u64,
        build: impl FnOnce() -> Result<NodeScorers>,
    ) -> Result<Arc<NodeScorers>> {
        {
            let map = self.node_scorers.lock().expect("node cache poisoned");
            if let Some(s) = map.get(&fingerprint) {
                return Ok(Arc::clone(s));
            }
        }
        pmu_obs::counter!("detect.node_cache_miss").inc();
        let built = Arc::new(build()?);
        let mut map = self.node_scorers.lock().expect("node cache poisoned");
        if map.len() >= NODE_CACHE_CAP {
            pmu_obs::counter!("detect.node_cache_evict").inc();
            evict_one(&mut map, fingerprint);
        }
        let entry = map.entry(fingerprint).or_insert_with(|| Arc::clone(&built));
        Ok(Arc::clone(entry))
    }
}

impl std::fmt::Debug for ScoringCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (banks, node_scorers) = self.sizes();
        f.debug_struct("ScoringCache")
            .field("banks", &banks)
            .field("node_scorers", &node_scorers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::proximity::{proximity, proximity_fast};
    use crate::subspaces::learn_subspaces;
    use pmu_grid::cases::ieee14;
    use pmu_sim::{generate_dataset, GenConfig, MeasurementKind};

    fn learned() -> (pmu_sim::Dataset, LearnedSubspaces) {
        let net = ieee14().unwrap();
        let gen = GenConfig { train_len: 12, test_len: 3, ..GenConfig::default() };
        let data = generate_dataset(&net, &gen).unwrap();
        let subs = learn_subspaces(&data, &DetectorConfig::default()).unwrap();
        (data, subs)
    }

    #[test]
    fn bank_matches_reference_proximities_bitwise() {
        let (data, subs) = learned();
        let n_cases = subs.per_case.len();
        for observed in [
            (0..14).collect::<Vec<usize>>(),
            (0..14).filter(|&i| i != 3 && i != 7).collect(),
        ] {
            let bank = RestrictedBank::build(&subs, &observed).unwrap();
            assert_eq!(bank.n_blocks(), 1 + n_cases + subs.intersection.len());
            assert_eq!(bank.n_cases(), n_cases);
            let m = data.normal_test.matrix(MeasurementKind::Angle);
            for t in 0..m.cols() {
                let x_d = Vector::from_fn(observed.len(), |i| m[(observed[i], t)]);
                let got = bank.proximities_one(&x_d).unwrap();
                let want0 = proximity(&subs.normal, &observed, &x_d).unwrap();
                assert_eq!(got[0].to_bits(), want0.to_bits(), "normal t={t}");
                for (ci, s) in subs.per_case.iter().enumerate() {
                    let want = proximity(s, &observed, &x_d).unwrap();
                    assert_eq!(got[1 + ci].to_bits(), want.to_bits(), "case {ci} t={t}");
                }
                for (i, s) in subs.intersection.iter().enumerate() {
                    let want = proximity(s, &observed, &x_d).unwrap();
                    assert_eq!(
                        got[1 + n_cases + i].to_bits(),
                        want.to_bits(),
                        "intersection {i} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_proximities_match_single_columns() {
        let (data, subs) = learned();
        let observed: Vec<usize> = (0..14).filter(|&i| i != 5).collect();
        let bank = RestrictedBank::build(&subs, &observed).unwrap();
        let m = data.normal_test.matrix(MeasurementKind::Angle);
        let x = Matrix::from_fn(observed.len(), m.cols(), |r, c| m[(observed[r], c)]);
        let batch = bank.proximities(&x).unwrap();
        for t in 0..m.cols() {
            let x_d = x.column(t);
            let one = bank.proximities_one(&x_d).unwrap();
            for b in 0..bank.n_blocks() {
                assert_eq!(batch[(b, t)].to_bits(), one[b].to_bits());
            }
        }
    }

    #[test]
    fn node_scorer_matches_reference_bitwise() {
        let (data, subs) = learned();
        // Node 0 with whatever cases touch it; a mid-sized group (forces
        // both Gram blocks and clamped-fallback blocks) and a tiny group
        // (all blocks fall back to the exact construction).
        let incident: Vec<usize> = (0..subs.per_case.len().min(3)).collect();
        for group in
            [vec![0, 1, 2, 4, 6, 8, 9, 11, 13], vec![3usize, 7]]
        {
            let sc = NodeScorer::build(&subs, &incident, 0, group.clone(), false).unwrap();
            assert_eq!(sc.group(), &group[..]);
            assert_eq!(sc.n_cases(), incident.len());
            assert!(!sc.low_capability());
            let m = data.normal_test.matrix(MeasurementKind::Angle);
            for t in 0..m.cols() {
                let x_d = Vector::from_fn(group.len(), |i| m[(group[i], t)]);
                let got = sc.proximities_one(&x_d).unwrap();
                for (b, &ci) in incident.iter().enumerate() {
                    let want =
                        proximity_fast(&subs.per_case[ci], &group, &x_d).unwrap();
                    assert_eq!(got[b].to_bits(), want.to_bits(), "case block {b} t={t}");
                }
                let want_i =
                    proximity_fast(&subs.intersection[0], &group, &x_d).unwrap();
                assert_eq!(got[incident.len()].to_bits(), want_i.to_bits());
                let want_n = proximity_fast(&subs.normal, &group, &x_d).unwrap();
                assert_eq!(got[incident.len() + 1].to_bits(), want_n.to_bits());
            }
        }
    }

    #[test]
    fn cache_returns_identical_objects_per_key() {
        let (_, subs) = learned();
        let cache = ScoringCache::new();
        let observed: Vec<usize> = (0..14).collect();
        let a = cache.bank_for(&subs, 42, &observed).unwrap();
        let b = cache.bank_for(&subs, 42, &observed).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same fingerprint must share the bank");
        let s1 = cache.node_scorers_for(7, || Ok(Vec::new())).unwrap();
        let s2 = cache
            .node_scorers_for(7, || panic!("cached entry must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(cache.sizes(), (1, 1));
        // Distinct fingerprints get distinct entries.
        let s3 = cache.node_scorers_for(8, || Ok(Vec::new())).unwrap();
        assert!(!Arc::ptr_eq(&s1, &s3));
        assert_eq!(cache.sizes(), (1, 2));
    }

    /// A serialized bank over nodes `0..14` minus node 5, and a decoder
    /// that applies `edit` to one of its fields before decoding.
    fn decode_edited(
        field: &str,
        edit: impl FnOnce(&mut serde::Value),
    ) -> std::result::Result<RestrictedBank, String> {
        use serde::{Deserialize, Serialize};
        let (_, subs) = learned();
        let observed: Vec<usize> = (0..14).filter(|&i| i != 5).collect();
        let mut doc = RestrictedBank::build(&subs, &observed).unwrap().to_value();
        let serde::Value::Obj(fields) = &mut doc else { panic!("a bank encodes as an object") };
        let (_, value) = fields.iter_mut().find(|(k, _)| k == field).expect("field present");
        edit(value);
        RestrictedBank::from_value(&doc).map_err(|e| e.to_string())
    }

    fn arr(v: &mut serde::Value) -> &mut Vec<serde::Value> {
        match v {
            serde::Value::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    fn decode_accepts_an_unedited_bank() {
        let bank = decode_edited("n_cases", |_| {}).unwrap();
        assert_eq!(bank.observed().len(), 13);
        assert!(bank.n_cases() < bank.n_blocks());
    }

    #[test]
    fn decode_rejects_codims_that_miss_a_block() {
        let err = decode_edited("codims", |v| {
            arr(v).pop();
        })
        .unwrap_err();
        assert!(err.contains("codims for"), "{err}");
    }

    #[test]
    fn decode_rejects_more_cases_than_blocks() {
        let err = decode_edited("n_cases", |v| *v = serde::Value::Int(i64::MAX)).unwrap_err();
        assert!(err.contains("leaves no normal block"), "{err}");
    }

    #[test]
    fn decode_rejects_unsorted_or_repeated_observed_nodes() {
        let err = decode_edited("observed", |v| arr(v).swap(2, 3)).unwrap_err();
        assert!(err.contains("strictly ascending"), "{err}");
        let err = decode_edited("observed", |v| {
            let items = arr(v);
            items[3] = items[2].clone();
        })
        .unwrap_err();
        assert!(err.contains("strictly ascending"), "{err}");
    }

    #[test]
    fn decode_rejects_observed_nodes_that_miss_a_row() {
        let err = decode_edited("observed", |v| {
            arr(v).pop();
        })
        .unwrap_err();
        assert!(err.contains("observed nodes for"), "{err}");
    }
}
