//! The content-addressed on-disk artifact store.
//!
//! Bundles are filed under their [`bundle_key`](crate::bundle::bundle_key)
//! — a digest of the training inputs (system topology, scale, seed, every
//! configuration knob) — so a lookup either finds a bundle trained on
//! *exactly* the inputs at hand or finds nothing. There is no eviction,
//! no manifest, and no locking beyond an atomic rename on write: each
//! artifact is a self-verifying file whose name is its identity, which
//! makes the store safe to share between concurrent `repro`/`perfbench`
//! processes and trivially inspectable (`ls`, `jq`).
//!
//! ## Selecting a store
//!
//! Process-wide consumers ([`SystemSetup::build`] in `pmu-eval`, the
//! examples) resolve a store through [`default_store`], governed by a
//! [`StorePolicy`]: an explicit programmatic choice (`repro --artifacts
//! DIR` calls [`set_store_policy`]), else the `PMU_ARTIFACTS` environment
//! variable, else no store (train in memory every run, the pre-existing
//! behavior). Tools that want a store regardless of policy construct
//! [`ArtifactStore::new`] directly.
//!
//! [`SystemSetup::build`]: https://docs.rs/pmu-eval

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use pmu_baseline::MlrConfig;
use pmu_detect::DetectorConfig;
use pmu_sim::{Dataset, GenConfig};

use crate::bundle::{bundle_key, fp_hex, ModelBundle, ModelError, ReuseStats, ENVELOPE};
use crate::Result;

/// How [`ArtifactStore::load_or_train_outcome`] obtained its bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildOutcome {
    /// A persisted bundle matched the inputs exactly; training skipped.
    CacheHit,
    /// No reusable artifact; trained from scratch.
    Cold,
    /// Warm-start incremental rebuild: `reused` of `total` per-case
    /// subspace bases came from a stored bundle, the rest (and all
    /// aggregate state) were recomputed. Bit-identical to a cold train.
    Incremental(ReuseStats),
}

impl BuildOutcome {
    /// `true` when training was skipped entirely (a store hit).
    pub fn is_hit(self) -> bool {
        matches!(self, BuildOutcome::CacheHit)
    }
}

/// Most files a donor scan will probe before giving up. Bundles are a
/// few MB of JSON; probing is one parse each, so an unbounded scan of a
/// long-lived store directory could cost more than the training it
/// saves.
const DONOR_SCAN_CAP: usize = 64;

/// How process-wide consumers resolve their artifact store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorePolicy {
    /// Use the `PMU_ARTIFACTS` environment variable when set, otherwise no
    /// store. The starting policy of every process.
    FromEnv,
    /// No store, even if `PMU_ARTIFACTS` is set. Benchmarks measuring
    /// training cost use this so a warm store cannot contaminate timings.
    Disabled,
    /// Use this directory.
    Dir(PathBuf),
}

static POLICY: Mutex<StorePolicy> = Mutex::new(StorePolicy::FromEnv);

/// Set the process-wide [`StorePolicy`] consulted by [`default_store`].
pub fn set_store_policy(policy: StorePolicy) {
    *POLICY.lock().unwrap_or_else(|p| p.into_inner()) = policy;
}

/// Resolve the process-wide artifact store per the current policy.
///
/// Returns `None` when no store is configured (callers then train in
/// memory) and silently falls back to `None` when the configured
/// directory cannot be created — a missing store is a performance
/// degradation, not a correctness failure.
pub fn default_store() -> Option<ArtifactStore> {
    let policy = POLICY.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let dir = match policy {
        StorePolicy::Disabled => return None,
        StorePolicy::Dir(dir) => dir,
        StorePolicy::FromEnv => {
            let raw = std::env::var("PMU_ARTIFACTS").ok()?;
            let trimmed = raw.trim();
            if trimmed.is_empty() {
                return None;
            }
            PathBuf::from(trimmed)
        }
    };
    ArtifactStore::new(&dir).ok()
}

/// A directory of content-addressed, self-verifying model bundles.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    /// [`ModelError::Io`] when the directory cannot be created.
    pub fn new(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ModelError::Io { path: dir.to_path_buf(), msg: e.to_string() })?;
        Ok(ArtifactStore { dir: dir.to_path_buf() })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a bundle with this key lives at (whether or not it exists).
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("bundle-{}.json", fp_hex(key)))
    }

    /// Look up a bundle by key. `Ok(None)` when no artifact exists.
    ///
    /// A *corrupt* artifact (checksum/schema/parse failure) also resolves
    /// to `Ok(None)` — the caller retrains and overwrites it — after
    /// counting `model.store_corrupt`. Only genuine I/O trouble on an
    /// existing file surfaces as an error.
    ///
    /// # Errors
    /// [`ModelError::Io`] when the file exists but cannot be read.
    pub fn load(&self, key: u64) -> Result<Option<ModelBundle>> {
        let path = self.path_for(key);
        if !path.exists() {
            return Ok(None);
        }
        match ModelBundle::load_tagged(&path, true) {
            Ok(bundle) => Ok(Some(bundle)),
            Err(ModelError::Io { path, msg }) => Err(ModelError::Io { path, msg }),
            Err(err) => {
                pmu_obs::counter!("model.store_corrupt").inc();
                pmu_obs::info(&format!(
                    "artifact store: discarding unusable bundle {}: {err}",
                    path.display()
                ));
                Ok(None)
            }
        }
    }

    /// Persist a bundle under its content key, atomically (write to a
    /// sibling temp file, then rename), and return the final path.
    ///
    /// # Errors
    /// [`ModelError::Io`] on filesystem failure; serialization errors as
    /// in [`ModelBundle::to_json`].
    pub fn save(&self, bundle: &ModelBundle) -> Result<PathBuf> {
        let key = bundle.key()?;
        let path = self.path_for(key);
        let tmp = self.dir.join(format!("bundle-{}.json.tmp-{}", fp_hex(key), std::process::id()));
        bundle.save(&tmp)?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            ModelError::Io { path: path.clone(), msg: e.to_string() }
        })?;
        Ok(path)
    }

    /// The core train-once/serve-many primitive: return a bundle for these
    /// training inputs, reusing a persisted one when it is present, intact
    /// and fingerprint-compatible with `dataset`, training (and filing)
    /// otherwise.
    ///
    /// The boolean is `true` on a warm hit — the caller skipped training.
    /// Counted as `model.store_hit` / `model.store_miss`.
    ///
    /// # Errors
    /// [`ModelError::Io`] on filesystem failure, [`ModelError::Train`]
    /// when a miss's training fails.
    pub fn load_or_train(
        &self,
        dataset: &Dataset,
        gen: &GenConfig,
        detector_cfg: &DetectorConfig,
        mlr_cfg: &MlrConfig,
    ) -> Result<(ModelBundle, bool)> {
        let (bundle, outcome) =
            self.load_or_train_outcome(dataset, gen, detector_cfg, mlr_cfg)?;
        Ok((bundle, outcome.is_hit()))
    }

    /// [`ArtifactStore::load_or_train`] reporting *how* the bundle was
    /// obtained, including the warm-start incremental path:
    ///
    /// 1. exact key hit + matching fingerprints → [`BuildOutcome::CacheHit`];
    /// 2. key hit but the dataset bits drifted (simulator revision) →
    ///    incremental rebuild reusing the stale bundle's per-case bases;
    /// 3. key miss → scan the store for a *donor* bundle (same topology
    ///    and detector configuration, overlapping case fingerprints —
    ///    e.g. the previous scale or an evaluation-side config change)
    ///    and rebuild incrementally from it;
    /// 4. otherwise train cold.
    ///
    /// Incremental results are bit-identical to a cold train (see
    /// [`ModelBundle::train_incremental`]) and are persisted under their
    /// own key like any other bundle.
    ///
    /// # Errors
    /// As [`ArtifactStore::load_or_train`].
    pub fn load_or_train_outcome(
        &self,
        dataset: &Dataset,
        gen: &GenConfig,
        detector_cfg: &DetectorConfig,
        mlr_cfg: &MlrConfig,
    ) -> Result<(ModelBundle, BuildOutcome)> {
        let key = bundle_key(&dataset.network, gen, detector_cfg, mlr_cfg)?;
        let mut donor: Option<ModelBundle> = None;
        if let Some(bundle) = self.load(key)? {
            if bundle.verify_against(dataset).is_ok() {
                pmu_obs::counter!("model.store_hit").inc();
                return Ok((bundle, BuildOutcome::CacheHit));
            }
            // Key collision or fingerprint recipe drift: the artifact is
            // intact but not trained on these inputs. It is still the
            // best incremental donor candidate — same key means same
            // topology and configs, so any unchanged case basis is
            // reusable verbatim.
            pmu_obs::counter!("model.store_stale").inc();
            donor = Some(bundle);
        }
        pmu_obs::counter!("model.store_miss").inc();
        if donor.is_none() {
            donor = self.find_donor(dataset, detector_cfg, key);
        }
        if let Some(prev) = donor {
            match ModelBundle::train_incremental(dataset, gen, detector_cfg, mlr_cfg, &prev) {
                Ok((bundle, stats)) if stats.reused > 0 => {
                    pmu_obs::counter!("model.store_incremental").inc();
                    self.save(&bundle)?;
                    return Ok((bundle, BuildOutcome::Incremental(stats)));
                }
                // No overlap (or an incompatible donor slipped through):
                // the incremental train *is* a cold train in that case —
                // keep it rather than paying for training twice.
                Ok((bundle, _)) => {
                    self.save(&bundle)?;
                    return Ok((bundle, BuildOutcome::Cold));
                }
                Err(err) => {
                    pmu_obs::info(&format!(
                        "artifact store: incremental reuse unavailable ({err}); training cold"
                    ));
                }
            }
        }
        let bundle = ModelBundle::train(dataset, gen, detector_cfg, mlr_cfg)?;
        self.save(&bundle)?;
        Ok((bundle, BuildOutcome::Cold))
    }

    /// Scan the store for the bundle that shares the most per-case
    /// training-window fingerprints with `dataset` (same topology and
    /// detector configuration required for bit-faithful reuse). Probes
    /// each file with a single envelope parse — no full deserialization
    /// until a best candidate is chosen — and gives up quietly on any
    /// I/O or parse trouble: a donor is an optimization, never a
    /// requirement.
    fn find_donor(
        &self,
        dataset: &Dataset,
        detector_cfg: &DetectorConfig,
        skip_key: u64,
    ) -> Option<ModelBundle> {
        let net_fp = fp_hex(dataset.network.fingerprint());
        let cfg_now = serde_json::to_string(detector_cfg).ok()?;
        let case_fps: std::collections::HashSet<String> =
            dataset.cases.iter().map(|c| fp_hex(c.train_fingerprint())).collect();
        let mut best: Option<(usize, PathBuf)> = None;
        let entries = std::fs::read_dir(&self.dir).ok()?;
        for entry in entries.flatten().take(DONOR_SCAN_CAP) {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("bundle-") || !name.ends_with(".json") {
                continue;
            }
            if path == self.path_for(skip_key) {
                continue; // Already probed through the keyed lookup.
            }
            let Some(overlap) = probe_overlap(&path, &net_fp, &cfg_now, &case_fps) else {
                continue;
            };
            if overlap > 0 && best.as_ref().is_none_or(|&(b, _)| overlap > b) {
                best = Some((overlap, path));
            }
        }
        let (_, path) = best?;
        ModelBundle::load(&path).ok()
    }
}

/// The slice of a bundle payload a donor scan compares.
#[derive(serde::Deserialize)]
struct DonorView {
    network_fingerprint: String,
    detector_cfg: serde::Value,
    case_fingerprints: Vec<String>,
}

/// Count how many of `case_fps` appear in the bundle file at `path`,
/// requiring topology and detector-configuration equality. Rebuilds only
/// the fingerprints and configuration; `None` means "not a usable donor".
fn probe_overlap(
    path: &Path,
    net_fp: &str,
    cfg_now: &str,
    case_fps: &std::collections::HashSet<String>,
) -> Option<usize> {
    let json = std::fs::read_to_string(path).ok()?;
    let donor: DonorView = ENVELOPE.open(&json).ok()?;
    if donor.network_fingerprint != net_fp
        || serde_json::to_string(&donor.detector_cfg).ok()? != cfg_now
    {
        return None;
    }
    Some(donor.case_fingerprints.iter().filter(|fp| case_fps.contains(fp.as_str())).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmu_detect::detector::default_config_for;
    use pmu_sim::generate_dataset;

    fn tmp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("pmu-model-store-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::new(&dir).unwrap()
    }

    fn tiny() -> (Dataset, GenConfig, DetectorConfig, MlrConfig) {
        let net = pmu_grid::cases::ieee14().unwrap();
        let gen = GenConfig { train_len: 8, test_len: 4, ..GenConfig::default() };
        let data = generate_dataset(&net, &gen).unwrap();
        let det_cfg = default_config_for(&net);
        (data, gen, det_cfg, MlrConfig::default())
    }

    #[test]
    fn cold_then_warm() {
        let store = tmp_store("cold-warm");
        let (data, gen, det_cfg, mlr_cfg) = tiny();
        let (first, hit1) = store.load_or_train(&data, &gen, &det_cfg, &mlr_cfg).unwrap();
        assert!(!hit1, "first lookup must train");
        let (second, hit2) = store.load_or_train(&data, &gen, &det_cfg, &mlr_cfg).unwrap();
        assert!(hit2, "second lookup must reuse the artifact");
        // The reused bundle is bit-identical to the one trained.
        assert_eq!(second.to_json().unwrap(), first.to_json().unwrap());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_artifacts_are_retrained_over() {
        let store = tmp_store("corrupt");
        let (data, gen, det_cfg, mlr_cfg) = tiny();
        let (bundle, _) = store.load_or_train(&data, &gen, &det_cfg, &mlr_cfg).unwrap();
        let path = store.path_for(bundle.key().unwrap());
        // Vandalize the artifact.
        std::fs::write(&path, "{\"format\":\"pmu-model-bundle\",\"oops\":true}").unwrap();
        assert!(store.load(bundle.key().unwrap()).unwrap().is_none());
        let (_, hit) = store.load_or_train(&data, &gen, &det_cfg, &mlr_cfg).unwrap();
        assert!(!hit, "corrupt artifact must be retrained, not reused");
        // And the overwrite healed the store.
        let (_, hit) = store.load_or_train(&data, &gen, &det_cfg, &mlr_cfg).unwrap();
        assert!(hit);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_key_is_none() {
        let store = tmp_store("missing");
        assert!(store.load(42).unwrap().is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
