//! The versioned, checksummed trained-model container.
//!
//! ## On-disk format
//!
//! A bundle file is one line of JSON, an *envelope* around the payload:
//! `{"format":"pmu-model-bundle","schema_version":4,"checksum":"9f86…",
//! "bundle":{"system":"ieee14","detector":{…},…}}`. The checksum is the
//! FNV-1a digest of the payload's bytes exactly as written; loading
//! hashes those raw bytes and parses the payload once, never
//! re-rendering it, so any edit to them (whitespace included) is a
//! checksum failure. The vendored `serde_json` renders floats in
//! shortest-roundtrip form, which gives the crate's headline guarantee:
//! a reloaded `Detector`/`MlrDetector` is *bit-identical* to the one that
//! was saved, hence so is every `Detection` it produces, and a re-save is
//! byte-identical to the file.
//!
//! ## Schema versioning
//!
//! [`SCHEMA_VERSION`] is bumped whenever the payload layout changes
//! incompatibly (a field added to [`Detector`], a config renamed, a
//! fingerprint recipe revision). Loading a bundle with a different version
//! fails with [`ModelError::SchemaMismatch`] — older artifacts are
//! retrained, never reinterpreted.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pmu_baseline::{MlrConfig, MlrDetector};
use pmu_detect::{Detector, DetectorConfig};
use pmu_grid::Network;
use pmu_numerics::hash::Fnv1a;
use pmu_obs::events::{BundleLoaded, BundleSaved};
use pmu_sim::{Dataset, GenConfig};

use crate::envelope::{malformed, Envelope};
use crate::Result;

/// Version of the bundle payload layout. Bump on any incompatible change
/// to the serialized shape of the bundle or its components.
///
/// History: 4 — the detector config carries the bad-data screen knobs
/// (`robust_screen`, `robust_threshold`, `robust_budget`); 3 — per-case
/// training-window fingerprint table for warm-start incremental rebuilds
/// (plus the detector's `exact_svd` switch and the MLR whitening
/// projection); 2 — the detector carries a packed full-observation
/// projector bank and precomputed capability ordering (plus shortlist
/// config fields); 1 — initial layout.
pub const SCHEMA_VERSION: u32 = 4;

/// The envelope bundle files are sealed in.
pub(crate) const ENVELOPE: Envelope = Envelope {
    format: "pmu-model-bundle",
    schema_version: SCHEMA_VERSION,
    payload_key: "bundle",
};

/// Typed failure modes of bundle (de)serialization and reuse.
///
/// Every way an artifact can be wrong maps to a variant — corrupted or
/// truncated files, schema skew, bit rot, topology/data drift — so
/// callers can distinguish "retrain and overwrite" from "hard I/O error"
/// without ever seeing a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Filesystem-level failure reading or writing an artifact.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error message.
        msg: String,
    },
    /// The file is not a parseable bundle (bad JSON, missing fields,
    /// wrong `format` marker, un-rebuildable payload).
    Malformed(String),
    /// The bundle was written under a different payload layout.
    SchemaMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands ([`SCHEMA_VERSION`]).
        expected: u32,
    },
    /// The payload does not hash to the recorded checksum (bit rot or a
    /// hand-edited file).
    ChecksumMismatch {
        /// Digest recorded in the envelope.
        stored: String,
        /// Digest of the payload as found.
        computed: String,
    },
    /// The bundle is intact but was trained against different inputs
    /// (another topology or dataset realization).
    Incompatible {
        /// Which fingerprint disagreed (`"network"` / `"dataset"`).
        what: &'static str,
        /// Fingerprint recorded in the bundle.
        stored: String,
        /// Fingerprint of the inputs presented now.
        actual: String,
    },
    /// Training itself failed while producing a bundle.
    Train(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Io { path, msg } => write!(f, "{}: {msg}", path.display()),
            ModelError::Malformed(m) => write!(f, "malformed bundle: {m}"),
            ModelError::SchemaMismatch { found, expected } => {
                write!(
                    f,
                    "bundle schema version {found}, this build expects {expected}; \
                     retrain the bundle (pmu-outage train) — old artifacts are \
                     never reinterpreted"
                )
            }
            ModelError::ChecksumMismatch { stored, computed } => {
                write!(f, "bundle checksum mismatch: file says {stored}, payload hashes to {computed}")
            }
            ModelError::Incompatible { what, stored, actual } => {
                write!(f, "bundle {what} fingerprint {stored} does not match current inputs ({actual})")
            }
            ModelError::Train(m) => write!(f, "training failed: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Render a fingerprint as the fixed-width hex form used in bundles.
///
/// Fingerprints are stored as strings rather than raw `u64`s because the
/// vendored serde's integer model is `i64` — digests with the top bit set
/// would not survive a round trip as numbers.
pub fn fp_hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Everything the online stage needs, in one serializable unit.
///
/// A bundle records not just the trained models but the *provenance* that
/// makes reuse safe: the exact generator/detector/baseline configurations,
/// the master seed, and content fingerprints of the network and the
/// training dataset. [`ModelBundle::verify_against`] checks that
/// provenance before a persisted bundle is allowed to stand in for fresh
/// training.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// Canonical system name (e.g. `"ieee14"`).
    pub system: String,
    /// Hex [`Network::fingerprint`] of the training topology.
    pub network_fingerprint: String,
    /// Hex [`Dataset::fingerprint`](pmu_sim::Dataset::fingerprint) of the
    /// training data.
    pub dataset_fingerprint: String,
    /// Master seed the dataset was generated from (mirrors `gen.seed`).
    pub seed: u64,
    /// Dataset-generator configuration (carries scale via
    /// `train_len`/`test_len`).
    pub gen: GenConfig,
    /// Detector configuration the subspace detector was trained with.
    pub detector_cfg: DetectorConfig,
    /// Baseline configuration the MLR comparator was trained with.
    pub mlr_cfg: MlrConfig,
    /// The trained subspace detector (Sec. IV).
    pub detector: Detector,
    /// The trained multinomial-logistic-regression baseline.
    pub mlr: MlrDetector,
    /// Per-case training-window fingerprints
    /// ([`OutageCase::train_fingerprint`](pmu_sim::dataset::OutageCase::train_fingerprint)
    /// as hex), aligned with the detector's per-case subspaces. An
    /// incremental rebuild matches these against the new dataset's cases
    /// and reuses the stored basis wherever the digest (and the detector
    /// configuration) is unchanged — bit-identical reuse, since each
    /// basis is a pure function of its window bits.
    pub case_fingerprints: Vec<String>,
}

/// What an incremental rebuild managed to reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseStats {
    /// Outage cases in the new dataset.
    pub total: usize,
    /// Cases whose stored subspace basis was reused verbatim.
    pub reused: usize,
}

impl ModelBundle {
    /// Train both models on `dataset` and package them with full
    /// provenance.
    ///
    /// # Errors
    /// [`ModelError::Train`] when detector training rejects the dataset.
    pub fn train(
        dataset: &Dataset,
        gen: &GenConfig,
        detector_cfg: &DetectorConfig,
        mlr_cfg: &MlrConfig,
    ) -> Result<Self> {
        let mut sp = pmu_obs::span("model.train_bundle")
            .with("system", dataset.network.name.as_str())
            .with("cases", dataset.n_cases());
        let started = Instant::now();
        let detector =
            Detector::train(dataset, detector_cfg).map_err(|e| ModelError::Train(e.to_string()))?;
        let mlr = MlrDetector::train(dataset, mlr_cfg);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        pmu_obs::histogram!("model.train_ms").observe(ms);
        sp.record("ms", ms);
        Ok(Self::assemble(dataset, gen, detector_cfg, mlr_cfg, detector, mlr))
    }

    /// Train incrementally against a previous bundle: per-case subspace
    /// bases whose training-window fingerprint (and detector
    /// configuration) is unchanged are reused verbatim; everything else —
    /// changed case bases, node unions/intersections, ellipses,
    /// capabilities, groups, calibration, and the packed scorer bank — is
    /// recomputed. The resulting **detector is bit-identical** to
    /// [`ModelBundle::train`] on the same inputs (each reused basis is a
    /// pure function of its unchanged window), just cheaper. The MLR
    /// baseline is **warm-started** from the previous bundle
    /// ([`MlrDetector::train_warm`]): same classifier family, converged
    /// on the new data from the previous optimum, so it is behaviourally
    /// equivalent to — but not bit-identical with — a cold train. Without
    /// this the baseline's full gradient descent dominates the rebuild
    /// and the incremental path saves almost nothing.
    ///
    /// # Errors
    /// [`ModelError::Incompatible`] when `prev` was trained on a
    /// different topology or with a different detector configuration
    /// (reuse would not be bit-faithful); [`ModelError::Train`] as in
    /// [`ModelBundle::train`].
    pub fn train_incremental(
        dataset: &Dataset,
        gen: &GenConfig,
        detector_cfg: &DetectorConfig,
        mlr_cfg: &MlrConfig,
        prev: &ModelBundle,
    ) -> Result<(Self, ReuseStats)> {
        let net_fp = fp_hex(dataset.network.fingerprint());
        if net_fp != prev.network_fingerprint {
            return Err(ModelError::Incompatible {
                what: "network",
                stored: prev.network_fingerprint.clone(),
                actual: net_fp,
            });
        }
        // The per-case basis depends on the detector configuration
        // (measurement kind, rank, decomposition path); compare the full
        // rendered config — the same canonical form the bundle key uses.
        let cfg_now = serde_json::to_string(detector_cfg).map_err(malformed)?;
        let cfg_prev = serde_json::to_string(&prev.detector_cfg).map_err(malformed)?;
        if cfg_now != cfg_prev {
            return Err(ModelError::Incompatible {
                what: "detector_cfg",
                stored: cfg_prev,
                actual: cfg_now,
            });
        }

        let mut sp = pmu_obs::span("model.train_incremental")
            .with("system", dataset.network.name.as_str())
            .with("cases", dataset.n_cases());
        let started = Instant::now();
        let prev_cases = &prev.detector.subspaces().per_case;
        let mut by_fp: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (i, fp) in prev.case_fingerprints.iter().enumerate() {
            by_fp.entry(fp.as_str()).or_insert(i);
        }
        let reuse: Vec<Option<&pmu_numerics::Subspace>> = dataset
            .cases
            .iter()
            .map(|c| {
                by_fp
                    .get(fp_hex(c.train_fingerprint()).as_str())
                    .and_then(|&i| prev_cases.get(i))
            })
            .collect();
        let stats = ReuseStats {
            total: dataset.n_cases(),
            reused: reuse.iter().filter(|r| r.is_some()).count(),
        };
        let detector = Detector::train_reusing(dataset, detector_cfg, &reuse)
            .map_err(|e| ModelError::Train(e.to_string()))?;
        let mlr = MlrDetector::train_warm(dataset, mlr_cfg, &prev.mlr);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        pmu_obs::histogram!("model.train_incremental_ms").observe(ms);
        pmu_obs::counter!("model.reused_bases").add(stats.reused as u64);
        sp.record("reused", stats.reused);
        sp.record("ms", ms);
        Ok((Self::assemble(dataset, gen, detector_cfg, mlr_cfg, detector, mlr), stats))
    }

    /// Package trained models with full provenance (shared by the cold
    /// and incremental training paths).
    fn assemble(
        dataset: &Dataset,
        gen: &GenConfig,
        detector_cfg: &DetectorConfig,
        mlr_cfg: &MlrConfig,
        detector: Detector,
        mlr: MlrDetector,
    ) -> Self {
        ModelBundle {
            system: dataset.network.name.clone(),
            network_fingerprint: fp_hex(dataset.network.fingerprint()),
            dataset_fingerprint: fp_hex(dataset.fingerprint()),
            seed: gen.seed,
            gen: gen.clone(),
            detector_cfg: detector_cfg.clone(),
            mlr_cfg: mlr_cfg.clone(),
            detector,
            mlr,
            case_fingerprints: dataset
                .cases
                .iter()
                .map(|c| fp_hex(c.train_fingerprint()))
                .collect(),
        }
    }

    /// The content-addressed artifact-store key for this bundle's training
    /// inputs. Delegates to [`bundle_key`].
    ///
    /// # Errors
    /// Propagates serialization failures as [`ModelError::Malformed`].
    pub fn key(&self) -> Result<u64> {
        key_from_parts(&self.network_fingerprint, &self.gen, &self.detector_cfg, &self.mlr_cfg)
    }

    /// Check that this bundle was trained on exactly the inputs presented.
    ///
    /// # Errors
    /// [`ModelError::Incompatible`] naming the fingerprint that disagreed.
    pub fn verify_against(&self, dataset: &Dataset) -> Result<()> {
        let net_fp = fp_hex(dataset.network.fingerprint());
        if net_fp != self.network_fingerprint {
            return Err(ModelError::Incompatible {
                what: "network",
                stored: self.network_fingerprint.clone(),
                actual: net_fp,
            });
        }
        let data_fp = fp_hex(dataset.fingerprint());
        if data_fp != self.dataset_fingerprint {
            return Err(ModelError::Incompatible {
                what: "dataset",
                stored: self.dataset_fingerprint.clone(),
                actual: data_fp,
            });
        }
        Ok(())
    }

    /// Serialize to the checksummed envelope format.
    ///
    /// # Errors
    /// [`ModelError::Malformed`] when a component refuses to serialize
    /// (non-finite floats in a trained model would be one way).
    pub fn to_json(&self) -> Result<String> {
        ENVELOPE.seal(self)
    }

    /// Parse and verify an envelope produced by [`ModelBundle::to_json`].
    ///
    /// # Errors
    /// [`ModelError::Malformed`] for unparseable input or a missing/wrong
    /// `format` marker, [`ModelError::SchemaMismatch`] for version skew,
    /// [`ModelError::ChecksumMismatch`] when the payload fails integrity
    /// verification.
    pub fn from_json(s: &str) -> Result<Self> {
        ENVELOPE.open(s)
    }

    /// Write the bundle to `path` (envelope format), emitting a
    /// [`BundleSaved`] observation.
    ///
    /// # Errors
    /// [`ModelError::Io`] on filesystem failure; serialization errors as
    /// in [`ModelBundle::to_json`].
    pub fn save(&self, path: &Path) -> Result<()> {
        let started = Instant::now();
        let json = self.to_json()?;
        std::fs::write(path, &json)
            .map_err(|e| ModelError::Io { path: path.to_path_buf(), msg: e.to_string() })?;
        BundleSaved {
            system: self.system.clone(),
            bytes: json.len(),
            ms: started.elapsed().as_secs_f64() * 1e3,
        }
        .emit();
        Ok(())
    }

    /// Read and verify a bundle from `path`, emitting a [`BundleLoaded`]
    /// observation (`cache_hit` false — direct loads are not store hits).
    ///
    /// # Errors
    /// [`ModelError::Io`] on filesystem failure; parse/verify errors as in
    /// [`ModelBundle::from_json`].
    pub fn load(path: &Path) -> Result<Self> {
        Self::load_tagged(path, false)
    }

    /// [`ModelBundle::load`] with the `cache_hit` flag the emitted
    /// [`BundleLoaded`] event carries (the artifact store passes `true`).
    pub(crate) fn load_tagged(path: &Path, cache_hit: bool) -> Result<Self> {
        let started = Instant::now();
        let json = std::fs::read_to_string(path)
            .map_err(|e| ModelError::Io { path: path.to_path_buf(), msg: e.to_string() })?;
        let bundle = Self::from_json(&json)?;
        BundleLoaded {
            system: bundle.system.clone(),
            bytes: json.len(),
            ms: started.elapsed().as_secs_f64() * 1e3,
            cache_hit,
        }
        .emit();
        Ok(bundle)
    }
}

/// Content-addressed key of a bundle's training inputs: schema version,
/// network fingerprint, and the serialized generator/detector/baseline
/// configurations (scale and seed ride inside `gen`).
///
/// Two invocations that would train byte-identical models produce the
/// same key; changing any input — a branch parameter, the seed, a
/// training length, an ellipse method — produces a different one.
///
/// # Errors
/// Propagates serialization failures as [`ModelError::Malformed`].
pub fn bundle_key(
    network: &Network,
    gen: &GenConfig,
    detector_cfg: &DetectorConfig,
    mlr_cfg: &MlrConfig,
) -> Result<u64> {
    key_from_parts(&fp_hex(network.fingerprint()), gen, detector_cfg, mlr_cfg)
}

fn key_from_parts(
    network_fp_hex: &str,
    gen: &GenConfig,
    detector_cfg: &DetectorConfig,
    mlr_cfg: &MlrConfig,
) -> Result<u64> {
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(SCHEMA_VERSION));
    h.write_str(network_fp_hex);
    for rendered in [
        serde_json::to_string(gen),
        serde_json::to_string(detector_cfg),
        serde_json::to_string(mlr_cfg),
    ] {
        h.write_str(&rendered.map_err(malformed)?);
    }
    Ok(h.finish())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmu_detect::detector::default_config_for;
    use pmu_sim::generate_dataset;

    fn tiny_dataset() -> Dataset {
        let net = pmu_grid::cases::ieee14().unwrap();
        let cfg = GenConfig { train_len: 8, test_len: 4, ..GenConfig::default() };
        generate_dataset(&net, &cfg).unwrap()
    }

    pub(crate) fn tiny_bundle() -> ModelBundle {
        let data = tiny_dataset();
        let gen = GenConfig { train_len: 8, test_len: 4, ..GenConfig::default() };
        let det_cfg = default_config_for(&data.network);
        ModelBundle::train(&data, &gen, &det_cfg, &MlrConfig::default()).unwrap()
    }

    #[test]
    fn envelope_roundtrip_is_lossless() {
        let bundle = tiny_bundle();
        let json = bundle.to_json().unwrap();
        let back = ModelBundle::from_json(&json).unwrap();
        assert_eq!(back.system, bundle.system);
        assert_eq!(back.network_fingerprint, bundle.network_fingerprint);
        assert_eq!(back.dataset_fingerprint, bundle.dataset_fingerprint);
        assert_eq!(back.seed, bundle.seed);
        // The reloaded bundle re-serializes to the identical string — the
        // bit-exactness guarantee at the strongest level.
        assert_eq!(back.to_json().unwrap(), json);
    }

    #[test]
    fn provenance_verification() {
        let bundle = tiny_bundle();
        let data = tiny_dataset();
        bundle.verify_against(&data).unwrap();
        // A different realization of the same topology is rejected.
        let other = generate_dataset(
            &data.network,
            &GenConfig { train_len: 8, test_len: 4, seed: 99, ..GenConfig::default() },
        )
        .unwrap();
        match bundle.verify_against(&other) {
            Err(ModelError::Incompatible { what: "dataset", .. }) => {}
            other => panic!("expected dataset incompatibility, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_is_a_checksum_error() {
        let json = tiny_bundle().to_json().unwrap();
        // Flip one digit inside the payload (find a "0.0" run deep in the
        // bundle and perturb it) without breaking JSON syntax.
        let idx = json.rfind("0.0").expect("payload contains a float");
        let mut bad = json.clone();
        bad.replace_range(idx..idx + 3, "0.5");
        match ModelBundle::from_json(&bad) {
            Err(ModelError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_alien_files_are_malformed() {
        let json = tiny_bundle().to_json().unwrap();
        match ModelBundle::from_json(&json[..json.len() / 2]) {
            Err(ModelError::Malformed(_)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
        match ModelBundle::from_json("{\"hello\":1}") {
            Err(ModelError::Malformed(_)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_a_schema_error() {
        let json = tiny_bundle().to_json().unwrap();
        let bad = json.replace(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":999",
        );
        match ModelBundle::from_json(&bad) {
            Err(ModelError::SchemaMismatch { found: 999, .. }) => {}
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    /// A pre-packed-scorer artifact (schema 1) must fail with the typed,
    /// actionable schema error — *before* any payload interpretation —
    /// never load into a detector missing its projector bank.
    #[test]
    fn pre_packed_bundle_rejected_with_actionable_error() {
        let json = tiny_bundle().to_json().unwrap();
        let old = json.replace(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":1",
        );
        let err = ModelBundle::from_json(&old).unwrap_err();
        assert_eq!(
            err,
            ModelError::SchemaMismatch { found: 1, expected: SCHEMA_VERSION }
        );
        let msg = err.to_string();
        assert!(msg.contains("schema version 1"), "{msg}");
        assert!(msg.contains("retrain"), "error must tell the operator what to do: {msg}");
    }

    #[test]
    fn keys_track_training_inputs() {
        let data = tiny_dataset();
        let gen = GenConfig { train_len: 8, test_len: 4, ..GenConfig::default() };
        let det_cfg = default_config_for(&data.network);
        let mlr_cfg = MlrConfig::default();
        let k = bundle_key(&data.network, &gen, &det_cfg, &mlr_cfg).unwrap();
        assert_eq!(k, bundle_key(&data.network, &gen, &det_cfg, &mlr_cfg).unwrap());
        let other_seed = GenConfig { seed: 7, ..gen.clone() };
        assert_ne!(k, bundle_key(&data.network, &other_seed, &det_cfg, &mlr_cfg).unwrap());
        let other_scale = GenConfig { train_len: 9, ..gen.clone() };
        assert_ne!(k, bundle_key(&data.network, &other_scale, &det_cfg, &mlr_cfg).unwrap());
        let net30 = pmu_grid::cases::ieee30().unwrap();
        assert_ne!(k, bundle_key(&net30, &gen, &det_cfg, &mlr_cfg).unwrap());
        // The bundle's own key matches the free-function form.
        let bundle = ModelBundle::train(&data, &gen, &det_cfg, &mlr_cfg).unwrap();
        assert_eq!(bundle.key().unwrap(), k);
    }

    /// The store key of the ieee14 bundle that `repro --scale fast` and
    /// `pmu-outage train ieee14` build (`EvalScale::Fast.gen_config(0xC0FFEE)`,
    /// spelled out here because `pmu-eval` depends on this crate). Every
    /// stored artifact is addressed by such a key, so a change to this
    /// literal orphans every artifact store: update it only on purpose,
    /// and record it in the change log.
    #[test]
    fn fast_ieee14_key_is_pinned() {
        let net = pmu_grid::cases::ieee14().unwrap();
        let gen = GenConfig { train_len: 16, test_len: 5, seed: 0xC0FFEE, ..GenConfig::default() };
        let key = bundle_key(&net, &gen, &default_config_for(&net), &MlrConfig::default());
        assert_eq!(key.unwrap(), 0xacf6_1c0d_9069_3d29);
    }
}
