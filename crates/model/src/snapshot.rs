//! Checksummed, schema-versioned **session snapshots** — the persistence
//! format that lets a serving session survive process restart and
//! migrate between fleet shards.
//!
//! A [`SessionSnapshot`] is to a live streaming session what a
//! [`ModelBundle`](crate::ModelBundle) is to a trained detector: a
//! deterministic, integrity-checked serialization with enough provenance
//! to make restoring it *safe*, sealed in the bundle's checksummed
//! envelope under the `pmu-session-snapshot` marker and the `session`
//! payload key. The payload embeds the detector-level [`StreamSnapshot`]
//! plus the serving-level state (degraded-mode machine, ingestion
//! counters) and the **network fingerprint of the bundle the session was
//! running against** — a snapshot can only be restored into an engine
//! serving the same topology, so a resurrected voting history can never
//! be replayed against a stranger's detector.
//!
//! What is *not* here: the trained detector (it lives in the bundle) and
//! any scoring-cache state (a pure memoization, re-derived on restore).
//! Restoring a snapshot therefore costs one detector clone, not a
//! retrain.

use std::path::Path;

use pmu_detect::stream::StreamSnapshot;

use crate::bundle::{fp_hex, ModelError};
use crate::envelope::Envelope;
use crate::Result;

/// Version of the session-snapshot payload layout. Bumped on any
/// incompatible change to [`SessionSnapshot`] or the embedded
/// [`StreamSnapshot`]; skewed snapshots are refused, never reinterpreted
/// (the session simply restarts cold — unlike a model, a lost session is
/// an inconvenience, not a retrain).
///
/// History: 2 — the embedded [`StreamSnapshot`] carries the bad-data
/// counter (`bad_data_samples`) and verdicts carry `suspect_nodes`, and
/// the `recent` outcome tags gained `"baddata"`; 1 — initial layout.
pub const SESSION_SCHEMA_VERSION: u32 = 2;

/// The envelope session-snapshot files are sealed in.
pub(crate) const ENVELOPE: Envelope = Envelope {
    format: "pmu-session-snapshot",
    schema_version: SESSION_SCHEMA_VERSION,
    payload_key: "session",
};

/// One serving session's complete persistent state.
///
/// All identifiers that are `u64` at runtime (`feed`, fingerprints) are
/// stored as 16-hex-char strings: the vendored serde's integer model is
/// `i64`, so values with the top bit set would not survive a numeric
/// round trip. The serving-level enums (feed mode, recent push outcomes)
/// are stored as their machine-stable string tags — `pmu-serve` owns the
/// enum↔tag mapping, keeping this crate free of a dependency cycle.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// System the serving bundle was trained on (e.g. `"ieee14"`).
    pub system: String,
    /// Hex network fingerprint of the serving bundle — the restore-time
    /// compatibility check.
    pub network_fingerprint: String,
    /// Fleet grid name the session was hosted under.
    pub grid: String,
    /// Feed identifier within the grid, as a 16-hex-char string
    /// ([`fp_hex`]).
    pub feed: String,
    /// Degraded-mode state tag (`"healthy"`, `"degraded_missing"`,
    /// `"degraded_rejected"`, `"degraded_baddata"`, `"dark"`).
    pub mode: String,
    /// Recent push outcomes driving the mode machine, oldest first
    /// (`"scored"` / `"missing"` / `"rejected"` / `"baddata"`).
    pub recent: Vec<String>,
    /// Samples accepted into the voting window.
    pub pushed: usize,
    /// Samples refused by the ingestion guard.
    pub rejected: usize,
    /// Whether an incident dump is open for an ongoing anomaly (restored
    /// so a resumed anomaly does not dump twice).
    pub incident_open: bool,
    /// The detector-level voting state.
    pub stream: StreamSnapshot,
}

impl SessionSnapshot {
    /// The feed identifier parsed back from its hex form.
    ///
    /// # Errors
    /// [`ModelError::Malformed`] when the stored string is not 16 hex
    /// characters.
    pub fn feed_id(&self) -> Result<u64> {
        u64::from_str_radix(&self.feed, 16)
            .map_err(|e| ModelError::Malformed(format!("bad feed id {:?}: {e}", self.feed)))
    }

    /// Render a feed id into the stored hex form (shared with
    /// [`fp_hex`] so snapshots and bundles agree on the convention).
    pub fn feed_hex(feed: u64) -> String {
        fp_hex(feed)
    }

    /// Serialize to the checksummed envelope format.
    ///
    /// # Errors
    /// [`ModelError::Malformed`] when a component refuses to serialize.
    pub fn to_json(&self) -> Result<String> {
        ENVELOPE.seal(self)
    }

    /// Parse and verify an envelope produced by
    /// [`SessionSnapshot::to_json`].
    ///
    /// # Errors
    /// As [`ModelBundle::from_json`](crate::ModelBundle::from_json).
    pub fn from_json(s: &str) -> Result<Self> {
        ENVELOPE.open(s)
    }

    /// Write the snapshot to `path` (envelope format).
    ///
    /// # Errors
    /// [`ModelError::Io`] on filesystem failure; serialization errors as
    /// in [`SessionSnapshot::to_json`].
    pub fn save(&self, path: &Path) -> Result<()> {
        let json = self.to_json()?;
        std::fs::write(path, &json)
            .map_err(|e| ModelError::Io { path: path.to_path_buf(), msg: e.to_string() })?;
        pmu_obs::counter!("model.session_snapshots_saved").inc();
        Ok(())
    }

    /// Read and verify a snapshot from `path`.
    ///
    /// # Errors
    /// [`ModelError::Io`] on filesystem failure; parse/verify errors as
    /// in [`SessionSnapshot::from_json`].
    pub fn load(path: &Path) -> Result<Self> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| ModelError::Io { path: path.to_path_buf(), msg: e.to_string() })?;
        let snap = Self::from_json(&json)?;
        pmu_obs::counter!("model.session_snapshots_loaded").inc();
        Ok(snap)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_snapshot() -> SessionSnapshot {
        SessionSnapshot {
            system: "ieee14".into(),
            network_fingerprint: fp_hex(0xDEAD_BEEF_u64),
            grid: "east".into(),
            feed: SessionSnapshot::feed_hex(42),
            mode: "degraded_missing".into(),
            recent: vec![
                "scored".into(),
                "missing".into(),
                "rejected".into(),
                "baddata".into(),
            ],
            pushed: 11,
            rejected: 2,
            incident_open: true,
            stream: StreamSnapshot {
                window: 5,
                votes: 3,
                history: vec![None, None],
                active: false,
                lines: Vec::new(),
                samples_seen: 13,
                missing_samples: 4,
                events_raised: 1,
                events_cleared: 1,
                alarm_streak: 0,
                bad_data_samples: 2,
            },
        }
    }

    #[test]
    fn envelope_roundtrip_is_lossless() {
        let snap = sample_snapshot();
        let json = snap.to_json().unwrap();
        let back = SessionSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json().unwrap(), json, "re-render is bit-identical");
        assert_eq!(back.feed_id().unwrap(), 42);
    }

    #[test]
    fn feed_ids_with_the_top_bit_set_survive() {
        let mut snap = sample_snapshot();
        snap.feed = SessionSnapshot::feed_hex(u64::MAX - 1);
        let back = SessionSnapshot::from_json(&snap.to_json().unwrap()).unwrap();
        assert_eq!(back.feed_id().unwrap(), u64::MAX - 1);
        snap.feed = "not-hex".into();
        assert!(matches!(snap.feed_id(), Err(ModelError::Malformed(_))));
    }

    #[test]
    fn tampered_payload_is_a_checksum_error() {
        let json = sample_snapshot().to_json().unwrap();
        let bad = json.replace("\"pushed\":11", "\"pushed\":12");
        match SessionSnapshot::from_json(&bad) {
            Err(ModelError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_and_alien_files_are_refused() {
        let json = sample_snapshot().to_json().unwrap();
        let skewed = json.replace(
            &format!("\"schema_version\":{SESSION_SCHEMA_VERSION}"),
            "\"schema_version\":999",
        );
        match SessionSnapshot::from_json(&skewed) {
            Err(ModelError::SchemaMismatch { found: 999, .. }) => {}
            other => panic!("expected schema mismatch, got {other:?}"),
        }
        match SessionSnapshot::from_json("{\"format\":\"pmu-model-bundle\"}") {
            Err(ModelError::Malformed(_)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
        match SessionSnapshot::from_json(&json[..json.len() / 2]) {
            Err(ModelError::Malformed(_)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir()
            .join(format!("pmu-session-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.snap.json");
        let snap = sample_snapshot();
        snap.save(&path).unwrap();
        assert_eq!(SessionSnapshot::load(&path).unwrap(), snap);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
