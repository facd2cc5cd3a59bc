//! The per-grid serving core behind [`Fleet`](crate::Fleet).
//!
//! [`EngineCore`] holds one registered grid's name and its loaded
//! bundle's immutable half: the trained [`Detector`] (shared by every
//! feed of the grid and by the stateless batch path), the mask-keyed
//! scoring cache, the ingestion guard, the per-push pipeline and the
//! incident machinery. It owns no sessions; the fleet's router keeps
//! those and pushes every feed through [`EngineCore::push_one`], so all
//! grids and shards serve identical per-feed semantics.
//!
//! ## Robustness model
//!
//! The core assumes the telemetry path is hostile (see
//! `pmu_sim::faults`): every inbound sample passes an **ingestion guard**
//! (finiteness, length, mask consistency) before it can reach a detector,
//! failing with [`ServeError::BadSample`]; and each session runs a
//! per-feed **degraded-mode state machine** ([`FeedMode`]) driven by the
//! recent missing, rejection and bad-data ratios.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pmu_detect::stream::{StreamConfig, StreamEvent, StreamingDetector};
use pmu_detect::{DetectError, Detection, Detector, ScoringCache};
use pmu_model::ModelBundle;
use pmu_obs::recorder::{label_id, write_incident_dump, LabelId, RecKind};
use pmu_obs::{Recorder, Value};
use pmu_sim::PhasorSample;

use crate::session::{FeedTag, Outcome, SessionState};
pub use crate::session::{DegradeReason, FeedMode, SessionHealth};

/// Interned per-feed ring labels, resolved once per process.
fn push_labels() -> (LabelId, LabelId, LabelId, LabelId) {
    static LABELS: OnceLock<(LabelId, LabelId, LabelId, LabelId)> = OnceLock::new();
    *LABELS.get_or_init(|| {
        (
            label_id("serve.push_scored"),
            label_id("serve.push_missing"),
            label_id("serve.push_rejected"),
            label_id("serve.push_baddata"),
        )
    })
}

/// Why the ingestion guard refused a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadSampleReason {
    /// An *observed* (unmasked) phasor is NaN or infinite.
    NonFinite {
        /// Node with the non-finite measurement.
        node: usize,
    },
    /// The phasor vector length does not match the serving topology
    /// (e.g. a message truncated in flight).
    WrongLength {
        /// Node count the loaded model serves.
        expected: usize,
        /// Node count the sample carried.
        got: usize,
    },
    /// The mask covers a different node count than the phasor vector.
    /// Unreachable through `PhasorSample`'s constructors; kept as defense
    /// in depth against future construction paths.
    MaskMismatch {
        /// Phasor vector length.
        nodes: usize,
        /// Mask length.
        mask: usize,
    },
}

impl BadSampleReason {
    /// Machine-stable tag used by the `serve.sample_rejected` observation.
    pub fn label(&self) -> &'static str {
        match self {
            BadSampleReason::NonFinite { .. } => "non_finite",
            BadSampleReason::WrongLength { .. } => "wrong_length",
            BadSampleReason::MaskMismatch { .. } => "mask_mismatch",
        }
    }
}

impl std::fmt::Display for BadSampleReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BadSampleReason::NonFinite { node } => {
                write!(f, "observed phasor at node {node} is NaN or infinite")
            }
            BadSampleReason::WrongLength { expected, got } => {
                write!(f, "sample has {got} nodes, model serves {expected}")
            }
            BadSampleReason::MaskMismatch { nodes, mask } => {
                write!(f, "mask covers {mask} nodes, sample has {nodes}")
            }
        }
    }
}

/// Typed serving failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The ingestion guard refused the sample before detection.
    BadSample(BadSampleReason),
    /// The underlying detector rejected the sample.
    Detect(DetectError),
    /// The fleet has no grid registered under this name.
    UnknownGrid(String),
    /// A grid with this name is already registered in the fleet.
    DuplicateGrid(String),
    /// The feed key is not open in the fleet (never opened, or closed).
    UnknownFeed(crate::fleet::FeedKey),
    /// The feed key is already open in the fleet.
    DuplicateFeed(crate::fleet::FeedKey),
    /// The shard's admission controller shed the sample: accepting it
    /// would exceed the shard's bounded ingress queue. Shed load is
    /// counted in `serve.shed_total`; the caller decides whether to
    /// retry, downsample, or drop.
    Overloaded {
        /// Index of the saturated shard.
        shard: usize,
    },
    /// A session snapshot is incompatible with this fleet (wrong
    /// topology fingerprint, unknown state tag, corrupt voting state).
    Snapshot(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadSample(reason) => write!(f, "bad sample: {reason}"),
            ServeError::Detect(e) => write!(f, "detect failed: {e}"),
            ServeError::UnknownGrid(name) => write!(f, "unknown grid {name:?}"),
            ServeError::DuplicateGrid(name) => {
                write!(f, "grid {name:?} is already registered")
            }
            ServeError::UnknownFeed(key) => write!(f, "unknown feed {key}"),
            ServeError::DuplicateFeed(key) => write!(f, "feed {key} is already open"),
            ServeError::Overloaded { shard } => {
                write!(f, "shard {shard} is overloaded; sample shed")
            }
            ServeError::Snapshot(msg) => write!(f, "snapshot rejected: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DetectError> for ServeError {
    fn from(e: DetectError) -> Self {
        ServeError::Detect(e)
    }
}

/// When and where a grid's core snapshots its flight-recorder rings to
/// JSONL incident dumps.
///
/// Dumps are written only when `dir` is set; the trigger flags choose
/// which anomalies open an incident. One incident stays open per
/// session until it returns to [`FeedMode::Healthy`] with no active
/// stream event, so a sustained anomaly produces exactly one dump, not
/// one per push.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentConfig {
    /// Directory incident dumps are written into (created on demand).
    /// `None` disables dumping entirely.
    pub dir: Option<PathBuf>,
    /// Dump when a session's voting window raises a stream event.
    pub on_raise: bool,
    /// Dump when a feed turns [`FeedMode::Dark`].
    pub on_dark: bool,
    /// Dump when a feed degrades for [`DegradeReason::BadData`] — the
    /// bad-data screen is excising suspect channels faster than
    /// plausible for sensor noise, which usually means a miscalibrated
    /// or compromised PMU worth forensics.
    pub on_bad_data: bool,
    /// Dump when the rejected fraction of a full degrade window reaches
    /// this ratio (`None` disables the rejection-spike trigger).
    pub reject_spike_ratio: Option<f64>,
}

impl Default for IncidentConfig {
    /// Raise, Dark, bad-data degrades and a 50% rejection spike trigger.
    /// Dumping stays off until a directory is configured.
    fn default() -> Self {
        IncidentConfig {
            dir: None,
            on_raise: true,
            on_dark: true,
            on_bad_data: true,
            reject_spike_ratio: Some(0.5),
        }
    }
}

/// Per-grid serving knobs, passed to [`Fleet::add_grid`](crate::Fleet::add_grid).
/// Sessions vote with [`StreamConfig::default`] (a restored session keeps
/// its snapshot's window and votes).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Incident-dump triggers and destination.
    pub incident: IncidentConfig,
}

/// One grid's session-agnostic serving state: its registered name, the
/// trained detector, the ingestion guard, the per-push pipeline and the
/// incident machinery. Owns no session — the [`Fleet`](crate::Fleet)'s
/// router does.
pub(crate) struct EngineCore {
    /// The name the grid is registered under in its fleet.
    pub(crate) name: String,
    pub(crate) system: String,
    pub(crate) network_fingerprint: String,
    /// Shared by every session of this core (and by stateless batch
    /// detection), so the model is held once per grid, not per feed.
    pub(crate) detector: Arc<Detector>,
    incident_cfg: IncidentConfig,
    /// Monotonic incident-dump sequence number (also the file-name
    /// prefix, so dump order is reconstructible from a directory
    /// listing).
    incident_seq: AtomicU64,
    /// Scoring memoization shared by stateless batch detection and
    /// every session: masks recur across batches and feeds, so per-mask
    /// restrictions are paid once per core instead of once per call or
    /// per feed.
    pub(crate) cache: Arc<ScoringCache>,
}

impl EngineCore {
    pub(crate) fn from_bundle(name: &str, bundle: ModelBundle, cfg: &EngineConfig) -> Self {
        pmu_obs::counter!("serve.engines_started").inc();
        EngineCore {
            name: name.to_string(),
            system: bundle.system,
            network_fingerprint: bundle.network_fingerprint,
            detector: Arc::new(bundle.detector),
            incident_cfg: cfg.incident.clone(),
            incident_seq: AtomicU64::new(0),
            cache: Arc::default(),
        }
    }

    /// A fresh session state wrapping a new default-voting monitor on
    /// this core's detector and scoring cache.
    pub(crate) fn new_session(&self) -> SessionState {
        SessionState::new(
            StreamingDetector::new(Arc::clone(&self.detector), StreamConfig::default())
                .with_cache(Arc::clone(&self.cache)),
        )
    }

    /// The ingestion guard: check an inbound sample against the serving
    /// topology — vector length, mask/vector skew, and finiteness of the
    /// *observed* values (masked entries are never read) — before any
    /// detector math runs, emitting the rejection observation on failure.
    fn guard(&self, sample: &PhasorSample) -> Result<(), ServeError> {
        let expected = self.detector.n_nodes();
        let got = sample.n_nodes();
        let reason = if got != expected {
            BadSampleReason::WrongLength { expected, got }
        } else if sample.mask().len() != got {
            BadSampleReason::MaskMismatch { nodes: got, mask: sample.mask().len() }
        } else if let Some(node) = sample
            .mask()
            .observed()
            .into_iter()
            .find(|&node| !sample.phasor_unchecked(node).is_finite())
        {
            BadSampleReason::NonFinite { node }
        } else {
            return Ok(());
        };
        pmu_obs::events::SampleRejected { reason: reason.label() }.emit();
        Err(ServeError::BadSample(reason))
    }

    /// Stateless batch detection (see [`Fleet::detect_batch`](crate::Fleet::detect_batch)).
    pub(crate) fn detect_batch(
        &self,
        samples: &[PhasorSample],
    ) -> Vec<Result<Detection, ServeError>> {
        pmu_obs::counter!("serve.batch_calls").inc();
        pmu_obs::counter!("serve.batch_samples").add(samples.len() as u64);
        let mut sp = pmu_obs::span("serve.detect_batch").with("samples", samples.len());
        let started = Instant::now();

        // Ingestion guard first: only validated samples reach the packed
        // detector path, and their positions are remembered for scatter.
        let mut out: Vec<Option<Result<Detection, ServeError>>> =
            samples.iter().map(|_| None).collect();
        let mut valid: Vec<usize> = Vec::with_capacity(samples.len());
        for (i, sample) in samples.iter().enumerate() {
            match self.guard(sample) {
                Ok(()) => valid.push(i),
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        let accepted: Vec<PhasorSample> =
            valid.iter().map(|&i| samples[i].clone()).collect();
        let verdicts = self.detector.detect_batch_with_cache(&accepted, &self.cache);
        for (&i, v) in valid.iter().zip(verdicts) {
            out[i] = Some(v.map_err(ServeError::from));
        }

        let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        if !samples.is_empty() {
            // Individual latencies are not observable inside the packed
            // batch; a *count-weighted* observation of the per-sample
            // share keeps the histogram's count honest (one observation
            // per verdict, like the scalar path) so batch traffic can't
            // flatten the quantiles by under-counting.
            pmu_obs::histogram!("serve.detect_latency_us")
                .observe_n(elapsed_us / samples.len() as f64, samples.len() as u64);
        }
        pmu_obs::record!(RecKind::Metric, "serve.detect_batch", samples.len(), elapsed_us);
        sp.record("ms", elapsed_us / 1e3);
        out.into_iter().map(|o| o.expect("every sample classified")).collect()
    }

    /// One feed push: guard, vote, account, record into the per-feed
    /// ring, and evaluate the incident triggers. `who` names the feed in
    /// mode-change observations and incident dumps.
    pub(crate) fn push_one(
        &self,
        who: &FeedTag<'_>,
        session: &mut SessionState,
        sample: &PhasorSample,
    ) -> Result<StreamEvent, ServeError> {
        let (scored_l, missing_l, rejected_l, baddata_l) = push_labels();
        // Saturating: restored counters are untrusted input.
        let feed_tick = session.pushed.saturating_add(session.rejected) as u64;
        let mode_before = session.mode;

        if let Err(e) = self.guard(sample) {
            session.rejected = session.rejected.saturating_add(1);
            session.ring.record(RecKind::Event, rejected_l, feed_tick, 0);
            session.record(who, Outcome::Rejected);
            self.fire_triggers(who, session, mode_before, false);
            return Err(e);
        }

        let before = session.monitor.health();
        let t0 = Instant::now();
        let event = session.monitor.push(sample).map_err(ServeError::from);
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        pmu_obs::histogram!("serve.detect_latency_us").observe(latency_us);
        session.pushed = session.pushed.saturating_add(1);
        let after = session.monitor.health();
        let (outcome, label) = if after.missing_samples > before.missing_samples {
            (Outcome::Missing, missing_l)
        } else if after.bad_data_samples > before.bad_data_samples {
            (Outcome::BadData, baddata_l)
        } else {
            (Outcome::Scored, scored_l)
        };
        session.ring.record(RecKind::Event, label, feed_tick, latency_us as u64);
        session.record(who, outcome);
        let raised = matches!(event, Ok(StreamEvent::Raised { .. }));
        self.fire_triggers(who, session, mode_before, raised);
        event
    }

    /// Evaluate the incident triggers after one push. At most one dump is
    /// written per ongoing anomaly (`SessionState::incident_open`); the
    /// incident closes once the feed is Healthy again with no active
    /// stream event and no trigger firing this push.
    fn fire_triggers(
        &self,
        who: &FeedTag<'_>,
        session: &mut SessionState,
        mode_before: FeedMode,
        raised: bool,
    ) {
        let cfg = &self.incident_cfg;
        let mut trigger: Option<&'static str> = None;
        let baddata_mode = FeedMode::Degraded { reason: DegradeReason::BadData };
        if cfg.on_raise && raised {
            trigger = Some("stream_raised");
        } else if cfg.on_dark && session.mode.code() == 2 && mode_before.code() != 2 {
            trigger = Some("feed_dark");
        } else if cfg.on_bad_data
            && session.mode == baddata_mode
            && mode_before != baddata_mode
        {
            trigger = Some("feed_baddata");
        } else if let (Some(spike), Some(ratio)) =
            (cfg.reject_spike_ratio, session.rejected_ratio())
        {
            if ratio >= spike {
                trigger = Some("reject_spike");
            }
        }

        match trigger {
            Some(t) if !session.incident_open => self.write_incident(who, session, t),
            Some(_) => {} // anomaly already dumped; stay quiet until it passes
            None => {
                if session.incident_open
                    && session.mode == FeedMode::Healthy
                    && !session.monitor.health().active
                {
                    session.incident_open = false;
                }
            }
        }
    }

    /// Snapshot the global and per-feed rings into one incident dump and
    /// mark the session's incident open. Write failures are counted and
    /// reported but never disturb the serving path; the incident still
    /// opens so a persistent IO failure cannot cause a dump storm.
    fn write_incident(
        &self,
        who: &FeedTag<'_>,
        session: &mut SessionState,
        trigger: &'static str,
    ) {
        let Some(dir) = self.incident_cfg.dir.as_ref() else { return };
        session.incident_open = true;
        let seq = self.incident_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("incident-{seq:04}-{who}-{trigger}.jsonl"));
        let health = session.monitor.health();
        let context: [(&str, Value); 10] = [
            ("system", Value::from(self.system.as_str())),
            ("session", Value::from(who.to_string())),
            ("mode", Value::from(session.mode.label())),
            ("pushed", Value::from(session.pushed)),
            ("rejected", Value::from(session.rejected)),
            ("samples_seen", Value::from(health.samples_seen)),
            ("missing_samples", Value::from(health.missing_samples)),
            ("bad_data_samples", Value::from(health.bad_data_samples)),
            ("events_raised", Value::from(health.events_raised)),
            ("event_active", Value::from(health.active)),
        ];
        let rings: [(&str, &Recorder); 2] =
            [("global", pmu_obs::recorder::global()), ("feed", &session.ring)];
        match write_incident_dump(&path, trigger, &context, &rings) {
            Ok(stats) => {
                pmu_obs::counter!("serve.incident_dumps").inc();
                pmu_obs::info(&format!(
                    "incident dump {} ({} records, {} dropped)",
                    path.display(),
                    stats.records,
                    stats.dropped
                ));
            }
            Err(e) => {
                pmu_obs::counter!("serve.incident_dump_failures").inc();
                eprintln!("pmu-serve: incident dump {} failed: {e}", path.display());
            }
        }
    }

    /// Number of incident dumps this core has attempted to write.
    pub(crate) fn incident_dumps_written(&self) -> u64 {
        self.incident_seq.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    //! The per-feed serving contract of the core, driven through a
    //! one-grid [`Fleet`](crate::Fleet) — the crate's serving front-end.
    use super::*;
    use crate::fleet::{FeedKey, Fleet, FleetConfig, GridId};
    use crate::session::{DEGRADED_RATIO, DEGRADE_WINDOW};
    use pmu_baseline::MlrConfig;
    use pmu_detect::detector::default_config_for;
    use pmu_numerics::Complex64;
    use pmu_sim::{generate_dataset, Dataset, GenConfig, Mask};

    fn tiny_dataset() -> Dataset {
        let net = pmu_grid::cases::ieee14().unwrap();
        let cfg = GenConfig { train_len: 10, test_len: 6, ..GenConfig::default() };
        generate_dataset(&net, &cfg).unwrap()
    }

    fn bundle_for(data: &Dataset) -> ModelBundle {
        let gen = GenConfig { train_len: 10, test_len: 6, ..GenConfig::default() };
        let det_cfg = default_config_for(&data.network);
        ModelBundle::train(data, &gen, &det_cfg, &MlrConfig::default()).unwrap()
    }

    /// A one-grid fleet serving `bundle` with the default knobs.
    fn fleet_with(bundle: ModelBundle) -> (Fleet, GridId) {
        let mut fleet = Fleet::new(FleetConfig::default());
        let grid = fleet.add_grid("grid", bundle, &EngineConfig::default()).unwrap();
        (fleet, grid)
    }

    /// A one-grid fleet with feed 0 open.
    fn one_feed(data: &Dataset) -> (Fleet, GridId, FeedKey) {
        let (fleet, grid) = fleet_with(bundle_for(data));
        let key = FeedKey { grid, feed: 0 };
        fleet.open_feed(key).unwrap();
        (fleet, grid, key)
    }

    fn push(
        fleet: &Fleet,
        key: FeedKey,
        sample: PhasorSample,
    ) -> Result<StreamEvent, ServeError> {
        fleet.push_batch(&[(key, sample)]).remove(0)
    }

    /// Every float of a detection by its bit pattern, so equality below
    /// is bitwise rather than IEEE `==`.
    type DetectionBits = (bool, Vec<usize>, Vec<(usize, u64)>, [u64; 3], Vec<usize>);

    fn bits(d: &Detection) -> DetectionBits {
        (
            d.outage,
            d.lines.clone(),
            d.node_ranking.iter().map(|&(n, p)| (n, p.to_bits())).collect(),
            [d.normal_residual, d.best_case_residual, d.threshold].map(f64::to_bits),
            d.suspect_nodes.clone(),
        )
    }

    #[test]
    fn stateless_batch_matches_sequential() {
        let data = tiny_dataset();
        let bundle = bundle_for(&data);
        let detector = bundle.detector.clone();
        let (fleet, grid) = fleet_with(bundle);
        let n = data.network.n_buses();
        let dark = Mask::with_missing(n, &[2, 5]);
        let samples: Vec<_> = (0..data.normal_test.len())
            .map(|t| data.normal_test.sample(t))
            .chain((0..data.cases[0].test.len()).map(|t| data.cases[0].test.sample(t)))
            .chain((0..data.cases[1].test.len()).map(|t| {
                data.cases[1].test.sample(t).masked(&dark)
            }))
            .collect();
        let batch = fleet.detect_batch(grid, &samples);
        assert_eq!(batch.len(), samples.len());
        let cache = ScoringCache::new();
        for (sample, batched) in samples.iter().zip(&batch) {
            let direct = detector.detect_with_cache(sample, &cache).map_err(ServeError::from);
            assert_eq!(
                direct.as_ref().map(bits),
                batched.as_ref().map(bits),
                "batch must agree bitwise with one-shot detection"
            );
        }

        // An unknown grid fails every entry, typed.
        let ghost = GridId(7);
        let out = fleet.detect_batch(ghost, &samples[..3]);
        assert_eq!(out, vec![Err(ServeError::UnknownGrid("g7".into())); 3]);
        assert!(fleet.detect_batch(grid, &[]).is_empty());
    }

    /// Closing a feed drops its session: the key answers `UnknownFeed`,
    /// a reopen starts from zero, and the shard counts do not keep it.
    #[test]
    fn session_lifecycle_reuses_slots_under_fresh_generations() {
        let data = tiny_dataset();
        let (fleet, grid) = fleet_with(bundle_for(&data));
        assert_eq!(fleet.sessions_active(), 0);
        let a = FeedKey { grid, feed: 0 };
        let b = FeedKey { grid, feed: 1 };
        fleet.open_feed(a).unwrap();
        fleet.open_feed(b).unwrap();
        assert_eq!(fleet.feeds(), vec![a, b]);
        push(&fleet, a, data.normal_test.sample(0)).unwrap();
        assert!(fleet.close_feed(a));
        assert!(!fleet.close_feed(a), "double close must report false");
        assert_eq!(fleet.sessions_active(), 1);
        assert!(fleet.health(a).is_none(), "a closed key resolves to nothing");
        assert_eq!(push(&fleet, a, data.normal_test.sample(1)), Err(ServeError::UnknownFeed(a)));

        fleet.open_feed(a).unwrap();
        assert_eq!(fleet.health(a).unwrap().pushed, 0, "a reopened key starts fresh");
        assert!(fleet.health(b).is_some());
        assert_eq!(
            fleet.shard_stats().iter().map(|s| s.sessions).sum::<usize>(),
            2,
            "the closed session is dropped, not leaked"
        );
        assert!(
            fleet.health(FeedKey { grid, feed: 99 }).is_none(),
            "never-opened keys are unknown"
        );
    }

    #[test]
    fn push_batch_preserves_per_feed_order_and_state() {
        let data = tiny_dataset();
        let bundle = bundle_for(&data);
        let detector = bundle.detector.clone();
        let (fleet, grid) = fleet_with(bundle);
        let s0 = FeedKey { grid, feed: 0 };
        let s1 = FeedKey { grid, feed: 1 };
        fleet.open_feed(s0).unwrap();
        fleet.open_feed(s1).unwrap();

        // Feed s0 outage samples and s1 normal samples, interleaved in one
        // batch; compare against a sequential reference session.
        let case = &data.cases[0];
        let mut batch = Vec::new();
        for t in 0..case.test.len().min(5) {
            batch.push((s0, case.test.sample(t)));
            batch.push((s1, data.normal_test.sample(t.min(data.normal_test.len() - 1))));
        }
        let events = fleet.push_batch(&batch);
        assert_eq!(events.len(), batch.len());

        let mut reference =
            StreamingDetector::new(detector, StreamConfig::default());
        let mut expected = Vec::new();
        for (key, sample) in &batch {
            if *key == s0 {
                expected.push(reference.push(sample).unwrap());
            }
        }
        let got: Vec<_> = batch
            .iter()
            .zip(&events)
            .filter(|((key, _), _)| *key == s0)
            .map(|(_, ev)| ev.clone().unwrap())
            .collect();
        assert_eq!(got, expected, "batched feed must replay exactly like a lone session");

        // Health reflects the traffic split.
        let h0 = fleet.health(s0).unwrap();
        let h1 = fleet.health(s1).unwrap();
        assert_eq!(h0.snapshot.samples_seen + h1.snapshot.samples_seen, batch.len());
        assert_eq!(h0.pushed + h1.pushed, batch.len());
        assert_eq!(h0.rejected + h1.rejected, 0);
    }

    #[test]
    fn masked_samples_flow_through_sessions() {
        let data = tiny_dataset();
        let (fleet, _, key) = one_feed(&data);
        let n = data.network.n_buses();
        // Black out most of the grid: the detector cannot score, and the
        // session absorbs the sample as vote-neutral instead of erroring.
        let mask = Mask::with_missing(n, &(0..n - 1).collect::<Vec<_>>());
        let dark = data.normal_test.sample(0).masked(&mask);
        assert!(push(&fleet, key, dark).is_ok());
        let health = fleet.health(key).unwrap();
        assert_eq!(health.snapshot.missing_samples, 1);
    }

    #[test]
    fn ingestion_guard_rejects_invalid_samples() {
        let data = tiny_dataset();
        let (fleet, grid, key) = one_feed(&data);
        let n = fleet.grid_nodes(grid);

        // NaN in an observed slot: typed rejection naming the node.
        let mut phasors: Vec<Complex64> =
            (0..n).map(|_| Complex64::new(1.0, 0.0)).collect();
        phasors[3] = Complex64::new(f64::NAN, 0.0);
        let nan_sample = PhasorSample::complete(phasors.clone());
        let non_finite = ServeError::BadSample(BadSampleReason::NonFinite { node: 3 });
        let out = fleet.detect_batch(grid, std::slice::from_ref(&nan_sample));
        assert_eq!(out[0], Err(non_finite.clone()));
        assert_eq!(push(&fleet, key, nan_sample.clone()).unwrap_err(), non_finite);

        // The same NaN behind a mask is legal: masked slots are never read.
        phasors[3] = Complex64::new(f64::NAN, f64::NAN);
        let masked = PhasorSample::complete(phasors).masked(&Mask::with_missing(n, &[3]));
        assert!(!matches!(
            fleet.detect_batch(grid, &[masked])[0],
            Err(ServeError::BadSample(_))
        ));

        // A truncated vector: typed length rejection.
        let short = PhasorSample::complete(vec![Complex64::new(1.0, 0.0); n - 2]);
        assert_eq!(
            fleet.detect_batch(grid, std::slice::from_ref(&short))[0],
            Err(ServeError::BadSample(BadSampleReason::WrongLength {
                expected: n,
                got: n - 2
            }))
        );
        assert!(matches!(
            push(&fleet, key, short),
            Err(ServeError::BadSample(BadSampleReason::WrongLength { .. }))
        ));

        // Rejected samples never reach the voting window, but the session
        // accounts for them.
        let h = fleet.health(key).unwrap();
        assert_eq!(h.snapshot.samples_seen, 0, "guard fires before the monitor");
        assert_eq!(h.rejected, 2);
        assert_eq!(h.pushed, 0);

        // Batch detection rejects per-sample without failing the batch.
        let good = data.normal_test.sample(0);
        let out = fleet.detect_batch(grid, &[good, nan_sample]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(ServeError::BadSample(_))));
    }

    #[test]
    fn feed_mode_degrades_and_recovers() {
        let data = tiny_dataset();
        let (fleet, _, key) = one_feed(&data);
        let n = data.network.n_buses();
        let dark_mask = Mask::with_missing(n, &(0..n - 1).collect::<Vec<_>>());
        let mode = || fleet.health(key).unwrap().mode;

        // A fresh feed is healthy and stays healthy below a full window.
        assert_eq!(mode(), FeedMode::Healthy);

        // Blackout: a full window of unscorable samples turns the feed
        // Dark.
        for t in 0..DEGRADE_WINDOW {
            let s = data.normal_test.sample(t % data.normal_test.len()).masked(&dark_mask);
            push(&fleet, key, s).unwrap();
        }
        assert_eq!(mode(), FeedMode::Dark);

        // Data returns: the bad ratio decays through Degraded back to
        // Healthy, monotonically.
        let mut seen_degraded = false;
        let mut recovered_at = None;
        for t in 0..2 * DEGRADE_WINDOW {
            let s = data.normal_test.sample(t % data.normal_test.len());
            push(&fleet, key, s).unwrap();
            match mode() {
                FeedMode::Degraded { reason } => {
                    assert_eq!(reason, DegradeReason::MissingData);
                    assert!(recovered_at.is_none(), "no fallback after recovery");
                    seen_degraded = true;
                }
                FeedMode::Healthy => {
                    recovered_at.get_or_insert(t);
                }
                FeedMode::Dark => {
                    assert!(
                        !seen_degraded && recovered_at.is_none(),
                        "mode must not regress while clean data flows"
                    );
                }
            }
        }
        assert!(seen_degraded, "recovery passes through Degraded");
        assert!(recovered_at.is_some(), "feed returns to Healthy");

        // A short burst of invalid samples (above the degraded threshold,
        // below dark) degrades with the rejection reason.
        let nan =
            PhasorSample::complete(vec![Complex64::new(f64::NAN, 0.0); n]);
        let burst = (DEGRADED_RATIO * DEGRADE_WINDOW as f64).ceil() as usize;
        for _ in 0..burst {
            let _ = push(&fleet, key, nan.clone());
        }
        assert_eq!(mode(), FeedMode::Degraded { reason: DegradeReason::RejectedSamples });
    }

    /// A plausible-but-corrupted feed: every push carries one channel
    /// with a rotated angle. The guard passes it (finite values), the
    /// bad-data screen excises it, and the session degrades with the
    /// `BadData` reason — not `Dark`, because detection still runs on
    /// the surviving channels.
    #[test]
    fn bad_data_feed_degrades_with_baddata_reason() {
        let data = tiny_dataset();
        let (fleet, _, key) = one_feed(&data);
        let n = data.network.n_buses();
        for t in 0..DEGRADE_WINDOW {
            let clean = data.normal_test.sample(t % data.normal_test.len());
            let phasors: Vec<Complex64> = (0..n)
                .map(|i| {
                    let z = clean.phasor_unchecked(i);
                    if i == 5 {
                        Complex64::from_polar(z.abs(), z.arg() + 1.0)
                    } else {
                        z
                    }
                })
                .collect();
            let event = push(&fleet, key, PhasorSample::complete(phasors));
            assert!(event.is_ok(), "corrupted-but-finite samples pass the guard");
        }
        let h = fleet.health(key).unwrap();
        assert!(
            h.snapshot.bad_data_samples * 2 >= DEGRADE_WINDOW,
            "screen fired on only {} of {} pushes",
            h.snapshot.bad_data_samples,
            DEGRADE_WINDOW
        );
        assert_eq!(h.mode, FeedMode::Degraded { reason: DegradeReason::BadData });
        assert_eq!(h.rejected, 0, "bad data is excised, not rejected");
    }
}
