//! The serving engine: one loaded bundle, many concurrent consumers.
//!
//! ## Concurrency model
//!
//! The trained [`Detector`] is immutable after load, so stateless batch
//! detection shares one copy across the whole `par_map` fan-out. Sessions
//! are stateful (voting history, health counters, degraded-mode machine);
//! each lives behind its own `Mutex` in a slot table, and
//! [`Engine::push_batch`] groups a tick's samples by session and runs *one
//! parallel task per session*, so every lock is uncontended and per-feed
//! sample order is exactly the input order. The crate keeps the
//! workspace's `#![deny(unsafe_code)]` — the slot-of-mutexes layout is
//! what makes parallel mutation safe without it.
//!
//! ## Robustness model
//!
//! The engine assumes the telemetry path is hostile (see
//! `pmu_sim::faults`): every inbound sample passes an **ingestion guard**
//! (finiteness, length, mask consistency) before it can reach a detector,
//! failing with [`ServeError::BadSample`]; sessions run a per-feed
//! **degraded-mode state machine** ([`FeedMode`]) driven by the recent
//! missing and rejection ratios; and bundle loads retry transient IO per
//! a bounded [`RetryPolicy`]. Session handles are **generation-tagged**
//! ([`SessionId`]), so a handle to a closed-and-reused slot fails with
//! [`ServeError::UnknownSession`] instead of silently reading a stranger's
//! feed.
//!
//! ## Layering
//!
//! The bundle-scoped, session-agnostic half of the engine lives in
//! [`EngineCore`]: the ingestion guard, the stateless detect paths, the
//! per-push pipeline and the incident machinery. `Engine` composes a core
//! with one [`SessionTable`](crate::session::SessionTable); the multi-grid
//! [`Fleet`](crate::Fleet) composes *many* cores with per-shard tables.
//! Both therefore serve byte-identical semantics per feed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pmu_detect::stream::{StreamConfig, StreamEvent, StreamingDetector};
use pmu_detect::{DetectError, Detection, Detector, ScoringCache};
use pmu_model::{ModelBundle, ModelError, RetryPolicy};
use pmu_numerics::par;
use pmu_obs::recorder::{label_id, write_incident_dump, LabelId, RecKind};
use pmu_obs::{Recorder, Value};
use pmu_sim::PhasorSample;

use crate::session::{Outcome, SessionState, SessionTable};
pub use crate::session::{DegradeConfig, DegradeReason, FeedMode, SessionHealth, SessionId};

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
    /// The session handle is not open: never issued, closed, or stale
    /// (its slot was reused under a newer generation).
    UnknownSession(SessionId),
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
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
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

/// When and where the engine snapshots its flight-recorder rings to
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
    /// Dump when a feed turns [`FeedMode::Degraded`].
    pub on_degraded: bool,
    /// Dump when a feed turns [`FeedMode::Dark`].
    pub on_dark: bool,
    /// Dump when a feed degrades specifically for
    /// [`DegradeReason::BadData`] — the bad-data screen is excising
    /// suspect channels faster than plausible for sensor noise, which
    /// usually means a miscalibrated or compromised PMU worth forensics
    /// even when `on_degraded` is off.
    pub on_bad_data: bool,
    /// Dump when the rejected fraction of a full degrade window reaches
    /// this ratio (`None` disables the rejection-spike trigger).
    pub reject_spike_ratio: Option<f64>,
    /// Dump when one push's detect latency exceeds this many
    /// microseconds (`None` disables the latency-SLO trigger).
    pub latency_slo_us: Option<f64>,
}

impl Default for IncidentConfig {
    /// Raise, Dark, bad-data degrades and a 50% rejection spike trigger;
    /// no latency SLO. Dumping stays off until a directory is configured.
    fn default() -> Self {
        IncidentConfig {
            dir: None,
            on_raise: true,
            on_degraded: false,
            on_dark: true,
            on_bad_data: true,
            reject_spike_ratio: Some(0.5),
            latency_slo_us: None,
        }
    }
}

/// Engine construction knobs.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Voting configuration every new session starts with.
    pub stream: StreamConfig,
    /// Degraded-mode thresholds every new session starts with.
    pub degrade: DegradeConfig,
    /// Retry policy for transient IO during [`Engine::load`].
    pub retry: RetryPolicy,
    /// Incident-dump triggers and destination.
    pub incident: IncidentConfig,
}

/// The bundle-scoped, session-agnostic half of a serving engine: the
/// trained detector, the ingestion guard, the per-push pipeline and the
/// incident machinery. Owns no session table — [`Engine`] pairs one core
/// with one table, [`Fleet`](crate::Fleet) pairs many cores with
/// per-shard tables, and both push through exactly this code.
pub(crate) struct EngineCore {
    pub(crate) system: String,
    pub(crate) network_fingerprint: String,
    /// Shared by every session of this core (and by the stateless
    /// detect paths), so the model is held once per grid, not per feed.
    pub(crate) detector: Arc<Detector>,
    pub(crate) stream_cfg: StreamConfig,
    pub(crate) degrade_cfg: DegradeConfig,
    pub(crate) incident_cfg: IncidentConfig,
    /// Monotonic incident-dump sequence number (also the file-name
    /// prefix, so dump order is reconstructible from a directory
    /// listing).
    incident_seq: AtomicU64,
    /// Scoring memoization shared by the stateless detect paths and
    /// every session: masks recur across batches and feeds, so per-mask
    /// restrictions are paid once per core instead of once per call or
    /// per feed.
    pub(crate) cache: Arc<ScoringCache>,
}

impl EngineCore {
    pub(crate) fn from_bundle(bundle: ModelBundle, cfg: &EngineConfig) -> Self {
        pmu_obs::counter!("serve.engines_started").inc();
        EngineCore {
            system: bundle.system,
            network_fingerprint: bundle.network_fingerprint,
            detector: Arc::new(bundle.detector),
            stream_cfg: cfg.stream,
            degrade_cfg: cfg.degrade.clone(),
            incident_cfg: cfg.incident.clone(),
            incident_seq: AtomicU64::new(0),
            cache: Arc::default(),
        }
    }

    /// A fresh session state wrapping a new monitor on this core's
    /// detector, scoring cache and voting configuration.
    pub(crate) fn new_session(&self) -> SessionState {
        SessionState::new(
            StreamingDetector::new(Arc::clone(&self.detector), self.stream_cfg)
                .with_cache(Arc::clone(&self.cache)),
        )
    }

    /// The ingestion guard's pure check (no observation side effects).
    pub(crate) fn validate_sample(&self, sample: &PhasorSample) -> Result<(), ServeError> {
        let expected = self.detector.n_nodes();
        let got = sample.n_nodes();
        if got != expected {
            return Err(ServeError::BadSample(BadSampleReason::WrongLength {
                expected,
                got,
            }));
        }
        if sample.mask().len() != got {
            return Err(ServeError::BadSample(BadSampleReason::MaskMismatch {
                nodes: got,
                mask: sample.mask().len(),
            }));
        }
        for node in sample.mask().observed() {
            if !sample.phasor_unchecked(node).is_finite() {
                return Err(ServeError::BadSample(BadSampleReason::NonFinite { node }));
            }
        }
        Ok(())
    }

    /// [`EngineCore::validate_sample`] plus the rejection observation.
    pub(crate) fn guard(&self, sample: &PhasorSample) -> Result<(), ServeError> {
        self.validate_sample(sample).inspect_err(|e| {
            if let ServeError::BadSample(reason) = e {
                pmu_obs::events::SampleRejected { reason: reason.label() }.emit();
            }
        })
    }

    /// Stateless one-shot detection (see [`Engine::detect`]).
    pub(crate) fn detect(&self, sample: &PhasorSample) -> Result<Detection, ServeError> {
        self.guard(sample)?;
        let started = Instant::now();
        let out =
            self.detector.detect_with_cache(sample, &self.cache).map_err(ServeError::from);
        let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        pmu_obs::counter!("serve.detect_calls").inc();
        pmu_obs::histogram!("serve.detect_latency_us").observe(elapsed_us);
        pmu_obs::record!(RecKind::Metric, "serve.detect", 1, elapsed_us);
        out
    }

    /// Stateless batch detection (see [`Engine::detect_batch`]).
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
    /// ring, and evaluate the incident triggers. `slot` keys the
    /// mode-change observation; `who` names the feed in incident dumps
    /// (a [`SessionId`] for the engine, a grid-qualified feed label for
    /// the fleet).
    pub(crate) fn push_one(
        &self,
        slot: usize,
        who: &dyn std::fmt::Display,
        session: &mut SessionState,
        sample: &PhasorSample,
    ) -> Result<StreamEvent, ServeError> {
        let (scored_l, missing_l, rejected_l, baddata_l) = push_labels();
        let feed_tick = (session.pushed + session.rejected) as u64;
        let mode_before = session.mode;

        if let Err(e) = self.guard(sample) {
            session.rejected += 1;
            session.ring.record(RecKind::Event, rejected_l, feed_tick, 0);
            session.record(slot, &self.degrade_cfg, Outcome::Rejected);
            self.fire_triggers(who, session, mode_before, false, None);
            return Err(e);
        }

        let before = session.monitor.health();
        let t0 = Instant::now();
        let event = session.monitor.push(sample).map_err(ServeError::from);
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        pmu_obs::histogram!("serve.detect_latency_us").observe(latency_us);
        session.pushed += 1;
        let after = session.monitor.health();
        let (outcome, label) = if after.missing_samples > before.missing_samples {
            (Outcome::Missing, missing_l)
        } else if after.bad_data_samples > before.bad_data_samples {
            (Outcome::BadData, baddata_l)
        } else {
            (Outcome::Scored, scored_l)
        };
        session.ring.record(RecKind::Event, label, feed_tick, latency_us as u64);
        session.record(slot, &self.degrade_cfg, outcome);
        let raised = matches!(event, Ok(StreamEvent::Raised { .. }));
        self.fire_triggers(who, session, mode_before, raised, Some(latency_us));
        event
    }

    /// Evaluate the incident triggers after one push. At most one dump is
    /// written per ongoing anomaly (`SessionState::incident_open`); the
    /// incident closes once the feed is Healthy again with no active
    /// stream event and no trigger firing this push.
    fn fire_triggers(
        &self,
        who: &dyn std::fmt::Display,
        session: &mut SessionState,
        mode_before: FeedMode,
        raised: bool,
        latency_us: Option<f64>,
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
        } else if cfg.on_degraded && session.mode.code() == 1 && mode_before.code() != 1 {
            trigger = Some("feed_degraded");
        }
        if trigger.is_none() {
            if let (Some(spike), Some(ratio)) =
                (cfg.reject_spike_ratio, session.rejected_ratio(&self.degrade_cfg))
            {
                if ratio >= spike {
                    trigger = Some("reject_spike");
                }
            }
        }
        if trigger.is_none() {
            if let (Some(slo), Some(us)) = (cfg.latency_slo_us, latency_us) {
                if us > slo {
                    trigger = Some("latency_slo");
                }
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
        who: &dyn std::fmt::Display,
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

/// A loaded bundle serving detection traffic.
pub struct Engine {
    core: EngineCore,
    /// Session slot table (O(1) open via a free list); closed slots are
    /// reused under a bumped generation.
    table: SessionTable<SessionState>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("system", &self.core.system)
            .field("sessions_active", &self.sessions_active())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Stand up an engine from an in-memory bundle.
    pub fn from_bundle(bundle: ModelBundle, cfg: EngineConfig) -> Self {
        Engine { core: EngineCore::from_bundle(bundle, &cfg), table: SessionTable::new() }
    }

    /// Load, verify and stand up an engine from a bundle file, retrying
    /// transient filesystem failures per the config's [`RetryPolicy`].
    ///
    /// # Errors
    /// Propagates every [`ModelError`] of
    /// [`ModelBundle::load`](pmu_model::ModelBundle::load) — a serving
    /// process must refuse to start on a corrupt or version-skewed
    /// artifact rather than panic mid-traffic. Only
    /// [`ModelError::Io`] is retried; verification failures are final.
    pub fn load(path: &std::path::Path, cfg: EngineConfig) -> Result<Self, ModelError> {
        let started = Instant::now();
        let bundle = ModelBundle::load_with_retry(path, &cfg.retry)?;
        pmu_obs::histogram!("serve.engine_load_ms")
            .observe(started.elapsed().as_secs_f64() * 1e3);
        Ok(Self::from_bundle(bundle, cfg))
    }

    /// System the loaded bundle was trained on (e.g. `"ieee14"`).
    pub fn system(&self) -> &str {
        &self.core.system
    }

    /// Hex fingerprint of the training topology (provenance display).
    pub fn network_fingerprint(&self) -> &str {
        &self.core.network_fingerprint
    }

    /// The voting configuration new sessions start with.
    pub fn stream_config(&self) -> StreamConfig {
        self.core.stream_cfg
    }

    /// The degraded-mode thresholds new sessions start with.
    pub fn degrade_config(&self) -> &DegradeConfig {
        &self.core.degrade_cfg
    }

    /// Borrow the underlying trained detector.
    pub fn detector(&self) -> &Detector {
        &self.core.detector
    }

    /// The ingestion guard: check an inbound sample against the serving
    /// topology without consuming it. [`Engine::push_batch`],
    /// [`Engine::detect`] and [`Engine::detect_batch`] all apply this
    /// before any detector math runs.
    ///
    /// # Errors
    /// [`ServeError::BadSample`] naming the violated invariant: wrong
    /// vector length, mask/vector skew, or a non-finite *observed* value
    /// (masked entries may hold anything — they are never read).
    pub fn validate_sample(&self, sample: &PhasorSample) -> Result<(), ServeError> {
        self.core.validate_sample(sample)
    }

    /// Open a per-feed streaming session and return its handle. Slots of
    /// closed sessions are reused (O(1) via the table's free list), but
    /// under a fresh generation — handles to previous occupants stay
    /// invalid.
    pub fn open_session(&mut self) -> SessionId {
        let id = self.table.open(self.core.new_session());
        pmu_obs::counter!("serve.sessions_opened").inc();
        pmu_obs::gauge!("serve.sessions_active").set(self.table.active() as f64);
        id
    }

    /// Close a session; `false` when the handle is not open (including
    /// stale handles of an already-reused slot). Closing bumps the slot
    /// generation, invalidating every outstanding handle to it.
    pub fn close_session(&mut self, id: SessionId) -> bool {
        let closed = self.table.close(id);
        if closed {
            pmu_obs::counter!("serve.sessions_closed").inc();
            pmu_obs::gauge!("serve.sessions_active").set(self.table.active() as f64);
        }
        closed
    }

    /// Number of open sessions.
    pub fn sessions_active(&self) -> usize {
        self.table.active()
    }

    /// Handles of the currently open sessions, ascending by slot.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.table.ids()
    }

    /// Health of one session, `None` when the handle is not open.
    pub fn health(&self, id: SessionId) -> Option<SessionHealth> {
        self.table
            .resolve(id)
            .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()).health())
    }

    /// Score one sample statelessly against the bundle's detector.
    ///
    /// # Errors
    /// [`ServeError::BadSample`] when the ingestion guard refuses the
    /// sample; [`ServeError::Detect`] when the detector rejects it (e.g.
    /// too little observed data to score).
    pub fn detect(&self, sample: &PhasorSample) -> Result<Detection, ServeError> {
        self.core.detect(sample)
    }

    /// Score a batch of independent samples through the packed stage-1
    /// path: samples sharing a missing-data mask are scored against every
    /// learned subspace through one projector bank, and the per-sample
    /// ranking tail fans out on the workspace thread pool inside the
    /// detector. Results come back in input order; per-sample failures
    /// stay per-sample and match what [`Engine::detect`] would report.
    pub fn detect_batch(
        &self,
        samples: &[PhasorSample],
    ) -> Vec<Result<Detection, ServeError>> {
        self.core.detect_batch(samples)
    }

    /// Advance many feeds by one tick: each `(session, sample)` pair is
    /// pushed into its session's voting window. Pairs are grouped by
    /// session and the groups run in parallel (one task per session), so
    /// samples of one feed apply in their input order while distinct feeds
    /// proceed concurrently. Results come back in input order.
    ///
    /// Unknown or stale session handles fail their own entries with
    /// [`ServeError::UnknownSession`]; samples the ingestion guard refuses
    /// fail theirs with [`ServeError::BadSample`] (counted against the
    /// session's degraded-mode window without reaching its voting
    /// history). Neither disturbs the rest of the batch.
    pub fn push_batch(
        &self,
        batch: &[(SessionId, PhasorSample)],
    ) -> Vec<Result<StreamEvent, ServeError>> {
        pmu_obs::counter!("serve.push_batches").inc();
        pmu_obs::counter!("serve.push_samples").add(batch.len() as u64);
        let mut sp = pmu_obs::span("serve.push_batch").with("samples", batch.len());
        let started = Instant::now();

        // Group batch positions by session id, preserving input order
        // within each group.
        let mut groups: Vec<(SessionId, Vec<usize>)> = Vec::new();
        for (pos, (sid, _)) in batch.iter().enumerate() {
            match groups.iter_mut().find(|(gsid, _)| gsid == sid) {
                Some((_, positions)) => positions.push(pos),
                None => groups.push((*sid, vec![pos])),
            }
        }

        let per_group: Vec<Vec<(usize, Result<StreamEvent, ServeError>)>> =
            par::par_map(&groups, |(sid, positions)| {
                let Some(slot) = self.table.resolve(*sid) else {
                    return positions
                        .iter()
                        .map(|&pos| (pos, Err(ServeError::UnknownSession(*sid))))
                        .collect();
                };
                let mut session = slot.lock().unwrap_or_else(|p| p.into_inner());
                positions
                    .iter()
                    .map(|&pos| {
                        (
                            pos,
                            self.core.push_one(
                                sid.slot(),
                                sid,
                                &mut session,
                                &batch[pos].1,
                            ),
                        )
                    })
                    .collect()
            });

        // Scatter group results back to input order.
        let mut out: Vec<Option<Result<StreamEvent, ServeError>>> = vec![None; batch.len()];
        for group in per_group {
            for (pos, event) in group {
                out[pos] = Some(event);
            }
        }
        sp.record("ms", started.elapsed().as_secs_f64() * 1e3);
        out.into_iter().map(|o| o.expect("every batch position scattered")).collect()
    }

    /// Health of every open session, ascending by slot — the `/health`
    /// endpoint's payload.
    pub fn session_healths(&self) -> Vec<(SessionId, SessionHealth)> {
        self.session_ids()
            .into_iter()
            .filter_map(|id| self.health(id).map(|h| (id, h)))
            .collect()
    }

    /// Number of incident dumps this engine has attempted to write.
    pub fn incident_dumps_written(&self) -> u64 {
        self.core.incident_dumps_written()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmu_baseline::MlrConfig;
    use pmu_detect::detector::default_config_for;
    use pmu_numerics::Complex64;
    use pmu_sim::{generate_dataset, Dataset, GenConfig, Mask};

    fn tiny_dataset() -> Dataset {
        let net = pmu_grid::cases::ieee14().unwrap();
        let cfg = GenConfig { train_len: 10, test_len: 6, ..GenConfig::default() };
        generate_dataset(&net, &cfg).unwrap()
    }

    fn engine_for(data: &Dataset) -> Engine {
        let gen = GenConfig { train_len: 10, test_len: 6, ..GenConfig::default() };
        let det_cfg = default_config_for(&data.network);
        let bundle = pmu_model::ModelBundle::train(data, &gen, &det_cfg, &MlrConfig::default())
            .unwrap();
        Engine::from_bundle(bundle, EngineConfig::default())
    }

    #[test]
    fn stateless_batch_matches_sequential() {
        let data = tiny_dataset();
        let engine = engine_for(&data);
        let samples: Vec<_> = (0..data.normal_test.len())
            .map(|t| data.normal_test.sample(t))
            .chain((0..data.cases[0].test.len()).map(|t| data.cases[0].test.sample(t)))
            .collect();
        let batch = engine.detect_batch(&samples);
        assert_eq!(batch.len(), samples.len());
        for (sample, batched) in samples.iter().zip(&batch) {
            let direct = engine.detect(sample);
            assert_eq!(&direct, batched, "batch must agree with one-shot detection");
        }
    }

    #[test]
    fn session_lifecycle_reuses_slots_under_fresh_generations() {
        let data = tiny_dataset();
        let mut engine = engine_for(&data);
        assert_eq!(engine.sessions_active(), 0);
        let a = engine.open_session();
        let b = engine.open_session();
        assert_eq!((a.slot(), b.slot()), (0, 1));
        assert_eq!(engine.session_ids(), vec![a, b]);
        assert!(engine.close_session(a));
        assert!(!engine.close_session(a), "double close must report false");
        assert_eq!(engine.sessions_active(), 1);
        let c = engine.open_session();
        assert_eq!(c.slot(), a.slot(), "closed slot must be reused");
        assert_ne!(c, a, "reuse must issue a fresh generation");
        assert!(engine.health(b).is_some());
        assert!(engine.health(c).is_some());
        assert!(engine.health(a).is_none(), "stale handle resolves to nothing");
        assert!(
            engine.health(SessionId { slot: 99, generation: 0 }).is_none(),
            "never-issued slots are unknown"
        );
    }

    /// Regression for the session-id ABA bug: a handle held across its
    /// slot's close-and-reopen used to silently address the *new*
    /// occupant, cross-wiring two feeds' voting histories. Generation
    /// tags make the stale handle fail instead.
    #[test]
    fn stale_handle_cannot_reach_reused_slot() {
        let data = tiny_dataset();
        let mut engine = engine_for(&data);
        let stale = engine.open_session();
        assert!(engine.close_session(stale));
        let fresh = engine.open_session();
        assert_eq!(fresh.slot(), stale.slot(), "the slot really was reused");

        let sample = data.normal_test.sample(0);
        let events = engine.push_batch(&[(stale, sample.clone())]);
        assert_eq!(events[0], Err(ServeError::UnknownSession(stale)));
        assert_eq!(
            engine.health(fresh).unwrap().snapshot.samples_seen,
            0,
            "the new occupant must not receive the stale feed's traffic"
        );
        assert!(!engine.close_session(stale), "stale handle cannot close the new occupant");
        assert_eq!(engine.sessions_active(), 1);
    }

    #[test]
    fn push_batch_preserves_per_feed_order_and_state() {
        let data = tiny_dataset();
        let mut engine = engine_for(&data);
        let s0 = engine.open_session();
        let s1 = engine.open_session();

        // Feed s0 outage samples and s1 normal samples, interleaved in one
        // batch; compare against a sequential reference session.
        let case = &data.cases[0];
        let mut batch = Vec::new();
        for t in 0..case.test.len().min(5) {
            batch.push((s0, case.test.sample(t)));
            batch.push((s1, data.normal_test.sample(t.min(data.normal_test.len() - 1))));
        }
        let events = engine.push_batch(&batch);
        assert_eq!(events.len(), batch.len());

        let mut reference = StreamingDetector::new(
            engine.detector().clone(),
            engine.stream_config(),
        );
        let mut expected = Vec::new();
        for (sid, sample) in &batch {
            if *sid == s0 {
                expected.push(reference.push(sample).unwrap());
            }
        }
        let got: Vec<_> = batch
            .iter()
            .zip(&events)
            .filter(|((sid, _), _)| *sid == s0)
            .map(|(_, ev)| ev.clone().unwrap())
            .collect();
        assert_eq!(got, expected, "batched feed must replay exactly like a lone session");

        // Health reflects the traffic split.
        let h0 = engine.health(s0).unwrap();
        let h1 = engine.health(s1).unwrap();
        assert_eq!(h0.snapshot.samples_seen + h1.snapshot.samples_seen, batch.len());
        assert_eq!(h0.pushed + h1.pushed, batch.len());
        assert_eq!(h0.rejected + h1.rejected, 0);
    }

    #[test]
    fn unknown_sessions_fail_their_entries_only() {
        let data = tiny_dataset();
        let mut engine = engine_for(&data);
        let ok = engine.open_session();
        let bogus = SessionId { slot: 7, generation: 0 };
        let sample = data.normal_test.sample(0);
        let batch =
            vec![(ok, sample.clone()), (bogus, sample.clone()), (ok, sample.clone())];
        let events = engine.push_batch(&batch);
        assert!(events[0].is_ok());
        assert_eq!(events[1], Err(ServeError::UnknownSession(bogus)));
        assert!(events[2].is_ok());
        assert_eq!(engine.health(ok).unwrap().snapshot.samples_seen, 2);
    }

    #[test]
    fn masked_samples_flow_through_sessions() {
        let data = tiny_dataset();
        let mut engine = engine_for(&data);
        let sid = engine.open_session();
        let n = data.network.n_buses();
        // Black out most of the grid: the detector cannot score, and the
        // session absorbs the sample as vote-neutral instead of erroring.
        let mask = Mask::with_missing(n, &(0..n - 1).collect::<Vec<_>>());
        let dark = data.normal_test.sample(0).masked(&mask);
        let events = engine.push_batch(&[(sid, dark)]);
        assert!(events[0].is_ok());
        let health = engine.health(sid).unwrap();
        assert_eq!(health.snapshot.missing_samples, 1);
    }

    #[test]
    fn ingestion_guard_rejects_invalid_samples() {
        let data = tiny_dataset();
        let mut engine = engine_for(&data);
        let sid = engine.open_session();
        let n = engine.detector().n_nodes();

        // NaN in an observed slot: typed rejection naming the node.
        let mut phasors: Vec<Complex64> =
            (0..n).map(|_| Complex64::new(1.0, 0.0)).collect();
        phasors[3] = Complex64::new(f64::NAN, 0.0);
        let nan_sample = PhasorSample::complete(phasors.clone());
        assert_eq!(
            engine.detect(&nan_sample),
            Err(ServeError::BadSample(BadSampleReason::NonFinite { node: 3 }))
        );
        let events = engine.push_batch(&[(sid, nan_sample.clone())]);
        assert_eq!(
            events[0],
            Err(ServeError::BadSample(BadSampleReason::NonFinite { node: 3 }))
        );

        // The same NaN behind a mask is legal: masked slots are never read.
        phasors[3] = Complex64::new(f64::NAN, f64::NAN);
        let masked = PhasorSample::complete(phasors).masked(&Mask::with_missing(n, &[3]));
        assert!(engine.validate_sample(&masked).is_ok());

        // A truncated vector: typed length rejection.
        let short = PhasorSample::complete(vec![Complex64::new(1.0, 0.0); n - 2]);
        assert_eq!(
            engine.detect(&short),
            Err(ServeError::BadSample(BadSampleReason::WrongLength {
                expected: n,
                got: n - 2
            }))
        );
        let events = engine.push_batch(&[(sid, short)]);
        assert!(matches!(
            events[0],
            Err(ServeError::BadSample(BadSampleReason::WrongLength { .. }))
        ));

        // Rejected samples never reach the voting window, but the session
        // accounts for them.
        let h = engine.health(sid).unwrap();
        assert_eq!(h.snapshot.samples_seen, 0, "guard fires before the monitor");
        assert_eq!(h.rejected, 2);
        assert_eq!(h.pushed, 0);

        // Batch detection rejects per-sample without failing the batch.
        let good = data.normal_test.sample(0);
        let out = engine.detect_batch(&[good, nan_sample]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(ServeError::BadSample(_))));
    }

    #[test]
    fn feed_mode_degrades_and_recovers() {
        let data = tiny_dataset();
        let mut engine = engine_for(&data);
        let sid = engine.open_session();
        let n = data.network.n_buses();
        let cfg = engine.degrade_config().clone();
        let dark_mask = Mask::with_missing(n, &(0..n - 1).collect::<Vec<_>>());

        // A fresh feed is healthy and stays healthy below a full window.
        assert_eq!(engine.health(sid).unwrap().mode, FeedMode::Healthy);

        // Blackout: a full window of unscorable samples turns the feed
        // Dark.
        for t in 0..cfg.window {
            let s = data.normal_test.sample(t % data.normal_test.len()).masked(&dark_mask);
            engine.push_batch(&[(sid, s)]);
        }
        assert_eq!(engine.health(sid).unwrap().mode, FeedMode::Dark);

        // Data returns: the bad ratio decays through Degraded back to
        // Healthy, monotonically.
        let mut seen_degraded = false;
        let mut recovered_at = None;
        for t in 0..2 * cfg.window {
            let s = data.normal_test.sample(t % data.normal_test.len());
            engine.push_batch(&[(sid, s)]);
            match engine.health(sid).unwrap().mode {
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
        let burst = (cfg.degraded_ratio * cfg.window as f64).ceil() as usize;
        for _ in 0..burst {
            let _ = engine.push_batch(&[(sid, nan.clone())]);
        }
        assert_eq!(
            engine.health(sid).unwrap().mode,
            FeedMode::Degraded { reason: DegradeReason::RejectedSamples },
        );
    }

    /// A plausible-but-corrupted feed: every push carries one channel
    /// with a rotated angle. The guard passes it (finite values), the
    /// bad-data screen excises it, and the session degrades with the
    /// `BadData` reason — not `Dark`, because detection still runs on
    /// the surviving channels.
    #[test]
    fn bad_data_feed_degrades_with_baddata_reason() {
        let data = tiny_dataset();
        let mut engine = engine_for(&data);
        let sid = engine.open_session();
        let n = data.network.n_buses();
        let cfg = engine.degrade_config().clone();
        for t in 0..cfg.window {
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
            let events = engine.push_batch(&[(sid, PhasorSample::complete(phasors))]);
            assert!(events[0].is_ok(), "corrupted-but-finite samples pass the guard");
        }
        let h = engine.health(sid).unwrap();
        assert!(
            h.snapshot.bad_data_samples * 2 >= cfg.window,
            "screen fired on only {} of {} pushes",
            h.snapshot.bad_data_samples,
            cfg.window
        );
        assert_eq!(h.mode, FeedMode::Degraded { reason: DegradeReason::BadData });
        assert_eq!(h.rejected, 0, "bad data is excised, not rejected");
    }

    #[test]
    fn session_id_display_and_error_messages() {
        let id = SessionId { slot: 4, generation: 2 };
        assert_eq!(id.to_string(), "s4.g2");
        assert_eq!(id.slot(), 4);
        assert_eq!(id.generation(), 2);
        let e = ServeError::UnknownSession(id);
        assert!(e.to_string().contains("s4.g2"));
        let e = ServeError::BadSample(BadSampleReason::NonFinite { node: 9 });
        assert!(e.to_string().contains("node 9"));
        let e = ServeError::BadSample(BadSampleReason::WrongLength { expected: 14, got: 3 });
        assert!(e.to_string().contains("14"));
        assert!(e.to_string().contains('3'));
        let e = ServeError::BadSample(BadSampleReason::MaskMismatch { nodes: 5, mask: 4 });
        assert!(e.to_string().contains("mask"));
        assert_eq!(BadSampleReason::NonFinite { node: 0 }.label(), "non_finite");
        let key = crate::fleet::FeedKey { grid: crate::fleet::GridId(0), feed: 7 };
        assert!(ServeError::UnknownFeed(key).to_string().contains("g0.f7"));
        assert!(ServeError::DuplicateFeed(key).to_string().contains("g0.f7"));
        assert!(ServeError::UnknownGrid("west".into()).to_string().contains("west"));
        assert!(ServeError::DuplicateGrid("west".into()).to_string().contains("west"));
        assert!(ServeError::Overloaded { shard: 3 }.to_string().contains("shard 3"));
        assert!(ServeError::Snapshot("skew".into()).to_string().contains("skew"));
    }
}
