//! Session-layer building blocks of the [`Fleet`](crate::Fleet)'s shards:
//! generation-tagged slot handles, the slot table with an O(1) free list,
//! and the per-feed serving state (voting monitor + degraded-mode
//! machine + flight-recorder ring).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use pmu_detect::stream::{HealthSnapshot, StreamingDetector};
use pmu_model::SessionSnapshot;
use pmu_obs::Recorder;

/// Capacity of each session's per-feed flight-recorder ring: enough to
/// hold several degrade windows of push history around an anomaly.
pub(crate) const FEED_RING_CAPACITY: usize = 128;

/// A generation-tagged handle to a slot of one shard's session table.
///
/// Slots are reused after a close, but each reuse bumps the slot's
/// generation, so a stale handle held across a close/reopen (or a
/// migration) can never address the new occupant (the classic ABA
/// hazard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SessionId {
    slot: u32,
    generation: u32,
}

/// Grid-qualified feed name used in mode-change observations and
/// incident dumps (e.g. `east.f7` — no `/`, it becomes part of a file
/// name). Unlike a slot index it is stable across shards, grids and
/// migrations.
pub(crate) struct FeedTag<'a> {
    pub(crate) grid: &'a str,
    pub(crate) feed: u64,
}

impl std::fmt::Display for FeedTag<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.f{}", self.grid, self.feed)
    }
}

/// One slot of a session table. The generation survives the occupant:
/// it is bumped on every close, which is what invalidates stale handles.
/// The occupant is shared (`Arc`), so a drain can lock one session
/// without holding the table, and a migration moves the session itself.
#[derive(Debug)]
struct Slot<S> {
    generation: u32,
    state: Option<Arc<Mutex<S>>>,
}

/// A generation-tagged slot table with an O(1) free list.
///
/// The original engine scanned the whole slot vector for a vacancy on
/// every open — linear in table size, quadratic for a churn-heavy
/// workload opening thousands of sessions. The table now keeps a stack
/// of free slot indices: open pops (or grows), close pushes, both O(1).
/// The invariant tying them together: a slot is in `free` **iff** its
/// `state` is `None`, so `active() = slots.len() - free.len()` without a
/// scan. Generation tagging is untouched.
#[derive(Debug)]
pub(crate) struct SessionTable<S> {
    slots: Vec<Slot<S>>,
    /// Indices of vacant slots (LIFO: the most recently closed slot is
    /// reused first, keeping the table compact under churn).
    free: Vec<u32>,
}

impl<S> SessionTable<S> {
    pub(crate) fn new() -> Self {
        SessionTable { slots: Vec::new(), free: Vec::new() }
    }

    /// Insert `state` into a free slot (O(1)) and return its handle.
    pub(crate) fn open(&mut self, state: S) -> SessionId {
        self.insert(Arc::new(Mutex::new(state)))
    }

    /// Home an existing session (the migration path) in a free slot.
    pub(crate) fn insert(&mut self, session: Arc<Mutex<S>>) -> SessionId {
        let slot = match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].state.is_none());
                self.slots[i as usize].state = Some(session);
                i as usize
            }
            None => {
                self.slots.push(Slot { generation: 0, state: Some(session) });
                self.slots.len() - 1
            }
        };
        SessionId { slot: slot as u32, generation: self.slots[slot].generation }
    }

    /// Close a session; `false` when the handle is not open (including
    /// stale handles of an already-reused slot). Closing bumps the slot
    /// generation, invalidating every outstanding handle to it.
    pub(crate) fn close(&mut self, id: SessionId) -> bool {
        self.take(id).is_some()
    }

    /// Close a session and hand back the session itself (the migration
    /// path). `None` when the handle is not open.
    pub(crate) fn take(&mut self, id: SessionId) -> Option<Arc<Mutex<S>>> {
        let slot = self.slots.get_mut(id.slot as usize)?;
        if slot.generation != id.generation || slot.state.is_none() {
            return None;
        }
        let state = slot.state.take().expect("checked above");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.slot);
        Some(state)
    }

    /// Resolve a handle to its live session, or `None` when closed/stale.
    pub(crate) fn resolve(&self, id: SessionId) -> Option<&Arc<Mutex<S>>> {
        let slot = self.slots.get(id.slot as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.state.as_ref()
    }

    /// Number of open sessions — O(1) via the free-list invariant.
    pub(crate) fn active(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A serving session's degraded-mode state.
///
/// Driven by the ratios of unscorable and rejected samples over the last
/// [`DegradeConfig::window`] pushes. `Dark` means the feed is effectively
/// blind (almost nothing scorable arrives); `Degraded` means enough data
/// still flows to detect, but the operator should distrust latency and
/// localization quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedMode {
    /// The feed delivers scorable data at a healthy rate.
    Healthy,
    /// A concerning fraction of recent samples was unscorable or rejected.
    Degraded {
        /// The dominant cause.
        reason: DegradeReason,
    },
    /// Nearly nothing scorable arrives; detection is effectively blind.
    Dark,
}

/// What pushed a feed out of [`FeedMode::Healthy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The detector could not score enough recent samples (masked data).
    MissingData,
    /// The ingestion guard rejected enough recent samples (invalid data).
    RejectedSamples,
    /// The bad-data screen excised suspect channels from enough recent
    /// samples: the feed is delivering *plausible but corrupted*
    /// measurements, so localization quality is suspect even though
    /// detection keeps running on the surviving channels.
    BadData,
}

impl FeedMode {
    /// Mode label used by the `serve.feed_mode` observation.
    pub fn label(&self) -> &'static str {
        match self {
            FeedMode::Healthy => "healthy",
            FeedMode::Degraded { .. } => "degraded",
            FeedMode::Dark => "dark",
        }
    }

    /// Numeric severity used by the `/metrics` feed-mode gauge and in
    /// flight-recorder operands: 0 healthy, 1 degraded, 2 dark.
    pub fn code(&self) -> u64 {
        match self {
            FeedMode::Healthy => 0,
            FeedMode::Degraded { .. } => 1,
            FeedMode::Dark => 2,
        }
    }

    /// Machine-stable tag persisted in session snapshots. Unlike
    /// [`FeedMode::label`] this distinguishes the degrade reasons, so the
    /// round trip is lossless.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            FeedMode::Healthy => "healthy",
            FeedMode::Degraded { reason: DegradeReason::MissingData } => "degraded_missing",
            FeedMode::Degraded { reason: DegradeReason::RejectedSamples } => {
                "degraded_rejected"
            }
            FeedMode::Degraded { reason: DegradeReason::BadData } => "degraded_baddata",
            FeedMode::Dark => "dark",
        }
    }

    /// Parse a [`FeedMode::tag`] back; `None` for an unknown tag.
    pub(crate) fn from_tag(tag: &str) -> Option<FeedMode> {
        match tag {
            "healthy" => Some(FeedMode::Healthy),
            "degraded_missing" => {
                Some(FeedMode::Degraded { reason: DegradeReason::MissingData })
            }
            "degraded_rejected" => {
                Some(FeedMode::Degraded { reason: DegradeReason::RejectedSamples })
            }
            "degraded_baddata" => {
                Some(FeedMode::Degraded { reason: DegradeReason::BadData })
            }
            "dark" => Some(FeedMode::Dark),
            _ => None,
        }
    }
}

/// Thresholds of the per-session degraded-mode state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeConfig {
    /// How many recent pushes the ratios are computed over. The mode
    /// never leaves `Healthy` before a full window has accumulated.
    pub window: usize,
    /// Bad-sample ratio (unscorable + rejected) at which the feed turns
    /// [`FeedMode::Degraded`].
    pub degraded_ratio: f64,
    /// Bad-sample ratio at which the feed turns [`FeedMode::Dark`].
    pub dark_ratio: f64,
}

impl Default for DegradeConfig {
    /// An 8-push window; a quarter bad degrades, three quarters is dark.
    fn default() -> Self {
        DegradeConfig { window: 8, degraded_ratio: 0.25, dark_ratio: 0.75 }
    }
}

/// Health of one serving session: the detector-level snapshot plus the
/// serving-level degraded-mode state and ingestion counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionHealth {
    /// The wrapped [`StreamingDetector`]'s counters.
    pub snapshot: HealthSnapshot,
    /// Current degraded-mode state.
    pub mode: FeedMode,
    /// Samples accepted into the voting window.
    pub pushed: usize,
    /// Samples refused by the ingestion guard.
    pub rejected: usize,
}

/// What one push contributed to the degraded-mode window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Validated and scored.
    Scored,
    /// Validated but unscorable (vote-neutral for the detector).
    Missing,
    /// Refused by the ingestion guard.
    Rejected,
    /// Scored, but only after the bad-data screen excised at least one
    /// suspect channel. The verdict stands; the feed's trustworthiness
    /// does not.
    BadData,
}

impl Outcome {
    /// Machine-stable tag persisted in session snapshots.
    fn tag(&self) -> &'static str {
        match self {
            Outcome::Scored => "scored",
            Outcome::Missing => "missing",
            Outcome::Rejected => "rejected",
            Outcome::BadData => "baddata",
        }
    }

    /// Parse an [`Outcome::tag`] back; `None` for an unknown tag.
    fn from_tag(tag: &str) -> Option<Outcome> {
        match tag {
            "scored" => Some(Outcome::Scored),
            "missing" => Some(Outcome::Missing),
            "rejected" => Some(Outcome::Rejected),
            "baddata" => Some(Outcome::BadData),
            _ => None,
        }
    }
}

/// Per-session mutable state: the voting monitor plus the serving-level
/// degraded-mode machine and the per-feed flight-recorder ring.
#[derive(Debug)]
pub(crate) struct SessionState {
    pub(crate) monitor: StreamingDetector,
    pub(crate) mode: FeedMode,
    pub(crate) recent: VecDeque<Outcome>,
    pub(crate) pushed: usize,
    pub(crate) rejected: usize,
    /// Per-feed flight recorder: one compact record per push outcome,
    /// snapshotted alongside the global ring into incident dumps.
    pub(crate) ring: Recorder,
    /// `true` while an incident dump has been written for the ongoing
    /// anomaly; cleared when the feed is Healthy with no active event,
    /// so one anomaly produces one dump.
    pub(crate) incident_open: bool,
}

impl SessionState {
    pub(crate) fn new(monitor: StreamingDetector) -> Self {
        SessionState {
            monitor,
            mode: FeedMode::Healthy,
            recent: VecDeque::new(),
            pushed: 0,
            rejected: 0,
            ring: Recorder::new(FEED_RING_CAPACITY),
            incident_open: false,
        }
    }

    /// Ratio of guard-rejected pushes over the degrade window, `None`
    /// before a full window has accumulated.
    pub(crate) fn rejected_ratio(&self, cfg: &DegradeConfig) -> Option<f64> {
        if self.recent.len() < cfg.window.max(1) {
            return None;
        }
        let rejected =
            self.recent.iter().filter(|o| **o == Outcome::Rejected).count() as f64;
        Some(rejected / self.recent.len() as f64)
    }

    /// Record one push outcome and advance the mode machine, emitting a
    /// [`pmu_obs::events::FeedModeChanged`] observation naming `who` on
    /// transitions.
    pub(crate) fn record(&mut self, who: &FeedTag<'_>, cfg: &DegradeConfig, outcome: Outcome) {
        if self.recent.len() == cfg.window.max(1) {
            self.recent.pop_front();
        }
        self.recent.push_back(outcome);
        let next = self.decide(cfg);
        if next != self.mode {
            let reason = match next {
                FeedMode::Healthy => "recovered",
                FeedMode::Degraded { reason: DegradeReason::MissingData } => "missing_ratio",
                FeedMode::Degraded { reason: DegradeReason::RejectedSamples } => {
                    "reject_ratio"
                }
                FeedMode::Degraded { reason: DegradeReason::BadData } => "baddata_ratio",
                FeedMode::Dark => "blackout",
            };
            pmu_obs::events::FeedModeChanged {
                feed: who.to_string(),
                feed_id: who.feed,
                from: self.mode.label(),
                to: next.label(),
                reason,
            }
            .emit();
            self.mode = next;
        }
    }

    fn decide(&self, cfg: &DegradeConfig) -> FeedMode {
        if self.recent.len() < cfg.window.max(1) {
            return FeedMode::Healthy;
        }
        let n = self.recent.len() as f64;
        let missing =
            self.recent.iter().filter(|o| **o == Outcome::Missing).count() as f64 / n;
        let rejected =
            self.recent.iter().filter(|o| **o == Outcome::Rejected).count() as f64 / n;
        let baddata =
            self.recent.iter().filter(|o| **o == Outcome::BadData).count() as f64 / n;
        // Bad-data pushes still yield verdicts (on the surviving
        // channels), so they can degrade a feed but never darken it:
        // `Dark` is reserved for feeds detection is actually blind on.
        let unscorable = missing + rejected;
        if unscorable >= cfg.dark_ratio {
            FeedMode::Dark
        } else if unscorable + baddata >= cfg.degraded_ratio {
            let worst = if rejected > missing {
                (rejected, DegradeReason::RejectedSamples)
            } else {
                (missing, DegradeReason::MissingData)
            };
            let reason =
                if baddata > worst.0 { DegradeReason::BadData } else { worst.1 };
            FeedMode::Degraded { reason }
        } else {
            FeedMode::Healthy
        }
    }

    pub(crate) fn health(&self) -> SessionHealth {
        SessionHealth {
            snapshot: self.monitor.health(),
            mode: self.mode,
            pushed: self.pushed,
            rejected: self.rejected,
        }
    }

    /// Capture this session as a persistent [`SessionSnapshot`]. The
    /// flight-recorder ring is deliberately excluded (diagnostics, not
    /// behaviour); everything the push path reads is included.
    pub(crate) fn to_snapshot(
        &self,
        system: &str,
        network_fingerprint: &str,
        grid: &str,
        feed: u64,
    ) -> SessionSnapshot {
        SessionSnapshot {
            system: system.to_string(),
            network_fingerprint: network_fingerprint.to_string(),
            grid: grid.to_string(),
            feed: SessionSnapshot::feed_hex(feed),
            mode: self.mode.tag().to_string(),
            recent: self.recent.iter().map(|o| o.tag().to_string()).collect(),
            pushed: self.pushed,
            rejected: self.rejected,
            incident_open: self.incident_open,
            stream: self.monitor.snapshot(),
        }
    }

    /// Rebuild a session from a snapshot and an already-restored voting
    /// monitor. The ring starts empty (it is diagnostics, not state).
    ///
    /// # Errors
    /// A description of the offending field when the snapshot carries an
    /// unknown mode or outcome tag.
    pub(crate) fn from_snapshot(
        monitor: StreamingDetector,
        snap: &SessionSnapshot,
    ) -> Result<Self, String> {
        let mode = FeedMode::from_tag(&snap.mode)
            .ok_or_else(|| format!("unknown feed-mode tag {:?}", snap.mode))?;
        let recent = snap
            .recent
            .iter()
            .map(|t| {
                Outcome::from_tag(t).ok_or_else(|| format!("unknown outcome tag {t:?}"))
            })
            .collect::<Result<VecDeque<_>, _>>()?;
        Ok(SessionState {
            monitor,
            mode,
            recent,
            pushed: snap.pushed,
            rejected: snap.rejected,
            ring: Recorder::new(FEED_RING_CAPACITY),
            incident_open: snap.incident_open,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The free list reuses slots O(1) while preserving the generation
    /// semantics that keep stale handles from reaching a new occupant.
    #[test]
    fn free_list_reuses_slots_with_fresh_generations() {
        let mut table: SessionTable<u32> = SessionTable::new();
        let a = table.open(1);
        let b = table.open(2);
        let c = table.open(3);
        assert_eq!((a.slot, b.slot, c.slot), (0, 1, 2));
        assert_eq!(table.active(), 3);

        assert!(table.close(b));
        assert!(!table.close(b), "double close reports false");
        assert_eq!(table.active(), 2);
        // LIFO reuse: the most recently freed slot comes back first.
        let d = table.open(4);
        assert_eq!(d.slot, b.slot);
        assert_ne!(d.generation, b.generation, "reuse bumps the generation");
        assert!(table.resolve(b).is_none(), "stale handle resolves to nothing");
        assert!(!table.close(b), "stale handle cannot close the new occupant");
        assert_eq!(*table.resolve(d).unwrap().lock().unwrap(), 4);
        assert_eq!(*table.resolve(a).unwrap().lock().unwrap(), 1);
        assert_eq!(*table.resolve(c).unwrap().lock().unwrap(), 3);

        // Deep churn: many close/open cycles never grow the table.
        let mut live = vec![a, d, c];
        for i in 0..100u32 {
            assert!(table.close(live.remove(0)));
            live.push(table.open(i));
            assert_eq!(table.active(), 3);
        }
        assert!(table.slots.len() <= 3, "churn must not grow the table");
    }

    #[test]
    fn take_hands_back_state_for_migration() {
        let mut table: SessionTable<String> = SessionTable::new();
        let id = table.open("payload".into());
        let taken = table.take(id).expect("open handle");
        assert_eq!(*taken.lock().unwrap(), "payload");
        assert!(table.take(id).is_none(), "second take finds nothing");
        assert_eq!(table.active(), 0);
        let mut other: SessionTable<String> = SessionTable::new();
        let moved = other.insert(Arc::clone(&taken));
        assert!(
            Arc::ptr_eq(other.resolve(moved).unwrap(), &taken),
            "a migration moves the session itself, not a copy"
        );
        let reused = table.open("next".into());
        assert_eq!(reused.slot, id.slot);
        assert_ne!(reused.generation, id.generation);
    }

    #[test]
    fn mode_and_outcome_tags_roundtrip() {
        for mode in [
            FeedMode::Healthy,
            FeedMode::Degraded { reason: DegradeReason::MissingData },
            FeedMode::Degraded { reason: DegradeReason::RejectedSamples },
            FeedMode::Degraded { reason: DegradeReason::BadData },
            FeedMode::Dark,
        ] {
            assert_eq!(FeedMode::from_tag(mode.tag()), Some(mode));
        }
        assert_eq!(FeedMode::from_tag("zombie"), None);
        for outcome in
            [Outcome::Scored, Outcome::Missing, Outcome::Rejected, Outcome::BadData]
        {
            assert_eq!(Outcome::from_tag(outcome.tag()), Some(outcome));
        }
        assert_eq!(Outcome::from_tag(""), None);
    }
}
