//! The per-feed serving state a [`Fleet`](crate::Fleet) keeps for every
//! open feed: the voting monitor, the degraded-mode machine and the
//! flight-recorder ring.

use std::collections::VecDeque;

use pmu_detect::stream::{HealthSnapshot, StreamingDetector};
use pmu_model::SessionSnapshot;
use pmu_obs::Recorder;

/// Capacity of each session's per-feed flight-recorder ring: enough to
/// hold several degrade windows of push history around an anomaly.
pub(crate) const FEED_RING_CAPACITY: usize = 128;

/// How many recent pushes the degraded-mode ratios are computed over.
/// The mode never leaves `Healthy` before a full window has accumulated.
pub(crate) const DEGRADE_WINDOW: usize = 8;

/// Bad-sample ratio (unscorable + rejected) at which a feed turns
/// [`FeedMode::Degraded`].
pub(crate) const DEGRADED_RATIO: f64 = 0.25;

/// Bad-sample ratio at which a feed turns [`FeedMode::Dark`].
pub(crate) const DARK_RATIO: f64 = 0.75;

/// Grid-qualified feed name used in mode-change observations and
/// incident dumps (e.g. `east.f7` — no `/`, it becomes part of a file
/// name). It is stable across shards, grids and migrations.
pub(crate) struct FeedTag<'a> {
    pub(crate) grid: &'a str,
    pub(crate) feed: u64,
}

impl std::fmt::Display for FeedTag<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.f{}", self.grid, self.feed)
    }
}

/// A serving session's degraded-mode state.
///
/// Driven by the ratios of unscorable and rejected samples over the last
/// 8 pushes. `Dark` means the feed is effectively
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
    pub(crate) fn rejected_ratio(&self) -> Option<f64> {
        if self.recent.len() < DEGRADE_WINDOW {
            return None;
        }
        let rejected =
            self.recent.iter().filter(|o| **o == Outcome::Rejected).count() as f64;
        Some(rejected / self.recent.len() as f64)
    }

    /// Record one push outcome and advance the mode machine, emitting a
    /// [`pmu_obs::events::FeedModeChanged`] observation naming `who` on
    /// transitions.
    pub(crate) fn record(&mut self, who: &FeedTag<'_>, outcome: Outcome) {
        if self.recent.len() == DEGRADE_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(outcome);
        let next = self.decide();
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

    fn decide(&self) -> FeedMode {
        if self.recent.len() < DEGRADE_WINDOW {
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
        if unscorable >= DARK_RATIO {
            FeedMode::Dark
        } else if unscorable + baddata >= DEGRADED_RATIO {
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
    /// unknown mode or outcome tag, more recent outcomes than the degrade
    /// window holds, or layers no push sequence produces: a `pushed`
    /// count other than the monitor's `samples_seen` (every accepted push
    /// advances both), or a mode other than the one its `recent` outcomes
    /// decide.
    pub(crate) fn from_snapshot(
        monitor: StreamingDetector,
        snap: &SessionSnapshot,
    ) -> Result<Self, String> {
        if snap.recent.len() > DEGRADE_WINDOW {
            return Err(format!(
                "{} recent outcomes, the degrade window holds {DEGRADE_WINDOW}",
                snap.recent.len()
            ));
        }
        let mode = FeedMode::from_tag(&snap.mode)
            .ok_or_else(|| format!("unknown feed-mode tag {:?}", snap.mode))?;
        let recent = snap
            .recent
            .iter()
            .map(|t| {
                Outcome::from_tag(t).ok_or_else(|| format!("unknown outcome tag {t:?}"))
            })
            .collect::<Result<VecDeque<_>, _>>()?;
        if snap.pushed != monitor.samples_seen() {
            return Err(format!(
                "{} pushes accepted but the monitor saw {} samples",
                snap.pushed,
                monitor.samples_seen()
            ));
        }
        let state = SessionState {
            monitor,
            mode,
            recent,
            pushed: snap.pushed,
            rejected: snap.rejected,
            ring: Recorder::new(FEED_RING_CAPACITY),
            incident_open: snap.incident_open,
        };
        let decided = state.decide();
        if decided != mode {
            return Err(format!(
                "mode {:?} disagrees with its recent outcomes, which decide {:?}",
                snap.mode,
                decided.tag()
            ));
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
