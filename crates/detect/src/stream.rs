//! Online streaming detection with temporal voting.
//!
//! PMUs report 30–60 samples per second, so a control-center application
//! sees a *stream*, not isolated samples. A single-sample classifier at
//! 30 Hz turns even a 0.1% per-sample false-alarm rate into a spurious
//! alarm every ~30 s. This module wraps [`Detector`] in a k-of-m voter:
//! an outage event is declared only after `k` of the last `m` samples
//! agree (and localized by majority over their line reports), and cleared
//! after a quiet run of the same length. This is the natural production
//! deployment of the paper's per-sample scheme.

use crate::detector::{Detection, Detector};
use crate::scoring::ScoringCache;
use crate::Result;
use pmu_sim::PhasorSample;
use std::collections::VecDeque;
use std::sync::Arc;

/// Voting configuration of the streaming wrapper.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Window length `m` (samples).
    pub window: usize,
    /// Votes `k` needed within the window to raise (or clear) an event.
    pub votes: usize,
}

impl Default for StreamConfig {
    /// 3-of-5 voting: at 30 samples/s an outage is confirmed within
    /// ~170 ms, while isolated glitches never fire.
    fn default() -> Self {
        StreamConfig { window: 5, votes: 3 }
    }
}

/// The monitor's externally visible state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamState {
    /// No active event.
    Quiet,
    /// A confirmed outage event with the majority-voted line set.
    Outage {
        /// Majority-voted outaged lines.
        lines: Vec<usize>,
    },
}

/// A state transition reported by [`StreamingDetector::push`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// Nothing changed.
    None,
    /// An outage event was raised.
    Raised {
        /// Majority-voted outaged lines.
        lines: Vec<usize>,
        /// Channels the bad-data screen excised in the outage-voting
        /// verdicts of the window (sorted union); the localization above
        /// was computed with these channels masked out.
        suspect_nodes: Vec<usize>,
    },
    /// The active event's localization changed as evidence accumulated
    /// (the event itself stays raised).
    Relocalized {
        /// The refreshed majority-voted line set.
        lines: Vec<usize>,
        /// As in [`StreamEvent::Raised`]: excised channels backing the
        /// refreshed localization.
        suspect_nodes: Vec<usize>,
    },
    /// The active event cleared.
    Cleared,
}

/// A point-in-time health summary of a [`StreamingDetector`].
///
/// Cheap to take (a handful of integer reads) and safe to poll from a
/// supervision loop at every sample. All counters are cumulative since
/// construction; `alarm_streak` is the only instantaneous field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Samples processed so far.
    pub samples_seen: usize,
    /// Samples the detector could not score. Unscorable samples are
    /// *vote-neutral*: they never help confirm an event and — crucially —
    /// never help clear one (a dark network is absence of evidence, not
    /// evidence of restoration).
    pub missing_samples: usize,
    /// `missing_samples / samples_seen` (0.0 before the first sample).
    pub missing_ratio: f64,
    /// Outage events raised so far.
    pub events_raised: usize,
    /// Outage events cleared so far.
    pub events_cleared: usize,
    /// Length of the current run of consecutive outage-voting samples.
    pub alarm_streak: usize,
    /// Whether an outage event is currently active.
    pub active: bool,
    /// Samples on which the bad-data screen excised at least one suspect
    /// channel (cumulative). These samples *were* scored — on their
    /// surviving channels — so they also count in `samples_seen`.
    pub bad_data_samples: usize,
}

/// The complete serializable state of a [`StreamingDetector`], minus the
/// re-derivable parts.
///
/// A snapshot captures everything `push` reads or writes — the voting
/// configuration, the verdict history (flattened from the deque, oldest
/// first), the event state machine, and the cumulative counters — so a
/// monitor restored from it produces **bit-identical** [`StreamEvent`]s
/// to the uninterrupted original on the same tail of samples. Two things
/// are deliberately excluded:
///
/// - the trained [`Detector`] itself (it ships in the model bundle; the
///   restorer supplies it, and provenance binding happens one layer up,
///   in `pmu-model`'s session-snapshot envelope), and
/// - the per-mask [`ScoringCache`] (a pure memoization of the detector —
///   rebuilding it from an empty cache changes latency, never verdicts).
///
/// The flattened shape (named fields only, `Vec` instead of `VecDeque`,
/// the `Quiet`/`Outage` state as an `active` flag plus a line list) is
/// what the vendored serde derive can express; it is also the stable
/// wire layout the session-snapshot schema version covers.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// Voting window length `m` ([`StreamConfig::window`]).
    pub window: usize,
    /// Votes `k` needed to raise or clear ([`StreamConfig::votes`]).
    pub votes: usize,
    /// Recent per-sample verdicts, oldest first; `None` marks a
    /// vote-neutral unscorable sample. At most `window` entries.
    pub history: Vec<Option<Detection>>,
    /// Whether an outage event is active ([`StreamState::Outage`]).
    pub active: bool,
    /// The active event's majority-voted lines; empty when `!active`.
    pub lines: Vec<usize>,
    /// Samples processed so far.
    pub samples_seen: usize,
    /// Samples absorbed as vote-neutral because they were unscorable.
    pub missing_samples: usize,
    /// Events raised since construction.
    pub events_raised: usize,
    /// Events cleared since construction.
    pub events_cleared: usize,
    /// Current run of consecutive outage-voting samples.
    pub alarm_streak: usize,
    /// Samples on which the bad-data screen excised a suspect channel.
    pub bad_data_samples: usize,
}

/// A k-of-m voting wrapper around a trained [`Detector`].
///
/// The detector and its scoring cache are shared, not owned: every feed
/// of one grid can hold the same trained model and the same per-mask
/// memo (see [`StreamingDetector::with_cache`]), so a fleet pays for one
/// copy of the model and one restriction pass per mask, not one per feed.
#[derive(Debug)]
pub struct StreamingDetector {
    detector: Arc<Detector>,
    cfg: StreamConfig,
    /// Mask-keyed scoring memoization: PMU streams repeat the same
    /// missing-data masks sample after sample, so each restriction is
    /// paid once per mask instead of once per push.
    cache: Arc<ScoringCache>,
    /// Recent per-sample verdicts (newest at the back); `None` marks a
    /// sample the detector could not score — a vote-neutral window entry.
    history: VecDeque<Option<Detection>>,
    state: StreamState,
    /// Samples processed so far.
    samples_seen: usize,
    /// Samples absorbed as quiet because the detector could not score them.
    missing_samples: usize,
    /// Events raised / cleared since construction.
    events_raised: usize,
    events_cleared: usize,
    /// Current run of consecutive outage-voting samples.
    alarm_streak: usize,
    /// Samples on which the bad-data screen excised a suspect channel.
    bad_data_samples: usize,
}

impl StreamingDetector {
    /// Wrap a trained detector.
    ///
    /// # Panics
    /// Panics when `votes` is zero or exceeds `window` (a configuration
    /// programming error).
    pub fn new(detector: impl Into<Arc<Detector>>, cfg: StreamConfig) -> Self {
        assert!(
            cfg.votes > 0 && cfg.votes <= cfg.window,
            "StreamConfig: need 0 < votes <= window"
        );
        StreamingDetector {
            detector: detector.into(),
            cfg,
            cache: Arc::default(),
            history: VecDeque::with_capacity(cfg.window),
            state: StreamState::Quiet,
            samples_seen: 0,
            missing_samples: 0,
            events_raised: 0,
            events_cleared: 0,
            alarm_streak: 0,
            bad_data_samples: 0,
        }
    }

    /// Score through `cache` instead of a private one. The cache is a
    /// pure memo keyed on the missing-data mask, so sharing it changes
    /// latency, never verdicts — provided every sharer wraps the same
    /// trained detector (the memo holds that detector's restrictions).
    pub fn with_cache(mut self, cache: Arc<ScoringCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Capture the monitor's complete mutable state as a serializable
    /// [`StreamSnapshot`]. See the snapshot type for what is included
    /// and what is re-derived on restore.
    pub fn snapshot(&self) -> StreamSnapshot {
        let (active, lines) = match &self.state {
            StreamState::Quiet => (false, Vec::new()),
            StreamState::Outage { lines } => (true, lines.clone()),
        };
        StreamSnapshot {
            window: self.cfg.window,
            votes: self.cfg.votes,
            history: self.history.iter().cloned().collect(),
            active,
            lines,
            samples_seen: self.samples_seen,
            missing_samples: self.missing_samples,
            events_raised: self.events_raised,
            events_cleared: self.events_cleared,
            alarm_streak: self.alarm_streak,
            bad_data_samples: self.bad_data_samples,
        }
    }

    /// Rebuild a monitor from a [`StreamSnapshot`] and the trained
    /// detector it was wrapped around. The scoring cache starts empty
    /// (it is a pure memoization), everything else resumes exactly where
    /// [`StreamingDetector::snapshot`] left off: the restored monitor
    /// emits bit-identical [`StreamEvent`]s to an uninterrupted one on
    /// the same tail of samples.
    ///
    /// # Errors
    /// [`DetectError::InvalidSnapshot`](crate::DetectError::InvalidSnapshot)
    /// when the snapshot violates the monitor's invariants: a voting
    /// config [`StreamingDetector::new`] would reject, a history longer
    /// than the window, a counter mismatch (`missing_samples` or the
    /// history length exceeding `samples_seen`), or a quiet state that
    /// still names outaged lines.
    pub fn restore(detector: impl Into<Arc<Detector>>, snap: &StreamSnapshot) -> Result<Self> {
        let fail = |m: String| Err(crate::DetectError::InvalidSnapshot(m));
        if snap.votes == 0 || snap.votes > snap.window {
            return fail(format!(
                "voting config {}-of-{} (need 0 < votes <= window)",
                snap.votes, snap.window
            ));
        }
        if snap.history.len() > snap.window {
            return fail(format!(
                "history holds {} verdicts, window is {}",
                snap.history.len(),
                snap.window
            ));
        }
        if snap.history.len() > snap.samples_seen || snap.missing_samples > snap.samples_seen
        {
            return fail(format!(
                "counters disagree: {} in history, {} missing, {} seen",
                snap.history.len(),
                snap.missing_samples,
                snap.samples_seen
            ));
        }
        if snap.bad_data_samples > snap.samples_seen {
            return fail(format!(
                "counters disagree: {} bad-data samples, {} seen",
                snap.bad_data_samples, snap.samples_seen
            ));
        }
        if !snap.active && !snap.lines.is_empty() {
            return fail(format!("quiet state carries lines {:?}", snap.lines));
        }
        let state = if snap.active {
            StreamState::Outage { lines: snap.lines.clone() }
        } else {
            StreamState::Quiet
        };
        Ok(StreamingDetector {
            detector: detector.into(),
            cfg: StreamConfig { window: snap.window, votes: snap.votes },
            cache: Arc::default(),
            history: snap.history.iter().cloned().collect(),
            state,
            samples_seen: snap.samples_seen,
            missing_samples: snap.missing_samples,
            events_raised: snap.events_raised,
            events_cleared: snap.events_cleared,
            alarm_streak: snap.alarm_streak,
            bad_data_samples: snap.bad_data_samples,
        })
    }

    /// Current monitor state.
    pub fn state(&self) -> &StreamState {
        &self.state
    }

    /// Samples processed so far.
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// A point-in-time health summary (cumulative counters + streak).
    pub fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            samples_seen: self.samples_seen,
            missing_samples: self.missing_samples,
            missing_ratio: if self.samples_seen == 0 {
                0.0
            } else {
                self.missing_samples as f64 / self.samples_seen as f64
            },
            events_raised: self.events_raised,
            events_cleared: self.events_cleared,
            alarm_streak: self.alarm_streak,
            active: matches!(self.state, StreamState::Outage { .. }),
            bad_data_samples: self.bad_data_samples,
        }
    }

    /// Feed one sample; returns the state transition (if any).
    ///
    /// Samples the underlying detector cannot score (e.g. almost
    /// everything missing) are **vote-neutral**: they occupy a window slot
    /// but count neither toward raising nor toward clearing. A dark
    /// network cannot confirm an event — and, just as important, it cannot
    /// *clear* one: only scorable quiet verdicts are evidence of
    /// restoration, so a PDC blackout during a confirmed outage leaves the
    /// event standing (the Sec. III-B failure mode).
    ///
    /// # Errors
    /// Propagates only structural errors (wrong sample size, non-finite
    /// observed values); transient insufficiency is absorbed as described.
    pub fn push(&mut self, sample: &PhasorSample) -> Result<StreamEvent> {
        // Counters saturate: a restored snapshot may carry any value.
        self.samples_seen = self.samples_seen.saturating_add(1);
        pmu_obs::counter!("detect.stream_samples").inc();
        let verdict = match self.detector.detect_with_cache(sample, &self.cache) {
            Ok(d) => {
                if !d.suspect_nodes.is_empty() {
                    self.bad_data_samples = self.bad_data_samples.saturating_add(1);
                    pmu_obs::counter!("detect.stream_bad_data").inc();
                }
                Some(d)
            }
            Err(crate::DetectError::InsufficientData { .. }) => {
                self.missing_samples = self.missing_samples.saturating_add(1);
                pmu_obs::counter!("detect.stream_missing").inc();
                None
            }
            Err(e) => return Err(e),
        };
        let voted_outage = verdict.as_ref().is_some_and(|d| d.outage);
        self.alarm_streak = if voted_outage { self.alarm_streak.saturating_add(1) } else { 0 };
        if self.history.len() == self.cfg.window {
            self.history.pop_front();
        }
        self.history.push_back(verdict);

        let outage_votes =
            self.history.iter().flatten().filter(|d| d.outage).count();
        // Only scorable quiet verdicts may clear: unscorable samples are
        // excluded from the quorum entirely.
        let quiet_votes =
            self.history.iter().flatten().filter(|d| !d.outage).count();

        match &self.state {
            StreamState::Quiet if outage_votes >= self.cfg.votes => {
                let lines = self.voted_lines();
                self.events_raised = self.events_raised.saturating_add(1);
                pmu_obs::events::StreamRaised {
                    lines: lines.clone(),
                    samples_seen: self.samples_seen,
                }
                .emit();
                self.state = StreamState::Outage { lines: lines.clone() };
                Ok(StreamEvent::Raised { lines, suspect_nodes: self.voted_suspects() })
            }
            StreamState::Outage { .. } if quiet_votes >= self.cfg.votes => {
                self.events_cleared = self.events_cleared.saturating_add(1);
                pmu_obs::events::StreamCleared { samples_seen: self.samples_seen }
                    .emit();
                self.state = StreamState::Quiet;
                Ok(StreamEvent::Cleared)
            }
            StreamState::Outage { lines } if outage_votes >= self.cfg.votes => {
                // Refresh the localization as evidence accumulates.
                let fresh = self.voted_lines();
                if &fresh != lines {
                    pmu_obs::events::StreamRelocalized {
                        lines: fresh.clone(),
                        samples_seen: self.samples_seen,
                    }
                    .emit();
                    self.state = StreamState::Outage { lines: fresh.clone() };
                    return Ok(StreamEvent::Relocalized {
                        lines: fresh,
                        suspect_nodes: self.voted_suspects(),
                    });
                }
                Ok(StreamEvent::None)
            }
            _ => Ok(StreamEvent::None),
        }
    }

    /// [`majority_lines`] over the outage-voting verdicts in the window.
    fn voted_lines(&self) -> Vec<usize> {
        let voters: Vec<&[usize]> = self
            .history
            .iter()
            .flatten()
            .filter(|d| d.outage)
            .map(|d| d.lines.as_slice())
            .collect();
        majority_lines(&voters)
    }

    /// Sorted union of the excised channels across the outage-voting
    /// verdicts in the window — the provenance trail a raise or
    /// relocalization carries when the bad-data screen intervened.
    fn voted_suspects(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .history
            .iter()
            .flatten()
            .filter(|d| d.outage)
            .flat_map(|d| d.suspect_nodes.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Majority vote over per-sample line reports: a line is confirmed when
/// *more than half* of the voters name it (`⌊v/2⌋ + 1` of `v` voters), so
/// a tie at exactly half never confirms. An empty voter set — or voters
/// that all reported empty line sets — yields an empty result.
pub fn majority_lines(voters: &[&[usize]]) -> Vec<usize> {
    if voters.is_empty() {
        return Vec::new();
    }
    let mut counts: Vec<(usize, usize)> = Vec::new();
    for lines in voters {
        for &l in *lines {
            match counts.iter_mut().find(|(line, _)| *line == l) {
                Some((_, c)) => *c += 1,
                None => counts.push((l, 1)),
            }
        }
    }
    let quorum = voters.len() / 2 + 1;
    let mut lines: Vec<usize> = counts
        .into_iter()
        .filter(|&(_, c)| c >= quorum)
        .map(|(l, _)| l)
        .collect();
    lines.sort_unstable();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::train_default;
    use pmu_grid::cases::ieee14;
    use pmu_sim::missing::outage_endpoints_mask;
    use pmu_sim::{generate_dataset, GenConfig};

    fn monitor() -> (pmu_sim::Dataset, StreamingDetector) {
        let net = ieee14().unwrap();
        let gen = GenConfig { train_len: 20, test_len: 8, ..GenConfig::default() };
        let data = generate_dataset(&net, &gen).unwrap();
        let det = train_default(&data).unwrap();
        let mon = StreamingDetector::new(det, StreamConfig::default());
        (data, mon)
    }

    #[test]
    fn sustained_outage_raises_once_and_localizes() {
        let (data, mut mon) = monitor();
        let case = &data.cases[2];
        let mut raised = 0usize;
        for t in 0..6 {
            match mon.push(&case.test.sample(t % case.test.len())).unwrap() {
                StreamEvent::Raised { lines, suspect_nodes } => {
                    raised += 1;
                    assert!(lines.contains(&case.branch), "raised with {lines:?}");
                    assert!(suspect_nodes.is_empty(), "clean stream flagged {suspect_nodes:?}");
                }
                StreamEvent::Cleared => panic!("spurious clear"),
                StreamEvent::None | StreamEvent::Relocalized { .. } => {}
            }
        }
        assert_eq!(raised, 1, "exactly one raise for a sustained event");
        assert!(matches!(mon.state(), StreamState::Outage { .. }));
        assert_eq!(mon.samples_seen(), 6);
    }

    #[test]
    fn feeds_sharing_a_detector_and_cache_match_private_ones() {
        let (data, mon) = monitor();
        let det = Arc::clone(&mon.detector);
        let cache = Arc::new(ScoringCache::new());
        let cfg = StreamConfig::default();
        let mut shared: Vec<StreamingDetector> = (0..2)
            .map(|_| StreamingDetector::new(Arc::clone(&det), cfg).with_cache(Arc::clone(&cache)))
            .collect();
        let mut private: Vec<StreamingDetector> =
            (0..2).map(|_| StreamingDetector::new((*det).clone(), cfg)).collect();
        assert!(std::ptr::eq(shared[0].detector(), shared[1].detector()));
        // Feed 0 rides an outage with its endpoints dark, feed 1 is quiet
        // with everything observed: two different masks.
        let case = &data.cases[2];
        let dark = outage_endpoints_mask(data.network.n_buses(), case.endpoints);
        for t in 0..8 {
            let samples = [
                case.test.sample(t % case.test.len()).masked(&dark),
                data.normal_test.sample(t % data.normal_test.len()),
            ];
            for (f, sample) in samples.iter().enumerate() {
                let a = shared[f].push(sample).unwrap();
                let b = private[f].push(sample).unwrap();
                assert_eq!(a, b, "feed {f} diverged at tick {t}");
            }
        }
        // The one shared memo holds what the two private ones hold.
        let private_banks: usize = private.iter().map(|m| m.cache.sizes().0).sum();
        assert!(private_banks >= 1, "the dark mask needs a bank of its own");
        assert_eq!(cache.sizes().0, private_banks);
    }

    #[test]
    fn isolated_glitch_does_not_raise() {
        let (data, mut mon) = monitor();
        // Normal, normal, one outage sample, normal...: 1-of-5 never fires
        // under 3-of-5 voting.
        let seq = [0usize, 1, usize::MAX, 2, 3, 4];
        for &t in &seq {
            let sample = if t == usize::MAX {
                data.cases[0].test.sample(0)
            } else {
                data.normal_test.sample(t % data.normal_test.len())
            };
            let ev = mon.push(&sample).unwrap();
            assert_eq!(ev, StreamEvent::None, "glitch must not raise");
        }
        assert_eq!(*mon.state(), StreamState::Quiet);
    }

    #[test]
    fn event_clears_after_restoration() {
        let (data, mut mon) = monitor();
        let case = &data.cases[1];
        for t in 0..4 {
            let _ = mon.push(&case.test.sample(t % case.test.len())).unwrap();
        }
        assert!(matches!(mon.state(), StreamState::Outage { .. }));
        let mut cleared = false;
        for t in 0..6 {
            if mon.push(&data.normal_test.sample(t % data.normal_test.len())).unwrap()
                == StreamEvent::Cleared
            {
                cleared = true;
            }
        }
        assert!(cleared, "event must clear after the line is restored");
        assert_eq!(*mon.state(), StreamState::Quiet);
    }

    #[test]
    fn dark_network_cannot_confirm() {
        use pmu_sim::Mask;
        let (data, mut mon) = monitor();
        let mask = Mask::with_missing(14, &(0..12).collect::<Vec<_>>());
        for t in 0..5 {
            let s = data.cases[0].test.sample(t % data.cases[0].test.len()).masked(&mask);
            let ev = mon.push(&s).unwrap();
            assert_eq!(ev, StreamEvent::None);
        }
        assert_eq!(*mon.state(), StreamState::Quiet);
    }

    /// Regression for the dark-window clearing bug: a PDC blackout during
    /// a confirmed outage used to count its unscorable samples as quiet
    /// votes, clearing the event after `k` dark samples — the exact
    /// failure mode Sec. III-B warns about. Unscorable samples are now
    /// vote-neutral for clearing.
    #[test]
    fn blackout_does_not_clear_active_event() {
        use pmu_sim::Mask;
        let (data, mut mon) = monitor();
        let case = &data.cases[2];
        // Confirm the outage.
        for t in 0..4 {
            let _ = mon.push(&case.test.sample(t % case.test.len())).unwrap();
        }
        assert!(matches!(mon.state(), StreamState::Outage { .. }));
        let raised_before = mon.health().events_raised;
        // PDC blackout: far more than `votes` consecutive unscorable
        // samples. The event must stand through all of them.
        let dark = Mask::with_missing(14, &(0..12).collect::<Vec<_>>());
        for t in 0..8 {
            let s = case.test.sample(t % case.test.len()).masked(&dark);
            let ev = mon.push(&s).unwrap();
            assert_eq!(ev, StreamEvent::None, "dark sample must not transition");
            assert!(
                matches!(mon.state(), StreamState::Outage { .. }),
                "blackout cleared the event after {} dark samples",
                t + 1
            );
        }
        let h = mon.health();
        assert_eq!(h.events_cleared, 0, "no clear during the blackout");
        assert_eq!(h.missing_samples, 8, "health counters stay truthful");
        // Blackout lifts with the line still out: the event persists (no
        // duplicate raise) and localization is intact.
        for t in 0..4 {
            let _ = mon.push(&case.test.sample(t % case.test.len())).unwrap();
        }
        assert!(matches!(mon.state(), StreamState::Outage { .. }));
        assert_eq!(mon.health().events_raised, raised_before, "no duplicate raise");
        // Only genuine restoration — scorable quiet verdicts — clears.
        let mut cleared = false;
        for t in 0..6 {
            if mon.push(&data.normal_test.sample(t % data.normal_test.len())).unwrap()
                == StreamEvent::Cleared
            {
                cleared = true;
            }
        }
        assert!(cleared, "restoration must still clear the event");
        assert_eq!(*mon.state(), StreamState::Quiet);
    }

    /// The relocalization branch: when the majority line set shifts while
    /// an event is active, the monitor reports `Relocalized` instead of
    /// silently mutating its state.
    #[test]
    fn localization_shift_emits_relocalized() {
        let (data, mut mon) = monitor();
        // Pick two cases on different lines.
        let first = &data.cases[1];
        let second = data
            .cases
            .iter()
            .find(|c| c.branch != first.branch)
            .expect("a second distinct outage case");
        for t in 0..4 {
            let _ = mon.push(&first.test.sample(t % first.test.len())).unwrap();
        }
        let StreamState::Outage { lines: initial } = mon.state().clone() else {
            panic!("event not raised");
        };
        let mut relocalized = None;
        for t in 0..8 {
            match mon.push(&second.test.sample(t % second.test.len())).unwrap() {
                StreamEvent::Relocalized { lines, .. } => {
                    relocalized = Some(lines);
                }
                StreamEvent::Raised { .. } => panic!("event was already active"),
                _ => {}
            }
        }
        let lines = relocalized.expect("line-set shift must emit Relocalized");
        assert_ne!(lines, initial);
        assert!(lines.contains(&second.branch), "refreshed to {lines:?}");
        assert_eq!(*mon.state(), StreamState::Outage { lines });
    }

    #[test]
    fn majority_lines_quorum_edges() {
        // Empty voter set.
        assert!(majority_lines(&[]).is_empty());
        // Voters with empty line reports confirm nothing.
        assert!(majority_lines(&[&[], &[], &[]]).is_empty());
        // Tie at exactly half (1 of 2 voters) misses the quorum of 2.
        assert!(majority_lines(&[&[3], &[7]]).is_empty());
        // Strict majority confirms; order-independent, sorted output.
        assert_eq!(majority_lines(&[&[7, 3], &[3, 7], &[5]]), vec![3, 7]);
        // 2 of 4 is exactly half — still short of the quorum of 3.
        assert!(majority_lines(&[&[1], &[1], &[2], &[2]]).is_empty());
        // 3 of 4 clears it.
        assert_eq!(majority_lines(&[&[1], &[1], &[1], &[2]]), vec![1]);
        // A single voter is its own majority.
        assert_eq!(majority_lines(&[&[9, 4]]), vec![4, 9]);
    }

    #[test]
    fn outage_with_dark_endpoints_still_confirmed() {
        let (data, mut mon) = monitor();
        let case = &data.cases[4];
        let mask = outage_endpoints_mask(14, case.endpoints);
        let mut raised_lines = None;
        for t in 0..6 {
            if let StreamEvent::Raised { lines, .. } =
                mon.push(&case.test.sample(t % case.test.len()).masked(&mask)).unwrap()
            {
                raised_lines = Some(lines);
            }
        }
        let lines = raised_lines.expect("event raised despite dark endpoints");
        assert!(lines.contains(&case.branch));
    }

    /// A corrupted channel riding along with a genuine outage: the
    /// bad-data screen excises it per-sample, the raise still localizes
    /// the true line, and both the event's `suspect_nodes` and the
    /// `bad_data_samples` counter carry the provenance.
    #[test]
    fn corrupted_channel_surfaces_in_raise_and_counters() {
        let (data, mut mon) = monitor();
        let case = &data.cases[2];
        // Victim channel far from the outage endpoints.
        let victim = (0..14)
            .find(|v| *v != case.endpoints.0 && *v != case.endpoints.1)
            .unwrap();
        let mut raised_suspects = None;
        for t in 0..6 {
            let clean = case.test.sample(t % case.test.len());
            let phasors: Vec<pmu_numerics::Complex64> = (0..clean.n_nodes())
                .map(|i| {
                    let z = clean.phasor_unchecked(i);
                    if i == victim {
                        pmu_numerics::Complex64::from_polar(z.abs(), z.arg() + 0.9)
                    } else {
                        z
                    }
                })
                .collect();
            let missing = clean.mask().missing_nodes();
            let sample = pmu_sim::PhasorSample::with_mask(
                phasors,
                pmu_sim::Mask::with_missing(clean.n_nodes(), &missing),
            );
            if let StreamEvent::Raised { lines, suspect_nodes } = mon.push(&sample).unwrap()
            {
                assert!(lines.contains(&case.branch), "localized {lines:?}");
                raised_suspects = Some(suspect_nodes);
            }
        }
        let suspects = raised_suspects.expect("outage raised despite corruption");
        assert!(suspects.contains(&victim), "raise carried {suspects:?}");
        let h = mon.health();
        assert!(h.bad_data_samples >= 3, "bad_data_samples={}", h.bad_data_samples);
        assert!(h.bad_data_samples <= h.samples_seen);
        // Snapshot/restore keeps the counter.
        let snap = mon.snapshot();
        let restored = StreamingDetector::restore(mon.detector().clone(), &snap).unwrap();
        assert_eq!(restored.health().bad_data_samples, h.bad_data_samples);
    }

    #[test]
    fn health_snapshot_tracks_counters() {
        use pmu_sim::Mask;
        let (data, mut mon) = monitor();
        assert_eq!(mon.health(), HealthSnapshot {
            samples_seen: 0,
            missing_samples: 0,
            missing_ratio: 0.0,
            events_raised: 0,
            events_cleared: 0,
            alarm_streak: 0,
            active: false,
            bad_data_samples: 0,
        });
        // Two unscorable (near-dark) samples absorbed as quiet votes.
        let dark = Mask::with_missing(14, &(0..12).collect::<Vec<_>>());
        for t in 0..2 {
            let s = data.normal_test.sample(t).masked(&dark);
            mon.push(&s).unwrap();
        }
        let h = mon.health();
        assert_eq!(h.samples_seen, 2);
        assert_eq!(h.missing_samples, 2);
        assert!((h.missing_ratio - 1.0).abs() < 1e-12);
        assert!(!h.active);
        // Sustained outage: raises once, streak grows.
        let case = &data.cases[2];
        for t in 0..4 {
            let _ = mon.push(&case.test.sample(t % case.test.len())).unwrap();
        }
        let h = mon.health();
        assert_eq!(h.events_raised, 1);
        assert_eq!(h.events_cleared, 0);
        assert!(h.active);
        assert!(h.alarm_streak >= 3, "streak={}", h.alarm_streak);
        // Restoration clears the event and resets the streak.
        for t in 0..6 {
            let _ = mon.push(&data.normal_test.sample(t % data.normal_test.len())).unwrap();
        }
        let h = mon.health();
        assert_eq!(h.events_cleared, 1);
        assert!(!h.active);
        assert_eq!(h.alarm_streak, 0);
        assert_eq!(h.samples_seen, 12);
        assert!((h.missing_ratio - 2.0 / 12.0).abs() < 1e-12);
    }

    /// The core fleet-serving guarantee: a monitor snapshotted mid-event
    /// (with unscorable samples in its window) and restored into a fresh
    /// instance replays the remaining stream bit-identically.
    #[test]
    fn snapshot_restore_replays_bit_identically() {
        use pmu_sim::Mask;
        let (data, mut mon) = monitor();
        let case = &data.cases[2];
        // Confirm an event, then darken the window so the snapshot point
        // carries history `None`s, an active event, and a live streak.
        for t in 0..4 {
            let _ = mon.push(&case.test.sample(t % case.test.len())).unwrap();
        }
        let dark = Mask::with_missing(14, &(0..12).collect::<Vec<_>>());
        for t in 0..2 {
            let _ = mon.push(&case.test.sample(t).masked(&dark)).unwrap();
        }
        let snap = mon.snapshot();
        assert!(snap.active, "snapshot taken mid-event");
        assert!(snap.history.iter().any(Option::is_none), "dark entries captured");

        let mut restored = StreamingDetector::restore(mon.detector().clone(), &snap).unwrap();
        assert_eq!(restored.snapshot(), snap, "restore is lossless");
        assert_eq!(restored.health(), mon.health());
        // Replay the same tail through both: outage tail, then clearing.
        let mut tail: Vec<_> =
            (0..3).map(|t| case.test.sample(t % case.test.len())).collect();
        tail.extend((0..6).map(|t| data.normal_test.sample(t % data.normal_test.len())));
        for s in &tail {
            assert_eq!(restored.push(s).unwrap(), mon.push(s).unwrap());
            assert_eq!(restored.health(), mon.health());
            assert_eq!(restored.state(), mon.state());
        }
        assert_eq!(mon.health().events_cleared, 1, "the tail really cleared the event");
    }

    /// The snapshot survives the vendored-serde JSON round trip and still
    /// restores to an equivalent monitor.
    #[test]
    fn snapshot_serde_roundtrip() {
        let (data, mut mon) = monitor();
        for t in 0..5 {
            let _ = mon.push(&data.cases[1].test.sample(t % data.cases[1].test.len()));
        }
        let snap = mon.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        use serde::Deserialize as _;
        let back =
            StreamSnapshot::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, snap);
        let restored = StreamingDetector::restore(mon.detector().clone(), &back).unwrap();
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn corrupt_snapshots_are_refused() {
        use crate::DetectError;
        let (data, mut mon) = monitor();
        for t in 0..3 {
            let _ = mon.push(&data.normal_test.sample(t));
        }
        let good = mon.snapshot();
        let det = || mon.detector().clone();
        let invalid = |s: StreamSnapshot| {
            matches!(
                StreamingDetector::restore(det(), &s),
                Err(DetectError::InvalidSnapshot(_))
            )
        };
        assert!(invalid(StreamSnapshot { votes: 0, ..good.clone() }));
        assert!(invalid(StreamSnapshot { votes: 9, window: 5, ..good.clone() }));
        let mut long = good.clone();
        long.history = (0..long.window + 1).map(|_| None).collect();
        long.samples_seen = long.window + 1;
        assert!(invalid(long));
        assert!(invalid(StreamSnapshot { samples_seen: 1, ..good.clone() }));
        assert!(invalid(StreamSnapshot { missing_samples: 99, ..good.clone() }));
        assert!(invalid(StreamSnapshot { bad_data_samples: 99, ..good.clone() }));
        assert!(invalid(StreamSnapshot { lines: vec![3], ..good.clone() }));
        // And the untouched snapshot still restores.
        assert!(StreamingDetector::restore(det(), &good).is_ok());
    }

    #[test]
    #[should_panic(expected = "votes <= window")]
    fn invalid_config_panics() {
        let (_, mon) = monitor();
        let det = mon.detector;
        let _ = StreamingDetector::new(det, StreamConfig { window: 3, votes: 5 });
    }
}
