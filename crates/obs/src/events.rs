//! Typed event records for domain signals.
//!
//! Each type documents one line of the JSONL schema and knows how to
//! emit itself: the trace record (when a sink is installed) *and* its
//! companion metrics (when metrics are enabled), so call sites stay a
//! single `Event { .. }.emit()` line and the schema has one home.
//!
//! | type | trace name | companion metrics |
//! |---|---|---|
//! | [`NrSolve`] | `flow.nr_solve` | `flow.nr_solves`, `flow.nr_diverged`, `flow.nr_iterations`, `flow.nr_mismatch` |
//! | [`QLimitPin`] | `flow.q_limit_pin` | `flow.q_limit_pins` |
//! | [`SvdComputed`] | — (span `numerics.svd` for large inputs) | `numerics.svd_calls`, `numerics.svd_sweeps` |
//! | [`EigenComputed`] | — | `numerics.eigen_calls`, `numerics.eigen_sweeps` |
//! | [`WorkerStats`] | `par.worker` | `par.tasks`, `par.worker_busy_us`, `par.worker_idle_us` |
//! | [`StreamRaised`] | `detect.stream_raised` | `detect.stream_raised` |
//! | [`StreamRelocalized`] | `detect.stream_relocalized` | `detect.stream_relocalized` |
//! | [`StreamCleared`] | `detect.stream_cleared` | `detect.stream_cleared` |
//! | [`SampleRejected`] | `serve.sample_rejected` | `serve.samples_rejected`, `serve.rejected_<reason>` |
//! | [`FeedModeChanged`] | `serve.feed_mode` | `serve.mode_transitions`, `serve.feeds_degraded`, `serve.feeds_dark`, `serve.feeds_recovered` |
//! | [`BundleSaved`] | `model.bundle_saved` | `model.bundle_saved`, `model.bundle_save_ms`, `model.bundle_bytes` |
//! | [`BundleLoaded`] | `model.bundle_loaded` | `model.bundle_loaded`, `model.bundle_load_ms` |

use crate::recorder::RecKind;
use crate::trace::{event, Value};
use crate::{counter, histogram, record};

/// One Newton–Raphson AC power-flow solve completed (or gave up).
#[derive(Debug, Clone)]
pub struct NrSolve {
    /// Bus count of the solved network.
    pub buses: usize,
    /// Newton iterations used (the budget, when diverged).
    pub iterations: usize,
    /// Final infinity-norm power mismatch (p.u.).
    pub mismatch: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

impl NrSolve {
    /// Record the trace event and companion metrics.
    pub fn emit(&self) {
        counter!("flow.nr_solves").inc();
        if !self.converged {
            counter!("flow.nr_diverged").inc();
        }
        histogram!("flow.nr_iterations").observe(self.iterations as f64);
        histogram!("flow.nr_mismatch").observe(self.mismatch);
        event(
            "flow.nr_solve",
            &[
                ("buses", self.buses.into()),
                ("iterations", self.iterations.into()),
                ("mismatch", self.mismatch.into()),
                ("converged", self.converged.into()),
            ],
        );
    }
}

/// A PV bus was pinned at a violated reactive limit and demoted to PQ
/// (MATPOWER-style `ENFORCE_Q_LIMS` outer round).
#[derive(Debug, Clone)]
pub struct QLimitPin {
    /// Internal bus index that was demoted.
    pub bus: usize,
    /// The aggregate limit (MVAr) the bus generators were pinned at.
    pub q_mvar: f64,
}

impl QLimitPin {
    /// Record the trace event and companion metrics.
    pub fn emit(&self) {
        counter!("flow.q_limit_pins").inc();
        event(
            "flow.q_limit_pin",
            &[("bus", self.bus.into()), ("q_mvar", self.q_mvar.into())],
        );
    }
}

/// One Jacobi SVD completed. High call volume — metrics only (the
/// caller opens a `numerics.svd` span for large inputs).
#[derive(Debug, Clone)]
pub struct SvdComputed {
    /// Input rows.
    pub rows: usize,
    /// Input columns.
    pub cols: usize,
    /// Jacobi sweeps used.
    pub sweeps: usize,
}

impl SvdComputed {
    /// Record companion metrics.
    pub fn emit(&self) {
        counter!("numerics.svd_calls").inc();
        histogram!("numerics.svd_sweeps").observe(self.sweeps as f64);
        histogram!("numerics.svd_elems").observe((self.rows * self.cols) as f64);
    }
}

/// One symmetric Jacobi eigendecomposition completed. Metrics only.
#[derive(Debug, Clone)]
pub struct EigenComputed {
    /// Matrix dimension.
    pub n: usize,
    /// Jacobi sweeps used.
    pub sweeps: usize,
}

impl EigenComputed {
    /// Record companion metrics.
    pub fn emit(&self) {
        counter!("numerics.eigen_calls").inc();
        histogram!("numerics.eigen_sweeps").observe(self.sweeps as f64);
    }
}

/// Per-worker accounting of one `par_map` fan-out: how many items the
/// worker pulled and how its wall time split into busy vs. idle.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index within this fan-out (0-based).
    pub worker: usize,
    /// Items this worker executed.
    pub tasks: usize,
    /// Time spent inside the mapped closure (µs).
    pub busy_us: u64,
    /// Wall time minus busy time: startup, scheduling, tail wait (µs).
    pub idle_us: u64,
}

impl WorkerStats {
    /// Record the trace event and companion metrics.
    pub fn emit(&self) {
        counter!("par.tasks").add(self.tasks as u64);
        histogram!("par.worker_busy_us").observe(self.busy_us as f64);
        histogram!("par.worker_idle_us").observe(self.idle_us as f64);
        event(
            "par.worker",
            &[
                ("worker", self.worker.into()),
                ("tasks", self.tasks.into()),
                ("busy_us", self.busy_us.into()),
                ("idle_us", self.idle_us.into()),
            ],
        );
    }
}

/// The streaming detector confirmed an outage event.
#[derive(Debug, Clone)]
pub struct StreamRaised {
    /// Majority-voted outaged lines.
    pub lines: Vec<usize>,
    /// Samples processed when the event fired.
    pub samples_seen: usize,
}

impl StreamRaised {
    /// Record the trace event, companion metrics and a flight-recorder
    /// record (`a` = samples seen, `b` = outaged-line count).
    pub fn emit(&self) {
        counter!("detect.stream_raised").inc();
        record!(RecKind::Event, "detect.stream_raised", self.samples_seen, self.lines.len());
        event(
            "detect.stream_raised",
            &[
                ("lines", Value::from(&self.lines[..])),
                ("samples_seen", self.samples_seen.into()),
            ],
        );
    }
}

/// The streaming detector refreshed the localization of its active event
/// (the event stays raised; only the majority line set changed).
#[derive(Debug, Clone)]
pub struct StreamRelocalized {
    /// The refreshed majority-voted line set.
    pub lines: Vec<usize>,
    /// Samples processed when the localization shifted.
    pub samples_seen: usize,
}

impl StreamRelocalized {
    /// Record the trace event, companion metrics and a flight-recorder
    /// record (`a` = samples seen, `b` = outaged-line count).
    pub fn emit(&self) {
        counter!("detect.stream_relocalized").inc();
        record!(
            RecKind::Event,
            "detect.stream_relocalized",
            self.samples_seen,
            self.lines.len()
        );
        event(
            "detect.stream_relocalized",
            &[
                ("lines", Value::from(&self.lines[..])),
                ("samples_seen", self.samples_seen.into()),
            ],
        );
    }
}

/// The serving ingestion guard rejected an inbound sample before it could
/// reach the detector (non-finite values, wrong length, mask skew).
#[derive(Debug, Clone)]
pub struct SampleRejected {
    /// Short machine-stable reason tag (`"non_finite"`, `"wrong_length"`,
    /// `"mask_mismatch"`), doubling as the per-reason counter suffix.
    pub reason: &'static str,
}

impl SampleRejected {
    /// Record the trace event, companion metrics and a flight-recorder
    /// record (`a` = reason code: 0 non_finite, 1 wrong_length, 2 other).
    pub fn emit(&self) {
        counter!("serve.samples_rejected").inc();
        let code = match self.reason {
            "non_finite" => {
                counter!("serve.rejected_non_finite").inc();
                0u64
            }
            "wrong_length" => {
                counter!("serve.rejected_wrong_length").inc();
                1
            }
            _ => {
                counter!("serve.rejected_other").inc();
                2
            }
        };
        record!(RecKind::Event, "serve.sample_rejected", code, 0);
        event("serve.sample_rejected", &[("reason", Value::from(self.reason))]);
    }
}

/// A serving session's degraded-mode state machine transitioned.
#[derive(Debug, Clone)]
pub struct FeedModeChanged {
    /// Grid-qualified feed label (e.g. `"east.f7"`).
    pub feed: String,
    /// The feed's id within its grid.
    pub feed_id: u64,
    /// Mode label left (`"healthy"` / `"degraded"` / `"dark"`).
    pub from: &'static str,
    /// Mode label entered.
    pub to: &'static str,
    /// What drove the transition (e.g. `"missing_ratio"`).
    pub reason: &'static str,
}

impl FeedModeChanged {
    /// Record the trace event, companion metrics and a flight-recorder
    /// record (`a` = feed id, `b` = mode entered: 0 healthy,
    /// 1 degraded, 2 dark).
    pub fn emit(&self) {
        counter!("serve.mode_transitions").inc();
        let code = match self.to {
            "degraded" => {
                counter!("serve.feeds_degraded").inc();
                1u64
            }
            "dark" => {
                counter!("serve.feeds_dark").inc();
                2
            }
            _ => {
                counter!("serve.feeds_recovered").inc();
                0
            }
        };
        record!(RecKind::Event, "serve.feed_mode", self.feed_id, code);
        event(
            "serve.feed_mode",
            &[
                ("feed", Value::from(self.feed.as_str())),
                ("from", Value::from(self.from)),
                ("to", Value::from(self.to)),
                ("reason", Value::from(self.reason)),
            ],
        );
    }
}

/// The streaming detector cleared its active outage event.
#[derive(Debug, Clone)]
pub struct StreamCleared {
    /// Samples processed when the event cleared.
    pub samples_seen: usize,
}

impl StreamCleared {
    /// Record the trace event, companion metrics and a flight-recorder
    /// record (`a` = samples seen).
    pub fn emit(&self) {
        counter!("detect.stream_cleared").inc();
        record!(RecKind::Event, "detect.stream_cleared", self.samples_seen, 0);
        event("detect.stream_cleared", &[("samples_seen", self.samples_seen.into())]);
    }
}

/// A trained model bundle was serialized to the artifact store (or an
/// explicit path).
#[derive(Debug, Clone)]
pub struct BundleSaved {
    /// System the bundle was trained on (e.g. `"ieee14"`).
    pub system: String,
    /// Serialized size in bytes.
    pub bytes: usize,
    /// Wall-clock serialization + write time (milliseconds).
    pub ms: f64,
}

impl BundleSaved {
    /// Record the trace event and companion metrics.
    pub fn emit(&self) {
        counter!("model.bundle_saved").inc();
        histogram!("model.bundle_save_ms").observe(self.ms);
        histogram!("model.bundle_bytes").observe(self.bytes as f64);
        event(
            "model.bundle_saved",
            &[
                ("system", Value::from(self.system.as_str())),
                ("bytes", self.bytes.into()),
                ("ms", self.ms.into()),
            ],
        );
    }
}

/// A model bundle was deserialized and verified — either straight from an
/// explicit path or through an artifact-store lookup (`cache_hit` marks
/// store lookups that let the caller skip training; the store's
/// `model.store_hit`/`model.store_miss` counters track lookup outcomes
/// separately).
#[derive(Debug, Clone)]
pub struct BundleLoaded {
    /// System the bundle serves.
    pub system: String,
    /// Serialized size in bytes.
    pub bytes: usize,
    /// Wall-clock read + parse + verify time (milliseconds).
    pub ms: f64,
    /// `true` when this load came out of an artifact-store lookup
    /// (training was skipped because of it).
    pub cache_hit: bool,
}

impl BundleLoaded {
    /// Record the trace event and companion metrics.
    pub fn emit(&self) {
        counter!("model.bundle_loaded").inc();
        histogram!("model.bundle_load_ms").observe(self.ms);
        event(
            "model.bundle_loaded",
            &[
                ("system", Value::from(self.system.as_str())),
                ("bytes", self.bytes.into()),
                ("ms", self.ms.into()),
                ("cache_hit", self.cache_hit.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{metrics_summary, reset_metrics, set_metrics_enabled};

    #[test]
    fn typed_events_drive_companion_metrics() {
        let _guard = crate::testutil::lock();
        reset_metrics();
        set_metrics_enabled(true);
        NrSolve { buses: 14, iterations: 3, mismatch: 1e-9, converged: true }.emit();
        NrSolve { buses: 14, iterations: 30, mismatch: 0.5, converged: false }.emit();
        SvdComputed { rows: 14, cols: 16, sweeps: 7 }.emit();
        EigenComputed { n: 2, sweeps: 2 }.emit();
        WorkerStats { worker: 0, tasks: 5, busy_us: 100, idle_us: 10 }.emit();
        StreamRaised { lines: vec![3, 7], samples_seen: 42 }.emit();
        StreamRelocalized { lines: vec![4], samples_seen: 45 }.emit();
        StreamCleared { samples_seen: 50 }.emit();
        SampleRejected { reason: "non_finite" }.emit();
        SampleRejected { reason: "wrong_length" }.emit();
        for (from, to, reason) in
            [("healthy", "dark", "missing_ratio"), ("dark", "healthy", "recovered")]
        {
            FeedModeChanged { feed: "east.f0".into(), feed_id: 0, from, to, reason }.emit();
        }
        set_metrics_enabled(false);

        assert_eq!(crate::counter("flow.nr_solves").get(), 2);
        assert_eq!(crate::counter("flow.nr_diverged").get(), 1);
        assert_eq!(crate::counter("numerics.svd_calls").get(), 1);
        assert_eq!(crate::counter("numerics.eigen_calls").get(), 1);
        assert_eq!(crate::counter("par.tasks").get(), 5);
        assert_eq!(crate::counter("detect.stream_raised").get(), 1);
        assert_eq!(crate::counter("detect.stream_relocalized").get(), 1);
        assert_eq!(crate::counter("detect.stream_cleared").get(), 1);
        assert_eq!(crate::counter("serve.samples_rejected").get(), 2);
        assert_eq!(crate::counter("serve.rejected_non_finite").get(), 1);
        assert_eq!(crate::counter("serve.rejected_wrong_length").get(), 1);
        assert_eq!(crate::counter("serve.mode_transitions").get(), 2);
        assert_eq!(crate::counter("serve.feeds_dark").get(), 1);
        assert_eq!(crate::counter("serve.feeds_recovered").get(), 1);

        let s = metrics_summary();
        assert!(s.contains("flow.nr_iterations"));
        assert!(s.contains("numerics.svd_sweeps"));
        reset_metrics();
    }
}
