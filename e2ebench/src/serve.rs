//! The serving load generator: an open-loop 60 Hz phase and a closed-loop
//! phase over `Fleet::push_batch`, the outcome and event records they
//! leave, the correctness gates over them, and the traced tick
//! decomposition.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pmu_detect::stream::{StreamEvent, StreamingDetector};
use pmu_obs::metrics::{histogram, Histogram};
use pmu_serve::{Fleet, ServeError};
use pmu_sim::PhasorSample;

use crate::stats;
use crate::traffic::{Expect, FeedPlan};

/// One frame period at the C37.118 rate for 60 Hz grids.
const FRAME: Duration = Duration::from_nanos(16_666_667);
/// Ticks after an episode ends during which a raise still counts as
/// detecting it.
const GRACE: usize = 10;
/// Distinct missing-data masks kept for the traced `RestrictedBank::build`
/// timing.
const MASKS_KEPT: usize = 64;

/// Outcome class of one push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Event,
    BadSample,
    Shed,
    Other,
}

/// Open-loop measurements.
#[derive(Default)]
pub struct OpenLoop {
    /// Per tick: from due time to `push_batch` return, µs.
    pub latency_us: Vec<f64>,
    /// Per tick: from due time to the generator starting the push, µs.
    pub lag_us: Vec<f64>,
    /// Samples whose tick returned within one frame period.
    pub on_time_samples: u64,
    pub samples: u64,
}

/// Per-tick trace sums (metrics on): the bench's own push timing and the
/// fleet's and detector's existing histograms, read around every tick.
#[derive(Default)]
pub struct TickTrace {
    samples: u64,
    /// Σ push_batch wall time.
    wall_us: f64,
    /// Σ over ticks of the slowest shard's drain time.
    blocking_us: f64,
    /// Σ over ticks and shards of drain time (time inside `push_one`).
    drain_us: f64,
    /// Σ `StreamingDetector::push` time inside the fleet.
    detect_us: f64,
    /// Σ detect stage 1–3 time.
    stage_us: f64,
    pub push_batch_us: Vec<f64>,
}

impl TickTrace {
    /// Serve time not covered by detection, per sample: routing,
    /// admission and scatter outside the shard drains, plus the guard,
    /// accounting and recorder work inside them.
    pub fn self_us_per_sample(&self) -> f64 {
        let outside = self.wall_us - self.blocking_us;
        (outside + self.drain_us - self.detect_us) / self.samples.max(1) as f64
    }

    /// Share of the traced tick time that serve self time plus detect
    /// stage time along the blocking path (the slowest shard of each
    /// tick) accounts for. The blocking shard's split between serve,
    /// stage and voting time is taken to be the fleet-wide split.
    pub fn accounted_ratio(&self) -> f64 {
        if self.drain_us <= 0.0 || self.wall_us <= 0.0 {
            return 0.0;
        }
        let outside = self.wall_us - self.blocking_us;
        let serve_share = (self.drain_us - self.detect_us) / self.drain_us;
        let stage_share = self.stage_us / self.drain_us;
        (outside + self.blocking_us * (serve_share + stage_share)) / self.wall_us
    }
}

/// Histogram handles a traced tick reads.
struct TraceProbes {
    shards: Vec<&'static Histogram>,
    detect: &'static Histogram,
    stages: [&'static Histogram; 3],
}

impl TraceProbes {
    fn new(n_shards: usize) -> Self {
        TraceProbes {
            shards: (0..n_shards)
                .map(|i| {
                    histogram(Box::leak(
                        format!("serve.shard{i}.push_us").into_boxed_str(),
                    ))
                })
                .collect(),
            detect: histogram("serve.detect_latency_us"),
            stages: [
                histogram("detect.stage1_us"),
                histogram("detect.stage2_us"),
                histogram("detect.stage3_us"),
            ],
        }
    }

    fn read(&self) -> (Vec<f64>, f64, f64) {
        (
            self.shards.iter().map(|h| h.sum()).collect(),
            self.detect.sum(),
            self.stages.iter().map(|h| h.sum()).sum(),
        )
    }
}

/// Records of one feed.
#[derive(Default)]
struct FeedLog {
    classes: Vec<Class>,
    expects: Vec<Expect>,
    outages: Vec<Option<usize>>,
    /// Non-`None` events with their absolute tick.
    events: Vec<(usize, StreamEvent)>,
}

/// Event quality against the injected outage schedule.
pub struct EventScore {
    pub episodes: usize,
    pub detected: usize,
    pub raises: usize,
    pub true_raises: usize,
    /// For each detected episode whose onset and raise fell in the open
    /// loop: from the onset frame's due time to the raising push's
    /// return, ms.
    pub delays_ms: Vec<f64>,
}

/// Drives one fleet through its feeds' traffic and keeps every outcome.
pub struct LoadGen<'a> {
    fleet: &'a Fleet,
    feeds: &'a [FeedPlan],
    seed: u64,
    /// First absolute tick pushed into this fleet.
    base: usize,
    next: usize,
    logs: Vec<FeedLog>,
    /// Per tick since `base`: due time and return of an open-loop push.
    open_times: Vec<Option<(Instant, Instant)>>,
    /// Distinct missing-data masks seen, per grid: fingerprint → observed.
    masks: BTreeMap<(usize, u64), Vec<usize>>,
    probes: Option<TraceProbes>,
}

impl<'a> LoadGen<'a> {
    /// A load whose first push is absolute tick `base`.
    pub fn new(fleet: &'a Fleet, feeds: &'a [FeedPlan], seed: u64, base: usize) -> Self {
        LoadGen {
            fleet,
            feeds,
            seed,
            base,
            next: base,
            logs: feeds.iter().map(|_| FeedLog::default()).collect(),
            open_times: Vec::new(),
            masks: BTreeMap::new(),
            probes: None,
        }
    }

    /// Read the per-shard and detect histograms around every tick from
    /// now on (metrics must be on).
    pub fn enable_trace(&mut self) {
        self.probes = Some(TraceProbes::new(self.fleet.shard_count()));
    }

    /// The next tick's batch, with migrations due before it applied.
    fn build(&mut self) -> Vec<(pmu_serve::FeedKey, PhasorSample)> {
        let t = self.next;
        let mut batch = Vec::with_capacity(self.feeds.len());
        for (f, plan) in self.feeds.iter().enumerate() {
            if plan.migrate_at == Some(t) {
                let to = (self.fleet.home_shard(plan.key) + 1) % self.fleet.shard_count();
                self.fleet
                    .migrate_feed(plan.key, to)
                    .expect("migrating an open feed");
            }
            let d = plan.deliver(self.seed, t);
            let log = &mut self.logs[f];
            log.expects.push(d.expect);
            log.outages.push(d.outage);
            let mask = d.sample.mask();
            if d.expect == Expect::Event && mask.n_missing() > 0 && self.masks.len() < MASKS_KEPT {
                self.masks
                    .entry((plan.grid, mask.fingerprint()))
                    .or_insert_with(|| mask.observed());
            }
            batch.push((plan.key, d.sample));
        }
        batch
    }

    fn record(&mut self, results: Vec<Result<StreamEvent, ServeError>>) {
        let t = self.next;
        for (log, r) in self.logs.iter_mut().zip(results) {
            let class = match r {
                Ok(StreamEvent::None) => Class::Event,
                Ok(ev) => {
                    log.events.push((t, ev));
                    Class::Event
                }
                Err(ServeError::BadSample(_)) => Class::BadSample,
                Err(ServeError::Overloaded { .. }) => Class::Shed,
                Err(_) => Class::Other,
            };
            log.classes.push(class);
        }
        self.next += 1;
    }

    /// Push one tick, returning (start, end) of the `push_batch` call.
    fn push(
        &mut self,
        batch: &[(pmu_serve::FeedKey, PhasorSample)],
        trace: Option<&mut TickTrace>,
    ) -> (Instant, Instant) {
        let before = self.probes.as_ref().map(TraceProbes::read);
        let start = Instant::now();
        let results = std::hint::black_box(self.fleet.push_batch(batch));
        let end = Instant::now();
        if let (Some(trace), Some(probes), Some((s0, d0, st0))) =
            (trace, self.probes.as_ref(), before)
        {
            let (s1, d1, st1) = probes.read();
            let per_shard: Vec<f64> = s1.iter().zip(&s0).map(|(a, b)| a - b).collect();
            let wall = (end - start).as_secs_f64() * 1e6;
            trace.samples += batch.len() as u64;
            trace.wall_us += wall;
            trace.blocking_us += per_shard.iter().copied().fold(0.0, f64::max);
            trace.drain_us += per_shard.iter().sum::<f64>();
            trace.detect_us += d1 - d0;
            trace.stage_us += st1 - st0;
            trace.push_batch_us.push(wall);
        }
        self.record(results);
        (start, end)
    }

    /// Push `ticks` ticks back to back, unmeasured (cache warm-up).
    pub fn preroll(&mut self, ticks: usize) {
        for _ in 0..ticks {
            let batch = self.build();
            self.push(&batch, None);
        }
    }

    /// Push `ticks` ticks, each due one frame after the last, and time
    /// each from its due time. A late generator pushes immediately; the
    /// wait its lateness imposes counts in the latency.
    pub fn open_loop(&mut self, ticks: usize, mut trace: Option<&mut TickTrace>) -> OpenLoop {
        let mut out = OpenLoop::default();
        let t0 = Instant::now() + FRAME;
        for k in 0..ticks {
            let due = t0 + FRAME * k as u32;
            let batch = self.build();
            wait_until(due);
            let (start, end) = self.push(&batch, trace.as_deref_mut());
            let tick = self.next - 1 - self.base;
            self.open_times.resize(tick + 1, None);
            self.open_times[tick] = Some((due, end));
            let latency = end.saturating_duration_since(due);
            out.latency_us.push(latency.as_secs_f64() * 1e6);
            out.lag_us
                .push(start.saturating_duration_since(due).as_secs_f64() * 1e6);
            out.samples += batch.len() as u64;
            if latency <= FRAME {
                out.on_time_samples += batch.len() as u64;
            }
        }
        out
    }

    /// Push `ticks` ticks back to back; returns (samples, Σ push s).
    pub fn closed_loop(&mut self, ticks: usize, mut trace: Option<&mut TickTrace>) -> (u64, f64) {
        let (mut samples, mut busy) = (0u64, 0.0f64);
        for _ in 0..ticks {
            let batch = self.build();
            let (start, end) = self.push(&batch, trace.as_deref_mut());
            samples += batch.len() as u64;
            busy += (end - start).as_secs_f64();
        }
        (samples, busy)
    }

    /// Samples pushed so far.
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.classes.len() as u64).sum()
    }

    /// Gate: every outcome has the class its injected fault implies, and
    /// nothing was shed (every batch is below the ingress budget).
    /// Returns the number of samples with the expected class.
    pub fn check_outcomes(&self) -> Result<u64, String> {
        let mut ok = 0u64;
        for (plan, log) in self.feeds.iter().zip(&self.logs) {
            for (i, (&class, &expect)) in log.classes.iter().zip(&log.expects).enumerate() {
                let want = match expect {
                    Expect::Event => Class::Event,
                    Expect::BadSample => Class::BadSample,
                };
                if class != want {
                    return Err(format!(
                        "feed {} tick {}: outcome {class:?}, injected fault implies {want:?}",
                        plan.key,
                        self.base + i
                    ));
                }
                ok += 1;
            }
        }
        Ok(ok)
    }

    /// Gate: replay feed `f` through `monitor` (a lone
    /// `StreamingDetector` in the feed's starting state) on the same
    /// samples the fleet accepted; every event must match the fleet's.
    /// Returns the per-push times, µs.
    pub fn mirror(&self, f: usize, mut monitor: StreamingDetector) -> Result<Vec<f64>, String> {
        let plan = &self.feeds[f];
        let log = &self.logs[f];
        let mut events = log.events.iter().peekable();
        let mut push_us = Vec::with_capacity(log.classes.len());
        for (i, &class) in log.classes.iter().enumerate() {
            if class != Class::Event {
                continue;
            }
            let t = self.base + i;
            let d = plan.deliver(self.seed, t);
            let started = Instant::now();
            let ev = monitor
                .push(&d.sample)
                .map_err(|e| format!("feed {} tick {t}: mirror refused a sample: {e}", plan.key))?;
            push_us.push(started.elapsed().as_secs_f64() * 1e6);
            let fleet_ev = match events.peek() {
                Some((et, ev)) if *et == t => {
                    events.next();
                    ev.clone()
                }
                _ => StreamEvent::None,
            };
            if ev != fleet_ev {
                return Err(format!(
                    "feed {} tick {t}: fleet answered {fleet_ev:?}, lone replay {ev:?}",
                    plan.key
                ));
            }
        }
        Ok(push_us)
    }

    /// Raises against the injected outage episodes. An episode counts
    /// when it starts in this fleet's record and leaves room for a k-of-m
    /// raise before the record ends; a raise is true when it falls inside
    /// an episode or `GRACE` ticks after it.
    pub fn score_events(&self, window: usize) -> EventScore {
        let mut s = EventScore {
            episodes: 0,
            detected: 0,
            raises: 0,
            true_raises: 0,
            delays_ms: Vec::new(),
        };
        let open = |t: usize| self.open_times.get(t - self.base).copied().flatten();
        let end = self.next;
        for log in &self.logs {
            // Maximal runs of injected outage ticks: (start, end) absolute.
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for (i, o) in log.outages.iter().enumerate() {
                let t = self.base + i;
                match (o, runs.last_mut()) {
                    (Some(_), Some((_, e))) if *e == t => *e = t + 1,
                    (Some(_), _) => runs.push((t, t + 1)),
                    _ => {}
                }
            }
            let raises: Vec<usize> = log
                .events
                .iter()
                .filter(|(_, ev)| matches!(ev, StreamEvent::Raised { .. }))
                .map(|(t, _)| *t)
                .collect();
            s.raises += raises.len();
            s.true_raises += raises
                .iter()
                .filter(|&&r| runs.iter().any(|&(a, b)| r >= a && r < b + GRACE))
                .count();
            for &(a, b) in &runs {
                if a == self.base || a + window + GRACE > end {
                    continue;
                }
                s.episodes += 1;
                if let Some(&r) = raises.iter().find(|&&r| r >= a && r < b + GRACE) {
                    s.detected += 1;
                    if let (Some((due, _)), Some((_, returned))) = (open(a), open(r)) {
                        s.delays_ms.push((returned - due).as_secs_f64() * 1e3);
                    }
                }
            }
        }
        s
    }

    /// Distinct missing-data masks seen, as `(grid, observed nodes)`.
    pub fn masks(&self) -> impl Iterator<Item = (usize, &Vec<usize>)> {
        self.masks.iter().map(|((g, _), obs)| (*g, obs))
    }
}

/// Sleep until shortly before `due`, then spin to it. The spin margin
/// covers late wake-ups on a busy host; the fleet's workers are idle
/// between ticks, so the spin takes no time from them.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(1500);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// An operator polling `/health` and `/metrics` once a second.
pub struct Scraper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<Vec<f64>, String>>>,
}

impl Scraper {
    /// Start polling `addr`.
    pub fn start(addr: SocketAddr) -> Scraper {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut ms = Vec::new();
            let mut next = Instant::now();
            while !flag.load(Ordering::Relaxed) {
                if Instant::now() >= next {
                    ms.push(scrape_once(addr)?);
                    next += Duration::from_secs(1);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(ms)
        });
        Scraper {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop polling; returns each scrape's time (both routes), ms.
    pub fn finish(mut self) -> Result<Vec<f64>, String> {
        self.stop.store(true, Ordering::Relaxed);
        let handle = self.handle.take().expect("finish runs once");
        handle
            .join()
            .map_err(|_| "scraper thread panicked".to_string())?
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Scrape `/health` and `/metrics` once; returns the time both took, ms.
pub fn scrape_once(addr: SocketAddr) -> Result<f64, String> {
    let started = Instant::now();
    for path in ["/health", "/metrics"] {
        scrape(addr, path)?;
    }
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// One GET over its own connection (the endpoint closes each one);
/// anything but `200` is an error.
fn scrape(addr: SocketAddr, path: &str) -> Result<(), String> {
    let err = |e: std::io::Error| format!("scrape {path}: {e}");
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(err)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(err)?;
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .map_err(err)?;
    let mut body = Vec::new();
    conn.read_to_end(&mut body).map_err(err)?;
    if !body.starts_with(b"HTTP/1.1 200") {
        return Err(format!(
            "scrape {path}: {:?}",
            String::from_utf8_lossy(&body[..body.len().min(40)])
        ));
    }
    Ok(())
}

/// End-to-end serving figures from one load's open and closed loops.
pub struct ServeFigures {
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    pub latency_tail_us: f64,
    pub tail_pct: f64,
    pub ticks: usize,
    pub lag_tail_us: f64,
    pub samples_per_s: f64,
    pub on_time_ratio: f64,
}

impl ServeFigures {
    pub fn new(open: &OpenLoop, closed: (u64, f64)) -> Self {
        let tail_pct = stats::supported_tail_pct(open.latency_us.len());
        ServeFigures {
            latency_p50_us: stats::median(&open.latency_us),
            latency_p90_us: stats::quantile(&open.latency_us, 0.9),
            latency_tail_us: stats::quantile(&open.latency_us, tail_pct / 100.0),
            tail_pct,
            ticks: open.latency_us.len(),
            lag_tail_us: stats::quantile(&open.lag_us, tail_pct / 100.0),
            samples_per_s: closed.0 as f64 / closed.1.max(1e-9),
            on_time_ratio: open.on_time_samples as f64 / open.samples.max(1) as f64,
        }
    }
}
