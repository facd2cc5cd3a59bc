//! The **fleet**: many grids, many feeds, one process — the crate's
//! serving front-end. A single-grid deployment is a one-grid fleet.
//!
//! A [`Fleet`] hosts several trained bundles (one [`EngineCore`] per
//! grid) and spreads every open feed over a fixed set of shards. **One
//! map, the router, holds every open feed**: its key, its shard and its
//! session, each session behind a lock of its own. A shard holds no
//! sessions, only its admission counters and metrics. Stateless scoring
//! of independent samples goes through [`Fleet::detect_batch`], which
//! shares the grid's detector and scoring cache with its feeds.
//!
//! ## Draining
//!
//! A push batch is split into **one unit per feed**: that feed's samples
//! in input order. Units are resolved under the router's read lock,
//! which is released before any sample is pushed, so a slow feed (an
//! incident dump, say) holds only its own session lock and never stalls
//! its shard-mates. The units then drain on the fleet's persistent
//! drain pool: `par::num_threads() - 1` helper threads, started by the
//! first batch with work for two, plus the calling thread, all pulling
//! units from one shared index. A batch's riders (feeds in an outage,
//! several times costlier than a quiet feed) therefore spread over the
//! workers whichever shard they live on. The worker count is read on
//! every batch, so `par::set_threads(1)` drains on the calling thread.
//!
//! ## Routing
//!
//! Feeds are addressed by [`FeedKey`] (grid + 64-bit feed id). A feed's
//! *home shard* is `fnv1a(grid, feed) % shards` — deterministic, so the
//! same key always lands on the same shard until an explicit
//! [`Fleet::migrate_feed`] moves it. The router (one `RwLock` hash map)
//! resolves keys to `(shard, session)`; the push path takes it read-only,
//! and a migration rewrites a route's shard under the write lock while
//! the session itself stays where it is.
//!
//! ## Backpressure
//!
//! Each shard has a bounded ingress budget ([`FleetConfig::queue_capacity`]).
//! Admission reserves room with a compare-exchange loop, so concurrent
//! batches can never overshoot the bound; samples that don't fit are
//! **shed** with [`ServeError::Overloaded`] (newest first — the tail of
//! the batch), counted in `serve.shed_total` and per shard. Load
//! shedding is loud and typed, never silent.
//!
//! ## Session mobility
//!
//! Sessions are serializable: [`Fleet::snapshot_feed`] captures a feed's
//! complete serving state as a checksummed
//! [`SessionSnapshot`](pmu_model::SessionSnapshot), and
//! [`Fleet::restore_feed`] resurrects it — in the same process, a
//! different shard, or a different process entirely — replaying the
//! subsequent sample stream **bit-identically**. Restores are
//! fingerprint-checked: a snapshot taken against one topology can never
//! be revived against another.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use pmu_detect::stream::{StreamEvent, StreamingDetector};
use pmu_detect::Detection;
use pmu_model::{ModelBundle, SessionSnapshot};
use pmu_numerics::hash::Fnv1a;
use pmu_numerics::par;
use pmu_obs::metrics::{Gauge, Histogram};
use pmu_sim::PhasorSample;

use crate::engine::{EngineConfig, EngineCore, ServeError};
use crate::pool::DrainPool;
use crate::session::{FeedTag, SessionHealth, SessionState};

/// Handle to one grid registered in a [`Fleet`] (index into the fleet's
/// grid list; issued by [`Fleet::add_grid`], resolvable by name via
/// [`Fleet::grid`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridId(pub(crate) u32);

impl GridId {
    /// The grid's index in registration order.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for GridId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Fleet-wide feed address: which grid, which feed within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeedKey {
    /// The hosting grid.
    pub grid: GridId,
    /// Caller-chosen 64-bit feed identifier, unique within the grid
    /// (a PMU id, a substation hash — the fleet only routes on it).
    pub feed: u64,
}

impl std::fmt::Display for FeedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.f{}", self.grid, self.feed)
    }
}

/// Fleet construction knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of session shards. `0` (the default) means one shard per
    /// worker thread ([`par::num_threads`]). Shards bound admission (each
    /// has its own ingress budget) and group the `serve.shard{i}.*`
    /// metrics; they do not bound parallelism, since a batch's feeds
    /// drain on every worker whichever shard they live on.
    pub shards: usize,
    /// Per-shard bounded ingress budget: the maximum number of samples a
    /// shard accepts concurrently before the admission controller starts
    /// shedding with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
}

impl Default for FleetConfig {
    /// One shard per worker, 4096-sample ingress budget per shard.
    fn default() -> Self {
        FleetConfig { shards: 0, queue_capacity: 4096 }
    }
}

/// A point-in-time view of one shard's load counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Sessions currently homed on this shard.
    pub sessions: usize,
    /// Samples admitted and not yet drained (instantaneous).
    pub inflight: usize,
    /// Total samples drained through this shard.
    pub drained: u64,
    /// Total samples shed by this shard's admission controller.
    pub shed: u64,
    /// p99 single-push latency on this shard, microseconds (from the
    /// per-shard HDR histogram; 0 before any push).
    pub push_p99_us: f64,
    /// Drain rate of the most recent non-empty drain, samples/second.
    pub drain_rate: f64,
}

/// One shard: its admission counters and its pre-resolved per-shard
/// metric handles (names like `serve.shard3.push_us`, leaked once per
/// process and deduplicated by the registry). Its sessions live in the
/// fleet's router.
struct Shard {
    /// Samples admitted and not yet drained; bounded by
    /// [`FleetConfig::queue_capacity`] via compare-exchange admission.
    inflight: AtomicUsize,
    drained: AtomicU64,
    shed: AtomicU64,
    /// Last non-empty drain's rate, samples/sec (f64 bits).
    drain_rate_bits: AtomicU64,
    push_us: &'static Histogram,
    inflight_gauge: &'static Gauge,
    drain_rate_gauge: &'static Gauge,
}

impl Shard {
    fn new(index: usize) -> Self {
        // Per-shard metric names are dynamic; the registry interns by
        // value, so leaking each name once per process is bounded by the
        // shard count.
        let leak = |suffix: &str| -> &'static str {
            Box::leak(format!("serve.shard{index}.{suffix}").into_boxed_str())
        };
        Shard {
            inflight: AtomicUsize::new(0),
            drained: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            drain_rate_bits: AtomicU64::new(0f64.to_bits()),
            push_us: pmu_obs::metrics::histogram(leak("push_us")),
            inflight_gauge: pmu_obs::metrics::gauge(leak("inflight")),
            drain_rate_gauge: pmu_obs::metrics::gauge(leak("drain_rate")),
        }
    }

    fn stats(&self, index: usize, sessions: usize) -> ShardStats {
        ShardStats {
            shard: index,
            sessions,
            inflight: self.inflight.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            push_p99_us: if self.push_us.count() == 0 {
                0.0
            } else {
                self.push_us.quantile(0.99)
            },
            drain_rate: f64::from_bits(self.drain_rate_bits.load(Ordering::Relaxed)),
        }
    }
}

/// An open feed as the router holds it.
struct Route {
    shard: u32,
    session: Arc<Mutex<SessionState>>,
}

/// One feed's share of a push batch: its samples in input order, with
/// everything the push needs owned or shared, so a pool thread can drain
/// it without borrowing from the fleet.
struct FeedUnit {
    grid: Arc<EngineCore>,
    feed: u64,
    session: Arc<Mutex<SessionState>>,
    /// The home shard's per-push latency histogram.
    push_us: &'static Histogram,
    /// `(batch position, sample)`.
    samples: Vec<(usize, PhasorSample)>,
}

impl FeedUnit {
    /// Push the samples under the session lock, in order.
    fn drain(&self) -> Vec<(usize, Result<StreamEvent, ServeError>)> {
        let tag = FeedTag { grid: &self.grid.name, feed: self.feed };
        let mut session = self.session.lock().unwrap_or_else(|p| p.into_inner());
        self.samples
            .iter()
            .map(|(pos, sample)| {
                let t0 = Instant::now();
                let event = self.grid.push_one(&tag, &mut session, sample);
                self.push_us.observe(t0.elapsed().as_secs_f64() * 1e6);
                (*pos, event)
            })
            .collect()
    }
}

/// A multi-grid serving fleet. See the [module docs](self).
///
/// All serving-path methods take `&self`: the fleet is `Arc`-shareable
/// with the observability endpoint and with concurrent pushers. Only
/// [`Fleet::add_grid`] (a boot-time operation) needs `&mut self`.
pub struct Fleet {
    /// Shared with in-flight drain units, which outlive no batch but
    /// run on pool threads.
    grids: Vec<Arc<EngineCore>>,
    shards: Vec<Shard>,
    router: RwLock<HashMap<FeedKey, Route>>,
    queue_capacity: usize,
    pool: DrainPool,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("grids", &self.grids.len())
            .field("shards", &self.shards.len())
            .field("sessions_active", &self.sessions_active())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Stand up an empty fleet: `cfg.shards` session shards (or one per
    /// worker thread when 0) and no grids yet.
    pub fn new(cfg: FleetConfig) -> Self {
        let n = if cfg.shards == 0 { par::num_threads().max(1) } else { cfg.shards };
        pmu_obs::gauge!("serve.fleet_shards").set(n as f64);
        Fleet {
            grids: Vec::new(),
            shards: (0..n).map(Shard::new).collect(),
            router: RwLock::new(HashMap::new()),
            queue_capacity: cfg.queue_capacity.max(1),
            pool: DrainPool::new(),
        }
    }

    /// Register a grid under `name` and return its handle.
    ///
    /// # Errors
    /// [`ServeError::DuplicateGrid`] when the name is already taken.
    pub fn add_grid(
        &mut self,
        name: &str,
        bundle: ModelBundle,
        cfg: &EngineConfig,
    ) -> Result<GridId, ServeError> {
        if self.grids.iter().any(|g| g.name == name) {
            return Err(ServeError::DuplicateGrid(name.to_string()));
        }
        self.grids.push(Arc::new(EngineCore::from_bundle(name, bundle, cfg)));
        pmu_obs::gauge!("serve.fleet_grids").set(self.grids.len() as f64);
        Ok(GridId(self.grids.len() as u32 - 1))
    }

    /// Look a grid up by name.
    pub fn grid(&self, name: &str) -> Option<GridId> {
        self.grids.iter().position(|g| g.name == name).map(|i| GridId(i as u32))
    }

    /// Registered grids in registration order, `(handle, name)`.
    pub fn grids(&self) -> Vec<(GridId, &str)> {
        self.grids
            .iter()
            .enumerate()
            .map(|(i, g)| (GridId(i as u32), g.name.as_str()))
            .collect()
    }

    /// A grid's registered name.
    pub fn grid_name(&self, id: GridId) -> &str {
        &self.grids[id.index()].name
    }

    /// System a grid's bundle was trained on (e.g. `"ieee14"`).
    pub fn grid_system(&self, id: GridId) -> &str {
        &self.grids[id.index()].system
    }

    /// Hex fingerprint of a grid's training topology.
    pub fn grid_fingerprint(&self, id: GridId) -> &str {
        &self.grids[id.index()].network_fingerprint
    }

    /// Node count a grid's detector serves.
    pub fn grid_nodes(&self, id: GridId) -> usize {
        self.grids[id.index()].detector.n_nodes()
    }

    /// Number of session shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard bounded ingress budget.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The deterministic home shard of a feed key.
    pub fn home_shard(&self, key: FeedKey) -> usize {
        let mut h = Fnv1a::new();
        h.write_u64(key.grid.0 as u64);
        h.write_u64(key.feed);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn core(&self, grid: GridId) -> Result<&EngineCore, ServeError> {
        self.grids
            .get(grid.index())
            .map(|g| &**g)
            .ok_or_else(|| ServeError::UnknownGrid(grid.to_string()))
    }

    /// Score a batch of independent samples statelessly against `grid`'s
    /// detector through the packed stage-1 path: samples sharing a
    /// missing-data mask are scored against every learned subspace through
    /// one projector bank, and the per-sample ranking tail fans out on the
    /// workspace thread pool. Results come back in input order.
    ///
    /// Per-sample failures stay per-sample: [`ServeError::BadSample`] when
    /// the ingestion guard refuses a sample, [`ServeError::Detect`] when
    /// the detector cannot score it. An unknown `grid` fails every entry
    /// with [`ServeError::UnknownGrid`].
    pub fn detect_batch(
        &self,
        grid: GridId,
        samples: &[PhasorSample],
    ) -> Vec<Result<Detection, ServeError>> {
        match self.core(grid) {
            Ok(core) => core.detect_batch(samples),
            Err(e) => vec![Err(e); samples.len()],
        }
    }

    /// Open a streaming session for `key` on its home shard.
    ///
    /// # Errors
    /// [`ServeError::UnknownGrid`] for a foreign grid handle,
    /// [`ServeError::DuplicateFeed`] when the key is already open.
    pub fn open_feed(&self, key: FeedKey) -> Result<(), ServeError> {
        let state = self.core(key.grid)?.new_session();
        self.install(key, state)
    }

    /// Route `state` to `key`'s home shard, holding the router write lock
    /// across the insert so a concurrent open of the same key cannot
    /// double-register.
    fn install(&self, key: FeedKey, state: SessionState) -> Result<(), ServeError> {
        let shard = self.home_shard(key) as u32;
        let mut router = self.router.write().unwrap_or_else(|p| p.into_inner());
        let Entry::Vacant(vacant) = router.entry(key) else {
            return Err(ServeError::DuplicateFeed(key));
        };
        vacant.insert(Route { shard, session: Arc::new(Mutex::new(state)) });
        pmu_obs::counter!("serve.sessions_opened").inc();
        pmu_obs::gauge!("serve.sessions_active").set(router.len() as f64);
        Ok(())
    }

    /// Close a feed; `false` when the key is not open.
    pub fn close_feed(&self, key: FeedKey) -> bool {
        let mut router = self.router.write().unwrap_or_else(|p| p.into_inner());
        if router.remove(&key).is_none() {
            return false;
        }
        pmu_obs::counter!("serve.sessions_closed").inc();
        pmu_obs::gauge!("serve.sessions_active").set(router.len() as f64);
        true
    }

    /// Number of open feeds across all grids and shards.
    pub fn sessions_active(&self) -> usize {
        self.router.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Every open feed key, sorted by (grid, feed) for deterministic
    /// display.
    pub fn feeds(&self) -> Vec<FeedKey> {
        let router = self.router.read().unwrap_or_else(|p| p.into_inner());
        let mut keys: Vec<FeedKey> = router.keys().copied().collect();
        keys.sort_by_key(|k| (k.grid.0, k.feed));
        keys
    }

    /// Human-readable feed label for dashboards: `"<grid name>/f<feed>"`.
    pub fn feed_label(&self, key: FeedKey) -> String {
        format!("{}/f{}", self.grid_name(key.grid), key.feed)
    }

    /// Health of one feed, `None` when the key is not open.
    pub fn health(&self, key: FeedKey) -> Option<SessionHealth> {
        let session = self.session_of(key)?;
        let session = session.lock().unwrap_or_else(|p| p.into_inner());
        Some(session.health())
    }

    /// An open feed's session, returned with the router lock released, so
    /// waiting for the session never holds up routing.
    fn session_of(&self, key: FeedKey) -> Option<Arc<Mutex<SessionState>>> {
        let router = self.router.read().unwrap_or_else(|p| p.into_inner());
        router.get(&key).map(|route| Arc::clone(&route.session))
    }

    /// Health of every open feed, sorted by (grid, feed).
    pub fn feed_healths(&self) -> Vec<(FeedKey, SessionHealth)> {
        self.feeds()
            .into_iter()
            .filter_map(|key| self.health(key).map(|h| (key, h)))
            .collect()
    }

    /// Advance many feeds by one tick. Entries are routed to their home
    /// shards; each shard admits up to its remaining ingress budget
    /// (shedding the excess, newest first, with
    /// [`ServeError::Overloaded`]). Admitted entries are grouped into one
    /// unit per feed, and the units drain on the fleet's persistent pool
    /// (the calling thread included), each under its own session lock;
    /// see the [module docs](self#draining). Per-feed sample order is the
    /// input order; results come back in input order.
    ///
    /// Unknown keys fail their own entries with
    /// [`ServeError::UnknownFeed`]; guard rejections with
    /// [`ServeError::BadSample`].
    ///
    /// # Panics
    /// Re-raises, with its payload, a panic raised while draining a feed,
    /// after the batch's admission accounting has been settled.
    pub fn push_batch(
        &self,
        batch: &[(FeedKey, PhasorSample)],
    ) -> Vec<Result<StreamEvent, ServeError>> {
        pmu_obs::counter!("serve.push_batches").inc();
        pmu_obs::counter!("serve.push_samples").add(batch.len() as u64);
        let mut sp = pmu_obs::span("serve.fleet_push_batch").with("samples", batch.len());
        let started = Instant::now();

        let mut out: Vec<Option<Result<StreamEvent, ServeError>>> = vec![None; batch.len()];

        // Routing and session lookup happen under one router read lock,
        // so a concurrent migration is seen entirely before or after.
        // Group positions per shard, preserving batch order within each.
        let router = self.router.read().unwrap_or_else(|p| p.into_inner());
        let mut per_shard: Vec<Vec<(usize, &Route)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (pos, (key, _)) in batch.iter().enumerate() {
            match router.get(key) {
                Some(route) => per_shard[route.shard as usize].push((pos, route)),
                None => out[pos] = Some(Err(ServeError::UnknownFeed(*key))),
            }
        }

        // Admission: reserve ingress room per shard with a CAS loop (so
        // concurrent batches cannot overshoot the bound), shed the rest.
        let mut admitted: Vec<(usize, usize)> = Vec::new();
        let mut units: Vec<FeedUnit> = Vec::new();
        let mut unit_of: HashMap<FeedKey, usize> = HashMap::new();
        for (shard_idx, mut group) in per_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.shards[shard_idx];
            let granted = loop {
                let cur = shard.inflight.load(Ordering::Relaxed);
                let room = self.queue_capacity.saturating_sub(cur);
                let take = group.len().min(room);
                if take == 0 {
                    break 0;
                }
                if shard
                    .inflight
                    .compare_exchange(cur, cur + take, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    break take;
                }
            };
            if granted < group.len() {
                let overflow = group.split_off(granted);
                shard.shed.fetch_add(overflow.len() as u64, Ordering::Relaxed);
                pmu_obs::counter!("serve.shed_total").add(overflow.len() as u64);
                for (pos, _) in overflow {
                    out[pos] = Some(Err(ServeError::Overloaded { shard: shard_idx }));
                }
            }
            shard.inflight_gauge.set(shard.inflight.load(Ordering::Relaxed) as f64);
            if group.is_empty() {
                continue;
            }
            admitted.push((shard_idx, group.len()));

            // One unit per feed.
            for (pos, route) in group {
                let (key, sample) = &batch[pos];
                let unit = *unit_of.entry(*key).or_insert_with(|| {
                    units.push(FeedUnit {
                        grid: Arc::clone(&self.grids[key.grid.index()]),
                        feed: key.feed,
                        session: Arc::clone(&route.session),
                        push_us: shard.push_us,
                        samples: Vec::new(),
                    });
                    units.len() - 1
                });
                units[unit].samples.push((pos, sample.clone()));
            }
        }
        drop(router);

        let drain_started = Instant::now();
        let drained = self.pool.map(units, par::num_threads(), FeedUnit::drain);
        let secs = drain_started.elapsed().as_secs_f64();
        for (shard_idx, n) in admitted {
            let shard = &self.shards[shard_idx];
            shard.inflight.fetch_sub(n, Ordering::Relaxed);
            shard.drained.fetch_add(n as u64, Ordering::Relaxed);
            if secs > 0.0 {
                let rate = n as f64 / secs;
                shard.drain_rate_bits.store(rate.to_bits(), Ordering::Relaxed);
                shard.drain_rate_gauge.set(rate);
            }
            shard.inflight_gauge.set(shard.inflight.load(Ordering::Relaxed) as f64);
        }
        let drained = drained.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (pos, event) in drained.into_iter().flatten() {
            out[pos] = Some(event);
        }
        sp.record("ms", started.elapsed().as_secs_f64() * 1e3);
        out.into_iter().map(|o| o.expect("every batch position classified")).collect()
    }

    /// Capture one feed's complete serving state as a checksummed,
    /// schema-versioned [`SessionSnapshot`].
    ///
    /// # Errors
    /// [`ServeError::UnknownFeed`] when the key is not open.
    pub fn snapshot_feed(&self, key: FeedKey) -> Result<SessionSnapshot, ServeError> {
        let session = self.session_of(key).ok_or(ServeError::UnknownFeed(key))?;
        let core = self.core(key.grid)?;
        let session = session.lock().unwrap_or_else(|p| p.into_inner());
        Ok(session.to_snapshot(&core.system, &core.network_fingerprint, &core.name, key.feed))
    }

    /// Resurrect a snapshot into this fleet (home-shard placement) and
    /// return the key it is now serving under. The restored session
    /// replays subsequent samples bit-identically to the one that was
    /// snapshotted.
    ///
    /// # Errors
    /// [`ServeError::UnknownGrid`] when no grid carries the snapshot's
    /// grid name; [`ServeError::Snapshot`] when the snapshot's system or
    /// topology fingerprint disagrees with that grid's bundle, or its
    /// serialized state is corrupt; [`ServeError::DuplicateFeed`] when
    /// the key is already open.
    pub fn restore_feed(&self, snap: &SessionSnapshot) -> Result<FeedKey, ServeError> {
        let grid = self
            .grid(&snap.grid)
            .ok_or_else(|| ServeError::UnknownGrid(snap.grid.clone()))?;
        let core = &self.grids[grid.index()];
        if snap.system != core.system {
            return Err(ServeError::Snapshot(format!(
                "snapshot is for system {:?}, grid {:?} serves {:?}",
                snap.system, snap.grid, core.system
            )));
        }
        if snap.network_fingerprint != core.network_fingerprint {
            return Err(ServeError::Snapshot(format!(
                "snapshot topology fingerprint {} does not match grid {:?} ({})",
                snap.network_fingerprint, snap.grid, core.network_fingerprint
            )));
        }
        let feed = snap.feed_id().map_err(|e| ServeError::Snapshot(e.to_string()))?;
        let key = FeedKey { grid, feed };
        let monitor = StreamingDetector::restore(Arc::clone(&core.detector), &snap.stream)
            .map_err(|e| ServeError::Snapshot(e.to_string()))?
            .with_cache(Arc::clone(&core.cache));
        let state = SessionState::from_snapshot(monitor, snap).map_err(ServeError::Snapshot)?;
        self.install(key, state)?;
        pmu_obs::counter!("serve.sessions_restored").inc();
        Ok(key)
    }

    /// Move a feed to another shard without losing a sample of state: its
    /// route's shard is rewritten under the router write lock, so a batch
    /// sees the feed on exactly one shard, before or after, never
    /// neither. The session itself stays put, so a drain that resolved it
    /// before the move still pushes into the one live session. Returns
    /// the shard it moved from.
    ///
    /// # Errors
    /// [`ServeError::UnknownFeed`] when the key is not open.
    ///
    /// # Panics
    /// When `to_shard` is out of range — shard indices are a caller-side
    /// programming concern, not a runtime input.
    pub fn migrate_feed(&self, key: FeedKey, to_shard: usize) -> Result<usize, ServeError> {
        assert!(to_shard < self.shards.len(), "shard {to_shard} out of range");
        let mut router = self.router.write().unwrap_or_else(|p| p.into_inner());
        let route = router.get_mut(&key).ok_or(ServeError::UnknownFeed(key))?;
        let from = route.shard as usize;
        if from != to_shard {
            route.shard = to_shard as u32;
            pmu_obs::counter!("serve.sessions_migrated").inc();
        }
        Ok(from)
    }

    /// Per-shard load counters, ascending by shard index.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut sessions = vec![0; self.shards.len()];
        for route in self.router.read().unwrap_or_else(|p| p.into_inner()).values() {
            sessions[route.shard as usize] += 1;
        }
        self.shards.iter().zip(sessions).enumerate().map(|(i, (s, n))| s.stats(i, n)).collect()
    }

    /// Number of incident dumps attempted across all grids.
    pub fn incident_dumps_written(&self) -> u64 {
        self.grids.iter().map(|g| g.incident_dumps_written()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BadSampleReason, FeedMode};
    use crate::session::DEGRADE_WINDOW;
    use pmu_baseline::MlrConfig;
    use pmu_detect::detector::default_config_for;
    use pmu_detect::stream::StreamConfig;
    use pmu_obs::recorder::global;
    use pmu_sim::{generate_dataset, Dataset, GenConfig, Mask};

    fn tiny_dataset() -> Dataset {
        let net = pmu_grid::cases::ieee14().unwrap();
        let cfg = GenConfig { train_len: 10, test_len: 6, ..GenConfig::default() };
        generate_dataset(&net, &cfg).unwrap()
    }

    fn bundle_for(data: &Dataset) -> ModelBundle {
        let gen = GenConfig { train_len: 10, test_len: 6, ..GenConfig::default() };
        let det_cfg = default_config_for(&data.network);
        pmu_model::ModelBundle::train(data, &gen, &det_cfg, &MlrConfig::default()).unwrap()
    }

    fn two_grid_fleet(data: &Dataset, cfg: FleetConfig) -> (Fleet, GridId, GridId) {
        let bundle = bundle_for(data);
        let mut fleet = Fleet::new(cfg);
        let east = fleet.add_grid("east", bundle.clone(), &EngineConfig::default()).unwrap();
        let west = fleet.add_grid("west", bundle, &EngineConfig::default()).unwrap();
        (fleet, east, west)
    }

    #[test]
    fn fleet_serves_many_grids_and_matches_a_lone_session() {
        let data = tiny_dataset();
        let (fleet, east, west) =
            two_grid_fleet(&data, FleetConfig { shards: 2, ..FleetConfig::default() });
        assert_eq!(fleet.grid("east"), Some(east));
        assert_eq!(fleet.grid("west"), Some(west));
        assert_eq!(fleet.grid("north"), None);
        assert_eq!(fleet.grid_name(east), "east");
        assert_eq!(fleet.grid_system(west), "ieee14");
        assert!(!fleet.grid_fingerprint(east).is_empty());

        // 3 feeds per grid, deterministically sharded.
        let keys: Vec<FeedKey> = [east, west]
            .iter()
            .flat_map(|&g| (0..3u64).map(move |f| FeedKey { grid: g, feed: f }))
            .collect();
        for &k in &keys {
            fleet.open_feed(k).unwrap();
        }
        assert_eq!(fleet.sessions_active(), 6);
        assert_eq!(fleet.feeds(), keys, "feeds() sorts by (grid, feed)");
        assert_eq!(fleet.feed_label(keys[0]), "east/f0");

        // Interleave east outage traffic with west normal traffic across
        // several ticks; east feed 0 must replay exactly like a lone
        // streaming detector over the same samples.
        let case = &data.cases[0];
        let ticks = case.test.len().min(5);
        let mut east_events = Vec::new();
        for t in 0..ticks {
            let mut batch = Vec::new();
            for &k in &keys {
                let sample = if k.grid == east {
                    case.test.sample(t)
                } else {
                    data.normal_test.sample(t % data.normal_test.len())
                };
                batch.push((k, sample));
            }
            let events = fleet.push_batch(&batch);
            assert_eq!(events.len(), batch.len());
            east_events.push(events[0].clone().unwrap());
        }

        let bundle = bundle_for(&data);
        let mut reference =
            StreamingDetector::new(bundle.detector, StreamConfig::default());
        let expected: Vec<StreamEvent> =
            (0..ticks).map(|t| reference.push(&case.test.sample(t)).unwrap()).collect();
        assert_eq!(east_events, expected, "sharded feed must replay like a lone session");

        // Health is per feed; shard stats account every drained sample.
        let healths = fleet.feed_healths();
        assert_eq!(healths.len(), 6);
        assert!(healths.iter().all(|(_, h)| h.pushed == ticks));
        let stats = fleet.shard_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(
            stats.iter().map(|s| s.drained).sum::<u64>(),
            (6 * ticks) as u64,
            "every pushed sample is drained through some shard"
        );
        assert_eq!(stats.iter().map(|s| s.sessions).sum::<usize>(), 6);
        assert!(stats.iter().all(|s| s.inflight == 0), "drains settle to zero inflight");
    }

    #[test]
    fn unknown_and_duplicate_keys_are_typed_errors() {
        let data = tiny_dataset();
        let (fleet, east, _) = two_grid_fleet(&data, FleetConfig::default());
        let key = FeedKey { grid: east, feed: 9 };
        fleet.open_feed(key).unwrap();
        assert_eq!(fleet.open_feed(key), Err(ServeError::DuplicateFeed(key)));

        let ghost = FeedKey { grid: east, feed: 1000 };
        let sample = data.normal_test.sample(0);
        let events = fleet.push_batch(&[(ghost, sample.clone()), (key, sample.clone())]);
        assert_eq!(events[0], Err(ServeError::UnknownFeed(ghost)));
        assert!(events[1].is_ok(), "an unknown key fails only its own entry");

        assert!(fleet.close_feed(key));
        assert!(!fleet.close_feed(key), "double close reports false");
        let events = fleet.push_batch(&[(key, sample)]);
        assert_eq!(events[0], Err(ServeError::UnknownFeed(key)));
        assert!(fleet.health(key).is_none());
        assert!(matches!(fleet.snapshot_feed(key), Err(ServeError::UnknownFeed(_))));

        let mut fleet = fleet;
        let err = fleet.add_grid("east", bundle_for(&data), &EngineConfig::default());
        assert_eq!(err, Err(ServeError::DuplicateGrid("east".into())).map(|_: GridId| east));
    }

    #[test]
    fn overload_sheds_the_tail_with_typed_errors() {
        let data = tiny_dataset();
        let (fleet, east, _) = two_grid_fleet(
            &data,
            FleetConfig { shards: 1, queue_capacity: 4 },
        );
        let key = FeedKey { grid: east, feed: 0 };
        fleet.open_feed(key).unwrap();
        let sample = data.normal_test.sample(0);
        let batch: Vec<_> = (0..10).map(|_| (key, sample.clone())).collect();
        let events = fleet.push_batch(&batch);
        for ev in &events[..4] {
            assert!(ev.is_ok(), "admitted prefix drains normally: {ev:?}");
        }
        for ev in &events[4..] {
            assert_eq!(ev, &Err(ServeError::Overloaded { shard: 0 }));
        }
        let stats = &fleet.shard_stats()[0];
        assert_eq!(stats.shed, 6, "shed accounting matches ground truth");
        assert_eq!(stats.drained, 4);
        assert_eq!(stats.inflight, 0);
        assert_eq!(
            fleet.health(key).unwrap().pushed,
            4,
            "shed samples never reach the voting window"
        );

        // The budget is per call here (no concurrent pushers), so the
        // next batch is admitted again.
        let events = fleet.push_batch(&batch[..2]);
        assert!(events.iter().all(|e| e.is_ok()));
    }

    #[test]
    fn snapshot_restore_and_migration_preserve_the_event_stream() {
        let data = tiny_dataset();
        let (fleet, east, _) =
            two_grid_fleet(&data, FleetConfig { shards: 2, ..FleetConfig::default() });
        let key = FeedKey { grid: east, feed: 7 };
        fleet.open_feed(key).unwrap();

        // Phase A: drive into an outage so the snapshot carries a
        // non-trivial voting history and (likely) an active event.
        let case = &data.cases[0];
        let split = case.test.len() / 2;
        for t in 0..split {
            fleet.push_batch(&[(key, case.test.sample(t))]).remove(0).unwrap();
        }
        let snap = fleet.snapshot_feed(key).unwrap();
        assert_eq!(snap.grid, "east");
        assert_eq!(snap.feed_id().unwrap(), 7);

        // The envelope round trip is lossless (restart simulation).
        let revived = SessionSnapshot::from_json(&snap.to_json().unwrap()).unwrap();

        // A second fleet (same bundle, fresh process in spirit) restores
        // the feed; a third keeps the original session untouched as the
        // reference for the remaining tail.
        let (restored, _, _) =
            two_grid_fleet(&data, FleetConfig { shards: 2, ..FleetConfig::default() });
        assert_eq!(restored.restore_feed(&revived).unwrap(), key);
        assert_eq!(
            restored.restore_feed(&revived),
            Err(ServeError::DuplicateFeed(key)),
            "a key can be restored once"
        );

        // Tail replay: original vs restored, with a mid-tail migration on
        // the restored fleet — events must stay identical sample for
        // sample, across the shard move.
        let home = restored.home_shard(key);
        for t in split..case.test.len() {
            if t == split + 1 {
                let other = (home + 1) % restored.shard_count();
                assert_eq!(restored.migrate_feed(key, other).unwrap(), home);
            }
            let sample = case.test.sample(t);
            let a = fleet.push_batch(&[(key, sample.clone())]).remove(0).unwrap();
            let b = restored.push_batch(&[(key, sample)]).remove(0).unwrap();
            assert_eq!(a, b, "restored+migrated feed diverged at tick {t}");
        }
        assert_eq!(
            fleet.health(key).unwrap(),
            restored.health(key).unwrap(),
            "health counters agree after the full tail"
        );

        // Migrating an unknown key is a typed error; self-migration is a
        // no-op.
        let ghost = FeedKey { grid: east, feed: 9999 };
        assert_eq!(restored.migrate_feed(ghost, 0), Err(ServeError::UnknownFeed(ghost)));
        let now_home = (home + 1) % restored.shard_count();
        assert_eq!(restored.migrate_feed(key, now_home).unwrap(), now_home);
    }

    #[test]
    fn restores_are_fingerprint_checked() {
        let data = tiny_dataset();
        let (fleet, east, _) = two_grid_fleet(&data, FleetConfig::default());
        let key = FeedKey { grid: east, feed: 1 };
        fleet.open_feed(key).unwrap();
        fleet.push_batch(&[(key, data.normal_test.sample(0))]).remove(0).unwrap();
        let snap = fleet.snapshot_feed(key).unwrap();

        let (other, _, _) = two_grid_fleet(&data, FleetConfig::default());

        // Unknown grid name.
        let mut alien = snap.clone();
        alien.grid = "mars".into();
        assert_eq!(other.restore_feed(&alien), Err(ServeError::UnknownGrid("mars".into())));

        // Topology fingerprint skew.
        let mut skewed = snap.clone();
        skewed.network_fingerprint = "0000000000000000".into();
        assert!(matches!(other.restore_feed(&skewed), Err(ServeError::Snapshot(_))));

        // System skew.
        let mut wrong_sys = snap.clone();
        wrong_sys.system = "ieee300".into();
        assert!(matches!(other.restore_feed(&wrong_sys), Err(ServeError::Snapshot(_))));

        // Corrupt voting state (impossible config) is refused by the
        // stream-level restore.
        let mut corrupt = snap.clone();
        corrupt.stream.votes = corrupt.stream.window + 1;
        assert!(matches!(other.restore_feed(&corrupt), Err(ServeError::Snapshot(_))));

        // Corrupt serving-level tag.
        let mut bad_tag = snap.clone();
        bad_tag.mode = "zombie".into();
        assert!(matches!(other.restore_feed(&bad_tag), Err(ServeError::Snapshot(_))));

        // More recent outcomes than the degrade window holds: left in, the
        // surplus would never be trimmed and would outvote clean pushes.
        let mut overlong = snap.clone();
        overlong.recent = vec!["missing".into(); 2 * DEGRADE_WINDOW];
        assert!(matches!(other.restore_feed(&overlong), Err(ServeError::Snapshot(_))));

        // Layers that disagree: every accepted push advances both the
        // session's and the monitor's count, and `recent` decides the mode.
        let mut miscounted = snap.clone();
        miscounted.pushed += 2;
        assert!(matches!(other.restore_feed(&miscounted), Err(ServeError::Snapshot(_))));
        let mut misnamed = snap;
        misnamed.mode = "dark".into();
        assert!(matches!(other.restore_feed(&misnamed), Err(ServeError::Snapshot(_))));
    }

    /// Mode-change observations name the feed, not its shard: two feeds,
    /// each alone on its own shard, darken in turn, and their
    /// `serve.feed_mode` records stay apart (operand `a` is the feed id)
    /// — also after a migration puts one of them on the other's shard.
    /// The recorder is process-global and shared with concurrently
    /// running tests, so only records carrying this test's feed ids are
    /// read.
    #[test]
    fn mode_changes_name_the_feed_not_the_shard_slot() {
        let data = tiny_dataset();
        let (fleet, east, _) =
            two_grid_fleet(&data, FleetConfig { shards: 2, ..FleetConfig::default() });
        let mut keys = (0xFEED_0000u64..).map(|feed| FeedKey { grid: east, feed });
        let a = keys.find(|&k| fleet.home_shard(k) == 0).unwrap();
        let b = keys.find(|&k| fleet.home_shard(k) == 1).unwrap();
        fleet.open_feed(a).unwrap();
        fleet.open_feed(b).unwrap();
        assert!(
            fleet.shard_stats().iter().all(|s| s.sessions == 1),
            "each feed is alone on its shard"
        );

        let transitions = |key: FeedKey| -> Vec<u64> {
            global()
                .snapshot()
                .records
                .iter()
                .filter(|r| r.label == "serve.feed_mode" && r.a == key.feed)
                .map(|r| r.b)
                .collect()
        };
        let n = data.network.n_buses();
        let dark = Mask::with_missing(n, &(0..n - 1).collect::<Vec<_>>());
        let window = DEGRADE_WINDOW;
        let sample = |t: usize| data.normal_test.sample(t % data.normal_test.len());
        for key in [a, b] {
            for t in 0..window {
                fleet.push_batch(&[(key, sample(t).masked(&dark))]).remove(0).unwrap();
            }
            assert_eq!(fleet.health(key).unwrap().mode, FeedMode::Dark);
            assert_eq!(transitions(key), vec![2], "feed {key} went dark exactly once");
        }

        // Migrate `a` next to `b` (onto shard 1) and let it recover:
        // the recovery is still recorded under `a`'s id, never `b`'s.
        fleet.migrate_feed(a, 1).unwrap();
        for t in 0..2 * window {
            fleet.push_batch(&[(a, sample(t))]).remove(0).unwrap();
        }
        assert_eq!(fleet.health(a).unwrap().mode, FeedMode::Healthy);
        assert_eq!(transitions(a).first(), Some(&2));
        assert_eq!(transitions(a).last(), Some(&0), "recovery is recorded under a's id");
        assert_eq!(transitions(b), vec![2], "b's record stream is untouched by a");
    }

    /// Serializes the tests that set the process-wide worker count, and
    /// restores the default when dropped.
    struct Workers(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    fn workers(n: usize) -> Workers {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        par::set_threads(n);
        Workers(guard)
    }

    impl Drop for Workers {
        fn drop(&mut self) {
            par::set_threads(0);
        }
    }

    /// Feed `f`'s sample at tick `t`: even feeds ride an outage case,
    /// odd feeds see normal traffic.
    fn feed_sample(data: &Dataset, f: usize, t: usize) -> PhasorSample {
        if f % 2 == 1 {
            data.normal_test.sample((t + f) % data.normal_test.len())
        } else {
            let case = &data.cases[(f / 2) % data.cases.len()];
            case.test.sample(t % case.test.len())
        }
    }

    fn lone_replay(bundle: &ModelBundle, samples: &[PhasorSample]) -> Vec<StreamEvent> {
        let mut lone = StreamingDetector::new(bundle.detector.clone(), StreamConfig::default());
        samples.iter().map(|s| lone.push(s).unwrap()).collect()
    }

    /// Run `f` on its own thread and fail (instead of hanging the suite)
    /// when it has not returned within `secs`.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(value) => {
                handle.join().expect("the value was sent before the thread ended");
                value
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("deadlock: no answer within {secs} s")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().unwrap_err())
            }
        }
    }

    /// Nine feed units on one shard, feed 0 three times per batch: on one
    /// worker and on two (where units are stolen across threads), every
    /// feed's events equal a lone detector's replay of that feed.
    #[test]
    fn per_feed_units_replay_like_lone_detectors_on_one_and_two_workers() {
        let data = tiny_dataset();
        let bundle = bundle_for(&data);
        const FEEDS: usize = 9;
        const TICKS: usize = 8;
        for n in [1, 2] {
            let _w = workers(n);
            let mut fleet = Fleet::new(FleetConfig { shards: 1, ..FleetConfig::default() });
            let grid = fleet.add_grid("east", bundle.clone(), &EngineConfig::default()).unwrap();
            let keys: Vec<FeedKey> =
                (0..FEEDS as u64).map(|feed| FeedKey { grid, feed }).collect();
            for &k in &keys {
                fleet.open_feed(k).unwrap();
            }
            let mut sent: Vec<Vec<PhasorSample>> = vec![Vec::new(); FEEDS];
            let mut got: Vec<Vec<StreamEvent>> = vec![Vec::new(); FEEDS];
            let mut next = [0usize; FEEDS];
            for _ in 0..TICKS {
                // Feed 0 at the front, the middle and the end of the batch.
                let order: Vec<usize> =
                    [0].into_iter().chain(1..5).chain([0]).chain(5..FEEDS).chain([0]).collect();
                let batch: Vec<(FeedKey, PhasorSample)> = order
                    .iter()
                    .map(|&f| {
                        let sample = feed_sample(&data, f, next[f]);
                        next[f] += 1;
                        sent[f].push(sample.clone());
                        (keys[f], sample)
                    })
                    .collect();
                for (&f, event) in order.iter().zip(fleet.push_batch(&batch)) {
                    got[f].push(event.unwrap());
                }
            }
            assert_eq!(fleet.pool.helpers(), n - 1, "{n} worker(s)");
            for f in 0..FEEDS {
                assert_eq!(got[f], lone_replay(&bundle, &sent[f]), "feed {f} on {n} worker(s)");
            }
            assert!(got[0].iter().any(|e| *e != StreamEvent::None), "feed 0 raised");
            assert_eq!(fleet.shard_stats()[0].drained, (TICKS * (FEEDS + 2)) as u64);
        }
    }

    /// Two threads push batches while a third migrates one of the first
    /// thread's feeds back and forth and closes one of the second's. No
    /// deadlock, one answer per entry, the migrated feed replays like a
    /// lone detector, and the closed feed answers `UnknownFeed` from its
    /// close on.
    #[test]
    fn concurrent_pushes_migrations_and_closes_answer_every_entry_once() {
        let _w = workers(2);
        let data = tiny_dataset();
        let bundle = bundle_for(&data);
        let mut fleet = Fleet::new(FleetConfig { shards: 2, ..FleetConfig::default() });
        let grid = fleet.add_grid("east", bundle.clone(), &EngineConfig::default()).unwrap();
        let keys: Vec<FeedKey> = (0..8u64).map(|feed| FeedKey { grid, feed }).collect();
        for &k in &keys {
            fleet.open_feed(k).unwrap();
        }
        let (migrated, closed) = (keys[0], keys[4]);
        let fleet = Arc::new(fleet);
        let data = Arc::new(data);
        const ROUNDS: usize = 200;

        let results = within(120, {
            let (fleet, data) = (Arc::clone(&fleet), Arc::clone(&data));
            move || {
                let pusher = |feeds: std::ops::Range<usize>| {
                    let (fleet, data) = (Arc::clone(&fleet), Arc::clone(&data));
                    let keys = keys.clone();
                    std::thread::spawn(move || {
                        (0..ROUNDS)
                            .map(|t| {
                                let batch: Vec<_> = feeds
                                    .clone()
                                    .map(|f| (keys[f], feed_sample(&data, f, t)))
                                    .collect();
                                let events = fleet.push_batch(&batch);
                                assert_eq!(events.len(), batch.len(), "one answer per entry");
                                events
                            })
                            .collect::<Vec<_>>()
                    })
                };
                let (a, b) = (pusher(0..4), pusher(4..8));
                // Migrate until both pushers are done; close midway.
                let mut moves = 0usize;
                while !(a.is_finished() && b.is_finished()) {
                    fleet.migrate_feed(migrated, moves % 2).unwrap();
                    moves += 1;
                    if moves == 200 {
                        assert!(fleet.close_feed(closed));
                    }
                }
                if moves < 200 {
                    assert!(fleet.close_feed(closed));
                }
                (a.join().unwrap(), b.join().unwrap())
            }
        });
        let (a, b) = results;

        for round in &a {
            assert!(round.iter().all(|e| e.is_ok()), "first pusher's feeds stay open");
        }
        let moved: Vec<StreamEvent> = a.iter().map(|r| r[0].clone().unwrap()).collect();
        let sent: Vec<PhasorSample> = (0..ROUNDS).map(|t| feed_sample(&data, 0, t)).collect();
        assert_eq!(moved, lone_replay(&bundle, &sent), "migrated feed replays like a lone one");

        let first_closed = b.iter().position(|r| r[0].is_err()).unwrap_or(ROUNDS);
        for (t, round) in b.iter().enumerate() {
            assert!(round[1..].iter().all(|e| e.is_ok()), "other feeds unaffected at {t}");
            if t < first_closed {
                assert!(round[0].is_ok());
            } else {
                assert_eq!(round[0], Err(ServeError::UnknownFeed(closed)), "closed stays closed");
            }
        }
        assert!(fleet.health(closed).is_none());
        assert!(fleet.shard_stats().iter().all(|s| s.inflight == 0));
    }

    /// A feed held up inside its own push (here: a test thread holds its
    /// session lock while a push to it is in flight, standing in for a
    /// slow incident dump) no longer stalls its shard-mates: a push to
    /// another feed on the same shard, and a health read, finish while
    /// the lock is held.
    #[test]
    fn a_stalled_feed_does_not_block_its_shard_mates() {
        let data = tiny_dataset();
        let (fleet, east, _) =
            two_grid_fleet(&data, FleetConfig { shards: 1, ..FleetConfig::default() });
        let (slow, quick) = (FeedKey { grid: east, feed: 1 }, FeedKey { grid: east, feed: 2 });
        fleet.open_feed(slow).unwrap();
        fleet.open_feed(quick).unwrap();
        let session = fleet.session_of(slow).unwrap();
        let fleet = Arc::new(fleet);
        let sample = data.normal_test.sample(0);

        let held = session.lock().unwrap();
        let stalled = {
            let (fleet, sample) = (Arc::clone(&fleet), sample.clone());
            std::thread::spawn(move || fleet.push_batch(&[(slow, sample)]).remove(0))
        };
        // The stalled push has looked the session up (its unit holds the
        // third reference) and goes on to wait for the held lock.
        while Arc::strong_count(&session) < 3 {
            std::thread::yield_now();
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let quick_push = {
            let (fleet, sample) = (Arc::clone(&fleet), sample.clone());
            std::thread::spawn(move || {
                let event = fleet.push_batch(&[(quick, sample)]).remove(0);
                let _ = tx.send((event, fleet.health(quick).map(|h| h.pushed)));
            })
        };
        let answer = rx.recv_timeout(std::time::Duration::from_secs(30));
        drop(held);
        let (event, pushed) = answer.expect("a shard-mate's push finished while the lock was held");
        quick_push.join().unwrap();
        assert!(event.is_ok());
        assert_eq!(pushed, Some(1));
        // Released, the stalled push completes.
        assert!(stalled.join().unwrap().is_ok());
        assert_eq!(fleet.health(slow).unwrap().pushed, 1);
    }

    /// A drain job that panics on a pool helper re-raises its payload on
    /// the caller, and the same fleet then serves the next batch (on the
    /// same helper) exactly like lone detectors.
    #[test]
    fn a_drain_panic_reaches_the_caller_and_the_fleet_serves_on() {
        let _w = workers(2);
        let data = tiny_dataset();
        let bundle = bundle_for(&data);
        let mut fleet = Fleet::new(FleetConfig { shards: 1, ..FleetConfig::default() });
        let grid = fleet.add_grid("east", bundle.clone(), &EngineConfig::default()).unwrap();
        let keys: Vec<FeedKey> = (0..4u64).map(|feed| FeedKey { grid, feed }).collect();
        for &k in &keys {
            fleet.open_feed(k).unwrap();
        }
        // Two units that wait for each other run on two threads, so one
        // runs on the helper, which panics.
        let both = Arc::new(std::sync::Barrier::new(2));
        let payload = fleet
            .pool
            .map(vec![Arc::clone(&both), both], 2, |b| {
                b.wait();
                if std::thread::current().name().is_some_and(|n| n.starts_with("pmu-drain")) {
                    panic!("drain payload");
                }
            })
            .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"drain payload"));
        assert_eq!(fleet.pool.live_probe()(), 1, "the helper survived");

        let batch: Vec<_> = keys.iter().map(|&k| (k, feed_sample(&data, 0, 0))).collect();
        let events = fleet.push_batch(&batch);
        let lone = lone_replay(&bundle, &[feed_sample(&data, 0, 0)]);
        assert!(events.iter().all(|e| e.as_ref() == Ok(&lone[0])));
        assert_eq!(fleet.shard_stats()[0].inflight, 0);
    }

    #[test]
    fn dropping_a_fleet_joins_its_helpers() {
        let _w = workers(2);
        let data = tiny_dataset();
        let (fleet, east, west) = two_grid_fleet(&data, FleetConfig::default());
        let (a, b) = (FeedKey { grid: east, feed: 0 }, FeedKey { grid: west, feed: 0 });
        fleet.open_feed(a).unwrap();
        fleet.open_feed(b).unwrap();
        let live = fleet.pool.live_probe();
        assert_eq!(live(), 0, "building a fleet starts no thread");
        let sample = data.normal_test.sample(0);
        assert!(fleet.push_batch(&[(a, sample.clone()), (b, sample)]).iter().all(|e| e.is_ok()));
        assert_eq!(live(), 1, "the first two-feed batch starts the helper");
        drop(fleet);
        assert_eq!(live(), 0, "drop returns after the helper exited");
    }

    /// Set-up starts no thread on any worker count, and a one-worker
    /// fleet never starts one: it drains on the calling thread.
    #[test]
    fn setup_and_one_worker_start_no_helper() {
        let data = tiny_dataset();
        let bundle = bundle_for(&data);
        let snap = {
            let _w = workers(2);
            let mut fleet = Fleet::new(FleetConfig::default());
            let grid = fleet.add_grid("east", bundle.clone(), &EngineConfig::default()).unwrap();
            let key = FeedKey { grid, feed: 100 };
            fleet.open_feed(key).unwrap();
            fleet.push_batch(&[(key, data.normal_test.sample(0))]).remove(0).unwrap();
            assert_eq!(fleet.pool.helpers(), 0, "a one-feed batch is one unit");
            fleet.snapshot_feed(key).unwrap()
        };

        let _w = workers(1);
        let mut fleet = Fleet::new(FleetConfig { shards: 2, ..FleetConfig::default() });
        let grid = fleet.add_grid("east", bundle, &EngineConfig::default()).unwrap();
        let restored = fleet.restore_feed(&snap).unwrap();
        let keys: Vec<FeedKey> = (0..6u64).map(|feed| FeedKey { grid, feed }).collect();
        for &k in &keys {
            fleet.open_feed(k).unwrap();
        }
        for t in 0..4 {
            let batch: Vec<_> = keys
                .iter()
                .chain([&restored])
                .enumerate()
                .map(|(f, &k)| (k, feed_sample(&data, f, t)))
                .collect();
            assert!(fleet.push_batch(&batch).iter().all(|e| e.is_ok()));
        }
        assert_eq!(fleet.pool.helpers(), 0);
        assert_eq!(fleet.pool.live_probe()(), 0);
    }

    #[test]
    fn display_and_defaults() {
        let key = FeedKey { grid: GridId(2), feed: 41 };
        assert_eq!(key.to_string(), "g2.f41");
        assert_eq!(FeedTag { grid: "east", feed: 7 }.to_string(), "east.f7");
        let e = ServeError::BadSample(BadSampleReason::NonFinite { node: 9 });
        assert!(e.to_string().contains("node 9"));
        let e = ServeError::BadSample(BadSampleReason::WrongLength { expected: 14, got: 3 });
        assert!(e.to_string().contains("14"));
        assert!(e.to_string().contains('3'));
        let e = ServeError::BadSample(BadSampleReason::MaskMismatch { nodes: 5, mask: 4 });
        assert!(e.to_string().contains("mask"));
        assert_eq!(BadSampleReason::NonFinite { node: 0 }.label(), "non_finite");
        assert!(ServeError::UnknownFeed(key).to_string().contains("g2.f41"));
        assert!(ServeError::DuplicateFeed(key).to_string().contains("g2.f41"));
        assert!(ServeError::UnknownGrid("west".into()).to_string().contains("west"));
        assert!(ServeError::DuplicateGrid("west".into()).to_string().contains("west"));
        assert!(ServeError::Overloaded { shard: 3 }.to_string().contains("shard 3"));
        assert!(ServeError::Snapshot("skew".into()).to_string().contains("skew"));
        assert_eq!(GridId(2).index(), 2);
        let cfg = FleetConfig::default();
        assert_eq!(cfg.shards, 0);
        assert!(cfg.queue_capacity > 0);
        let fleet = Fleet::new(FleetConfig { shards: 3, queue_capacity: 0 });
        assert_eq!(fleet.shard_count(), 3);
        assert_eq!(fleet.queue_capacity(), 1, "capacity clamps to at least one");
        let auto = Fleet::new(FleetConfig::default());
        assert!(auto.shard_count() >= 1);
    }
}
