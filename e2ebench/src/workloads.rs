//! The two workloads and the serving phase they share.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pmu_baseline::MlrDetector;
use pmu_detect::detector::default_config_for;
use pmu_detect::stream::{StreamConfig, StreamingDetector};
use pmu_detect::{Detector, RestrictedBank, ScoringCache};
use pmu_eval::{EvalScale, Metrics};
use pmu_grid::Network;
use pmu_model::{ModelBundle, SessionSnapshot};
use pmu_numerics::par;
use pmu_obs::metrics::{counter, histogram};
use pmu_serve::{EngineConfig, Fleet, FleetConfig, IncidentConfig, ObsServer};
use pmu_sim::missing::outage_endpoints_mask;
use pmu_sim::scenario::simulate_window;
use pmu_sim::{generate_dataset, Dataset, GenConfig};
use rand::SeedableRng;

use crate::serve::{scrape_once, LoadGen, Scraper, ServeFigures, TickTrace};
use crate::stats;
use crate::traffic::{self, FeedPlan, CYCLE};

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private scratch directory (bundles, incident dumps), removed after
    /// the run.
    pub work: PathBuf,
}

/// A run that passed every check.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// A failed correctness check, explained.
type Gate<T> = Result<T, String>;

fn gate<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Feeds on the ieee118 grid. At 60 frames/s each, the median tick
/// service time is about a quarter of the frame period on 2 vCPUs, so
/// that heavy ticks (several riders in an outage) on a slowed host still
/// end within the frame instead of queueing.
const FEEDS_118: usize = 8;
/// Feeds per grid in chaos-fleet (three grids).
const FEEDS_CHAOS: usize = 24;
/// Unmeasured ticks pushed before measuring: one whole cycle, so every
/// feed's recurring masks are cached.
const PREROLL: usize = CYCLE;
/// Closed-loop ticks: two whole cycles, so every phase of the traffic
/// weighs the same in `samples_per_s`.
const CLOSED_TICKS: usize = 2 * CYCLE;
/// Complete set-ups per run; `setup_s` is their median.
const SETUPS_118: usize = 5;
const SETUPS_CHAOS: usize = 11;

/// Seed of the training and test data (the fast evaluation scale's
/// generator, as `repro --scale fast` uses it). It is fixed, so model
/// quality and model size do not vary between runs; `--seed` drives the
/// served traffic: outage cases ridden, fault schedules, drops.
const MODEL_SEED: u64 = 0xC0FFEE;

/// Generator settings for the `grid`-th grid of a workload.
fn gen_config(grid: u64) -> GenConfig {
    EvalScale::Fast.gen_config(MODEL_SEED + grid)
}

fn grid(name: &str) -> Gate<Network> {
    pmu_grid::cases::by_name(name)
        .ok_or_else(|| format!("unknown grid {name}"))?
        .map_err(gate("grid"))
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A trained, saved bundle and what each step took.
struct Built {
    bundle: ModelBundle,
    train_s: f64,
    save_ms: f64,
}

/// Train a bundle on `data` and save it to `path`.
fn build(data: &Dataset, gen: &GenConfig, path: &Path) -> Gate<Built> {
    let started = Instant::now();
    let bundle = ModelBundle::train(
        data,
        gen,
        &default_config_for(&data.network),
        &pmu_baseline::MlrConfig::default(),
    )
    .map_err(gate("train"))?;
    let train_s = secs(started);
    let saved = Instant::now();
    bundle.save(path).map_err(gate("save"))?;
    Ok(Built {
        bundle,
        train_s,
        save_ms: secs(saved) * 1e3,
    })
}

/// Eq. (12) over a bundle's test set: every outage test sample with
/// complete data and with the outage endpoints dark, plus the normal
/// test window.
fn test_set(detector: &Detector, data: &Dataset, m: &mut Metrics) {
    let cache = ScoringCache::new();
    let mut score = |sample: &pmu_sim::PhasorSample, truth: &[usize]| {
        let lines = detector
            .detect_with_cache(sample, &cache)
            .map(|d| d.lines)
            .unwrap_or_default();
        m.add(truth, &lines);
    };
    for case in &data.cases {
        let dark = outage_endpoints_mask(data.n_nodes(), case.endpoints);
        for t in 0..case.test.len() {
            let s = case.test.sample(t);
            score(&s, &[case.branch]);
            score(&s.masked(&dark), &[case.branch]);
        }
    }
    for t in 0..data.normal_test.len() {
        score(&data.normal_test.sample(t), &[]);
    }
}

/// A one-scenario warm rebuild: the first case whose outage re-simulates
/// gets a fresh training window; every other basis should be reused.
fn incremental(
    data: &Dataset,
    gen: &GenConfig,
    prev: &ModelBundle,
    seed: u64,
) -> Gate<(f64, usize)> {
    let mut changed = data.clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(traffic::mix(&[seed, 9]));
    let fresh = changed.cases.iter().enumerate().find_map(|(i, c)| {
        let net = data.network.with_branch_outage(c.branch).ok()?;
        simulate_window(&net, gen.train_len, &gen.ou, &gen.noise, &gen.ac, &mut rng)
            .ok()
            .map(|w| (i, w))
    });
    let (i, window) = fresh.ok_or("no outage case re-simulates")?;
    changed.cases[i].train = window;
    let started = Instant::now();
    let (_, reuse) =
        ModelBundle::train_incremental(&changed, gen, &prev.detector_cfg, &prev.mlr_cfg, prev)
            .map_err(gate("incremental train"))?;
    Ok((secs(started) * 1e3, reuse.reused))
}

/// Named metric values, summed when a layer is measured on several grids.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }
    fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }
}

fn count(name: &'static str) -> f64 {
    counter(name).get() as f64
}

/// Offline layers timed through their own public entry points (traced
/// runs): detector and MLR training apart, the SVD/eigen calls training
/// makes, and a one-scenario incremental rebuild.
fn offline_layers(
    data: &Dataset,
    gen: &GenConfig,
    bundle: &ModelBundle,
    seed: u64,
    layers: &mut Layers,
) -> Gate<()> {
    let (svd0, eig0) = (count("numerics.svd_calls"), count("numerics.eigen_calls"));
    let started = Instant::now();
    Detector::train(data, &bundle.detector_cfg).map_err(gate("detector train"))?;
    layers.add("detect.train_s", secs(started));
    layers.add("numerics.svd_calls", count("numerics.svd_calls") - svd0);
    layers.add("numerics.eigen_calls", count("numerics.eigen_calls") - eig0);
    let started = Instant::now();
    std::hint::black_box(MlrDetector::train(data, &bundle.mlr_cfg));
    layers.add("baseline.mlr_train_s", secs(started));
    let (ms, reused) = incremental(data, gen, bundle, seed)?;
    layers.add("model.incremental_ms", ms);
    layers.add("model.reused_bases", reused as f64);
    Ok(())
}

/// Generate a dataset, noting power-flow work per dataset when traced.
fn dataset(net: &Network, gen: &GenConfig, layers: &mut Layers) -> Gate<Dataset> {
    let solves0 = count("flow.nr_solves");
    let data = generate_dataset(net, gen).map_err(gate("generate"))?;
    layers.add("flow.nr_solves", count("flow.nr_solves") - solves0);
    layers.set(
        "flow.nr_iterations_mean",
        histogram("flow.nr_iterations").mean(),
    );
    Ok(data)
}

fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0))
}

/// One fleet's measured serving: open loop, closed loop, checks.
struct Phase<'a> {
    fleet: Arc<Fleet>,
    feeds: &'a [FeedPlan],
    grid_names: Vec<&'static str>,
    /// Absolute tick of the fleet's first push.
    base: usize,
    preroll: usize,
    open_ticks: usize,
    /// An operator scrapes once a second during the open loop; otherwise
    /// the endpoint is scraped once after it.
    operator: bool,
}

struct Served {
    figures: ServeFigures,
    attempted: u64,
    ok: u64,
    recall: f64,
    precision: f64,
    raise_delay_ms: f64,
    peak_rss_mb: f64,
}

/// How a feed's lone-detector mirror starts: fresh, or from the snapshot
/// the fleet restored it from.
type MirrorStart<'a> = &'a dyn Fn(usize, &Detector) -> Gate<StreamingDetector>;

/// Serve `phase`, then check it. `bundles` loads the served bundles again
/// (after the memory peak is read) for the lone-detector mirrors, which
/// start from `start(feed, detector)`. Traced runs mirror every feed;
/// untraced runs mirror the feeds `check` picks.
fn serve(
    ctx: &Ctx,
    phase: Phase<'_>,
    layers: &mut Layers,
    bundles: impl FnOnce() -> Gate<Vec<ModelBundle>>,
    start: MirrorStart<'_>,
    check: impl Fn(usize, &FeedPlan) -> bool,
) -> Gate<Served> {
    let fleet = &phase.fleet;
    let mut server =
        ObsServer::bind_fleet("127.0.0.1:0", Arc::clone(fleet)).map_err(gate("bind"))?;
    let scraper = phase.operator.then(|| Scraper::start(server.addr()));
    let mut load = LoadGen::new(fleet, phase.feeds, ctx.seed, phase.base);
    load.preroll(phase.preroll);
    let mut tt = TickTrace::default();
    if ctx.trace {
        pmu_obs::reset_metrics();
        load.enable_trace();
    }
    let records0 = pmu_obs::recorder::global().written();
    let open = load.open_loop(phase.open_ticks, ctx.trace.then_some(&mut tt));
    let scrapes = match scraper {
        Some(s) => s.finish()?,
        None => vec![scrape_once(server.addr())?],
    };
    server.shutdown();
    let closed = load.closed_loop(CLOSED_TICKS, ctx.trace.then_some(&mut tt));
    let figures = ServeFigures::new(&open, closed);
    eprintln!(
        "open loop: {} ticks of {} samples at 60/s; latency p50 {:.0} us, p90 {:.0} us, \
         p{} {:.0} us; generator lag p{} {:.0} us; closed loop {:.0} samples/s",
        figures.ticks,
        phase.feeds.len(),
        figures.latency_p50_us,
        figures.latency_p90_us,
        figures.tail_pct,
        figures.latency_tail_us,
        figures.tail_pct,
        figures.lag_tail_us,
        figures.samples_per_s,
    );

    if ctx.trace {
        serving_layers(layers, fleet, &tt, &scrapes, records0);
        layers.set("gen.ticks", figures.ticks as f64);
        layers.set("serve.latency_p99_us", figures.latency_tail_us);
        layers.set("gen.lag_p99_us", figures.lag_tail_us);
        // Same closed loop untraced, then on one worker.
        pmu_obs::set_metrics_enabled(false);
        let untraced = load.closed_loop(CLOSED_TICKS, None);
        par::set_threads(1);
        let one = load.closed_loop(CLOSED_TICKS, None);
        par::set_threads(0);
        pmu_obs::set_metrics_enabled(true);
        let per_sample = |(n, s): (u64, f64)| s / n.max(1) as f64;
        layers.set(
            "trace.overhead_ratio",
            per_sample(closed) / per_sample(untraced),
        );
        layers.set("par.speedup_2w", per_sample(one) / per_sample(untraced));
    }
    let peak_rss_mb = stats::peak_rss_mb();
    let ok = load.check_outcomes()?;

    let mirrored: Vec<usize> = (0..phase.feeds.len())
        .filter(|&f| ctx.trace || check(f, &phase.feeds[f]))
        .collect();
    let bundles = if mirrored.is_empty() {
        Vec::new()
    } else {
        bundles()?
    };
    let mut push_us = Vec::new();
    for &f in &mirrored {
        let monitor = start(f, &bundles[phase.feeds[f].grid].detector)?;
        push_us.extend(load.mirror(f, monitor)?);
    }
    if ctx.trace {
        layers.set("detect.stream_push_us", stats::median(&push_us));
        let mut build_us = Vec::new();
        for (g, observed) in load.masks() {
            let started = Instant::now();
            std::hint::black_box(
                RestrictedBank::build(bundles[g].detector.subspaces(), observed)
                    .map_err(gate("bank build"))?,
            );
            build_us.push(secs(started) * 1e6);
        }
        layers.set("detect.bank_build_us", stats::median(&build_us));
        layers.set(
            "model.snapshot_restore_us",
            snapshot_restore_us(fleet, phase.feeds, &phase.grid_names, bundles)?,
        );
    }

    let score = load.score_events(StreamConfig::default().window);
    eprintln!(
        "events: {}/{} outage episodes raised, {}/{} raises true",
        score.detected, score.episodes, score.true_raises, score.raises
    );
    if score.delays_ms.is_empty() || score.raises == 0 {
        return Err("no outage episode was raised in the open loop".into());
    }
    Ok(Served {
        figures,
        attempted: load.attempted(),
        ok,
        recall: score.detected as f64 / score.episodes as f64,
        precision: score.true_raises as f64 / score.raises as f64,
        raise_delay_ms: stats::iq_mean(&score.delays_ms),
        peak_rss_mb,
    })
}

fn fresh_mirror(_: usize, det: &Detector) -> Gate<StreamingDetector> {
    Ok(StreamingDetector::new(det.clone(), StreamConfig::default()))
}

/// Per-layer serving figures read from the traced phase.
fn serving_layers(
    layers: &mut Layers,
    fleet: &Fleet,
    tt: &TickTrace,
    scrapes: &[f64],
    records0: u64,
) {
    let h = |name: &'static str| histogram(name);
    let detect_sum = h("serve.detect_latency_us").sum().max(1e-9);
    for (i, name) in ["detect.stage1_us", "detect.stage2_us", "detect.stage3_us"]
        .into_iter()
        .enumerate()
    {
        let stage = h(name);
        layers.set(
            name,
            if stage.count() > 0 {
                stage.quantile(0.5)
            } else {
                0.0
            },
        );
        let share = [
            "detect.stage1_share",
            "detect.stage2_share",
            "detect.stage3_share",
        ][i];
        layers.set(share, stage.sum() / detect_sum);
    }
    let (hits, falls) = (
        count("detect.shortlist_hits"),
        count("detect.shortlist_fallbacks"),
    );
    layers.set("detect.shortlist_hit_ratio", hits / (hits + falls).max(1.0));
    layers.set(
        "detect.bank_miss_ratio",
        count("detect.bank_cache_miss") / count("detect.stream_samples").max(1.0),
    );
    layers.set("detect.node_cache_miss", count("detect.node_cache_miss"));
    layers.set("detect.robust_excised", count("detect.bad_data_excised"));
    layers.set(
        "detect.robust_cache_miss",
        count("detect.robust_cache_miss"),
    );
    layers.set(
        "obs.recorder_records",
        (pmu_obs::recorder::global().written() - records0) as f64,
    );
    layers.set(
        "serve.incident_dumps",
        fleet.incident_dumps_written() as f64,
    );
    let tail = stats::supported_tail_pct(tt.push_batch_us.len()) / 100.0;
    layers.set("serve.push_batch_p50_us", stats::median(&tt.push_batch_us));
    layers.set(
        "serve.push_batch_p99_us",
        stats::quantile(&tt.push_batch_us, tail),
    );
    layers.set("serve.self_us_per_sample", tt.self_us_per_sample());
    layers.set("trace.accounted_ratio", tt.accounted_ratio());
    let shards = fleet.shard_stats();
    let drained: Vec<f64> = shards.iter().map(|s| s.drained as f64).collect();
    layers.set(
        "serve.shard_skew",
        drained.iter().copied().fold(0.0, f64::max) / stats::mean(&drained).max(1.0),
    );
    layers.set("serve.shed", shards.iter().map(|s| s.shed as f64).sum());
    layers.set("serve.rejected", count("serve.samples_rejected"));
    layers.set("serve.scrape_ms", stats::median(scrapes));
    let (busy, idle) = (h("par.worker_busy_us").sum(), h("par.worker_idle_us").sum());
    layers.set("par.busy_share", busy / (busy + idle).max(1e-9));
}

/// Median time to parse a feed's serialized snapshot and restore it into
/// a fresh fleet serving the same bundles, µs per feed.
fn snapshot_restore_us(
    fleet: &Fleet,
    feeds: &[FeedPlan],
    names: &[&'static str],
    bundles: Vec<ModelBundle>,
) -> Gate<f64> {
    let mut scratch = Fleet::new(FleetConfig::default());
    for (name, bundle) in names.iter().zip(bundles) {
        scratch
            .add_grid(name, bundle, &EngineConfig::default())
            .map_err(gate("add grid"))?;
    }
    let mut us = Vec::with_capacity(feeds.len());
    for plan in feeds {
        let json = fleet
            .snapshot_feed(plan.key)
            .and_then(|s| {
                s.to_json()
                    .map_err(|e| pmu_serve::ServeError::Snapshot(e.to_string()))
            })
            .map_err(gate("snapshot"))?;
        let started = Instant::now();
        let snap = SessionSnapshot::from_json(&json).map_err(gate("snapshot parse"))?;
        scratch.restore_feed(&snap).map_err(gate("restore"))?;
        us.push(secs(started) * 1e6);
    }
    Ok(stats::median(&us))
}

/// Open-loop ticks: 85% of the run at 60 frames/s.
fn open_ticks(ctx: &Ctx) -> usize {
    (ctx.seconds * 0.85 * 60.0).round() as usize
}

fn finish(served: &Served, layers: Layers, ctx: &Ctx, mut e2e: BTreeMap<&'static str, f64>) -> Run {
    let f = &served.figures;
    for (k, v) in [
        ("latency_p50_us", f.latency_p50_us),
        ("latency_p90_us", f.latency_p90_us),
        ("samples_per_s", f.samples_per_s),
        ("on_time_ratio", f.on_time_ratio),
        (
            "ok_ratio",
            served.ok as f64 / served.attempted.max(1) as f64,
        ),
        ("event_recall", served.recall),
        ("event_precision", served.precision),
        ("raise_delay_ms", served.raise_delay_ms),
        ("peak_rss_mb", served.peak_rss_mb),
    ] {
        e2e.insert(k, v);
    }
    Run {
        attempted: served.attempted,
        failed: served.attempted - served.ok,
        metrics: if ctx.trace { layers.0 } else { e2e },
    }
}

/// stream-118: train an ieee118 model, then serve it: 8 feeds of complete
/// data, a quarter of them riding recurring outages with the endpoints
/// dark. Set-up is the bundle load into a fresh fleet.
pub fn stream_118(ctx: &Ctx) -> Gate<Run> {
    let mut layers = Layers::default();
    let net = grid("ieee118")?;
    let gen = gen_config(0);
    let path = ctx.work.join("ieee118.json");

    // Prep (outside set-up and the memory peak): the offline path. A cold
    // build, the reload proven bit-identical, and, traced, each offline
    // layer on its own.
    let started = Instant::now();
    let data = dataset(&net, &gen, &mut layers)?;
    layers.set("sim.dataset_s", secs(started));
    let built = build(&data, &gen, &path)?;
    layers.set("model.build_s", built.train_s + built.save_ms / 1e3);
    layers.set("model.save_ms", built.save_ms);
    layers.set("model.bundle_mb", file_mb(&path));
    let reloaded = ModelBundle::load(&path).map_err(gate("reload"))?;
    reload_identical(&built.bundle.detector, &reloaded.detector, &data)?;
    drop(reloaded);
    let mut quality = Metrics::new();
    test_set(&built.bundle.detector, &data, &mut quality);
    if ctx.trace {
        offline_layers(&data, &gen, &built.bundle, ctx.seed, &mut layers)?;
        par::set_threads(1);
        let one = build(&data, &gen, &path)?;
        par::set_threads(0);
        layers.set("par.build_speedup_2w", one.train_s / built.train_s);
    }
    let gid = Fleet::new(FleetConfig::default())
        .add_grid("ieee118", built.bundle, &EngineConfig::default())
        .map_err(gate("add grid"))?;
    let feeds = traffic::outage_riders(&data, 0, gid, FEEDS_118, ctx.seed);
    drop(data);
    stats::reset_peak_rss();

    // Set-up, several times over; the last fleet serves.
    let (mut setups, mut loads) = (Vec::new(), Vec::new());
    let mut fleet = None;
    for _ in 0..SETUPS_118 {
        drop(fleet.take());
        let started = Instant::now();
        let bundle = ModelBundle::load(&path).map_err(gate("load"))?;
        loads.push(secs(started) * 1e3);
        let mut f = Fleet::new(FleetConfig::default());
        f.add_grid("ieee118", bundle, &EngineConfig::default())
            .map_err(gate("add grid"))?;
        for plan in &feeds {
            f.open_feed(plan.key).map_err(gate("open feed"))?;
        }
        setups.push(secs(started));
        fleet = Some(f);
    }
    layers.set("model.load_ms", stats::median(&loads));

    let phase = Phase {
        fleet: Arc::new(fleet.expect("at least one set-up")),
        feeds: &feeds,
        grid_names: vec!["ieee118"],
        base: 0,
        preroll: PREROLL,
        open_ticks: open_ticks(ctx),
        operator: false,
    };
    let served = serve(
        ctx,
        phase,
        &mut layers,
        || Ok(vec![ModelBundle::load(&path).map_err(gate("reload"))?]),
        &fresh_mirror,
        |_, _| false,
    )?;
    let e2e = BTreeMap::from([
        ("setup_s", stats::median(&setups)),
        ("ia", quality.ia()),
        ("fa", quality.fa()),
    ]);
    Ok(finish(&served, layers, ctx, e2e))
}

/// chaos-fleet: ieee14, ieee30 and ieee57 with lossy links, scheduled
/// fault windows, outages and mid-run migrations. Set-up is a restart
/// recovery: load the three bundles and restore every feed from the
/// snapshots taken in prep.
pub fn chaos_fleet(ctx: &Ctx) -> Gate<Run> {
    const GRIDS: [&str; 3] = ["ieee14", "ieee30", "ieee57"];
    let mut layers = Layers::default();
    let migrate_at = PREROLL + open_ticks(ctx) / 2;

    // Prep: generate, train and save each grid, then plan its traffic, run
    // the pre-roll on a prep fleet and snapshot every feed.
    let mut data = Vec::new();
    let mut paths = Vec::new();
    for (g, name) in GRIDS.iter().enumerate() {
        data.push(dataset(&grid(name)?, &gen_config(g as u64), &mut layers)?);
        paths.push(ctx.work.join(format!("{name}.json")));
    }
    let mut bundles = Vec::new();
    for (g, (d, path)) in data.iter().zip(&paths).enumerate() {
        let built = build(d, &gen_config(g as u64), path)?;
        layers.add("model.build_s", built.train_s + built.save_ms / 1e3);
        layers.add("model.save_ms", built.save_ms);
        bundles.push(built.bundle);
    }
    let mut prep = Fleet::new(FleetConfig::default());
    let mut feeds = Vec::new();
    let mut quality = Metrics::new();
    for (g, (name, bundle)) in GRIDS.iter().zip(bundles).enumerate() {
        layers.add("model.bundle_mb", file_mb(&paths[g]));
        test_set(&bundle.detector, &data[g], &mut quality);
        if ctx.trace {
            offline_layers(
                &data[g],
                &gen_config(g as u64),
                &bundle,
                ctx.seed,
                &mut layers,
            )?;
        }
        let gid = prep
            .add_grid(name, bundle.clone(), &EngineConfig::default())
            .map_err(gate("add grid"))?;
        feeds.extend(traffic::chaos(
            &data[g],
            &bundle.detector,
            g,
            gid,
            FEEDS_CHAOS,
            ctx.seed,
            migrate_at,
        ));
    }
    drop(data);
    for plan in &feeds {
        prep.open_feed(plan.key).map_err(gate("open feed"))?;
    }
    let mut warm = LoadGen::new(&prep, &feeds, ctx.seed, 0);
    warm.preroll(PREROLL);
    warm.check_outcomes()?;
    let snapshots: Vec<String> = feeds
        .iter()
        .map(|p| {
            prep.snapshot_feed(p.key)
                .map_err(gate("snapshot"))?
                .to_json()
                .map_err(gate("snapshot json"))
        })
        .collect::<Gate<_>>()?;
    drop(warm);
    drop(prep);
    stats::reset_peak_rss();

    // Set-up: restart recovery into a fresh fleet, several times over.
    let cfg = EngineConfig {
        incident: IncidentConfig {
            dir: Some(ctx.work.join("incidents")),
            ..IncidentConfig::default()
        },
        ..EngineConfig::default()
    };
    let (mut setups, mut loads) = (Vec::new(), Vec::new());
    let mut fleet = None;
    for _ in 0..SETUPS_CHAOS {
        drop(fleet.take());
        let started = Instant::now();
        let mut f = Fleet::new(FleetConfig::default());
        for (name, path) in GRIDS.iter().zip(&paths) {
            let bundle = ModelBundle::load(path).map_err(gate("load"))?;
            f.add_grid(name, bundle, &cfg).map_err(gate("add grid"))?;
        }
        loads.push(secs(started) * 1e3);
        for json in &snapshots {
            let snap = SessionSnapshot::from_json(json).map_err(gate("snapshot parse"))?;
            f.restore_feed(&snap).map_err(gate("restore"))?;
        }
        setups.push(secs(started));
        fleet = Some(f);
    }
    layers.set("model.load_ms", stats::median(&loads));

    let phase = Phase {
        fleet: Arc::new(fleet.expect("at least one set-up")),
        feeds: &feeds,
        grid_names: GRIDS.to_vec(),
        base: PREROLL,
        preroll: 0,
        open_ticks: open_ticks(ctx),
        operator: true,
    };
    let served = serve(
        ctx,
        phase,
        &mut layers,
        || {
            paths
                .iter()
                .map(|p| ModelBundle::load(p).map_err(gate("reload")))
                .collect()
        },
        &|f, det| {
            let snap = SessionSnapshot::from_json(&snapshots[f]).map_err(gate("snapshot parse"))?;
            StreamingDetector::restore(det.clone(), &snap.stream).map_err(gate("restore"))
        },
        // Every feed was restored; check the migrated ones and every
        // eighth of the rest against an unmigrated replay.
        |f, plan| plan.migrate_at.is_some() || f % 8 == 0,
    )?;
    let e2e = BTreeMap::from([
        ("setup_s", stats::median(&setups)),
        ("ia", quality.ia()),
        ("fa", quality.fa()),
    ]);
    Ok(finish(&served, layers, ctx, e2e))
}

/// Gate: the reloaded detector answers bit-identically to the in-memory
/// one, on each case's first test sample with complete data and with the
/// outage endpoints dark, and on the normal test window.
fn reload_identical(a: &Detector, b: &Detector, data: &Dataset) -> Gate<()> {
    let (ca, cb) = (ScoringCache::new(), ScoringCache::new());
    let mut samples: Vec<pmu_sim::PhasorSample> = (0..data.normal_test.len())
        .map(|t| data.normal_test.sample(t))
        .collect();
    for case in &data.cases {
        let s = case.test.sample(0);
        samples.push(s.masked(&outage_endpoints_mask(data.n_nodes(), case.endpoints)));
        samples.push(s);
    }
    for (i, s) in samples.iter().enumerate() {
        let (x, y) = (a.detect_with_cache(s, &ca), b.detect_with_cache(s, &cb));
        if format!("{x:?}") != format!("{y:?}") {
            return Err(format!(
                "reloaded bundle diverges on sample {i}: {x:?} vs {y:?}"
            ));
        }
    }
    Ok(())
}
