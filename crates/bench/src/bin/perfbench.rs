//! `perfbench` — the workspace's wall-clock timing harness.
//!
//! A plain binary with zero benchmarking dependencies:
//! `std::time::Instant` plus serde for the report. It times the things
//! future PRs care about for the perf trajectory and writes
//! `BENCH_repro.json` at the repo root:
//!
//!   1. `Matrix::matmul` (cache-blocked) vs. the retained naive
//!      `matmul_reference` at representative sizes,
//!   2. one AC Newton–Raphson solve per IEEE system, sparse fast path
//!      vs. the dense reference linear solver,
//!   3. `Svd::compute` at the shapes the detector produces,
//!   4. `SystemSetup::build` per IEEE system (dataset generation +
//!      detector/MLR training — the bulk of a `repro` run), including
//!      ieee118 now that the sparse power flow makes it tractable,
//!   5. the fig5 evaluation pipeline with 1 worker vs. all workers,
//!      recording the measured speedup honestly (on a single-core
//!      machine this is ~1.0 by construction),
//!   6. the cost of the `pmu-obs` instrumentation, disabled (the
//!      default) and fully enabled — the disabled probes must stay
//!      under 2% of kernel time,
//!   7. model-bundle save/load per IEEE system at fast scale, with a
//!      reload-parity verification (the loaded bundle must reproduce
//!      the in-memory detections bit for bit),
//!   8. `Fleet::detect_batch` throughput over one sample per outage
//!      case,
//!   9. packed-projector scoring throughput (`detect_throughput`): one
//!      warm `detect_batch_with_cache` pass vs the retained per-line
//!      reference scorer over plain + endpoint-masked samples, with a
//!      bit-parity verification and the shortlist hit-rate from the
//!      `detect.shortlist_*` counters,
//!  10. a `chaos` replay per system (ieee118 excluded): a scripted
//!      PDC-blackout + NaN-burst + corruption-burst schedule
//!      (`pmu_sim::faults`) driven through a serving session, verifying
//!      the raised event survives the blackout
//!      (`reraise_after_blackout`) and the corruption burst with the
//!      bad-data screen's excisions bounded by the injected ground
//!      truth (`corrupt_ok`) while timing the replay,
//!  11. `robust_overhead`: the ieee57 packed batch timed with the
//!      bad-data screen on (the default) and off — clean traffic must
//!      pay under 5% for the defense (`robust_overhead_ok`),
//!  12. a `fleet` soak: 4 grids sharing one process, hundreds of feed
//!      sessions sharded across the worker pool, several ticks of mixed
//!      normal/outage traffic — the headline is samples/sec/core, plus
//!      the same soak on one worker (`seconds_1w`, `speedup_2w`), the
//!      worst per-shard p99 push latency and a deliberate-overload
//!      sub-step whose shed count must match ground truth exactly
//!      (`shed_ok`).
//!
//! The artifact store is disabled for the whole run
//! (`StorePolicy::Disabled`), so `system_build` always times real
//! training, never a cache hit.
//!
//! The report embeds run metadata (worker count, scale, seed, git
//! revision) so two reports can be compared apples-to-apples with the
//! `benchdiff` subcommand:
//!
//! ```text
//! perfbench [--systems a,b,c] [--scale fast|standard|paper] [--out PATH]
//! perfbench benchdiff OLD.json NEW.json [--tol PCT] [--floor-ms MS]
//!     # flags time regressions beyond PCT% (default 10); leaves whose
//!     # absolute slowdown is under MS milliseconds never count
//!     # (default 0 — sub-ms smoke timings need a floor to not flake)
//! ```

use std::time::Instant;

use pmu_baseline::MlrConfig;
use pmu_detect::detector::default_config_for;
use pmu_detect::{Detector, RestrictedBank, ScoringCache};
use pmu_eval::figures::fig5;
use pmu_eval::runner::{EvalScale, SystemSetup};
use pmu_flow::{solve_ac, AcConfig, LinearSolver};
use pmu_model::{set_store_policy, ModelBundle, StorePolicy};
use pmu_numerics::{par, Matrix, Svd};
use pmu_serve::{EngineConfig, FeedKey, Fleet, FleetConfig, GridId, ServeError};
use pmu_sim::missing::outage_endpoints_mask;
use pmu_sim::{
    generate_dataset, Dataset, FaultKind, FaultSchedule, GenConfig, MeasurementKind,
    PhasorSample,
};
use serde::{Serialize, Value};

/// Seed shared with `repro` so build timings measure the same work.
const SEED: u64 = 0xC0FFEE;

/// Single-sample stage-1 calls per `detect_throughput` timing pass:
/// enough that the ieee118 row sits well above benchdiff's absolute
/// floor, so a slower stage-1 kernel shows up as a regression.
const STAGE1_CALLS: usize = 2_000;

/// Interleaved on/off pairs timed by `bench_robust_overhead` (odd, so
/// the median ratio is one pair's).
const ROBUST_PAIRS: usize = 9;

#[derive(Serialize)]
struct MatmulTiming {
    m: usize,
    k: usize,
    n: usize,
    blocked_ms: f64,
    reference_ms: f64,
    /// reference / blocked — > 1.0 means the blocked kernel is faster.
    speedup: f64,
}

#[derive(Serialize)]
struct BuildTiming {
    system: String,
    seconds: f64,
}

#[derive(Serialize)]
struct NrTiming {
    system: String,
    buses: usize,
    /// One full Newton–Raphson solve, sparse fast path (CSR Jacobian,
    /// RCM-ordered LU with symbolic reuse).
    sparse_ms: f64,
    /// Same solve through the dense reference linear solver.
    dense_ms: f64,
    /// dense / sparse — > 1.0 means the sparse path is faster.
    speedup: f64,
}

#[derive(Serialize)]
struct SvdTiming {
    m: usize,
    n: usize,
    /// Full one-sided Jacobi `Svd::compute`.
    compute_ms: f64,
    /// Truncation rank for the randomized path (0 disables the
    /// truncated columns on shapes where only the full timing matters).
    r: usize,
    /// `rsvd::truncated` at rank `r` — the training hot path.
    truncated_ms: f64,
    /// compute / truncated — > 1.0 means the truncated path is faster.
    speedup: f64,
}

#[derive(Serialize)]
struct IncrementalBuildTiming {
    system: String,
    /// `ModelBundle::train_incremental` after exactly one outage case's
    /// training window changed, warm-starting from the stale bundle.
    seconds: f64,
    /// Stored per-case bases reused (must be `total - 1` here).
    reused: usize,
    /// Outage cases in the dataset.
    total: usize,
}

#[derive(Serialize)]
struct PipelineTiming {
    systems: Vec<String>,
    scale: String,
    /// `SystemSetup::build_all` + fig5 with the worker pool pinned to 1.
    serial_seconds: f64,
    /// Same work with the full worker pool.
    parallel_seconds: f64,
    /// serial / parallel.
    speedup: f64,
    workers: usize,
}

#[derive(Serialize)]
struct ObsOverheadTiming {
    /// ns per disabled metric probe (one relaxed load + branch).
    probe_disabled_ns: f64,
    /// ns per enabled counter increment.
    probe_enabled_ns: f64,
    /// Matmul workload with instrumentation disabled (the default).
    workload_disabled_ms: f64,
    /// Same workload fully traced to an in-memory sink.
    workload_enabled_ms: f64,
    /// Estimated share of the disabled workload spent in probes
    /// (probe count × disabled probe cost / kernel time). Must stay
    /// well under 2.0.
    disabled_overhead_pct: f64,
    /// Full-tracing overhead relative to the disabled workload.
    enabled_overhead_pct: f64,
    /// ns per flight-recorder ring write (the always-on default).
    record_ns: f64,
    /// ns per ring write with the recorder turned off (guard only).
    record_disabled_ns: f64,
    /// Record-per-matmul workload with the recorder on (the default).
    recorder_on_ms: f64,
    /// Same workload with the recorder off.
    recorder_off_ms: f64,
    /// Estimated recorder share of the ieee57 `engine_batch` wall clock
    /// at the serve push path's rate of one ring write per sample:
    /// batch × record_ns / batch time. Analytic — derived from the
    /// per-record cost rather than an on/off wall-clock diff — so
    /// scheduler noise cannot flap the gate. Must stay under 1.0.
    recorder_overhead_pct: f64,
    /// `recorder_overhead_pct < 1.0` — the always-on recorder budget.
    /// Must always be `true`.
    recorder_overhead_ok: bool,
}

#[derive(Serialize)]
struct BundleIoTiming {
    system: String,
    /// Training both models at fast scale (the artifact a cold store pays
    /// for exactly once).
    train_ms: f64,
    /// `ModelBundle::save` — serialize + checksum + atomic write.
    save_ms: f64,
    /// `ModelBundle::load` — read + checksum verify + deserialize.
    load_ms: f64,
    /// Bundle size on disk.
    bytes: usize,
    /// Whether the reloaded bundle reproduced every in-memory detection
    /// bit for bit (plain and masked samples). Must always be `true`.
    parity_ok: bool,
}

#[derive(Serialize)]
struct EngineBatchTiming {
    system: String,
    /// Samples per batch (one test sample per outage case).
    batch: usize,
    /// One `Fleet::detect_batch` call over the batch.
    batch_ms: f64,
    samples_per_sec: f64,
    /// p99 of `serve.detect_latency_us` over one metrics-enabled pass
    /// (count-weighted per-sample shares — the quantile the `/metrics`
    /// endpoint exposes and benchdiff gates).
    detect_latency_p99_us: f64,
}

#[derive(Serialize)]
struct DetectThroughputTiming {
    system: String,
    /// Samples per batch: one plain + one endpoint-masked test sample per
    /// outage case, so the mask-keyed bank cache is exercised.
    batch: usize,
    /// One warm `detect_batch_with_cache` pass through the packed
    /// projector path (production configuration, shortlist included).
    packed_ms: f64,
    packed_samples_per_sec: f64,
    /// The same batch through the retained per-line reference scorer
    /// (`detect_reference`) — the pre-packing cost, measured honestly.
    reference_ms: f64,
    reference_samples_per_sec: f64,
    /// reference / packed — > 1.0 means the packed path is faster.
    speedup: f64,
    /// Stage 1 alone, in the serving shape: `STAGE1_CALLS` one-sample
    /// calls against the full-observation projector bank — the first
    /// thing every stream push pays. Total time, median of 3 passes.
    stage1_ms: f64,
    /// Share of shortlisted rankings that pruned at least part of the
    /// exact stage-2 scoring (the top-3 guard plus the proximity-band
    /// component walk left some candidates unscored), from the
    /// `detect.shortlist_*` counters; 0.0 when the shortlist is off for
    /// this system.
    shortlist_hit_rate: f64,
    /// Packed path bit-identical to the reference with the shortlist
    /// off, and verdict/lines-identical with the production shortlist.
    /// Must always be `true`.
    parity_ok: bool,
}

#[derive(Serialize)]
struct ChaosTiming {
    system: String,
    /// Ticks replayed through the fault schedule.
    ticks: usize,
    /// Wall-clock of the full replay (inject + one push_batch per tick).
    replay_ms: f64,
    /// Samples the ingestion guard rejected (the NaN-burst tick).
    rejected: usize,
    /// Unscorable blackout samples absorbed vote-neutrally.
    missing: usize,
    /// The event raised before the blackout was still standing at every
    /// tick after the blackout lifted — the dark-window clearing bug
    /// stays fixed. Must always be `true`.
    reraise_after_blackout: bool,
    /// Ticks the schedule tagged `FaultTag::Corrupted` (the mid-outage
    /// corruption burst) — the ground truth for `bad_data_excised`.
    corrupt_ticks: usize,
    /// Samples where the bad-data screen excised a channel, from the
    /// session's `bad_data_samples` counter.
    bad_data_excised: usize,
    /// The event survived the corruption burst and the screen never
    /// fired on more ticks than the schedule corrupted
    /// (`bad_data_excised <= corrupt_ticks`). Must always be `true`.
    corrupt_ok: bool,
    /// Incident dumps the replay produced. The blackout turns the feed
    /// Dark mid-outage, so this must be >= 1.
    incident_dumps: usize,
}

#[derive(Serialize)]
struct RobustOverheadTiming {
    system: String,
    /// Samples per timed pass (clean plain + endpoint-masked samples,
    /// replicated to keep the measurement above scheduler noise).
    batch: usize,
    /// Warm `detect_batch_with_cache` pass, bad-data screen on (the
    /// production default); median over the interleaved pairs.
    screen_on_ms: f64,
    /// The same batch with the screen disabled; median over the pairs.
    screen_off_ms: f64,
    /// Median over interleaved on/off pairs of (on − off) / off — what
    /// clean traffic pays for the screen's residual gate. The screen
    /// itself only runs on anomalous samples.
    overhead_pct: f64,
    /// `overhead_pct < 5.0` — clean traffic must not pay for the
    /// bad-data defense. Must always be `true`.
    robust_overhead_ok: bool,
}

#[derive(Serialize)]
struct FleetTiming {
    /// Grids registered in the fleet.
    grids: usize,
    /// Total open feed sessions across all grids.
    feeds: usize,
    /// Session shards (one per worker thread).
    shards: usize,
    /// Ticks of traffic in the timed soak.
    ticks: usize,
    /// Wall-clock of the soak (every `push_batch` tick, probes off).
    seconds: f64,
    /// The same soak on a fresh, identical fleet under
    /// `par::set_threads(1)`: every feed drains on the calling thread.
    seconds_1w: f64,
    /// `seconds_1w / seconds`: what the drain pool's extra workers buy.
    speedup_2w: f64,
    samples_per_sec: f64,
    /// The headline: soak throughput normalized by worker threads.
    samples_per_sec_per_core: f64,
    /// Worst per-shard p99 single-push latency over one metrics-enabled
    /// tick after the timed soak, microseconds.
    shard_p99_push_us: f64,
    /// Samples the deliberate-overload sub-step shed.
    shed_total: u64,
    /// Ground truth: burst size minus the overload fleet's queue
    /// capacity.
    shed_expected: u64,
    /// `Err(Overloaded)` results and the per-shard shed counter both
    /// equal `shed_expected`. Must always be `true`.
    shed_ok: bool,
}

#[derive(Serialize)]
struct BenchReport {
    generated_by: String,
    workers: usize,
    available_parallelism: usize,
    scale: String,
    seed: u64,
    /// `git rev-parse --short HEAD`, when available.
    git_revision: Option<String>,
    matmul: Vec<MatmulTiming>,
    nr_solve: Vec<NrTiming>,
    svd: Vec<SvdTiming>,
    system_build: Vec<BuildTiming>,
    system_build_warm: Vec<BuildTiming>,
    system_build_incremental: Vec<IncrementalBuildTiming>,
    bundle_io: Vec<BundleIoTiming>,
    engine_batch: Vec<EngineBatchTiming>,
    detect_throughput: Vec<DetectThroughputTiming>,
    robust_overhead: Vec<RobustOverheadTiming>,
    chaos: Vec<ChaosTiming>,
    fleet: FleetTiming,
    fig5_pipeline: PipelineTiming,
    obs_overhead: ObsOverheadTiming,
}

/// Median of `reps` timed runs, in seconds.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Deterministic dense test matrix (no RNG needed for timing).
fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i as u64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(j as u64)
            .wrapping_add(salt);
        (x % 2048) as f64 / 1024.0 - 1.0
    })
}

fn bench_matmul() -> Vec<MatmulTiming> {
    // Square sizes around the bus counts plus one rectangular shape like
    // the observation-window products (n_buses x window).
    let shapes: &[(usize, usize, usize)] =
        &[(64, 64, 64), (118, 118, 118), (256, 256, 256), (118, 60, 118)];
    shapes
        .iter()
        .map(|&(m, k, n)| {
            let a = fill(m, k, 1);
            let b = fill(k, n, 2);
            let blocked = time_median(5, || {
                std::hint::black_box(a.matmul(&b).expect("dims agree"));
            });
            let reference = time_median(5, || {
                std::hint::black_box(a.matmul_reference(&b).expect("dims agree"));
            });
            pmu_obs::info(&format!(
                "matmul {m}x{k}x{n}: blocked {:.3} ms, reference {:.3} ms",
                blocked * 1e3,
                reference * 1e3
            ));
            MatmulTiming {
                m,
                k,
                n,
                blocked_ms: blocked * 1e3,
                reference_ms: reference * 1e3,
                speedup: reference / blocked,
            }
        })
        .collect()
}

fn bench_nr_solve(systems: &[String]) -> Vec<NrTiming> {
    systems
        .iter()
        .filter_map(|name| {
            let net = pmu_grid::cases::by_name(name)?.ok()?;
            let time_path = |solver: LinearSolver| {
                let cfg = AcConfig { linear_solver: solver, ..AcConfig::default() };
                time_median(9, || {
                    std::hint::black_box(solve_ac(&net, &cfg).expect("converges"));
                }) * 1e3
            };
            let sparse_ms = time_path(LinearSolver::Sparse);
            let dense_ms = time_path(LinearSolver::Dense);
            pmu_obs::info(&format!(
                "nr_solve {name}: sparse {sparse_ms:.3} ms, dense {dense_ms:.3} ms"
            ));
            Some(NrTiming {
                system: name.clone(),
                buses: net.n_buses(),
                sparse_ms,
                dense_ms,
                speedup: dense_ms / sparse_ms,
            })
        })
        .collect()
}

fn bench_svd() -> Vec<SvdTiming> {
    // Observation-window shapes (n_buses x window) plus a square case,
    // each timed full vs truncated at the ranks training actually asks
    // for: 3 (per-case `subspace_dim` default) and 19 (ieee118's normal
    // subspace, `n/6`).
    let shapes: &[(usize, usize, usize)] = &[
        (118, 60, 3),
        (118, 60, 19),
        (118, 118, 3),
        (118, 118, 19),
        (256, 64, 3),
        (256, 64, 19),
    ];
    shapes
        .iter()
        .map(|&(m, n, r)| {
            let a = fill(m, n, 5);
            let compute_ms = time_median(5, || {
                std::hint::black_box(Svd::compute(&a).expect("converges"));
            }) * 1e3;
            let truncated_ms = time_median(5, || {
                std::hint::black_box(
                    pmu_numerics::rsvd::truncated(&a, r).expect("converges"),
                );
            }) * 1e3;
            pmu_obs::info(&format!(
                "svd {m}x{n}: full {compute_ms:.3} ms, truncated r={r} \
                 {truncated_ms:.3} ms ({:.1}x)",
                compute_ms / truncated_ms
            ));
            SvdTiming { m, n, compute_ms, r, truncated_ms, speedup: compute_ms / truncated_ms }
        })
        .collect()
}

fn bench_builds(systems: &[String], scale: EvalScale) -> Vec<BuildTiming> {
    systems
        .iter()
        .map(|name| {
            let t = Instant::now();
            let setup = SystemSetup::build(name, scale, SEED);
            let seconds = t.elapsed().as_secs_f64();
            std::hint::black_box(&setup);
            pmu_obs::info(&format!("build {name}: {seconds:.2} s"));
            BuildTiming { system: name.clone(), seconds }
        })
        .collect()
}

/// Warm-path counterparts of `system_build`: a pure artifact-store cache
/// hit (`system_build_warm` — load + checksum verify, no training) and a
/// warm-start incremental rebuild after exactly one outage case's
/// training window changed (`system_build_incremental` — every other
/// stored per-case basis is reused, only the aggregates retrain).
fn bench_builds_warm(
    systems: &[String],
    scale: EvalScale,
) -> (Vec<BuildTiming>, Vec<IncrementalBuildTiming>) {
    let dir = std::env::temp_dir().join("pmu-perfbench-warm-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = pmu_model::ArtifactStore::new(&dir).expect("temp store");
    let mut warm = Vec::new();
    let mut incremental = Vec::new();
    for name in systems {
        let Some(Ok(net)) = pmu_grid::cases::by_name(name) else { continue };
        let gen = scale.gen_config(SEED);
        let data = generate_dataset(&net, &gen).expect("dataset generation");
        let det_cfg = default_config_for(&net);
        let mlr_cfg = MlrConfig::default();
        let (prev, _) = store
            .load_or_train_outcome(&data, &gen, &det_cfg, &mlr_cfg)
            .expect("cold train into the store");

        let t = Instant::now();
        let (_, outcome) = store
            .load_or_train_outcome(&data, &gen, &det_cfg, &mlr_cfg)
            .expect("warm lookup");
        let warm_seconds = t.elapsed().as_secs_f64();
        assert!(outcome.is_hit(), "{name}: second identical build must be a cache hit");
        pmu_obs::info(&format!("build_warm {name}: {warm_seconds:.3} s"));
        warm.push(BuildTiming { system: name.clone(), seconds: warm_seconds });

        // One changed scenario: replace one case's training window with
        // the same branch's window from an independent realization.
        let other =
            generate_dataset(&net, &GenConfig { seed: SEED + 1, ..gen.clone() })
                .expect("donor dataset");
        let mut changed = data.clone();
        let branch = changed.cases[0].branch;
        changed.cases[0].train = other
            .case_for_branch(branch)
            .expect("same topology, same branches")
            .train
            .clone();
        let t = Instant::now();
        let (_, stats) =
            ModelBundle::train_incremental(&changed, &gen, &det_cfg, &mlr_cfg, &prev)
                .expect("incremental rebuild");
        let seconds = t.elapsed().as_secs_f64();
        pmu_obs::info(&format!(
            "build_incremental {name}: {seconds:.3} s (reused {}/{} bases)",
            stats.reused, stats.total
        ));
        incremental.push(IncrementalBuildTiming {
            system: name.clone(),
            seconds,
            reused: stats.reused,
            total: stats.total,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    (warm, incremental)
}

/// Train one fast-scale bundle per system, then time bundle save/load
/// (with a reload-parity verification), `Fleet::detect_batch`
/// throughput, and a chaos replay through a scripted fault schedule.
/// One training run feeds all three benches.
/// Everything `bench_model_serving` produces, in report order.
type ServingBenches = (
    Vec<BundleIoTiming>,
    Vec<EngineBatchTiming>,
    Vec<DetectThroughputTiming>,
    Vec<RobustOverheadTiming>,
    Vec<ChaosTiming>,
);

fn bench_model_serving(systems: &[String]) -> ServingBenches {
    let dir = std::env::temp_dir().join("pmu-perfbench-bundles");
    let _ = std::fs::create_dir_all(&dir);
    let mut bundle_io = Vec::new();
    let mut engine_batch = Vec::new();
    let mut detect_throughput = Vec::new();
    let mut robust_overhead = Vec::new();
    let mut chaos = Vec::new();
    for name in systems {
        let Some(Ok(net)) = pmu_grid::cases::by_name(name) else { continue };
        let gen = EvalScale::Fast.gen_config(SEED);
        let data = generate_dataset(&net, &gen).expect("dataset generation");
        let detector_cfg = default_config_for(&net);
        let mlr_cfg = MlrConfig::default();
        let t = Instant::now();
        let bundle = ModelBundle::train(&data, &gen, &detector_cfg, &mlr_cfg)
            .expect("bundle training");
        let train_ms = t.elapsed().as_secs_f64() * 1e3;

        let path = dir.join(format!("bundle-{name}.json"));
        let save_ms = time_median(5, || {
            bundle.save(&path).expect("bundle save");
        }) * 1e3;
        let load_ms = time_median(5, || {
            std::hint::black_box(ModelBundle::load(&path).expect("bundle load"));
        }) * 1e3;
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len() as usize);

        // Reload parity: every detection — plain and masked — must come
        // back bit-identical from the on-disk artifact.
        let reloaded = ModelBundle::load(&path).expect("bundle load");
        let mut parity_ok = true;
        let mut batch = Vec::new();
        for case in &data.cases {
            let plain = case.test.sample(0);
            let masked =
                plain.masked(&outage_endpoints_mask(net.n_buses(), case.endpoints));
            for sample in [plain, masked] {
                let parity = match (
                    bundle.detector.detect(&sample),
                    reloaded.detector.detect(&sample),
                ) {
                    (Ok(a), Ok(b)) => a == b,
                    (Err(_), Err(_)) => true,
                    _ => false,
                };
                parity_ok &= parity;
            }
            batch.push(case.test.sample(0));
        }
        pmu_obs::info(&format!(
            "bundle_io {name}: train {train_ms:.1} ms, save {save_ms:.2} ms, \
             load {load_ms:.2} ms, {bytes} bytes, parity {}",
            if parity_ok { "OK" } else { "VIOLATED" }
        ));
        bundle_io.push(BundleIoTiming {
            system: name.clone(),
            train_ms,
            save_ms,
            load_ms,
            bytes,
            parity_ok,
        });

        detect_throughput.push(bench_detect_throughput(name, &bundle.detector, &data));
        // The bad-data screen budget is gated on ieee57 — the system the
        // engine_batch trajectory tracks.
        if name == "ieee57" {
            robust_overhead.push(bench_robust_overhead(name, &bundle.detector, &data));
        }

        let mut engine_cfg = EngineConfig::default();
        engine_cfg.incident.dir = Some(dir.join(format!("incidents-{name}")));
        let mut fleet = Fleet::new(FleetConfig::default());
        let grid = fleet.add_grid(name, bundle, &engine_cfg).expect("fresh grid name");
        let batch_ms = time_median(5, || {
            std::hint::black_box(fleet.detect_batch(grid, &batch));
        }) * 1e3;
        let samples_per_sec = batch.len() as f64 / (batch_ms / 1e3);

        // One metrics-enabled pass for the latency quantile benchdiff
        // gates; the registry is reset first so earlier systems' samples
        // cannot bleed into this one's p99.
        pmu_obs::reset_metrics();
        pmu_obs::set_metrics_enabled(true);
        std::hint::black_box(fleet.detect_batch(grid, &batch));
        let detect_latency_p99_us =
            pmu_obs::metrics::histogram("serve.detect_latency_us").quantile(0.99);
        pmu_obs::set_metrics_enabled(false);

        pmu_obs::info(&format!(
            "engine_batch {name}: {} samples in {batch_ms:.2} ms ({samples_per_sec:.0}/s), \
             p99 {detect_latency_p99_us:.1} us",
            batch.len()
        ));
        engine_batch.push(EngineBatchTiming {
            system: name.clone(),
            batch: batch.len(),
            batch_ms,
            samples_per_sec,
            detect_latency_p99_us,
        });

        // The chaos replay exercises the streaming path (session state,
        // degraded-mode tracking), which scales poorly on ieee118 at
        // fast scale; the graceful-degradation contract is identical on
        // the smaller systems.
        if name != "ieee118" {
            chaos.push(chaos_replay(name, &fleet, grid, &data));
        }
    }
    (bundle_io, engine_batch, detect_throughput, robust_overhead, chaos)
}

/// What clean traffic pays for the bad-data screen: the same warm packed
/// batch timed with the screen on (the production default) and off. On
/// clean samples the screen reduces to one residual-gate comparison per
/// sample — the LNR scan and re-score only run on anomalous data — so
/// the on/off delta must stay under 5%. The batch replicates the
/// per-case samples so the measurement sits well above scheduler noise.
///
/// On and off are timed in back-to-back pairs, alternating which side
/// runs first, and the gate reads the median of the per-pair ratios:
/// host speed drifts on a shared machine, and timing all "on" runs
/// before all "off" runs would count that drift as screen overhead.
fn bench_robust_overhead(
    name: &str,
    detector: &Detector,
    data: &Dataset,
) -> RobustOverheadTiming {
    let n = data.network.n_buses();
    let mut batch = Vec::new();
    for _ in 0..4 {
        for case in &data.cases {
            let plain = case.test.sample(0);
            batch.push(plain.masked(&outage_endpoints_mask(n, case.endpoints)));
            batch.push(plain);
        }
    }

    let on = detector.clone().with_robust_screen(true);
    let off = detector.clone().with_robust_screen(false);
    let cache_on = ScoringCache::new();
    let cache_off = ScoringCache::new();
    // Warm both mask-keyed bank caches before timing steady state.
    std::hint::black_box(on.detect_batch_with_cache(&batch, &cache_on));
    std::hint::black_box(off.detect_batch_with_cache(&batch, &cache_off));
    let time_ms = |detector: &Detector, cache: &ScoringCache| {
        let t = Instant::now();
        std::hint::black_box(detector.detect_batch_with_cache(&batch, cache));
        t.elapsed().as_secs_f64() * 1e3
    };
    let (mut on_ms, mut off_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..ROBUST_PAIRS {
        let (on_pass, off_pass) = if pair % 2 == 0 {
            let on_pass = time_ms(&on, &cache_on);
            (on_pass, time_ms(&off, &cache_off))
        } else {
            let off_pass = time_ms(&off, &cache_off);
            (time_ms(&on, &cache_on), off_pass)
        };
        on_ms.push(on_pass);
        off_ms.push(off_pass);
        ratios.push(on_pass / off_pass);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let screen_on_ms = median(on_ms);
    let screen_off_ms = median(off_ms);
    let overhead_pct = 100.0 * (median(ratios) - 1.0);
    let timing = RobustOverheadTiming {
        system: name.to_string(),
        batch: batch.len(),
        screen_on_ms,
        screen_off_ms,
        overhead_pct,
        robust_overhead_ok: overhead_pct < 5.0,
    };
    pmu_obs::info(&format!(
        "robust_overhead {name}: screen on {:.2} ms / off {:.2} ms over {} samples \
         ({:+.2}%), robust_overhead_ok={}",
        timing.screen_on_ms,
        timing.screen_off_ms,
        timing.batch,
        timing.overhead_pct,
        timing.robust_overhead_ok,
    ));
    timing
}

/// Packed-projector scoring throughput vs the retained per-line
/// reference scorer, over one plain + one endpoint-masked sample per
/// outage case. The reference pass doubles as ground truth: the packed
/// path must reproduce it bit for bit with the shortlist off, and must
/// agree on verdict and localized lines with the production shortlist.
/// The shortlist hit-rate comes from a separate metrics-enabled pass so
/// the timed passes stay probe-free.
fn bench_detect_throughput(
    name: &str,
    detector: &Detector,
    data: &Dataset,
) -> DetectThroughputTiming {
    let n = data.network.n_buses();
    let mut batch = Vec::with_capacity(data.cases.len() * 2);
    for case in &data.cases {
        let plain = case.test.sample(0);
        batch.push(plain.masked(&outage_endpoints_mask(n, case.endpoints)));
        batch.push(plain);
    }

    // First pass warms the mask-keyed bank cache (and is kept for the
    // parity check); the timed passes measure steady state.
    let cache = ScoringCache::new();
    let packed = detector.detect_batch_with_cache(&batch, &cache);
    let packed_ms = time_median(3, || {
        std::hint::black_box(detector.detect_batch_with_cache(&batch, &cache));
    }) * 1e3;

    let t = Instant::now();
    let reference: Vec<_> =
        batch.iter().map(|s| detector.detect_reference(s)).collect();
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;

    // Stage 1 on its own, one sample per call as a stream push makes it.
    let all_nodes: Vec<usize> = (0..n).collect();
    let bank = RestrictedBank::build(detector.subspaces(), &all_nodes).expect("full bank");
    let angles = data.normal_test.matrix(MeasurementKind::Angle);
    let xs: Vec<_> = (0..angles.cols()).map(|t| angles.column(t)).collect();
    let stage1_ms = time_median(3, || {
        for x in xs.iter().cycle().take(STAGE1_CALLS) {
            std::hint::black_box(bank.proximities_one(x).expect("stage-1 scoring"));
        }
    }) * 1e3;

    let off = detector.clone().with_shortlist(0, 1.0);
    let off_results = off.detect_batch_with_cache(&batch, &ScoringCache::new());
    let mut parity_ok = true;
    for ((r, p), o) in reference.iter().zip(&packed).zip(&off_results) {
        parity_ok &= match (r, o) {
            (Ok(a), Ok(b)) => a == b,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        parity_ok &= match (r, p) {
            (Ok(a), Ok(b)) => a.outage == b.outage && a.lines == b.lines,
            (Err(_), Err(_)) => true,
            _ => false,
        };
    }

    pmu_obs::set_metrics_enabled(true);
    let hits0 = pmu_obs::counter!("detect.shortlist_hits").get();
    let falls0 = pmu_obs::counter!("detect.shortlist_fallbacks").get();
    std::hint::black_box(detector.detect_batch_with_cache(&batch, &cache));
    let hits = pmu_obs::counter!("detect.shortlist_hits").get() - hits0;
    let falls = pmu_obs::counter!("detect.shortlist_fallbacks").get() - falls0;
    let shortlist_hit_rate =
        if hits + falls == 0 { 0.0 } else { hits as f64 / (hits + falls) as f64 };
    pmu_obs::gauge!("detect.shortlist_hit_rate").set(shortlist_hit_rate);
    pmu_obs::set_metrics_enabled(false);

    let timing = DetectThroughputTiming {
        system: name.to_string(),
        batch: batch.len(),
        packed_ms,
        packed_samples_per_sec: batch.len() as f64 / (packed_ms / 1e3),
        reference_ms,
        reference_samples_per_sec: batch.len() as f64 / (reference_ms / 1e3),
        speedup: reference_ms / packed_ms,
        stage1_ms,
        shortlist_hit_rate,
        parity_ok,
    };
    pmu_obs::info(&format!(
        "detect_throughput {name}: packed {:.2} ms ({:.0}/s), reference {:.2} ms \
         ({:.0}/s), {:.1}x, stage 1 {:.1} us/call, shortlist hit-rate {:.2}, parity {}",
        timing.packed_ms,
        timing.packed_samples_per_sec,
        timing.reference_ms,
        timing.reference_samples_per_sec,
        timing.speedup,
        timing.stage1_ms * 1e3 / STAGE1_CALLS as f64,
        timing.shortlist_hit_rate,
        if timing.parity_ok { "OK" } else { "VIOLATED" }
    ));
    timing
}

/// Drive one serving session through a scripted PDC blackout, a NaN
/// burst, and a corruption burst mid-outage; verify the raised event
/// survives the dark window (the dark-window clearing regression) and
/// the corruption burst (the bad-data screen excises instead of
/// mislocalizing), timing the replay.
fn chaos_replay(name: &str, fleet: &Fleet, grid: GridId, data: &Dataset) -> ChaosTiming {
    let case = &data.cases[0];
    // A corruption victim away from the outage endpoints (and the
    // reference bus), so the burst cannot mimic the outage signature.
    let n = data.network.n_buses();
    let victim = (1..n)
        .find(|&i| i != case.endpoints.0 && i != case.endpoints.1)
        .expect("a non-endpoint channel exists");
    // 16 outage ticks followed by 8 normal ticks (restoration).
    let mut clean: Vec<PhasorSample> = (0..16)
        .map(|t| case.test.sample(t % case.test.len()))
        .collect();
    clean.extend(
        (16..24).map(|t| data.normal_test.sample(t % data.normal_test.len())),
    );
    // Total blackout while the outage event is standing, a one-tick NaN
    // burst that the ingestion guard must reject, then a two-tick
    // corruption burst the bad-data screen must absorb.
    let injected = FaultSchedule::new(SEED)
        .window(6, 11, FaultKind::Blackout { nodes: Vec::new() })
        .window(12, 13, FaultKind::NanBurst { nodes: vec![0] })
        .window(13, 15, FaultKind::Corrupt { nodes: vec![victim], scale: 5.0 })
        .apply(&clean);
    let corrupt_ticks = injected
        .iter()
        .filter(|inj| {
            inj.tags
                .iter()
                .any(|tag| matches!(tag, pmu_sim::FaultTag::Corrupted { .. }))
        })
        .count();

    let feed = FeedKey { grid, feed: 0 };
    fleet.open_feed(feed).expect("fresh feed key");
    let dumps_before = fleet.incident_dumps_written();
    let mut rejected = 0usize;
    let mut raised_before_blackout = false;
    let mut standing_after_blackout = true;
    let t0 = Instant::now();
    for (t, inj) in injected.iter().enumerate() {
        // Tag the injected faults into the global flight-recorder ring,
        // as a PDC-side ingest shim would, so the incident dumps the
        // replay triggers carry the ground-truth fault context.
        inj.record_faults(t);
        let pushed = fleet
            .push_batch(&[(feed, inj.sample.clone())])
            .pop()
            .expect("one result per entry");
        if pushed.is_err() {
            rejected += 1;
        }
        let active = fleet.health(feed).is_some_and(|h| h.snapshot.active);
        if t < 6 && active {
            raised_before_blackout = true;
        }
        if (11..16).contains(&t) && !active {
            standing_after_blackout = false;
        }
    }
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (missing, bad_data_excised) = fleet
        .health(feed)
        .map_or((0, 0), |h| (h.snapshot.missing_samples, h.snapshot.bad_data_samples));
    let incident_dumps = (fleet.incident_dumps_written() - dumps_before) as usize;
    fleet.close_feed(feed);
    let reraise_after_blackout = raised_before_blackout && standing_after_blackout;
    // The event rode out the corruption burst (covered by the 11..16
    // standing check above), and the screen never fired on more ticks
    // than the schedule actually corrupted.
    let corrupt_ok = standing_after_blackout && bad_data_excised <= corrupt_ticks;
    pmu_obs::info(&format!(
        "chaos {name}: {} ticks in {replay_ms:.2} ms, {rejected} rejected, \
         {missing} missing, reraise_after_blackout {reraise_after_blackout}, \
         excised {bad_data_excised}/{corrupt_ticks} corrupt tick(s) \
         corrupt_ok={corrupt_ok}, {incident_dumps} incident dump(s)",
        injected.len()
    ));
    ChaosTiming {
        system: name.to_string(),
        ticks: injected.len(),
        replay_ms,
        rejected,
        missing,
        reraise_after_blackout,
        corrupt_ticks,
        bad_data_excised,
        corrupt_ok,
        incident_dumps,
    }
}

/// Fleet soak: 4 grids (one fast-trained ieee14 bundle cloned per grid),
/// hundreds of feeds sharded across the worker pool, several ticks of
/// mixed normal/outage traffic. Timed with probes off (the production
/// default); one metrics-enabled tick afterwards surfaces the per-shard
/// p99 push latency. A second, deliberately tiny fleet is then
/// overloaded with a burst 4x its ingress budget — the typed
/// `Overloaded` errors and the per-shard shed counter must both match
/// the arithmetic ground truth.
fn bench_fleet(scale: EvalScale) -> FleetTiming {
    let net = pmu_grid::cases::ieee14().expect("embedded case");
    let gen = EvalScale::Fast.gen_config(SEED);
    let data = generate_dataset(&net, &gen).expect("dataset generation");
    let bundle = ModelBundle::train(
        &data,
        &gen,
        &default_config_for(&net),
        &MlrConfig::default(),
    )
    .expect("bundle training");

    let grids = 4usize;
    let feeds_per_grid = if matches!(scale, EvalScale::Fast) { 32 } else { 64 };
    let ticks = 6usize;
    let build = || {
        let mut fleet = Fleet::new(FleetConfig::default());
        let mut keys = Vec::with_capacity(grids * feeds_per_grid);
        for g in 0..grids {
            let gid = fleet
                .add_grid(&format!("grid{g}"), bundle.clone(), &EngineConfig::default())
                .expect("unique grid names");
            for f in 0..feeds_per_grid {
                let key = FeedKey { grid: gid, feed: f as u64 };
                fleet.open_feed(key).expect("fresh keys");
                keys.push(key);
            }
        }
        (fleet, keys)
    };
    let (fleet, keys) = build();

    // Every 4th feed rides an outage case; the rest see normal traffic,
    // so the soak mixes raise/clear event work with steady-state scoring.
    let batches: Vec<Vec<(FeedKey, PhasorSample)>> = (0..ticks)
        .map(|t| {
            keys.iter()
                .enumerate()
                .map(|(i, &key)| {
                    let sample = if i % 4 == 0 {
                        let case = &data.cases[i % data.cases.len()];
                        case.test.sample(t % case.test.len())
                    } else {
                        data.normal_test.sample((t + i) % data.normal_test.len())
                    };
                    (key, sample)
                })
                .collect()
        })
        .collect();

    let soak = |fleet: &Fleet| {
        let t0 = Instant::now();
        let mut pushed_ok = 0usize;
        for batch in &batches {
            let events = fleet.push_batch(batch);
            pushed_ok += events.iter().filter(|e| e.is_ok()).count();
            std::hint::black_box(&events);
        }
        let seconds = t0.elapsed().as_secs_f64();
        assert_eq!(
            pushed_ok,
            keys.len() * ticks,
            "the default ingress budget must admit the whole soak"
        );
        (seconds, pushed_ok)
    };
    let seconds_1w = {
        let (one, _) = build();
        par::set_threads(1);
        let (seconds, _) = soak(&one);
        par::set_threads(0);
        seconds
    };
    let (seconds, pushed_ok) = soak(&fleet);
    let samples_per_sec = pushed_ok as f64 / seconds;
    let samples_per_sec_per_core = samples_per_sec / par::num_threads() as f64;

    // One metrics-enabled tick populates the per-shard push histograms.
    pmu_obs::set_metrics_enabled(true);
    std::hint::black_box(fleet.push_batch(&batches[0]));
    let shard_p99_push_us =
        fleet.shard_stats().iter().map(|s| s.push_p99_us).fold(0.0, f64::max);
    pmu_obs::set_metrics_enabled(false);

    // Deliberate overload: one shard, a tiny ingress budget, a burst 4x
    // its size. Shedding must be typed and exactly accounted.
    let capacity = 16usize;
    let mut small = Fleet::new(FleetConfig { shards: 1, queue_capacity: capacity });
    let gid = small
        .add_grid("overload", bundle, &EngineConfig::default())
        .expect("fresh fleet");
    let key = FeedKey { grid: gid, feed: 0 };
    small.open_feed(key).expect("fresh key");
    let sample = data.normal_test.sample(0);
    let burst: Vec<_> = (0..capacity * 4).map(|_| (key, sample.clone())).collect();
    let events = small.push_batch(&burst);
    let overloaded = events
        .iter()
        .filter(|e| matches!(e, Err(ServeError::Overloaded { .. })))
        .count() as u64;
    let shed_total = small.shard_stats()[0].shed;
    let shed_expected = (burst.len() - capacity) as u64;
    let shed_ok = overloaded == shed_expected && shed_total == shed_expected;

    let timing = FleetTiming {
        grids,
        feeds: keys.len(),
        shards: fleet.shard_count(),
        ticks,
        seconds,
        seconds_1w,
        speedup_2w: seconds_1w / seconds,
        samples_per_sec,
        samples_per_sec_per_core,
        shard_p99_push_us,
        shed_total,
        shed_expected,
        shed_ok,
    };
    pmu_obs::info(&format!(
        "fleet: {} grids x {} feeds on {} shard(s), {} ticks in {:.3} s \
         (1 worker: {:.3} s, x{:.2}; {:.0} samples/s, {:.0}/s/core), \
         shard p99 push {:.1} us, shed {}/{} shed_ok={}",
        timing.grids,
        feeds_per_grid,
        timing.shards,
        timing.ticks,
        timing.seconds,
        timing.seconds_1w,
        timing.speedup_2w,
        timing.samples_per_sec,
        timing.samples_per_sec_per_core,
        timing.shard_p99_push_us,
        timing.shed_total,
        timing.shed_expected,
        timing.shed_ok,
    ));
    timing
}

fn bench_pipeline(systems: &[String], scale: EvalScale) -> PipelineTiming {
    let names: Vec<&str> = systems.iter().map(String::as_str).collect();
    let run = || {
        let setups = SystemSetup::build_all(&names, scale, SEED);
        std::hint::black_box(fig5(&setups, scale));
    };

    par::set_threads(1);
    let t = Instant::now();
    run();
    let serial = t.elapsed().as_secs_f64();
    pmu_obs::info(&format!("fig5 pipeline, 1 worker: {serial:.2} s"));

    par::set_threads(0); // back to PMU_THREADS / detected parallelism
    let workers = par::num_threads();
    // `par_map` degrades to the same sequential loop at one worker, so a
    // second timed run would measure an identical code path and report
    // its noise as a bogus speedup/regression. Reuse the measurement.
    let parallel = if workers <= 1 {
        pmu_obs::info("fig5 pipeline: 1 effective worker, parallel == serial");
        serial
    } else {
        let t = Instant::now();
        run();
        let parallel = t.elapsed().as_secs_f64();
        pmu_obs::info(&format!("fig5 pipeline, {workers} worker(s): {parallel:.2} s"));
        parallel
    };

    PipelineTiming {
        systems: systems.to_vec(),
        scale: scale.label().to_string(),
        serial_seconds: serial,
        parallel_seconds: parallel,
        speedup: serial / parallel,
        workers,
    }
}

/// Measure what the instrumentation costs: per-probe, per-ring-write,
/// and on a matmul-heavy workload, with the probes disabled (default)
/// and with full tracing to an in-memory sink. The flight-recorder
/// budget (`recorder_overhead_ok`) is checked against the ieee57
/// `engine_batch` timing when that system was benched, else the slowest
/// system available.
///
/// Must run after the other benches — it toggles the global obs state
/// and restores the defaults on exit.
fn bench_obs_overhead(engine_batch: &[EngineBatchTiming]) -> ObsOverheadTiming {
    const PROBES: usize = 1_000_000;
    // Per-probe cost, disabled: one relaxed load + branch.
    let disabled_s = time_median(3, || {
        for _ in 0..PROBES {
            pmu_obs::counter!("bench.probe").inc();
        }
    });
    pmu_obs::set_metrics_enabled(true);
    let enabled_s = time_median(3, || {
        for _ in 0..PROBES {
            pmu_obs::counter!("bench.probe").inc();
        }
    });
    pmu_obs::set_metrics_enabled(false);

    // Workload: instrumented matmuls, small enough that probe cost
    // would show if it were material.
    let a = fill(64, 64, 3);
    let b = fill(64, 64, 4);
    let workload = |a: &Matrix, b: &Matrix| {
        for _ in 0..50 {
            std::hint::black_box(a.matmul(b).expect("dims agree"));
        }
    };
    let disabled_ms = time_median(5, || workload(&a, &b)) * 1e3;
    pmu_obs::install_trace_writer(Box::new(std::io::sink()));
    let enabled_ms = time_median(5, || workload(&a, &b)) * 1e3;
    pmu_obs::uninstall_trace();
    pmu_obs::set_metrics_enabled(false);

    // Flight recorder: per-write cost on and off, plus a record-per-matmul
    // workload (the serve push path's rate of one ring write per sample).
    let ring = pmu_obs::Recorder::new(4096);
    let label = pmu_obs::recorder::label_id("bench.record");
    use pmu_obs::RecKind;
    let record_s = time_median(3, || {
        for i in 0..PROBES {
            ring.record(RecKind::Metric, label, i as u64, 0);
        }
    });
    pmu_obs::set_recorder_enabled(false);
    let record_disabled_s = time_median(3, || {
        for i in 0..PROBES {
            ring.record(RecKind::Metric, label, i as u64, 0);
        }
    });
    pmu_obs::set_recorder_enabled(true);
    let recorded_workload = |a: &Matrix, b: &Matrix| {
        for i in 0..50u64 {
            ring.record(RecKind::Metric, label, i, 0);
            std::hint::black_box(a.matmul(b).expect("dims agree"));
        }
    };
    let recorder_on_ms = time_median(5, || recorded_workload(&a, &b)) * 1e3;
    pmu_obs::set_recorder_enabled(false);
    let recorder_off_ms = time_median(5, || recorded_workload(&a, &b)) * 1e3;
    pmu_obs::set_recorder_enabled(true);

    let record_ns = record_s / PROBES as f64 * 1e9;
    let record_disabled_ns = record_disabled_s / PROBES as f64 * 1e9;
    // Analytic always-on budget at one ring write per sample, against
    // the ieee57 batch (or the slowest system benched).
    let gate = engine_batch
        .iter()
        .find(|t| t.system == "ieee57")
        .or_else(|| {
            engine_batch
                .iter()
                .max_by(|x, y| x.batch_ms.partial_cmp(&y.batch_ms).unwrap())
        });
    let recorder_overhead_pct = gate.map_or(0.0, |t| {
        100.0 * (t.batch as f64 * record_ns * 1e-6) / t.batch_ms
    });
    let recorder_overhead_ok = recorder_overhead_pct < 1.0;

    // The disabled matmul path takes 1 probe per call (the enabled
    // check); bound its share of kernel time from the measured
    // per-probe cost.
    let probe_disabled_ns = disabled_s / PROBES as f64 * 1e9;
    let probe_enabled_ns = enabled_s / PROBES as f64 * 1e9;
    let disabled_overhead_pct =
        100.0 * (50.0 * probe_disabled_ns * 1e-6) / disabled_ms;
    let timing = ObsOverheadTiming {
        probe_disabled_ns,
        probe_enabled_ns,
        workload_disabled_ms: disabled_ms,
        workload_enabled_ms: enabled_ms,
        disabled_overhead_pct,
        enabled_overhead_pct: 100.0 * (enabled_ms - disabled_ms) / disabled_ms,
        record_ns,
        record_disabled_ns,
        recorder_on_ms,
        recorder_off_ms,
        recorder_overhead_pct,
        recorder_overhead_ok,
    };
    pmu_obs::info(&format!(
        "obs overhead: probe {:.2} ns disabled / {:.2} ns enabled; \
         workload {:.3} ms disabled / {:.3} ms traced ({:+.2}%)",
        timing.probe_disabled_ns,
        timing.probe_enabled_ns,
        timing.workload_disabled_ms,
        timing.workload_enabled_ms,
        timing.enabled_overhead_pct,
    ));
    pmu_obs::info(&format!(
        "recorder overhead: {:.2} ns/record on / {:.2} ns off; workload \
         {:.3} ms on / {:.3} ms off; engine_batch share {:.4}% \
         recorder_overhead_ok={}",
        timing.record_ns,
        timing.record_disabled_ns,
        timing.recorder_on_ms,
        timing.recorder_off_ms,
        timing.recorder_overhead_pct,
        timing.recorder_overhead_ok,
    ));
    timing
}

fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if rev.is_empty() { None } else { Some(rev) }
}

// ---------------------------------------------------------------------
// benchdiff
// ---------------------------------------------------------------------

/// Flatten the time-valued leaves (`*_ms`, `*_us`, `*_seconds`,
/// `seconds`) of a report into `path -> value` pairs. Arrays index by
/// position; the benchmark set is fixed per report version, so
/// positions align.
fn time_leaves(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    let is_time_key = |k: &str| {
        k.ends_with("_ms") || k.ends_with("_us") || k.ends_with("seconds")
    };
    match v {
        Value::Obj(pairs) => {
            for (k, val) in pairs {
                let path =
                    if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                match val {
                    Value::Float(x) if is_time_key(k) => {
                        out.push((path, *x));
                    }
                    Value::Int(x) if is_time_key(k) => {
                        out.push((path, *x as f64));
                    }
                    other => time_leaves(&path, other, out),
                }
            }
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                time_leaves(&format!("{prefix}[{i}]"), item, out);
            }
        }
        _ => {}
    }
}

/// Milliseconds represented by a time leaf, inferred from its key
/// suffix (`_us`, `_ms`, `seconds`).
fn leaf_ms(path: &str, value: f64) -> f64 {
    if path.ends_with("_us") {
        value / 1000.0
    } else if path.ends_with("_ms") {
        value
    } else {
        value * 1000.0
    }
}

/// Compare two BENCH_*.json reports and flag time regressions beyond
/// `tol_pct` percent. Leaves whose absolute slowdown is under
/// `floor_ms` milliseconds are reported but never counted as
/// regressions: sub-millisecond measurements jitter past any relative
/// tolerance on a shared machine. Returns the number of regressions
/// found.
fn benchdiff(old_path: &str, new_path: &str, tol_pct: f64, floor_ms: f64) -> usize {
    let load = |path: &str| -> Value {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
    };
    let old = load(old_path);
    let new = load(new_path);

    let meta = |v: &Value, key: &str| -> String {
        if let Value::Obj(pairs) = v {
            if let Some((_, val)) = pairs.iter().find(|(k, _)| k == key) {
                return match val {
                    Value::Str(s) => s.clone(),
                    Value::Int(i) => i.to_string(),
                    other => format!("{other:?}"),
                };
            }
        }
        "?".to_string()
    };
    // Timings scale with the evaluation workload, so diffing reports
    // from different scales is meaningless — a fast-scale run always
    // "beats" a standard-scale baseline, which is exactly how the
    // 41 s → 57.8 s ieee118 `system_build` regression slipped through.
    let (old_scale, new_scale) = (meta(&old, "scale"), meta(&new, "scale"));
    if old_scale != new_scale {
        println!(
            "error: scale differs ({old_scale} -> {new_scale}); cross-scale timing \
             comparisons are vacuous — regenerate the baseline at the same scale"
        );
        return 1;
    }
    for key in ["workers", "git_revision"] {
        let (o, n) = (meta(&old, key), meta(&new, key));
        if o != n {
            println!("note: {key} differs: {o} -> {n}");
        }
    }

    let mut old_leaves = Vec::new();
    let mut new_leaves = Vec::new();
    time_leaves("", &old, &mut old_leaves);
    time_leaves("", &new, &mut new_leaves);

    let mut regressions = 0usize;
    println!("{:<44} {:>10} {:>10} {:>8}", "metric", "old", "new", "delta");
    for (path, new_v) in &new_leaves {
        let Some((_, old_v)) = old_leaves.iter().find(|(p, _)| p == path) else {
            println!("{path:<44} {:>10} {new_v:>10.3} {:>8}", "-", "new");
            continue;
        };
        let pct = if *old_v > 0.0 { 100.0 * (new_v - old_v) / old_v } else { 0.0 };
        let delta_ms = leaf_ms(path, *new_v) - leaf_ms(path, *old_v);
        let flag = if pct > tol_pct && delta_ms > floor_ms {
            regressions += 1;
            "  REGRESSION"
        } else if pct > tol_pct {
            "  (below floor)"
        } else {
            ""
        };
        println!("{path:<44} {old_v:>10.3} {new_v:>10.3} {pct:>+7.1}%{flag}");
    }
    if regressions == 0 {
        println!("no regressions (>{tol_pct:.0}%) found");
    } else {
        println!("{regressions} regression(s) exceed the {tol_pct:.0}% threshold");
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("benchdiff") {
        let mut paths: Vec<&String> = Vec::new();
        let mut tol_pct = 10.0;
        let mut floor_ms = 0.0;
        let mut it = args[1..].iter();
        while let Some(arg) = it.next() {
            if arg == "--tol" {
                tol_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tol needs a percentage");
            } else if arg == "--floor-ms" {
                floor_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--floor-ms needs a millisecond value");
            } else {
                paths.push(arg);
            }
        }
        let [old_path, new_path] = paths[..] else {
            panic!("usage: perfbench benchdiff OLD.json NEW.json [--tol PCT] [--floor-ms MS]");
        };
        let regressions = benchdiff(old_path, new_path, tol_pct, floor_ms);
        std::process::exit(if regressions == 0 { 0 } else { 1 });
    }

    let mut systems: Vec<String> =
        vec!["ieee14".into(), "ieee30".into(), "ieee57".into(), "ieee118".into()];
    let mut scale = EvalScale::Standard;
    let mut out = "BENCH_repro.json".to_string();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--systems" => {
                let v = it.next().expect("--systems needs a value");
                systems = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--scale" => {
                scale = match it.next().expect("--scale needs a value").as_str() {
                    "fast" => EvalScale::Fast,
                    "standard" => EvalScale::Standard,
                    "paper" => EvalScale::Paper,
                    other => panic!("unknown scale {other}"),
                };
            }
            "--out" => out = it.next().expect("--out needs a path"),
            other => panic!("unknown argument {other}"),
        }
    }

    pmu_obs::init_from_env();
    // A configured PMU_ARTIFACTS store would turn system_build into a
    // bundle-load benchmark; keep the timings honest.
    set_store_policy(StorePolicy::Disabled);
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    pmu_obs::info(&format!(
        "perfbench: {} worker thread(s), {} core(s) available",
        par::num_threads(),
        available
    ));

    let matmul = bench_matmul();
    let nr_solve = bench_nr_solve(&systems);
    let svd = bench_svd();
    let system_build = bench_builds(&systems, scale);
    let (system_build_warm, system_build_incremental) =
        bench_builds_warm(&systems, scale);
    let (bundle_io, engine_batch, detect_throughput, robust_overhead, chaos) =
        bench_model_serving(&systems);
    let fleet = bench_fleet(scale);
    // The end-to-end pipeline timing stays on the ieee14/30/57 trio: an
    // ieee118 fig5 run times the detector over ~170 outage cases and
    // would dominate the harness without adding signal beyond its
    // system_build entry above.
    let pipeline_systems: Vec<String> =
        systems.iter().filter(|s| s.as_str() != "ieee118").cloned().collect();
    let fig5_pipeline = bench_pipeline(&pipeline_systems, scale);
    let obs_overhead = bench_obs_overhead(&engine_batch);

    let report = BenchReport {
        generated_by: "perfbench (crates/bench/src/bin/perfbench.rs)".to_string(),
        workers: par::num_threads(),
        available_parallelism: available,
        scale: scale.label().to_string(),
        seed: SEED,
        git_revision: git_revision(),
        matmul,
        nr_solve,
        svd,
        system_build,
        system_build_warm,
        system_build_incremental,
        bundle_io,
        engine_batch,
        detect_throughput,
        robust_overhead,
        chaos,
        fleet,
        fig5_pipeline,
        obs_overhead,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    pmu_obs::info(&format!("wrote {out}"));
}
