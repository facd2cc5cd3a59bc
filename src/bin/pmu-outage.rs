//! `pmu-outage` — command-line front end for the library.
//!
//! ```text
//! pmu-outage info <case>                       grid summary + valid outages
//! pmu-outage solve <case>                      power-flow state
//! pmu-outage placement <case>                  greedy PMU placement
//! pmu-outage train <case> [--artifacts DIR] [--model PATH]
//!                         [--scale S] [--seed N]
//!                                              train + persist a model bundle
//! pmu-outage detect <case> --outage K [--dark]
//!                          [--artifacts DIR | --model PATH]
//!                          [--scale S] [--seed N]
//!                                              detect a simulated outage
//! pmu-outage serve [<case>] [--grid SYSTEM]... [--bundle PATH]...
//!                         [--artifacts DIR | --model PATH]
//!                         [--feeds N] [--ticks N] [--outage K]
//!                         [--shards N] [--snapshot-check]
//!                         [--scale S] [--seed N]
//!                         [--listen ADDR] [--incidents DIR]
//!                         [--hold-secs N]
//!                                              fleet-engine demo
//! pmu-outage repro [...]                       full figure reproduction
//! ```
//!
//! `<case>` is one of `ieee14 | ieee30 | ieee57 | ieee118` or a path to a
//! MATPOWER-style `.m` file. `--scale` is `fast | standard | paper`
//! (default `fast`); `--seed` defaults to the repro seed, so artifacts
//! trained here are the same ones `repro --artifacts` reuses. When
//! `--artifacts` is absent, `PMU_ARTIFACTS` names the store directory.
//! An option no subcommand reads is an error, not silently ignored.
//!
//! `serve` stands up a multi-grid [`Fleet`]: every positional case plus
//! every repeated `--grid SYSTEM` flag loads its bundle from the artifact
//! store, and every repeated `--bundle PATH` flag loads one straight from
//! disk — so one process can serve ≥2 grids, each with `--feeds` open
//! sessions. A per-grid load/provenance table is printed at startup.
//! `--snapshot-check` snapshots every feed after the demo traffic,
//! round-trips the checksummed envelopes through JSON, restores them into
//! a freshly built fleet (a restart in spirit), and replays an identical
//! tail through both — the events must match bit for bit.
//!
//! `serve --listen ADDR` (or `PMU_OBS_LISTEN=ADDR`) starts the scrape
//! endpoint — Prometheus text at `/metrics`, JSON health at `/health` —
//! and implies `PMU_METRICS=1`; `--incidents DIR` enables flight-recorder
//! incident dumps; `--hold-secs N` keeps the process (and endpoint) alive
//! after the demo traffic so a scraper can collect the final state.
//!
//! [`Fleet`]: pmu_outage::serve::Fleet

use pmu_outage::detect::stream::StreamEvent;
use pmu_outage::eval::EvalScale;
use pmu_outage::flow::{solve_ac, AcConfig};
use pmu_outage::grid::parser::parse_case;
use pmu_outage::grid::pmu_coverage::{coverage, greedy_placement};
use pmu_outage::model::{
    bundle_key, default_store, set_store_policy, ModelBundle, SessionSnapshot, StorePolicy,
};
use pmu_outage::prelude::*;
use pmu_outage::serve::{EngineConfig, FeedKey, Fleet, FleetConfig, ObsServer};
use pmu_outage::sim::scenario::simulate_window;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Shared with `repro`, so CLI-trained artifacts hit the same store keys.
const SEED: u64 = 0xC0FFEE;

fn load_network(spec: &str) -> Result<Network, String> {
    if let Some(result) = by_name(spec) {
        return result.map_err(|e| e.to_string());
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("cannot read case file {spec}: {e}"))?;
    parse_case(spec, &text).map_err(|e| e.to_string())
}

/// Every option the subcommands other than `repro` read; these take the
/// next argument as their value.
const VALUE_OPTIONS: [&str; 13] = [
    "--artifacts", "--model", "--scale", "--seed", "--outage", "--grid", "--bundle", "--feeds",
    "--ticks", "--shards", "--listen", "--incidents", "--hold-secs",
];
/// The options that stand alone.
const FLAG_OPTIONS: [&str; 2] = ["--dark", "--snapshot-check"];

/// Refuse any `--` option outside the two lists above.
fn check_options(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_OPTIONS.contains(&arg.as_str()) {
            rest.next();
        } else if arg.starts_with("--") && !FLAG_OPTIONS.contains(&arg.as_str()) {
            return Err(format!("unknown option {arg}\n{}", usage()));
        }
    }
    Ok(())
}

fn usage() -> String {
    "usage: pmu-outage <info|solve|placement|train|detect|serve|repro> <case> [options]\n\
     see `src/bin/pmu-outage.rs` docs for details"
        .to_string()
}

fn main() -> ExitCode {
    let result = run();
    // The trace sink lives in a process-global static that is never
    // dropped; without an explicit flush the tail of a PMU_TRACE capture
    // is silently lost at exit.
    pmu_outage::obs::flush_trace();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The training inputs every bundle-touching subcommand shares.
struct TrainInputs {
    gen: GenConfig,
    detector_cfg: DetectorConfig,
    mlr_cfg: MlrConfig,
}

fn train_inputs(net: &Network, scale: EvalScale, seed: u64) -> TrainInputs {
    TrainInputs {
        gen: scale.gen_config(seed),
        detector_cfg: pmu_outage::detect::detector::default_config_for(net),
        mlr_cfg: MlrConfig::default(),
    }
}

/// Load the bundle for `net` from `--model PATH` or the artifact store.
fn load_bundle(
    net: &Network,
    inputs: &TrainInputs,
    model_path: Option<&str>,
) -> Result<ModelBundle, String> {
    let bundle = match model_path {
        Some(path) => ModelBundle::load(Path::new(path)).map_err(|e| e.to_string())?,
        None => {
            let store = default_store().ok_or(
                "no model source: pass --model <path>, --artifacts <dir>, or set PMU_ARTIFACTS",
            )?;
            let key = bundle_key(net, &inputs.gen, &inputs.detector_cfg, &inputs.mlr_cfg)
                .map_err(|e| e.to_string())?;
            store
                .load(key)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| {
                    format!(
                        "no artifact for this case/scale/seed in {} — run `pmu-outage train` first",
                        store.dir().display()
                    )
                })?
        }
    };
    if bundle.detector.n_nodes() != net.n_buses() {
        return Err(format!(
            "model covers {} nodes, case has {}",
            bundle.detector.n_nodes(),
            net.n_buses()
        ));
    }
    Ok(bundle)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).ok_or_else(usage)?;

    // `repro` owns its whole argument list (it has figure selectors, not a
    // case positional) — hand over before the shared flag parsing.
    if cmd == "repro" {
        pmu_outage::eval::repro::run(args[1..].to_vec());
        return Ok(());
    }
    check_options(&args[1..])?;

    // `serve` takes an optional case positional (it can be driven purely
    // by `--grid`/`--bundle` flags); every other subcommand requires one.
    let case_spec = args.get(1).map(String::as_str);
    let flag = |name: &str| {
        debug_assert!(FLAG_OPTIONS.contains(&name), "{name} missing from FLAG_OPTIONS");
        args.iter().any(|a| a == name)
    };
    let opt = |name: &str| {
        debug_assert!(VALUE_OPTIONS.contains(&name), "{name} missing from VALUE_OPTIONS");
        args.iter()
            .position(|a| a == name)
            .and_then(|p| args.get(p + 1))
            .cloned()
    };

    if let Some(dir) = opt("--artifacts") {
        set_store_policy(StorePolicy::Dir(PathBuf::from(dir)));
    }
    let scale = match opt("--scale") {
        Some(v) => EvalScale::from_label(&v).ok_or_else(|| format!("unknown scale {v}"))?,
        None => EvalScale::Fast,
    };
    let seed: u64 = match opt("--seed") {
        Some(v) => v.parse().map_err(|e| format!("bad seed: {e}"))?,
        None => SEED,
    };
    pmu_outage::obs::init_from_env();

    if cmd == "serve" {
        // Repeatable flags: every occurrence contributes one grid.
        let opt_all = |name: &str| -> Vec<String> {
            args.windows(2)
                .filter(|w| w[0] == name)
                .map(|w| w[1].clone())
                .collect()
        };
        let mut grids: Vec<GridSource> = Vec::new();
        if let Some(spec) = case_spec.filter(|s| !s.starts_with('-')) {
            grids.push(GridSource::Case(spec.to_string()));
        }
        grids.extend(opt_all("--grid").into_iter().map(GridSource::Case));
        grids.extend(
            opt_all("--bundle").into_iter().map(|p| GridSource::Bundle(PathBuf::from(p))),
        );
        let feeds: usize = match opt("--feeds") {
            Some(v) => v.parse().map_err(|e| format!("bad feed count: {e}"))?,
            None => 3,
        };
        let ticks: usize = match opt("--ticks") {
            Some(v) => v.parse().map_err(|e| format!("bad tick count: {e}"))?,
            None => 10,
        };
        let outage: Option<usize> = match opt("--outage") {
            Some(v) => Some(v.parse().map_err(|e| format!("bad branch index: {e}"))?),
            None => None,
        };
        let shards: usize = match opt("--shards") {
            Some(v) => v.parse().map_err(|e| format!("bad shard count: {e}"))?,
            None => 0,
        };
        let listen = opt("--listen").or_else(|| std::env::var("PMU_OBS_LISTEN").ok());
        let hold_secs: u64 = match opt("--hold-secs") {
            Some(v) => v.parse().map_err(|e| format!("bad hold duration: {e}"))?,
            None => 0,
        };
        let serve_opts = ServeOpts {
            grids,
            feeds,
            ticks,
            outage,
            shards,
            listen,
            incidents: opt("--incidents").map(PathBuf::from),
            hold_secs,
            snapshot_check: flag("--snapshot-check"),
        };
        return cmd_serve(scale, seed, opt("--model").as_deref(), &serve_opts);
    }

    let case_spec = case_spec.ok_or_else(usage)?;
    let net = load_network(case_spec)?;
    match cmd {
        "info" => {
            println!("case:            {}", net.name);
            println!("buses:           {}", net.n_buses());
            println!("branches:        {}", net.n_branches());
            println!("generators:      {}", net.gens().len());
            println!("total load:      {:.1} MW", net.total_load());
            let valid = net.valid_outage_branches();
            println!("valid outages:   {} of {}", valid.len(), net.n_branches());
            let degrees: Vec<usize> = (0..net.n_buses()).map(|b| net.degree(b)).collect();
            println!(
                "degree:          min {} / max {}",
                degrees.iter().min().unwrap(),
                degrees.iter().max().unwrap()
            );
            Ok(())
        }
        "solve" => {
            let sol = solve_ac(&net, &AcConfig::default()).map_err(|e| e.to_string())?;
            println!(
                "Newton-Raphson converged in {} iterations (slack P = {:.4} p.u.)",
                sol.iterations, sol.slack_p
            );
            print_state(&net, &sol.vm, &sol.va);
            Ok(())
        }
        "placement" => {
            let placement = greedy_placement(&net);
            let ext: Vec<usize> = placement.iter().map(|&b| net.buses()[b].ext_id).collect();
            println!(
                "greedy placement: {} PMUs for {} buses (coverage {:.0}%)",
                placement.len(),
                net.n_buses(),
                100.0 * coverage(&net, &placement)
            );
            println!("PMU buses (external numbering): {ext:?}");
            Ok(())
        }
        "train" => cmd_train(&net, scale, seed, opt("--model").as_deref()),
        "detect" => {
            let branch: usize = opt("--outage")
                .ok_or("detect needs --outage <branch index>")?
                .parse()
                .map_err(|e| format!("bad branch index: {e}"))?;
            let inputs = train_inputs(&net, scale, seed);
            let bundle = load_bundle(&net, &inputs, opt("--model").as_deref())?;
            let det = &bundle.detector;
            // Simulate one noisy sample of the outage state.
            let out_net = net.with_branch_outage(branch).map_err(|e| e.to_string())?;
            let gen = &inputs.gen;
            let mut rng = StdRng::seed_from_u64(0xD57EC7);
            let window = simulate_window(&out_net, 1, &gen.ou, &gen.noise, &gen.ac, &mut rng)
                .map_err(|e| e.to_string())?;
            let mut sample = window.sample(0);
            if flag("--dark") {
                let br = &net.branches()[branch];
                sample = sample.masked(&outage_endpoints_mask(net.n_buses(), (br.from, br.to)));
                println!("(outage-endpoint PMUs masked)");
            }
            let verdict = det.detect(&sample).map_err(|e| e.to_string())?;
            println!("truth: line [{branch}]");
            let explanation = pmu_outage::detect::explain::explain(det, &sample, &verdict);
            print!("{}", pmu_outage::detect::explain::render(&explanation));
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

/// `train`: obtain a bundle (store-first), persist it, and prove the
/// persisted artifact reproduces the in-memory detections bit for bit.
fn cmd_train(
    net: &Network,
    scale: EvalScale,
    seed: u64,
    model_path: Option<&str>,
) -> Result<(), String> {
    let inputs = train_inputs(net, scale, seed);
    let store = default_store();
    if store.is_none() && model_path.is_none() {
        return Err(
            "train needs a destination: --artifacts <dir>, PMU_ARTIFACTS, or --model <path>"
                .into(),
        );
    }
    eprintln!(
        "generating dataset ({} + {} samples per case, {} scale)...",
        inputs.gen.train_len,
        inputs.gen.test_len,
        scale.label()
    );
    let data = generate_dataset(net, &inputs.gen).map_err(|e| e.to_string())?;
    let (bundle, artifact_path) = match &store {
        Some(store) => {
            let (bundle, outcome) = store
                .load_or_train_outcome(&data, &inputs.gen, &inputs.detector_cfg, &inputs.mlr_cfg)
                .map_err(|e| e.to_string())?;
            let path = store.path_for(bundle.key().map_err(|e| e.to_string())?);
            let verb = match outcome {
                pmu_model::BuildOutcome::CacheHit => {
                    "reused (cache hit, training skipped)".to_string()
                }
                pmu_model::BuildOutcome::Cold => "trained".to_string(),
                pmu_model::BuildOutcome::Incremental(stats) => format!(
                    "trained incrementally (reused {}/{} case bases)",
                    stats.reused, stats.total
                ),
            };
            println!("models for {}: {verb} — {}", net.name, path.display());
            (bundle, path)
        }
        None => {
            eprintln!("training on {} outage cases...", data.n_cases());
            let bundle =
                ModelBundle::train(&data, &inputs.gen, &inputs.detector_cfg, &inputs.mlr_cfg)
                    .map_err(|e| e.to_string())?;
            let path = PathBuf::from(model_path.expect("checked above"));
            bundle.save(&path).map_err(|e| e.to_string())?;
            println!("models for {}: trained — {}", net.name, path.display());
            (bundle, path)
        }
    };
    if let Some(path) = model_path {
        // An explicit --model path gets a copy even when the store also
        // holds one.
        let path = PathBuf::from(path);
        if path != artifact_path {
            bundle.save(&path).map_err(|e| e.to_string())?;
            println!("bundle copy written to {}", path.display());
        }
    }

    // Reload-parity check: the artifact on disk must reproduce the
    // in-memory detections bit for bit (masked samples included).
    let reloaded = ModelBundle::load(&artifact_path).map_err(|e| e.to_string())?;
    reloaded.verify_against(&data).map_err(|e| e.to_string())?;
    let mut checked = 0usize;
    for case in &data.cases {
        let plain = case.test.sample(0);
        let masked =
            plain.masked(&outage_endpoints_mask(net.n_buses(), case.endpoints));
        for sample in [plain, masked] {
            let a = bundle.detector.detect(&sample).map_err(|e| e.to_string())?;
            let b = reloaded.detector.detect(&sample).map_err(|e| e.to_string())?;
            if a != b {
                return Err(format!(
                    "reload parity violation on case {}: {a:?} != {b:?}",
                    case.branch
                ));
            }
            checked += 1;
        }
    }
    println!("reload parity: OK ({checked} detections bit-identical)");
    Ok(())
}

/// Where one fleet grid's bundle comes from.
enum GridSource {
    /// A case name/path whose bundle is resolved via `--model` (single
    /// grid only) or the artifact store.
    Case(String),
    /// A bundle file loaded straight from disk; its embedded system name
    /// picks the network.
    Bundle(PathBuf),
}

/// The `serve` subcommand's option bag (beyond the shared scale/seed).
struct ServeOpts {
    /// Grids to host, in registration order.
    grids: Vec<GridSource>,
    /// Feed sessions opened per grid.
    feeds: usize,
    ticks: usize,
    /// Outage branch applied to every grid; each grid's first valid
    /// outage branch when absent.
    outage: Option<usize>,
    /// Session shards (`0` = one per worker thread).
    shards: usize,
    /// Scrape-endpoint bind address (`--listen` / `PMU_OBS_LISTEN`).
    listen: Option<String>,
    /// Incident-dump directory (`--incidents`).
    incidents: Option<PathBuf>,
    /// Seconds to keep the endpoint alive after the demo traffic.
    hold_secs: u64,
    /// Run the snapshot → restart → restore → replay parity check.
    snapshot_check: bool,
}

/// One loaded grid: its network, bundle, generator config, and the
/// outage topology the demo switches to halfway through.
struct GridLoad {
    name: String,
    net: Network,
    bundle: ModelBundle,
    gen: GenConfig,
    branch: usize,
    out_net: Network,
    source: String,
}

/// Load every requested grid, deduplicating display names (`ieee14`,
/// `ieee14-2`, ...) so two copies of one system can serve side by side.
fn load_grids(
    opts: &ServeOpts,
    scale: EvalScale,
    seed: u64,
    model_path: Option<&str>,
) -> Result<Vec<GridLoad>, String> {
    let mut loads: Vec<GridLoad> = Vec::new();
    for src in &opts.grids {
        let (net, bundle, source) = match src {
            GridSource::Case(spec) => {
                let net = load_network(spec)?;
                let inputs = train_inputs(&net, scale, seed);
                let bundle = load_bundle(&net, &inputs, model_path)?;
                let source = match model_path {
                    Some(path) => path.to_string(),
                    None => "artifact store".to_string(),
                };
                (net, bundle, source)
            }
            GridSource::Bundle(path) => {
                let bundle = ModelBundle::load(path).map_err(|e| e.to_string())?;
                let net = load_network(&bundle.system).map_err(|e| {
                    format!("bundle {} names system {:?}: {e}", path.display(), bundle.system)
                })?;
                if bundle.detector.n_nodes() != net.n_buses() {
                    return Err(format!(
                        "bundle {} covers {} nodes, case {} has {}",
                        path.display(),
                        bundle.detector.n_nodes(),
                        net.name,
                        net.n_buses()
                    ));
                }
                (net, bundle, path.display().to_string())
            }
        };
        let mut name = net.name.clone();
        let mut copy = 1usize;
        while loads.iter().any(|l| l.name == name) {
            copy += 1;
            name = format!("{}-{copy}", net.name);
        }
        let branch = match opts.outage {
            Some(b) => b,
            None => *net
                .valid_outage_branches()
                .first()
                .ok_or_else(|| format!("case {} has no valid outage branches", net.name))?,
        };
        let out_net = net.with_branch_outage(branch).map_err(|e| e.to_string())?;
        let gen = scale.gen_config(seed);
        loads.push(GridLoad { name, net, bundle, gen, branch, out_net, source });
    }
    Ok(loads)
}

/// Simulate one tick of traffic for every grid and feed: pre-outage
/// ticks draw from the healthy topology, later ticks from the grid's
/// outage topology.
fn fleet_tick_batch(
    loads: &[GridLoad],
    keys: &[Vec<FeedKey>],
    feeds: usize,
    outage: bool,
    rng: &mut StdRng,
) -> Result<Vec<(FeedKey, PhasorSample)>, String> {
    let mut batch = Vec::with_capacity(loads.len() * feeds);
    for (gi, load) in loads.iter().enumerate() {
        let source = if outage { &load.out_net } else { &load.net };
        let window =
            simulate_window(source, feeds, &load.gen.ou, &load.gen.noise, &load.gen.ac, rng)
                .map_err(|e| e.to_string())?;
        for (f, &key) in keys[gi].iter().enumerate() {
            batch.push((key, window.sample(f)));
        }
    }
    Ok(batch)
}

/// `serve`: drive a [`Fleet`] demo — one or more grids, `--feeds`
/// sessions each, fed normal windows and then per-grid injected outages,
/// printing raise/clear events, per-feed health, and per-shard load.
fn cmd_serve(
    scale: EvalScale,
    seed: u64,
    model_path: Option<&str>,
    opts: &ServeOpts,
) -> Result<(), String> {
    let ServeOpts { feeds, ticks, .. } = *opts;
    if opts.grids.is_empty() {
        return Err(
            "serve needs at least one grid: a case positional, --grid SYSTEM, or --bundle PATH"
                .into(),
        );
    }
    if feeds == 0 || ticks == 0 {
        return Err("serve needs --feeds and --ticks >= 1".into());
    }
    if model_path.is_some() && opts.grids.len() > 1 {
        return Err("--model names one bundle; with several grids use --bundle PATH per grid".into());
    }
    if opts.listen.is_some() {
        // A scrape endpoint without metrics would serve an empty page.
        pmu_outage::obs::set_metrics_enabled(true);
    }
    let loads = load_grids(opts, scale, seed, model_path)?;

    let mut cfg = EngineConfig::default();
    cfg.incident.dir = opts.incidents.clone();
    let fleet_cfg = FleetConfig { shards: opts.shards, ..FleetConfig::default() };
    let mut fleet = Fleet::new(fleet_cfg.clone());
    let mut keys: Vec<Vec<FeedKey>> = Vec::with_capacity(loads.len());
    for load in &loads {
        let gid = fleet
            .add_grid(&load.name, load.bundle.clone(), &cfg)
            .map_err(|e| e.to_string())?;
        let grid_keys: Vec<FeedKey> =
            (0..feeds).map(|f| FeedKey { grid: gid, feed: f as u64 }).collect();
        for &key in &grid_keys {
            fleet.open_feed(key).map_err(|e| e.to_string())?;
        }
        keys.push(grid_keys);
    }

    // Feeds are open; the serving path is `&self` from here, so the
    // fleet can be shared with the endpoint thread.
    let fleet = std::sync::Arc::new(fleet);
    let mut server = match &opts.listen {
        Some(addr) => {
            let server = ObsServer::bind_fleet(addr, std::sync::Arc::clone(&fleet))
                .map_err(|e| format!("cannot bind obs endpoint on {addr}: {e}"))?;
            println!("obs endpoint: http://{}", server.addr());
            Some(server)
        }
        None => None,
    };
    println!(
        "fleet up: {} grid(s), {} shard(s), {} feed sessions",
        loads.len(),
        fleet.shard_count(),
        fleet.sessions_active(),
    );
    println!(
        "{:<12} {:<8} {:>6} {:>9} {:>7}  {:<16} source",
        "grid", "system", "buses", "branches", "outage", "fingerprint"
    );
    for (gi, load) in loads.iter().enumerate() {
        let gid = keys[gi][0].grid;
        println!(
            "{:<12} {:<8} {:>6} {:>9} {:>7}  {:<16} {}",
            load.name,
            fleet.grid_system(gid),
            load.net.n_buses(),
            load.net.n_branches(),
            format!("[{}]", load.branch),
            fleet.grid_fingerprint(gid),
            load.source,
        );
    }

    let outage_from = ticks / 2;
    println!(
        "feeding {ticks} ticks x {} feeds (per-grid outages from tick {outage_from})",
        loads.len() * feeds
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E17E);
    for tick in 0..ticks {
        let batch = fleet_tick_batch(&loads, &keys, feeds, tick >= outage_from, &mut rng)?;
        for ((key, _), event) in batch.iter().zip(fleet.push_batch(&batch)) {
            let label = fleet.feed_label(*key);
            match event.map_err(|e| e.to_string())? {
                StreamEvent::None => {}
                StreamEvent::Raised { lines, suspect_nodes } => {
                    print!("tick {tick:>3} {label}: OUTAGE RAISED, lines {lines:?}");
                    if suspect_nodes.is_empty() {
                        println!();
                    } else {
                        println!(" (bad-data channels excised: {suspect_nodes:?})");
                    }
                }
                StreamEvent::Relocalized { lines, .. } => {
                    println!("tick {tick:>3} {label}: relocalized to lines {lines:?}");
                }
                StreamEvent::Cleared => {
                    println!("tick {tick:>3} {label}: event cleared");
                }
            }
        }
    }
    for (key, h) in fleet.feed_healths() {
        let s = h.snapshot;
        println!(
            "feed {}: {} samples, {} missing, {} raised, {} cleared, active={}, mode={}",
            fleet.feed_label(key),
            s.samples_seen,
            s.missing_samples,
            s.events_raised,
            s.events_cleared,
            s.active,
            h.mode.label(),
        );
    }
    println!("{:>5} {:>9} {:>8} {:>6} {:>12} {:>12}", "shard", "sessions", "drained", "shed", "p99_push_us", "drain_rate");
    for s in fleet.shard_stats() {
        println!(
            "{:>5} {:>9} {:>8} {:>6} {:>12.1} {:>12.0}",
            s.shard, s.sessions, s.drained, s.shed, s.push_p99_us, s.drain_rate
        );
    }
    if fleet.incident_dumps_written() > 0 {
        println!(
            "incident dumps: {} written to {}",
            fleet.incident_dumps_written(),
            opts.incidents.as_deref().unwrap_or(Path::new("?")).display()
        );
    }

    if opts.snapshot_check {
        snapshot_parity_check(&fleet, &loads, &keys, feeds, &cfg, &fleet_cfg, &mut rng)?;
    }

    if let Some(server) = &server {
        if opts.hold_secs > 0 {
            println!(
                "holding {}s for scrapes on http://{} (metrics + health)...",
                opts.hold_secs,
                server.addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(opts.hold_secs));
        }
    }
    if let Some(server) = &mut server {
        server.shutdown();
    }
    if pmu_outage::obs::metrics_enabled() {
        eprintln!("{}", pmu_outage::obs::metrics_summary());
    }
    Ok(())
}

/// Snapshot every feed, round-trip the checksummed envelopes through
/// JSON, restore them into a freshly built fleet (same bundles, fresh
/// process in spirit), and replay an identical tail through both fleets:
/// every event must match bit for bit.
fn snapshot_parity_check(
    fleet: &Fleet,
    loads: &[GridLoad],
    keys: &[Vec<FeedKey>],
    feeds: usize,
    cfg: &EngineConfig,
    fleet_cfg: &FleetConfig,
    rng: &mut StdRng,
) -> Result<(), String> {
    let mut revived: Vec<SessionSnapshot> = Vec::new();
    for &key in fleet.feeds().iter() {
        let snap = fleet.snapshot_feed(key).map_err(|e| e.to_string())?;
        let text = snap.to_json().map_err(|e| e.to_string())?;
        revived.push(SessionSnapshot::from_json(&text).map_err(|e| e.to_string())?);
    }
    let mut restarted = Fleet::new(fleet_cfg.clone());
    for load in loads {
        restarted
            .add_grid(&load.name, load.bundle.clone(), cfg)
            .map_err(|e| e.to_string())?;
    }
    for snap in &revived {
        restarted.restore_feed(snap).map_err(|e| e.to_string())?;
    }

    let tail_ticks = 4;
    let mut compared = 0usize;
    for tick in 0..tail_ticks {
        let batch = fleet_tick_batch(loads, keys, feeds, true, rng)?;
        let a = fleet.push_batch(&batch);
        let b = restarted.push_batch(&batch);
        for (pos, (x, y)) in a.iter().zip(&b).enumerate() {
            if x != y {
                return Err(format!(
                    "snapshot parity violation at tail tick {tick}, feed {}: {x:?} != {y:?}",
                    fleet.feed_label(batch[pos].0)
                ));
            }
            compared += 1;
        }
    }
    println!("snapshot parity: OK ({compared} events bit-identical across restart)");
    Ok(())
}

fn print_state(net: &Network, vm: &[f64], va: &[f64]) {
    println!("{:>5} {:>8} {:>9}", "bus", "Vm(pu)", "Va(deg)");
    for b in 0..net.n_buses() {
        println!(
            "{:>5} {:>8.4} {:>9.3}",
            net.buses()[b].ext_id,
            vm[b],
            va[b].to_degrees()
        );
    }
}
