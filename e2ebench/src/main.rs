//! End-to-end benchmark of the outage-detection stack.
//!
//! ```text
//! pmu-e2ebench --workload <stream-118|chaos-fleet> --seed N \
//!              --seconds S --trace <0|1> [--work DIR]
//! ```
//!
//! Serving is driven only through `Fleet::push_batch` and
//! `ObsServer::bind_fleet`; the offline path through `ModelBundle`.
//! Every run checks its outputs against injected ground truth and exits
//! non-zero, printing no result, when a check fails. The last stdout line
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` for definitions.

mod serve;
mod stats;
mod traffic;
mod workloads;

use std::path::PathBuf;

/// End-to-end metrics, in output order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("samples_per_s", "1/s"),
    ("on_time_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("event_recall", "ratio"),
    ("event_precision", "ratio"),
    ("raise_delay_ms", "ms"),
    ("ia", "ratio"),
    ("fa", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, in output order, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("model.load_ms", "ms"),
    ("model.bundle_mb", "MiB"),
    ("model.snapshot_restore_us", "us"),
    ("model.build_s", "s"),
    ("model.save_ms", "ms"),
    ("model.incremental_ms", "ms"),
    ("model.reused_bases", "count"),
    ("detect.stream_push_us", "us"),
    ("detect.stage1_us", "us"),
    ("detect.stage2_us", "us"),
    ("detect.stage3_us", "us"),
    ("detect.stage1_share", "ratio"),
    ("detect.stage2_share", "ratio"),
    ("detect.stage3_share", "ratio"),
    ("detect.shortlist_hit_ratio", "ratio"),
    ("detect.bank_miss_ratio", "ratio"),
    ("detect.bank_build_us", "us"),
    ("detect.node_cache_miss", "count"),
    ("detect.robust_excised", "count"),
    ("detect.robust_cache_miss", "count"),
    ("obs.recorder_records", "count"),
    ("serve.incident_dumps", "count"),
    ("serve.latency_p99_us", "us"),
    ("serve.push_batch_p50_us", "us"),
    ("serve.push_batch_p99_us", "us"),
    ("serve.self_us_per_sample", "us"),
    ("serve.shard_skew", "ratio"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.scrape_ms", "ms"),
    ("detect.train_s", "s"),
    ("baseline.mlr_train_s", "s"),
    ("numerics.svd_calls", "count"),
    ("numerics.eigen_calls", "count"),
    ("flow.nr_solves", "count"),
    ("flow.nr_iterations_mean", "count"),
    ("sim.dataset_s", "s"),
    ("par.busy_share", "ratio"),
    ("par.speedup_2w", "ratio"),
    ("par.build_speedup_2w", "ratio"),
    ("gen.ticks", "count"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        work: PathBuf::from(".bench_build").join("e2ebench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--work" => args.work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let work = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    pmu_obs::set_metrics_enabled(args.trace);
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
    };
    let result = match args.workload.as_str() {
        "stream-118" => workloads::stream_118(&ctx),
        "chaos-fleet" => workloads::chaos_fleet(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2ebench: check failed: {e}");
            std::process::exit(1);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = run.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("e2ebench: metric {name} is not finite");
            std::process::exit(1);
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        fields.join(", ")
    );
}
