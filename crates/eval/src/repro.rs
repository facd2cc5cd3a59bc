//! The full evaluation run behind the `repro` binary and the
//! `pmu-outage repro` subcommand: argument parsing, system setup (train
//! or artifact-store reuse), figure dispatch, table printing, JSON dump.
//!
//! ```text
//! repro [FIGURES] [--systems a,b,c] [--scale fast|standard|paper]
//!       [--threads N] [--artifacts DIR] [--json PATH] [--trace PATH]
//!
//! FIGURES     comma-separated subset of fig4,fig5,fig7,fig8,fig9,fig10,
//!             extensions,ablations,robustness (default: the six figures)
//! --systems   which IEEE systems to run (default: ieee14,ieee30,ieee57,ieee118)
//! --scale     evaluation effort (default: standard)
//! --threads   worker threads for generation/training/evaluation
//!             (default: PMU_THREADS env, then the detected parallelism;
//!             results are identical for any thread count)
//! --artifacts reuse trained model bundles from DIR (training runs once,
//!             later invocations load; equivalent to PMU_ARTIFACTS=DIR)
//! --json      also dump all series as JSON to PATH
//! --trace     write a structured JSONL trace (spans, events, metrics) to
//!             PATH; equivalent to setting PMU_TRACE=PATH. Enables the
//!             end-of-run metrics summary on stderr.
//! ```

use crate::ablations::{ablation_table, run_ablations};
use crate::extensions::{extension_table, run_extensions};
use crate::figures::{fig10, fig10_table, fig4, fig4_table, fig5, fig7, fig8, fig9, method_table};
use crate::robustness::{corruption_matrix, corruption_table};
use crate::runner::{paper_systems, EvalScale, SetupSource, SystemSetup};
use pmu_model::{set_store_policy, StorePolicy};
use pmu_numerics::par;
use serde::Serialize;

/// All series the run can produce, in JSON-dump shape.
#[derive(Serialize, Default)]
struct AllResults {
    fig4: Vec<crate::figures::Fig4Point>,
    fig5: Vec<crate::figures::MethodPoint>,
    fig7: Vec<crate::figures::MethodPoint>,
    fig8: Vec<crate::figures::MethodPoint>,
    fig9: Vec<crate::figures::MethodPoint>,
    fig10: Vec<crate::figures::Fig10Point>,
    extensions: Vec<crate::extensions::ExtensionPoint>,
    ablations: Vec<crate::ablations::AblationPoint>,
    robustness: Vec<crate::robustness::CorruptionPoint>,
}

/// Run the full reproduction with CLI-style arguments (program name
/// already stripped). This is the body of the `repro` binary, shared
/// with `pmu-outage repro`.
///
/// # Panics
/// Panics on malformed arguments or I/O failures — this is a CLI entry
/// point; the panic message is the user diagnostic.
pub fn run(args: Vec<String>) {
    let mut figures: Vec<String> = Vec::new();
    let mut systems: Vec<String> = paper_systems().iter().map(|s| s.to_string()).collect();
    let mut scale = EvalScale::Standard;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--systems" => {
                let v = it.next().expect("--systems needs a value");
                systems = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = EvalScale::from_label(&v)
                    .unwrap_or_else(|| panic!("unknown scale {v}"));
            }
            "--threads" => {
                let v = it.next().expect("--threads needs a value");
                let n: usize = v.parse().expect("--threads needs a positive integer");
                assert!(n > 0, "--threads needs a positive integer");
                par::set_threads(n);
            }
            "--artifacts" => {
                let dir = it.next().expect("--artifacts needs a directory");
                set_store_policy(StorePolicy::Dir(dir.into()));
            }
            "--json" => json_path = Some(it.next().expect("--json needs a path")),
            "--trace" => trace_path = Some(it.next().expect("--trace needs a path")),
            other if other.starts_with("fig")
                || other.starts_with("abl")
                || other.starts_with("ext")
                || other.starts_with("rob") =>
            {
                figures.extend(other.split(',').map(|s| s.trim().to_string()));
            }
            other => panic!("unknown argument {other}"),
        }
    }
    if figures.is_empty() {
        figures = ["fig4", "fig5", "fig7", "fig8", "fig9", "fig10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    // --trace wins over the environment; PMU_TRACE / PMU_METRICS still
    // work when the flag is absent.
    match &trace_path {
        Some(path) => pmu_obs::install_trace_path(path).expect("open trace file"),
        None => pmu_obs::init_from_env(),
    }
    const SEED: u64 = 0xC0FFEE;
    if pmu_obs::trace_enabled() {
        pmu_obs::write_header(&[
            ("program", "repro".into()),
            ("seed", SEED.into()),
            ("threads", par::num_threads().into()),
            ("scale", scale.label().into()),
            ("systems", systems.join(",").as_str().into()),
        ]);
    }

    pmu_obs::info(&format!(
        "building systems {systems:?} at {scale:?} scale ({} worker thread{})...",
        par::num_threads(),
        if par::num_threads() == 1 { "" } else { "s" }
    ));
    let names: Vec<&str> = systems.iter().map(String::as_str).collect();
    let setups: Vec<SystemSetup> = SystemSetup::build_all(&names, scale, SEED);
    for s in &setups {
        let verb = match s.source {
            SetupSource::Trained => "trained",
            SetupSource::ArtifactStore => "reused",
        };
        pmu_obs::info(&format!("{}: models {verb}", s.name));
    }

    let mut all = AllResults::default();
    for fig in &figures {
        match fig.as_str() {
            "fig4" => {
                pmu_obs::info("running fig4 (group-formation sweep)...");
                all.fig4 = fig4(&setups, scale);
                println!("{}", fig4_table(&all.fig4));
            }
            "fig5" => {
                pmu_obs::info("running fig5 (complete data)...");
                all.fig5 = fig5(&setups, scale);
                println!("{}", method_table("Fig 5: complete data", &all.fig5));
            }
            "fig7" => {
                pmu_obs::info("running fig7 (missing outage data)...");
                all.fig7 = fig7(&setups, scale);
                println!("{}", method_table("Fig 7: missing outage data", &all.fig7));
            }
            "fig8" => {
                pmu_obs::info("running fig8 (random missing, normal operation)...");
                all.fig8 = fig8(&setups);
                println!(
                    "{}",
                    method_table("Fig 8: random missing data, normal operation", &all.fig8)
                );
            }
            "fig9" => {
                pmu_obs::info("running fig9 (random missing, outage elsewhere)...");
                all.fig9 = fig9(&setups, scale);
                println!(
                    "{}",
                    method_table("Fig 9: random missing data, outage samples", &all.fig9)
                );
            }
            "fig10" => {
                pmu_obs::info("running fig10 (reliability sweep)...");
                all.fig10 = fig10(&setups, scale);
                println!("{}", fig10_table(&all.fig10));
            }
            "extensions" => {
                pmu_obs::info("running extension experiments...");
                all.extensions = run_extensions(&setups, scale);
                println!("{}", extension_table(&all.extensions));
            }
            "ablations" => {
                pmu_obs::info("running ablations (Fig. 7 conditions)...");
                all.ablations = run_ablations(&setups, scale);
                println!("{}", ablation_table(&all.ablations));
            }
            "robustness" => {
                pmu_obs::info("running bad-data corruption matrix...");
                all.robustness = corruption_matrix(&setups, scale);
                println!("{}", corruption_table(&all.robustness));
            }
            other => panic!("unknown figure {other}"),
        }
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&all).expect("serialize results");
        std::fs::write(&path, json).expect("write JSON results");
        pmu_obs::info(&format!("wrote {path}"));
    }

    if pmu_obs::metrics_enabled() {
        eprintln!("{}", pmu_obs::metrics_summary());
    }
    pmu_obs::flush_trace();
    if let Some(path) = trace_path {
        eprintln!("trace written to {path}");
    }
}
