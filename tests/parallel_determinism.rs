//! Thread-count invariance of the whole train/eval pipeline.
//!
//! Every parallel fan-out (scenario generation, subspace learning,
//! ellipse fitting, figure runners) derives an independent RNG stream per
//! work item, so a run with 1 worker and a run with N workers must agree
//! *bitwise* — identical serialized detector (thresholds included) and
//! identical IA/FA figure metrics. This is the guarantee that lets
//! `--threads` be a pure performance knob.
//!
//! Everything lives in one `#[test]` because the worker-count override is
//! process-wide and the libtest harness runs tests concurrently.

use pmu_eval::figures::{fig5, MethodPoint};
use pmu_eval::runner::{EvalScale, SystemSetup};
use pmu_numerics::par;

fn run_once(workers: usize) -> (String, Vec<MethodPoint>) {
    par::set_threads(workers);
    let setup = SystemSetup::build("ieee14", EvalScale::Fast, 0xD00D);
    let model_json = serde_json::to_string(&setup.detector).expect("serialize detector");
    let points = fig5(std::slice::from_ref(&setup), EvalScale::Fast);
    par::set_threads(0);
    (model_json, points)
}

#[test]
fn one_worker_and_many_workers_agree_bitwise() {
    // Tracing on for the whole comparison: instrumentation must never
    // perturb results (spans and per-worker events are timing-only).
    pmu_obs::install_trace_writer(Box::new(std::io::sink()));
    let (serial_model, serial_fig5) = run_once(1);
    let (parallel_model, parallel_fig5) = run_once(4);
    pmu_obs::uninstall_trace();

    // The serialized model covers the learned subspaces, ellipses,
    // capability matrix, detection groups, and all four calibrated
    // thresholds; byte equality means every f64 matches bitwise.
    assert_eq!(
        serial_model, parallel_model,
        "trained detector must not depend on the worker count"
    );

    assert_eq!(serial_fig5.len(), parallel_fig5.len());
    for (a, b) in serial_fig5.iter().zip(&parallel_fig5) {
        assert_eq!(a.system, b.system);
        assert_eq!(a.method, b.method);
        assert_eq!(
            a.ia.to_bits(),
            b.ia.to_bits(),
            "IA for {}/{} differs across worker counts",
            a.system,
            a.method
        );
        assert_eq!(
            a.fa.to_bits(),
            b.fa.to_bits(),
            "FA for {}/{} differs across worker counts",
            a.system,
            a.method
        );
    }

    // Sanity: the run produced real results, not empty agreement.
    assert_eq!(serial_fig5.len(), 2, "subspace + mlr points for ieee14");
    assert!(serial_model.contains("threshold"));
}
