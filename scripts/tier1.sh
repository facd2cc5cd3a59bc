#!/usr/bin/env bash
# Tier-1 verification: release build, lint wall, full test suite, the
# tracing integration test exercised through the PMU_TRACE environment
# path, and a fast-scale perfbench smoke compared against the committed
# standard-scale baseline (loose tolerance — it only catches order-of-
# magnitude regressions, not noise).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
# --workspace: the root package alone does not pull in the perfbench and
# CLI binaries the later steps execute.
cargo build --release --workspace

echo "== e2ebench compile check =="
# e2ebench is its own workspace, so `cargo test` never compiles it; this
# catches a break in the serving API it imports before a benchmark run.
CARGO_TARGET_DIR=target/e2ebench-check cargo check --offline --quiet \
  --manifest-path e2ebench/Cargo.toml

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q

echo "== trace integration via PMU_TRACE =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
PMU_TRACE="$trace_dir/tier1_trace.jsonl" cargo test -q --test trace_integration
test -s "$trace_dir/tier1_trace.jsonl"
echo "trace written: $(wc -l < "$trace_dir/tier1_trace.jsonl") records"

echo "== CLI smoke: solve, and unknown options refused =="
solve_out="$(./target/release/pmu-outage solve ieee14)"
grep -q "Newton-Raphson converged" <<<"$solve_out" || { echo "solve did not converge"; exit 1; }
if ./target/release/pmu-outage solve ieee14 --fdpf >/dev/null 2>&1; then
  echo "an unknown option was silently accepted"; exit 1
fi

echo "== artifact store round-trip smoke =="
art_dir="$trace_dir/artifacts"
# Cold store: training must run, and the reload-parity check must pass.
cold_out="$(./target/release/pmu-outage train ieee14 --scale fast --artifacts "$art_dir")"
echo "$cold_out"
grep -q "trained" <<<"$cold_out" || { echo "cold run did not train"; exit 1; }
grep -q "reload parity: OK" <<<"$cold_out" || { echo "cold run parity check failed"; exit 1; }
# Warm store: the bundle must be reused, training skipped.
warm_out="$(./target/release/pmu-outage train ieee14 --scale fast --artifacts "$art_dir")"
echo "$warm_out"
grep -q "reused" <<<"$warm_out" || { echo "warm run retrained instead of reusing"; exit 1; }
grep -q "reload parity: OK" <<<"$warm_out" || { echo "warm run parity check failed"; exit 1; }
# And the stored bundle must serve detections.
./target/release/pmu-outage detect ieee14 --outage 3 --scale fast --artifacts "$art_dir" \
  | grep -q "OUTAGE DETECTED" || { echo "detect from stored bundle failed"; exit 1; }

echo "== obs endpoint smoke: serve --listen, scrape /metrics + /health =="
obs_dir="$trace_dir/obs"
mkdir -p "$obs_dir"
./target/release/pmu-outage serve ieee14 --scale fast --artifacts "$art_dir" \
  --feeds 2 --ticks 8 --listen 127.0.0.1:0 --incidents "$obs_dir/incidents" \
  --hold-secs 15 > "$obs_dir/serve.log" 2>&1 &
serve_pid=$!
# Wait for the endpoint line, then scrape over bash /dev/tcp (no curl in
# the minimal container).
obs_port=""
for _ in $(seq 1 100); do
  obs_port="$(grep -oE 'obs endpoint: http://127\.0\.0\.1:[0-9]+' "$obs_dir/serve.log" \
    | grep -oE '[0-9]+$' || true)"
  [ -n "$obs_port" ] && break
  sleep 0.2
done
[ -n "$obs_port" ] || { cat "$obs_dir/serve.log"; echo "serve never bound the obs endpoint"; kill "$serve_pid" 2>/dev/null; exit 1; }
scrape() { # scrape PATH OUTFILE
  exec 3<>"/dev/tcp/127.0.0.1/$obs_port"
  printf 'GET %s HTTP/1.1\r\nHost: tier1\r\n\r\n' "$1" >&3
  timeout 5 cat <&3 > "$2"
  exec 3<&-
}
# The demo traffic takes a couple of seconds; scrape once it has flowed.
sleep 4
scrape /metrics "$obs_dir/metrics.txt"
scrape /health "$obs_dir/health.json"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
grep -q 'serve_detect_latency_us{quantile=' "$obs_dir/metrics.txt" \
  || { echo "/metrics missing detect-latency quantiles"; exit 1; }
grep -q 'serve_feed_mode{session=' "$obs_dir/metrics.txt" \
  || { echo "/metrics missing per-session feed_mode gauges"; exit 1; }
grep -q '"sessions_active":2' "$obs_dir/health.json" \
  || { echo "/health missing session count"; exit 1; }
grep -q '"stage1_us"' "$obs_dir/health.json" \
  || { echo "/health missing per-stage detect timings"; exit 1; }
ls "$obs_dir/incidents"/incident-*.jsonl >/dev/null 2>&1 \
  || { echo "serve demo produced no incident dumps"; exit 1; }
echo "obs endpoint OK (port $obs_port, $(ls "$obs_dir/incidents" | wc -l) incident dump(s))"

echo "== fleet smoke: two grids, snapshot -> restart -> restore parity =="
# Two grids off one stored bundle; --snapshot-check snapshots every feed
# after the demo traffic, round-trips the checksummed envelopes through
# JSON, restores them into a freshly built fleet, and replays an
# identical tail through both — events must match bit for bit.
fleet_out="$(./target/release/pmu-outage serve ieee14 --grid ieee14 --scale fast \
  --artifacts "$art_dir" --feeds 2 --ticks 6 --snapshot-check)"
echo "$fleet_out"
grep -q "fleet up: 2 grid(s)" <<<"$fleet_out" || { echo "fleet smoke did not host two grids"; exit 1; }
grep -q "snapshot parity: OK" <<<"$fleet_out" || { echo "fleet snapshot/restore parity failed"; exit 1; }

echo "== perfbench smoke (fast scale) =="
./target/release/perfbench --scale fast --out "$trace_dir/BENCH_fast.json"
# Diff against the committed FAST-scale baseline. benchdiff now hard-fails
# on a scale mismatch (cross-scale comparisons are vacuous: a fast run
# always "beats" a standard baseline, which is how a 41 s -> 58 s build
# regression once slipped through), so the baseline must be regenerated
# with `perfbench --scale fast --out BENCH_fast_baseline.json` whenever
# the workload changes. 75% tolerance absorbs shared-runner noise while
# still catching order-of-magnitude regressions; the 100 ms absolute
# floor keeps small leaves (sub-ms chaos replays, tens-of-ms bundle
# saves whose disk IO jitters 2-3x between runs) from flaking past any
# relative tolerance — the signals this smoke exists for (seconds-scale
# builds, hundreds-of-ms detect throughput) clear the floor by orders
# of magnitude when they regress 75%.
./target/release/perfbench benchdiff BENCH_fast_baseline.json "$trace_dir/BENCH_fast.json" \
  --tol 75 --floor-ms 100 \
  || { echo "perfbench smoke regression (>75% vs fast-scale baseline)"; exit 1; }

echo "== incremental rebuild smoke: >=90% basis reuse after one-scenario change =="
# perfbench splices one regenerated scenario into each trained system and
# rebuilds via the warm-start path; everything untouched must come back
# verbatim from the stored bundle.
python3 - "$trace_dir/BENCH_fast.json" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
rows = rep.get("system_build_incremental", [])
assert rows, "no system_build_incremental entries in fast report"
for r in rows:
    assert r["reused"] * 10 >= r["total"] * 9, (
        f"{r['system']}: incremental rebuild reused only "
        f"{r['reused']}/{r['total']} stored bases (<90%)")
    print(f"{r['system']}: reused {r['reused']}/{r['total']} bases in {r['seconds']:.3f} s")
PY

echo "== chaos smoke: raised events must survive PDC blackouts =="
# The fast-scale report carries one chaos replay per small system; every
# one must report the event still standing after the blackout lifts.
if grep -q '"reraise_after_blackout": false' "$trace_dir/BENCH_fast.json"; then
  echo "chaos replay lost an event across a blackout window"; exit 1
fi
grep -q '"reraise_after_blackout": true' "$trace_dir/BENCH_fast.json" \
  || { echo "chaos replay missing from perfbench report"; exit 1; }

echo "== flight-recorder budget: always-on overhead must stay under 1% =="
grep -q '"recorder_overhead_ok": true' "$trace_dir/BENCH_fast.json" \
  || { echo "flight recorder exceeds the 1% always-on budget"; exit 1; }
if grep -q '"incident_dumps": 0' "$trace_dir/BENCH_fast.json"; then
  echo "a chaos replay produced no incident dump"; exit 1
fi

echo "== bad-data screen budget: clean traffic must pay under 5% =="
grep -q '"robust_overhead_ok": true' "$trace_dir/BENCH_fast.json" \
  || { echo "bad-data screen exceeds the 5% clean-traffic budget"; exit 1; }

echo "== chaos corrupt burst: event survives, excisions bounded by ground truth =="
if grep -q '"corrupt_ok": false' "$trace_dir/BENCH_fast.json"; then
  echo "a chaos replay lost an event to corruption or over-excised"; exit 1
fi
grep -q '"corrupt_ok": true' "$trace_dir/BENCH_fast.json" \
  || { echo "corrupt-burst replay missing from perfbench report"; exit 1; }

echo "== fleet soak smoke: throughput present + exact shed accounting =="
# The perfbench fleet soak publishes samples/sec/core and must account
# its deliberate-overload shedding exactly (typed errors == shed counter
# == arithmetic ground truth).
grep -q '"samples_per_sec_per_core"' "$trace_dir/BENCH_fast.json" \
  || { echo "fleet soak missing from perfbench report"; exit 1; }
grep -q '"shed_ok": true' "$trace_dir/BENCH_fast.json" \
  || { echo "fleet overload shed accounting violated"; exit 1; }

echo "== packed scoring smoke: parity + throughput bench present =="
# detect_throughput pins the packed projector path against the retained
# per-line reference scorer inside the bench itself; any parity_ok:false
# (there or in bundle_io's reload check) is a hard failure.
grep -q '"detect_throughput"' "$trace_dir/BENCH_fast.json" \
  || { echo "detect_throughput bench missing from perfbench report"; exit 1; }
if grep -q '"parity_ok": false' "$trace_dir/BENCH_fast.json"; then
  echo "packed scoring or bundle reload parity violated"; exit 1
fi

echo "tier1 OK"
