#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report each
end-to-end metric's median, quartiles and spread against its bound.

Usage (from the repository root):

    python3 e2ebench/steady.py [--runs 10] [--sets 1] [--seed 100]
                               [--workloads stream-118,chaos-fleet]
                               [--out results.json]

Each round runs every workload once, with a fresh seed, alternating the
workload order between rounds. The spread is (Q3 - Q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`. A metric passes when its
spread is within its bound from BENCHMARK.json (`setup_s` is reported but
exempt); the target for a steady benchmark is a third of the bound. With
`--sets 2` the rounds repeat with the same seeds and each metric's second
median is compared with the first. Exit code 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]

    sets = []
    for s in range(args.sets):
        results = {w: [] for w in workloads}
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                m = run_once(w, args.seed + r, seconds)
                results[w].append(m)
                print(f"set {s + 1} run {r + 1} {w}: " +
                      ", ".join(f"{k}={v:.4g}" for k, v in m.items()), flush=True)
        sets.append(results)

    failed = False
    for w in workloads:
        print(f"\n{w}: {args.runs} runs per set")
        print(f"  {'metric':18s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'2nd/1st':>8s}  verdict")
        for name, bound in bounds.items():
            vals = [m[name] for m in sets[0][w]]
            q1, med, q3, sp = spread(vals)
            verdict = []
            if name != "setup_s":
                verdict.append("ok" if sp <= bound else "TOO NOISY")
                if sp > bound / 3:
                    verdict.append("(above a third of bound)")
            drift = ""
            if len(sets) > 1:
                med2 = statistics.median(m[name] for m in sets[1][w])
                drift = f"{med2 / med:.3f}" if med else "-"
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                worse = (med - med2) / med if better == "higher" else (med2 - med) / med
                if med and worse > bound:
                    verdict.append("SECOND SET WORSE")
            failed |= any(v in ("TOO NOISY", "SECOND SET WORSE") for v in verdict)
            print(f"  {name:18s} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f} {bound:6.3f} "
                  f"{drift:>8s}  {' '.join(verdict)}")
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
