"""Steadiness check: run workloads repeatedly and report each
end-to-end metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--seconds S]

Each run is a separate process with its own ``--seed`` (1..runs).  The
spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and
is printed beside the bound ``BENCHMARK.json`` fixes for the metric;
a spread above a third of its bound is flagged, for every metric.  The
share of failed operations must be identical in every run.  Runs go one
at a time, and each prints its wall time.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("fingerprint"):
            print(f"  seed {seed}: {line}; wall {time.monotonic() - started:.1f} s")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}: {args.runs} runs of {args.seconds:g} s", flush=True)
        results = [run_once(workload, seed, args.seconds)
                   for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"  correct in every run: {correct}; failed shares: {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            steady &= not flag
            print(f"  {name:<18} median {median:>10.4f}  q1 {q1:>10.4f}  q3 {q3:>10.4f}  "
                  f"spread {spread:6.1%}  bound {bound:.0%} ({spread / bound:.2f} of it){flag}", flush=True)
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
