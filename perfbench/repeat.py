"""Repeatability check: two separate sets of runs per workload must agree.

    python3 perfbench/repeat.py [--runs N] [--workload NAME ...]

Runs the command of BENCHMARK.json N times per set (default 5, seeds
1..N for the first set and N+1..2N for the second), with the run length
it names and tracing off.  For every workload and end-to-end metric it
prints both medians, the spread of each set (distance between the first
and third quartile as a share of the median) and the spread of all 2N
runs.  A metric agrees when the second median is worse than the first by at
most the metric's bound (a share of the first median) and, except for
setup_s, each set's spread is within the bound.  The share of failed
operations must be identical in the two sets.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = []
        for first_seed in (1, args.runs + 1):
            sets.append([run_once(spec["command"], workload, seed, spec["run_seconds"])
                         for seed in range(first_seed, first_seed + args.runs)])
        shares = [{(r["failed"], r["attempted"]) for r in s} for s in sets]
        fail_share = {f / a for s in shares for f, a in s}
        correct = all(r["correct"] for s in sets for r in s)
        print(f"{workload}: correct {correct}, failed/attempted {sorted(shares[0] | shares[1])}")
        ok &= correct and len(fail_share) == 1
        print(f"  {'metric':<14}{'median 1':>12}{'median 2':>12}{'spread 1':>10}{'spread 2':>10}"
              f"{'spread all':>11}{'bound':>7}  agree")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            m1, m2 = (statistics.median(v) for v in values)
            s1, s2 = (spread(v) for v in values)
            worse = m2 - m1 if metric["better"] == "lower" else m1 - m2
            agree = worse <= bound * m1 and (name == "setup_s" or max(s1, s2) <= bound)
            ok &= agree
            print(f"  {name:<14}{m1:>12.5g}{m2:>12.5g}{s1:>10.3f}{s2:>10.3f}"
                  f"{spread(values[0] + values[1]):>11.3f}{bound:>7.2f}  {'yes' if agree else 'NO'}")
    print("repeatable" if ok else "NOT repeatable")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
