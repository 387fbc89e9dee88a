"""Steadiness check: ``python3 perfbench/steady.py --workload W [--runs N]``.

Runs the workload as two sets of N runs (each run with its own seed,
the second set on seeds after the first) and prints, for each
end-to-end metric, each set's median and quartiles, the spread (the
distance between the quartiles as a share of the median), and whether
the two sets agree within the metric's bound in ``BENCHMARK.json``:
both spreads within the bound and the two medians apart by no more
than the bound, in either direction.  It also
compares the share of failed operations of the two sets, which must be
exactly equal.  Run from the repository root; exits 1 if any check
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets: List[List[Dict[str, object]]] = []
    for k in range(2):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            result = one_run(args.workload, seed, spec["run_seconds"])
            print(f"set {k + 1} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            runs.append(result)
        sets.append(runs)
    ok = all(r["correct"] for runs in sets for r in runs)
    shares = [Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
              for runs in sets]
    share_ok = len({Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}) == 1
    ok &= share_ok
    print(f"\nworkload {args.workload}: failed share {float(shares[0]):.6f} / "
          f"{float(shares[1]):.6f} ({'equal in every run' if share_ok else 'DIFFERS'})")
    print(f"{'metric':<16} {'bound':>6} {'median 1':>11} {'q1..q3 1':>23} {'spread 1':>9} "
          f"{'median 2':>11} {'spread 2':>9} {'drift':>7}  agree")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first, second = (summary([float(r["metrics"][name]["value"]) for r in runs]) for runs in sets)
        drift = (second["median"] - first["median"]) / first["median"]
        agree = abs(drift) <= bound and first["spread"] <= bound and second["spread"] <= bound
        ok &= agree
        print(f"{name:<16} {bound:>6.2f} {first['median']:>11.4f} "
              f"{first['q1']:>11.4f}..{first['q3']:<11.4f} {first['spread']:>9.3f} "
              f"{second['median']:>11.4f} {second['spread']:>9.3f} {drift:>+7.3f}  "
              f"{'yes' if agree else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
