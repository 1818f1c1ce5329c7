"""Steadiness mode: run one workload N times with seeds 1..N and print, for
each end-to-end metric, the median, the quartiles and the spread
(interquartile range over the median) against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload collective --runs 10 [--seconds 50]

A spread below a third of the bound is marked "ok"; within the bound,
"wide"; beyond it, "OVER". Each run is a separate process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in range(1, args.runs + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr, flush=True)

    print(f"{args.workload}: {len(results)} runs of {args.seconds}s, seeds 1..{args.runs}")
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        if None in values:
            print(f"{m['name']:24s} missing in {values.count(None)} runs")
            continue
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        mark = "ok" if spread < bound / 3 else "wide" if spread <= bound else "OVER"
        print(f"{m['name']:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6} {mark}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed/attempted shares: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
