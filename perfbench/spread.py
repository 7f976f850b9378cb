"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workload mixed-drift --seeds 1-10 --seconds 30

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance between
the quartiles as a share of the median, which is the run-to-run spread that
the bounds in BENCHMARK.json are set against.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range such as 1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: wall {time.perf_counter() - start:.1f} s "
              f"correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for line in lines:
            if line.startswith("#"):
                print("  " + line, flush=True)
    print(f"{args.workload}: {len(runs)} runs, "
          f"{sum(r['failed'] for r in runs)} failed operations")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
