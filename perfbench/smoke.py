"""Smoke test of the benchmark itself; takes a few minutes.

Usage, from the root of a source checkout:

    python3 perfbench/smoke.py

For every workload it makes two short traced runs and one short untraced
run, and asserts that

* every run is correct and reports every metric BENCHMARK.json names;
* the counts of the two traced runs repeat exactly;
* the per-layer self times add up to the traced time per operation
  within 0.1%, and the time no layer claims stays under 2% of it;
* deep-log1 reproduces the baseline counts 334,341 unknowns,
  nnz(A) = 1,668,637 and nnz(L+U) = 48,649,600.

It also runs the benchmark in a directory holding only BENCHMARK.json and
the benchmark's files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEEP_LOG1_BASELINE = {"fd_solver.unknowns": 334_341,
                      "fd_solver.nnz": 1_668_637,
                      "fd_solver.lu_fill": 48_649_600}


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, (workload, out)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    missing = {m["name"] for m in wanted} - set(out["metrics"])
    assert not missing, (workload, missing)
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], (workload, m)
    return out["metrics"]


def check_traced(workload: str) -> None:
    first, second = result(workload, 1), result(workload, 1)
    counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
    again = {k: v["value"] for k, v in second.items() if v["unit"] == "count"}
    assert counts == again, (workload, counts, again)
    for metrics in (first, second):
        total = metrics["tracing.experiment_s"]["value"]
        parts = sum(v["value"] for k, v in metrics.items()
                    if k.endswith("_s") and k != "tracing.experiment_s")
        # the gap is the root span's own bookkeeping, a few microseconds
        assert abs(parts - total) <= 1e-3 * total, (workload, parts, total)
        glue = metrics["tracing.unattributed_s"]["value"]
        assert glue < 0.02 * total, (workload, glue, total)
    if workload == "deep-log1":
        got = {k: counts[k] for k in DEEP_LOG1_BASELINE}
        assert got == DEEP_LOG1_BASELINE, got
    print(f"{workload}: traced counts repeat: {counts}")


def check_bare_directory() -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    print("without the program's sources: exit", proc.returncode)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_traced(workload)
        result(workload, 0)
        print(f"{workload}: untraced run reports every end-to-end metric")
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
