"""hopflab benchmark: time the decay/solve pipeline on generated inputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload deep-log1 --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/`` and the load runs in
this one process.  Set-up is importing the program plus one warm-up round
of the workload on the coarse h = 2^-6 grid; numpy and scipy are imported
before it starts.  ``setup_s`` is the median over this process and
SETUP_SAMPLES - 1 fresh processes that only set up (``--setup-only``),
started between rounds across the timed phase.
Then rounds run on the workload's own grid for about ``--seconds`` seconds
(the timed phase).  Every operation is checked outside the timed region,
and deep-log1 and mixed-drift end with one untimed wedge-oracle experiment
on their grid.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics and writes the
spans to ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_ROUNDS = 3   # a traced run needs an untraced and a traced round


def _cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the processors this process may use;
    must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > n:
            os.environ[var] = str(n)


def _import_program():
    """Import hopflab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "hopflab" / "__init__.py").is_file():
        sys.exit(f"error: no hopflab sources under {src}")
    sys.path.insert(0, str(src))
    import hopflab
    if Path(hopflab.__file__).resolve().parent != (src / "hopflab").resolve():
        sys.exit(f"error: hopflab imported from {hopflab.__file__}, "
                 f"not from {src}")
    import tracing
    import workloads
    return tracing, workloads


@dataclass
class Round:
    """Timing and outcome of one pass over a workload's steps."""

    op_s: float = 0.0      # time inside the program, summed over steps
    wall_s: float = 0.0    # including the checks
    ops: int = 0
    ok: int = 0
    layers: Optional[dict] = None   # per-layer self seconds, traced only
    counts: Optional[dict] = None


def run_round(steps, tracer=None, first_traced=False) -> Round:
    rnd = Round()
    start = time.perf_counter()
    outputs = []
    for step in steps:
        t0 = time.perf_counter()
        try:
            out = tracer.step(step.run) if tracer else step.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            print(f"operation failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            out = exc
        rnd.op_s += time.perf_counter() - t0
        outputs.append(out)
    for step, out in zip(steps, outputs):
        rnd.ops += step.n_ops
        if not isinstance(out, Exception):
            rnd.ok += step.check(out)
    rnd.wall_s = time.perf_counter() - start
    if tracer:
        rnd.counts = tracer.round_counts(with_lu_fill=first_traced)
    return rnd


def traced_round(tracer, steps, first_traced) -> Round:
    first = len(tracer.spans)
    with tracer.installed():
        rnd = run_round(steps, tracer, first_traced)
    rnd.layers = tracer.round_layers(first)
    return rnd


def per_op(rnd: Round) -> float:
    return rnd.op_s / rnd.ops


def _set_up_elsewhere(args) -> float:
    """Set-up seconds of a fresh process running this script's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print its seconds and exit")
    args = ap.parse_args(argv)

    _cap_threads()
    # the declared dependencies load before the set-up clock starts: their
    # import time does not depend on the program, and on a shared 2-vCPU VM
    # it swung between 0.3 s and 0.7 s from one run to the next
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    start = time.perf_counter()
    tracing, wl = _import_program()
    if args.workload not in wl.DEPTH:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.DEPTH)}")
    inputs = wl.draw_inputs(args.workload, args.seed)
    warmup = run_round(wl.steps(args.workload, inputs, wl.WARMUP_K,
                                wl.WARMUP_H, []))
    own_setup_s = time.perf_counter() - start
    if args.setup_only:
        print(repr(own_setup_s))
        return 0 if warmup.ok == warmup.ops else 1
    setups = [own_setup_s]
    # the other set-up samples are taken between rounds, spread over the
    # timed phase, so that they see the same machine as the rounds do
    setup_due = ([] if args.trace else
                 [args.seconds * k / SETUP_SAMPLES
                  for k in range(1, SETUP_SAMPLES)])

    K, h = wl.grid(args.workload)
    oracle_errors: list = []
    steps = wl.steps(args.workload, inputs, K, h, oracle_errors)
    tracer = tracing.Tracer() if args.trace else None
    rounds: list = []
    busy = 0.0
    while True:
        if tracer and len(rounds) % 2 == 1:
            rnd = traced_round(tracer, steps, len(rounds) == 1)
        else:
            rnd = run_round(steps)
        rounds.append(rnd)
        busy += rnd.wall_s
        while setup_due and busy >= setup_due[0]:
            setups.append(_set_up_elsewhere(args))
            setup_due.pop(0)
        projected = busy + statistics.median(r.wall_s for r in rounds)
        if len(rounds) >= MIN_ROUNDS and projected > args.seconds:
            break
    setups += [_set_up_elsewhere(args) for _ in setup_due]

    probe = wl.probe_step(inputs, K, h, oracle_errors)
    extra = [run_round([probe])] if probe else []

    everything = [warmup] + rounds + extra
    attempted = sum(r.ops for r in everything)
    failed = attempted - sum(r.ok for r in everything)
    if args.trace:
        metrics = _per_layer(rounds, tracer)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        if any(r.counts != rounds[1].counts
               for r in rounds if r.counts and r is not rounds[1]):
            print("counts differ between traced rounds", file=sys.stderr)
            failed += 1
    else:
        timed_ops = sum(r.ok for r in rounds)
        metrics = {
            "experiment_s": (statistics.median(per_op(r) for r in rounds),
                             "s"),
            "experiments_per_s": (timed_ops / busy, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MiB"),
            "ok_share": ((attempted - failed) / attempted, "share"),
            # no wedge experiment succeeded: count it as total error
            "oracle_rel_err": (max(oracle_errors, default=1.0), "1"),
        }
    print(f"# {args.workload} seed={args.seed} inputs={inputs} K={K} "
          f"h={h!r} rounds={len(rounds)} ops/round={rounds[0].ops} "
          f"setups_s={' '.join(f'{v:.3f}' for v in setups)}")
    print("# seconds per operation, by round: "
          + " ".join(f"{per_op(r):.4g}" for r in rounds))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


def _per_layer(rounds, tracer) -> dict:
    """Per-layer metrics of a traced run.

    Times are per operation, from the traced round whose time per
    operation is the (lower) median, so that they add up to that round's
    ``tracing.experiment_s``; counts are per round."""
    traced = sorted((r for r in rounds if r.layers), key=per_op)
    untraced = [r for r in rounds if not r.layers]
    mid = traced[(len(traced) - 1) // 2]
    metrics = {name: (seconds / mid.ops, "s")
               for name, seconds in mid.layers.items()}
    for name, value in rounds[1].counts.items():
        metrics[name] = (value, "1" if name == "fd_solver.residual"
                         else "count")
    metrics["fd_solver.lu_fill"] = (tracer.lu_fill, "count")
    metrics["tracing.experiment_s"] = (per_op(mid), "s")
    metrics["tracing_overhead"] = (
        statistics.median(per_op(r) for r in traced)
        / statistics.median(per_op(r) for r in untraced) - 1.0, "ratio")
    return dict(sorted(metrics.items()))


if __name__ == "__main__":
    sys.exit(main())
