"""Workloads of the hopflab benchmark: generated inputs, steps and checks.

A workload is a fixed list of steps.  One pass over the list is a round;
the benchmark repeats rounds for the run's length.  A step is one call
into the program covering ``n_ops`` operations, where an operation is one
experiment: build the domain, assemble, solve, extract oscillations and
trace, plus that experiment's 1-D post-processing.  Each step has a check,
run outside the timed region, that returns how many of its operations are
correct.

Only the parameters drawn from the seed reach the program.  Why each
workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hopflab import convex_geometry as geo
from hopflab import decay_analysis as da
from hopflab import elliptic_operator as eo
from hopflab import fd_solver as fds
from hopflab.modulus import Verdict

R0 = 0.5
WARMUP_H, WARMUP_K = 2.0**-6, 2   # smallest grid holding 8 cells at r_K

# analytic Dini class of each profile preset
DINI_CLASS = {"log1": Verdict.NON_DINI, "log2": Verdict.DINI,
              "flat": Verdict.DINI, "power": Verdict.DINI,
              "cone": Verdict.NON_DINI, "wedge": Verdict.NON_DINI}

RESIDUAL_TOL = 1e-8
# x2 is a discrete supersolution for every operator here (b2 >= 0 on
# |x1| <= R0), so the comparison principle caps u(0, r)/r at 1
TRACE_CAP = 1.0 + 1e-9
# u(0, r)/r against r^(pi/theta - 1); about 2e-4..5e-4 at 8 cells per r_K
ORACLE_TOL = 2e-3
COMMON_KAPPA, PRODUCT_LEVELS = 0.1, 40   # as contrast_suite uses them

# dyadic depth K of each workload; why each was chosen is in BENCHMARK.json
DEPTH = {"deep-log1": 6, "contrast-sweep": 4, "mixed-drift": 5}


@dataclass
class Step:
    n_ops: int
    run: Callable[[], object]
    check: Callable[[object], int]


def _kind(profile: str) -> str:
    return profile.partition(":")[0]


def oracle_error(rep) -> float:
    """Max relative deviation of a wedge trace from r^(pi/theta - 1)."""
    theta = float(rep.config.profile.partition(":")[2])
    exact = np.asarray(rep.trace_heights) ** (math.pi / theta - 1.0)
    return float(np.max(np.abs(np.asarray(rep.trace) / exact - 1.0)))


def report_ok(rep, oracle_errors: list) -> bool:
    """Checks on one DecayReport; wedge errors are appended to the list."""
    cfg = rep.config
    ok = (rep.residual <= RESIDUAL_TOL
          and rep.dini_verdict == DINI_CLASS[_kind(cfg.profile)]
          and all(np.isfinite(rep.osc)))
    if cfg.bc == "linear":
        ok = ok and all(0.0 < t <= TRACE_CAP for t in rep.trace)
    else:
        err = oracle_error(rep)
        oracle_errors.append(err)
        ok = ok and err <= ORACLE_TOL
    return bool(ok)


def _classify(profile: str):
    """The numeric Dini classification of the profile's boundary modulus,
    as a run record reports it next to the preset flag; None without one."""
    sigma, _ = geo.boundary_modulus(geo.preset_profile(profile, R0=R0))
    return da.dini_classify(sigma) if sigma is not None else None


def _classified_ok(profile: str, dv) -> bool:
    return dv is None or dv.verdict == DINI_CLASS[_kind(profile)]


def experiment_step(profile: str, K: int, h: float, bc: str,
                    oracle_errors: list, product: bool = False) -> Step:
    """``run_experiment`` on one preset, its Dini classification and, for
    the contrast path, its damping product."""
    cfg = da.HopfExperiment(profile=profile, operator="laplace", R0=R0, K=K,
                            h=h, bc=bc)

    def run():
        rep = da.run_experiment(cfg)
        dv = _classify(profile)
        partials = None
        if product:
            prof = geo.preset_profile(profile, R0=R0)
            partials = da.product_bound(lambda r: geo.delta(prof, r),
                                        COMMON_KAPPA, R0,
                                        PRODUCT_LEVELS).partials
        return rep, dv, partials

    def check(out) -> int:
        rep, dv, partials = out
        ok = report_ok(rep, oracle_errors) and _classified_ok(profile, dv)
        if partials is not None:
            ok = ok and all(0.0 < p <= 1.0 for p in partials)
        return int(ok)

    return Step(1, run, check)


@contextmanager
def _captured_experiments(reports: list):
    """Collect the DecayReport of every ``run_experiment`` call made
    through the module attribute, so suite results can be checked."""
    inner = da.run_experiment

    def capture(cfg):
        rep = inner(cfg)
        reports.append(rep)
        return rep

    da.run_experiment = capture
    try:
        yield
    finally:
        da.run_experiment = inner


def contrast_step(profiles: list, K: int, h: float,
                  oracle_errors: list) -> Step:
    """``contrast_suite`` as ``hopflab decay --contrast`` runs it, plus the
    numeric Dini classification of each profile's modulus."""
    cfg = da.HopfExperiment(profile=profiles[0], operator="laplace", R0=R0,
                            K=K, h=h, bc="linear")

    def run():
        reports: list = []
        with _captured_experiments(reports):
            suite = da.contrast_suite(profiles, "laplace", cfg)
        classified = [_classify(p) for p in profiles]
        return suite, reports, classified

    def check(out) -> int:
        suite, reports, classified = out
        if not suite.consistency_ok or len(reports) != len(profiles):
            return 0
        ok = 0
        for row, rep, dv in zip(suite.rows, reports, classified):
            p = row["profile"]
            ok += int(row["dini"] == str(DINI_CLASS[_kind(p)])
                      and rep.config.profile == p
                      and report_ok(rep, oracle_errors)
                      and _classified_ok(p, dv))
        return ok

    return Step(len(profiles), run, check)


def mixed_operator(a12: float, drift: float) -> eo.EllipticOperator:
    """Constant a11 = a22 = 1 and a12, with the ``drift:<s>`` field."""
    b_grid = eo.preset_operator(f"drift:{drift!r}").b_grid

    def a_grid(X1, X2):
        ones = np.ones(np.broadcast(X1, X2).shape)
        return ones, ones.copy(), np.full(ones.shape, a12)

    nu = min(1.0 - abs(a12), 1.0 / (1.0 + abs(a12)))
    return eo.EllipticOperator(nu=nu, a_grid=a_grid, b_grid=b_grid,
                               params={"a12": a12, "drift": drift})


def solve_path_step(profile: str, a12: float, drift: float, K: int,
                    h: float) -> Step:
    """DiscreteDomain.build -> discretize -> solve -> oscillation and
    hopf_trace on r_k, then delta(r_k/2) and the Dini classification."""
    radii = [2.0**-k * R0 for k in range(K + 1)]
    heights = [round(r / h) * h for r in radii]

    def run():
        prof = geo.preset_profile(profile, R0=R0)
        op = mixed_operator(a12, drift)
        dom = fds.DiscreteDomain.build(prof, h)
        system = fds.discretize(op, dom, da.boundary_data("linear", prof))
        sol = fds.solve(system)
        osc = [fds.oscillation(sol, prof, r) for r in radii]
        trace = fds.hopf_trace(sol, heights)
        deltas = [geo.delta(prof, r / 2.0) for r in radii]
        return system, sol, osc, trace, deltas, _classify(profile)

    def check(out) -> int:
        system, sol, osc, trace, deltas, dv = out
        report = system.m_matrix_report()
        ok = (sol.residual_norm <= RESIDUAL_TOL
              and report["offdiag_ok"] and report["rowsum_ok"]
              and all(0.0 < t <= TRACE_CAP for t in trace)
              and all(np.isfinite(osc)) and all(d >= 0.0 for d in deltas)
              and _classified_ok(profile, dv))
        return int(ok)

    return Step(1, run, check)


def draw_inputs(workload: str, seed: int) -> dict:
    """Seed-drawn parameters.  The ranges are narrow on purpose: a wider
    wedge angle or cone slope changes the unknown count and the oracle
    error enough to swamp run-to-run noise across seeds."""
    rng = np.random.default_rng(seed)
    if workload == "contrast-sweep":
        return {"alpha": round(float(rng.uniform(0.4, 0.6)), 4),
                "c": round(float(rng.uniform(0.3, 0.5)), 4),
                "theta": round(math.pi * float(rng.uniform(0.66, 0.67)), 6)}
    inputs = {"probe_theta": round(
        math.pi * float(rng.uniform(0.559, 0.561)), 6)}
    if workload == "mixed-drift":
        for profile in ("log1", "power:0.5"):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            inputs[profile] = (round(sign * float(rng.uniform(0.3, 0.5)), 4),
                               round(float(rng.uniform(0.5, 2.0)), 4))
    return inputs


def grid(workload: str) -> tuple:
    """(K, h) of the workload: 8 cells across the smallest cylinder."""
    K = DEPTH[workload]
    return K, 2.0**-K * R0 / 8.0


def steps(workload: str, inputs: dict, K: int, h: float,
          oracle_errors: list) -> list:
    """The steps of one round of ``workload`` on the (K, h) grid."""
    if workload == "deep-log1":
        return [experiment_step("log1", K, h, "linear", oracle_errors)]
    if workload == "contrast-sweep":
        profiles = ["log1", "log2", "flat", f"power:{inputs['alpha']!r}",
                    f"cone:{inputs['c']!r}"]
        return [contrast_step(profiles, K, h, oracle_errors),
                experiment_step(f"wedge:{inputs['theta']!r}", K, h, "sector",
                                oracle_errors, product=True)]
    if workload == "mixed-drift":
        return [solve_path_step(p, *inputs[p], K, h)
                for p in ("log1", "power:0.5")]
    raise ValueError(f"unknown workload {workload!r}")


def probe_step(inputs: dict, K: int, h: float, oracle_errors: list):
    """Untimed wedge-oracle experiment on the workload's own grid, for
    workloads whose rounds hold no wedge; None for the others."""
    if "probe_theta" not in inputs:
        return None
    return experiment_step(f"wedge:{inputs['probe_theta']!r}", K, h,
                           "sector", oracle_errors)
