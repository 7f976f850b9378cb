"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line (pytest -v shows one line per criterion; the
ACCEPT prints appear with -s).

Three sub-criteria encode thresholds that the mathematically-correct
routines measurably do not meet at the pinned parameters; they are
asserted literally and fail with the measured numbers in the message
rather than being loosened:

* contrast_dini_trace_stabilizes: the sqrt-type boundary modulus is still
  ~0.2-0.5 at grid-reachable radii, so the Hopf trace of "power:0.5"
  keeps sliding (~40% over the last four levels, resolution-stable);
  a <5% variation would need heights ~3e-4, i.e. grids ~2^-16.
* damping_product_log1_below_half: sum of delta(8^-j R0/2) over j <= 40
  is ~2.2, so the kappa = 0.1 product bottoms out near 0.80; reaching
  0.5 needs ~1e5 levels.
* recursion_cauchy_log2: gamma_k of the log^2-type modulus decays like
  1/k^2, leaving increments ~4e-3 at horizon 200 for any nonzero drift
  constant; only the drift-free recursion meets 1e-9 there.
"""

import math
import time

import numpy as np
import pytest

from hopflab import barriers as B
from hopflab import convex_geometry as G
from hopflab import decay_analysis as D
from hopflab import elliptic_operator as E
from hopflab import fd_solver as F
from hopflab import modulus as M


def _announce(name, detail=""):
    print(f"ACCEPT {name}: PASS {detail}")


def bc_linear(X1, X2):
    return np.asarray(X2, dtype=float) * np.ones_like(np.asarray(X1, float))


# ----------------------------------------------------------------- 1

def test_acceptance_modulus_suite():
    t0 = time.time()
    assert M.dini_classify(M.preset_modulus("linear"), 40).verdict == M.Verdict.DINI
    assert M.dini_classify(M.preset_modulus("power:0.5"), 40).verdict == M.Verdict.DINI
    assert M.dini_classify(M.preset_modulus("log2"), 40).verdict == M.Verdict.DINI
    assert M.dini_classify(M.preset_modulus("log1"), 40).verdict == M.Verdict.NON_DINI

    closed = {
        "linear": lambda s: s,
        "power:0.5": lambda s: 2.0 * math.sqrt(s),
        "log2": lambda s: 1.0 / (1.0 - math.log(s)),
    }
    for pid, j in closed.items():
        sigma = M.preset_modulus(pid)
        for s in (0.125, 0.5, 1.0):
            assert M.dini_integral(sigma, s) == pytest.approx(j(s), rel=1e-6)
    # independent quadrature at the tolerance double precision supports
    for pid in ("linear", "power:0.5"):
        sigma = M.preset_modulus(pid)
        for s in (0.125, 1.0):
            q = M._improper_quadrature(sigma, s, 1e-7)
            assert q == pytest.approx(closed[pid](s), rel=1e-6)
    rep = M.dini_integral_report(M.preset_modulus("log2"), 1.0)
    assert rep.quadrature_value == pytest.approx(1.0, abs=2e-3)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _announce("modulus-suite", f"({elapsed:.2f}s)")


# ----------------------------------------------------------------- 2

def test_acceptance_sandwich_inequalities():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    violations = 0
    checked = 0
    for trial in range(50):
        dim = 2 if trial % 3 else 3
        k = int(rng.integers(2, 7))
        slopes = np.vstack((np.zeros((1, dim - 1)),
                            rng.normal(0.0, 1.0, size=(k, dim - 1))))
        offsets = np.concatenate(([0.0],
                                  -np.abs(rng.normal(0.0, 0.05, size=k))))
        prof = G.MaxAffineProfile(slopes=slopes, offsets=offsets, R0=0.5,
                                  ambient_dim=dim)
        for r in (prof.R0 / 4.0, prof.R0 / 8.0, prof.R0 / 16.0):
            rep = G.sandwich_check(prof, r)
            checked += 1
            if not rep.both_ok:
                violations += 1
    for pid in ("flat", "cone:0.4", "power:0.5", "power:1", "log1", "log2"):
        prof = G.preset_profile(pid, R0=0.5)
        for r in (prof.R0 / 4.0, prof.R0 / 8.0, prof.R0 / 16.0):
            rep = G.sandwich_check(prof, r)
            checked += 1
            if not rep.both_ok:
                violations += 1
    assert violations == 0, f"{violations} of {checked} checks violated"
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _announce("sandwich-inequalities", f"({checked} checks, {elapsed:.2f}s)")


# ----------------------------------------------------------------- 3

def test_acceptance_barrier_certificates():
    t0 = time.time()
    for nu in (0.25, 0.5, 1.0):
        for n in (2, 3):
            rep = B.cylinder_barrier_certificate(nu, n, samples=10000,
                                                 seed=11)
            assert rep.bracket_max <= 1e-12, (nu, n, rep.bracket_max)
    for nu in (0.25, 0.5, 1.0):
        for n in (2, 3):
            good = B.radial_exponent_certificate(n / nu**2, nu, n,
                                                 samples=2000, seed=12)
            assert good.passed
            assert good.margin == pytest.approx(2.0 * nu)
            s_low = n / nu**2 - 3.0
            if s_low <= 0.0:
                continue  # exponent must stay positive
            bad = B.radial_exponent_certificate(s_low, nu, n,
                                                samples=2000, seed=12)
            assert not bad.passed, (nu, n)
            assert bad.worst_matrix is not None
            # the witness realizes the extreme spectrum alignment
            eigs = np.sort(np.linalg.eigvalsh(bad.worst_matrix))
            assert eigs[0] == pytest.approx(nu, abs=1e-9)
            assert eigs[-1] == pytest.approx(1.0 / nu, abs=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    _announce("barrier-certificates", f"({elapsed:.2f}s)")


# ----------------------------------------------------------------- 4

def test_acceptance_drift_correction_exact():
    rng = np.random.default_rng(77)
    for _ in range(10000):
        n = int(rng.choice([2, 3, 5]))
        b = rng.normal(0.0, 2.0, size=n)
        g = rng.normal(0.0, 1.0, size=n)
        eps = float(rng.uniform(0.1, 3.0))
        bt = E.truncate_drift(b, eps)
        be = E.correct_drift(bt, b, g)
        assert abs(be @ g) <= abs(b @ g)
        assert np.all(np.abs(be) <= np.abs(bt) + 1e-15)
    _announce("drift-correction-exact", "(10000 triples)")


def test_acceptance_approximation_converges():
    op = E.preset_operator("checker:0.25")
    h = 2.0**-6
    xs = np.arange(-0.5, 0.5 + h / 2, h)
    ys = np.arange(0.0, 0.5 + h / 2, h)
    X1, X2 = np.meshgrid(xs, ys, indexing="ij")
    grad = (math.pi * np.cos(math.pi * X1) * np.cos(math.pi * X2),
            -math.pi * np.sin(math.pi * X1) * np.sin(math.pi * X2))
    hess = (-math.pi**2 * np.sin(math.pi * X1) * np.cos(math.pi * X2),
            -math.pi**2 * np.cos(math.pi * X1) * np.sin(math.pi * X2),
            -math.pi**2 * np.sin(math.pi * X1) * np.cos(math.pi * X2))
    norms = []
    for m in range(1, 9):
        pair = E.approximate(op, 2.0**-m, box=(-0.5, 0.5, 0.0, 0.5))
        a11, a22, a12 = op.a_grid(X1, X2)
        e11, e22, e12 = pair.a_eps(X1, X2)
        diff = (-(a11 - e11) * hess[0] - (a22 - e22) * hess[2]
                - 2.0 * (a12 - e12) * hess[1])
        norms.append(E.local_norm(diff, h))
    norms = np.asarray(norms)
    assert np.all(norms[1:] <= norms[:-1] * 1.01), norms
    _announce("approximation-converges",
              f"(norms {norms[0]:.3f} -> {norms[-1]:.3f})")


# ----------------------------------------------------------------- 5

def test_acceptance_solver_validation():
    t0 = time.time()
    uex = lambda X1, X2: (np.sin(math.pi * np.asarray(X1))
                          * np.sinh(math.pi * np.asarray(X2))
                          / math.sinh(math.pi))
    prof = G.preset_profile("flat", R0=1.0)
    rep = F.convergence_study(E.preset_operator("laplace"), prof, uex,
                              [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8],
                              exact=uex)
    assert rep.observed_order >= 1.8, rep
    for op_id in ("laplace", "aniso:0.5,2", "checker:0.25", "drift:2.0"):
        dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5),
                                     2.0**-6)
        sol = F.solve(F.discretize(E.preset_operator(op_id), dom, bc_linear))
        assert sol.vec.min() >= -1e-12, op_id
        assert sol.vec.max() <= 0.5 + 1e-12, op_id
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _announce("solver-validation",
              f"(order {rep.observed_order:.2f}, {elapsed:.1f}s)")


# ----------------------------------------------------------------- 6

def test_acceptance_wedge_oracle():
    t0 = time.time()
    theta = 2.0 * math.pi / 3.0
    cfg = D.HopfExperiment(profile=f"wedge:{theta}", R0=0.5, K=4,
                           h=2.0**-8, bc="sector")
    rep = D.run_experiment(cfg)
    heights = rep.trace_heights[-4:]
    trace = rep.trace[-4:]
    slope = float(np.polyfit(np.log(heights), np.log(trace), 1)[0])
    target = math.pi / theta - 1.0
    assert abs(slope - target) <= 0.1 * target, \
        f"fitted exponent {slope:.4f} vs {target}"
    assert rep.verdict == D.HopfVerdict.DEGENERATES
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _announce("wedge-oracle", f"(exponent {slope:.4f}, {elapsed:.1f}s)")


# ----------------------------------------------------------------- 7, 8

@pytest.fixture(scope="module")
def contrast_runs():
    runs = {}
    for prof in ("log1", "power:0.5"):
        for h in (2.0**-9, 2.0**-10):
            cfg = D.HopfExperiment(profile=prof, operator="laplace",
                                   R0=0.5, K=4, h=h, bc="linear")
            runs[(prof, h)] = D.run_experiment(cfg)
    return runs


def test_acceptance_contrast_nondini_trace_degenerates(contrast_runs):
    t0 = time.time()
    rep = contrast_runs[("log1", 2.0**-9)]
    tail = np.asarray(rep.trace[-4:])
    assert np.all(np.diff(tail) < 0.0), f"trace not strictly decreasing: {tail}"
    decrease = (tail[0] - tail[-1]) / tail[0]
    assert decrease >= 0.10, f"total decrease {decrease:.3f} below 10%"
    assert rep.verdict == D.HopfVerdict.DEGENERATES
    fine = contrast_runs[("log1", 2.0**-10)]
    assert fine.verdict == rep.verdict, "verdict unstable under h -> h/2"
    _announce("contrast-nondini-degenerates",
              f"(decrease {decrease:.1%}, {time.time() - t0:.1f}s)")


def test_acceptance_contrast_dini_trace_stabilizes(contrast_runs):
    # stated gate: relative variation < 5% over the last four levels and
    # verdict HopfHolds; measured: the sqrt-modulus boundary still moves
    # the trace by ~40% at these radii (resolution-stable), see module
    # docstring
    rep = contrast_runs[("power:0.5", 2.0**-9)]
    fine = contrast_runs[("power:0.5", 2.0**-10)]
    assert fine.verdict == rep.verdict, "verdict unstable under h -> h/2"
    tail = np.asarray(rep.trace[-4:])
    rel_var = float((tail.max() - tail.min()) / tail.max())
    assert rel_var < 0.05, (
        f"measured trace variation {rel_var:.1%} over the last 4 levels "
        f"(trace {np.round(tail, 5).tolist()}), resolution-stable at h/2; "
        f"the 5% stabilization gate is unreachable while delta(r)=sqrt(r) "
        f"is O(0.1) at grid-reachable radii")
    assert rep.verdict == D.HopfVerdict.HOLDS
    _announce("contrast-dini-stabilizes", f"(variation {rel_var:.1%})")


def test_acceptance_decay_estimate_regression(contrast_runs):
    rep = contrast_runs[("log1", 2.0**-9)]
    pairs = rep.usable_pairs()
    assert len(pairs) >= 2
    k0, k3 = pairs[0]  # coarsest factor-8 pair fixes kappa
    kappa = (1.0 - rep.osc[k3] / rep.osc[k0]) / rep.deltas[k0]
    assert 0.0 < kappa < 1.0, f"fitted kappa {kappa:.4f} outside (0, 1)"
    for k, kk in pairs[1:]:
        lhs = rep.osc[kk]
        rhs = (1.0 - kappa * rep.deltas[k]) * rep.osc[k]
        assert lhs <= rhs + 1e-12, \
            f"level pair ({k},{kk}): {lhs:.6f} > {rhs:.6f} with kappa {kappa:.4f}"
    _announce("decay-estimate-regression", f"(kappa {kappa:.4f})")


# ----------------------------------------------------------------- 9

def test_acceptance_damping_product_log2_levels_off():
    prof = G.preset_profile("log2", R0=0.5)
    rep = D.product_bound(lambda r: G.delta(prof, r), 0.1, 0.5, 40)
    assert rep.partials[-1] >= rep.limit_estimate - 1e-3, \
        f"partial {rep.partials[-1]:.6f} below limit {rep.limit_estimate:.6f} - 1e-3"
    _announce("damping-product-log2",
              f"(partial {rep.partials[-1]:.4f} vs limit {rep.limit_estimate:.4f})")


def test_acceptance_damping_product_log1_below_half():
    # stated gate: the kappa = 0.1 product falls below 0.5 by level 40;
    # measured: sum of delta(8^-j R0/2) over 41 levels is ~2.24, so the
    # product bottoms out near exp(-0.1 * 2.24) ~ 0.80 (0.5 needs ~1e5
    # levels); asserted literally, see module docstring
    prof = G.preset_profile("log1", R0=0.5)
    rep = D.product_bound(lambda r: G.delta(prof, r), 0.1, 0.5, 40)
    partials = np.asarray(rep.partials)
    assert np.all(np.diff(partials) < 0.0)  # strict divergence signature
    assert rep.partials[-1] < 0.5, (
        f"partial product at level 40 is {rep.partials[-1]:.4f} "
        f"(delta sum {rep.delta_sum:.3f}, kappa 0.1): the 0.5 threshold "
        f"needs ~1e5 levels for a 1/ln modulus")
    _announce("damping-product-log1", f"(partial {rep.partials[-1]:.4f})")


# ----------------------------------------------------------------- 10

def test_acceptance_recursion_sum_integral_band():
    for pid in ("linear", "power:0.5", "log2"):
        rep = D.growth_recursion_bound(M.preset_modulus(pid), 1.0, 1.0,
                                       0.5, k0=30, rho_ratio=2.0**-10)
        assert 0.4 <= rep.sum_to_integral <= 2.5, \
            (pid, rep.sum_to_integral)
        assert math.isfinite(rep.pi_value)
    _announce("recursion-sum-integral-band")


def test_acceptance_recursion_cauchy_by_200():
    # stated gate: product increments below 1e-9 at horizon 200 for every
    # summable-modulus preset with a unit drift constant; measured: the
    # log^2 modulus has gamma_k ~ 1/k^2 and increment ~4e-3 there (the
    # product still converges: the tail bound shrinks like 1/horizon);
    # asserted literally, see module docstring
    increments = {}
    for pid in ("linear", "power:0.5", "log2"):
        rep = D.growth_recursion_bound(M.preset_modulus(pid), 1.0, 1.0,
                                       0.5, k0=30, rho_ratio=2.0**-10,
                                       horizon=200)
        increments[pid] = rep.pi_increment_at_horizon
    assert increments["linear"] <= 1e-9
    assert increments["power:0.5"] <= 1e-9
    assert increments["log2"] <= 1e-9, (
        f"increment at horizon 200 is {increments['log2']:.2e} for the "
        f"log^2 modulus with unit drift constant; gamma_k ~ 1/k^2 cannot "
        f"reach 1e-9 by k=200 for any drift constant above ~1e-6")
    _announce("recursion-cauchy", f"({increments})")
