import math

import numpy as np
import pytest

from hopflab import modulus as M
from helpers import check_invariants, regularize, verify_relations


# ---------------------------------------------------------------- oracles

def suffix_max_regularized(sigma, grid):
    """Dense suffix-maximum oracle for t * sup_{tau in [t,1]} sigma(tau)/tau."""
    dense = np.geomspace(grid.min(), 1.0, 20000)
    ratio = sigma(dense) / dense
    suffix = np.maximum.accumulate(ratio[::-1])[::-1]
    out = []
    for t in grid:
        k = np.searchsorted(dense, t, side="left")
        out.append(t * suffix[min(k, dense.size - 1)])
    return np.asarray(out)


GOOD_PRESETS = ["linear", "power:0.5", "power:0.25", "log1"]  # ratio-monotone
ALL_PRESETS = GOOD_PRESETS + ["log2"]


# ---------------------------------------------------------------- preset ids

GRAMMAR = {"bare": (), "one": (None,), "two": (None, None), "opt": (0.25,)}


@pytest.mark.parametrize("spec, expected", [
    ("bare", ("bare", ())),
    ("one:0.5", ("one", (0.5,))),
    ("two:1,2e-3", ("two", (1.0, 2e-3))),
    ("opt", ("opt", (0.25,))),
    ("opt:3", ("opt", (3.0,))),
])
def test_preset_args_fills_defaults(spec, expected):
    assert M._preset_args(spec, "demo", GRAMMAR) == expected


@pytest.mark.parametrize("spec", ["bare:1", "one", "two:1", "two:1,2,3",
                                  "opt:1,2"])
def test_preset_args_refuses_argument_count(spec):
    with pytest.raises(ValueError, match=f"demo preset '{spec}' takes"):
        M._preset_args(spec, "demo", GRAMMAR)


def test_preset_args_unknown_name_message():
    with pytest.raises(ValueError) as err:
        M._preset_args("nosuch:1", "demo", GRAMMAR)
    assert str(err.value) == "unknown demo preset 'nosuch:1'"


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("pid", ALL_PRESETS)
def test_preset_endpoints_and_monotonicity(pid):
    sigma = M.preset_modulus(pid)
    assert abs(sigma(0.0)) <= 1e-12
    assert abs(sigma(1.0) - 1.0) <= 1e-12
    rep = check_invariants(sigma)
    assert rep.endpoints_ok
    assert rep.monotone_ok


@pytest.mark.parametrize("pid", GOOD_PRESETS)
def test_ratio_monotone_presets(pid):
    assert check_invariants(M.preset_modulus(pid)).ratio_monotone_ok


def test_log2_scalar_calls_match_array_call():
    sigma = M.preset_modulus("log2")
    t = np.geomspace(1e-12, 1.0, 400)
    scalar = np.array([sigma(float(x)) for x in t])
    assert np.array_equal(scalar, sigma(t))


def test_log2_ratio_rises_near_one():
    # 1/ln(e/t)^2 has sigma(t)/t increasing again on [1/e, 1]; the
    # regularized majorant restores the ratio monotonicity
    sigma = M.preset_modulus("log2")
    assert not check_invariants(sigma).ratio_monotone_ok
    assert sigma.ratio(0.5) < sigma.ratio(1.0)
    reg = regularize(sigma)
    assert check_invariants(reg).ratio_monotone_ok


# ---------------------------------------------------------------- regularize

def test_regularize_linear_fixed_point():
    reg = regularize(lambda t: np.asarray(t, dtype=float))
    grid = np.geomspace(1e-10, 1.0, 64)
    np.testing.assert_allclose(reg(grid), grid, rtol=0, atol=1e-14)


def test_regularize_square_becomes_linear():
    raw = lambda t: np.asarray(t, dtype=float) ** 2
    reg = regularize(raw)
    grid = np.geomspace(1e-10, 1.0, 64)
    oracle = suffix_max_regularized(lambda t: np.asarray(t) ** 2.0, grid)
    np.testing.assert_allclose(reg(grid), grid, atol=1e-12)
    np.testing.assert_allclose(reg(grid), oracle, rtol=1e-6)


def test_regularize_sqrt_fixed_point():
    raw = lambda t: np.sqrt(np.asarray(t, dtype=float))
    reg = regularize(raw)
    grid = np.geomspace(1e-10, 1.0, 64)
    np.testing.assert_allclose(reg(grid), np.sqrt(grid), rtol=1e-12)


def test_regularize_majorizes_and_idempotent():
    raw = lambda t: np.asarray(t, dtype=float) ** 2
    reg = regularize(raw)
    grid = np.geomspace(1e-12, 1.0, 300)
    assert np.all(reg(grid) >= raw(grid) - 1e-14)
    reg2 = regularize(reg)
    np.testing.assert_allclose(reg2(grid), reg(grid), rtol=1e-10)


def test_regularize_rejects_bad_input():
    with pytest.raises(ValueError, match=r"need sigma\(0\) = 0 and "
                                         r"sigma\(1\) = 1"):
        regularize(lambda t: 2.0 * np.asarray(t, dtype=float))
    with pytest.raises(ValueError,
                       match="sigma decreases on the evaluation grid"):
        regularize(lambda t: np.where(np.asarray(t) < 0.5,
                                      np.asarray(t, dtype=float),
                                      np.asarray(t, dtype=float) ** 4))


# ---------------------------------------------------------------- integral

def test_dini_integral_linear():
    assert M.dini_integral(M.preset_modulus("linear"), 0.5) == 0.5


def test_dini_integral_power_closed_form():
    # antiderivative s^alpha/alpha
    assert M.dini_integral(M.preset_modulus("power:0.5"), 1.0) == 2.0
    q = M._improper_quadrature(M.preset_modulus("power:0.5"), 1.0, 1e-9)
    assert abs(q - 2.0) <= 1e-8


def test_dini_integral_log2_closed_form():
    # antiderivative 1/ln(e/tau): J(1) = 1
    assert M.dini_integral(M.preset_modulus("log2"), 1.0) == 1.0
    rep = M.dini_integral_report(M.preset_modulus("log2"), 1.0)
    assert rep.method == "closed-form"
    # cross-check quadrature stops at the precision floor but agrees to
    # its own partial accuracy
    assert rep.quadrature_value == pytest.approx(1.0, abs=2e-3)


def test_dini_integral_quadrature_matches_antiderivative():
    for pid, j in [("linear", lambda s: s),
                   ("power:0.5", lambda s: 2.0 * math.sqrt(s)),
                   ("power:0.25", lambda s: 4.0 * s**0.25)]:
        sigma = M.preset_modulus(pid)
        for s in (0.07, 0.3, 1.0):
            q = M._improper_quadrature(sigma, s, 1e-7)
            assert q == pytest.approx(j(s), rel=1e-6)


def test_dini_integral_monotone_in_s():
    sigma = M.preset_modulus("power:0.5")
    vals = [M.dini_integral(sigma, s) for s in (0.1, 0.3, 0.6, 1.0)]
    assert np.all(np.diff(vals) >= 0.0)


def test_dini_integral_divergent_log1():
    # J is a number in [0, inf]: the divergent log1 integral is inf itself
    for s in (1.0, 0.3, 2.0**-40):
        assert M.dini_integral(M.preset_modulus("log1"), s) == math.inf


def test_dini_integral_plateau_table_is_finite():
    # sigma = 1/2 on [1e-9, 1e-2], linear through 0 below it and a power
    # law up to 1 above it: 23 dyadic intervals of equal contribution, yet
    # J(1) = 1/2 + ln(1e7)/2 + ln(100)/(2 ln 2)
    table = M.from_table([0.0, 1e-9, 1e-2, 1.0], [0.0, 0.5, 0.5, 1.0])
    exact = 0.5 + 0.5 * math.log(1e7) + 0.5 * math.log(100.0) / math.log(2.0)
    assert M.dini_integral(table, 1.0) == pytest.approx(exact, rel=1e-6)
    assert exact == pytest.approx(11.880976, rel=1e-7)


def _jump(t):
    # sigma(0+) = 1/2
    return np.where(np.asarray(t) > 0.0, 0.5 + 0.5 * np.asarray(t), 0.0)


def test_dini_integral_jump_at_zero_diverges():
    # every dyadic interval adds about ln(2)/2, and the fitted decay
    # exponent (0) reads the tail as divergent
    jump = M.Modulus(fn=_jump)
    assert M.dini_integral(jump, 1.0) == math.inf
    floor = M._dyadic_increments(jump, 1.0, 930)   # down to 1e-280
    assert abs(M._decay_exponent(floor[-40:], 891, 4)) < 5e-4


def _floor_count(s):
    """The dyadic intervals of [0, s] whose low end is at least 1e-280."""
    m = 0
    while math.ldexp(s, -(m + 1)) >= 1e-280:
        m += 1
    return m


def loop_quadrature(sigma, s, rel_tol):
    """Reference: the contributions down to the 1e-280 floor added one at
    a time, stopping at the first one that is 0 or whose clamped-ratio
    tail estimate meets rel_tol.  Returns (stopped, sum)."""
    count = _floor_count(s)
    total, prev = 0.0, None
    for c in M._dyadic_increments(sigma, s, count).tolist():
        total += c
        if c == 0.0:
            return True, total
        if prev is not None and prev > 0.0:
            r = min(c / prev, 0.9999)
            if 2.0 * c * r / (1.0 - r) <= rel_tol * max(total, 1e-300):
                return True, total
        prev = c
    return False, total


def test_quadrature_matches_loop_reference():
    table = M.from_table([0.0, 0.5, 0.75, 1.0], [0.0, 0.0, 0.5, 1.0])
    moduli = [M.preset_modulus(p) for p in ("linear", "power:0.5",
                                            "power:0.05", "log2", "log1")]
    for sigma in moduli + [table, M.Modulus(fn=_jump)]:
        for s in (1.0, 0.3, 2.0**-40):
            for rel_tol in (1e-9, 1e-6, 1e-14):
                stopped, ref = loop_quadrature(sigma, s, rel_tol)
                try:
                    value = M._improper_quadrature(sigma, s, rel_tol)
                except M.QuadratureToleranceError as exc:
                    assert not stopped
                    value = exc.partial
                else:
                    if value == math.inf:
                        # a divergent tail: no stop, contributions decaying
                        # no faster than 1/m
                        assert not stopped
                        count = _floor_count(s)
                        increments = M._dyadic_increments(sigma, s, count)
                        assert M._decay_exponent(increments[-40:],
                                                 count - 39, 4) <= 1.01
                        continue
                    assert stopped
                assert value == ref


def test_dini_integral_unresolved_table_raises():
    # a log2-type table with no closed form runs out of double precision's
    # range before rel_tol 1e-9: J is finite but unresolved, and neither
    # dini_integral nor verify_relations reads it as inf
    t = np.geomspace(1e-300, 1.0, 400)
    table = M.from_table(t, 1.0 / (1.0 - np.log(t)) ** 2)
    with pytest.raises(M.QuadratureToleranceError, match="interval 929"):
        verify_relations(table, 0.5, 1.0)


def test_dini_integral_budget_error():
    # log2's forced quadrature at rel_tol 1e-6 is finite but unresolved at
    # the floor
    with pytest.raises(M.QuadratureToleranceError):
        M._improper_quadrature(M.preset_modulus("log2"), 1.0, 1e-6)


def test_dini_integral_below_the_floor_is_unresolved():
    # no dyadic interval of [0, 1e-290] lies above 1e-280: nothing to sum
    # and no tail to fit, so J is unresolved with partial sum 0
    with pytest.raises(M.QuadratureToleranceError,
                       match="at interval 0") as exc:
        M.dini_integral(M.preset_modulus("log1"), 1e-290)
    assert exc.value.partial == 0.0


_PLATEAU = M.from_table([0.0, 1e-9, 1e-2, 1.0], [0.0, 0.5, 0.5, 1.0])


@pytest.mark.parametrize("sigma,s,prefix", [
    (M.preset_modulus("log2"), 2.0**-40, 60),
    (M.preset_modulus("log2"), 2.0**-40, 10),
    (_PLATEAU, 1.0, 10), (_PLATEAU, 0.5, 10), (_PLATEAU, 0.3, 10)])
def test_budget_cut_quadrature_is_never_divergent(sigma, s, prefix):
    # J is finite on both, and the sum that a cut after the first
    # ``prefix`` intervals once read as divergent runs to the 1e-280
    # floor: the plateau resolves to a finite J, log2 at 2^-40 is
    # unresolved at the floor.  Neither reads inf, and each keeps at least
    # the sum of its first ``prefix`` contributions
    try:
        value = M._improper_quadrature(sigma, s, 1e-9)
    except M.QuadratureToleranceError as exc:
        assert sigma is not _PLATEAU
        assert "at interval 890" in str(exc)
        value = exc.partial
    else:
        assert sigma is _PLATEAU
    partial = float(M._dyadic_increments(sigma, s, prefix).sum())
    assert partial <= value < math.inf


def test_quadrature_report_without_closed_form():
    # a table has no closed form: its quadrature is the value itself
    sigma = M.from_table([0.0, 1.0], [0.0, 1.0])
    rep = M.dini_integral_report(sigma, 0.5)
    assert rep == M.DiniIntegralResult(M.dini_integral(sigma, 0.5),
                                       "quadrature", rep.value)
    assert rep.value == pytest.approx(0.5, rel=1e-9)


def test_decay_exponent_needs_four_positive_contributions():
    # three positive contributions fit no tail: the exponent reads inf,
    # so the quadrature never calls such a tail divergent
    assert M._decay_exponent([0.0, 1.0, 0.0, 0.5, 0.25, 0.0], 1, 4) == \
        math.inf
    assert M._decay_exponent([1.0, 0.5, 1.0 / 3.0, 0.25], 1, 4) == \
        pytest.approx(1.0)
    # indices start at ``first``: c_m = 1/m^2 for m = 5..8
    assert M._decay_exponent([1.0 / m**2 for m in range(5, 9)], 5, 4) == \
        pytest.approx(2.0)


def test_dini_integral_closed_form_runs_no_quadrature():
    shapes = []

    def fn(t):
        shapes.append(np.shape(t))
        return np.asarray(t, dtype=float)

    sigma = M.Modulus(fn=fn, closed_form_j=lambda s: s)
    assert M.dini_integral(sigma, 0.5) == 0.5
    assert shapes == []
    # the report's cross-check is the one quadrature, on all its nodes at once
    assert M.dini_integral_report(sigma, 0.5).quadrature_value == \
        pytest.approx(0.5, rel=1e-9)
    assert len(shapes) == 1 and len(shapes[0]) == 3


def test_dini_integral_domain():
    with pytest.raises(ValueError):
        M.dini_integral(M.preset_modulus("linear"), 1.5)


def per_interval_increments(sigma, s, count):
    """Reference: 4 panels of 16 Gauss-Legendre nodes of sigma(tau)/tau on
    each [lo, hi], one dyadic interval at a time from [s/2, s] down."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    out, hi = [], s
    for _ in range(count):
        lo = hi / 2.0
        edges = np.linspace(lo, hi, 5)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = mid[:, None] + half[:, None] * nodes[None, :]
        out.append(float(np.sum(sigma(x) / x * weights[None, :]
                                * half[:, None])))
        hi = lo
    return out


def test_dyadic_increments_match_per_interval_reference():
    table = M.from_table([0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0],
                         [0.0, 1e-3, 0.02, 0.3, 0.7, 1.0])
    for sigma in [M.preset_modulus(pid) for pid in ALL_PRESETS] + [table]:
        calls = []

        def counted(t, sigma=sigma):
            calls.append(np.shape(t))
            return sigma(t)

        for s in (1.0, 0.3, 1e-9):
            calls.clear()
            inc = M._dyadic_increments(counted, s, 40)
            assert calls == [(40, 4, 16)]
            assert inc.tolist() == per_interval_increments(sigma, s, 40)


# ---------------------------------------------------------------- classify

def test_classify_preset_verdicts():
    assert M.dini_classify(M.preset_modulus("linear")).verdict == M.Verdict.DINI
    assert M.dini_classify(M.preset_modulus("power:0.5")).verdict == M.Verdict.DINI
    assert M.dini_classify(M.preset_modulus("log2")).verdict == M.Verdict.DINI
    assert M.dini_classify(M.preset_modulus("log1")).verdict == M.Verdict.NON_DINI


def test_classify_numeric_behavior():
    # geometric increments classify numerically; the log pair lands in the
    # Inconclusive band of the ratio test and is separated by the fitted
    # decay exponent (~1 divergent vs ~2 convergent)
    assert M.dini_classify(M.preset_modulus("linear")).numeric_verdict \
        == M.Verdict.DINI
    assert M.dini_classify(M.preset_modulus("power:0.5")).numeric_verdict \
        == M.Verdict.DINI
    v1 = M.dini_classify(M.preset_modulus("log1"))
    v2 = M.dini_classify(M.preset_modulus("log2"))
    assert v1.growth_exponent_estimate == pytest.approx(1.0, abs=0.15)
    assert v2.growth_exponent_estimate == pytest.approx(2.0, abs=0.25)


def test_classify_partial_integrals_nondecreasing():
    for pid in ALL_PRESETS:
        v = M.dini_classify(M.preset_modulus(pid))
        partials = [p for _, p in v.partial_integrals]
        lows = [a for a, _ in v.partial_integrals]
        assert np.all(np.diff(partials) >= -1e-15)
        assert np.all(np.diff(lows) < 0.0)


def test_classify_depth_within_double_range():
    # 2^-1022 is the smallest normal double: down to it the increments
    # stay finite (warnings are errors here), one level deeper they
    # overflowed and log1 read as numerically Dini
    v = M.dini_classify(M.preset_modulus("log1"), depth=1022)
    assert len(v.partial_integrals) == 1022
    assert v.numeric_verdict == M.Verdict.NON_DINI
    with pytest.raises(ValueError, match="depth = 1023"):
        M.dini_classify(M.preset_modulus("log1"), depth=1023)


@pytest.mark.parametrize("depth", [400, 1022])
def test_classify_log_pair_at_depth(depth):
    # past a few hundred levels the increment ratios of log1 and of the
    # Dini log2 both pass 0.99; the fitted exponent (about 1 against 2)
    # keeps log2 from reading NonDini
    v1 = M.dini_classify(M.preset_modulus("log1"), depth=depth)
    v2 = M.dini_classify(M.preset_modulus("log2"), depth=depth)
    assert v1.numeric_verdict == M.Verdict.NON_DINI
    assert v1.growth_exponent_estimate == pytest.approx(1.0, abs=0.1)
    assert v2.numeric_verdict == M.Verdict.INCONCLUSIVE
    assert v2.growth_exponent_estimate == pytest.approx(2.0, abs=0.1)
    assert min(v2.increment_ratios) > 0.99


def test_classify_tabulated_without_flag():
    table = M.from_table([0.0, 0.25, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0])
    v = M.dini_classify(table)
    assert v.verdict == M.Verdict.DINI  # no flag: numeric verdict rules
    assert v.numeric_verdict == M.Verdict.DINI


# ---------------------------------------------------------------- relations

def test_relations_linear_equality_case():
    rep = verify_relations(M.preset_modulus("linear"), 0.3, 0.6)
    assert rep.all_hold
    # sigma(t/t0) = 0.5 equals sigma(t)/t0 = 0.3/0.6 exactly
    assert rep.slack_scaling_sigma == pytest.approx(0.0, abs=1e-12)


def test_relations_sqrt_example():
    rep = verify_relations(M.preset_modulus("power:0.5"), 0.25, 0.5)
    assert rep.all_hold
    # sigma(0.5) ~ 0.7071 <= sigma(0.25)/0.5 = 1.0
    assert rep.slack_scaling_sigma == pytest.approx(1.0 - math.sqrt(0.5),
                                                    rel=1e-9)


def test_relations_endpoint_case():
    sigma = M.preset_modulus("power:0.5")
    rep = verify_relations(sigma, 0.6, 0.6)
    assert rep.scaling_sigma  # sigma(1) = 1 <= sigma(t0)/t0


def test_relations_hold_on_divergent_log1():
    # J = inf on both sides: sigma <= J and the J scaling hold
    assert verify_relations(M.preset_modulus("log1"), 0.3, 0.6).all_hold


def test_relations_domain_error():
    with pytest.raises(ValueError, match="need 0 < t <= t0 <= 1"):
        verify_relations(M.preset_modulus("linear"), 0.7, 0.6)


def test_relations_hold_for_invariant_passing_presets():
    rng = np.random.default_rng(7)
    for pid in GOOD_PRESETS:
        sigma = M.preset_modulus(pid)
        for _ in range(20):
            t0 = float(rng.uniform(0.05, 1.0))
            t = float(rng.uniform(1e-4, t0))
            assert verify_relations(sigma, t, t0).all_hold, (pid, t, t0)


def test_sigma_below_dini_integral_on_grid():
    grid = np.geomspace(1e-4, 1.0, 40)
    for pid in ["linear", "power:0.5", "power:0.25"]:
        sigma = M.preset_modulus(pid)
        for t in grid:
            assert sigma(float(t)) <= M.dini_integral(sigma, float(t)) + 1e-8


# ---------------------------------------------------------------- tables

def test_table_roundtrip_and_interpolation():
    t = np.array([0.0, 0.01, 0.1, 0.5, 1.0])
    s = np.sqrt(t)
    table = M.from_table(t, s)
    grid = np.geomspace(0.01, 1.0, 50)
    np.testing.assert_allclose(table(grid), np.sqrt(grid), rtol=1e-12)
    assert check_invariants(table).ratio_monotone_ok


def test_csv_loading(tmp_path):
    path = tmp_path / "mod.csv"
    path.write_text("t,sigma\n0.0,0.0\n0.5,0.25\n1.0,1.0\n", encoding="utf-8")
    sigma = M.load_csv(path)
    assert sigma(0.5) == pytest.approx(0.25)
    assert sigma(1.0) == pytest.approx(1.0)


def test_csv_rejects_nonmonotone(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.0\n0.5,0.7\n1.0,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match="sigma values decrease along the table"):
        M.load_csv(path)


# each was once accepted: NaN fails every check, being a comparison, and
# an infinite sigma(1) normalizes the table to NaN
@pytest.mark.parametrize("t, s", [
    ([0.0, math.nan, 1.0], [0.0, 0.5, 1.0]),
    ([0.0, 0.5, 1.0], [0.0, math.nan, 1.0]),
    ([0.0, 0.5, 1.0], [0.0, 0.5, math.inf]),
], ids=["nan-t", "nan-sigma", "inf-sigma"])
def test_table_refuses_non_finite_entries(t, s):
    with pytest.raises(ValueError, match="^table entries t and sigma must "
                                         "be finite$"):
        M.from_table(t, s)


# input checks, each by its message: deleting a check lets the call
# return or fail later with another message
@pytest.mark.parametrize("call, match", [
    (lambda: M.preset_modulus("power:1.5"),
     r"power modulus needs alpha in \(0, 1\], got 1.5"),
    (lambda: M.from_table([0.0, 1.0], [0.0]),
     "need two equal-length 1-D columns with >= 2 rows"),
    (lambda: M.from_table([0.0, 0.5, 0.5, 1.0], [0.0, 0.2, 0.3, 1.0]),
     "abscissae t must be strictly increasing"),
    (lambda: M.from_table([0.0, 0.5], [0.0, 1.0]),
     r"t must lie in \[0, 1\] with last entry 1"),
    (lambda: M.from_table([0.0, 1.0], [0.0, 0.0]),
     r"sigma\(1\) must be positive"),
    (lambda: M.from_table([0.0, 1.0], [0.5, 1.0]),
     r"sigma\(0\) must be 0"),
], ids=["power-alpha", "columns", "increasing-t", "last-t", "sigma1",
        "sigma0"])
def test_modulus_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_csv_needs_two_data_rows(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t,sigma\n1.0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match="modulus CSV needs at least two data rows"):
        M.load_csv(path)


def test_table_normalization():
    table = M.from_table([0.0, 1.0], [0.0, 4.0])  # rescaled so sigma(1) = 1
    assert table(1.0) == pytest.approx(1.0)
