import math

import numpy as np
import pytest

from hopflab import convex_geometry as G
from hopflab import decay_analysis as D
from hopflab import modulus as M


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        D.HopfExperiment(profile="flat", K=0).validate()
    with pytest.raises(ValueError):
        # 2^-K R0 below 8h
        D.HopfExperiment(profile="flat", R0=0.5, K=4, h=2.0**-5).validate()
    D.HopfExperiment(profile="flat", R0=0.5, K=2, h=2.0**-6).validate()


# input checks, each by its message: deleting a check lets the call
# return or fail later with another message
@pytest.mark.parametrize("call, match", [
    (lambda: D.boundary_data("sector", G.preset_profile("cone:0.4")),
     "sector data requires a wedge profile"),
    (lambda: D.boundary_data("nosuch", G.preset_profile("wedge")),
     "unknown bc kind 'nosuch'"),
    (lambda: D.growth_recursion_bound(M.preset_modulus("linear"), 1.0, 1.0,
                                      1.0, k0=30),
     r"vartheta must lie in \(0, 1\)"),
    (lambda: D.growth_recursion_bound(M.preset_modulus("linear"), 1.0, 1.0,
                                      0.5, k0=30, rho_ratio=2.0),
     r"rho_ratio must lie in \(0, 1\]"),
], ids=["sector-non-wedge", "bc-kind", "vartheta", "rho-ratio"])
def test_decay_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------- runs

def test_flat_experiment_holds():
    cfg = D.HopfExperiment(profile="flat", R0=0.5, K=2, h=2.0**-6)
    rep = D.run_experiment(cfg)
    assert rep.verdict == D.HopfVerdict.HOLDS
    assert max(rep.osc) <= 1e-10
    np.testing.assert_allclose(rep.trace, 1.0, atol=1e-10)
    assert rep.kappa == 0.0
    assert all(p == 1.0 for p in rep.products)


def test_wedge_experiment_degenerates():
    theta = 2.0 * math.pi / 3.0
    cfg = D.HopfExperiment(profile=f"wedge:{theta}", R0=0.5, K=3,
                           h=2.0**-7, bc="sector")
    rep = D.run_experiment(cfg)
    assert rep.verdict == D.HopfVerdict.DEGENERATES
    assert rep.dini_verdict == M.Verdict.NON_DINI
    # trace follows x2^(pi/theta - 1) = sqrt(x2): per-level ratio 2^-1/2
    ratios = np.asarray(rep.trace[1:]) / np.asarray(rep.trace[:-1])
    np.testing.assert_allclose(ratios, 2.0**-0.5, rtol=2e-3)
    slope = np.polyfit(np.log(rep.trace_heights), np.log(rep.trace), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.02)


def test_log1_experiment_report_invariants():
    cfg = D.HopfExperiment(profile="log1", R0=0.5, K=2, h=2.0**-6)
    rep = D.run_experiment(cfg)
    assert np.all(np.diff(rep.osc) <= 1e-12)
    assert np.all(np.diff(rep.products) <= 1e-15)
    assert np.all(np.isfinite(rep.osc))
    assert np.all(np.isfinite(rep.trace))
    assert 0.0 <= rep.kappa < 1.0
    assert rep.dini_verdict == M.Verdict.NON_DINI


def test_verdict_resolution_stable():
    for prof in ("flat", "log1"):
        reps = [D.run_experiment(D.HopfExperiment(profile=prof, R0=0.5, K=2,
                                                  h=h))
                for h in (2.0**-6, 2.0**-7)]
        assert reps[0].verdict == reps[1].verdict


def test_scale_starved():
    cfg = D.HopfExperiment(profile="flat", R0=0.5, K=1, h=2.0**-5)
    with pytest.raises(ValueError, match="fewer than three levels"):
        D.run_experiment(cfg)


def test_fitted_kappa_satisfies_all_pairs():
    cfg = D.HopfExperiment(profile="log1", R0=0.5, K=4, h=2.0**-8)
    rep = D.run_experiment(cfg)
    assert rep.kappa > 0.0
    for k, k3 in rep.usable_pairs():
        assert rep.osc[k3] <= (1.0 - rep.kappa * rep.deltas[k]) \
            * rep.osc[k] + 1e-12


# ---------------------------------------------------------------- product

def direct_partials(delta_fn, kappa, R0, K):
    out, p = [], 1.0
    for j in range(K + 1):
        p *= 1.0 - kappa * delta_fn(8.0**-j * R0 / 2.0)
        out.append(p)
    return out


def test_product_zero_delta():
    rep = D.product_bound(lambda r: 0.0, 0.1, 0.5, 12)
    assert all(p == 1.0 for p in rep.partials)


def test_product_matches_direct_evaluation():
    prof = G.preset_profile("log1", R0=0.5)
    fn = lambda r: G.delta(prof, r)
    rep = D.product_bound(fn, 0.1, 0.5, 40)
    np.testing.assert_allclose(rep.partials,
                               direct_partials(fn, 0.1, 0.5, 40), rtol=1e-12)


def test_product_sum_integral_band():
    for pid in ("log1", "log2", "power:0.5"):
        prof = G.preset_profile(pid, R0=0.5)
        rep = D.product_bound(lambda r, p=prof: G.delta(p, r), 0.1, 0.5, 40)
        lo, hi = 0.5 / math.log(8.0), 2.0 * math.log(8.0)
        assert lo <= rep.sum_to_integral <= hi, (pid, rep.sum_to_integral)


@pytest.mark.parametrize("delta_of", ["cone", "scalar"])
def test_product_integral_constant_delta(delta_of):
    # delta = c: the integral over [r_K/2, r_0/2] is c K ln 8, and the
    # dyadic sum of K+1 values is (K+1)/(K ln 8) times it
    c, K = 0.4, 40
    prof = G.preset_profile(f"cone:{c}", R0=0.5)
    fn = (lambda r: G.delta(prof, r)) if delta_of == "cone" else (lambda r: c)
    rep = D.product_bound(fn, 0.1, 0.5, K)
    assert rep.integral == pytest.approx(c * K * math.log(8.0), rel=1e-12)
    assert rep.sum_to_integral == pytest.approx(
        (K + 1) / (K * math.log(8.0)), rel=1e-12)


def test_product_integral_closed_forms():
    # delta = r^alpha for power:alpha; 1/L and 1/L^2 with
    # L(r) = 1 + ln(R0/r) for log1 and log2
    R0 = 0.5
    L = lambda r: 1.0 + math.log(R0 / r)
    exact = {"log1": lambda a, b: math.log(L(a) / L(b)),
             "log2": lambda a, b: 1.0 / L(b) - 1.0 / L(a)}
    for alpha in (0.25, 0.5, 1.0):
        exact[f"power:{alpha}"] = \
            lambda a, b, al=alpha: (b**al - a**al) / al
    for pid, integral in exact.items():
        prof = G.preset_profile(pid, R0=R0)
        for K in (5, 40):
            rep = D.product_bound(lambda r: G.delta(prof, r), 0.1, R0, K)
            a, b = rep.radii[-1] / 2.0, rep.radii[0] / 2.0
            assert rep.integral == pytest.approx(integral(a, b), rel=1e-12), \
                (pid, K)


def test_product_report_holds_python_floats():
    prof = G.preset_profile("log1", R0=0.5)
    rep = D.product_bound(lambda r: G.delta(prof, r), 0.1, 0.5, 6)
    for value in rep.radii + rep.partials + (rep.delta_sum, rep.integral):
        assert type(value) is float


def test_product_log1_decreases_log2_levels_off():
    prof1 = G.preset_profile("log1", R0=0.5)
    prof2 = G.preset_profile("log2", R0=0.5)
    r1 = D.product_bound(lambda r: G.delta(prof1, r), 0.1, 0.5, 40)
    r2 = D.product_bound(lambda r: G.delta(prof2, r), 0.1, 0.5, 40)
    # strictly decreasing vs settling: compare tail slopes
    tail1 = np.diff(np.log(np.asarray(r1.partials[-10:])))
    tail2 = np.diff(np.log(np.asarray(r2.partials[-10:])))
    assert np.all(tail1 < 0.0)
    assert abs(tail2).max() < abs(tail1).min()
    assert r2.partials[-1] >= r2.limit_estimate - 1e-3


def test_product_limit_is_zero_on_a_divergent_tail():
    # log1's last 40 dyadic increments fit m^-0.98: the delta sum
    # diverges, so the product tends to 0 (the partial at level 40 is
    # still 0.797).  Below 3K = 40 intervals the rule does not apply
    prof = G.preset_profile("log1", R0=0.5)
    fn = lambda r: G.delta(prof, r)
    for K in (14, 40):
        assert D.product_bound(fn, 0.1, 0.5, K).limit_estimate == 0.0, K
    assert D.product_bound(fn, 0.1, 0.5, 13).limit_estimate > 0.8


@pytest.mark.parametrize("pid, K, floor", [
    ("log2", 40, 0.94),
    # power:alpha increments shrink as 2^-(alpha m); over a finite window
    # a power fit reads them as m^-0.56 (alpha 0.05, K 14) or m^-0.69
    # (alpha 0.01, K 40), but the geometric fit matches them exactly
    ("power:0.05", 14, 0.37),
    ("power:0.01", 40, 0.006),
])
def test_product_limit_continues_a_dini_tail_geometrically(pid, K, floor):
    # a Dini tail: the limit continues the last two levels' delta ratio q
    # as a geometric tail
    kappa = 0.1
    prof = G.preset_profile(pid, R0=0.5)
    rep = D.product_bound(lambda r: G.delta(prof, r), kappa, 0.5, K)
    d_prev, d_last = (G.delta(prof, r / 2.0) for r in rep.radii[-2:])
    q = d_last / d_prev
    tail = d_last * q / (1.0 - q)
    assert rep.limit_estimate == rep.partials[-1] * math.exp(
        -kappa * tail / (1.0 - kappa * d_last))
    assert rep.limit_estimate > floor


def test_product_domain_error():
    with pytest.raises(ValueError, match="factors not positive"):
        D.product_bound(lambda r: 20.0, 0.1, 0.5, 5)
    with pytest.raises(ValueError):
        D.product_bound(lambda r: 0.1, 1.5, 0.5, 5)
    with pytest.raises(ValueError, match="K must be nonnegative, got -1"):
        D.product_bound(lambda r: 0.1, 0.1, 0.5, -1)


# ---------------------------------------------------------------- recursion

def test_recursion_linear_ratio_one():
    rep = D.growth_recursion_bound(M.preset_modulus("linear"), 1.0, 1.0,
                                   0.5, k0=30, rho_ratio=0.01)
    assert rep.sum_to_integral == pytest.approx(1.0, rel=1e-9)
    assert rep.pi_value < math.inf
    assert rep.pi_increment_at_horizon <= 1e-9


def test_recursion_power_ratio_frozen():
    # geometric series: sum 2^(-k/2) / 2 = 1/(2(sqrt(2)-1)) ~ 1.2071
    rep = D.growth_recursion_bound(M.preset_modulus("power:0.5"), 1.0, 1.0,
                                   0.5, k0=30, rho_ratio=2.0**-10)
    assert rep.sum_to_integral == pytest.approx(
        1.0 / (2.0 * (math.sqrt(2.0) - 1.0)), rel=1e-6)


def test_recursion_source_free_reduces_to_pi_m1():
    rep = D.growth_recursion_bound(M.preset_modulus("power:0.5"),
                                   mathfrak_b=1.0, mathfrak_f=0.0,
                                   vartheta=0.5, k0=30, rho_ratio=2.0**-10,
                                   m1=2.0)
    np.testing.assert_allclose(rep.m_bound[-1], 2.0 * rep.pi_value,
                               rtol=1e-9)
    assert max(rep.m_bound) <= 2.0 * rep.pi_value + 1e-9


def test_recursion_adjust_k0():
    with pytest.raises(ValueError,
                       match=r"minimal admissible k0 = \d+$") as exc:
        D.growth_recursion_bound(M.preset_modulus("linear"), 0.0, 1.0,
                                 0.9, k0=1, rho_ratio=0.01)
    # the suggested k0 is admissible
    minimal_k0 = int(str(exc.value).rpartition(" = ")[2])
    D.growth_recursion_bound(M.preset_modulus("linear"), 0.0, 1.0, 0.9,
                             k0=minimal_k0, rho_ratio=0.01)


def test_recursion_adjust_k0_hopeless():
    # the sigma term alone exceeds the bound: no k0 can help
    with pytest.raises(ValueError,
                       match="; no k0 suffices, reduce rho_ratio$"):
        D.growth_recursion_bound(M.preset_modulus("linear"), 1.0, 1.0,
                                 0.5, k0=10, rho_ratio=1.0)


def test_recursion_pi_monotone_and_k0_monotone():
    sig = M.preset_modulus("power:0.5")
    rep = D.growth_recursion_bound(sig, 1.0, 1.0, 0.5, k0=30,
                                   rho_ratio=2.0**-10)
    assert np.all(np.diff(rep.pi_partials) >= 0.0)
    rep2 = D.growth_recursion_bound(sig, 1.0, 1.0, 0.5, k0=60,
                                    rho_ratio=2.0**-10)
    assert rep2.pi_value <= rep.pi_value + 1e-12


def test_recursion_tail_bound_shrinks_with_horizon():
    def tail(spec, horizon):
        return D.growth_recursion_bound(
            M.preset_modulus(spec), 1.0, 1.0, 0.5, k0=30,
            rho_ratio=2.0**-10, horizon=horizon).pi_tail_bound

    # log2: the sigma part J(2^-H rho) ~ 1/(H ln 2) halves as H doubles
    bounds = {h: tail("log2", h) for h in (100, 200, 400, 800)}
    for horizon in (200, 400, 800):
        assert math.isfinite(bounds[horizon])
        assert bounds[horizon] <= 0.6 * bounds[horizon // 2]
    # geometric sigma terms leave a negligible tail by horizon 200
    for spec in ("linear", "power:0.5"):
        assert tail(spec, 200) <= 1e-12


def test_recursion_divergent_j_keeps_an_infinite_tail():
    # J = inf on log1: the sigma part of the tail bound stays inf even with
    # no drift (mathfrak_b = 0), where 0 * inf would read nan
    for b in (0.0, 0.01):
        rep = D.growth_recursion_bound(M.preset_modulus("log1"), b, 1.0,
                                       0.5, k0=30, rho_ratio=0.01)
        assert rep.pi_tail_bound == math.inf
        assert rep.sum_to_integral == math.inf


def test_recursion_unresolved_j_reads_inf():
    # a log2-type table has no closed form, and at rel_tol 1e-6 its J is
    # unresolved before the 1e-280 floor at both calls, 0.01 and
    # 0.01 * 2^-200.  Both read inf
    t = np.geomspace(1e-300, 1.0, 400)
    table = M.from_table(t, 1.0 / (1.0 - np.log(t)) ** 2)
    for s in (0.01, 2.0**-200 * 0.01):
        with pytest.raises(M.QuadratureToleranceError):
            M.dini_integral(table, s, rel_tol=1e-6)
    rep = D.growth_recursion_bound(table, 0.01, 1.0, 0.5, k0=30,
                                   rho_ratio=0.01)
    assert rep.pi_tail_bound == math.inf
    assert rep.sum_to_integral == math.inf
    assert math.isfinite(rep.pi_value)


def _recursion_reference(sigma, mathfrak_b, mathfrak_f, vartheta, k0,
                         rho_ratio, horizon=200, m1=1.0):
    """growth_recursion_bound's recursion one level at a time: the
    fields it feeds, or {"minimal_k0": ...} when gamma_1 > 1/2."""
    lam = -math.log(1.0 - vartheta / 2.0)
    pref = 1.0 / (1.0 - vartheta / 2.0)
    half_t = vartheta / 2.0
    sig_terms = [float(sigma(min(2.0 ** -k * rho_ratio, 1.0)))
                 for k in range(1, horizon + 1)]

    def gamma_at(k, k0v):
        zr = 2.0 * (k + k0v + 1.0) / (k + k0v)
        return pref * zr * (math.exp(-lam * (k + k0v) / 2.0)
                            + mathfrak_b * sig_terms[k - 1] / half_t)

    if gamma_at(1, k0) > 0.5:
        return {"minimal_k0": next((c for c in range(k0 + 1, 400)
                                    if gamma_at(1, c) <= 0.5), None)}
    gam = [gamma_at(k, k0) for k in range(1, horizon + 1)]
    m_vals = [m1]
    for k in range(horizon):
        zeta_fac = (k + 1 + k0 + 1.0) / (k + 1 + k0)
        src = (mathfrak_f * sig_terms[k] * 2.0 * zeta_fac
               / ((1.0 - half_t) * half_t))
        m_vals.append(m_vals[-1] * (1.0 + gam[k]) + src)
    return {"gamma": gam, "pi_partials": np.cumprod(1.0 + np.array(gam)),
            "m_bound": m_vals, "sigma_sum": sum(sig_terms)}


_TABLE_T = np.geomspace(1e-6, 1.0, 30)


@pytest.mark.parametrize("sigma", [
    M.preset_modulus("linear"), M.preset_modulus("power:0.5"),
    M.preset_modulus("log2"), M.from_table(_TABLE_T, _TABLE_T ** 0.7),
], ids=["linear", "power:0.5", "log2", "table"])
@pytest.mark.parametrize("params, adjusts", [
    (dict(mathfrak_b=1.0, mathfrak_f=1.0, vartheta=0.5, k0=30,
          rho_ratio=2.0**-10), False),
    (dict(mathfrak_b=0.001, mathfrak_f=0.5, vartheta=0.3, k0=80,
          rho_ratio=2.0**-30, horizon=300, m1=2.0), False),
    # gamma_1 > 1/2; the minimal admissible k0 is 12..14
    (dict(mathfrak_b=0.05, mathfrak_f=1.0, vartheta=0.5, k0=2,
          rho_ratio=0.1), True),
], ids=["k0=30", "k0=80", "adjust-k0"])
def test_recursion_matches_per_level_reference(sigma, params, adjusts):
    ref = _recursion_reference(sigma, **params)
    assert ("minimal_k0" in ref) == adjusts
    if adjusts:
        assert ref["minimal_k0"] is not None
        with pytest.raises(ValueError, match=f"; minimal admissible k0 = "
                                             f"{ref['minimal_k0']}$"):
            D.growth_recursion_bound(sigma, **params)
        return
    rep = D.growth_recursion_bound(sigma, **params)
    for field, want in ref.items():
        np.testing.assert_allclose(getattr(rep, field), want, rtol=1e-14,
                                   atol=0.0, err_msg=field)


# ---------------------------------------------------------------- contrast

def _radial(pid):
    """The preset radial profile with its preset id dropped."""
    prof = G.preset_profile(pid, R0=0.5)
    return G.RadialProfile(f=prof.f, df=prof.df, R0=prof.R0)


@pytest.mark.parametrize("profile, verdict", [
    (G.MaxAffineProfile(slopes=[[0.4], [-0.4]], offsets=[0.0, 0.0],
                        R0=0.5), M.Verdict.NON_DINI),
    (G.MaxAffineProfile(slopes=[[0.4, 0.0], [-0.2, 0.3], [-0.2, -0.3]],
                        offsets=[0.0, 0.0, 0.0], R0=0.5, ambient_dim=3),
     M.Verdict.NON_DINI),
    # flat on [-0.1, 0.1]: sigma vanishes below t = 0.2
    (G.MaxAffineProfile(slopes=[[0.0], [1.0], [-1.0]],
                        offsets=[0.0, -0.1, -0.1], R0=0.5), M.Verdict.DINI),
    # the numeric verdict of the log1 modulus at depth 40
    (_radial("log1"), M.Verdict.INCONCLUSIVE),
    (_radial("power:0.5"), M.Verdict.DINI),
], ids=["cone-2d", "cone-3d", "flat-near-0", "radial-log1", "radial-power"])
def test_preset_free_dini_verdict(profile, verdict):
    # a profile without a preset is classified on delta(t R0)/delta(R0)
    # itself, down to the 2^-40 that dini_classify probes
    assert D._dini_verdict(profile) == verdict
    sigma, hint = G.boundary_modulus(profile)
    assert hint is None and sigma(0.0) == 0.0 and sigma(1.0) == 1.0


def test_contrast_requires_both_classes():
    cfg = D.HopfExperiment(profile="flat", R0=0.5, K=2, h=2.0**-6)
    with pytest.raises(ValueError):
        D.contrast_suite(["flat"], "laplace", cfg)


def test_contrast_products_separate():
    cfg = D.HopfExperiment(profile="log1", R0=0.5, K=2, h=2.0**-6)
    rep = D.contrast_suite(["power:0.5", "log1"], "laplace", cfg)
    assert rep.consistency_ok
    rows = {r["profile"]: r for r in rep.rows}
    assert rows["log1"]["product_K"] < rows["power:0.5"]["product_K"]
    assert rows["log1"]["dini"] == "NonDini"
    assert rows["power:0.5"]["dini"] == "Dini"


def test_contrast_log_pair():
    cfg = D.HopfExperiment(profile="log1", R0=0.5, K=2, h=2.0**-6)
    rep = D.contrast_suite(["log2", "log1"], "laplace", cfg)
    assert rep.consistency_ok


# ---------------------------------------------------------------- reports

def test_report_csv_and_summary_format():
    cfg = D.HopfExperiment(profile="log1", R0=0.5, K=2, h=2.0**-6)
    rep = D.run_experiment(cfg)
    csv = D.report_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "k,r_k,osc_k,ratio_k,delta_k,product_k,h_k"
    assert len(lines) == len(rep.radii) + 1
    assert lines[-1].split(",")[3] == ""  # no ratio on the last level
    summary = D.report_summary(rep)
    assert "verdict: HopfDegenerates" in summary or \
        "verdict: Inconclusive" in summary
    assert "grid.h:" in summary


def test_reports_byte_reproducible():
    cfg = D.HopfExperiment(profile="log1", R0=0.5, K=2, h=2.0**-6)
    a = D.report_csv(D.run_experiment(cfg))
    b = D.report_csv(D.run_experiment(cfg))
    assert a == b


def test_sector_harmonic_on_axis():
    theta = 2.0 * math.pi / 3.0
    u = D.sector_harmonic(theta)
    t = np.array([0.1, 0.2, 0.4])
    np.testing.assert_allclose(u(np.zeros(3), t), t**1.5, rtol=1e-12)
    # vanishes on both wedge edges
    c = 1.0 / math.tan(theta / 2.0)
    np.testing.assert_allclose(u(np.array([0.2, -0.2]),
                                 np.array([0.2 * c, 0.2 * c])),
                               0.0, atol=1e-12)


def test_sector_harmonic_is_even():
    rng = np.random.default_rng(5)
    x1 = rng.uniform(0.0, 0.5, size=2000)
    x2 = rng.uniform(0.0, 0.5, size=2000)
    for theta in (2.0 * math.pi / 3.0, 0.56 * math.pi, 1.2):
        u = D.sector_harmonic(theta)
        np.testing.assert_array_equal(u(-x1, x2), u(x1, x2))
