import math

import numpy as np
import pytest

from hopflab import barriers as B
from helpers import aleksandrov_constant_fit


def fd_gradient(spec, x, step):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (B.barrier_eval(spec, x + e)[0]
                  - B.barrier_eval(spec, x - e)[0]) / (2.0 * step)
    return out


# ---------------------------------------------------------------- eval

def test_cylinder_values_at_center_axis():
    k, rho, nu, n = 2.0, 0.3, 0.5, 2
    spec = B.cylinder_barrier(k, rho, nu, n)
    gamma = nu / math.sqrt(n - 1)
    v, g, H = B.barrier_eval(spec, np.zeros(2))
    assert v == pytest.approx(k)
    np.testing.assert_allclose(g, [0.0, -2.0 * k / (gamma * rho)])
    np.testing.assert_allclose(np.diag(H), [-2.0 * k / rho**2,
                                            2.0 * k / (gamma * rho) ** 2])


def test_cylinder_cap_value_nonpositive():
    spec = B.cylinder_barrier(1.0, 0.2, 0.5, 2)
    gamma = 0.5
    v, _, _ = B.barrier_eval(spec, np.array([0.1, gamma * 0.2]))
    assert v == pytest.approx(-(0.1 / 0.2) ** 2)
    assert v <= 0.0


def test_annulus_normalization():
    spec = B.annulus_barrier(1.5, 0.2, 8.0, center=[0.3, 0.4])
    c = np.asarray([0.3, 0.4])
    assert B.barrier_eval(spec, c + [0.2, 0.0])[0] == pytest.approx(0.0,
                                                                    abs=1e-12)
    assert B.barrier_eval(spec, c + [0.025, 0.0])[0] == pytest.approx(1.5)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    cyl = B.cylinder_barrier(1.3, 0.25, 0.5, 2)
    ann = B.annulus_barrier(0.8, 0.2, 8.0, center=[0.0, 0.0])
    cap = B.capped_barrier(0.5, 0.2, 8.0, center=[0.0, 0.3],
                           outer_radius=0.3)
    for spec, sampler in (
        (cyl, lambda: np.array([rng.uniform(-0.2, 0.2),
                                rng.uniform(0.0, 0.5 * 0.25)])),
        (ann, lambda: (lambda d, a: d * np.array([math.cos(a), math.sin(a)]))(
            rng.uniform(0.03, 0.19), rng.uniform(0, 2 * math.pi))),
        (cap, lambda: np.asarray([0.0, 0.3]) + (lambda d, a: d * np.array(
            [math.cos(a), math.sin(a)]))(rng.uniform(0.03, 0.29),
                                         rng.uniform(0, 2 * math.pi))),
    ):
        for _ in range(12):
            x = sampler()
            _, g, _ = B.barrier_eval(spec, x)
            step = 1e-6 * spec.rho
            np.testing.assert_allclose(g, fd_gradient(spec, x, step),
                                       rtol=1e-5, atol=1e-7 * abs(g).max())


def test_hessian_matches_finite_differences():
    spec = B.annulus_barrier(1.0, 0.2, 8.0, center=[0.0, 0.0])
    x = np.array([0.08, 0.05])
    _, _, H = B.barrier_eval(spec, x)
    step = 1e-5 * 0.2
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        g_p = B.barrier_eval(spec, x + e)[1]
        g_m = B.barrier_eval(spec, x - e)[1]
        np.testing.assert_allclose(H[:, i], (g_p - g_m) / (2 * step),
                                   rtol=1e-4)


def test_out_of_domain():
    spec = B.annulus_barrier(1.0, 0.2, 8.0, center=[0.0, 0.0])
    with pytest.raises(ValueError, match="^point outside the annulus$"):
        B.barrier_eval(spec, np.array([0.5, 0.5]))
    cyl = B.cylinder_barrier(1.0, 0.2, 0.5, 2)
    with pytest.raises(ValueError, match="^point outside the cylinder slab$"):
        B.barrier_eval(cyl, np.array([0.0, 0.5]))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value, message", [
    ("amplitude", -1.0, "amplitude must be nonnegative and finite"),
    ("amplitude", _NAN, "amplitude must be nonnegative and finite"),
    ("amplitude", _INF, "amplitude must be nonnegative and finite"),
    ("rho", 0.0, "radius must be positive and finite"),
    ("rho", _NAN, "radius must be positive and finite"),
    ("rho", _INF, "radius must be positive and finite"),
    ("s", 0.0, "radial exponent s must be positive and finite"),
    ("s", _NAN, "radial exponent s must be positive and finite"),
    ("s", _INF, "radial exponent s must be positive and finite"),
])
def test_barrier_spec_refuses_out_of_range_fields(field, value, message):
    fields = dict(kind="annulus", amplitude=1.0, rho=0.2,
                  center=np.zeros(2), s=8.0)
    B.BarrierSpec(**fields)
    with pytest.raises(ValueError, match=f"^{message}$"):
        B.BarrierSpec(**{**fields, field: value})


def test_frame_transport():
    from hopflab import convex_geometry as G
    prof = G.preset_profile("power:1", R0=1.0)
    fr = G.extremal_frame(prof, 0.1)
    spec = B.cylinder_barrier(1.0, 0.1, 0.5, 2, frame=fr)
    # the frame origin maps to y = 0 where psi = k
    v, g, _ = B.barrier_eval(spec, fr.x_star)
    assert v == pytest.approx(1.0)
    # ambient gradient is the frame pullback of (0, -2k/(gamma rho))
    assert np.linalg.norm(g) == pytest.approx(2.0 / (0.5 * 0.1), rel=1e-12)


# ---------------------------------------------------------------- certificates

@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_cylinder_certificate_passes(nu, n):
    rep = B.cylinder_barrier_certificate(nu, n, samples=2000, seed=1)
    assert rep.passed
    assert rep.bracket_max <= 1e-12
    assert rep.center_gain == pytest.approx((1.0 - rep.gamma**2) / 16.0)


def test_cylinder_certificate_extreme_attains_zero():
    rep = B.cylinder_barrier_certificate(0.5, 2, samples=500, seed=3)
    assert abs(rep.bracket_max) <= 1e-12  # diag(1/nu, nu) saturates


def test_cylinder_certificate_inflated_gamma_fails():
    rep = B.cylinder_barrier_certificate(0.5, 2, samples=500, seed=3,
                                         gamma_scale=2.0)
    assert not rep.passed
    assert rep.bracket_max > 0.1


def test_radial_certificate_laplace():
    rep = B.radial_exponent_certificate(2.0, 1.0, 2, samples=1000, seed=2)
    assert rep.passed
    assert rep.critical_s == pytest.approx(0.0)
    assert rep.sampled_min_bracket >= -1e-12


def test_radial_certificate_reference_exponent_margin():
    # s = n/nu^2 = 8 at nu = 0.5, n = 2: elementary margin 2 nu = 1
    rep = B.radial_exponent_certificate(8.0, 0.5, 2, samples=1000, seed=2)
    assert rep.passed
    assert rep.margin == pytest.approx(1.0)


def test_radial_certificate_below_reference_fails_with_witness():
    rep = B.radial_exponent_certificate(5.0, 0.5, 2, samples=1000, seed=2)
    assert not rep.passed
    assert rep.margin == pytest.approx(-0.5)
    # the witness is the radial-nu/transverse-1/nu extreme; over the
    # admissible class itself the bracket stays positive at this s
    np.testing.assert_allclose(rep.worst_matrix, np.diag([0.5, 2.0]))
    assert rep.sampled_min_bracket == pytest.approx(1.0)


def test_radial_certificate_attainable_threshold():
    # sampled bracket turns negative only below (n-1)/nu^2 - 1
    rep = B.radial_exponent_certificate(2.5, 0.5, 2, samples=4000, seed=2)
    assert rep.attainable_critical_s == pytest.approx(3.0)
    assert rep.sampled_min_bracket == pytest.approx(
        (2.5 + 1.0) * 0.5 - 1.0 / 0.5, abs=1e-9)
    assert rep.sampled_min_bracket < 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_admissible_corners_match_the_loop(n):
    # the 2^n corner matrices equal, to the bit, the ones a loop over the
    # bit patterns builds; the random matrices follow them
    nu = 0.3
    mats = B.sample_admissible_matrices(nu, n, 5, np.random.default_rng(1))
    corners = [np.diag([nu if (bits >> i) & 1 else 1.0 / nu
                        for i in range(n)]) for bits in range(2**n)]
    assert mats.shape == (2**n + 5, n, n)
    assert mats[:2**n].tobytes() == np.asarray(corners).tobytes()


def test_admissible_sampler_spectrum():
    rng = np.random.default_rng(0)
    mats = B.sample_admissible_matrices(0.5, 3, 200, rng)
    eigs = np.linalg.eigvalsh(mats)
    assert eigs.min() >= 0.5 - 1e-10
    assert eigs.max() <= 2.0 + 1e-10
    np.testing.assert_allclose(mats, np.swapaxes(mats, 1, 2), atol=1e-12)


# ---------------------------------------------------------------- chain

def test_chain_closed_form_zero_drift():
    # at n = 3 the next ball's sphere is sampled by Gaussian directions,
    # and the admissible window is [15.9, 23.8]
    for n, length in ((2, 12), (3, 18)):
        rep = B.growth_chain(1.0, 0.5, n, 0.1, chain_length=length)
        assert rep.k_final == pytest.approx(rep.closed_form_zero_drift,
                                            rel=1e-12)
        assert rep.theta > 0.0
        assert rep.broken_at is None


def test_chain_spacing_window_enforced():
    with pytest.raises(ValueError, match="chain length 3 outside the "
                                         "admissible window"):
        B.growth_chain(1.0, 0.5, 2, 0.1, chain_length=3)
    with pytest.raises(ValueError, match="chain length 40 outside the "
                                         "admissible window"):
        B.growth_chain(1.0, 0.5, 2, 0.1, chain_length=40)


def test_chain_zero_start():
    assert B.growth_chain(0.0, 0.5, 2, 0.1, chain_length=12).k_final == 0.0


def test_chain_breaks_under_large_drift():
    base = B.growth_chain(1.0, 0.5, 2, 0.1, chain_length=12)
    drift = base.theta / 2.0 * 1.0001  # just above the first-step budget
    rep = B.growth_chain(1.0, 0.5, 2, 0.1, chain_length=12,
                         drift_term=drift)
    assert rep.broken_at == 1
    assert rep.k_final == 0.0


def test_chain_scale_invariance():
    a = B.growth_chain(1.0, 0.5, 2, 0.1, chain_length=12)
    b = B.growth_chain(1.0, 0.5, 2, 0.2, chain_length=12)
    assert a.theta == pytest.approx(b.theta, rel=1e-12)
    assert a.k_final == pytest.approx(b.k_final, rel=1e-12)


# ---------------------------------------------------------------- reference

def loop_theta(nu, n, r, chain_length):
    """growth_chain's theta as the minimum of one barrier_eval per
    sampled point of the next ball, 0 for a point off the annulus."""
    z0, zt, rho0, _ = B.chain_geometry(nu, n, r)
    step_vec = (zt - z0) / chain_length
    spec = B.annulus_barrier(1.0, rho0, n / nu**2, center=np.zeros(n))
    if n == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        dirs = np.column_stack((np.cos(ang), np.sin(ang)))
    else:
        dirs = np.random.default_rng(0).standard_normal((256, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    e1 = np.eye(n)[0]
    theta = math.inf
    for d in np.vstack((step_vec[None, :], step_vec + rho0 / 8.0 * dirs)):
        dist = max(float(np.linalg.norm(d)), rho0 / 8.0)
        try:
            val = B.barrier_eval(spec, dist * e1)[0]
        except ValueError:
            val = 0.0
        theta = min(theta, val)
    return theta


def loop_cap_constant(nu, n, r):
    """cap_bound_constant as the maximum of W r/(4 x_n), one barrier_eval
    per sampled point, skipping those off the annulus or on x_n = 0."""
    z0, zt, rho0, _ = B.chain_geometry(nu, n, r)
    spec = B.capped_barrier(1.0, rho0, n / nu**2, center=zt,
                            outer_radius=float(zt[-1]))
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((4000, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(rho0 / 8.0, float(zt[-1]), size=4000)
    best = 0.0
    for p in zt[None, :] + dirs * radii[:, None]:
        if p[-1] <= 1e-12 * r:
            continue
        try:
            val = B.barrier_eval(spec, p)[0]
        except ValueError:
            continue
        best = max(best, val * r / (4.0 * p[-1]))
    return best


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_theta_and_cap_constant_match_the_point_loop(n):
    # both pinned to the bit to the per-point loops, wherever the loop
    # returns: at nu = 0.3, n >= 8 and small r, |x - z|^-s overflows
    checked = 0
    for nu in (0.3, 0.5, 0.7):
        for r in (0.05, 0.37, 1.0, 64.0 * math.sqrt(n - 1) / nu):
            length = int(math.ceil(B.chain_geometry(nu, n, r)[3][0]))
            try:
                theta = loop_theta(nu, n, r, length)
                cap = loop_cap_constant(nu, n, r)
            except OverflowError:
                continue
            assert B.growth_chain(1.0, nu, n, r, length).theta == theta
            assert B.cap_bound_constant(nu, n, r) == cap
            checked += 1
    assert checked >= 9


def test_cap_constant_skips_the_hessian():
    # the Hessian's |x - z|^(-s-4) overflows here, the value does not
    assert math.isfinite(B.cap_bound_constant(0.2, 3, 0.05))


# ---------------------------------------------------------------- cap bound

def test_cap_bound_constant_scale_invariant():
    vals = [B.cap_bound_constant(0.5, 2, r) for r in
            (0.05, 0.1, 0.2)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)
    assert vals[1] == pytest.approx(vals[2], rel=1e-10)


def test_cap_bound_controls_barrier():
    # W_unit(x) <= N6 * (4/r)^-1 ... i.e. W <= N6 * 4 x_n / r on samples
    nu, n, r = 0.5, 2, 0.1
    n6 = B.cap_bound_constant(nu, n, r)
    z0, zt, rho0, _ = B.chain_geometry(nu, n, r)
    spec = B.capped_barrier(1.0, rho0, n / nu**2, center=zt,
                            outer_radius=float(zt[-1]))
    rng = np.random.default_rng(77)
    for _ in range(500):
        d = rng.uniform(rho0 / 8.0, float(zt[-1]))
        a = rng.uniform(0.0, 2.0 * math.pi)
        p = zt + d * np.array([math.cos(a), math.sin(a)])
        if p[-1] <= 1e-9:
            continue
        v, _, _ = B.barrier_eval(spec, p)
        assert v <= n6 * 4.0 * p[-1] / r + 1e-9


# ---------------------------------------------------------------- fit

def test_aleksandrov_fit_excludes_trivial_runs():
    fit = aleksandrov_constant_fit([
        {"sup_u": 0.0, "diam": 1.0, "f_norm": 1.0},
        {"sup_u": 0.2, "diam": 2.0, "f_norm": 0.5},
        {"sup_u": 0.3, "diam": 1.0, "f_norm": 1.0},
    ])
    assert fit.used_runs == 2
    assert fit.constant == pytest.approx(0.3)


def test_aleksandrov_fit_needs_data():
    with pytest.raises(ValueError):
        aleksandrov_constant_fit([{"sup_u": 0.0, "diam": 1, "f_norm": 1}])


@pytest.mark.parametrize("call, match", [
    (lambda: B.radial_exponent_certificate(2.0, 1.5, 2),
     r"nu must lie in \(0, 1\]"),
    (lambda: B.growth_chain(-1.0, 0.5, 2, 0.1, chain_length=12),
     "v_lower must be nonnegative"),
    (lambda: aleksandrov_constant_fit(
        [{"sup_u": 1.0, "diam": 0.0, "f_norm": 1.0}]),
     r"run with positive sup u needs diam\*\|\|f\|\| > 0"),
], ids=["radial-nu", "chain-v-lower", "aleksandrov-denominator"])
def test_barrier_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
