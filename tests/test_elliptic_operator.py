import math

import numpy as np
import pytest

from hopflab import elliptic_operator as E
from helpers import ellipticity_check, norm_modulus


# ---------------------------------------------------------------- presets

def test_preset_ellipticity():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(300, 2))
    for spec in ("laplace", "aniso:0.5,2", "checker:0.25", "drift:1.5"):
        op = E.preset_operator(spec)
        rep = ellipticity_check(op, pts)
        assert rep["ok"], (spec, rep)


def test_params_echoed():
    op = E.preset_operator("aniso:0.5,2")
    assert op.params == {"l1": 0.5, "l2": 2.0}
    assert E.preset_operator("checker:0.125").params == {"eps0": 0.125}


def test_unknown_preset():
    with pytest.raises(ValueError):
        E.preset_operator("nosuch")


# ---------------------------------------------------------------- truncate

def test_truncate_clamps():
    np.testing.assert_allclose(E.truncate_drift([3.0, -5.0], 1.0), [1.0, -1.0])


def test_truncate_below_threshold_unchanged():
    np.testing.assert_allclose(E.truncate_drift([0.2, -0.3], 1.0), [0.2, -0.3])


def test_truncate_field_pointwise():
    # b1(x) = 1/|x| capped at 1/eps = 100
    def b(X1, X2):
        X1 = np.asarray(X1, dtype=float)
        r = np.abs(X1)
        return np.where(r > 0, 1.0 / np.maximum(r, 1e-12), 1e12), \
            np.zeros_like(X1)

    bt = E.truncate_drift(b, 0.01)
    b1, b2 = bt(np.array([0.5, 0.02, 0.001]), np.zeros(3))
    np.testing.assert_allclose(b1, [2.0, 50.0, 100.0])
    assert np.all(b2 == 0.0)


def test_truncate_rejects_bad_eps():
    with pytest.raises(ValueError):
        E.truncate_drift([1.0], 0.0)


# ---------------------------------------------------------------- correct

def test_correct_drift_already_fine():
    np.testing.assert_allclose(
        E.correct_drift([0.5, 0.0], [0.7, 0.0], [1.0, 0.0]), [0.5, 0.0])


def test_correct_drift_scales_positive_summand():
    # sums 2 vs 1, both positive: scale the positive summand to equality
    out = E.correct_drift([2.0, 1.0], [1.0, 1.0], [1.0, 0.0])
    np.testing.assert_allclose(out, [1.0, 1.0])
    assert out @ np.array([1.0, 0.0]) == pytest.approx(1.0)


def test_correct_drift_opposite_signs_negates():
    # sums 1 vs -1: the rule applies to -b_tilde
    np.testing.assert_allclose(
        E.correct_drift([1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]), [-1.0, 0.0])


def test_correct_drift_zero_gradient():
    np.testing.assert_allclose(
        E.correct_drift([2.0, -3.0], [1.0, 1.0], [0.0, 0.0]), [2.0, -3.0])


def test_correct_drift_property_sweep():
    rng = np.random.default_rng(123)
    for _ in range(10000):
        n = int(rng.choice([2, 3, 5]))
        b = rng.normal(0.0, 2.0, size=n)
        g = rng.normal(0.0, 1.0, size=n)
        eps = float(rng.uniform(0.1, 3.0))
        bt = E.truncate_drift(b, eps)
        be = E.correct_drift(bt, b, g)
        assert abs(be @ g) <= abs(b @ g)
        assert np.all(np.abs(be) <= np.abs(bt) + 1e-15)
        assert np.all(np.abs(bt) <= np.minimum(np.abs(b), 1.0 / eps) + 1e-15)


# ---------------------------------------------------------------- mollify

def _jump_field(X1, X2):
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    a11 = np.where(X1 < 0.0, 0.5, 1.0) * np.ones_like(X2)
    a22 = np.where(X1 < 0.0, 1.0, 0.5) * np.ones_like(X2)
    return a11, a22, np.zeros(np.broadcast(X1, X2).shape)


def test_mollify_constant_unchanged():
    def const(X1, X2):
        s = np.broadcast(np.asarray(X1), np.asarray(X2)).shape
        return np.full(s, 0.5), np.full(s, 2.0), np.zeros(s)

    am = E.mollify_a(const, 0.05, box=(-1.0, 1.0, -1.0, 1.0))
    a11, a22, a12 = am(0.1, 0.2)
    assert a11 == pytest.approx(0.5, rel=1e-14)
    assert a22 == pytest.approx(2.0, rel=1e-14)
    assert a12 == pytest.approx(0.0, abs=1e-15)


def test_mollify_jump_half_mass_average():
    am = E.mollify_a(_jump_field, 0.1, box=(-1.0, 1.0, -1.0, 1.0))
    a11, a22, _ = am(0.0, 0.3)
    assert a11 == pytest.approx(0.75, rel=1e-12)
    assert a22 == pytest.approx(0.75, rel=1e-12)


def test_mollify_preserves_eigenvalue_interval():
    am = E.mollify_a(_jump_field, 0.07, box=(-0.5, 0.5, 0.0, 0.5))
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.5, 0.5, size=(200, 2))
    a11, a22, a12 = am(pts[:, 0], pts[:, 1])
    half = 0.5 * (a11 + a22)
    disc = np.sqrt(0.25 * (a11 - a22) ** 2 + a12**2)
    assert np.all(half - disc >= 0.5 - 1e-12)
    assert np.all(half + disc <= 2.0 + 1e-12)


def test_mollify_pointwise_convergence():
    # at a continuity point the mollified value approaches the field value
    am_coarse = E.mollify_a(_jump_field, 0.2, box=(-1, 1, -1, 1))
    am_fine = E.mollify_a(_jump_field, 0.01, box=(-1, 1, -1, 1))
    a11_c, _, _ = am_coarse(0.1, 0.0)
    a11_f, _, _ = am_fine(0.1, 0.0)
    assert abs(a11_f - 1.0) < abs(a11_c - 1.0) + 1e-15
    assert a11_f == pytest.approx(1.0, abs=1e-12)


def test_approximant_pair_invariants():
    op = E.preset_operator("drift:5.0")
    pair = E.approximate(op, 0.3, box=(-0.5, 0.5, 0.0, 0.5))
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.uniform(-0.4, 0.4, size=2)
        g = rng.normal(0.0, 1.0, size=2)
        b = op.b(x)
        be = pair.b_eps_at(x, g)
        assert np.all(np.abs(be) <= np.abs(b) + 1e-15)
        assert abs(be @ g) <= abs(b @ g) + 1e-15


# ---------------------------------------------------------------- norms

def test_local_norm_unit_field():
    vals = np.ones((33, 33))
    assert E.local_norm(vals, 1.0 / 32.0) == pytest.approx(
        33.0 / 32.0, rel=1e-12)


def test_local_norm_quarter_region():
    vals = np.ones((33, 33))
    I, J = np.meshgrid(np.arange(33), np.arange(33), indexing="ij")
    region = (I < 16) & (J < 16)
    assert E.local_norm(vals, 1.0 / 32.0, region=region) == \
        pytest.approx(0.5, rel=1e-12)


def test_local_norm_monotone_in_region():
    rng = np.random.default_rng(8)
    vals = rng.normal(0.0, 1.0, size=(20, 20))
    I, J = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
    small = (I < 8) & (J < 8)
    big = (I < 15) & (J < 15)
    assert E.local_norm(vals, 0.05, region=small) <= \
        E.local_norm(vals, 0.05, region=big) + 1e-15


def test_local_norm_ideal_property():
    rng = np.random.default_rng(9)
    f = rng.normal(0.0, 1.0, size=(16, 16))
    g = f * rng.uniform(0.0, 1.0, size=f.shape)
    assert E.local_norm(g, 0.1) <= E.local_norm(f, 0.1) + 1e-15


def test_local_norm_empty_region():
    with pytest.raises(ValueError, match="region contains no grid nodes"):
        E.local_norm(np.ones((4, 4)), 0.1, region=np.zeros((4, 4), bool))


def test_norm_modulus_disc_area():
    h = 1.0 / 64.0
    vals = np.ones((129, 129))
    for rho in (0.25, 0.125):
        mu = norm_modulus(vals, h, [rho])[0]
        assert mu == pytest.approx(math.sqrt(math.pi) * rho,
                                   rel=4.0 * h / rho)


def test_norm_modulus_zero_and_monotone():
    h = 1.0 / 32.0
    zeros = np.zeros((65, 65))
    assert norm_modulus(zeros, h, [0.2])[0] == 0.0
    rng = np.random.default_rng(10)
    vals = rng.uniform(0.0, 1.0, size=(65, 65))
    mus = norm_modulus(vals, h, [0.3, 0.2, 0.1])
    assert np.all(np.diff(mus) <= 1e-12)


@pytest.mark.parametrize("call, match", [
    (lambda: E.mollify_a(_jump_field, 0.0, (-1.0, 1.0, 0.0, 1.0)),
     "epsilon must be positive"),
    (lambda: norm_modulus(np.full((4, 4), np.nan), 0.1, [0.2]),
     "region contains no grid nodes"),
    (lambda: norm_modulus(np.ones((4, 4)), 0.1, [0.2, 0.0]),
     "radii must be positive"),
], ids=["mollify-epsilon", "modulus-empty", "modulus-rho"])
def test_smoothing_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------- approx

def analytic_L_difference(op, pair, X1, X2, grad, hess):
    """(L - L_eps)u on grid points from analytic derivatives of u."""
    a11, a22, a12 = op.a_grid(X1, X2)
    e11, e22, e12 = pair.a_eps(X1, X2)
    diff = (-(a11 - e11) * hess[0] - (a22 - e22) * hess[2]
            - 2.0 * (a12 - e12) * hess[1])
    b1, b2 = op.b_grid(X1, X2)
    t1, t2 = pair.b_eps_raw(X1, X2)
    diff = diff + (b1 - t1) * grad[0] + (b2 - t2) * grad[1]
    return diff


def test_approximation_difference_decreases_to_floor():
    op = E.preset_operator("checker:0.25")
    h = 2.0**-6
    xs = np.arange(-0.5, 0.5 + h / 2, h)
    ys = np.arange(0.0, 0.5 + h / 2, h)
    X1, X2 = np.meshgrid(xs, ys, indexing="ij")
    # fixed smooth u = sin(pi x1) cos(pi x2) with analytic derivatives
    grad = (math.pi * np.cos(math.pi * X1) * np.cos(math.pi * X2),
            -math.pi * np.sin(math.pi * X1) * np.sin(math.pi * X2))
    hess = (-math.pi**2 * np.sin(math.pi * X1) * np.cos(math.pi * X2),
            -math.pi**2 * np.cos(math.pi * X1) * np.sin(math.pi * X2),
            -math.pi**2 * np.sin(math.pi * X1) * np.cos(math.pi * X2))
    norms = []
    for m in range(1, 9):
        pair = E.approximate(op, 2.0**-m, box=(-0.5, 0.5, 0.0, 0.5))
        diff = analytic_L_difference(op, pair, X1, X2, grad, hess)
        norms.append(E.local_norm(diff, h))
    norms = np.asarray(norms)
    # monotone decrease within 1%, settling on a grid-resolution floor
    assert np.all(norms[1:] <= norms[:-1] * 1.01), norms
    assert norms[-1] <= norms[0]
    assert norms[-1] == pytest.approx(norms[-2], rel=0.2)
