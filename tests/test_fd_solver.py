import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from hopflab import convex_geometry as G
from hopflab import elliptic_operator as E
from hopflab import fd_solver as F
from hopflab.decay_analysis import sector_harmonic
from helpers import aleksandrov_constant_fit


def bc_linear(X1, X2):
    return np.asarray(X2, dtype=float) * np.ones_like(np.asarray(X1, float))


def solve_preset(profile_id, op_id, h, bc=bc_linear, R0=0.5, source=None):
    """Solve on a preset profile; ``op_id`` is a preset id or an operator."""
    prof = G.preset_profile(profile_id, R0=R0)
    dom = F.DiscreteDomain.build(prof, h)
    op = E.preset_operator(op_id) if isinstance(op_id, str) else op_id
    system = F.discretize(op, dom, bc, source=source)
    return F.solve(system), system, dom


def _mixed_drift_operator(a12):
    """a11 = a22 = 1, constant a12 and the drift:1.5 field."""
    def a_grid(X1, X2):
        ones = np.ones(np.broadcast(np.asarray(X1), np.asarray(X2)).shape)
        return ones, ones.copy(), np.full(ones.shape, a12)

    return E.EllipticOperator(nu=1.0 - abs(a12), a_grid=a_grid,
                              b_grid=E.preset_operator("drift:1.5").b_grid)


MIXED_DRIFT = [pytest.param(_mixed_drift_operator(0.4), id="a12=+0.4"),
               pytest.param(_mixed_drift_operator(-0.4), id="a12=-0.4")]


# ---------------------------------------------------------------- exactness

def test_halfspace_linear_is_exact():
    sol, system, dom = solve_preset("flat", "laplace", 2.0**-6)
    exact = dom.mask.x2[dom.interior_ij[:, 1]]
    assert np.abs(sol.vec - exact).max() <= 1e-9
    assert sol.residual_norm <= 1e-10


def test_hopf_trace_of_linear_solution():
    sol, _, _ = solve_preset("flat", "laplace", 2.0**-6)
    tr = F.hopf_trace(sol, [2.0**-2, 2.0**-3, 2.0**-4])
    np.testing.assert_allclose(tr, 1.0, atol=1e-12)


def test_hopf_trace_misaligned():
    h = 2.0**-6
    sol, _, _ = solve_preset("flat", "laplace", h)
    # not a multiple of 2^-6; the base row; above the box top; half a
    # cell off a line; a good height does not hide a bad one after it
    for heights in ([0.1], [0.0], [0.5 + h], [2.0**-3 + h / 2.0],
                    [2.0**-2, 0.1], [-h], [float("nan")], [float("inf")]):
        with pytest.raises(ValueError, match="not a grid line"):
            F.hopf_trace(sol, heights)
    # the box top is a grid line with data
    assert F.hopf_trace(sol, [0.5])[0] == pytest.approx(1.0, abs=1e-12)


def test_hopf_trace_looks_up_rows_by_coordinate():
    # h = 0.01 is not a power of two: the heights round(r/h) h that
    # run_experiment passes are the rows j = round(r/h), whose value the
    # trace divides by x2[j]
    h = 0.01
    sol, _, dom = solve_preset("log1", "laplace", h)
    radii = [2.0**-k * 0.5 for k in range(5)]
    heights = [round(r / h) * h for r in radii]
    j = np.array([round(r / h) for r in radii])
    expect = (sol.values[dom.mask.center_col, j] / dom.mask.x2[j])
    assert F.hopf_trace(sol, heights).tobytes() == expect.tobytes()
    assert F.hopf_trace(sol, []).size == 0


def test_hopf_trace_needs_a_solution_value():
    sol, _, _ = solve_preset("log1", "laplace", 2.0**-6)
    col = sol.dom.mask.center_col
    values = sol.values.copy()
    values[col, 4] = np.nan
    sol = dataclasses.replace(sol, values=values)
    with pytest.raises(ValueError, match="no solution value"):
        F.hopf_trace(sol, [2.0**-2, 4 * 2.0**-6])


def test_mixed_term_and_drift_exact_on_linear():
    # constant a with a12 != 0 plus drift: u = x2 solves L u = b2 exactly,
    # so the 9-point split and the upwinding reproduce it to roundoff
    def a_grid(X1, X2):
        s = np.broadcast(np.asarray(X1), np.asarray(X2)).shape
        return np.full(s, 1.0), np.full(s, 1.0), np.full(s, 0.4)

    def b_grid(X1, X2):
        X1 = np.asarray(X1, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        return (0.3 * np.ones(np.broadcast(X1, X2).shape),
                -0.2 * np.cos(X1) * np.ones_like(X2))

    op = E.EllipticOperator(nu=0.5, a_grid=a_grid, b_grid=b_grid)
    prof = G.preset_profile("flat", R0=0.5)
    dom = F.DiscreteDomain.build(prof, 2.0**-5)
    src = lambda X1, X2: -0.2 * np.cos(np.asarray(X1)) * np.ones_like(
        np.asarray(X2))
    sol = F.solve(F.discretize(op, dom, bc_linear, source=src))
    exact = dom.mask.x2[dom.interior_ij[:, 1]]
    assert np.abs(sol.vec - exact).max() <= 1e-9


# ---------------------------------------------------------------- M-matrix

@pytest.mark.parametrize("profile_id,op_id", [
    ("power:1", "laplace"),
    ("power:1", "aniso:0.5,2"),
    ("log1", "checker:0.25"),
    ("power:0.5", "drift:2.0"),
] + [pytest.param("log1", p.values[0], id=f"log1-{p.id}")
     for p in MIXED_DRIFT])
def test_m_matrix_structure(profile_id, op_id):
    _, system, _ = solve_preset(profile_id, op_id, 2.0**-6)
    rep = system.m_matrix_report()
    assert rep["offdiag_ok"], rep
    assert rep["rowsum_ok"], rep


def test_a12_monotonicity_guard():
    def a_bad(X1, X2):
        s = np.broadcast(np.asarray(X1), np.asarray(X2)).shape
        return np.full(s, 1.0), np.full(s, 1.0), np.full(s, 1.5)

    op = E.EllipticOperator(nu=0.4, a_grid=a_bad, b_grid=E._zero_b)
    dom = F.DiscreteDomain.build(G.preset_profile("flat", R0=0.5), 2.0**-5)
    with pytest.raises(F.StencilMonotonicityError):
        F.discretize(op, dom, bc_linear)


def test_non_finite_coefficient_rejected():
    # a NaN a12 passes |a12| > min(a11, a22) as False: it must not drop out
    # of the stencil, nor reach the matrix
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-5)
    k = dom.n_unknowns // 2
    x1, x2 = (v[dom.interior_ij[k, c]]
              for c, v in enumerate((dom.mask.x1, dom.mask.x2)))

    def a_grid(X1, X2):
        ones = np.ones(np.broadcast(np.asarray(X1), np.asarray(X2)).shape)
        a12 = 0.2 * ones
        a12[(X1 == x1) & (X2 == x2)] = np.nan
        return ones, ones.copy(), a12

    op = E.EllipticOperator(nu=0.5, a_grid=a_grid, b_grid=E._zero_b)
    with pytest.raises(ValueError, match="a12 = nan is not finite") as err:
        F.discretize(op, dom, bc_linear)
    assert not isinstance(err.value, F.StencilMonotonicityError)


@pytest.mark.parametrize("op_id,bc,name", [
    ("aniso:1e308,1", bc_linear, "diagonal"),
    ("drift:1e308", bc_linear, "diagonal"),
    ("laplace", lambda X1, X2: 1e308 * bc_linear(X1, X2), "rhs"),
])
def test_overflowing_assembly_rejected(op_id, bc, name):
    # finite coefficients and data whose assembled entries overflow: named
    # at their first node, with no floating-point warning on the way
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=rf"^{name} = -?inf is not finite at \("):
            F.discretize(E.preset_operator(op_id), dom, bc)


def test_shortley_weller_fractions_in_rows():
    # near-curve rows keep nonpositive off-diagonals with shortened arms
    _, system, dom = solve_preset("power:1", "laplace", 2.0**-6)
    fracs = dom.mask.frac_e[~np.isnan(dom.mask.frac_e)]
    assert fracs.size > 0
    assert np.all((fracs > 0.0) & (fracs <= 1.0))
    assert np.any(fracs < 1.0)


# ---------------------------------------------------------------- principles

@pytest.mark.parametrize("op_id", ["laplace", "aniso:0.5,2",
                                   "checker:0.25", "drift:2.0"]
                         + MIXED_DRIFT)
def test_discrete_maximum_principle(op_id):
    sol, _, dom = solve_preset("log1", op_id, 2.0**-6)
    assert sol.vec.min() >= -1e-12
    assert sol.vec.max() <= 0.5 + 1e-12  # max of the boundary data


def test_comparison_principle():
    prof = G.preset_profile("power:1", R0=0.5)
    dom = F.DiscreteDomain.build(prof, 2.0**-6)
    op = E.preset_operator("laplace")
    bc_lo = lambda X1, X2: 0.5 * bc_linear(X1, X2)
    sol_lo = F.solve(F.discretize(op, dom, bc_lo))
    sol_hi = F.solve(F.discretize(op, dom, bc_linear))
    assert np.all(sol_lo.vec <= sol_hi.vec + 1e-12)


def _constant_operator(a11, a22, a12, b1, b2):
    def a_grid(X1, X2):
        ones = np.ones(np.broadcast(np.asarray(X1), np.asarray(X2)).shape)
        return a11 * ones, a22 * ones, a12 * ones

    def b_grid(X1, X2):
        ones = np.ones(np.broadcast(np.asarray(X1), np.asarray(X2)).shape)
        return b1 * ones, b2 * ones

    eig = np.linalg.eigvalsh([[a11, a12], [a12, a22]])
    return E.EllipticOperator(nu=float(min(eig[0], 1.0 / eig[1])),
                              a_grid=a_grid, b_grid=b_grid)


def _linear_data(c0, c1, c2):
    return lambda X1, X2: c0 + c1 * np.asarray(X1, float) \
        + c2 * np.asarray(X2, float)


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(s_right=st.floats(0.0, 0.8), s_left=st.floats(0.0, 0.8),
       pieces=st.lists(st.tuples(st.floats(-0.8, 0.8),
                                 st.floats(-0.3, -0.05)), max_size=2),
       a11=st.floats(0.5, 2.0), a22=st.floats(0.5, 2.0),
       t=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       drift=st.booleans(),
       b=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       g=st.tuples(_unit, _unit, _unit),
       dg=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       h=st.sampled_from([2.0**-5, 2.0**-6]))
def test_random_system_principles(s_right, s_left, pieces, a11, a22, t,
                                  drift, b, g, dg, h):
    # a random max-affine graph (F >= 0, F(0) = 0) and a random admissible
    # constant operator |a12| <= min(a11, a22), with or without drift:
    # the matrix is an M-matrix, u stays within the range of its boundary
    # data (0 on the curve) and ordered data give ordered solutions.
    # With a12 = 0 the red unknowns are eliminated, with a12 != 0 none
    # is, and either way the Schur complement left is again an M-matrix
    # with row sums >= 0
    slopes = [s_right, -s_left] + [p for p, _ in pieces]
    offsets = [0.0, 0.0] + [c for _, c in pieces]
    dom = F.DiscreteDomain.build(_max_affine(slopes, offsets), h)
    a12 = t * min(a11, a22)
    op = _constant_operator(a11, a22, a12, *(b if drift else (0.0, 0.0)))
    g1 = _linear_data(*g)
    g2 = _linear_data(g[0] + dg[0], g[1], g[2] + dg[1])   # g2 - g1 >= 0
    system = F.discretize(op, dom, g1)
    rep = system.m_matrix_report()
    assert rep["offdiag_ok"], rep
    assert rep["rowsum_ok"], rep
    elim = _schur_input(system)
    assert (elim.red.size == 0) == (a12 != 0.0)
    S = elim.schur()
    coo = S.tocoo()
    assert coo.data[coo.row != coo.col].max(initial=0.0) <= 0.0
    diag = S.diagonal()
    assert np.all(diag > 0.0)
    rowsum = np.asarray(S.sum(axis=1)).ravel()
    assert np.all(rowsum >= -1e-12 * diag)
    u1 = F.solve(system).vec
    mask = dom.mask
    ei, ej = np.nonzero(mask.cls == G.EDGE)
    data = g1(mask.x1[ei], mask.x2[ej])
    assert u1.min() >= min(data.min(), 0.0) - 1e-12
    assert u1.max() <= max(data.max(), 0.0) + 1e-12
    u2 = F.solve(F.discretize(op, dom, g2)).vec
    assert np.all(u1 <= u2 + 1e-12)


def test_aleksandrov_bound_stable_across_presets():
    # sup u <= N0 * diam * ||f_+||_2 with zero boundary data; the fitted
    # ratio varies by less than a factor 3 between operators at nu = 0.5
    prof = G.preset_profile("flat", R0=0.5)
    dom = F.DiscreteDomain.build(prof, 2.0**-6)
    diam = math.hypot(1.0, 0.5)
    bc0 = lambda X1, X2: np.zeros(np.broadcast(np.asarray(X1),
                                               np.asarray(X2)).shape)
    runs = {}
    for op_id in ("laplace", "aniso:0.5,2", "checker:0.25"):
        src = lambda X1, X2: np.ones(np.broadcast(np.asarray(X1),
                                                  np.asarray(X2)).shape)
        sol = F.solve(F.discretize(E.preset_operator(op_id), dom, bc0,
                                   source=src))
        vals = np.full(dom.mask.cls.shape, np.nan)
        vals[dom.interior_ij[:, 0], dom.interior_ij[:, 1]] = 1.0
        f_norm = E.local_norm(vals, dom.mask.dx1[0],
                              region=np.isfinite(vals))
        runs[op_id] = {"sup_u": float(sol.vec.max()), "diam": diam,
                       "f_norm": f_norm}
    fit = aleksandrov_constant_fit(list(runs.values()))
    ratios = fit.per_run_ratio
    assert max(ratios) / min(ratios) < 3.0
    # cross-check against the radial solution of the unit source problem
    # on a disc: u <= (R^2 - r^2)/4 <= R^2/4 wherever a disc fits
    assert runs["laplace"]["sup_u"] <= 0.5**2 / 4.0 + 1e-6


# ---------------------------------------------------------------- assembly

def coo_reference_discretize(op, dom, bc_top_side, source=None,
                             a12_tol=1e-12):
    """Reference: the COO assembly that ``discretize`` replaced.  Every
    coefficient is appended to row/col/value lists, and the COO -> CSR
    conversion sums the duplicates.  It reads one spacing, h, for the
    whole grid."""
    mask = dom.mask
    h = mask.dx1[0]
    x1, x2 = mask.x1, mask.x2
    cls = mask.cls
    idx = dom.index
    ii = dom.interior_ij[:, 0]
    jj = dom.interior_ij[:, 1]
    N = ii.size

    X1 = x1[ii]
    X2 = x2[jj]
    a11, a22, a12 = (np.asarray(v, dtype=float)
                     for v in op.a_grid(X1, X2))
    b1, b2 = (np.asarray(v, dtype=float) for v in op.b_grid(X1, X2))
    a11 = np.broadcast_to(a11, (N,)).copy()
    a22 = np.broadcast_to(a22, (N,)).copy()
    a12 = np.broadcast_to(a12, (N,)).copy()
    b1 = np.broadcast_to(b1, (N,)).copy()
    b2 = np.broadcast_to(b2, (N,)).copy()
    if np.any(np.abs(a12) > np.minimum(a11, a22) + a12_tol):
        raise F.StencilMonotonicityError("|a12| > min(a11, a22)")

    A1 = a11 - np.abs(a12)
    A2 = a22 - np.abs(a12)

    diag = np.zeros(N)
    rhs = np.zeros(N)
    rows: list = []
    cols: list = []
    vals: list = []

    def couple(k_arr, target_i, target_j, coef):
        tcls = cls[target_i, target_j]
        unk = tcls == G.INTERIOR
        if np.any(unk):
            rows.append(k_arr[unk])
            cols.append(idx[target_i[unk], target_j[unk]])
            vals.append(coef[unk])
        bcn = tcls == G.EDGE
        if np.any(bcn):
            g = np.asarray(bc_top_side(x1[target_i[bcn]], x2[target_j[bcn]]),
                           dtype=float)
            rhs[k_arr[bcn]] -= coef[bcn] * g

    karr = np.arange(N)
    fw = mask.frac_w[ii, jj]
    fe = mask.frac_e[ii, jj]
    south = np.full(cls.shape, np.nan)
    south.ravel()[mask.arms_s.at] = mask.arms_s.frac
    fs = south[ii, jj]
    alpha_w = np.where(np.isnan(fw), 1.0, fw)
    alpha_e = np.where(np.isnan(fe), 1.0, fe)
    alpha_s = np.where(np.isnan(fs), 1.0, fs)
    alpha_n = np.ones(N)
    cross_w = ~np.isnan(fw) & (cls[ii - 1, jj] == G.EXTERIOR)
    cross_e = ~np.isnan(fe) & (cls[ii + 1, jj] == G.EXTERIOR)
    cross_s = ~np.isnan(fs) & (cls[ii, jj - 1] == G.EXTERIOR)

    def second_diff(k, weight, a_minus, a_plus, di, dj, cross_minus,
                    cross_plus, denom):
        c_m = -2.0 * weight / (a_minus * (a_minus + a_plus) * denom)
        c_p = -2.0 * weight / (a_plus * (a_minus + a_plus) * denom)
        diag[k] += 2.0 * weight / (a_minus * a_plus * denom)
        i, j = ii[k], jj[k]
        keep_m = ~cross_minus & (np.abs(c_m) > 0.0)
        couple(k[keep_m], i[keep_m] - di, j[keep_m] - dj, c_m[keep_m])
        keep_p = ~cross_plus & (np.abs(c_p) > 0.0)
        couple(k[keep_p], i[keep_p] + di, j[keep_p] + dj, c_p[keep_p])

    second_diff(karr, A1, alpha_w, alpha_e, 1, 0, cross_w, cross_e, h * h)
    second_diff(karr, A2, alpha_s, alpha_n, 0, 1, cross_s,
                np.zeros(N, dtype=bool), h * h)
    for s in (1, -1):
        k = np.nonzero(s * a12 > 0.0)[0]
        i, j = ii[k], jj[k]
        fp = G.arm_fraction(mask, dom.profile, i, j, s, 1)
        fm = G.arm_fraction(mask, dom.profile, i, j, -s, -1)
        second_diff(k, 2.0 * np.abs(a12[k]), fp, fm, -s, -1,
                    cls[i + s, j + 1] == G.EXTERIOR,
                    cls[i - s, j - 1] == G.EXTERIOR, 2.0 * h * h)

    up1 = b1 > 0.0
    if np.any(np.abs(b1) > 0.0):
        c = np.where(up1, b1 / (alpha_w * h), 0.0)
        diag[:] += c
        keep = up1 & ~cross_w & (np.abs(c) > 0)
        couple(karr[keep], ii[keep] - 1, jj[keep], -c[keep])
        c = np.where(~up1, -b1 / (alpha_e * h), 0.0)
        diag[:] += c
        keep = ~up1 & ~cross_e & (np.abs(c) > 0)
        couple(karr[keep], ii[keep] + 1, jj[keep], -c[keep])
    up2 = b2 > 0.0
    if np.any(np.abs(b2) > 0.0):
        c = np.where(up2, b2 / (alpha_s * h), 0.0)
        diag[:] += c
        keep = up2 & ~cross_s & (np.abs(c) > 0)
        couple(karr[keep], ii[keep], jj[keep] - 1, -c[keep])
        c = np.where(~up2, -b2 / (alpha_n * h), 0.0)
        diag[:] += c
        keep = ~up2 & (np.abs(c) > 0)
        couple(karr[keep], ii[keep], jj[keep] + 1, -c[keep])

    if source is not None:
        rhs += np.asarray(source(X1, X2), dtype=float)

    rows.append(karr)
    cols.append(karr)
    vals.append(diag)
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N))
    return F.LinearSystem(matrix=matrix, rhs=rhs, dom=dom, bc=bc_top_side)


def assert_same_system(system, ref):
    A, R = system.matrix, ref.matrix
    assert A.has_canonical_format
    for a, r in ((A.indptr, R.indptr), (A.indices, R.indices),
                 (A.data, R.data), (system.rhs, ref.rhs)):
        assert a.dtype == r.dtype
        assert a.tobytes() == r.tobytes()


def _a12_sine(low=-np.inf):
    """a11 = 1, a22 = 1.2 and a12 = max(low, 0.8 sin(7 x1 + 3 x2)), which
    changes sign across the grid, or with ``low = 0`` keeps one sign and
    is exactly 0 on part of it."""
    def a_grid(X1, X2):
        a12 = 0.8 * np.sin(7.0 * np.asarray(X1) + 3.0 * np.asarray(X2))
        a12 = np.maximum(low, a12)
        return np.ones_like(a12), np.full(a12.shape, 1.2), a12

    return E.EllipticOperator(nu=0.1, a_grid=a_grid,
                              b_grid=E.preset_operator("drift:-2").b_grid)


@pytest.mark.parametrize("op", [
    pytest.param(E.preset_operator(o), id=o)
    for o in ("laplace", "aniso:0.5,2", "checker:0.25", "drift:1.5")
] + MIXED_DRIFT + [pytest.param(_a12_sine(), id="a12-both-signs"),
                   pytest.param(_a12_sine(0.0), id="a12-zero-on-part")])
@pytest.mark.parametrize("profile_id", ["log1", "power:0.5", "cone:0.4",
                                        "flat", "wedge:2.0944"])
def test_one_pass_assembly_matches_coo_reference(profile_id, op):
    prof = G.preset_profile(profile_id, R0=0.5)
    bc = sector_harmonic(2.0944) if profile_id.startswith("wedge") \
        else bc_linear
    # 0.5/48 is not a power of two: node differences there are not h
    for h in (2.0**-6, 0.5 / 48):
        dom = F.DiscreteDomain.build(prof, h)
        assert_same_system(F.discretize(op, dom, bc),
                           coo_reference_discretize(op, dom, bc))


@settings(max_examples=30, deadline=None)
@given(slopes=st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=4),
       offsets=st.lists(st.floats(-0.3, 0.0), min_size=4, max_size=4),
       a11=st.floats(0.5, 2.0), a22=st.floats(0.5, 2.0),
       t=st.floats(-1.0, 1.0),
       b=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       g=st.tuples(_unit, _unit, _unit))
def test_random_assembly_matches_coo_reference(slopes, offsets, a11, a22,
                                               t, b, g):
    # a random max-affine graph through the origin and a random admissible
    # constant operator, drift included: bitwise the COO assembly, with a
    # source term and boundary data of both signs
    slopes = [abs(slopes[0]), -abs(slopes[1])] + slopes[2:]
    prof = _max_affine(slopes, [0.0, 0.0] + offsets[:len(slopes) - 2])
    dom = F.DiscreteDomain.build(prof, 2.0**-5)
    op = _constant_operator(a11, a22, t * min(a11, a22), *b)
    data = _linear_data(*g)
    source = _linear_data(g[2], g[0], g[1])
    assert_same_system(F.discretize(op, dom, data, source=source),
                       coo_reference_discretize(op, dom, data,
                                                source=source))


def _traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced above those held before it)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _traced_held(fn, *args):
    """(fn(*args), the bytes traced after it above those held before)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_domain_mask_holds_crossing_arms_only():
    # the mask keeps its classes, coordinates and spacings, and per
    # direction only the arms that meet the graph, not a grid of them
    prof = G.preset_profile("log1", R0=0.5)
    mask, held = _traced_held(G.domain_mask, prof, 2.0**-8)
    arms = (mask.arms_w, mask.arms_e, mask.arms_s)
    n_arms = sum(a.at.size for a in arms)
    assert n_arms > 0
    grid = sum(v.nbytes for v in (mask.cls, mask.x1, mask.x2, mask.dx1,
                                  mask.dx2))
    assert held <= grid + 64 * n_arms


def test_dense_fractions_are_the_arms_on_a_nan_grid():
    # the frac_w/e views are the arms scattered into NaN grids, bitwise,
    # so a crossing count read off them is the arm count: 1,022 west and
    # east arms on log1 at h = 2^-10
    mask = G.domain_mask(G.preset_profile("log1", R0=0.5), 2.0**-10)
    for arms, dense in ((mask.arms_w, mask.frac_w),
                        (mask.arms_e, mask.frac_e)):
        expect = np.full(mask.cls.shape, np.nan)
        expect.ravel()[arms.at] = arms.frac
        assert dense.tobytes() == expect.tobytes()
        assert np.count_nonzero(~np.isnan(dense)) == arms.at.size
    for arms in (mask.arms_w, mask.arms_e, mask.arms_s):
        assert np.all(np.diff(arms.at) > 0)
        assert np.all(mask.cls.ravel()[arms.at] == G.INTERIOR)
    crossings = (np.count_nonzero(~np.isnan(mask.frac_w))
                 + np.count_nonzero(~np.isnan(mask.frac_e)))
    assert crossings == 1022


@pytest.mark.parametrize("op", [
    pytest.param(E.preset_operator(o), id=o) for o in ("laplace", "drift:1.5")
] + MIXED_DRIFT[:1])
def test_assembly_peak_memory(op):
    # the transient peak of one assembly stays within 4x the bytes of the
    # system it returns
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-8)
    system, peak = _traced_peak(F.discretize, op, dom, bc_linear)
    A = system.matrix
    size = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
            + system.rhs.nbytes)
    assert peak <= 4 * size


def test_assembly_holds_only_the_system():
    # with a12 of both signs a row has 9 slots and about 7 entries, so the
    # slot table is about 1.3x the system: once its zero slots are dropped
    # the system keeps compact arrays, not views that hold the table
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-8)
    system, held = _traced_held(F.discretize, _a12_sine(), dom, bc_linear)
    A = system.matrix
    assert A.nnz < 0.8 * 9 * A.shape[0]
    size = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
            + system.rhs.nbytes)
    assert held <= 1.02 * size


# ---------------------------------------------------------------- oscillation

def _manufactured_solution(dom, fn):
    mask = dom.mask
    values = np.full(mask.cls.shape, np.nan)
    X1, X2 = np.meshgrid(mask.x1, mask.x2, indexing="ij")
    inside = mask.cls != G.EXTERIOR
    values[inside] = fn(X1, X2)[inside]
    vec = values[dom.interior_ij[:, 0], dom.interior_ij[:, 1]]
    return F.DiscreteSolution(values=values, vec=vec, residual_norm=0.0,
                              iterations=0, dom=dom, method="manufactured",
                              fill=0)


def test_oscillation_of_linear_quotient_zero():
    prof = G.preset_profile("flat", R0=0.5)
    dom = F.DiscreteDomain.build(prof, 2.0**-5)
    sol = _manufactured_solution(dom, lambda X1, X2: X2)
    for r in (0.1, 0.25, 0.5):
        assert F.oscillation(sol, prof, r) == pytest.approx(0.0, abs=1e-13)


def test_oscillation_frozen_linear_tilt():
    # u = x2 + 0.1 x1 x2: quotient 1 + 0.1 x1, oscillation 0.2 r up to the
    # one-cell raster of the open cylinder
    prof = G.preset_profile("flat", R0=0.5)
    h = 2.0**-6
    dom = F.DiscreteDomain.build(prof, h)
    sol = _manufactured_solution(dom, lambda X1, X2: X2 + 0.1 * X1 * X2)
    for r in (0.25, 0.5):
        osc = F.oscillation(sol, prof, r)
        assert osc == pytest.approx(0.2 * r, abs=0.25 * h)


def test_oscillation_monotone_in_r():
    prof = G.preset_profile("power:1", R0=0.5)
    dom = F.DiscreteDomain.build(prof, 2.0**-6)
    sol, _, _ = solve_preset("power:1", "laplace", 2.0**-6)
    vals = [F.oscillation(sol, prof, r) for r in (0.06, 0.12, 0.25, 0.5)]
    assert np.all(np.diff(vals) >= -1e-13)


def _full_grid_oscillation(sol, r):
    """``oscillation`` as four boolean arrays over the whole grid."""
    mask = sol.dom.mask
    X1 = mask.x1[:, None]
    X2 = mask.x2[None, :]
    region = ((mask.cls == G.INTERIOR) & (np.abs(X1) < r) & (X2 < r)
              & (X2 >= 2 * mask.dx2[0] - 1e-15))
    if not np.any(region):
        return None
    quot = sol.values[region] / np.broadcast_to(X2, mask.cls.shape)[region]
    return float(quot.max() - quot.min())


@pytest.mark.parametrize("profile_id", ["log1", "wedge:2.0944"])
def test_oscillation_window_matches_full_grid(profile_id):
    # the index window holds the nodes of the full-grid mask, so the
    # oscillation is the same float, on grid-line radii and off them
    h = 2.0**-6
    bc = sector_harmonic(2.0944) if profile_id.startswith("wedge") \
        else bc_linear
    sol, _, dom = solve_preset(profile_id, "laplace", h, bc=bc)
    prof = dom.profile
    rng = np.random.default_rng(7)
    radii = np.concatenate((rng.uniform(0.0, 0.5, 40),
                            h * rng.integers(0, 33, 20), [0.5]))
    for r in radii.tolist():
        ref = _full_grid_oscillation(sol, r)
        if ref is None:
            with pytest.raises(ValueError,
                               match="no interior nodes in the cylinder"):
                F.oscillation(sol, prof, r)
        else:
            assert F.oscillation(sol, prof, r) == ref


def test_oscillation_empty_region():
    prof = G.preset_profile("flat", R0=0.5)
    sol, _, _ = solve_preset("flat", "laplace", 2.0**-5)
    with pytest.raises(ValueError,
                       match="no interior nodes in the cylinder"):
        F.oscillation(sol, prof, 2.0**-5)  # cylinder below the noise floor


@pytest.mark.parametrize("call, match", [
    (lambda: F.oscillation(solve_preset("flat", "laplace", 2.0**-5)[0],
                           G.preset_profile("flat", R0=0.5), 0.75),
     "r = 0.75 exceeds the patch radius 0.5"),
    (lambda: F._lines_in(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25])),
     "the refined grid does not hold every coarse node"),
    (lambda: F.convergence_study(E.preset_operator("laplace"),
                                 G.preset_profile("flat", R0=0.5), bc_linear,
                                 [2.0**-5]),
     "h_list must be strictly decreasing with >= 2 entries"),
    (lambda: F.convergence_study(E.preset_operator("laplace"),
                                 G.preset_profile("flat", R0=0.5), bc_linear,
                                 [2.0**-5, 2.0**-4]),
     "h_list must be strictly decreasing with >= 2 entries"),
], ids=["oscillation-r", "lines-in", "h-list-short", "h-list-increasing"])
def test_extraction_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------- solve paths

@pytest.mark.parametrize("op", [pytest.param(E.preset_operator("laplace"),
                                             id="laplace")] + MIXED_DRIFT)
def test_nested_dissection_matches_colamd(op):
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-7)
    system = F.discretize(op, dom, bc_linear)
    N = dom.n_unknowns
    perm = F._nested_dissection(dom.interior_ij)
    assert np.array_equal(np.sort(perm), np.arange(N))
    sol = F.solve(system)
    lu = spla.splu(system.matrix.tocsc(), permc_spec="COLAMD")
    assert np.abs(sol.vec - lu.solve(system.rhs)).max() <= 1e-12
    assert sol.residual_norm <= 1e-10
    assert 0 < sol.fill < lu.nnz


def test_nested_dissection_separator_order():
    # 5 x 3 box of nodes: the middle column i = 2 separates, the lower
    # half i < 2 comes first, the upper half next and the line last
    ii, jj = np.meshgrid(np.arange(5), np.arange(3), indexing="ij")
    ij = np.column_stack((ii.ravel(), jj.ravel()))
    order = ij[F._nested_dissection(ij)]
    assert np.all(order[:6, 0] < 2)
    assert np.all(order[6:12, 0] > 2)
    assert np.all(order[12:, 0] == 2)


def nd_reference(ij):
    """Nested dissection box by box, as ``_nested_dissection`` documents
    it: cut the tight bounding box at (lo + hi) // 2 of its longer side
    (i on a tie), order the lower half, the upper half, then the line, and
    keep a box of at most ``_ND_LEAF`` nodes in input order."""
    def order(nodes):
        if nodes.size <= F._ND_LEAF:
            return [nodes]
        c = ij[nodes]
        lo, hi = c.min(axis=0), c.max(axis=0)
        axis = 0 if hi[0] - lo[0] >= hi[1] - lo[1] else 1
        m = (lo[axis] + hi[axis]) // 2
        x = c[:, axis]
        return order(nodes[x < m]) + order(nodes[x > m]) + [nodes[x == m]]

    return np.concatenate(order(np.arange(ij.shape[0])))


def assert_nd_matches_reference(ij):
    perm = F._nested_dissection(ij)
    ref = nd_reference(ij)
    assert perm.dtype == ref.dtype
    assert perm.tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@example(shape=(1, 1), density=1.0, hole=(0.0, 0.0, 0.0, 0.0),
         offset=(3, 4), seed=0)                      # a single node
@example(shape=(1, 9), density=1.0, hole=(0.0, 0.0, 0.0, 0.0),
         offset=(2, 0), seed=0)                      # a single column
@example(shape=(11, 1), density=1.0, hole=(0.0, 0.0, 0.0, 0.0),
         offset=(0, 5), seed=0)                      # a single row
@given(shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
       density=st.floats(0.02, 1.0),
       hole=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                      st.floats(0.0, 0.8), st.floats(0.0, 0.8)),
       offset=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       seed=st.integers(0, 2**32 - 1))
def test_nested_dissection_matches_reference(shape, density, hole, offset,
                                             seed):
    # random node sets in (i, j) order, as the solver numbers them: holes,
    # offsets from the origin, single rows or columns and single nodes
    occupied = np.random.default_rng(seed).random(shape) < density
    hi, hj = (int(f * n) for f, n in zip(hole[:2], shape))
    wi, wj = (int(f * n) for f, n in zip(hole[2:], shape))
    occupied[hi:hi + wi, hj:hj + wj] = False
    ii, jj = np.nonzero(occupied)
    assert_nd_matches_reference(np.column_stack((ii + offset[0],
                                                 jj + offset[1])))


@pytest.mark.parametrize("fold", [False, True], ids=["full", "folded"])
@pytest.mark.parametrize("profile_id", ["log1", "power:0.5", "wedge:2.0944"])
def test_nested_dissection_of_domains_matches_reference(profile_id, fold):
    dom = F.DiscreteDomain.build(G.preset_profile(profile_id, R0=0.5),
                                 2.0**-7)
    ij = dom.interior_ij
    if fold:
        ij = ij[ij[:, 0] >= dom.mask.center_col]
    assert_nd_matches_reference(ij)


def test_nested_dissection_rejects_unordered_nodes():
    with pytest.raises(ValueError):
        F._nested_dissection(np.array([[0, 0], [1, 0], [0, 1], [1, 1],
                                       [2, 0]]))


def test_nested_dissection_peak_memory():
    # the order's transient arrays stay within 85 bytes per node on the
    # folded log1 node set
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-8)
    ij = dom.interior_ij
    ij = ij[ij[:, 0] >= dom.mask.center_col]
    _, peak = _traced_peak(F._nested_dissection, ij)
    assert peak <= 85 * ij.shape[0]


def _nd_lu(A, ij):
    """``(lu, p)``: the float64 LU of the canonical CSR matrix A, over
    grid nodes at ``ij``, in their nested-dissection order ``p``, with no
    red elimination."""
    p = F._nested_dissection(ij)
    return spla.splu(A[p][:, p].tocsc(), permc_spec="NATURAL",
                     panel_size=F._PANEL), p


def _unfolded_nd_solve(system):
    """The whole system factorized in nested-dissection order, neither
    folded nor reduced by the red elimination.  Returns
    (x, SuperLU.nnz)."""
    lu, p = _nd_lu(system.matrix, system.dom.interior_ij)
    x = np.empty(p.size)
    x[p] = lu.solve(system.rhs[p])
    return x, lu.nnz


def _unfolded_solve(system):
    """The direct path of a system that does not fold: the elimination of
    its red unknowns, none for a 9-point system.  Returns
    (x, SuperLU.nnz)."""
    elim = F._red_black(system.matrix, system.dom.interior_ij)
    x, fill, _ = F._refined_lu_solve(elim, system.rhs)
    return x, fill


def _schur_input(system):
    """The red elimination of the (folded) system that ``solve`` factors."""
    A, _, ij, _ = F._folded_system(system)
    return F._red_black(A, ij)


def _whole_nd_fill(system):
    """SuperLU.nnz of the nested-dissection LU of the whole (folded)
    system, without the red elimination."""
    A, _, ij, _ = F._folded_system(system)
    return _nd_lu(A, ij)[0].nnz


def _laplace_system(profile, h, bc=bc_linear):
    dom = F.DiscreteDomain.build(profile, h)
    return F.discretize(E.preset_operator("laplace"), dom, bc)


def _folds(system):
    """Whether ``solve`` folds the system onto its kept half."""
    return not isinstance(F._folded_system(system)[3], slice)


@pytest.mark.parametrize("h", [2.0**-6, 2.0**-7])
@pytest.mark.parametrize("profile_id", ["log1", "power:0.5", "flat",
                                        "cone:0.4", "wedge:2.0944"])
def test_mirror_fold_matches_full_solve(profile_id, h):
    prof = G.preset_profile(profile_id, R0=0.5)
    bc = sector_harmonic(2.0944) if profile_id.startswith("wedge") \
        else bc_linear
    system = _laplace_system(prof, h, bc)
    half, _, _, rep = F._folded_system(system)
    assert not isinstance(rep, slice)
    sol = F.solve(system)
    lu = spla.splu(system.matrix.tocsc(), permc_spec="COLAMD")
    assert np.abs(sol.vec - lu.solve(system.rhs)).max() <= 1e-12
    assert sol.residual_norm <= 1e-12
    assert 0 < sol.fill < _unfolded_solve(system)[1]
    # the fold only merges columns: the half matrix is still an M-matrix
    # with the row sums of the kept rows
    first = system.matrix.shape[0] - half.shape[0]
    coo = half.tocoo()
    assert coo.data[coo.row != coo.col].max() <= 0.0
    np.testing.assert_allclose(np.asarray(half.sum(axis=1)).ravel(),
                               np.asarray(system.matrix.sum(axis=1)).ravel()
                               [first:], rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("where", ["rhs", "matrix"])
def test_mirror_fold_needs_bitwise_symmetry(where):
    system = _laplace_system(G.preset_profile("log1", R0=0.5), 2.0**-6)
    if where == "rhs":
        rhs = system.rhs.copy()
        k = int(np.nonzero(rhs)[0][0])
        rhs[k] = np.nextafter(rhs[k], np.inf)
        system = dataclasses.replace(system, rhs=rhs)
    else:
        # row 0 sits left of the center column, so its mirror is another row
        matrix = system.matrix.copy()
        matrix.data[matrix.indptr[0]] = np.nextafter(
            matrix.data[matrix.indptr[0]], -np.inf)
        system = dataclasses.replace(system, matrix=matrix)
    assert not _folds(system)
    sol = F.solve(system)
    x, fill = _unfolded_solve(system)
    assert sol.fill == fill
    np.testing.assert_array_equal(sol.vec, x)
    assert sol.residual_norm <= 1e-12


def _max_affine(slopes, offsets):
    return G.MaxAffineProfile(slopes=np.asarray(slopes)[:, None],
                              offsets=offsets, R0=0.5)


@pytest.mark.parametrize("profile,op", [
    pytest.param("log1", p.values[0], id=f"log1-{p.id}") for p in MIXED_DRIFT
] + [
    pytest.param("log1", E.preset_operator("drift:1.5"), id="drift:1.5"),
    pytest.param(_max_affine([0.3, -0.5], [0.0, 0.0]),
                 E.preset_operator("laplace"), id="asymmetric-max-affine"),
])
def test_mirror_fold_skips_asymmetric_systems(profile, op):
    prof = G.preset_profile(profile, R0=0.5) if isinstance(profile, str) \
        else profile
    dom = F.DiscreteDomain.build(prof, 2.0**-6)
    system = F.discretize(op, dom, bc_linear)
    assert not _folds(system)
    assert F.solve(system).fill == _unfolded_solve(system)[1]


def test_mirror_fold_rejects_on_the_diagonal_without_a_copy():
    # drift:1.5 on log1 passes the rhs test, and its diagonal already
    # differs under the mirror: the fold is rejected before any row is
    # copied, and the system comes back as it is
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-8)
    system = F.discretize(E.preset_operator("drift:1.5"), dom, bc_linear)
    ii, jj = dom.interior_ij[:, 0], dom.interior_ij[:, 1]
    m = dom.index[dom.mask.x1.size - 1 - ii, jj]
    assert np.array_equal(system.rhs[m], system.rhs)
    (A, _, _, rep), peak = _traced_peak(F._folded_system, system)
    assert isinstance(rep, slice)
    assert A is system.matrix
    assert peak < A.data.nbytes + A.indices.nbytes


def _nudged_entry(system, i, di):
    """``system`` with the entry of row (i, j) at column (i + di, j),
    for the lowest j where both are unknowns, moved by one ulp."""
    index = system.dom.index
    j = int(np.flatnonzero((index[i] >= 0) & (index[i + di] >= 0))[0])
    row, col = index[i, j], index[i + di, j]
    matrix = system.matrix.copy()
    matrix[row, col] = np.nextafter(matrix[row, col], -np.inf)
    return dataclasses.replace(system, matrix=matrix)


def test_mirror_fold_tests_only_the_dropped_rows():
    # a kept center row need not be its own mirror: with its W entry one
    # ulp off its E entry the system still folds, and the even solution
    # of the half system solves it, with the unperturbed fill.  A kept row
    # right of the center is the mirror of a dropped row, so one ulp there
    # rejects the fold
    system = _laplace_system(G.preset_profile("log1", R0=0.5), 2.0**-6)
    c = system.dom.mask.center_col
    center = _nudged_entry(system, c, -1)
    assert _folds(center)
    sol = F.solve(center)
    ref = spla.splu(center.matrix.tocsc(), permc_spec="COLAMD").solve(
        center.rhs)
    assert np.abs(sol.vec - ref).max() <= 1e-12 * np.abs(ref).max()
    assert sol.fill == F.solve(system).fill
    right = _nudged_entry(system, c + 1, 1)
    assert not _folds(right)
    x, fill = _unfolded_solve(right)
    sol = F.solve(right)
    assert sol.fill == fill
    np.testing.assert_array_equal(sol.vec, x)


def test_mirror_fold_peak_memory():
    # the fold test copies only the dropped rows, not the whole matrix:
    # with the kept half it builds, the peak stays within 1.5 times A's
    # data and indices
    system = _laplace_system(G.preset_profile("log1", R0=0.5), 2.0**-8)
    (_, _, _, rep), peak = _traced_peak(F._folded_system, system)
    assert not isinstance(rep, slice)
    A = system.matrix
    assert peak <= 1.5 * (A.data.nbytes + A.indices.nbytes)


def test_folded_solve_leaves_the_matrix():
    # no array of the caller's matrix is sorted or written by a folded solve
    system = _laplace_system(G.preset_profile("log1", R0=0.5), 2.0**-6)
    assert _folds(system)
    A = system.matrix
    before = [a.tobytes() for a in (A.data, A.indices, A.indptr)]
    F.solve(system)
    assert [a.tobytes() for a in (A.data, A.indices, A.indptr)] == before


_max_affine_pieces = st.lists(
    st.tuples(st.floats(0.0, 0.9), st.floats(-0.3, -0.05)), max_size=3)


@settings(max_examples=20, deadline=None)
@given(s0=st.floats(0.1, 0.6), pieces=_max_affine_pieces,
       stretch=st.floats(0.05, 0.5))
def test_mirror_fold_random_max_affine(s0, pieces, stretch):
    # slopes in +- pairs fold and match the whole solve; stretching one
    # slope of the pair through the origin, which alone is active at
    # x1 = +-h, breaks the mirror and the system is solved whole
    slopes = [s0, -s0] + [v for s, _ in pieces for v in (s, -s)]
    offsets = [0.0, 0.0] + [c for _, c in pieces for _ in (0, 1)]
    even = _laplace_system(_max_affine(slopes, offsets), 2.0**-5)
    assert _folds(even)
    sol = F.solve(even)
    assert np.abs(sol.vec - _unfolded_nd_solve(even)[0]).max() <= 1e-12
    slopes[1] *= 1.0 + stretch
    odd = _laplace_system(_max_affine(slopes, offsets), 2.0**-5)
    assert not _folds(odd)


_SCHUR_PROFILES = [
    pytest.param("log1", bc_linear, id="log1"),
    pytest.param("power:0.5", bc_linear, id="power:0.5"),
    pytest.param("wedge:2.0944", sector_harmonic(2.0944), id="wedge-sector"),
    pytest.param(_max_affine([0.3, -0.5], [0.0, 0.0]), bc_linear,
                 id="asymmetric-max-affine"),
]


@pytest.mark.parametrize("h", [2.0**-6, 2.0**-7])
@pytest.mark.parametrize("op_id", ["laplace", "aniso:0.5,2", "checker:0.25",
                                   "drift:1.5"])
@pytest.mark.parametrize("profile,bc", _SCHUR_PROFILES)
def test_red_black_schur_matches_colamd(profile, bc, op_id, h):
    # every 5-point system, folded or not, is solved through the Schur
    # complement of its black unknowns, whose factor fills less than the
    # nested-dissection factor of the whole (folded) system
    prof = G.preset_profile(profile, R0=0.5) if isinstance(profile, str) \
        else profile
    system = F.discretize(E.preset_operator(op_id),
                          F.DiscreteDomain.build(prof, h), bc)
    elim = _schur_input(system)
    assert elim.red.size > 0
    # with a float64 factor of S, one correction solves the (folded)
    # system to rounding
    S = elim.schur()
    lu = spla.splu(sp.csc_matrix((S.data, S.indices, S.indptr),
                                 shape=S.shape), permc_spec="NATURAL")
    r = np.linspace(-1.0, 1.0, elim.A.shape[0])
    z = elim.correction(lu, np.float64)(r)
    assert np.abs(elim.A @ z - r).max() <= 1e-12
    sol = F.solve(system)
    ref = spla.splu(system.matrix.tocsc(), permc_spec="COLAMD").solve(
        system.rhs)
    assert np.abs(sol.vec - ref).max() <= 1e-12 * np.abs(ref).max()
    assert sol.residual_norm <= 1e-12
    assert 0 < sol.fill < _whole_nd_fill(system)


@pytest.mark.parametrize("op", MIXED_DRIFT)
def test_nine_point_systems_keep_the_whole_factor(op):
    # a12 != 0: the diagonal arms join nodes of one color, so no unknown
    # is red, and SuperLU factors the whole system in the
    # nested-dissection order of its nodes, bitwise A[p][:, p]
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-7)
    system = F.discretize(op, dom, bc_linear)
    elim = _schur_input(system)
    assert elim.red.size == 0 and elim.red_at.size == 0
    p = F._nested_dissection(dom.interior_ij)
    np.testing.assert_array_equal(elim.black, p)
    ref = system.matrix[p][:, p]
    ref.sort_indices()
    S = elim.schur()
    for a, b in ((S.indptr, ref.indptr), (S.indices, ref.indices),
                 (S.data, ref.data)):
        assert a.tobytes() == b.tobytes()
    sol = F.solve(system)
    assert sol.fill == spla.splu(ref.tocsc(), permc_spec="NATURAL",
                                 panel_size=F._PANEL).nnz
    colamd = spla.splu(system.matrix.tocsc(), permc_spec="COLAMD").solve(
        system.rhs)
    assert np.abs(sol.vec - colamd).max() <= 1e-12


# ---------------------------------------------------------------- refinement

def _float64_reference(system, steps=3, residual=np.float64):
    """A float64 LU of the whole system in COLAMD order, refined for a
    fixed number of steps, past convergence on these grids, with residuals
    computed in ``residual``.  In long double its error is a few units of
    float64 rounding, below what a float64 residual can resolve."""
    A = system.matrix.tocsr()
    b = system.rhs.astype(residual)
    data = A.data.astype(residual)
    lu = spla.splu(A.tocsc(), permc_spec="COLAMD")
    x = lu.solve(system.rhs)
    for _ in range(steps):
        xr = x.astype(residual)
        r = b - np.add.reduceat(data * xr[A.indices], A.indptr[:-1])
        x = (xr + lu.solve(r.astype(np.float64))).astype(np.float64)
    return x


def _record_factor_dtypes(monkeypatch):
    """Value types of the matrices handed to SuperLU from here on."""
    dtypes = []
    splu = spla.splu

    def recording(A, **kwargs):
        dtypes.append(A.dtype)
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return dtypes


@pytest.mark.parametrize("profile_id,op", [
    pytest.param(p, E.preset_operator("laplace"), id=p)
    for p in ("log1", "power:0.5", "wedge:2.0944")
] + [pytest.param("log1", p.values[0], id=f"log1-{p.id}")
     for p in MIXED_DRIFT])
def test_refined_solve_matches_float64_reference(profile_id, op,
                                                 monkeypatch):
    prof = G.preset_profile(profile_id, R0=0.5)
    bc = sector_harmonic(2.0944) if profile_id.startswith("wedge") \
        else bc_linear
    system = F.discretize(op, F.DiscreteDomain.build(prof, 2.0**-7), bc)
    ref = _float64_reference(system)
    dtypes = _record_factor_dtypes(monkeypatch)
    sol = F.solve(system)
    assert dtypes == [np.float32]
    assert np.abs(sol.vec - ref).max() <= 1e-13 * np.abs(ref).max()
    assert sol.residual_norm <= 1e-13
    assert sol.iterations >= 2


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("profile_id,op", [
    pytest.param("wedge:2.0944", E.preset_operator("laplace"), id="wedge"),
    pytest.param("log1", E.preset_operator("checker:0.25"), id="checker"),
    pytest.param("log1", E.preset_operator("aniso:0.5,2"), id="aniso"),
] + [pytest.param("log1", p.values[0], id=f"log1-{p.id}")
     for p in MIXED_DRIFT])
def test_refined_solve_reaches_forward_accuracy(profile_id, op):
    # the float32 factor of S contracts the error about 1e-3 a step, so
    # when the residual first passes the backward test the error can still
    # be 2-4e-14 of max|x| on these systems; the forward part of the stop
    # test takes the step that brings it to the rounding floor
    prof = G.preset_profile(profile_id, R0=0.5)
    bc = sector_harmonic(2.0944) if profile_id.startswith("wedge") \
        else bc_linear
    system = F.discretize(op, F.DiscreteDomain.build(prof, 2.0**-8), bc)
    ref = _float64_reference(system, steps=4, residual=np.longdouble)
    sol = F.solve(system)
    assert np.abs(sol.vec - ref).max() <= 1e-14 * np.abs(ref).max()


def test_stalled_refinement_falls_back_to_float64(monkeypatch):
    # 1-D Laplacian: kappa ~ 4 n^2 / pi^2 ~ 1.6e8, so kappa u_32 > 1 and
    # the float32 refinement cannot converge, with the red half of the
    # chain eliminated or with none of it red.  The chains lie so that the
    # nodes the order sees share a grid line, and its table, one entry
    # per cell of their bounding box, stays n entries long: a staircase,
    # whose consecutive nodes alternate in color and whose black nodes
    # share a line of the rotated lattice, and one grid column with the
    # nodes two rows apart, all red
    n = 20_000
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    x_true = np.random.default_rng(2).normal(size=n)
    b = A @ x_true
    k = np.arange(n)
    dtypes = _record_factor_dtypes(monkeypatch)
    for ij, red in ((np.column_stack((k >> 1, (k + 1) >> 1)), True),
                    (np.column_stack((0 * k, 2 * k)), False)):
        elim = F._red_black(A, ij)
        assert (elim.red.size > 0) == red
        dtypes.clear()
        x, _, _ = F._refined_lu_solve(elim, b)
        assert dtypes == [np.float32, np.float64]
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12
        assert np.abs(x - x_true).max() <= 1e-9


def test_stalled_schur_refinement_rebuilds_s(monkeypatch):
    # a float32 factor of 3 S shrinks each correction's black part 3-fold,
    # so the corrections never halve and the refinement stalls; S was
    # dropped for the float32 copy, and the float64 factor is of S formed
    # again from the elimination, the same to the bit
    system = _laplace_system(G.preset_profile("log1", R0=0.5), 2.0**-7)
    S = _schur_input(system).schur()
    ref = _float64_reference(system)
    factored = []
    splu = spla.splu

    def tripled(M, **kwargs):
        factored.append(M.copy())
        if M.dtype == np.float32:
            M = sp.csc_matrix((3.0 * M.data, M.indices, M.indptr),
                              shape=M.shape)
        return splu(M, **kwargs)

    monkeypatch.setattr(spla, "splu", tripled)
    sol = F.solve(system)
    assert [M.dtype for M in factored] == [np.float32, np.float64]
    rebuilt = factored[1]
    for a, b in ((rebuilt.data, S.data), (rebuilt.indices, S.indices),
                 (rebuilt.indptr, S.indptr)):
        np.testing.assert_array_equal(a, b)
    assert np.abs(sol.vec - ref).max() <= 1e-12 * np.abs(ref).max()


def test_float32_factor_holds_no_float64_schur(monkeypatch):
    # once the float32 copy of S exists, S's float64 data is freed before
    # SuperLU starts: on 5-point systems, and on 9-point ones, where S is
    # the whole system in nested-dissection order
    seen, formed = [], []
    splu, schur = spla.splu, F._RedBlack.schur

    def watching(M, **kwargs):
        seen.append((M.dtype, [s() is None for s in formed]))
        return splu(M, **kwargs)

    def recording(self):
        S = schur(self)
        formed.append(weakref.ref(S.data))
        return S

    monkeypatch.setattr(spla, "splu", watching)
    monkeypatch.setattr(F._RedBlack, "schur", recording)
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-6)
    for op in [E.preset_operator("laplace")] + [p.values[0]
                                                for p in MIXED_DRIFT]:
        system = F.discretize(op, dom, bc_linear)
        A, b, ij, _ = F._folded_system(system)
        seen.clear()
        formed.clear()
        F._refined_lu_solve(F._red_black(A, ij), b)
        assert seen == [(np.float32, [True])]


@pytest.mark.parametrize("op_id", ["drift:1e39", "aniso:1e35,1",
                                   "aniso:1e-50,1e-50", "aniso:1e150,1",
                                   "drift:1e150"])
def test_float32_range_falls_back_to_float64(op_id, monkeypatch):
    # entries that overflow to inf or flush to 0 in a float32 copy would
    # give a singular factor: the float64 factor is used alone
    prof = G.preset_profile("log1", R0=0.5)
    system = F.discretize(E.preset_operator(op_id),
                          F.DiscreteDomain.build(prof, 2.0**-6), bc_linear)
    ref = _float64_reference(system)
    dtypes = _record_factor_dtypes(monkeypatch)
    sol = F.solve(system)
    assert dtypes == [np.float64]
    assert sol.residual_norm <= 1e-12
    assert np.abs(sol.vec - ref).max() <= 1e-12 * np.abs(ref).max()


def test_shuffled_indices_solve_as_canonical():
    # a system whose CSR rows hold their entries out of column order is
    # solved as its canonical form, bitwise, folded or not and with 5 or
    # 9 points, and the caller's matrix, none of whose index arrays the
    # solve sorts, multiplies as before
    dom = F.DiscreteDomain.build(G.preset_profile("log1", R0=0.5), 2.0**-6)
    rng = np.random.default_rng(0)
    for op, folds in ((E.preset_operator("laplace"), True),
                      (E.preset_operator("drift:1.5"), False),
                      (MIXED_DRIFT[0].values[0], False)):
        system = F.discretize(op, dom, bc_linear)
        assert _folds(system) == folds
        A = system.matrix
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        order = np.lexsort((rng.random(A.nnz), rows))
        shuffled = sp.csr_matrix((A.data[order], A.indices[order],
                                  A.indptr), shape=A.shape)
        assert not shuffled.has_sorted_indices
        v = rng.normal(size=A.shape[1])
        before = shuffled @ v
        ref = F.solve(system)
        sol = F.solve(dataclasses.replace(system, matrix=shuffled))
        assert sol.vec.tobytes() == ref.vec.tobytes()
        assert (sol.fill, sol.iterations) == (ref.fill, ref.iterations)
        assert (shuffled @ v).tobytes() == before.tobytes()


def test_zero_rhs_gives_zero_solution():
    zero = lambda X1, X2: np.zeros(np.broadcast(np.asarray(X1),
                                                np.asarray(X2)).shape)
    system = _laplace_system(G.preset_profile("log1", R0=0.5), 2.0**-5,
                             bc=zero)
    assert not np.any(system.rhs)
    with np.errstate(all="raise"):
        sol = F.solve(system)
    assert not np.any(sol.vec)
    assert sol.residual_norm == 0.0


@pytest.mark.parametrize("power", [-600, 600])
def test_residual_norm_is_scale_invariant(power):
    # each norm scales its vector by a power of two before squaring, so
    # the relative residual of (b, r) scaled by 2^+-600 is the same
    # number, where a plain sum of squares overflows or flushes to 0
    system = _laplace_system(G.preset_profile("log1", R0=0.5), 2.0**-6)
    sol = F.solve(system)
    b = system.rhs
    r = b - system.matrix @ sol.vec
    assert F._norm(r) / F._norm(b) == sol.residual_norm > 0.0
    rs, bs = np.ldexp(r, power), np.ldexp(b, power)
    assert F._norm(rs) / F._norm(bs) == sol.residual_norm
    with np.errstate(over="ignore", under="ignore"):
        assert np.sum(bs * bs) in (0.0, np.inf)


@pytest.mark.parametrize("power", [-130, 130, 560, 600, 700])
def test_refinement_is_scale_invariant(power):
    # each residual is scaled by max|r| before its float32 cast, and the
    # forward stop test compares ratios, so data far outside float32's
    # range give the solution scaled by the same power of two, bitwise,
    # in as many steps.  On cone:0.4 the forward test decides the 4th
    # solve, which a test by products of sizes, overflowing to inf <= inf
    # past 2^550, skipped
    for profile_id, h in (("log1", 2.0**-6), ("cone:0.4", 2.0**-7)):
        system = _laplace_system(G.preset_profile(profile_id, R0=0.5), h)
        sol = F.solve(system)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = F.solve(dataclasses.replace(
                system, rhs=np.ldexp(system.rhs, power)))
        np.testing.assert_array_equal(scaled.vec, np.ldexp(sol.vec, power))
        assert (scaled.iterations, scaled.residual_norm) == \
            (sol.iterations, sol.residual_norm)


# prints, after each SuperLU factorization of a log1 laplace solve at
# h = 2^-9, how many KiB the peak RSS of the process lies above its
# current RSS.  VmHWM, not ru_maxrss: the latter carries the peak of the
# parent process across fork and exec
_FACTOR_PEAK_SCRIPT = """
import scipy.sparse.linalg as spla
from hopflab import convex_geometry as G, elliptic_operator as E
from hopflab import fd_solver as F
from hopflab.decay_analysis import boundary_data

def status_kib():
    with open("/proc/self/status") as f:
        return {k: int(v.split()[0]) for k, _, v in
                (line.partition(":") for line in f) if k in ("VmHWM", "VmRSS")}

splu = spla.splu

def measured(*args, **kwargs):
    lu = splu(*args, **kwargs)
    kib = status_kib()
    print(kib["VmHWM"] - kib["VmRSS"])
    return lu

spla.splu = measured
prof = G.preset_profile("log1", R0=0.5)
F.solve(F.discretize(E.preset_operator("laplace"),
                     F.DiscreteDomain.build(prof, 2.0**-9),
                     boundary_data("linear", prof)))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc")
def test_factor_peak_memory():
    # SuperLU's work arrays, n x panel entries, are freed when the factor
    # returns; with the panel of _PANEL columns they no longer lift the
    # peak above the memory the factor keeps (10 MiB at a panel of 20).
    # A fresh process, so that no earlier test's peak counts
    src = os.path.dirname(os.path.dirname(F.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FACTOR_PEAK_SCRIPT],
                         env=env, capture_output=True, text=True, check=True)
    excess_kib = [int(v) for v in out.stdout.split()]
    assert excess_kib and max(excess_kib) <= 2048


# runs a log1 experiment at K = 4, h = 2^-9 to warm up, then three more
# and one 9-point solve (a12 = 0.4, drift:1.5), and prints the CPU ticks
# that the threads other than the main one gained over those, and the
# number of threads
_WORKER_TICKS_SCRIPT = """
import os
import numpy as np
from hopflab import convex_geometry as G, elliptic_operator as E
from hopflab import fd_solver as F
from hopflab.decay_analysis import (HopfExperiment, boundary_data,
                                    run_experiment)

def worker_ticks():
    tids = [t for t in os.listdir("/proc/self/task") if int(t) != os.getpid()]
    ticks = 0
    for tid in tids:
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        ticks += int(fields[11]) + int(fields[12])   # utime + stime
    return ticks, len(tids) + 1

def a_grid(X1, X2):
    ones = np.ones(np.broadcast(np.asarray(X1), np.asarray(X2)).shape)
    return ones, ones.copy(), np.full(ones.shape, 0.4)

cfg = HopfExperiment(profile="log1", K=4, h=2.0**-9)
run_experiment(cfg)
before, _ = worker_ticks()
for _ in range(3):
    run_experiment(cfg)
op = E.EllipticOperator(nu=0.6, a_grid=a_grid,
                        b_grid=E.preset_operator("drift:1.5").b_grid)
prof = G.preset_profile("log1", R0=0.5)
F.solve(F.discretize(op, F.DiscreteDomain.build(prof, 2.0**-9),
                     boundary_data("linear", prof)))
after, threads = worker_ticks()
print(after - before, threads)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_experiment_path_leaves_the_blas_worker_idle():
    # a BLAS call on a long vector wakes OpenBLAS's worker thread, which
    # then spins for about 0.1 s and slows the numpy stages after it by
    # 1.5-2x on two cores; the experiment path makes no such call
    src = os.path.dirname(os.path.dirname(F.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", _WORKER_TICKS_SCRIPT],
                         env=env, capture_output=True, text=True, check=True)
    ticks, threads = (int(v) for v in out.stdout.split())
    if threads == 1:
        pytest.skip("a single thread: no BLAS worker")
    assert ticks <= 1


def test_empty_interior_raises_from_domain_build():
    with pytest.raises(ValueError,
                       match="interior nodes on the x1 = 0 column"):
        F.DiscreteDomain.build(G.preset_profile("flat", R0=0.5), 0.25)


# ---------------------------------------------------------------- convergence

def test_manufactured_harmonic_second_order():
    uex = lambda X1, X2: (np.sin(math.pi * np.asarray(X1))
                          * np.sinh(math.pi * np.asarray(X2))
                          / math.sinh(math.pi))
    prof = G.preset_profile("flat", R0=1.0)
    rep = F.convergence_study(E.preset_operator("laplace"), prof, uex,
                              [2.0**-4, 2.0**-5, 2.0**-6], exact=uex)
    assert rep.observed_order >= 1.8
    assert not rep.exact


def test_convergence_exact_reproduction_flag():
    prof = G.preset_profile("flat", R0=0.5)
    rep = F.convergence_study(E.preset_operator("laplace"), prof, bc_linear,
                              [2.0**-4, 2.0**-5],
                              exact=lambda X1, X2: np.asarray(X2, float)
                              * np.ones_like(np.asarray(X1, float)))
    assert rep.exact
    assert rep.observed_order is None


def test_richardson_errors_on_a_non_dyadic_grid():
    # the coarse nodes sit at (2i, 2j) of the refined grid: the errors
    # are those of that index map, for an h that is not a power of two
    prof = G.preset_profile("log1", R0=0.5)
    op = E.preset_operator("laplace")
    h_list = [0.5 / 24, 0.5 / 48]
    rep = F.convergence_study(op, prof, bc_linear, h_list)
    expect = []
    for h in h_list:
        sol, _, dom = solve_preset("log1", "laplace", h)
        fine, _, _ = solve_preset("log1", "laplace", h / 2.0)
        ii, jj = dom.interior_ij[:, 0], dom.interior_ij[:, 1]
        ref = fine.values[2 * ii, 2 * jj]
        ok = np.isfinite(ref)
        expect.append(float(np.abs(sol.vec[ok] - ref[ok]).max()))
    assert rep.errors == tuple(expect)
    assert rep.reference == "richardson"


def test_richardson_solves_each_grid_once(monkeypatch):
    # the solve at h/2 that each grid is compared against is the next
    # grid's own: 2^-5..2^-7 and the refined 2^-8, no grid twice
    solve = F.solve
    unknowns = []

    def counted(system):
        unknowns.append(system.dom.n_unknowns)
        return solve(system)

    monkeypatch.setattr(F, "solve", counted)
    F.convergence_study(E.preset_operator("laplace"),
                        G.preset_profile("log1", R0=0.5), bc_linear,
                        [2.0**-5, 2.0**-6, 2.0**-7])
    assert len(unknowns) == len(set(unknowns)) == 4


def test_wedge_richardson_order_at_least_one():
    theta = 2.0 * math.pi / 3.0
    prof = G.preset_profile(f"wedge:{theta}", R0=0.5)
    rep = F.convergence_study(E.preset_operator("laplace"), prof,
                              sector_harmonic(theta),
                              [2.0**-5, 2.0**-6, 2.0**-7])
    assert rep.reference == "richardson"
    assert rep.observed_order >= 1.0


# ---------------------------------------------------------------- dumps

def test_dump_formats(tmp_path):
    sol, system, dom = solve_preset("flat", "laplace", 2.0**-4)
    F.dump_matrix(tmp_path / "m.txt", system.matrix)
    F.dump_vector(tmp_path / "v.txt", system.rhs)
    F.dump_solution_csv(tmp_path / "s.csv", sol)
    lines = (tmp_path / "m.txt").read_text().strip().splitlines()
    r, c, v = lines[0].split()
    assert system.matrix[int(r), int(c)] == float(v)
    assert len((tmp_path / "v.txt").read_text().strip().splitlines()) == \
        system.rhs.size
    header = (tmp_path / "s.csv").read_text().splitlines()[0]
    assert header == "x1,x2,u"
