import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from hopflab import convex_geometry as G
from hopflab import elliptic_operator as E
from hopflab import fd_solver as F
from hopflab.barriers import aleksandrov_constant_fit
from hopflab.decay_analysis import sector_harmonic


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
    sol, _, _ = solve_preset("flat", "laplace", 2.0**-6)
    with pytest.raises(F.MisalignedHeightError):
        F.hopf_trace(sol, [0.1])  # not a multiple of 2^-6


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
        f_norm = E.local_norm(vals, dom.h, region=np.isfinite(vals), p=2.0)
        runs[op_id] = {"sup_u": float(sol.vec.max()), "diam": diam,
                       "f_norm": f_norm}
    fit = aleksandrov_constant_fit(list(runs.values()))
    ratios = fit.per_run_ratio
    assert max(ratios) / min(ratios) < 3.0
    # cross-check against the radial solution of the unit source problem
    # on a disc: u <= (R^2 - r^2)/4 <= R^2/4 wherever a disc fits
    assert runs["laplace"]["sup_u"] <= 0.5**2 / 4.0 + 1e-6


# ---------------------------------------------------------------- oscillation

def _manufactured_solution(dom, fn):
    mask = dom.mask
    values = np.full(mask.cls.shape, np.nan)
    X1, X2 = np.meshgrid(mask.x1, mask.x2, indexing="ij")
    inside = mask.cls != G.EXTERIOR
    values[inside] = fn(X1, X2)[inside]
    vec = values[dom.interior_ij[:, 0], dom.interior_ij[:, 1]]
    return F.DiscreteSolution(values=values, vec=vec, residual_norm=0.0,
                              iterations=0, dom=dom, method="manufactured")


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


def test_oscillation_empty_region():
    prof = G.preset_profile("flat", R0=0.5)
    sol, _, _ = solve_preset("flat", "laplace", 2.0**-5)
    with pytest.raises(E.EmptyRegionError):
        F.oscillation(sol, prof, 2.0**-5)  # cylinder below the noise floor


# ---------------------------------------------------------------- solve paths

def test_solve_raw_m_matrix_system():
    rng = np.random.default_rng(0)
    n = 400
    A = sp.random(n, n, density=0.01, random_state=1, format="lil")
    A = -np.abs(A.toarray())
    np.fill_diagonal(A, np.abs(A).sum(axis=1) + 1.0)
    b = rng.normal(0.0, 1.0, size=n)
    system = F.LinearSystem.from_arrays(A, b)
    sol = F.solve(system)
    assert sol.residual_norm <= 1e-10
    # no grid, so the COLAMD column order: the same factors as SuperLU's
    lu = spla.splu(system.matrix.tocsc(), permc_spec="COLAMD")
    assert sol.fill == lu.nnz


def test_solve_iterative_path():
    sol, system, _ = solve_preset("flat", "laplace", 2.0**-5)
    it = F.solve(system, direct_threshold=0)
    assert it.method.startswith("bicgstab")
    assert it.fill == 0
    assert it.residual_norm <= 1e-9
    np.testing.assert_allclose(it.vec, sol.vec, atol=1e-8)


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


def _unfolded_nd_solve(system):
    """The whole system factorized in nested-dissection order: the direct
    path of a system that does not fold.  Returns (x, SuperLU.nnz)."""
    p = F._nested_dissection(system.dom.interior_ij)
    lu = spla.splu(system.matrix.tocsc()[p][:, p], permc_spec="NATURAL")
    x = np.empty(p.size)
    x[p] = lu.solve(system.rhs[p])
    return x, lu.nnz


def _laplace_system(profile, h, bc=bc_linear):
    dom = F.DiscreteDomain.build(profile, h)
    return F.discretize(E.preset_operator("laplace"), dom, bc)


@pytest.mark.parametrize("h", [2.0**-6, 2.0**-7])
@pytest.mark.parametrize("profile_id", ["log1", "power:0.5", "flat",
                                        "cone:0.4", "wedge:2.0944"])
def test_mirror_fold_matches_full_solve(profile_id, h):
    prof = G.preset_profile(profile_id, R0=0.5)
    bc = sector_harmonic(2.0944) if profile_id.startswith("wedge") \
        else bc_linear
    system = _laplace_system(prof, h, bc)
    fold = F._mirror_fold(system)
    assert fold is not None
    sol = F.solve(system)
    lu = spla.splu(system.matrix.tocsc(), permc_spec="COLAMD")
    assert np.abs(sol.vec - lu.solve(system.rhs)).max() <= 1e-12
    assert sol.residual_norm <= 1e-12
    assert 0 < sol.fill < _unfolded_nd_solve(system)[1]
    # the fold only merges columns: the half matrix is still an M-matrix
    # with the row sums of the kept rows
    keep, _, half = fold
    coo = half.tocoo()
    assert coo.data[coo.row != coo.col].max() <= 0.0
    np.testing.assert_allclose(np.asarray(half.sum(axis=1)).ravel(),
                               np.asarray(system.matrix.sum(axis=1)).ravel()
                               [keep], rtol=1e-12, atol=1e-9)


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
    assert F._mirror_fold(system) is None
    sol = F.solve(system)
    x, fill = _unfolded_nd_solve(system)
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
    assert F._mirror_fold(system) is None
    assert F.solve(system).fill == _unfolded_nd_solve(system)[1]


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
    assert F._mirror_fold(even) is not None
    sol = F.solve(even)
    assert np.abs(sol.vec - _unfolded_nd_solve(even)[0]).max() <= 1e-12
    slopes[1] *= 1.0 + stretch
    odd = _laplace_system(_max_affine(slopes, offsets), 2.0**-5)
    assert F._mirror_fold(odd) is None


def test_direct_and_iterative_solves_agree():
    prof = G.preset_profile("log1", R0=0.5)
    system = _laplace_system(prof, 2.0**-7)
    direct = F.solve(system)
    iterative = F.solve(system, direct_threshold=0, tol=1e-12)
    assert direct.method == "splu"
    assert iterative.method.startswith("bicgstab")
    radii = [0.5 * 2.0**-k for k in range(5)]
    np.testing.assert_allclose(F.hopf_trace(iterative, radii),
                               F.hopf_trace(direct, radii), rtol=1e-8)
    np.testing.assert_allclose(
        [F.oscillation(iterative, prof, r) for r in radii],
        [F.oscillation(direct, prof, r) for r in radii], rtol=1e-8)


def test_empty_interior_raises_from_domain_build():
    with pytest.raises(G.ResolutionError):
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
