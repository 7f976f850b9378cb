import math

import numpy as np
import pytest

from hopflab import convex_geometry as G
from helpers import validate_profile


# ---------------------------------------------------------------- oracles

def brute_force_delta(profile, r, n_dirs=720, n_rad=400):
    """Dense grid maximum of F(x')/|x'| over the ball of radius r."""
    best = 0.0
    if profile.ambient_dim == 2:
        for rho in np.linspace(r / n_rad, r, n_rad):
            for x in (-rho, rho):
                best = max(best, G.profile_height(profile, [x]) / rho)
    else:
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((n_dirs, profile.ambient_dim - 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for rho in np.linspace(r / n_rad, r, n_rad):
            vals = [G.profile_height(profile, rho * d) for d in dirs]
            best = max(best, max(vals) / rho)
    return best


def fd_left_derivative(f, r, h=1e-8):
    return (f(r) - f(r - h)) / h


def random_maxaffine(rng, ambient_dim=2, R0=0.5):
    # a genuine zero piece keeps F >= 0 with F(0) = 0 (profile invariants)
    k = int(rng.integers(2, 7))
    slopes = rng.normal(0.0, 1.0, size=(k, ambient_dim - 1))
    offsets = -np.abs(rng.normal(0.0, 0.05, size=k))
    slopes = np.vstack((np.zeros((1, ambient_dim - 1)), slopes))
    offsets = np.concatenate(([0.0], offsets))
    return G.MaxAffineProfile(slopes=slopes, offsets=offsets, R0=R0,
                              ambient_dim=ambient_dim)


# ---------------------------------------------------------------- delta

def test_delta_cone_constant_ratio():
    cone = G.preset_profile("cone:0.3", R0=1.0)
    assert G.delta(cone, 0.1) == pytest.approx(0.3)
    assert G.delta(cone, 0.5) == pytest.approx(0.3)


def test_delta_parabola_frozen():
    # the radial brute force includes rho = r exactly, where the ratio of
    # a convex profile peaks, so the comparison is tight
    p = G.preset_profile("power:1", R0=1.0)  # f = rho^2
    assert G.delta(p, 0.25) == pytest.approx(0.25, rel=1e-12)
    assert G.delta(p, 0.25) == pytest.approx(brute_force_delta(p, 0.25),
                                             rel=1e-10)


def test_delta_maxaffine_frozen():
    ma = G.MaxAffineProfile(slopes=[[0.0], [2.0]], offsets=[0.0, -0.1],
                            R0=0.5)
    assert G.delta(ma, 0.1) == pytest.approx(1.0, rel=1e-12)
    assert G.delta(ma, 0.1) == pytest.approx(brute_force_delta(ma, 0.1),
                                             rel=1e-10)


def test_delta_matches_brute_force_random():
    # planar max-affine: both ray directions and the peak radius sit on
    # the brute-force grid, so the values agree to roundoff
    rng = np.random.default_rng(11)
    for _ in range(10):
        ma = random_maxaffine(rng)
        r = float(rng.uniform(0.05, ma.R0))
        assert G.delta(ma, r) == pytest.approx(brute_force_delta(ma, r),
                                               rel=1e-10, abs=1e-12)


def test_delta_domain_error():
    p = G.preset_profile("flat", R0=0.5)
    with pytest.raises(ValueError, match="scale r = 0.6 outside"):
        G.delta(p, 0.6)
    with pytest.raises(ValueError, match="scale r = 0.0 outside"):
        G.delta(p, 0.0)


CLI_PROFILES = ["flat", "cone:0.4", "power:0.5", "power:0.4837", "log1",
                "log2", "wedge:2.08"]


def test_delta_on_arrays_matches_scalar_calls():
    rng = np.random.default_rng(29)
    profiles = [G.preset_profile(pid, R0=0.5) for pid in CLI_PROFILES]
    profiles += [random_maxaffine(rng), random_maxaffine(rng, ambient_dim=3)]
    r = np.concatenate((np.geomspace(1e-9, 0.5, 61),
                        rng.uniform(1e-6, 0.5, 20)))
    for prof in profiles:
        got = G.delta(prof, r)
        want = np.array([G.delta(prof, float(x)) for x in r])
        assert got.shape == r.shape
        assert got.tobytes() == want.tobytes(), prof
        grid = G.delta(prof, r[:80].reshape(4, 20))
        assert grid.tobytes() == want[:80].tobytes()
        assert type(G.delta(prof, 0.125)) is float


def test_delta_array_domain_error():
    for prof in (G.preset_profile("log1", R0=0.5),
                 random_maxaffine(np.random.default_rng(3))):
        with pytest.raises(ValueError, match="scale r = 0.6 outside"):
            G.delta(prof, np.array([0.1, 0.6, 0.2]))
        with pytest.raises(ValueError, match="scale r = 0.0 outside"):
            G.delta(prof, np.array([0.1, 0.0]))


# ---------------------------------------------------------------- delta1

def test_delta1_cone():
    assert G.delta1(G.preset_profile("cone:0.3", R0=1.0), 0.2) == \
        pytest.approx(0.3)


def test_delta1_parabola_fd_oracle():
    p = G.preset_profile("power:1", R0=1.0)
    assert G.delta1(p, 0.25) == pytest.approx(0.5, rel=1e-10)
    assert G.delta1(p, 0.25) == pytest.approx(
        fd_left_derivative(lambda r: r * r, 0.25), rel=1e-6)


def test_delta1_maxaffine_active_pieces():
    ma = G.MaxAffineProfile(slopes=[[0.0], [2.0]], offsets=[0.0, -0.1],
                            R0=0.5)
    assert G.delta1(ma, 0.1) == pytest.approx(2.0)
    # below the kink at x = 0.05 the steep piece is inactive
    assert G.delta1(ma, 0.04) == pytest.approx(0.0, abs=1e-15)
    # a piece parallel to another and strictly below it is never active
    ma = G.MaxAffineProfile(slopes=[[0.0], [2.0], [2.0], [-1.0]],
                            offsets=[0.0, -0.1, -0.12, -0.2], R0=0.5)
    assert G._active_pieces(ma, 0.1).tolist() == [True, True, False, False]
    assert G.delta1(ma, 0.1) == 2.0


def loop_active_pieces(profile, r):
    """Planar activity, piece by piece: the interval [-r, r] cut by the
    halflines (p_i - p_j) x >= c_j - c_i, empty under a parallel piece
    strictly above."""
    p, c = profile.slopes[:, 0], profile.offsets
    active = []
    for i in range(p.size):
        lo, hi, ok = -r, r, True
        for j in range(p.size):
            a, b = p[i] - p[j], c[j] - c[i]
            if i == j:
                continue
            if a > 0.0:
                lo = max(lo, b / a)
            elif a < 0.0:
                hi = min(hi, b / a)
            elif b > 1e-15:
                ok = False
        active.append(ok and lo <= hi + 1e-15)
    return active


def test_planar_active_pieces_match_the_loop():
    # slopes and offsets on a coarse lattice, so that pieces are parallel
    # (equal slopes), coincide, or touch at the ball's edge
    rng = np.random.default_rng(8)
    kinds = set()
    for _ in range(300):
        k = int(rng.integers(1, 8))
        slopes = rng.integers(-4, 5, size=(k, 1)) / 2.0
        offsets = -rng.integers(0, 5, size=k) / 20.0
        offsets[rng.integers(k)] = 0.0
        prof = G.MaxAffineProfile(slopes=slopes, offsets=offsets, R0=0.5)
        for r in (0.05, 0.1, 0.2, 0.25):
            mask = G._active_pieces(prof, r)
            assert mask.tolist() == loop_active_pieces(prof, r)
            kinds.update(mask.tolist())
        if k > np.unique(slopes).size:
            kinds.add("parallel")
    assert kinds == {True, False, "parallel"}


def test_moduli_nondecreasing_in_r():
    rng = np.random.default_rng(5)
    profiles = [G.preset_profile(p, R0=0.5)
                for p in ("power:0.5", "power:1", "log1", "log2", "cone:0.2")]
    profiles += [random_maxaffine(rng) for _ in range(5)]
    rs = np.linspace(0.02, 0.5, 12)
    for prof in profiles:
        dd = [G.delta(prof, float(r)) for r in rs]
        d1 = [G.delta1(prof, float(r)) for r in rs]
        assert np.all(np.diff(dd) >= -1e-12)
        assert np.all(np.diff(d1) >= -1e-12)


# ---------------------------------------------------------------- sandwich

def test_sandwich_parabola_closed_forms():
    p = G.preset_profile("power:1", R0=1.0)
    rep = G.sandwich_check(p, 0.1)
    # delta = r, delta1 = 2r, 2 delta(2r) = 4r
    assert rep.delta_r == pytest.approx(0.1)
    assert rep.delta1_r == pytest.approx(0.2)
    assert 2.0 * rep.delta_2r == pytest.approx(0.4)
    assert rep.both_ok


def test_sandwich_cone_equalities():
    rep = G.sandwich_check(G.preset_profile("cone:0.7", R0=1.0), 0.2)
    assert rep.both_ok
    assert rep.lower_slack == pytest.approx(0.0, abs=1e-14)
    assert rep.upper_slack == pytest.approx(0.7, rel=1e-12)


def test_sandwich_random_profiles_zero_violations():
    rng = np.random.default_rng(42)
    for trial in range(50):
        dim = 2 if trial % 3 else 3
        ma = random_maxaffine(rng, ambient_dim=dim)
        for r in (ma.R0 / 4.0, ma.R0 / 8.0, ma.R0 / 16.0):
            rep = G.sandwich_check(ma, r)
            assert rep.both_ok, (trial, r, rep)


def test_sandwich_precondition():
    with pytest.raises(ValueError, match="need 2r <= R0"):
        G.sandwich_check(G.preset_profile("flat", R0=0.5), 0.3)


# ---------------------------------------------------------------- frames

def test_frame_flat_is_identity():
    # the max-affine profile's best piece at r = 0.1 is its flat one
    for prof in (G.preset_profile("flat", R0=0.5),
                 G.MaxAffineProfile(slopes=[[0.0], [1.0]],
                                    offsets=[0.0, -0.2], R0=0.5)):
        fr = G.extremal_frame(prof, 0.1)
        assert fr.degenerate
        assert fr.phi == 0.0
        np.testing.assert_allclose(fr.rotation, np.eye(2))
        np.testing.assert_array_equal(fr.x_star, [0.1, 0.0])


def test_frame_parabola_supporting_slope():
    p = G.preset_profile("power:1", R0=1.0)
    fr = G.extremal_frame(p, 0.1)
    np.testing.assert_allclose(fr.x_star, [0.1, 0.01])
    assert math.tan(fr.phi) == pytest.approx(0.2, rel=1e-12)


def test_frame_log_profile_fd_slope():
    prof = G.preset_profile("log1", R0=1.0)
    fr = G.extremal_frame(prof, 0.1)
    fd = fd_left_derivative(lambda r: float(prof.f(r)), 0.1, h=1e-7)
    assert math.tan(fr.phi) == pytest.approx(fd, rel=1e-5)
    assert math.tan(fr.phi) <= G.delta1(prof, 0.1) + 1e-12


def test_frame_orthogonal_and_realizes_delta():
    # at n = 3 the tangential rows complete u to an orthonormal basis;
    # the max-affine piece realizing delta(0.1) points along (0.6, 0.8)
    cases = [(G.preset_profile(pid, R0=0.5, ambient_dim=n), [1.0, 0.0][:n - 1])
             for pid in ("power:0.5", "power:1", "log1", "log2")
             for n in (2, 3)]
    cases.append((G.MaxAffineProfile(slopes=[[0.0, 0.0], [0.3, 0.4]],
                                     offsets=[0.0, -0.01], R0=0.5,
                                     ambient_dim=3), [0.6, 0.8]))
    for prof, u in cases:
        n = prof.ambient_dim
        fr = G.extremal_frame(prof, 0.1)
        np.testing.assert_allclose(fr.rotation @ fr.rotation.T, np.eye(n),
                                   atol=1e-10)
        np.testing.assert_allclose(fr.x_star[:-1], 0.1 * np.asarray(u),
                                   rtol=1e-12)
        assert fr.x_star[-1] == pytest.approx(0.1 * G.delta(prof, 0.1),
                                              rel=1e-12)


def test_frame_supporting_hyperplane_below_graph():
    # the graph stays above the supporting line through x*
    prof = G.preset_profile("power:1", R0=1.0)
    r = 0.1
    fr = G.extremal_frame(prof, r)
    for y1 in np.linspace(-0.05, 0.05, 21):
        x = fr.to_x(np.array([y1, 0.0]))
        assert G.profile_height(prof, x[:-1]) >= x[-1] - 1e-12


def test_frame_maxaffine():
    ma = G.MaxAffineProfile(slopes=[[0.0], [2.0]], offsets=[0.0, -0.1],
                            R0=0.5)
    fr = G.extremal_frame(ma, 0.1)
    assert fr.x_star[-1] == pytest.approx(0.1 * G.delta(ma, 0.1))
    assert math.tan(fr.phi) == pytest.approx(2.0)


# ---------------------------------------------------------------- ball

def independent_ball_check(profile, r, nu, samples=2000):
    """Recompute the interior-ball margin from first principles (planar)."""
    slope = profile.left_derivative(r)
    phi = math.atan(slope)
    c, s = math.cos(phi), math.sin(phi)
    x_star = np.array([r, float(profile.f(r))])
    y1 = np.array([c, s])
    y2 = np.array([-s, c])
    gamma = nu
    z0 = x_star + (r / 2.0) * y1 + (gamma * r / 4.0) * y2
    rho0 = gamma * r / 8.0
    ang = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    pts = z0[None, :] + rho0 * np.column_stack((np.cos(ang), np.sin(ang)))
    pts = np.vstack((z0[None, :], pts))
    return float(np.min(pts[:, 1] - profile.height(pts[:, 0])))


def test_ball_flat_margin():
    prof = G.preset_profile("flat", R0=0.5)
    fr = G.extremal_frame(prof, 0.1)
    rep = G.ball_inclusion_check(prof, fr, nu=0.5)
    assert rep.included
    # flat boundary: margin is z0_n - rho0 = gamma r / 8
    assert rep.margin == pytest.approx(0.5 * 0.1 / 8.0, rel=1e-12)


def test_ball_cone_steep_still_included():
    # straight boundaries coincide with their supporting line on the
    # x*-side, so the ball clears them at any slope; the sufficient
    # condition fails but the direct check passes
    prof = G.preset_profile("cone:0.9", R0=0.5)
    fr = G.extremal_frame(prof, 0.1)
    rep = G.ball_inclusion_check(prof, fr, nu=0.5)
    assert rep.included
    assert not rep.sufficient_condition
    # closed-form margin: the ball sits right of the apex, so the nearest
    # boundary is the line x2 = 0.9 x1 at distance (z2 - 0.9 z1)/sqrt(1.81)
    c = 0.9
    line_dist = (rep.z0[1] - c * rep.z0[0]) / math.sqrt(1.0 + c * c)
    exact = (line_dist - rep.rho0) * math.sqrt(1.0 + c * c)  # vertical gap
    assert exact > 0.0
    assert rep.margin >= exact - 1e-12
    assert rep.margin == pytest.approx(exact, abs=1e-6)


def test_ball_excluded_for_curved_steep_patch():
    # strong curvature above the supporting line ejects the ball
    prof = G.preset_profile("power:1", R0=1.0)
    fr = G.extremal_frame(prof, 0.4)
    rep = G.ball_inclusion_check(prof, fr, nu=0.1)
    assert not rep.included
    assert not rep.smallness_ok  # delta1(R0) = 2 > 3/4, reported not fatal
    oracle = independent_ball_check(prof, 0.4, 0.1)
    assert oracle < 0.0
    assert rep.margin == pytest.approx(oracle, rel=1e-4)


def test_ball_sufficient_condition_implies_included():
    # at n = 3 the ball's boundary is sampled by Gaussian directions
    profiles = [G.preset_profile(pid, R0=0.5)
                for pid in ("power:0.5", "power:1", "log1", "log2",
                            "cone:0.2")]
    profiles.append(G.preset_profile("flat", R0=0.5, ambient_dim=3))
    for prof in profiles:
        for r in (prof.R0 / 8.0, prof.R0 / 16.0, prof.R0 / 64.0):
            fr = G.extremal_frame(prof, r)
            rep = G.ball_inclusion_check(prof, fr, nu=0.5)
            if rep.sufficient_condition:
                assert rep.included, (prof.preset, prof.ambient_dim, r)


def test_ball_frame_mismatch():
    prof = G.preset_profile("power:1", R0=1.0)
    fr = G.extremal_frame(prof, 0.1)
    bad = G.ExtremalFrame(x_star=fr.x_star + [0.0, 0.1], phi=fr.phi,
                          rotation=fr.rotation, r=fr.r)
    with pytest.raises(ValueError,
                       match=r"frame does not realize r\*delta\(r\)"):
        G.ball_inclusion_check(prof, bad, nu=0.5)


# ---------------------------------------------------------------- mask

def test_mask_flat_all_fractions_full():
    m = G.domain_mask(G.preset_profile("flat", R0=0.25), h=2.0**-5)
    interior = m.cls == G.INTERIOR
    assert np.all(np.isnan(m.frac_w[interior][~np.isnan(m.frac_w[interior])]
                           ) == False)  # noqa: E712  (no stray fractions)
    # south fractions on the first interior row equal 1 (curve at x2 = 0)
    row1 = m.cls[:, 1] == G.INTERIOR
    ii, jj = np.divmod(m.arms_s.at, m.x2.size)
    assert np.array_equal(ii[jj == 1], np.nonzero(row1)[0])
    assert np.allclose(m.arms_s.frac[jj == 1], 1.0)


def test_mask_node_exactly_on_curve():
    m = G.domain_mask(G.preset_profile("power:1", R0=0.5), h=2.0**-7)
    i = int(np.where(np.isclose(m.x1, 0.25))[0][0])
    j = int(np.where(np.isclose(m.x2, 0.0625))[0][0])
    assert m.cls[i, j] == G.CURVE


def test_mask_node_just_over_tolerance_above_curve():
    # F = max(0, x1/2 - 1e-12): the nodes (x1, x1/2) lie the tolerance
    # above the graph up to rounding.  Where they fail the interior test
    # they are on the curve; classed exterior, they made the horizontal
    # arms toward them end above the graph and the bisection raise
    prof = G.MaxAffineProfile(slopes=np.array([[0.0], [0.5]]),
                              offsets=[0.0, -1e-12], R0=0.5)
    m = G.domain_mask(prof, h=2.0**-5)
    below = m.x2[None, :] - prof.height(m.x1)[:, None] < -1e-12
    assert np.array_equal(m.cls == G.EXTERIOR, below)


@pytest.mark.parametrize("h", [2.0**-6, 0.5 / 48, 0.01])
def test_mask_spacings_are_h(h):
    # the spacing arrays hold h itself; differences of the node
    # coordinates are not h for every h, so they could not stand in.
    # a south arm's fraction is the exact crossing (x2_j - F)/dx2[j - 1]
    prof = G.preset_profile("log1", R0=0.5)
    m = G.domain_mask(prof, h=h)
    for x, dx in ((m.x1, m.dx1), (m.x2, m.dx2)):
        assert dx.dtype == np.float64
        assert dx.tobytes() == np.full(x.size - 1, h).tobytes()
    if h == 0.5 / 48:
        assert np.count_nonzero(np.diff(m.x1) != h) > 0
    ii, jj = np.divmod(m.arms_s.at, m.x2.size)
    assert ii.size > 0
    expect = np.clip((m.x2[jj] - prof.height(m.x1[ii])) / h, 1e-12, 1.0)
    assert m.arms_s.frac.tobytes() == expect.tobytes()


def test_mask_symmetric_for_radial_profile():
    m = G.domain_mask(G.preset_profile("log1", R0=0.5), h=2.0**-6)
    assert np.array_equal(m.cls, m.cls[::-1, :])


def test_mask_horizontal_fraction_matches_inverse():
    # for f = rho^2 the curve rises to the right of the center column, so
    # east arms of right-half interior nodes cross it at x1 = sqrt(x2):
    # fraction (sqrt(x2) - x1)/h
    prof = G.preset_profile("power:1", R0=0.5)
    h = 2.0**-6
    m = G.domain_mask(prof, h=h)
    ii, jj = np.nonzero(~np.isnan(m.frac_e))
    checked = 0
    for i, j in zip(ii, jj):
        if m.cls[i + 1, j] != G.EXTERIOR or m.x1[i] < 0:
            continue
        frac_exact = (math.sqrt(m.x2[j]) - m.x1[i]) / h
        assert m.frac_e[i, j] == pytest.approx(frac_exact, abs=1e-10)
        checked += 1
    assert checked > 0


def scalar_crossing_fraction(profile, p_from, p_to, tol=1e-12):
    """Reference: bisection of one segment at a time, point by point."""
    x0, y0 = float(p_from[0]), float(p_from[1])
    x1, y1 = float(p_to[0]), float(p_to[1])

    def g(s):
        return (y0 + s * (y1 - y0)) - G.profile_height(profile,
                                                       x0 + s * (x1 - x0))

    assert g(0.0) > 0.0 and g(1.0) <= 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return max(hi, tol)


CROSSING_PROFILES = [
    G.preset_profile("log1", R0=0.5),
    G.preset_profile("power:1", R0=0.5),
    G.preset_profile("wedge:2.0944", R0=0.5),
    G.MaxAffineProfile(slopes=[[0.0], [0.9], [-0.3], [1.7]],
                       offsets=[0.0, -0.02, -0.005, -0.11], R0=0.5),
]
CROSSING_IDS = ["log1", "power:1", "wedge:2.0944", "maxaffine"]


def reference_arm(m, profile, i, j, di, dj):
    ni, nj = i + di, j + dj
    if m.cls[ni, nj] != G.EXTERIOR:
        return 1.0
    return scalar_crossing_fraction(profile, (m.x1[i], m.x2[j]),
                                    (m.x1[ni], m.x2[nj]))


@pytest.mark.parametrize("prof", CROSSING_PROFILES, ids=CROSSING_IDS)
def test_mask_crossings_match_scalar_bisection(prof):
    m = G.domain_mask(prof, h=2.0**-6)
    checked = 0
    for frac, di in ((m.frac_w, -1), (m.frac_e, 1)):
        for i, j in zip(*np.nonzero(~np.isnan(frac))):
            assert frac[i, j] == reference_arm(m, prof, i, j, di, 0)
            checked += m.cls[i + di, j] == G.EXTERIOR
    assert checked > 0


@pytest.mark.parametrize("prof", CROSSING_PROFILES, ids=CROSSING_IDS)
def test_diagonal_arm_fraction_matches_scalar_bisection(prof):
    m = G.domain_mask(prof, h=2.0**-6)
    ii, jj = np.nonzero(m.cls == G.INTERIOR)
    for di, dj in ((1, -1), (-1, -1), (1, 1), (-1, 1)):
        got = G.arm_fraction(m, prof, ii, jj, di, dj)
        want = [reference_arm(m, prof, i, j, di, dj)
                for i, j in zip(ii, jj)]
        assert np.array_equal(got, want)
        if dj < 0:
            assert np.any(got < 1.0)


def test_crossing_fraction_batch_rejects_bad_segment():
    prof = G.preset_profile("power:1", R0=0.5)
    p_from = np.array([[0.0, 0.1], [0.2, 0.1], [0.1, 0.3]])
    p_to = np.array([[0.0, -0.1], [0.4, 0.1], [0.1, 0.2]])  # last stays above
    with pytest.raises(ValueError):
        G.curve_crossing_fraction(prof, p_from, p_to)
    ok = G.curve_crossing_fraction(prof, p_from[:2], p_to[:2])
    assert ok.shape == (2,)
    assert ok[0] == scalar_crossing_fraction(prof, p_from[0], p_to[0])
    assert isinstance(G.curve_crossing_fraction(prof, p_from[0], p_to[0]),
                      float)


def test_mask_resolution_error():
    with pytest.raises(ValueError,
                       match="interior nodes on the x1 = 0 column"):
        G.domain_mask(G.preset_profile("flat", R0=0.5), h=0.25)


@pytest.mark.parametrize("h", [0.0, -2.0**-6, math.nan, math.inf])
def test_mask_rejects_nonpositive_or_nonfinite_h(h):
    with pytest.raises(ValueError, match="finite and positive"):
        G.domain_mask(G.preset_profile("flat", R0=0.5), h=h)


def _radial(f):
    return G.RadialProfile(f=f, df=lambda r: 0.0, R0=0.5)


def _late_kink(rho):
    # convex up to 0.498, then a smaller slope: every point that
    # validate_profile samples for the midpoint test has |x'| < 0.4973, so
    # only its difference quotients on [0, R0] see the kink
    rho = np.asarray(rho, dtype=float)
    return np.where(rho <= 0.498, rho**2, 0.498**2 + 0.5 * (rho - 0.498))


_PLANAR_CONE = G.preset_profile("cone:0.4", R0=0.5)


# input checks, each by its message: deleting a check lets the call
# return or fail later with another message
@pytest.mark.parametrize("call, match", [
    (lambda: G.MaxAffineProfile(slopes=[[1.0], [2.0]], offsets=[0.0],
                                R0=0.5),
     "slopes and offsets disagree on piece count"),
    (lambda: G.MaxAffineProfile(slopes=[[1.0, 0.0]], offsets=[0.0], R0=0.5),
     "slope dimension must be ambient_dim - 1"),
    (lambda: G.MaxAffineProfile(slopes=[[1.0]], offsets=[-0.1], R0=0.5),
     r"max offset must be 0 so that F\(0\) = 0"),
    (lambda: G.MaxAffineProfile(slopes=[[math.nan], [0.0]],
                                offsets=[0.0, -0.1], R0=0.5),
     "slopes and offsets must be finite"),
    (lambda: G.MaxAffineProfile(slopes=[[math.inf], [0.0]],
                                offsets=[-0.1, 0.0], R0=0.5),
     "slopes and offsets must be finite"),
    (lambda: G.MaxAffineProfile(slopes=[[1.0], [0.0]],
                                offsets=[math.nan, 0.0], R0=0.5),
     "slopes and offsets must be finite"),
    (lambda: G.MaxAffineProfile(slopes=[[1.0]], offsets=[0.0], R0=math.nan),
     r"patch radius R0 must lie in \(0, 1\], got nan"),
    (lambda: G.MaxAffineProfile(slopes=[[1.0]], offsets=[0.0], R0=-1.0),
     r"patch radius R0 must lie in \(0, 1\], got -1.0"),
    (lambda: G.MaxAffineProfile(slopes=[[1.0, 0.0]], offsets=[0.0], R0=0.5,
                                ambient_dim=3).height(0.1),
     r"height\(x1\) is the planar interface"),
    (lambda: G.preset_profile("flat", R0=0.0),
     r"patch radius R0 must lie in \(0, 1\], got 0.0"),
    (lambda: G.preset_profile("wedge:3.5"),
     r"wedge opening angle must lie in \(0, pi\)"),
    (lambda: G.preset_profile("power:0"),
     r"power profile needs alpha in \(0, 1\]"),
    (lambda: validate_profile(_radial(lambda rho: np.asarray(rho) + 1.0)),
     r"F\(0\) must be 0"),
    (lambda: validate_profile(_radial(lambda rho: -np.asarray(rho))),
     "F must be nonnegative on the patch"),
    (lambda: validate_profile(_radial(np.sqrt)),
     "midpoint convexity fails on a sampled pair"),
    (lambda: validate_profile(_radial(_late_kink)),
     "radial f has decreasing difference quotients"),
    (lambda: G.ball_inclusion_check(
        G.preset_profile("cone:0.4", R0=0.25),
        G.extremal_frame(_PLANAR_CONE, 0.25), 0.5),
     "frame scale exceeds R0/2"),
    (lambda: G.curve_crossing_fraction(_PLANAR_CONE, [0.0, -0.1],
                                       [0.0, -0.2]),
     "segment start must lie above the graph"),
    (lambda: G.domain_mask(G.MaxAffineProfile(
        slopes=[[1.0, 0.0]], offsets=[0.0], R0=0.5, ambient_dim=3),
        2.0**-5),
     "rasterization supports planar profiles only"),
], ids=["piece-count", "slope-dim", "max-offset", "nan-slope", "inf-slope",
        "nan-offset", "affine-R0-nan", "affine-R0-negative",
        "planar-height", "R0",
        "wedge-angle", "power-alpha", "F0", "nonnegative", "convexity",
        "quotients", "frame-scale", "segment-start", "planar-mask"])
def test_geometry_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_validate_profile_accepts_presets():
    for pid in ("flat", "cone:0.4", "power:0.5", "log1", "log2",
                "wedge:2.0943951023931953"):
        validate_profile(G.preset_profile(pid, R0=0.5))


@pytest.mark.parametrize("pid", ["flat", "cone:0.4", "wedge:2.0944",
                                 "power:0.5", "log1", "log2"])
def test_boundary_modulus_of_every_preset(pid):
    # one rule for every profile: sigma(t) = delta(t R0)/delta(R0), which
    # carries the preset's analytic flag
    from hopflab.modulus import Modulus, dini_classify
    sigma, hint = G.boundary_modulus(G.preset_profile(pid, R0=0.5))
    assert isinstance(sigma, Modulus) and sigma.dini_flag == hint
    assert sigma(0.0) == 0.0
    assert sigma(1.0) == (0.0 if pid == "flat" else 1.0)
    assert dini_classify(sigma).verdict == hint


def test_boundary_modulus_mapping():
    from hopflab.modulus import Verdict
    assert G.boundary_modulus(G.preset_profile("flat", R0=0.5))[1] == Verdict.DINI
    assert G.boundary_modulus(G.preset_profile("log1", R0=0.5))[1] == Verdict.NON_DINI
    assert G.boundary_modulus(G.preset_profile("log2", R0=0.5))[1] == Verdict.DINI
    assert G.boundary_modulus(G.preset_profile("wedge:2.0", R0=0.5))[1] == Verdict.NON_DINI
    sigma, flag = G.boundary_modulus(G.preset_profile("power:0.5", R0=0.5))
    assert flag == Verdict.DINI
    # delta(t R0)/delta(R0) = sqrt(t) for f = rho^1.5
    assert sigma(0.25) == pytest.approx(0.5)
