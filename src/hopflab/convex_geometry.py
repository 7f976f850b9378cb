"""Convex boundary graphs and the slope moduli delta and delta1.

The boundary near the origin is the graph x_n = F(x') of a convex
nonnegative F with F(0) = 0, described either radially (F = f(|x'|)) or as
a maximum of affine pieces.  The two moduli

    delta(r)  = max over |x'| <= r of F(x')/|x'|,
    delta1(r) = max over |x'| <= r of |grad F| (subgradient norms at kinks)

are sandwiched: delta(r) <= delta1(r) <= 2 delta(2r).  The module also
builds the local frame at a boundary point realizing delta(r), checks the
interior ball used by the oscillation-decay argument, and rasterizes the
region above the graph for the finite-difference solver.

For any convex F with F(0) = 0 the ratio F(rho u)/rho is nondecreasing
along every ray, so delta(r) is always realized on the sphere |x'| = r;
for max-affine profiles this gives the exact value
max over pieces of (|p_i| + c_i/r).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .modulus import Modulus, Verdict, _preset_args

__all__ = [
    "BallInclusionReport",
    "BoundaryProfile",
    "CrossingArms",
    "DomainMask",
    "ExtremalFrame",
    "MaxAffineProfile",
    "RadialProfile",
    "SandwichReport",
    "arm_fraction",
    "ball_inclusion_check",
    "boundary_modulus",
    "curve_crossing_fraction",
    "delta",
    "delta1",
    "domain_mask",
    "extremal_frame",
    "preset_profile",
    "profile_height",
    "sandwich_check",
]


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """F(x') = f(|x'|) with f convex nondecreasing, f(0) = 0."""

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[float], float]  # closed-form derivative
    R0: float
    ambient_dim: int = 2
    preset: Optional[tuple] = None  # parsed preset id (name, args)

    def height(self, x1):
        """Graph height over planar abscissae (ambient_dim = 2)."""
        out = np.asarray(self.f(np.abs(np.asarray(x1, dtype=float))), dtype=float)
        return float(out) if out.ndim == 0 else out

    def left_derivative(self, r: float) -> float:
        return float(self.df(r))


@dataclass(frozen=True)
class MaxAffineProfile:
    """F(x') = max over pieces of (p_i . x' + c_i), with max c_i = 0.

    Slopes and offsets must be finite and R0 must lie in (0, 1], as for
    `preset_profile`; anything else raises ``ValueError``."""

    slopes: np.ndarray   # (k, n-1)
    offsets: np.ndarray  # (k,)
    R0: float
    ambient_dim: int = 2

    def __post_init__(self):
        slopes = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        if slopes.shape[0] != offsets.shape[0]:
            raise ValueError("slopes and offsets disagree on piece count")
        if slopes.shape[1] != self.ambient_dim - 1:
            raise ValueError("slope dimension must be ambient_dim - 1")
        if not (np.isfinite(slopes).all() and np.isfinite(offsets).all()):
            raise ValueError("slopes and offsets must be finite")
        if not 0.0 < self.R0 <= 1.0:
            raise ValueError(f"patch radius R0 must lie in (0, 1], "
                             f"got {self.R0}")
        if abs(offsets.max()) > 1e-12:
            raise ValueError("max offset must be 0 so that F(0) = 0")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "offsets", offsets)

    def height(self, x1):
        """Graph height over planar abscissae (ambient_dim = 2)."""
        if self.ambient_dim != 2:
            raise ValueError("height(x1) is the planar interface; "
                             "use profile_height for general points")
        x = np.asarray(x1, dtype=float)
        vals = x[..., None] * self.slopes[:, 0] + self.offsets
        out = vals.max(axis=-1)
        return float(out) if out.ndim == 0 else out


BoundaryProfile = Union[RadialProfile, MaxAffineProfile]


def profile_height(profile: BoundaryProfile, xprime):
    """F at a point x' of any ambient dimension, a float, or at each row
    of an array of points, an array."""
    xp = np.atleast_1d(np.asarray(xprime, dtype=float))
    if isinstance(profile, RadialProfile):
        out = np.asarray(profile.f(np.linalg.norm(xp, axis=-1)), dtype=float)
    else:
        out = (xp @ profile.slopes.T + profile.offsets).max(axis=-1)
    return float(out) if out.ndim == 0 else out


# argument defaults of each profile preset, None where required
_PROFILE_GRAMMAR = {"flat": (), "cone": (None,), "power": (None,),
                    "log1": (), "log2": (), "wedge": (2.0 * math.pi / 3.0,)}


def preset_profile(spec: str, R0: float = 0.5, ambient_dim: int = 2) -> BoundaryProfile:
    """Boundary profile presets.

    "flat", "cone:<c>", "power:<alpha>" (f = rho^(1+alpha)),
    "log1" (f = rho/ln(e R0/rho)), "log2" (f = rho/ln(e R0/rho)^2),
    "wedge[:<theta>]" (planar cone of opening angle theta < pi, default
    2 pi/3).  cone and power need their one argument, wedge takes at most
    one, and the others take none; any other count raises ``ValueError``.
    The profile keeps the parsed id, ``(name, args)`` with every argument
    filled in, as its ``preset``.
    """
    if not 0.0 < R0 <= 1.0:
        raise ValueError(f"patch radius R0 must lie in (0, 1], got {R0}")
    name, args = _preset_args(spec, "profile", _PROFILE_GRAMMAR)
    if name == "cone":
        (c,) = args
        if not 0 <= c < math.inf:
            raise ValueError("cone slope must be nonnegative and finite")
    elif name == "wedge":
        (theta,) = args
        if not 0.0 < theta < math.pi:
            raise ValueError("wedge opening angle must lie in (0, pi)")
        c, ambient_dim = 1.0 / math.tan(theta / 2.0), 2
    if name == "flat":
        f, df = (lambda rho: np.zeros_like(np.asarray(rho, float)),
                 lambda r: 0.0)
    elif name in ("cone", "wedge"):
        f, df = lambda rho: c * np.asarray(rho, float), lambda r: c
    elif name == "power":
        (alpha,) = args
        if not 0.0 < alpha <= 1.0:
            raise ValueError("power profile needs alpha in (0, 1]")
        f, df = (lambda rho: np.power(np.asarray(rho, float), 1.0 + alpha),
                 lambda r: (1.0 + alpha) * r**alpha)
    else:
        p = 1 if name == "log1" else 2  # f = rho / L**p, L = ln(e R0/rho)

        def f(rho):
            rho = np.asarray(rho, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                L = 1.0 + np.log(R0) - np.log(rho)
                out = np.where(rho > 0.0, rho / L**p, 0.0)
            return out

        def df(r):
            L = 1.0 + math.log(R0) - math.log(r)
            return 1.0 / L**p + p / L**(p + 1)
    return RadialProfile(f=f, df=df, R0=R0, ambient_dim=ambient_dim,
                         preset=(name, args))


# ----------------------------------------------------------------------
# delta and delta1
# ----------------------------------------------------------------------

def _check_scale(profile: BoundaryProfile, r, limit: float = None):
    """Reject a scale, or any scale in an array, outside (0, limit]."""
    limit = profile.R0 if limit is None else limit
    r = np.asarray(r, dtype=float)
    bad = ~((r > 0.0) & (r <= limit + 1e-12))
    if np.any(bad):
        raise ValueError(f"scale r = {r[bad].flat[0]} outside (0, {limit}]")


def delta(profile: BoundaryProfile, r):
    """Boundary slope modulus: max over |x'| <= r of F(x')/|x'|.

    ``r`` is a radius or an array of radii, each in (0, R0]; the result
    is a float or an array of r's shape."""
    _check_scale(profile, r)
    r = np.asarray(r, dtype=float)
    if isinstance(profile, RadialProfile):
        out = np.asarray(profile.f(r), dtype=float) / r
    else:
        norms = np.linalg.norm(profile.slopes, axis=1)
        out = (norms[:, None] + profile.offsets[:, None] / r.reshape(-1)
               ).max(axis=0).reshape(r.shape)
    return float(out) if out.ndim == 0 else out


def delta1(profile: BoundaryProfile, r: float) -> float:
    """Gradient modulus: max subgradient norm of F over |x'| <= r."""
    _check_scale(profile, r)
    if isinstance(profile, RadialProfile):
        return profile.left_derivative(r)
    active = _active_pieces(profile, r)
    return float(np.linalg.norm(profile.slopes[active], axis=1).max())


def _active_pieces(profile: MaxAffineProfile, r: float) -> np.ndarray:
    """Boolean mask of pieces that attain F somewhere in the closed ball."""
    p, c = profile.slopes, profile.offsets
    k, d = p.shape
    if d == 1:
        # exact: piece i is active on the interval [-r, r] cut by the
        # halflines (p_i - p_j) x >= c_j - c_i, unless a parallel piece
        # lies strictly above it (the diagonal, a = b = 0, cuts nothing)
        a = p[:, 0, None] - p[None, :, 0]
        b = c[None, :] - c[:, None]
        cut = np.divide(b, a, out=np.zeros_like(b), where=a != 0.0)
        lo = np.where(a > 0.0, cut, -r).max(axis=1)
        hi = np.where(a < 0.0, cut, r).min(axis=1)
        above = ((a == 0.0) & (b > 1e-15)).any(axis=1)
        return ~above & (lo <= hi + 1e-15)
    # sampled activity detection on a direction/radius grid plus each
    # piece's dominant point r p_i/|p_i| (the latter guarantees that the
    # piece realizing delta is detected, hence delta <= delta1)
    pts = [np.zeros(d)]
    norms = np.linalg.norm(p, axis=1)
    for i in range(k):
        if norms[i] > 0.0:
            pts.append(r * p[i] / norms[i])
    rng = np.random.default_rng(12345)
    dirs = rng.standard_normal((256, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for rad in np.geomspace(r / 64.0, r, 8):
        pts.extend(rad * dirs)
    pts = np.asarray(pts)
    vals = pts @ p.T + c[None, :]
    best = vals.max(axis=1, keepdims=True)
    tol = 1e-12 * max(1.0, float(np.abs(best).max()))
    return np.any(vals >= best - tol, axis=0)


@dataclass(frozen=True)
class SandwichReport:
    """delta, delta1 and the sandwich's two flags at r, for the CLI checks."""

    r: float
    delta_r: float
    delta1_r: float
    delta_2r: float
    lower_ok: bool   # delta(r) <= delta1(r)
    upper_ok: bool   # delta1(r) <= 2 delta(2r)
    lower_slack: float
    upper_slack: float

    @property
    def both_ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def sandwich_check(profile: BoundaryProfile, r: float) -> SandwichReport:
    """Verify delta(r) <= delta1(r) <= 2 delta(2r), each to 1e-10, and
    report slacks."""
    if 2.0 * r > profile.R0 + 1e-12:
        raise ValueError(f"need 2r <= R0, got r = {r}, R0 = {profile.R0}")
    d = delta(profile, r)
    d1 = delta1(profile, r)
    d2 = delta(profile, 2.0 * r)
    return SandwichReport(
        r=r, delta_r=d, delta1_r=d1, delta_2r=d2,
        lower_ok=bool(d <= d1 + 1e-10),
        upper_ok=bool(d1 <= 2.0 * d2 + 1e-10),
        lower_slack=d1 - d,
        upper_slack=2.0 * d2 - d1,
    )


# ----------------------------------------------------------------------
# extremal frame and interior ball
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalFrame:
    """Local orthogonal frame at a boundary point realizing delta(r).

    ``rotation`` maps displacements to frame coordinates, y = Q (x - x_star).
    The y_1 axis points along the outward horizontal direction projected
    onto the supporting hyperplane; the last axis points into the domain."""

    x_star: np.ndarray
    phi: float
    rotation: np.ndarray
    r: float
    degenerate: bool = False

    @property
    def n(self) -> int:
        return self.x_star.size

    def to_x(self, y):
        return self.x_star + np.asarray(y, dtype=float) @ self.rotation


def extremal_frame(profile: BoundaryProfile, r: float) -> ExtremalFrame:
    """Frame at x* on the sphere |x'| = r where F(x')/|x'| is maximal.

    tan(phi) is the supporting-hyperplane slope at x* (a subgradient norm),
    so tan(phi) <= delta1(r).  A flat boundary (delta(r) = 0) degenerates
    to the identity frame with phi = 0."""
    _check_scale(profile, r, limit=profile.R0 / 2.0)
    n = profile.ambient_dim
    d = delta(profile, r)
    if isinstance(profile, RadialProfile):
        u = np.zeros(n - 1)
        u[0] = 1.0
        slope = profile.left_derivative(r) if d > 0.0 else 0.0
    else:
        norms = np.linalg.norm(profile.slopes, axis=1)
        i_star = int(np.argmax(norms + profile.offsets / r))
        if norms[i_star] > 0.0:
            u = profile.slopes[i_star] / norms[i_star]
        else:
            u = np.zeros(n - 1)
            u[0] = 1.0
        slope = norms[i_star]
    if d <= 0.0:
        x_star = np.concatenate((r * u, [0.0]))
        return ExtremalFrame(x_star=x_star, phi=0.0, rotation=np.eye(n),
                             r=r, degenerate=True)
    x_star = np.concatenate((r * u, [r * d]))
    phi = math.atan(slope)
    cos, sin = math.cos(phi), math.sin(phi)
    rows = np.zeros((n, n))
    rows[0, :n - 1] = cos * u
    rows[0, n - 1] = sin
    rows[n - 1, :n - 1] = -sin * u
    rows[n - 1, n - 1] = cos
    if n > 2:
        # complete the tangential block with an orthonormal complement of u
        basis = np.linalg.svd(u[None, :])[2][1:]
        rows[1:n - 1, :n - 1] = basis
    return ExtremalFrame(x_star=x_star, phi=phi, rotation=rows, r=r)


@dataclass(frozen=True)
class BallInclusionReport:
    """The interior ball's fit, margin and smallness, for ``geometry``."""

    included: bool
    margin: float
    gamma: float
    rho0: float
    z0: np.ndarray
    smallness_ok: bool
    sufficient_condition: bool  # 16 delta(2r) < gamma (2 cos phi - 1)


_BALL_SAMPLES = 512   # boundary points of the ball that the check tests


def ball_inclusion_check(profile: BoundaryProfile, frame: ExtremalFrame,
                         nu: float) -> BallInclusionReport:
    """Check that the ball B_rho0(z0) stays above the graph.

    In frame coordinates z0 = (r/2, 0, ..., 0, gamma r/4) with
    gamma = nu/sqrt(n-1) and rho0 = gamma r/8.  The center and
    ``_BALL_SAMPLES`` points of the boundary sphere (equispaced at n = 2,
    Gaussian directions from a fixed seed above) are mapped to x-coordinates
    and tested against x_n > F(x'); the report carries the worst margin.
    Whenever 16 delta(2r) < gamma (2 cos phi - 1) the result is
    guaranteed True.  The smallness premise delta1(R0) <= 3/4 is reported
    but the check still executes when it fails."""
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    n = frame.n
    r = frame.r
    if not 0.0 < r <= profile.R0 / 2.0 + 1e-12:
        raise ValueError("frame scale exceeds R0/2")
    expected_xn = r * delta(profile, r)
    if abs(frame.x_star[-1] - expected_xn) > 1e-9 * max(1.0, expected_xn):
        raise ValueError("frame does not realize r*delta(r)")
    gamma = nu / math.sqrt(n - 1)
    rho0 = gamma * r / 8.0
    z0_y = np.zeros(n)
    z0_y[0] = r / 2.0
    z0_y[-1] = gamma * r / 4.0
    z0_x = frame.to_x(z0_y)

    if n == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, _BALL_SAMPLES, endpoint=False)
        dirs = np.column_stack((np.cos(ang), np.sin(ang)))
    else:
        dirs = np.random.default_rng(0).standard_normal((_BALL_SAMPLES, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.vstack((z0_x[None, :], z0_x[None, :] + rho0 * dirs))
    margin = float((pts[:, -1] - profile_height(profile, pts[:, :-1])).min())

    cos_phi = math.cos(frame.phi)
    sufficient = 16.0 * delta(profile, 2.0 * r) < gamma * (2.0 * cos_phi - 1.0)
    return BallInclusionReport(
        included=bool(margin > 0.0),
        margin=margin,
        gamma=gamma,
        rho0=rho0,
        z0=z0_x,
        smallness_ok=bool(delta1(profile, profile.R0) <= 0.75),
        sufficient_condition=bool(sufficient),
    )


# ----------------------------------------------------------------------
# rasterization
# ----------------------------------------------------------------------

EXTERIOR, INTERIOR, CURVE, EDGE = 0, 1, 2, 3

# a node within this distance of the graph lies on it; crossing fractions
# are bisected to this width per unit arm
_CURVE_TOL = 1e-12

# interior nodes the x1 = 0 column needs for the grid to resolve the domain
_MIN_COLUMN_NODES = 4


class CrossingArms(NamedTuple):
    """The arms in one direction from interior nodes to neighbors on or
    below the graph: ``at``, each arm's node as its flat offset
    ``i * n2 + j`` in the raveled grid (n2 the row count), in (i, j)
    order, and ``frac``, the fraction in (0, 1] of the local spacing at
    which the arm meets the graph (1 where the neighbor is on it)."""

    at: np.ndarray
    frac: np.ndarray


@dataclass(frozen=True)
class DomainMask:
    """Node classification of the box [-R0, R0] x [0, R0].

    The grid is the tensor product of the ascending node coordinates
    ``x1`` (columns) and ``x2`` (rows).  ``dx1[i]`` is the spacing from
    column i to column i + 1 and ``dx2[j]`` that from row j to row j + 1;
    everything below the mask reads node positions and spacings from
    these four arrays.  ``cls`` holds EXTERIOR/INTERIOR/CURVE/EDGE per
    node, indexed [i, j] for column i, row j.  ``arms_w/e/s`` hold only
    the arms that leave an interior node westward, eastward or southward
    and end on or below the graph (``CrossingArms``), a few per column of
    the boundary, not a value per node.  The upward arm never crosses
    the graph.  ``frac_w/e`` are views built on demand from the west and
    east arms: grids of the fractions, NaN off the arms."""

    x1: np.ndarray
    x2: np.ndarray
    dx1: np.ndarray
    dx2: np.ndarray
    cls: np.ndarray
    arms_w: CrossingArms
    arms_e: CrossingArms
    arms_s: CrossingArms

    @property
    def center_col(self) -> int:
        return (self.x1.size - 1) // 2

    def _dense(self, arms: CrossingArms) -> np.ndarray:
        out = np.full(self.cls.shape, np.nan)
        np.put(out, arms.at, arms.frac)
        return out

    @property
    def frac_w(self) -> np.ndarray:
        """West arm fractions as a grid, NaN off the arms; built anew on
        every read."""
        return self._dense(self.arms_w)

    @property
    def frac_e(self) -> np.ndarray:
        """East arm fractions as a grid, NaN off the arms; built anew on
        every read."""
        return self._dense(self.arms_e)


def curve_crossing_fraction(profile: BoundaryProfile, p_from, p_to):
    """Fractions s in (0, 1] along the segments p_from -> p_to (points
    along the last axis) at which they cross the graph x2 = F(x1).  Every
    p_from must lie strictly above the graph, every p_to on or below it.
    All segments are bisected together to |ds| <= 1e-12; the width halves
    exactly from 1, so each takes the steps it would take alone.  One
    segment gives a float."""
    p_from = np.asarray(p_from, dtype=float)
    p_to = np.asarray(p_to, dtype=float)
    x0, y0 = p_from[..., 0], p_from[..., 1]
    dx, dy = p_to[..., 0] - x0, p_to[..., 1] - y0

    def g(s):
        return (y0 + s * dy) - profile.height(x0 + s * dx)

    if np.any(g(0.0) <= 0.0):
        raise ValueError("segment start must lie above the graph")
    if np.any(g(1.0) > 0.0):
        raise ValueError("segment end must lie on or below the graph")
    lo, hi = np.zeros(x0.shape), np.ones(x0.shape)
    width = 1.0
    while width > _CURVE_TOL:
        mid = 0.5 * (lo + hi)
        above = g(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        width *= 0.5
    out = np.maximum(hi, _CURVE_TOL)
    return float(out) if out.ndim == 0 else out


def arm_fraction(mask: DomainMask, profile: BoundaryProfile, i, j,
                 di: int, dj: int) -> np.ndarray:
    """Arm fractions from the nodes (i, j) toward (i + di, j + dj).

    1 where the neighbor is a node of the closed domain (INTERIOR, EDGE
    or CURVE); where it lies below the graph, the fraction of the arm at
    which the graph is crossed.  The neighbor classes are read at the
    flat offset ``di * n2 + dj`` of the raveled grid, n2 its row count."""
    n2 = mask.x2.size
    out = mask.cls.ravel().take(i * n2 + j + (di * n2 + dj)) == EXTERIOR
    frac = np.ones(i.shape)
    io, jo = i[out], j[out]
    p_from = np.stack((mask.x1[io], mask.x2[jo]), axis=-1)
    p_to = np.stack((mask.x1[io + di], mask.x2[jo + dj]), axis=-1)
    frac[out] = curve_crossing_fraction(profile, p_from, p_to)
    return frac


def domain_mask(profile: BoundaryProfile, h: float) -> DomainMask:
    """Classify grid nodes of the solver box [-R0, R0] x [0, R0] against
    the graph.

    The x1 = 0 column is a grid line; R0 must be an integer multiple of
    h.  Both spacing arrays hold h itself, not differences of the node
    coordinates, which for an h that is not a power of two differ from h
    in the last bits.  Fractional distances to the curve are exact along
    the vertical axis and located by one vectorized bisection over all
    crossing arms along the horizontal axis (tolerance 1e-12 per unit
    arm)."""
    if profile.ambient_dim != 2:
        raise ValueError("rasterization supports planar profiles only")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"grid spacing h must be finite and positive, "
                         f"got {h}")
    R0 = profile.R0
    M = int(round(R0 / h))
    if M < 2 or abs(M * h - R0) > 1e-9 * h:
        raise ValueError("R0 must be an integer multiple of h")
    x1 = (np.arange(2 * M + 1) - M) * h
    x2 = np.arange(M + 1) * h
    F = np.asarray(profile.height(x1), dtype=float)

    X2 = x2[None, :]
    Fc = F[:, None]
    # a node that is not interior is exterior only when it lies more than
    # the tolerance below the graph: X2 - F can round to just over the
    # tolerance where X2 > F + tol rounds false, and such a node, above
    # the graph, is on the curve
    cls = np.where(X2 > Fc + _CURVE_TOL, INTERIOR,
                   np.where(X2 - Fc >= -_CURVE_TOL, CURVE,
                            EXTERIOR)).astype(np.int8)
    edge = np.zeros_like(cls, dtype=bool)
    edge[0, :] = True
    edge[-1, :] = True
    edge[:, -1] = True
    cls[edge & (cls == INTERIOR)] = EDGE

    interior_center = int(np.count_nonzero(cls[M, :] == INTERIOR))
    if interior_center < _MIN_COLUMN_NODES:
        raise ValueError(
            f"only {interior_center} interior nodes on the x1 = 0 column; "
            f"need at least {_MIN_COLUMN_NODES}")

    dx1, dx2 = np.full(2 * M, h), np.full(M, h)
    n2 = x2.size
    # the classification alone, which arm_fraction reads; the arms are
    # added below
    no_arms = CrossingArms(np.empty(0, dtype=np.intp), np.empty(0))
    mask = DomainMask(x1=x1, x2=x2, dx1=dx1, dx2=dx2, cls=cls,
                      arms_w=no_arms, arms_e=no_arms, arms_s=no_arms)
    interior = cls == INTERIOR
    crossed = (cls == EXTERIOR) | (cls == CURVE)

    # south arms have the exact fraction (x2_j - F)/dx2[j - 1]
    s_mask = interior.copy()
    s_mask[:, 1:] &= crossed[:, :-1]
    s_mask[:, 0] = False
    ii, jj = np.nonzero(s_mask)
    arms = {"arms_s": CrossingArms(
        ii * n2 + jj,
        np.clip((x2[jj] - F[ii]) / dx2[jj - 1], _CURVE_TOL, 1.0))}

    # horizontal arms need a root find against the graph; the box sides
    # hold no interior node, so rolling the columns wraps onto none
    for name, di in (("arms_w", -1), ("arms_e", 1)):
        ii, jj = np.nonzero(interior & np.roll(crossed, -di, axis=0))
        arms[name] = CrossingArms(ii * n2 + jj,
                                  arm_fraction(mask, profile, ii, jj, di, 0))
    return dataclasses.replace(mask, **arms)


# ----------------------------------------------------------------------
# boundary modulus for the decay experiment
# ----------------------------------------------------------------------

# the analytic Dini class of each profile preset: cones and wedges have
# delta bounded away from zero, the regime in which the normal derivative
# already degenerates
_PRESET_DINI = {"flat": Verdict.DINI, "cone": Verdict.NON_DINI,
                "wedge": Verdict.NON_DINI, "power": Verdict.DINI,
                "log1": Verdict.NON_DINI, "log2": Verdict.DINI}


def boundary_modulus(profile: BoundaryProfile):
    """Normalized slope modulus sigma(t) = delta(t R0)/delta(R0) plus a
    Dini hint.

    Returns (sigma, hint), the same rule for every profile: sigma(0) = 0,
    and sigma = 0 throughout where delta(R0) = 0 (a flat boundary).  The
    hint is the preset's analytic flag, None for a profile without a
    preset, and sigma carries it as its ``dini_flag``.  delta is exact,
    nondecreasing and vectorized, so the numeric classification reads
    sigma at every depth it probes."""
    preset = getattr(profile, "preset", None)
    flag = _PRESET_DINI[preset[0]] if preset else None
    d_R0 = delta(profile, profile.R0)

    def sigma(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        if d_R0 > 0.0:
            out[t > 0.0] = delta(profile, t[t > 0.0] * profile.R0) / d_R0
        return out

    return Modulus(fn=sigma, dini_flag=flag), flag
