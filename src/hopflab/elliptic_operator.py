"""Nondivergence elliptic operators L u = -a^{ij} D_i D_j u + b^i D_i u.

The coefficient matrix is symmetric with eigenvalues in [nu, 1/nu].  The
approximation machinery replaces a by a mollified field (a convex
combination of admissible matrices, so the eigenvalue bounds survive) and
the drift by a truncated-and-corrected field satisfying the pointwise
majorant |b_eps . grad u| <= |b . grad u| with componentwise
|b_eps^i| <= min(|b^i|, 1/eps).

Discrete L_p norms of grid fields — the concrete realization of the
function-space norms the solver works with — live here as well.

Operator presets: "laplace", "aniso:<l1>,<l2>", "checker[:<eps0>]"
(eps0 = 0.25 by default), "drift[:<scale>]" (scale = 1.0 by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .modulus import _preset_args

__all__ = [
    "ApproximantPair",
    "EllipticOperator",
    "approximate",
    "correct_drift",
    "local_norm",
    "mollify_a",
    "preset_operator",
    "truncate_drift",
]


@dataclass(frozen=True)
class EllipticOperator:
    """Coefficient fields of -a^{ij} D_i D_j + b^i D_i in the plane.

    ``a_grid`` maps coordinate arrays (X1, X2) to (a11, a22, a12) and
    ``b_grid`` to (b1, b2); all five are arrays of the common broadcast
    shape.  ``nu`` is the ellipticity constant: eigenvalues of a lie in
    [nu, 1/nu]."""

    nu: float
    a_grid: Callable
    b_grid: Callable
    params: dict = field(default_factory=dict)

    def b(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        b1, b2 = self.b_grid(np.asarray(x[0]), np.asarray(x[1]))
        return np.array([float(b1), float(b2)])


def _zero_b(X1, X2):
    z = np.zeros(np.broadcast(X1, X2).shape)
    return z, z.copy()


def _unit_a(X1, X2):
    ones = np.ones(np.broadcast(X1, X2).shape)
    return ones, ones.copy(), np.zeros_like(ones)


# argument defaults of each operator preset, None where required
_OPERATOR_GRAMMAR = {"laplace": (), "aniso": (None, None),
                     "checker": (0.25,), "drift": (1.0,)}


def preset_operator(spec: str) -> EllipticOperator:
    """Operator presets by id; parameters are echoed in ``params``.

    "laplace" takes no argument, "aniso:<l1>,<l2>" needs both,
    "checker[:<eps0>]" defaults to eps0 = 0.25 and "drift[:<scale>]" to
    scale = 1.0; any other count of arguments raises ``ValueError``."""
    name, args = _preset_args(spec, "operator", _OPERATOR_GRAMMAR)
    if name == "laplace":
        return EllipticOperator(nu=1.0, a_grid=_unit_a, b_grid=_zero_b,
                                params={})
    if name == "aniso":
        l1, l2 = args
        if not (0 < l1 < math.inf and 0 < l2 < math.inf):
            raise ValueError("anisotropy coefficients must be positive "
                             "and finite")
        nu = min(l1, l2, 1.0 / l1, 1.0 / l2)

        def a_grid(X1, X2, l1=l1, l2=l2):
            shape = np.broadcast(X1, X2).shape
            return (np.full(shape, l1), np.full(shape, l2), np.zeros(shape))
        return EllipticOperator(nu=nu, a_grid=a_grid, b_grid=_zero_b,
                                params={"l1": l1, "l2": l2})
    if name == "checker":
        (eps0,) = args
        if not 0 < eps0 < math.inf:
            raise ValueError("checker cell size must be positive and finite")
        lo, hi = 0.5, 2.0

        def a_grid(X1, X2, eps0=eps0):
            X1 = np.asarray(X1, dtype=float)
            X2 = np.asarray(X2, dtype=float)
            parity = (np.floor(X1 / eps0) + np.floor(X2 / eps0)) % 2
            a11 = np.where(parity == 0, lo, hi)
            a22 = np.where(parity == 0, hi, lo)
            return a11, a22, np.zeros_like(a11)
        return EllipticOperator(nu=0.5, a_grid=a_grid, b_grid=_zero_b,
                                params={"eps0": eps0})
    (scale,) = args  # drift
    if not math.isfinite(scale):
        raise ValueError("drift scale must be finite")

    def b_grid(X1, X2, s=scale):
        X1 = np.asarray(X1, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        return (-s * np.sin(math.pi * X2) * np.ones_like(X1),
                s * np.cos(math.pi * X1) * np.ones_like(X2))
    return EllipticOperator(nu=1.0, a_grid=_unit_a, b_grid=b_grid,
                            params={"scale": scale})


# ----------------------------------------------------------------------
# drift approximation
# ----------------------------------------------------------------------

def truncate_drift(b, epsilon: float):
    """Componentwise clamp min(|b^i|, 1/eps) * sign(b^i).

    Accepts a vector (returns a vector) or a ``b_grid``-style callable
    (returns a wrapped callable)."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    cap = 1.0 / epsilon
    if callable(b):
        def wrapped(X1, X2, b=b, cap=cap):
            b1, b2 = b(X1, X2)
            return (np.clip(b1, -cap, cap), np.clip(b2, -cap, cap))
        return wrapped
    b = np.asarray(b, dtype=float)
    return np.clip(b, -cap, cap)


def correct_drift(b_tilde, b, grad_u) -> np.ndarray:
    """Pointwise correction enforcing |b_eps . g| <= |b . g| exactly.

    With S~ = b_tilde . g and S = b . g:

    * same sign and |S~| <= |S|: unchanged;
    * same sign, too large: the components whose summands b_tilde^i g_i
      share the sign of the excess are scaled by the unique factor in
      [0, 1) making the two inner products equal;
    * opposite signs: the rule is applied to -b_tilde (whose inner product
      has the right sign), scaling again if still too large.

    Componentwise |b_eps^i| <= |b_tilde^i| always.  The scale factor is
    nudged down by ulps if roundoff would push |b_eps . g| above |b . g|.
    """
    b_tilde = np.asarray(b_tilde, dtype=float).copy()
    b = np.asarray(b, dtype=float)
    g = np.asarray(grad_u, dtype=float)
    S = float(b @ g)
    St = float(b_tilde @ g)
    if St * S < 0.0:
        b_tilde = -b_tilde
        St = -St
    if abs(St) <= abs(S):
        return b_tilde
    # now |St| > |S| and the signs agree; scale the excess-side summands
    summands = b_tilde * g
    if St > 0.0:
        sel = summands > 0.0
    else:
        sel = summands < 0.0
    P = float(summands[sel].sum())
    N = float(St - P)
    lam = (S - N) / P
    lam = min(max(lam, 0.0), 1.0)
    out = b_tilde.copy()
    out[sel] *= lam
    # guard against 1-ulp overshoot of the exact inequality
    for _ in range(8):
        if abs(float(out @ g)) <= abs(S):
            break
        lam = math.nextafter(lam, 0.0)
        out = b_tilde.copy()
        out[sel] *= lam
    return out


# ----------------------------------------------------------------------
# leading-coefficient mollification
# ----------------------------------------------------------------------

# quadrature points per axis of the mollifier; an even count keeps
# quadrature mass off jump interfaces that pass through the evaluation
# point, preserving the symmetric average there
_POINTS_PER_AXIS = 6


def _bump_points_weights():
    q = (np.arange(_POINTS_PER_AXIS) + 0.5) / _POINTS_PER_AXIS  # (0, 1)
    t = 2.0 * q - 1.0
    w = np.exp(-1.0 / (1.0 - t**2))
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    W = np.outer(w, w)
    inside = T1**2 + T2**2 < 1.0
    W = np.where(inside, W, 0.0)
    return T1.ravel(), T2.ravel(), (W / W.sum()).ravel()


def mollify_a(a_grid: Callable, epsilon: float, box) -> Callable:
    """Mollified matrix field: kernel-weighted average over a radius-eps
    disc with a smooth bump kernel, extension by the identity outside
    ``box`` = (x1_min, x1_max, x2_min, x2_max).

    The discrete rule is normalized, so every output matrix is a convex
    combination of admissible ones and the eigenvalue interval survives."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    t1, t2, w = _bump_points_weights()
    x1_min, x1_max, x2_min, x2_max = (float(v) for v in box)

    def a_eps(X1, X2):
        X1 = np.asarray(X1, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        shape = np.broadcast(X1, X2).shape
        P1 = X1[..., None] - epsilon * t1
        P2 = X2[..., None] - epsilon * t2
        a11, a22, a12 = a_grid(P1, P2)
        outside = (P1 < x1_min) | (P1 > x1_max) | (P2 < x2_min) | (P2 > x2_max)
        a11 = np.where(outside, 1.0, a11)
        a22 = np.where(outside, 1.0, a22)
        a12 = np.where(outside, 0.0, a12)
        return (np.sum(a11 * w, axis=-1).reshape(shape),
                np.sum(a22 * w, axis=-1).reshape(shape),
                np.sum(a12 * w, axis=-1).reshape(shape))

    return a_eps


@dataclass(frozen=True)
class ApproximantPair:
    """Smoothed leading coefficients and corrected truncated drift.

    ``b_eps_at(x, grad)`` evaluates the corrected drift at a point given
    the gradient of the target function there."""

    a_eps: Callable
    b_eps_raw: Callable
    b_grid: Callable

    def b_eps_at(self, x, grad) -> np.ndarray:
        x1 = np.asarray(x[0], dtype=float)
        x2 = np.asarray(x[1], dtype=float)
        bt = np.array([float(v) for v in self.b_eps_raw(x1, x2)])
        b = np.array([float(v) for v in self.b_grid(x1, x2)])
        return correct_drift(bt, b, grad)


def approximate(op: EllipticOperator, epsilon: float,
                box) -> ApproximantPair:
    """Approximating operator: mollified a plus truncated drift."""
    return ApproximantPair(
        a_eps=mollify_a(op.a_grid, epsilon, box),
        b_eps_raw=truncate_drift(op.b_grid, epsilon),
        b_grid=op.b_grid,
    )


# ----------------------------------------------------------------------
# discrete norms
# ----------------------------------------------------------------------

def local_norm(values: np.ndarray, h: float,
               region: Optional[np.ndarray] = None) -> float:
    """Discrete L2 norm (sum over region of |f|^2 h^2)^(1/2) on a plane
    grid, the L_n norm of the estimate at n = 2.  ``region`` is a boolean
    mask of the same shape; None means all finite entries."""
    vals = np.asarray(values, dtype=float)
    mask = np.isfinite(vals)
    if region is not None:
        mask &= np.asarray(region, dtype=bool)
    if not np.any(mask):
        raise ValueError("region contains no grid nodes")
    return float((np.abs(vals[mask]) ** 2.0).sum() ** 0.5 * h)
