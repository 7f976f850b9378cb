"""Property checks and constructions that only the tests use.

Each one checks or builds an object of ``hopflab`` from outside: a
profile's convexity, an operator's eigenvalue interval, a modulus's
invariants and scaling relations, the ratio-monotone majorant of a
modulus, the L2-norm modulus of a grid field and the Aleksandrov
constant fitted over solves.  No run of the package calls them, so they
live here and not in ``src/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from hopflab import convex_geometry as G
from hopflab import modulus as M


# ---------------------------------------------------------------- geometry

def validate_profile(profile: G.BoundaryProfile) -> None:
    """Sampled invariant checks over 200 seeded points of the patch: F(0) =
    0, F >= 0, midpoint convexity, and (radial) nondecreasing difference
    quotients."""
    rng = np.random.default_rng(0)
    d = profile.ambient_dim - 1
    if abs(G.profile_height(profile, np.zeros(d))) > 1e-12:
        raise ValueError("F(0) must be 0")
    pts = rng.uniform(-profile.R0, profile.R0, size=(200, d))
    pts = pts[np.linalg.norm(pts, axis=1) <= profile.R0]
    vals = np.array([G.profile_height(profile, p) for p in pts])
    if np.any(vals < -1e-12):
        raise ValueError("F must be nonnegative on the patch")
    half = len(pts) // 2
    for x, z in zip(pts[:half], pts[half:2 * half]):
        lhs = G.profile_height(profile, (x + z) / 2.0)
        rhs = 0.5 * (G.profile_height(profile, x)
                     + G.profile_height(profile, z))
        if lhs > rhs + 1e-12:
            raise ValueError("midpoint convexity fails on a sampled pair")
    if isinstance(profile, G.RadialProfile):
        rho = np.linspace(0.0, profile.R0, 64)
        f = np.array([float(profile.f(x)) for x in rho])
        quot = np.diff(f) / np.diff(rho)
        if np.any(np.diff(quot) < -1e-10):
            raise ValueError("radial f has decreasing difference quotients")


# ---------------------------------------------------------------- operators

def ellipticity_check(op, points: np.ndarray) -> dict:
    """Sampled eigenvalue-interval and symmetry check.

    ``points`` has shape (m, 2).  Symmetry is structural here (a12 stored
    once), so the report focuses on the eigenvalue interval [nu, 1/nu],
    held to 1e-12."""
    pts = np.asarray(points, dtype=float)
    a11, a22, a12 = op.a_grid(pts[:, 0], pts[:, 1])
    half_tr = 0.5 * (a11 + a22)
    disc = np.sqrt(0.25 * (a11 - a22) ** 2 + a12**2)
    lo = float((half_tr - disc).min())
    hi = float((half_tr + disc).max())
    ok = lo >= op.nu - 1e-12 and hi <= 1.0 / op.nu + 1e-12
    return {"ok": bool(ok), "min_eig": lo, "max_eig": hi, "nu": op.nu}


def norm_modulus(values: np.ndarray, h: float, rho_list):
    """mu(rho) = max over grid centers of the local L2 norm of the finite
    entries on B_rho(center).

    Returns one value per rho; the sequence is nonincreasing for
    decreasing rho.  For bounded fields mu(rho) <= sup|f| (pi rho^2)^(1/2)
    up to O(h/rho) raster error."""
    from scipy.signal import fftconvolve

    vals = np.asarray(values, dtype=float)
    mask = np.isfinite(vals)
    if not np.any(mask):
        raise ValueError("region contains no grid nodes")
    power = np.where(mask, np.nan_to_num(vals) ** 2, 0.0)
    out = []
    for rho in rho_list:
        if rho <= 0.0:
            raise ValueError("radii must be positive")
        k = int(math.floor(rho / h))
        off = np.arange(-k, k + 1)
        O1, O2 = np.meshgrid(off, off, indexing="ij")
        kernel = ((O1**2 + O2**2) * h**2 <= rho**2 + 1e-15).astype(float)
        sums = fftconvolve(power, kernel, mode="same")
        best = float(np.max(np.where(mask, sums, -np.inf)))
        out.append(max(best, 0.0) ** 0.5 * h)
    return out


# ---------------------------------------------------------------- moduli

def regularize(sigma_raw: Callable[[np.ndarray], np.ndarray]) -> M.Modulus:
    """Ratio-monotone majorant of a raw nondecreasing modulus.

    ``sigma_raw`` is vectorized: it is called once on the whole grid, 400
    geometric nodes of [1e-12, 1], and must return an array of the grid's
    shape.  Evaluates ``t * sup over tau in [t, 1] of sigma(tau)/tau`` on
    that grid (suffix maximum of the sampled ratio) and returns the
    tabulated result.  A modulus whose ratio is already nonincreasing is a
    fixed point at the grid nodes.
    """
    grid = np.geomspace(1e-12, 1.0, 400)
    raw0 = float(sigma_raw(0.0))
    raw1 = float(sigma_raw(1.0))
    if abs(raw0) > 1e-12 or abs(raw1 - 1.0) > 1e-12:
        raise ValueError(
            f"need sigma(0) = 0 and sigma(1) = 1, got {raw0!r} and {raw1!r}"
        )
    vals = np.asarray(sigma_raw(grid), dtype=float)
    if np.any(np.diff(vals) < -1e-12):
        raise ValueError("sigma decreases on the evaluation grid")
    ratio = vals / grid
    suffix = np.maximum.accumulate(ratio[::-1])[::-1]
    reg = grid * suffix
    # suffix max can only raise values, and the result ends at sigma(1) = 1
    return M.from_table(np.concatenate(([0.0], grid)),
                        np.concatenate(([0.0], reg)))


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of `check_invariants`, one flag per invariant."""

    endpoints_ok: bool
    monotone_ok: bool
    ratio_monotone_ok: bool


def check_invariants(sigma: M.Modulus) -> InvariantReport:
    """Endpoint, monotonicity and ratio-monotonicity checks on 400
    geometric samples of [1e-10, 1]."""
    grid = np.geomspace(1e-10, 1.0, 400)
    v0 = sigma(0.0)
    v1 = sigma(1.0)
    endpoints = abs(v0) <= 1e-12 and abs(v1 - 1.0) <= 1e-12
    vals = sigma(grid)
    return InvariantReport(
        endpoints_ok=bool(endpoints),
        monotone_ok=bool(np.diff(vals).min() >= -1e-12),
        ratio_monotone_ok=bool(np.diff(vals / grid).max() <= 1e-12),
    )


@dataclass(frozen=True)
class RelationReport:
    """Outcome of `verify_relations`: whether each relation holds, and the
    slack of the sigma scaling."""

    sigma_le_j: bool
    scaling_sigma: bool
    scaling_j: bool
    slack_scaling_sigma: float

    @property
    def all_hold(self) -> bool:
        return self.sigma_le_j and self.scaling_sigma and self.scaling_j


def verify_relations(sigma: M.Modulus, t: float, t0: float) -> RelationReport:
    """Check sigma(t) <= J(t), sigma(t/t0) <= sigma(t)/t0 and
    J(t/t0) <= J(t)/t0, reporting whether each holds and the slack
    sigma(t)/t0 - sigma(t/t0) of the second.  A divergent J (inf) makes
    the first and third hold.  ``QuadratureToleranceError`` propagates: J
    is finite there but not resolved to 1e-9, and reading it as inf would
    pass the third check vacuously."""
    if not (0.0 < t <= t0 <= 1.0):
        raise ValueError(f"need 0 < t <= t0 <= 1, got t={t}, t0={t0}")
    j_t = M.dini_integral(sigma, t)
    j_scaled = M.dini_integral(sigma, t / t0)
    s_t = sigma(t)
    s_scaled = sigma(t / t0)
    tol = 1e-8
    slack = s_t / t0 - s_scaled
    return RelationReport(
        sigma_le_j=bool(j_t - s_t >= -tol * max(1.0, abs(j_t))),
        scaling_sigma=bool(slack >= -tol),
        scaling_j=bool(math.isinf(j_t)
                       or j_t / t0 - j_scaled >= -tol * max(1.0, j_t)),
        slack_scaling_sigma=slack,
    )


# ---------------------------------------------------------------- solves

@dataclass(frozen=True)
class AleksandrovFit:
    """Outcome of `aleksandrov_constant_fit`: the fitted constant and the
    ratio of each run that entered it."""

    constant: float
    per_run_ratio: tuple
    used_runs: int


def aleksandrov_constant_fit(runs: Sequence[dict]) -> AleksandrovFit:
    """Fit the smallest N0 with sup u <= N0 * diam * ||f_+|| across runs.

    Each run is a dict with keys ``sup_u``, ``diam``, ``f_norm``; runs
    with sup u <= 0 are excluded (any constant works for them)."""
    ratios = []
    for run in runs:
        if run["sup_u"] <= 0.0:
            continue
        denom = run["diam"] * run["f_norm"]
        if denom <= 0.0:
            raise ValueError("run with positive sup u needs diam*||f|| > 0")
        ratios.append(run["sup_u"] / denom)
    if len(ratios) < 1:
        raise ValueError("no nontrivial runs to fit")
    return AleksandrovFit(constant=float(max(ratios)),
                          per_run_ratio=tuple(ratios),
                          used_runs=len(ratios))
