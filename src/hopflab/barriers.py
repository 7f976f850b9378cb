"""Barrier functions and certified inequality checks.

Three closed-form barriers drive the comparison arguments:

* cylinder barrier  psi(y) = k [(1 - y_n/(gamma rho))^2 - |y'|^2/rho^2],
  a supersolution in the slab 0 < y_n < gamma rho once
  gamma = nu/sqrt(n-1): the second-order bracket
  sum_tau a_tt - a_nn/gamma^2 is then <= 0 for every admissible a;
* annulus barrier   w(x) = k1 (|x-z|^-s - rho0^-s)/((rho0/8)^-s - rho0^-s),
  normalized to k1 on the inner sphere and 0 on the outer one;
* capped barrier    W, the same profile with outer radius z_n (the sphere
  through the origin's hyperplane tangency).

For w and W,  -a^{ij} D_i D_j |x-z|^-s has the sign of
(s+2)(a xhat, xhat) - tr a.  The elementary sufficient bound uses
(a xhat, xhat) >= nu and tr a <= n/nu separately, giving the margin
(s+2) nu - n/nu >= 0, i.e. s >= n/nu^2 - 2; the choice s = n/nu^2 clears
it by 2 nu.  Those two extremes are not jointly attainable by one
symmetric matrix: over the admissible class itself the minimum bracket is
(s+1) nu - (n-1)/nu, so certificates report both the conservative margin
(the pass/fail verdict) and the sampled minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "BarrierSpec",
    "ChainReport",
    "CylinderCertificate",
    "RadialCertificate",
    "barrier_eval",
    "cap_bound_constant",
    "chain_geometry",
    "cylinder_barrier",
    "annulus_barrier",
    "capped_barrier",
    "cylinder_barrier_certificate",
    "growth_chain",
    "radial_exponent_certificate",
    "sample_admissible_matrices",
]


@dataclass(frozen=True)
class BarrierSpec:
    """A closed-form barrier's kind and parameters, read by `barrier_eval`."""

    kind: str                  # "cylinder", "annulus", "capped"
    amplitude: float           # k, k1 or mu*ktilde
    rho: float                 # cylinder half-width or inner-scale rho0
    center: Optional[np.ndarray]  # annulus/capped; None for the cylinder
    s: float = 0.0             # radial exponent (annulus/capped)
    gamma: float = 0.0         # cylinder aspect
    outer_radius: float = 0.0  # annulus: rho0; capped: center height
    frame: Optional[object] = None  # ExtremalFrame; evaluation maps x -> y

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be nonnegative and finite")
        if not 0.0 < self.rho < math.inf:
            raise ValueError("radius must be positive and finite")
        if self.kind in ("annulus", "capped") and not 0.0 < self.s < math.inf:
            raise ValueError("radial exponent s must be positive and finite")


def cylinder_barrier(k: float, rho: float, nu: float, n: int,
                     frame=None) -> BarrierSpec:
    return BarrierSpec(kind="cylinder", amplitude=k, rho=rho,
                       gamma=nu / math.sqrt(n - 1),
                       center=None, frame=frame)


def annulus_barrier(k1: float, rho0: float, s: float,
                    center) -> BarrierSpec:
    return BarrierSpec(kind="annulus", amplitude=k1, rho=rho0, s=s,
                       center=np.asarray(center, dtype=float),
                       outer_radius=rho0)


def capped_barrier(amplitude: float, rho0: float, s: float, center,
                   outer_radius: float) -> BarrierSpec:
    return BarrierSpec(kind="capped", amplitude=amplitude, rho=rho0, s=s,
                       center=np.asarray(center, dtype=float),
                       outer_radius=outer_radius)


def _radial_value(spec: BarrierSpec, d: float):
    """The annulus or capped barrier at distance d from its center:
    (value, amp), amp = amplitude/normalization being the derivatives'
    factor, or None off the closed annulus between the inner sphere
    (radius rho/8) and the outer one."""
    inner, outer, s = spec.rho / 8.0, spec.outer_radius, spec.s
    if d < inner - 1e-12 or d > outer + 1e-12:
        return None
    amp = spec.amplitude / (inner ** -s - outer ** -s)
    return amp * (d ** -s - outer ** -s), amp


def barrier_eval(spec: BarrierSpec, x):
    """(value, gradient, Hessian) of the barrier at x, exact closed forms.

    Coordinates are the barrier's own; when a frame is attached, x is an
    ambient point and derivatives are returned in ambient coordinates.
    A point outside the natural domain (the cylinder slab, or the closed
    annulus between the inner and outer spheres) raises ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if spec.frame is not None:
        y = spec.frame.rotation @ (x - spec.frame.x_star)
    else:
        y = x
    n = y.size
    if spec.kind == "cylinder":
        k, rho, g = spec.amplitude, spec.rho, spec.gamma
        if not (-1e-12 <= y[-1] <= g * rho + 1e-12) or \
                np.any(np.abs(y[:-1]) > rho + 1e-12):
            raise ValueError("point outside the cylinder slab")
        t = 1.0 - y[-1] / (g * rho)
        value = k * (t * t - float(y[:-1] @ y[:-1]) / rho**2)
        grad = np.empty(n)
        grad[:-1] = -2.0 * k * y[:-1] / rho**2
        grad[-1] = -2.0 * k * t / (g * rho)
        hess = np.diag([-2.0 * k / rho**2] * (n - 1)
                       + [2.0 * k / (g * rho) ** 2])
    else:
        d_vec = y - spec.center
        d = float(np.linalg.norm(d_vec))
        radial = _radial_value(spec, d)
        if radial is None:
            raise ValueError("point outside the annulus")
        value, amp = radial
        s = spec.s
        grad = amp * (-s) * d ** (-s - 2.0) * d_vec
        hess = amp * (-s) * (d ** (-s - 2.0) * np.eye(n)
                             - (s + 2.0) * d ** (-s - 4.0)
                             * np.outer(d_vec, d_vec))
    if spec.frame is not None:
        Q = spec.frame.rotation
        grad = Q.T @ grad
        hess = Q.T @ hess @ Q
    return float(value), grad, hess


# ----------------------------------------------------------------------
# admissible-matrix sampling
# ----------------------------------------------------------------------

MAX_SAMPLED_N = 16   # 2^16 corner matrices of 16 x 16: 134 MB


def sample_admissible_matrices(nu: float, n: int, count: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrices with spectrum in [nu, 1/nu]: random spectra
    conjugated by Haar-random orthogonal matrices, plus the deterministic
    axis-aligned extremes (all corner spectra on the coordinate axes).

    The extremes are 2^n matrices, so n is at most ``MAX_SAMPLED_N`` = 16;
    a larger n raises ``ValueError`` before anything is allocated."""
    if n > MAX_SAMPLED_N:
        raise ValueError(f"the sampled certificates need n <= "
                         f"{MAX_SAMPLED_N} (2^n corner matrices), got {n}")
    spectra = rng.uniform(nu, 1.0 / nu, size=(count, n))
    gauss = rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(gauss)
    sgn = np.sign(np.einsum("kii->ki", r))
    sgn[sgn == 0.0] = 1.0
    q = q * sgn[:, None, :]
    corners = 2**n
    out = np.zeros((corners + count, n, n))
    # corner b has nu in the diagonal entries of b's set bits, 1/nu elsewhere
    bits = (np.arange(corners)[:, None] >> np.arange(n)) & 1
    out[:corners, np.arange(n), np.arange(n)] = np.where(bits, nu, 1.0 / nu)
    out[corners:] = np.einsum("kij,kj,klj->kil", q, spectra, q)
    return out


@dataclass(frozen=True)
class CylinderCertificate:
    """Cylinder bracket maximum, verdict and worst matrix, for ``verify``."""

    nu: float
    n: int
    gamma: float
    samples: int
    seed: int
    bracket_max: float
    passed: bool
    center_gain: float         # (1 - gamma^2)/16
    worst_matrix: np.ndarray


def cylinder_barrier_certificate(nu: float, n: int = 2, samples: int = 10000,
                                 seed: int = 0, gamma_scale: float = 1.0
                                 ) -> CylinderCertificate:
    """Verify the cylinder barrier's second-order bracket over sampled
    admissible matrices.

    The Hessian of psi is constant and diagonal, so the bracket per matrix
    is sum of the first n-1 diagonal entries minus a_nn/gamma^2 (times the
    positive factor 2k/rho^2): it must stay <= 0.  With the aspect
    gamma = nu/sqrt(n-1) the extreme diag(1/nu, ..., 1/nu, nu) attains 0
    exactly; ``gamma_scale`` != 1 perturbs the aspect to expose failure."""
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    if n < 2:
        raise ValueError(f"the cylinder barrier needs n >= 2, got {n}")
    gamma = gamma_scale * nu / math.sqrt(n - 1)
    rng = np.random.default_rng(seed)
    mats = sample_admissible_matrices(nu, n, samples, rng)
    diags = np.einsum("kii->ki", mats)
    brackets = diags[:, :-1].sum(axis=1) - diags[:, -1] / gamma**2
    k_worst = int(np.argmax(brackets))
    bracket_max = float(brackets[k_worst])
    return CylinderCertificate(
        nu=nu, n=n, gamma=gamma, samples=samples, seed=seed,
        bracket_max=bracket_max, passed=bool(bracket_max <= 1e-12),
        center_gain=(1.0 - gamma**2) / 16.0,
        worst_matrix=mats[k_worst],
    )


@dataclass(frozen=True)
class RadialCertificate:
    """Radial margin, sampled minimum bracket and verdict, for ``verify``."""

    s: float
    nu: float
    n: int
    samples: int
    seed: int
    margin: float              # (s+2) nu - n/nu, the elementary bound
    critical_s: float          # n/nu^2 - 2 (from the elementary bound)
    attainable_critical_s: float  # (n-1)/nu^2 - 1 (true over the class)
    sampled_min_bracket: float
    passed: bool
    worst_matrix: np.ndarray


def radial_exponent_certificate(s: float, nu: float, n: int = 2,
                                samples: int = 10000, seed: int = 0
                                ) -> RadialCertificate:
    """Certify -a^{ij} D_i D_j |x-z|^-s <= 0 for admissible a.

    The sign is governed by the bracket (s+2)(a xhat, xhat) - tr a.  The
    verdict uses the elementary decoupled bound (margin (s+2) nu - n/nu,
    sharp at s = n/nu^2 - 2 and cleared by 2 nu at s = n/nu^2); the
    sampled minimum over matrices and directions is reported alongside
    together with its matrix (radial eigenvalue nu, transverse 1/nu).
    Over the admissible class the sampled bracket only turns negative
    below (n-1)/nu^2 - 1.  An s that is not in (0, inf), NaN included,
    raises ``ValueError``."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"radial exponent s must be positive and finite, "
                         f"got {s!r}")
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mats = sample_admissible_matrices(nu, n, samples, rng)
    dirs = rng.standard_normal((mats.shape[0], n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # deterministic worst case: radial eigenvalue nu, transverse 1/nu
    worst = np.diag([nu] + [1.0 / nu] * (n - 1))
    e1 = np.zeros(n)
    e1[0] = 1.0
    mats = np.concatenate((worst[None, :, :], mats), axis=0)
    dirs = np.concatenate((e1[None, :], dirs), axis=0)
    quad = np.einsum("ki,kij,kj->k", dirs, mats, dirs)
    tr = np.einsum("kii->k", mats)
    brackets = (s + 2.0) * quad - tr
    k_worst = int(np.argmin(brackets))
    margin = (s + 2.0) * nu - n / nu
    return RadialCertificate(
        s=s, nu=nu, n=n, samples=samples, seed=seed,
        margin=margin,
        critical_s=n / nu**2 - 2.0,
        attainable_critical_s=(n - 1) / nu**2 - 1.0,
        sampled_min_bracket=float(brackets[k_worst]),
        passed=bool(margin >= -1e-12),
        worst_matrix=mats[k_worst],
    )


# ----------------------------------------------------------------------
# ball-chain growth propagation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Bounds k_0..k_N along a ball chain and its theta, for ``verify``."""

    values: tuple              # k_0 = v_lower, ..., k_N
    k_final: float
    closed_form_zero_drift: float
    theta: float
    broken_at: Optional[int]
    rho0: float


def chain_geometry(nu: float, n: int, r: float):
    """Centers z0 (ball of Eq-style construction) and z~ (target above the
    trace column, z~' = 0), plus the admissible chain-length window
    [4|z0-z~|/(3 rho0), 2|z0-z~|/rho0]."""
    gamma = nu / math.sqrt(n - 1)
    rho0 = gamma * r / 8.0
    z0 = np.zeros(n)
    z0[0] = r / 2.0
    z0[-1] = gamma * r / 4.0
    zt = np.zeros(n)
    zt[-1] = r / 4.0 + rho0 / 8.0
    dist = float(np.linalg.norm(z0 - zt))
    return z0, zt, rho0, (4.0 * dist / (3.0 * rho0), 2.0 * dist / rho0)


_SPHERE_SAMPLES = 256   # boundary points of a chain ball that theta samples
_CAP_SAMPLES = 4000     # annulus points that fit the cap bound constant


def growth_chain(v_lower: float, nu: float, n: int, r: float,
                 chain_length: int, drift_term: float = 0.0) -> ChainReport:
    """Propagate a positivity bound along a chain of overlapping balls.

    One step moves the bound from a ball to the next center through the
    annulus barrier: k_{l+1} = (k_l theta/2 - drift_term)_+, where theta
    is the minimum of the unit-amplitude annulus barrier over the next
    ball B_{rho0/8}, found by sampling its center and boundary sphere.
    The barrier falls with the distance from its center, so the minimum
    is its value at the farthest sample, 0 past the annulus.  With zero
    drift the chain is the closed form (theta/2)^N v_lower.  ``broken_at``
    flags the first step whose bound hits zero under positive drift.  A
    ``chain_length`` outside the admissible window of `chain_geometry`
    raises ``ValueError``."""
    if v_lower < 0.0:
        raise ValueError("v_lower must be nonnegative")
    z0, zt, rho0, window = chain_geometry(nu, n, r)
    if not window[0] - 1e-9 <= chain_length <= window[1] + 1e-9:
        raise ValueError(
            f"chain length {chain_length} outside the admissible window "
            f"[{window[0]:.2f}, {window[1]:.2f}]")
    next_center = (zt - z0) / chain_length
    spec = annulus_barrier(1.0, rho0, n / nu**2, center=np.zeros(n))
    if n == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, _SPHERE_SAMPLES,
                          endpoint=False)
        dirs = np.column_stack((np.cos(ang), np.sin(ang)))
    else:
        dirs = np.random.default_rng(0).standard_normal((_SPHERE_SAMPLES, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.vstack((next_center[None, :], next_center + rho0 / 8.0 * dirs))
    # vecdot sums each row as np.linalg.norm does, to the bit
    far = _radial_value(spec, max(float(np.sqrt(np.vecdot(pts, pts).max())),
                                  rho0 / 8.0))
    theta = 0.0 if far is None else far[0]
    values = [float(v_lower)]
    broken_at = None
    for l in range(1, chain_length + 1):
        nxt = max(values[-1] * theta / 2.0 - drift_term, 0.0)
        values.append(nxt)
        if nxt == 0.0 and drift_term > 0.0 and broken_at is None:
            broken_at = l
    closed = v_lower * (theta / 2.0) ** chain_length
    return ChainReport(values=tuple(values), k_final=values[-1],
                       closed_form_zero_drift=closed, theta=theta,
                       broken_at=broken_at, rho0=rho0)


# ----------------------------------------------------------------------
# capped-barrier linear bound
# ----------------------------------------------------------------------

def cap_bound_constant(nu: float, n: int, r: float) -> float:
    """Smallest N with  W_unit(x) <= N * x_n * (4/r)  on the closed annulus
    of the capped barrier centered above the origin (z~' = 0), over
    ``_CAP_SAMPLES`` points drawn from a fixed seed.

    The outer sphere of W passes through the origin, where both sides
    vanish; the ratio W r/(4 x_n) stays bounded and scale-invariant, so
    the fitted constant can be reused across r."""
    z0, zt, rho0, _ = chain_geometry(nu, n, r)
    s = n / nu**2
    spec = capped_barrier(1.0, rho0, s, center=zt, outer_radius=float(zt[-1]))
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((_CAP_SAMPLES, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(rho0 / 8.0, float(zt[-1]), size=_CAP_SAMPLES)
    pts = zt[None, :] + dirs * radii[:, None]
    diff = pts - zt
    # vecdot sums each row as np.linalg.norm does, to the bit; the powers
    # stay Python float ones, which numpy's array ** misses in the last
    # bit on some inputs
    dists = np.sqrt(np.vecdot(diff, diff)).tolist()
    best = 0.0
    for d, xn in zip(dists, pts[:, -1].tolist()):
        radial = _radial_value(spec, d)
        if xn > 1e-12 * r and radial is not None:
            best = max(best, radial[0] * r / (4.0 * xn))
    return best
