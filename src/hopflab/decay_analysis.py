"""Dyadic oscillation-decay experiments and the degeneracy verdict.

One solve per experiment; the quotient u(x)/x2 is then examined on the
shrinking cylinders P_{r_k}, r_k = 2^-k R0.  The decay estimate couples
scales a factor 8 apart:

    osc over P_{r/4} of u/x2  <=  (1 - kappa delta(r)) osc over P_{2r},

read off measured levels as pairs (k, k+3) with r = r_k/2.  kappa is
fitted as the largest constant consistent with all usable pairs.  The
damping product prod (1 - kappa delta(r_j/2)) over the base-8 radii
r_j = 8^-j R0 diverges to zero exactly when delta fails the Dini
condition, which is the mechanism that kills the normal derivative.

The verdict combines two independent signals: the trend of the Hopf trace
u(0, r_k)/r_k over the last four levels, and the Dini classification of
the boundary modulus.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import convex_geometry as geo
from . import fd_solver as fds
from .elliptic_operator import preset_operator
from .modulus import (Modulus, QuadratureToleranceError, Verdict,
                      dini_classify, dini_integral, _divergent_tail,
                      _dyadic_increments, _geometric_tail, _TAIL_WINDOW)

__all__ = [
    "ContrastReport",
    "DecayReport",
    "HopfExperiment",
    "HopfVerdict",
    "ProductReport",
    "RecursionReport",
    "boundary_data",
    "contrast_suite",
    "growth_recursion_bound",
    "product_bound",
    "report_csv",
    "report_summary",
    "run_experiment",
    "sector_harmonic",
]


class HopfVerdict(str, enum.Enum):
    HOLDS = "HopfHolds"
    DEGENERATES = "HopfDegenerates"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


@dataclass(frozen=True)
class HopfExperiment:
    """Configuration of one decay experiment.

    Radii are r_k = 2^-k R0 for k = 0..K with K >= 2 (three levels); the
    smallest cylinder must hold at least 8 grid cells (2^-K R0 >= 8h).
    Then every level's cylinder holds the interior nodes 2h..7h of the
    x1 = 0 column, so every level is usable."""

    profile: str
    operator: str = "laplace"
    R0: float = 0.5
    K: int = 3
    h: float = 2.0**-7
    bc: str = "linear"

    def validate(self) -> None:
        if self.K < 2:
            raise ValueError(
                f"dyadic depth K = {self.K} gives fewer than three levels; "
                f"K must be at least 2")
        if 2.0 ** -self.K * self.R0 < 8.0 * self.h - 1e-12:
            raise ValueError(
                f"smallest cylinder 2^-K R0 = {2.0**-self.K * self.R0:g} "
                f"holds fewer than 8 cells of h = {self.h:g}")


def sector_harmonic(theta: float) -> Callable:
    """Harmonic function rho^(pi/theta) sin(pi phi/theta) vanishing on both
    edges of the planar sector of opening theta, symmetric about the x2
    axis.  On the x1 = 0 ray it equals x2^(pi/theta).  It is evaluated on
    |x1|, so u(-x1, x2) == u(x1, x2) bitwise and sector data keep a
    mirror-symmetric system exactly symmetric."""
    beta0 = math.pi / 2.0 - theta / 2.0

    def u(X1, X2):
        X1 = np.abs(np.asarray(X1, dtype=float))
        X2 = np.asarray(X2, dtype=float)
        rho = np.hypot(X1, X2)
        phi = np.arctan2(X2, X1) - beta0
        with np.errstate(invalid="ignore"):
            out = np.where(rho > 0.0,
                           rho ** (math.pi / theta)
                           * np.sin(np.clip(phi, 0.0, theta)
                                    * math.pi / theta),
                           0.0)
        return out

    return u


def boundary_data(kind: str, profile: geo.BoundaryProfile) -> Callable:
    """Dirichlet data for the box top and lateral sides.

    "linear" is the profile-independent x2 (the half-space solution, so
    trace deviations from 1 isolate the boundary-geometry effect);
    "sector" is the wedge harmonic, valid for wedge profiles only."""
    if kind == "linear":
        return lambda X1, X2: np.asarray(X2, dtype=float) * np.ones_like(
            np.asarray(X1, dtype=float))
    if kind == "sector":
        name, args = getattr(profile, "preset", None) or (None, ())
        if name != "wedge":
            raise ValueError("sector data requires a wedge profile")
        return sector_harmonic(*args)
    raise ValueError(f"unknown bc kind {kind!r}")


@dataclass(frozen=True)
class DecayReport:
    """Levels, trace, products and verdict of one run, for the reports."""

    config: HopfExperiment
    radii: tuple               # r_k, k = 0..K
    osc: tuple                 # oscillation over P_{r_k}
    ratios: tuple              # osc_{k+1}/osc_k (length K)
    deltas: tuple              # delta(r_k/2)
    kappa: float
    products: tuple            # prod_{j<=k} (1 - kappa delta(r_j/2))
    trace: tuple               # u(0, r_k)/r_k
    trace_heights: tuple       # grid-snapped heights
    verdict: HopfVerdict
    dini_verdict: Verdict
    residual: float
    unknowns: int

    def usable_pairs(self):
        """(k, k+3) index pairs realizing the factor-8 scale relation."""
        return _usable_pairs(self.osc)


def _usable_pairs(osc) -> list:
    """The (k, k+3) level pairs, radii a factor 8 apart, whose coarser
    oscillation is above 1e-14, so that their ratio means something."""
    return [(k, k + 3) for k in range(len(osc) - 3) if osc[k] > 1e-14]


def _fit_kappa(osc, deltas) -> float:
    vals = [(1.0 - osc[m] / osc[k]) / deltas[k]
            for k, m in _usable_pairs(osc) if deltas[k] > 0.0]
    if not vals:
        return 0.0
    return float(min(max(min(vals), 0.0), 1.0 - 1e-9))


def _dini_verdict(profile: geo.BoundaryProfile) -> Verdict:
    """Dini verdict of the profile's boundary modulus: the preset's hint,
    else the numeric classification of delta(t R0)/delta(R0)
    (`boundary_modulus`).  No solve."""
    sigma, hint = geo.boundary_modulus(profile)
    return hint if hint is not None else dini_classify(sigma).verdict


def run_experiment(cfg: HopfExperiment) -> DecayReport:
    """Solve once and extract oscillations, trace and verdict.

    Verdict rule: HopfDegenerates when the trace strictly decreases over
    the last four levels and the boundary modulus classifies NonDini;
    HopfHolds when the trace varies by less than 5% relatively over the
    last four levels and the modulus classifies Dini; else Inconclusive.
    At K = 2 the "last four levels" window holds the three levels there
    are.
    """
    cfg.validate()
    profile = geo.preset_profile(cfg.profile, R0=cfg.R0)
    op = preset_operator(cfg.operator)
    bc = boundary_data(cfg.bc, profile)
    dom = fds.DiscreteDomain.build(profile, cfg.h)
    sol = fds.solve(fds.discretize(op, dom, bc))

    radii = [2.0 ** -k * cfg.R0 for k in range(cfg.K + 1)]
    osc = [fds.oscillation(sol, profile, r) for r in radii]
    ratios = [osc[k + 1] / osc[k] if osc[k] > 1e-300 else 1.0
              for k in range(len(osc) - 1)]
    deltas = geo.delta(profile, np.asarray(radii) / 2.0)
    kappa = _fit_kappa(osc, deltas)
    products = np.cumprod(1.0 - kappa * deltas)

    heights = [round(r / cfg.h) * cfg.h for r in radii]
    trace = fds.hopf_trace(sol, heights)

    dini = _dini_verdict(profile)
    tail = np.asarray(trace[-4:])
    strictly_down = bool(np.all(np.diff(tail) < 0.0))
    rel_var = float((tail.max() - tail.min()) / max(abs(tail.max()), 1e-300))
    if strictly_down and dini == Verdict.NON_DINI:
        verdict = HopfVerdict.DEGENERATES
    elif rel_var < 0.05 and dini == Verdict.DINI:
        verdict = HopfVerdict.HOLDS
    else:
        verdict = HopfVerdict.INCONCLUSIVE

    return DecayReport(
        config=cfg, radii=tuple(radii), osc=tuple(osc), ratios=tuple(ratios),
        deltas=tuple(deltas.tolist()), kappa=kappa,
        products=tuple(products.tolist()),
        trace=tuple(float(t) for t in trace), trace_heights=tuple(heights),
        verdict=verdict, dini_verdict=dini, residual=sol.residual_norm,
        unknowns=dom.n_unknowns)


# ----------------------------------------------------------------------
# damping product along base-8 radii
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProductReport:
    """Partial damping products on base-8 radii, for `contrast_suite`."""

    radii: tuple               # r_j = 8^-j R0
    partials: tuple            # prod_{i<=j} (1 - kappa delta(r_i/2))
    delta_sum: float
    integral: float            # int of delta(r)/r over [r_K/2, r_0/2]
    sum_to_integral: float     # ~ 1/ln 8 for slowly varying delta
    limit_estimate: float      # partial_K damped by the analytic tail bound


def product_bound(delta_fn: Callable[[np.ndarray], np.ndarray], kappa: float,
                  R0: float, K: int) -> ProductReport:
    """Partial products prod_{j=0..k} (1 - kappa delta(8^-j R0 / 2)).

    ``delta_fn`` maps an array of radii to an array of their delta values
    (a scalar is broadcast).  Also reports the dyadic sum of the delta
    values against the integral of delta(r)/r over [r_K/2, r_0/2], summed
    over its 3K dyadic intervals (`_dyadic_increments`): for slowly
    varying delta the sum is about integral / ln 8, and for a constant
    delta exactly (K+1)/(K ln 8) times it.  The limit estimate is 0 when
    the last 40 of those intervals read a divergent Dini tail (the decay
    exponent rule `dini_integral` uses for J = inf) that no convergent
    geometric decay fits as well (`_geometric_tail`: the quadrature stops
    on such a tail before it fits), and only when 3K >= 40, since early
    intervals misread slow decay.  Otherwise it continues the last
    factors geometrically.  K < 0 raises ``ValueError``."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if K < 0:
        raise ValueError(f"K must be nonnegative, got {K}")
    radii = 8.0 ** -np.arange(K + 1) * R0
    deltas = np.broadcast_to(np.asarray(delta_fn(radii / 2.0), dtype=float),
                             radii.shape)
    if deltas[0] * kappa >= 1.0:
        raise ValueError("kappa * delta(r0/2) >= 1: factors not positive")
    partials = np.cumprod(1.0 - kappa * deltas)
    delta_sum = float(np.sum(deltas))
    increments = _dyadic_increments(delta_fn, radii[0] / 2.0, 3 * K)
    integral = float(increments.sum())
    if (3 * K >= _TAIL_WINDOW and _divergent_tail(increments)
            and not _geometric_tail(increments)):
        limit_estimate = 0.0   # the delta sum diverges: the product tends to 0
    else:
        # nonincreasing delta along shrinking radii: below the last
        # computed level the factors only shrink the limit further by at
        # most kappa * tail of the delta sum; estimate with a geometric
        # continuation of the last increment ratio
        if K >= 2 and deltas[-2] > 0.0:
            q = min(deltas[-1] / deltas[-2], 0.999999)
        else:
            q = 0.0
        tail = deltas[-1] * q / (1.0 - q) if q > 0.0 else 0.0
        limit_estimate = partials[-1] * math.exp(-kappa * tail / max(
            1.0 - kappa * deltas[-1], 1e-12))
    return ProductReport(
        radii=tuple(radii.tolist()), partials=tuple(partials.tolist()),
        delta_sum=delta_sum, integral=integral,
        sum_to_integral=float(delta_sum / integral) if integral > 0 else math.inf,
        limit_estimate=float(limit_estimate))


# ----------------------------------------------------------------------
# supremum-growth recursion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RecursionReport:
    """The growth recursion's gamma_k, products, tail and M_k, for tools."""

    gamma: tuple
    pi_partials: tuple
    pi_value: float
    pi_increment_at_horizon: float
    pi_tail_bound: float       # analytic bound on sum of gamma beyond horizon
    m_bound: tuple             # M_k trajectory with the recursion as equality
    sigma_sum: float           # sum over k >= 1 of sigma(2^-k rho/rho*)
    sum_to_integral: float


def growth_recursion_bound(sigma: Modulus, mathfrak_b: float,
                           mathfrak_f: float, vartheta: float, k0: int,
                           rho_ratio: float = 1.0, horizon: int = 200,
                           m1: float = 1.0) -> RecursionReport:
    """Evaluate the supremum-propagation recursion driven by sigma.

    gamma_k = (1-t/2)^-1 (2 zeta_k/zeta_{k+1})
              (exp(-lambda/(2 zeta_k)) + N2 B sigma(2^-k rho/rho*)/(t/2)),
    zeta_k = 1/(k+k0), lambda = -ln(1 - t/2); the structural constants,
    N2 here and N3 in the source of M_k, are 1.  Requires gamma_1 <= 1/2;
    otherwise a ``ValueError`` names the minimal admissible k0 (when the
    sigma term alone blocks the bound, no k0 works and the error says to
    shrink rho_ratio).  The M_k trajectory takes the recursion as
    equality, which dominates the true inequality.  A ``horizon`` below 2
    raises ``ValueError``.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be at least 2, got {horizon}")
    if not 0.0 < vartheta < 1.0:
        raise ValueError("vartheta must lie in (0, 1)")
    if not 0.0 < rho_ratio <= 1.0:
        raise ValueError("rho_ratio must lie in (0, 1]")
    lam = -math.log(1.0 - vartheta / 2.0)
    pref = 1.0 / (1.0 - vartheta / 2.0)
    half_t = vartheta / 2.0

    ks = np.arange(1, horizon + 1)
    sig_terms = sigma(np.minimum(np.ldexp(rho_ratio, -ks), 1.0))

    def gamma(kk, sig):
        """gamma at k + k0 = kk with sigma term sig."""
        return pref * (2.0 * (kk + 1.0) / kk) * (np.exp(-lam * kk / 2.0)
                                                 + mathfrak_b * sig / half_t)

    def j_or_inf(s):
        # an unresolved J is finite, but inf bounds it safely
        try:
            return dini_integral(sigma, s, rel_tol=1e-6)
        except QuadratureToleranceError:
            return math.inf

    gamma_1 = float(gamma(1 + k0, sig_terms[0]))
    if gamma_1 > 0.5:
        cands = np.arange(k0 + 1, 400)
        admissible = cands[gamma(1 + cands, sig_terms[0]) <= 0.5]
        minimal = int(admissible[0]) if admissible.size else None
        msg = (f"gamma_1 = {gamma_1:.4f} > 1/2 at k0 = {k0}"
               + (f"; minimal admissible k0 = {minimal}" if minimal
                  else "; no k0 suffices, reduce rho_ratio"))
        raise ValueError(msg)

    gam = gamma(ks + k0, sig_terms)
    pi_partials = np.cumprod(1.0 + gam)
    pi_value = float(pi_partials[-1])
    increment = float(pi_partials[-1] - pi_partials[-2])

    # tail bound: geometric closure of the exp part plus the dyadic-sum /
    # integral comparison for the sigma part
    exp_tail = (pref * 2.0 * (horizon + k0 + 2.0) / (horizon + k0 + 1.0)
                * math.exp(-lam * (horizon + 1 + k0) / 2.0)
                / (1.0 - math.exp(-lam / 2.0)))
    # an infinite J keeps the tail infinite even at mathfrak_b = 0
    j_small = j_or_inf(min(2.0 ** -horizon * rho_ratio, 1.0))
    sig_tail = (pref * 2.0 * mathfrak_b / half_t * j_small / math.log(2.0)
                if math.isfinite(j_small) else math.inf)
    pi_tail_bound = exp_tail + sig_tail

    zeta_fac = (ks + k0 + 1.0) / (ks + k0)  # zeta_k / zeta_{k+1}
    m_vals = [m1]
    for k in range(horizon):
        src = (mathfrak_f * sig_terms[k] * 2.0 * zeta_fac[k]
               / ((1.0 - half_t) * half_t))
        m_vals.append(m_vals[-1] * (1.0 + gam[k]) + src)

    sigma_sum = float(sig_terms.sum())
    j_val = j_or_inf(rho_ratio)
    return RecursionReport(
        gamma=tuple(float(g) for g in gam),
        pi_partials=tuple(float(p) for p in pi_partials),
        pi_value=pi_value,
        pi_increment_at_horizon=increment,
        pi_tail_bound=float(pi_tail_bound),
        m_bound=tuple(float(m) for m in m_vals),
        sigma_sum=sigma_sum,
        sum_to_integral=float(sigma_sum / j_val) if j_val and
        math.isfinite(j_val) and j_val > 0 else math.inf)


# ----------------------------------------------------------------------
# contrast suite
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ContrastReport:
    """Per-profile rows and common kappa, for ``decay --contrast``."""

    rows: tuple                # dicts per profile
    consistency_ok: bool
    common_kappa: float


_COMMON_KAPPA = 0.1   # the one kappa every profile's damping product uses


def contrast_suite(profiles: Sequence[str], operator: str,
                   cfg: HopfExperiment) -> ContrastReport:
    """Run the experiment per profile and cross-compare damping products.

    Requires at least one Dini and one non-Dini profile.  Consistency
    property: with one common kappa, every non-Dini profile's partial
    product at depth K sits below every Dini profile's.  A profile named
    twice, or a list without both kinds, raises ``ValueError`` before any
    solve."""
    repeated = sorted({p for p in profiles if profiles.count(p) > 1})
    if repeated:
        raise ValueError(f"contrast profile repeated: {', '.join(repeated)}")
    boundaries = {p: geo.preset_profile(p, R0=cfg.R0) for p in profiles}
    verdicts = {p: _dini_verdict(prof) for p, prof in boundaries.items()}
    if not any(v == Verdict.NON_DINI for v in verdicts.values()) or \
            not any(v == Verdict.DINI for v in verdicts.values()):
        raise ValueError("contrast needs at least one Dini and one "
                         "non-Dini profile")
    reports = {p: run_experiment(replace(cfg, profile=p, operator=operator))
               for p in profiles}
    prods = {p: product_bound(lambda r, prof=prof: geo.delta(prof, r),
                              _COMMON_KAPPA, cfg.R0, 40).partials[-1]
             for p, prof in boundaries.items()}
    dini_products = [prods[p] for p in profiles
                     if verdicts[p] == Verdict.DINI]
    nondini_products = [prods[p] for p in profiles
                        if verdicts[p] == Verdict.NON_DINI]
    ok = max(nondini_products) < min(dini_products)
    rows = tuple(
        {"profile": p,
         "dini": str(verdicts[p]),
         "trace_first": reports[p].trace[0],
         "trace_last": reports[p].trace[-1],
         "kappa": reports[p].kappa,
         "product_K": prods[p],
         "verdict": str(reports[p].verdict)}
        for p in profiles)
    return ContrastReport(rows=rows, consistency_ok=bool(ok),
                          common_kappa=_COMMON_KAPPA)


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------

def report_csv(report: DecayReport) -> str:
    """One row per dyadic level: k, r_k, osc_k, ratio_k, delta_k,
    product_k, h_k (trace value at the level's height)."""
    buf = io.StringIO()
    buf.write("k,r_k,osc_k,ratio_k,delta_k,product_k,h_k\n")
    for k, r in enumerate(report.radii):
        ratio = repr(report.ratios[k]) if k < len(report.ratios) else ""
        buf.write(f"{k},{r!r},{report.osc[k]!r},{ratio},"
                  f"{report.deltas[k]!r},{report.products[k]!r},"
                  f"{report.trace[k]!r}\n")
    return buf.getvalue()


def report_summary(report: DecayReport) -> str:
    cfg = report.config
    lines = [
        f"verdict: {report.verdict}",
        f"dini: {report.dini_verdict}",
        f"kappa: {report.kappa!r}",
        f"profile: {cfg.profile}",
        f"operator: {cfg.operator}",
        f"R0: {cfg.R0!r}",
        f"K: {cfg.K}",
        f"grid.h: {cfg.h!r}",
        f"bc.kind: {cfg.bc}",
        f"residual: {report.residual!r}",
        f"unknowns: {report.unknowns}",
        f"trace_heights: {' '.join(repr(t) for t in report.trace_heights)}",
    ]
    return "\n".join(lines) + "\n"
