"""Moduli of continuity at zero and the Dini condition.

A modulus here is a nondecreasing function ``sigma`` on [0, 1] with
``sigma(0) = 0`` and ``sigma(1) = 1``.  The quantity that drives everything
downstream is the Dini integral

    J(s) = int_0^s sigma(tau)/tau dtau,

a number in [0, inf], finite iff sigma satisfies the Dini condition at
zero; `dini_integral` returns inf for a divergent one.  The well-behaved
class has ``sigma(t)/t`` nonincreasing, which yields ``sigma(t) <= J(t)``
and the scaling relations ``sigma(t/t0) <= sigma(t)/t0`` and
``J(t/t0) <= J(t)/t0``.

Built-in presets (addressable by string id):

``linear``          sigma(t) = t                (Dini, J(s) = s)
``power:<alpha>``   sigma(t) = t**alpha, 0<a<=1 (Dini, J(s) = s**a/a)
``log1``            sigma(t) = 1/ln(e/t)        (not Dini: J = inf)
``log2``            sigma(t) = 1/ln(e/t)**2     (Dini, J(s) = 1/ln(e/s))

Note: ``log2`` is kept in its raw closed form so its Dini integral stays
exactly 1/ln(e/s).  Its ratio sigma(t)/t rises again on [1/e, 1], so it is
*not* ratio-monotone there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "DiniVerdict",
    "DiniIntegralResult",
    "Modulus",
    "QuadratureToleranceError",
    "Verdict",
    "dini_classify",
    "dini_integral",
    "dini_integral_report",
    "load_csv",
    "from_table",
    "preset_modulus",
]


class QuadratureToleranceError(ArithmeticError):
    """A finite Dini integral not resolved to its requested tolerance
    before its dyadic intervals reach the 1e-280 floor of double
    precision's range.  ``partial`` holds the accumulated sum, 0.0 when
    no interval lies above the floor."""

    def __init__(self, message: str, partial: float = math.nan):
        super().__init__(message)
        self.partial = partial


class Verdict(str, enum.Enum):
    DINI = "Dini"
    NON_DINI = "NonDini"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# 16-point Gauss-Legendre rule on _PANELS equal panels of a dyadic interval.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANELS = 4


@dataclass(frozen=True)
class Modulus:
    """A modulus of continuity on [0, 1].

    Parameters
    ----------
    fn : callable
        Vectorized evaluation, mapping t in [0, 1] to sigma(t).
    closed_form_j : callable or None
        Closed form of the Dini integral J(s), when known.
    dini_flag : Verdict or None
        Analytic Dini verdict for presets; overrides the numeric
        classification in `dini_classify`.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    closed_form_j: Optional[Callable[[float], float]] = None
    dini_flag: Optional[Verdict] = None

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.asarray(self.fn(t_arr), dtype=float)
        if t_arr.ndim == 0:
            return float(out.reshape(-1)[0])
        return out.reshape(t_arr.shape)

    def ratio(self, t):
        """sigma(t)/t, defined on (0, 1]."""
        t_arr = np.asarray(t, dtype=float)
        return self(t_arr) / t_arr


@dataclass(frozen=True)
class DiniIntegralResult:
    """J(s), its method and a quadrature value, for the modulus gate."""

    value: float
    method: str  # "closed-form" or "quadrature"
    quadrature_value: float


@dataclass(frozen=True)
class DiniVerdict:
    """Dini verdicts, partial integrals and exponent, for CLI and decay."""

    verdict: Verdict
    numeric_verdict: Verdict
    partial_integrals: tuple  # ((a_m, J over [a_m, 1]), ...)
    growth_exponent_estimate: float
    increment_ratios: tuple


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

def _log_e_over(t: np.ndarray) -> np.ndarray:
    # ln(e/t) = 1 - ln t, safe at t = 0 (-> +inf)
    with np.errstate(divide="ignore"):
        return 1.0 - np.log(t)


def _preset_args(spec: str, kind: str, grammar: dict):
    """Split the preset id ``name[:a1,a2,...]`` of a ``kind`` preset.

    ``grammar[name]`` holds the defaults of the preset's float arguments in
    order, None marking a required one.  Returns ``(name, args)`` with every
    argument filled in.  An unknown name, a missing argument, one too many
    or one that is not a number raises ``ValueError`` naming the preset
    id."""
    name, colon, arg = spec.partition(":")
    if name not in grammar:
        raise ValueError(f"unknown {kind} preset {spec!r}")
    defaults = grammar[name]
    given = arg.split(",") if colon else []
    need = defaults.count(None)
    if not need <= len(given) <= len(defaults):
        span = (f"{need}" if need == len(defaults)
                else f"{need} to {len(defaults)}")
        raise ValueError(f"{kind} preset {spec!r} takes {span} argument"
                         f"{'s' * (len(defaults) != 1)}, got {len(given)}")
    values = []
    for v in given:
        try:
            values.append(float(v))
        except ValueError:
            raise ValueError(f"{kind} preset {spec!r} argument {v!r} is not "
                             f"a number") from None
    return name, tuple(values) + defaults[len(given):]


# argument defaults of each modulus preset, None where required
_MODULUS_GRAMMAR = {"linear": (), "power": (None,), "log1": (), "log2": ()}


def preset_modulus(spec: str) -> Modulus:
    """Build a preset modulus from its string id.

    Ids: "linear", "power:<alpha>" with alpha in (0, 1] required, "log1",
    "log2"; only power takes an argument, and any other count of arguments
    raises ``ValueError``.
    """
    name, args = _preset_args(spec, "modulus", _MODULUS_GRAMMAR)
    if name == "linear":
        return Modulus(
            fn=lambda t: np.asarray(t, dtype=float),
            closed_form_j=lambda s: s,
            dini_flag=Verdict.DINI,
        )
    if name == "power":
        (alpha,) = args
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"power modulus needs alpha in (0, 1], got {alpha}")
        return Modulus(
            fn=lambda t, a=alpha: np.power(np.asarray(t, dtype=float), a),
            closed_form_j=lambda s, a=alpha: s**a / a,
            dini_flag=Verdict.DINI,
        )
    if name == "log1":
        def _log1(t):
            t = np.asarray(t, dtype=float)
            return np.where(t > 0.0, 1.0 / _log_e_over(np.maximum(t, 1e-300)), 0.0)

        return Modulus(
            fn=_log1,
            closed_form_j=None,  # J diverges at zero
            dini_flag=Verdict.NON_DINI,
        )

    def _log2(t):
        # 1/(L*L) rounds alike on numpy scalars and arrays; L**-2.0 does not
        t = np.asarray(t, dtype=float)
        L = _log_e_over(np.maximum(t, 1e-300))
        return np.where(t > 0.0, 1.0 / (L * L), 0.0)

    return Modulus(
        fn=_log2,
        closed_form_j=lambda s: 1.0 / (1.0 - math.log(s)),
        dini_flag=Verdict.DINI,
    )


# ----------------------------------------------------------------------
# tabulated moduli
# ----------------------------------------------------------------------

def from_table(t: Sequence[float], s: Sequence[float]) -> Modulus:
    """Tabulated modulus, interpolated as a piecewise power law.

    Between positive samples the interpolant is linear in (ln t, ln sigma);
    this preserves monotonicity of both sigma and sigma(t)/t whenever the
    samples satisfy them.  Below the first positive sample the extension is
    linear through the origin (constant ratio).

    The table is normalized so that sigma(1) = 1; t must be strictly
    increasing inside [0, 1] with final abscissa 1, and every entry must be
    finite.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.ndim != 1 or t.shape != s.shape or t.size < 2:
        raise ValueError("need two equal-length 1-D columns with >= 2 rows")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(s))):
        raise ValueError("table entries t and sigma must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("abscissae t must be strictly increasing")
    if t[0] < 0.0 or abs(t[-1] - 1.0) > 1e-12:
        raise ValueError("t must lie in [0, 1] with last entry 1")
    if np.any(np.diff(s) < 0.0):
        raise ValueError("sigma values decrease along the table")
    if s[-1] <= 0.0:
        raise ValueError("sigma(1) must be positive")
    s = s / s[-1]
    if t[0] > 0.0:
        t = np.concatenate(([0.0], t))
        s = np.concatenate(([0.0], s))
    if abs(s[0]) > 1e-12:
        raise ValueError("sigma(0) must be 0")
    s[0] = 0.0

    tt = t.copy()
    ss = s.copy()

    def _eval(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        idx = np.clip(np.searchsorted(tt, x, side="right") - 1, 0, tt.size - 2)
        lo_t, hi_t = tt[idx], tt[idx + 1]
        lo_s, hi_s = ss[idx], ss[idx + 1]
        linear = (lo_t <= 0.0) | (lo_s <= 0.0)
        out[linear] = np.where(
            hi_t[linear] > 0.0, hi_s[linear] * x[linear] / hi_t[linear], 0.0
        )
        p = ~linear
        if np.any(p):
            beta = np.log(hi_s[p] / lo_s[p]) / np.log(hi_t[p] / lo_t[p])
            out[p] = lo_s[p] * np.exp(beta * np.log(x[p] / lo_t[p]))
        out[x <= 0.0] = 0.0
        out[x >= 1.0] = ss[-1]
        return out

    return Modulus(fn=_eval)


def _number(field: str):
    """The float a CSV field spells, or None."""
    try:
        return float(field)
    except ValueError:
        return None


def load_csv(path) -> Modulus:
    """Load a tabulated modulus from a two-column CSV (t, sigma).

    The first nonblank line is a header when its first field is not a
    number.  Every other nonblank line must hold exactly two numbers, or
    ``ValueError`` names it; abscissae must be strictly increasing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, line) for n, line in
                 enumerate((raw.strip() for raw in fh), start=1) if line]
    rows = []
    for k, (n, line) in enumerate(lines):
        fields = [_number(f) for f in line.split(",")]
        if k == 0 and fields[0] is None:
            continue  # the header
        if len(fields) != 2 or None in fields:
            raise ValueError(f"malformed CSV row at line {n}: {line!r} "
                             f"(need two numbers t, sigma)")
        rows.append(tuple(fields))
    if len(rows) < 2:
        raise ValueError("modulus CSV needs at least two data rows")
    t, s = zip(*rows)
    return from_table(t, s)


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

def _dyadic_increments(sigma: Callable, s: float, count: int) -> np.ndarray:
    """Integrals of sigma(tau)/tau over [s 2^-m, s 2^-(m-1)], m = 1..count.

    Each interval is split into 4 panels of 16 Gauss-Legendre nodes, and
    ``sigma`` is called once on the whole (count, 4, 16) node array: it
    must map an array of abscissae to an array of that shape, or to a
    scalar.  Each increment sums its 64 weighted values in one reduction."""
    hi = np.ldexp(s, -np.arange(count))
    edges = np.linspace(hi / 2.0, hi, _PANELS + 1, axis=-1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = sigma(nodes) / nodes
    return (vals * _GL_WEIGHTS * half[..., None]).reshape(
        count, _PANELS * _GL_NODES.size).sum(axis=1)


def _improper_quadrature(sigma: Modulus, s: float, rel_tol: float):
    """Sum of dyadic-interval contributions of J(s), with a divergence
    guard.  Returns the sum, or inf for a divergent J.

    Every contribution is evaluated up front, down to the last interval
    whose low end stays above 1e-280 (at most 930 of them).  The sum stops
    at the first interval whose contribution c is 0, or whose tail
    estimate 2 c r / (1 - r) meets ``rel_tol`` relative to the running
    sum, r the ratio to the previous contribution clamped to 0.9999; the
    running sums are one cumulative sum, added in order.  When no interval
    stops it, the decay exponent fitted on the last 40 intervals decides:
    contributions shrinking no faster than 1/m integrate to a divergent
    tail (inf), faster ones to a finite J that double precision's range
    cut short (``QuadratureToleranceError``)."""
    count = int(np.count_nonzero(np.ldexp(s, -np.arange(1, 931)) >= 1e-280))
    history = _dyadic_increments(sigma, s, count)
    totals = np.cumsum(history)
    prev, c = history[:-1], history[1:]
    # silent, as Python floats are: a ratio over a 0 lies past the first
    # stop, and an overflow reads inf
    with np.errstate(all="ignore"):
        r_cl = np.minimum(c / prev, 0.9999)
        tail_estimate = 2.0 * c * r_cl / (1.0 - r_cl)
    stop = history == 0.0
    stop[1:] |= (prev > 0.0) & (
        tail_estimate <= rel_tol * np.maximum(totals[1:], 1e-300))
    if stop.any():
        return float(totals[stop.argmax()])
    if _divergent_tail(history):
        return math.inf
    raise QuadratureToleranceError(
        f"rel_tol {rel_tol:g} not reached before exhausting double-precision "
        f"range at interval {count}",
        partial=float(totals[-1]) if count else 0.0)


_TAIL_WINDOW = 40   # trailing contributions a tail decision fits


def _divergent_tail(contribs) -> bool:
    """Whether contributions c_1, c_2, ... shrink no faster than 1/m, so
    that their sum diverges: the decay exponent fitted on the last
    `_TAIL_WINDOW` of them (at least 4 positive) is at most 1.01."""
    tail = contribs[-_TAIL_WINDOW:]
    return _decay_exponent(tail, len(contribs) - tail.size + 1, 4) <= 1.01


def _geometric_tail(contribs) -> bool:
    """Whether the last `_TAIL_WINDOW` contributions stop the quadrature's
    sum: one of them is 0, or they fit c_m ~ q^m with q < 0.9999 (the
    quadrature's ratio clamp) at least as well as c_m ~ m^-p, in squared
    residual of log c_m.  Over a finite window a slow geometric decay,
    whose sum converges, also fits a power m^-p with a small p; this
    tells the two apart."""
    tail = np.asarray(contribs[-_TAIL_WINDOW:], dtype=float)
    if not (tail > 0.0).all():
        return True
    ms = np.arange(len(contribs) - tail.size + 1, len(contribs) + 1.0)
    geo, geo_ssr = np.polyfit(ms, np.log(tail), 1, full=True)[:2]
    power_ssr = np.polyfit(np.log(ms), np.log(tail), 1, full=True)[1]
    return math.exp(geo[0]) < 0.9999 and geo_ssr[0] <= power_ssr[0]


def _decay_exponent(contribs, first: int, need: int) -> float:
    """Fitted p in c_m ~ m^-p over the contributions c_m, m = first,
    first + 1, ...; inf when fewer than ``need`` of them are positive."""
    contribs = np.asarray(contribs, dtype=float)
    pos = contribs > 0.0
    if np.count_nonzero(pos) < need:
        return math.inf
    ms = np.arange(first, first + contribs.size, dtype=float)
    return float(-np.polyfit(np.log(ms[pos]), np.log(contribs[pos]), 1)[0])


def dini_integral(sigma: Modulus, s: float, rel_tol: float = 1e-9) -> float:
    """J(s) = int_0^s sigma(tau)/tau dtau, a number in [0, inf].

    The closed form, when the modulus carries one, is returned as is and no
    quadrature runs (`dini_integral_report` cross-checks it against the
    quadrature).  Otherwise the dyadic quadrature value is returned
    (`_improper_quadrature`): the sum up to the first interval whose tail
    estimate meets ``rel_tol``.  When no interval does down to double
    precision's range, the contributions' fitted decay exponent decides:
    inf when they shrink no faster than 1/m, else
    ``QuadratureToleranceError``, the one error: a finite J not resolved
    to ``rel_tol`` before the 1e-280 floor.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    if sigma.closed_form_j is not None:
        return float(sigma.closed_form_j(s))
    return _improper_quadrature(sigma, s, rel_tol)


def dini_integral_report(sigma: Modulus, s: float) -> DiniIntegralResult:
    """`dini_integral` plus a quadrature value to cross-check it against.

    For a closed form, the quadrature (``rel_tol`` 1e-9) runs as well; if
    it is not resolved, its partial sum is recorded.  Without a closed
    form the quadrature is the value itself, and its errors propagate as
    in `dini_integral`.
    """
    value = dini_integral(sigma, s)
    if sigma.closed_form_j is None:
        return DiniIntegralResult(value, "quadrature", value)
    try:
        q = _improper_quadrature(sigma, s, 1e-9)
    except QuadratureToleranceError as exc:
        q = exc.partial
    return DiniIntegralResult(value, "closed-form", q)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

# the fitted growth exponent below which non-decaying increments read as
# NonDini: a divergent sum of m^-p has p <= 1
_NON_DINI_EXPONENT = 1.5


def dini_classify(sigma: Modulus, depth: int = 40) -> DiniVerdict:
    """Numeric Dini classification from partial integrals over [2^-m, 1].

    The increments I_m = J over [2^-m, 2^-(m-1)], m = 1..depth, come from
    one vectorized evaluation of ``sigma`` (`_dyadic_increments`), and the
    partial integrals add them in order.  They are inspected over the last 10
    levels: all successive ratios below 0.9 reads as geometric decay (Dini),
    all above 0.99 as non-decaying increments, anything between is
    Inconclusive.  The growth exponent estimate is the fitted p in
    I_m ~ m^-p over the deeper half of the levels (large for geometric
    decay, ~1 for log-type divergence, ~2 for log^2-type convergence).
    Ratios above 0.99 read as NonDini only with p below 1.5: the ratios
    (m/(m+1))^p of I_m ~ m^-p pass 0.99 for every p once m exceeds about
    100 p, so at depths of a few hundred the window alone no longer
    separates the convergent log^2 type from the divergent log type.
    A preset's stored analytic flag overrides the verdict; the numeric
    verdict is always reported alongside.  ``depth`` must lie in
    [12, 1022], else ``ValueError``: past 1022, 2^-depth is below the
    smallest normal double and the increments overflow.
    """
    if depth < 12:
        raise ValueError("depth must be at least 12")
    if math.ldexp(1.0, -depth) < np.finfo(float).tiny:
        raise ValueError(f"depth = {depth} puts 2^-depth below the smallest "
                         f"normal double; depth must be at most 1022")
    inc = _dyadic_increments(sigma, 1.0, depth)
    partials = tuple(zip(np.ldexp(1.0, -np.arange(1, depth + 1)).tolist(),
                         np.cumsum(inc).tolist()))

    exponent = _decay_exponent(inc[depth // 2:], depth // 2 + 1, 3)

    window = inc[-11:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = window[1:] / window[:-1]
    ratios = np.nan_to_num(ratios, nan=0.0, posinf=np.inf)
    if np.all(window[1:] == 0.0):
        numeric = Verdict.DINI
    elif np.all(ratios < 0.9):
        numeric = Verdict.DINI
    elif np.all(ratios > 0.99) and exponent < _NON_DINI_EXPONENT:
        numeric = Verdict.NON_DINI
    else:
        numeric = Verdict.INCONCLUSIVE

    verdict = sigma.dini_flag if sigma.dini_flag is not None else numeric
    return DiniVerdict(
        verdict=verdict,
        numeric_verdict=numeric,
        partial_integrals=partials,
        growth_exponent_estimate=exponent,
        increment_ratios=tuple(float(r) for r in ratios),
    )
