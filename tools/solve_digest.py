"""Print a digest of the solves and 1-D stages the report set cannot reach.

    python3 tools/solve_digest.py

``tools/report_set.py`` runs the CLI, whose operator presets all have
a12 = 0.  The systems below are built through the API instead: 9-point
splits with a12 of one sign and of both signs (no red unknown), an
unfolded drift, folded Laplace systems, the wedge with sector data, the
operators whose entries leave float32's range (the float64 factor alone)
and one system with its right side scaled by 2^600.  For each, one line
holds its name, the SHA-256 of ``vec``'s bytes, ``fill``, ``iterations``
and ``residual_norm``.

No CLI command runs ``growth_recursion_bound``.  It runs here on the four
modulus presets and the three tables of ``report_set.TABLES``, with
mathfrak_b in {1, 0.01}, rho_ratio in {0.1, 0.01, 2^-10, 2^-30} and
horizon in {50, 200, 300} (mathfrak_f = 1, vartheta = 1/2, k0 = 30).
Each line holds the repr of ``pi_tail_bound``, ``sum_to_integral`` and
``pi_value`` and the SHA-256 of ``gamma`` and ``m_bound``, or the
``ValueError`` text where gamma_1 > 1/2.  Then, for each profile preset's
``boundary_modulus``, ``dini_integral`` at s = 1, 1/2 and 2^-20 (the
value, or the ``QuadratureToleranceError`` text and partial sum) and
``dini_classify``'s verdicts, growth exponent and the SHA-256 of its
partial integrals and increment ratios.

Everything here is deterministic, so a change that is not meant to move
a result is checked by

    diff BEFORE AFTER

of the output on two checkouts.  Runs on this checkout's ``src/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hopflab import convex_geometry as G  # noqa: E402
from hopflab import decay_analysis as D  # noqa: E402
from hopflab import elliptic_operator as E  # noqa: E402
from hopflab import fd_solver as F  # noqa: E402
from hopflab import modulus as M  # noqa: E402
from report_set import TABLES  # noqa: E402


def mixed_drift(a12):
    """a11 = a22 = 1, a12 = a12(x1) and the drift:1.5 field."""
    def a_grid(X1, X2):
        ones = np.ones(np.broadcast(np.asarray(X1), np.asarray(X2)).shape)
        return ones, ones.copy(), a12(X1) * ones

    return E.EllipticOperator(nu=0.6, a_grid=a_grid,
                              b_grid=E.preset_operator("drift:1.5").b_grid)


def system(profile_id, op, h, bc="linear", rhs_power=0):
    """The assembled system, its right side scaled by 2^rhs_power."""
    prof = G.preset_profile(profile_id, R0=0.5)
    op = E.preset_operator(op) if isinstance(op, str) else op
    assembled = F.discretize(op, F.DiscreteDomain.build(prof, h),
                             D.boundary_data(bc, prof))
    return dataclasses.replace(assembled,
                               rhs=np.ldexp(assembled.rhs, rhs_power))


CASES = [
    ("log1 a12=+0.4 drift:1.5 2^-7",
     lambda: system("log1", mixed_drift(lambda x: 0.4), 2.0**-7)),
    ("log1 a12=-0.4 drift:1.5 2^-7",
     lambda: system("log1", mixed_drift(lambda x: -0.4), 2.0**-7)),
    ("log1 a12=0.8x1 drift:1.5 2^-7",
     lambda: system("log1", mixed_drift(lambda x: 0.8 * np.asarray(x)),
                    2.0**-7)),
    ("log1 drift:-2 2^-8", lambda: system("log1", "drift:-2", 2.0**-8)),
    *((f"{p} laplace 2^-8", lambda p=p: system(p, "laplace", 2.0**-8))
      for p in ("log1", "log2", "power:0.5", "flat", "cone:0.4")),
    ("wedge:2.0944 sector laplace 2^-8",
     lambda: system("wedge:2.0944", "laplace", 2.0**-8, bc="sector")),
    ("wedge:1.5 sector aniso:2,0.5 2^-7",
     lambda: system("wedge:1.5", "aniso:2,0.5", 2.0**-7, bc="sector")),
    *((f"log1 {op} 2^-6", lambda op=op: system("log1", op, 2.0**-6))
      for op in ("drift:1e39", "aniso:1e35,1", "aniso:1e-50,1e-50",
                 "aniso:1e150,1", "drift:1e150")),
    ("cone:0.4 laplace 2^-7", lambda: system("cone:0.4", "laplace", 2.0**-7)),
    ("cone:0.4 laplace 2^-7 rhs*2^600",
     lambda: system("cone:0.4", "laplace", 2.0**-7, rhs_power=600)),
]


def sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def recursion_lines():
    moduli = {p: M.preset_modulus(p)
              for p in ("linear", "power:0.3", "log1", "log2")}
    moduli.update({f"csv:{name}": M.from_table(t, sigma)
                   for name, (t, sigma) in TABLES.items()})
    for (label, sigma), b, rho, horizon in itertools.product(
            moduli.items(), (1.0, 0.01), (0.1, 0.01, 2.0**-10, 2.0**-30),
            (50, 200, 300)):
        name = f"recursion {label} b={b!r} rho={rho!r} horizon={horizon}"
        try:
            rep = D.growth_recursion_bound(sigma, b, 1.0, 0.5, k0=30,
                                           rho_ratio=rho, horizon=horizon)
        except ValueError as exc:
            yield f"{name}: ValueError {exc}"
            continue
        yield (f"{name}: pi_tail_bound {rep.pi_tail_bound!r} "
               f"sum_to_integral {rep.sum_to_integral!r} "
               f"pi_value {rep.pi_value!r} gamma {sha(rep.gamma)} "
               f"m_bound {sha(rep.m_bound)}")


def boundary_modulus_lines():
    for p in ("flat", "cone:0.4", "power:0.5", "log1", "log2", "wedge"):
        sigma, _ = G.boundary_modulus(G.preset_profile(p))
        for s in (1.0, 0.5, 2.0**-20):
            try:
                j = repr(M.dini_integral(sigma, s))
            except M.QuadratureToleranceError as exc:
                j = f"QuadratureToleranceError {exc} partial {exc.partial!r}"
            yield f"J {p} s={s!r}: {j}"
        v = M.dini_classify(sigma)
        yield (f"classify {p}: {v.verdict.value} {v.numeric_verdict.value} "
               f"exponent {v.growth_exponent_estimate!r} "
               f"partials {sha(v.partial_integrals)} "
               f"ratios {sha(v.increment_ratios)}")


def main(argv) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    for name, build in CASES:
        sol = F.solve(build())
        digest = hashlib.sha256(sol.vec.tobytes()).hexdigest()
        print(f"{name}: vec {digest} fill {sol.fill} "
              f"iterations {sol.iterations} residual {sol.residual_norm!r}")
    for line in itertools.chain(recursion_lines(), boundary_modulus_lines()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
