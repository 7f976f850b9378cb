"""Print a digest of ``fd_solver.solve`` on systems the report set cannot reach.

    python3 tools/solve_digest.py

``tools/report_set.py`` runs the CLI, whose operator presets all have
a12 = 0.  The systems below are built through the API instead: 9-point
splits with a12 of one sign and of both signs (no red unknown), an
unfolded drift, folded Laplace systems, the wedge with sector data, the
operators whose entries leave float32's range (the float64 factor alone)
and one system with its right side scaled by 2^600.  For each, one line
holds its name, the SHA-256 of ``vec``'s bytes, ``fill``, ``iterations``
and ``residual_norm``.  The solve is deterministic, so a change that is
not meant to move the solution is checked by

    diff BEFORE AFTER

of the output on two checkouts.  Runs on this checkout's ``src/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hopflab import convex_geometry as G  # noqa: E402
from hopflab import elliptic_operator as E  # noqa: E402
from hopflab import fd_solver as F  # noqa: E402
from hopflab.decay_analysis import boundary_data  # noqa: E402


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
                             boundary_data(bc, prof))
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


def main(argv) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    for name, build in CASES:
        sol = F.solve(build())
        digest = hashlib.sha256(sol.vec.tobytes()).hexdigest()
        print(f"{name}: vec {digest} fill {sol.fill} "
              f"iterations {sol.iterations} residual {sol.residual_norm!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
