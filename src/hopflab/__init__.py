"""hopflab: numerical laboratory for boundary-point behavior of uniformly
elliptic equations on convex graph domains.

The package measures how the normal derivative of a solution at a convex
boundary point responds to the boundary's modulus of continuity: Dini
moduli keep the Hopf quotient u(0, t)/t bounded away from zero, while a
non-Dini boundary slope modulus drives it to zero.  Its modules cover the
modulus calculus, convex boundary geometry, the elliptic operator and its
approximation, a curved-boundary finite-difference solver, barrier
certificates, and the dyadic oscillation-decay experiment.

``import hopflab`` loads the five modules of the solve pipeline.
``barriers`` is loaded by its first import, ``from hopflab import
barriers``, which only ``hopflab verify`` makes; it stays in ``__all__``
as a public module, so ``from hopflab import *`` loads it too.
"""

from . import convex_geometry, decay_analysis, elliptic_operator, fd_solver
from . import modulus

__all__ = [
    "barriers",
    "convex_geometry",
    "decay_analysis",
    "elliptic_operator",
    "fd_solver",
    "modulus",
]

__version__ = "0.1.0"
