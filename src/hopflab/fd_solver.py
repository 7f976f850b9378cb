"""Finite-difference solver on the region above a convex boundary graph.

The domain is the part of the box [-R0, R0] x [0, R0] above the graph
x2 = F(x1).  Second derivatives use central differences with
Shortley-Weller shortened arms where a neighbor lies across the curve; a
nonzero mixed coefficient is split as

    -a11 u_11 - a22 u_22 - 2 a12 u_12
        = -(a11 - |a12|) u_11 - (a22 - |a12|) u_22 - 2 |a12| u_dd

with u_dd the second derivative along the diagonal matching sign(a12),
again with shortened arms.  Both diagonal arms find their crossing with
the curve through ``arm_fraction``, the vectorized bisection that also
gives the horizontal arms of the mask.  Under |a12| <= min(a11, a22) every
off-diagonal entry is nonpositive and the matrix is an M-matrix, which
gives the discrete maximum and comparison principles.  Drift terms are
upwinded.  Dirichlet data: u = 0 on the curve, caller-supplied values on
the top and lateral box sides.  Where the nodes sit and how far apart is
the mask's (``DomainMask``): assembly, extraction and the convergence
study read its node coordinates and spacings, never a scalar h.

Assembly is one pass over whole slot columns: every coefficient goes
straight into the column of its neighbor slot, a node that lacks a term
(the drift's other side, the mixed term of the other sign) adding 0
there.  The slot table, taken in column order, is the CSR matrix, and
dropping its zero slots makes it canonical, with no COO stage,
duplicate sum or sort.  Neighbors are read at flat offsets of the
raveled grid, each neighbor class once per direction.

The direct solve eliminates the unknowns in a geometric nested-dissection
order built from their grid coordinates: grid lines separate both
stencils, so the LU factors fill far less than under a column ordering
that does not know the grid.  The order is computed box by box, with
each box's node count and tight bounds read off a summed-area table of
the nodes, so no level passes over the nodes.  SuperLU's threshold
partial pivoting stays on as a guard, although on these M-matrices it
exchanges no rows.
Every system goes through this factorization; one whose factor does not
fit in memory raises ``MemoryError``.

A radial graph x2 = f(|x1|) with an even operator and even data gives a
system that is exactly invariant under the mirror x1 -> -x1, and its
solution is even.  The direct solve checks that invariance bitwise and
then factorizes only the half grid i >= center_col, with each left-half
column merged onto its mirror; about half the factorization work on the
radial profiles.  Any other system, for instance one with a12 != 0 or a
drift, is not folded.  Either way the residual is that of the full
system.

Every system takes one path: its red unknowns ((i + j) even) are
eliminated first, one step of cyclic reduction (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7(4), 1970), and SuperLU factorizes the
Schur complement S = A_BB - A_BR D^-1 A_RB of the black ones, again an
M-matrix with row sums >= 0.  A system whose off-diagonal entries all
join a red node and a black one, which is every 5-point system
(a12 = 0), folded or not, has a diagonal red block D > 0; its black
nodes go in their nested-dissection order on the rotated lattice, where
S is a 9-point stencil.  S has half the columns of A, and on the presets
at h = 2^-6 to 2^-10 its factor 37-52% less fill than A's (CHANGES.md).
A 9-point split with a12 != 0, whose diagonal arms join nodes of one
color, is the case with no red unknown: every node is black, in the
nested-dissection order of the grid, and S is the whole system in that
order.  The selection comes from the matrix alone.

The LU factors are computed and stored in single precision, half the
bytes of double, and the solution is refined in double precision
(residuals in float64, each scaled by its max before the float32 solve)
until the residual is within the rounding bound of its own computation
and the error left, estimated from the contraction of the last two
corrections, is within that bound carried to the solution (Demmel et
al., ACM TOMS 32(2), 2006), so the result carries double-precision
accuracy.  The residual is that of the (folded) system, and each
correction is d_B = S^-1 (r_B - A_BR D^-1 r_R), d_R = D^-1 (r_R -
A_RB d_B), only the solve with S in float32; with no red unknown it is
d = S^-1 r.  A
refinement that stalls, which takes a condition number near 1/u_32,
falls back to a double-precision factor driven by the same loop
(Buttari et al., ACM TOMS 34(4), 2008; Higham, Accuracy and Stability
of Numerical Algorithms, ch. 12).  A factorized matrix with an entry
outside float32's range, one that overflows to inf or flushes to 0 in
the copy, goes straight to the double-precision factor.

SuperLU factors ``_PANEL`` = 4 columns at a time, not its default 20.
Each column of a panel takes work arrays as long as the matrix, held
for the whole factorization and freed when it returns, so the panel
sets how far the peak memory lies above the factor; on the
nested-dissection factors the narrower panel is also no slower (the
panel-width sweep in CHANGES.md).  While SuperLU runs, the solve holds
only what it needs: the system, the folded half when there is one, the
input of the factor and the domain, whose mask keeps its node classes
and the arms that meet the graph, not a grid of them, and whose node
numbering is int32 wherever the grid's node count fits.  The input is
S's float32 copy, which shares S's index arrays; S's float64 data is
dropped before the factor, and should the refinement stall, S is formed
again from the elimination for the float64 factor.  S comes from one
sparse product whose one permuted operand, the black rows of A (all of
them when no unknown is red), is freed with every other temporary
before the factor.  The residuals read the (folded) system itself.  The
|A| and |b| of the refinement's stop test are built after the first
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .convex_geometry import (CURVE, EDGE, INTERIOR,
                              BoundaryProfile, DomainMask, arm_fraction,
                              domain_mask)
from .elliptic_operator import EllipticOperator, EmptyRegionError

__all__ = [
    "ConvergenceReport",
    "DiscreteDomain",
    "DiscreteSolution",
    "LinearSystem",
    "MisalignedHeightError",
    "StencilMonotonicityError",
    "convergence_study",
    "discretize",
    "dump_matrix",
    "dump_solution_csv",
    "dump_vector",
    "hopf_trace",
    "oscillation",
    "solve",
]


class StencilMonotonicityError(ValueError):
    """|a12| > min(a11, a22) somewhere: monotone 9-point split impossible."""


class MisalignedHeightError(ValueError):
    """Requested trace height is not a grid line."""


@dataclass(frozen=True)
class DiscreteDomain:
    """Masked grid plus the interior-node indexing used by the solver."""

    profile: BoundaryProfile
    mask: DomainMask
    index: np.ndarray        # (nx1, nx2), -1 off the unknowns
    interior_ij: np.ndarray  # (N, 2), stored column by column

    @classmethod
    def build(cls, profile: BoundaryProfile, h: float) -> "DiscreteDomain":
        """Number the interior nodes in (i, j) order.  Both arrays are
        int32 when the grid's node count fits, else int64, and so is
        every flat offset or cell id computed from them, all below that
        count.  ``interior_ij`` is the transpose of a (2, N) array, so
        that its i and j columns are contiguous."""
        mask = domain_mask(profile, h)
        itype = (np.int32 if mask.cls.size <= np.iinfo(np.int32).max
                 else np.int64)
        index = np.full(mask.cls.shape, -1, dtype=itype)
        ii, jj = np.nonzero(mask.cls == INTERIOR)
        index[ii, jj] = np.arange(ii.size, dtype=itype)
        return cls(profile=profile, mask=mask, index=index,
                   interior_ij=np.vstack((ii, jj), dtype=itype).T)

    @property
    def n_unknowns(self) -> int:
        return self.interior_ij.shape[0]


@dataclass(frozen=True)
class LinearSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dom: DiscreteDomain
    bc: Callable

    def m_matrix_report(self, tol: float = 1e-10) -> dict:
        """Off-diagonal sign and weak row dominance diagnostics; the row
        sums, which scale as 1/spacing^2, are held to ``tol`` over the
        smallest spacing squared."""
        coo = self.matrix.tocoo()
        off = coo.data[coo.row != coo.col]
        max_off = float(off.max()) if off.size else 0.0
        rowsum = np.asarray(self.matrix.sum(axis=1)).ravel()
        mask = self.dom.mask
        d = min(float(mask.dx1.min()), float(mask.dx2.min()))
        return {
            "offdiag_ok": bool(max_off <= tol),
            "max_offdiag": max_off,
            "rowsum_ok": bool(rowsum.min() >= -tol / d**2),
            "min_rowsum": float(rowsum.min()),
        }


@dataclass(frozen=True)
class DiscreteSolution:
    values: np.ndarray       # grid-shaped; NaN outside the closed domain
    vec: np.ndarray
    residual_norm: float
    # refinement steps, each one pair of triangular solves with the
    # factor of the Schur complement ``fill`` counts (counting those with
    # a stalled float32 factor)
    iterations: int
    dom: DiscreteDomain
    method: str
    # entries SuperLU stores for the L and U factors of the matrix it
    # factorized: the Schur complement of the black unknowns, which is the
    # whole system when no unknown is red (a12 != 0); of the folded half
    # when the system was mirror-folded.  The same for a float32 as for a
    # float64 factor.  Under the nested-dissection order this is within
    # 0.1% of nnz(L) + nnz(U) and, unlike that, needs no copy of the
    # factors.
    fill: int = 0


_A12_TOL = 1e-12   # slack of the monotonicity test |a12| <= min(a11, a22)


# an overflow in assembly shows as a diagonal or rhs entry that is not
# finite, which discretize reports
@np.errstate(over="ignore", invalid="ignore")
def discretize(op: EllipticOperator, dom: DiscreteDomain,
               bc_top_side: Callable,
               source: Optional[Callable] = None) -> LinearSystem:
    """Assemble the sparse system for L u = source on the masked grid.

    ``bc_top_side(x1, x2)`` supplies Dirichlet data on the box top and
    lateral sides; the curve carries u = 0.  Raises ``ValueError`` when a
    coefficient, or the assembled diagonal or rhs, is not finite at a
    node, and ``StencilMonotonicityError`` when |a12| > min(a11, a22) at
    a node.  Every contribution to the diagonal is >= 0 and bounds the
    off-diagonal entries it comes with, so a finite diagonal means a
    finite row; an overflow in assembly is reported this way, without a
    floating-point warning.

    Every arm is a spacing of the mask times its Shortley-Weller
    fraction: a node (i, j) reaches west over dx1[i - 1], east over
    dx1[i], south over dx2[j - 1] and north over dx2[j], each shortened
    where the graph cuts it.  On a uniform axis every spacing is h and
    the entries are those of the uniform stencil to the bit.  The
    diagonal arms of the mixed term assume uniform square cells.

    Assembly is one pass over whole slot columns.  Each stencil
    coefficient is added straight into the column of its neighbor slot:
    the four axis neighbors, the node itself, and the diagonal pair of
    each sign that a12 takes somewhere.  A term that a node lacks adds 0
    there: the drift's other side, and the mixed term of the other sign,
    whose weight is max(s a12, 0).  No entry gets more than two nonzero
    contributions (the axis second difference and the upwinded drift),
    so its sum does not depend on their order.  Neighbors are read at
    flat offsets on the raveled grid: the neighbor (i + di, j + dj) of a
    node sits ``di * n2 + dj`` entries after it, n2 the grid's row count,
    and each neighbor's class is looked up once per direction.  Unknowns
    are numbered by (i, j), so the slots in (di, dj) order are the row's
    columns in ascending order: the slot table, read row by row, is a
    CSR matrix with the same number of slots in every row, and dropping
    its zero slots leaves the canonical CSR matrix, with no duplicate to
    sum and nothing to sort.
    """
    mask = dom.mask
    x1, x2 = mask.x1, mask.x2
    n2 = x2.size
    cls = mask.cls.ravel()
    ii = dom.interior_ij[:, 0]
    jj = dom.interior_ij[:, 1]
    N = ii.size
    flat = ii * n2 + jj          # each node's offset in the raveled grid
    index = dom.index.ravel()

    X1 = x1[ii]
    X2 = x2[jj]
    a11, a22, a12 = (np.broadcast_to(np.asarray(v, dtype=float), (N,))
                     for v in op.a_grid(X1, X2))
    b1, b2 = (np.broadcast_to(np.asarray(v, dtype=float), (N,))
              for v in op.b_grid(X1, X2))
    del X1, X2

    def require_finite(**named):
        for name, v in named.items():
            if not np.isfinite(v).all():
                k = int(np.flatnonzero(~np.isfinite(v))[0])
                raise ValueError(f"{name} = {v[k]:g} is not finite at "
                                 f"({x1[ii[k]]:g}, {x2[jj[k]]:g})")

    require_finite(a11=a11, a22=a22, a12=a12, b1=b1, b2=b2)
    bad = np.abs(a12) > np.minimum(a11, a22) + _A12_TOL
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise StencilMonotonicityError(
            f"|a12| = {abs(a12[k]):g} exceeds min(a11, a22) = "
            f"{min(a11[k], a22[k]):g} at ({x1[ii[k]]:g}, {x2[jj[k]]:g})")

    A1 = a11 - np.abs(a12)
    A2 = a22 - np.abs(a12)
    del a11, a22

    slots = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    if np.any(a12 > 0.0):
        slots += [(-1, -1), (1, 1)]
    if np.any(a12 < 0.0):
        slots += [(-1, 1), (1, -1)]
    slots.sort()
    slot = {d: s for s, d in enumerate(slots)}
    V = np.zeros((N, len(slots)))   # V[k, slot[di, dj]]: the row k entry
    diag = V[:, slot[0, 0]]
    rhs = np.zeros(N)

    def ends(di, dj):
        """Where the arms toward (i + di, j + dj) end: on an unknown
        (mask) or on box data (node positions)."""
        tcls = cls.take(flat + (di * n2 + dj))
        return tcls == INTERIOR, np.flatnonzero(tcls == EDGE)

    def couple(di, dj, coef, end):
        """Route the arms toward (i + di, j + dj): an unknown takes the
        coefficient, a box side its product with the data into rhs, the
        curve (u = 0) nothing.  A zero coefficient leaves its slot at 0,
        so only the box sides need it masked."""
        unk, edge = end
        col = V[:, slot[di, dj]]
        np.add(col, coef, out=col, where=unk)
        edge = edge[np.abs(coef[edge]) > 0.0]
        if edge.size:
            g = np.asarray(bc_top_side(x1[ii[edge] + di], x2[jj[edge] + dj]),
                           dtype=float)
            rhs[edge] -= coef[edge] * g

    def spacings(dx, k):
        """The spacings from the nodes at index k along an axis back to
        k - 1 and on to k + 1, from that axis's spacing array dx; an
        interior node is never on a box side, so both exist.  Built where
        they are needed and dropped after, not held through assembly."""
        return dx.take(k - 1), dx.take(k)

    def second_diff(weight, a_minus, a_plus, di, dj, end_minus, end_plus,
                    d_minus, d_plus):
        """-(weight) d^2/ds^2 along the step (di, dj), with the spacings
        d_minus back and d_plus forward: the arms are L = a d, the
        diagonal entry 2 w / (L_- L_+) and the neighbors' -2 w / (L_-
        (L_- + L_+)) and -2 w / (L_+ (L_- + L_+)).  They are computed
        through r = d_+/d_- as 2 w / ((a_- a_+)(d_- d_+)), -2 w / ((a_-
        (a_- + a_+ r))(d_- d_-)) and -2 w / ((a_+ (a_- + a_+ r))(d_-
        d_+)): with equal spacings h, r is exactly 1 and d d is h h, so
        the entries are those of the uniform stencil to the bit.  An arm
        that crosses the curve ends where u = 0 and adds only to the
        diagonal.  A zero weight adds zeros.  Temporaries are reused: at
        10^5-10^6 nodes each fresh one costs about as much as the
        arithmetic."""
        w2 = 2.0 * weight
        dd = d_minus * d_plus
        t = a_minus * a_plus
        t *= dd
        np.divide(w2, t, out=t)
        diag[:] += t
        span = np.divide(d_plus, d_minus, out=t)
        span *= a_plus
        span += a_minus
        w2 *= -1.0
        c = a_minus * span
        c *= d_minus * d_minus
        np.divide(w2, c, out=c)
        couple(-di, -dj, c, end_minus)
        np.multiply(a_plus, span, out=c)
        c *= dd
        np.divide(w2, c, out=c)
        couple(di, dj, c, end_plus)

    def arm_lengths(arms):
        """Each node's arm in one direction as a fraction of its spacing:
        1, but on the arms that meet the graph, whose fractions are
        scattered to their unknowns."""
        alpha = np.ones(N)
        alpha[index.take(arms.at)] = np.fmin(arms.frac, 1.0)
        return alpha

    # ---- axis second differences with Shortley-Weller arms
    end_w, end_e, end_s, end_n = (ends(di, dj) for di, dj in
                                  ((-1, 0), (1, 0), (0, -1), (0, 1)))
    alpha_w, alpha_e, alpha_s = (arm_lengths(a) for a in
                                 (mask.arms_w, mask.arms_e, mask.arms_s))
    alpha_n = 1.0   # the graph never crosses an upward arm
    second_diff(A1, alpha_w, alpha_e, 1, 0, end_w, end_e,
                *spacings(mask.dx1, ii))
    second_diff(A2, alpha_s, alpha_n, 0, 1, end_s, end_n,
                *spacings(mask.dx2, jj))
    del A1, A2

    # ---- mixed term: -|a12| times the second difference with step
    # d (s, 1), s = sign(a12), which is -2 |a12| u_dd, on whole slot
    # columns with weight max(s a12, 0), as the drift zeroes its other
    # side.  The diagonal arms assume uniform square cells, dx1 = dx2 = d
    # around the node, so that the diagonal neighbors lie at d (s, 1) and
    # d (-s, -1); d is taken from the row spacings.  The arm toward
    # (i+s, j+1) goes in as the minus side of the step (-s, -1), so that
    # at nodes whose two arms both end on box data its rhs update comes
    # first.
    for s in (1, -1):
        weight = np.maximum(s * a12, 0.0)
        if not np.any(weight > 0.0):
            continue
        d_s, d_n = spacings(mask.dx2, jj)
        second_diff(weight, arm_fraction(mask, dom.profile, ii, jj, s, 1),
                    arm_fraction(mask, dom.profile, ii, jj, -s, -1), -s, -1,
                    ends(s, 1), ends(-s, -1), d_n, d_s)
        del weight, d_s, d_n
    del a12

    # ---- upwinded drift: a positive component takes the backward
    # difference, (u_P - u_W)/(alpha_w d_w) along x1, a negative one the
    # forward difference, (u_E - u_P)/(alpha_e d_e).  c is the neighbor's
    # coefficient; the diagonal takes its negative
    for b, dx, k, di, dj, alpha_back, alpha_fwd, end_back, end_fwd in (
            (b1, mask.dx1, ii, 1, 0, alpha_w, alpha_e, end_w, end_e),
            (b2, mask.dx2, jj, 0, 1, alpha_s, alpha_n, end_s, end_n)):
        if not np.any(np.abs(b) > 0.0):
            continue
        up = b > 0.0
        d_back, d_fwd = spacings(dx, k)
        for on, sign, step, alpha, d, end in (
                (up, 1.0, -1, alpha_back, d_back, end_back),
                (~up, -1.0, 1, alpha_fwd, d_fwd, end_fwd)):
            c = b / (alpha * d)
            c[~on] = 0.0
            c *= -sign
            diag -= c
            couple(step * di, step * dj, c, end)
            del c
        del d_back, d_fwd
    del b1, b2, alpha_w, alpha_e, alpha_s, end_w, end_e, end_s, end_n

    if source is not None:
        rhs += np.asarray(source(x1[ii], x2[jj]), dtype=float)
    require_finite(diagonal=diag, rhs=rhs)
    del diag

    # ---- canonical CSR: row k's entries are its slots in slot order,
    # which is ascending column order, less the slots that hold 0.  A
    # slot no arm reached holds 0 and is dropped whatever its column
    # index (-1 or out of range off the unknowns); the contributions to
    # one slot share a sign on this monotone stencil, so a slot an arm
    # reached is nonzero, and the diagonal is positive.  Unknowns are
    # numbered in (i, j) order, so the neighbors in the same column,
    # where they are unknowns, are the previous and next ones
    S = len(slots)
    itype = np.int32 if N * S <= np.iinfo(np.int32).max else np.int64
    cols = np.empty((N, S), dtype=itype)
    for s, (di, dj) in enumerate(slots):
        cols[:, s] = (np.arange(dj, N + dj) if di == 0
                      else index.take(flat + (di * n2 + dj)))
    matrix = sp.csr_matrix((V.reshape(-1), cols.reshape(-1),
                            np.arange(0, N * S + 1, S, dtype=itype)),
                           shape=(N, N))
    del V, cols
    matrix.eliminate_zeros()
    # scipy copies the kept slots out only when fewer than half survive;
    # else data and indices are views that hold the whole table.  Where
    # a12 takes both signs or is 0 on part of the grid, diagonal slot
    # pairs are empty at many nodes (13-22% of the table on the presets
    # at h = 2^-9), and the kept slots are copied out.  Arms that end on
    # the curve empty a few percent at most, not worth a copy, which
    # raised the peak RSS of a 5-point solve at 2^-10 by 15 MiB
    if matrix.data.base is not None and 10 * matrix.nnz < 9 * N * S:
        matrix.data = matrix.data.copy()
        matrix.indices = matrix.indices.copy()
    return LinearSystem(matrix=matrix, rhs=rhs, dom=dom, bc=bc_top_side)


_ND_LEAF = 4   # boxes of at most this many nodes are not cut further


def _column_ranks(G: np.ndarray, H: int, a, b, c, d):
    """Rank ranges of the nodes in each column of the boxes [a, b) x [c, d).

    ``G[t * H + r]`` counts the nodes in the cells before (t, r) in
    (i, j) order, so the nodes of a box in its column t are those with
    ranks in [G[t H + c], G[t H + d]).  Returns ``(lo, hi, starts,
    widths)``: these two rank bounds for every column of every box, box
    after box, with box q's columns from ``starts[q]`` on."""
    w = b - a
    end = w.cumsum()
    starts = end - w
    f0 = ((a - starts) * H + c).repeat(w)
    f0 += np.arange(0, int(end[-1]) * H, H)
    f1 = (d - c).repeat(w)
    f1 += f0
    lo = G.take(f0)
    del f0
    return lo, G.take(f1), starts, w


def _nested_dissection(ij: np.ndarray) -> np.ndarray:
    """Geometric nested-dissection elimination order of grid nodes.

    ``ij`` holds the (i, j) grid coordinates of the N unknowns, distinct
    and in (i, j) order, as ``DiscreteDomain`` numbers them.  The bounding
    box of a set of nodes is cut at the middle grid line of its longer
    side; the nodes below the line are numbered first, then those above,
    then the line itself, and each half is cut again until it holds at
    most ``_ND_LEAF`` nodes (George 1973).  The nodes of a leaf or of a
    line keep their (i, j) order.  A grid line separates the 5-point
    stencil and also the 9-point split, whose diagonal arms move one
    column and one row.

    The boxes, not the nodes, go through the levels.  A prefix count of
    the nodes over the raveled grid of their bounding box, a summed-area
    table along the columns (Crow 1984), gives the rank range of a box's
    nodes in each of its columns from two lookups.  One segmented sum of
    these per box gives its node count, and its tight bounds come from
    the first and last node of each nonempty column by segmented min and
    max.  Each box knows the position of its first node in the order: the
    lower half starts there, the upper half after the lower's nodes, the
    line after both.  Every finished leaf and line is written into the
    order once, at the end, as runs of consecutive ranks, one run per
    column.  ``_ND_LEAF >= 4`` keeps the cut side of every box that is
    cut at least three lines long, so no half is an empty range.

    No digit string bounds the depth: positions and ranks are intp
    indices, and the table holds one entry per cell of the bounding box.
    Returns ``perm`` with unknown ``perm[k]`` eliminated k-th.
    """
    n = ij.shape[0]
    if n <= _ND_LEAF:
        return np.arange(n)
    i = ij[:, 0] - ij[0, 0]
    j = ij[:, 1] - ij[:, 1].min()
    W = int(i[-1]) + 1
    H = int(j.max()) + 1
    cell = i * H
    cell += j
    if np.any(cell[1:] <= cell[:-1]):
        raise ValueError("nodes must be distinct and in (i, j) order")
    G = np.zeros(W * H + 1, dtype=np.intp)   # node i*H + j has rank G[i*H + j]
    cell += 1
    G[cell] = 1
    del cell
    G.cumsum(out=G)
    jr = np.empty(n + 2, dtype=np.intp)   # jr[r + 1]: j of rank r; -1, H at
    jr[0] = -1                            # ranks -1 and n
    jr[1:-1] = j
    jr[-1] = H
    del j

    lo_i, hi_i, lo_j, hi_j = (np.array([v]) for v in (0, W - 1, 0, H - 1))
    first = np.zeros(1, dtype=np.intp)   # position of each box's first node
    halves, firsts, leaves, lines, line_firsts = [], [], [], [], []
    while True:
        nb = first.size
        along_j = hi_j - lo_j > hi_i - lo_i
        m = np.where(along_j, lo_j + hi_j, lo_i + hi_i) >> 1
        box = np.empty((4, nb), dtype=np.intp)   # rows a, b, c, d of
        box[0] = lo_i                            # [a, b) x [c, d)
        box[1] = hi_i + 1
        box[2] = lo_j
        box[3] = hi_j + 1
        lines.append((box, m, along_j))
        # the lower halves, then the upper ones, end just before and start
        # just after the line on the cut axis.  half[r, q] sits at
        # r * 2nb + q: the upper's lo (row 0 or 2, column nb + q) at nb + q
        # or 5nb + q, the lower's hi (row 1 or 3, column q) nb further on
        half = np.concatenate((box, box), axis=1)
        at = np.where(along_j, 5 * nb, nb)
        at += np.arange(nb)
        cut_bound = half.reshape(-1)
        cut_bound[at] = m + 1
        at += nb
        cut_bound[at] = m
        lo, hi, col0, _ = _column_ranks(G, H, *half)
        cnt = hi - lo
        count = np.add.reduceat(cnt, col0)
        first = np.concatenate((first, first + count[:nb]))
        line_firsts.append(first[nb:] + count[nb:])
        leaf = count <= _ND_LEAF
        halves.append(half)
        firsts.append(first)
        leaves.append(leaf)
        cut = ~leaf
        if not cut.any():
            break
        # tight bounds of the halves to cut: empty columns drop out
        empty = cnt == 0
        del cnt
        lo[empty] = n
        hi[empty] = 0
        lo_i = i.take(np.minimum.reduceat(lo, col0)[cut])
        hi_i = i.take(np.maximum.reduceat(hi, col0)[cut] - 1)
        lo += 1
        lo_j = np.minimum.reduceat(jr.take(lo), col0)[cut]
        hi_j = np.maximum.reduceat(jr.take(hi), col0)[cut]
        first = first[cut]
    del i, jr, lo, hi, cnt

    # the finished pieces: the leaves, and the lines, each a box with its
    # cut-axis bounds set to [m, m + 1) (box[r, q] sits at r * nl + q)
    box, m, along_j = (np.concatenate(x, axis=-1) for x in zip(*lines))
    nl = m.size
    at = np.where(along_j, 2 * nl, 0)
    at += np.arange(nl)
    cut_bound = box.reshape(-1)
    cut_bound[at] = m
    at += nl
    cut_bound[at] = m + 1
    leaf = np.concatenate(leaves)
    pieces = np.concatenate((np.concatenate(halves, axis=1)[:, leaf], box),
                            axis=1)
    first = np.concatenate((np.concatenate(firsts)[leaf], *line_firsts))
    del halves, firsts, leaves, lines, line_firsts, box, m, along_j, at
    lo, cnt, col0, w = _column_ranks(G, H, *pieces)
    del G, pieces
    cnt -= lo
    # each column's nodes are a run of consecutive ranks; it goes to its
    # piece's first position plus the nodes of the piece's earlier columns
    pos = cnt.cumsum()
    pos -= cnt
    shift = pos[col0]
    shift -= first
    pos -= shift.repeat(w)
    del shift
    run = cnt > 0
    pos, lo, cnt = pos[run], lo[run], cnt[run]
    # perm rises by one along a run; where a run starts it jumps from
    # the last rank of the run that ends just before
    last = np.empty(n + 1, dtype=np.intp)
    last[0] = 0
    cnt -= 1
    last[pos + cnt + 1] = lo + cnt
    lo -= last[pos]
    del last
    perm = np.ones(n, dtype=np.intp)
    perm[pos] = lo
    return perm.cumsum(out=perm)


def _mirror_fold(system: LinearSystem):
    """Fold of a grid system that is exactly mirror-invariant; else None.

    With ``m`` the unknown at the mirror node (n1 - 1 - i, j) of each
    unknown, the system folds only when every node has a mirror unknown,
    ``rhs[m] == rhs`` and ``A[m][:, m] == A``, all bitwise.  Then its
    solution is even, and the rows of the unknowns with i >= center_col,
    each column moved to its kept mirror, form a system for that half
    alone (duplicates summed: on the center column the W and E arms
    merge, so off-diagonals stay <= 0 and row sums do not change).

    The diagonal is compared first, a necessary condition that rejects a
    drift, for instance, before the mirrored copy of the whole matrix is
    built.  A matrix with sorted indices, as ``discretize`` gives, is
    compared as it is, and the mirrored copy is sorted in place and freed.

    Returns ``(first, rep)``: the first kept unknown, and ``rep`` mapping
    every unknown to its row in the half system (so ``x = xf[rep]``).
    Unknowns are numbered in (i, j) order, so the kept ones are those
    from ``first`` on, and ``rep`` maps them to ``k - first``.
    """
    dom = system.dom
    ii, jj = dom.interior_ij[:, 0], dom.interior_ij[:, 1]
    m = dom.index[dom.mask.x1.size - 1 - ii, jj]
    if np.any(m < 0) or not np.array_equal(system.rhs[m], system.rhs):
        return None
    A = system.matrix.tocsr()
    diag = A.diagonal()
    if not np.array_equal(diag[m], diag):
        return None
    if not A.has_sorted_indices:
        A = A.sorted_indices()
    B = A[m][:, m]
    B.sort_indices()
    mirrored = (np.array_equal(A.indptr, B.indptr)
                and np.array_equal(A.indices, B.indices)
                and np.array_equal(A.data, B.data))
    del B
    if not mirrored:
        return None
    first = int(np.searchsorted(ii, dom.mask.center_col))
    rep = np.arange(-first, ii.size - first, dtype=m.dtype)
    rep[:first] = rep[m[:first]]
    return first, rep


def _folded_system(system: LinearSystem):
    """``(A, b, ij, rep)``: the system the direct solve works on, canonical
    CSR in the (i, j) order of its unknowns, their grid coordinates, and
    the map ``x = y[rep]`` from its solution to that of ``system``,
    ``slice(None)`` without a fold.

    Without a fold (``_mirror_fold``) this is ``system`` itself.  With one
    it is the kept half: the rows from ``first`` on, one contiguous range
    of the CSR arrays, each column moved to ``rep[col]``, and the entries
    the fold merges summed."""
    A = system.matrix.tocsr()
    n = A.shape[0]
    fold = _mirror_fold(system)
    if fold is None:
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        return A, system.rhs, system.dom.interior_ij, slice(None)
    first, rep = fold
    start = A.indptr[first]
    A = sp.csr_matrix((A.data[start:].copy(),
                       rep.take(A.indices[start:]).astype(A.indices.dtype,
                                                          copy=False),
                       A.indptr[first:] - start),
                      shape=(n - first, n - first))
    A.sum_duplicates()
    return A, system.rhs[first:], system.dom.interior_ij[first:], rep


@dataclass
class _RedBlack:
    """Elimination of the red unknowns ((i + j) even) of a system A, of
    which there may be none.

    There are red unknowns only when every off-diagonal entry of A joins a
    red and a black node, so that the red block D is diagonal; else
    ``red`` and ``d`` are empty and every unknown is black.  The black
    unknowns solve the Schur complement S = A_BB - A_BR D^-1 A_RB, which
    with no red unknown is A in the order ``black``.  ``S`` holds S's
    canonical CSR arrays with rows and columns in elimination order
    ``black``: read as CSC they are S^T, which SuperLU factorizes and
    solves transposed.  Row by row S is diagonally dominant, so column
    by column S^T is, and its threshold partial pivoting exchanges no
    rows.  ``schur()`` forms S from the other four fields: once when the
    elimination is set up, and again, the same to the bit, for a float64
    factor after the solve set ``S`` to None for its float32 copy."""

    A: sp.csr_matrix     # the system, float64
    red: np.ndarray      # the red unknowns, none for a 9-point system
    d: np.ndarray        # D, their diagonal entries, all > 0
    black: np.ndarray    # the black unknowns in elimination order
    S: Optional[sp.csr_matrix]

    def schur(self) -> sp.csr_matrix:
        """S = (A P)_B, canonical CSR with rows and columns in the order
        ``black``, formed by one sparse product.

        P is the map from x_B to the x whose red equations hold,
        x_R = -D^-1 A_RB x_B: a red row keeps its off-diagonal entries
        over -d, a black row holds 1 at its own position.  D^-1 A_RB
        comes first, which keeps every intermediate within the size of
        A's entries: on these M-matrices a row of it sums to at most 1 in
        magnitude.  The rows of A_B. go in elimination order and P's
        columns take their positions, so the product is S in that order.
        With no red unknown P is a permutation and S is A[black][:, black]
        to the bit, each entry one product with 1; A's rows must each hold
        their diagonal entry, as those of ``discretize`` do.  A_B., a
        row-permuted copy of half of A, or of all of it with no red
        unknown, is the only permuted copy; it lives while the product
        runs and is freed, with P, before the method returns."""
        A, red, black = self.A, self.red, self.black
        n = A.shape[0]
        itype = A.indices.dtype
        counts = np.diff(A.indptr)
        is_red = np.zeros(n, dtype=bool)
        is_red[red] = True
        # P's entries: a red row's off-diagonal ones, a black row's diagonal
        keep = A.indices == np.repeat(np.arange(n, dtype=itype), counts)
        np.not_equal(keep, np.repeat(is_red, counts), out=keep)
        p_counts = np.where(is_red, counts - 1, 1).astype(itype)
        del counts, is_red
        scale = np.ones(n)
        scale[red] = -self.d
        values = A.data[keep]
        values /= np.repeat(scale, p_counts)
        del scale
        indptr = np.zeros(n + 1, dtype=itype)
        np.cumsum(p_counts, out=indptr[1:])
        values[indptr.take(black)] = 1.0
        pos = np.zeros(n, dtype=itype)   # each black unknown's position
        pos[black] = np.arange(black.size, dtype=itype)
        P = sp.csr_matrix((values, pos.take(A.indices[keep]), indptr),
                          shape=(n, black.size))
        del keep, values, pos, indptr, p_counts
        S = A[black] @ P
        del P
        S.sort_indices()
        return S

    def correction(self, lu, dtype) -> Callable:
        """The solve of A d = r through S's factor ``lu`` of type dtype:
        d_B = S^-1 (r_B - A_BR D^-1 r_R), then d_R = D^-1 (r_R - A_RB d_B),
        the products with A_BR and A_RB taken as products with A of a
        vector zero on the other color.  With no red unknown it is
        d = S^-1 r, with no product with A."""
        A, red, d, black = self.A, self.red, self.d, self.black

        def solve(r):
            z = np.zeros(r.size)
            reduced = r[black]
            if red.size:
                z[red] = r[red] / d
                reduced -= (A @ z)[black]
                z[red] = 0.0
            z[black] = lu.solve(reduced.astype(dtype),
                                trans="T").astype(np.float64)
            if red.size:
                z[red] = (r[red] - (A @ z)[red]) / d
            return z

        return solve


def _red_black(A: sp.csr_matrix, ij: np.ndarray) -> _RedBlack:
    """The elimination of A, canonical CSR over grid nodes at ``ij`` in
    (i, j) order, chosen from the matrix alone: of its red unknowns, or
    of none when an off-diagonal entry joins two nodes of one color, a
    red diagonal entry is not positive, or no node is black.

    The test comes first and builds no matrix: one pass compares the color
    of every entry's column with that of its row, and the entries of
    equal color must be the n diagonal entries.  Every 5-point system
    passes it, folded or not (the mirror keeps the color on the odd grid
    width); a 9-point split with a12 != 0, whose diagonal arms join nodes
    of one color, does not.  S is then one sparse product
    (``_RedBlack.schur``), formed after every array of the test is
    freed.  With red unknowns the order is ``_nested_dissection`` of the
    black nodes on the rotated lattice u = (i + j - 1)/2,
    v = (i - j - 1)/2, on which S, which couples the black nodes that a
    red node joins, is a 9-point stencil; with none it is that of every
    node on the grid itself.
    """
    n = A.shape[0]
    is_black = ((ij[:, 0] + ij[:, 1]) & 1).astype(bool)
    same = is_black.take(A.indices)
    np.equal(same, np.repeat(is_black, np.diff(A.indptr)), out=same)
    diag = np.flatnonzero(same)
    del same
    red = np.flatnonzero(~is_black)
    black = np.flatnonzero(is_black)
    del is_black
    colored = (diag.size == n and black.size > 0
               and np.all(diag >= A.indptr[:-1])
               and np.all(diag < A.indptr[1:])
               and np.array_equal(A.indices.take(diag), np.arange(n)))
    d = A.data.take(diag.take(red)) if colored else None
    del diag
    if colored and np.all(d > 0.0):
        i, j = ij[black].T
        u = (i + j) >> 1
        v = (i - j) >> 1
        del i, j
        order = np.lexsort((v, u))
        black = black[order[_nested_dissection(
            np.column_stack((u[order], v[order])))]]
        del u, v, order
    else:
        red, d = red[:0], np.empty(0)
        black = _nested_dissection(ij)
    elim = _RedBlack(A=A, red=red, d=d, black=black, S=None)
    elim.S = elim.schur()
    return elim


_MAX_SOLVES = 10   # triangular solves per factor before it counts as stalled
_PANEL = 4         # columns per SuperLU panel (module docstring)


def _refined_lu_solve(elim: _RedBlack, b: np.ndarray):
    """Solve A x = b, A = ``elim.A``, by a float32 LU of its Schur
    complement S (``_RedBlack``), refined in float64.

    SuperLU factorizes S^T, S's canonical CSR arrays read as CSC, as it
    comes (``permc_spec="NATURAL"``), ``_PANEL`` columns at a time.  Its
    float32 copy shares S's index arrays, and ``elim.S`` is set to None
    once the copy exists, so that a float32 factor runs without S's
    float64 data; a later float64 factor forms S again
    (``_RedBlack.schur``).  |A|, which the stop test needs, shares A's
    index arrays and, with |b|, is built only once the first factor
    exists, so that neither is held while SuperLU runs.
    Starting from x = 0, each step solves for the correction d with the
    factor, the residual scaled by max|r| first so that no entry
    underflows in float32, adds d to x in float64 and recomputes
    r = b - A x in float64.  The loop stops once x has reached the
    double-precision level in two senses.  Backward: every |r_i| lies
    within the rounding bound gamma_{m+1} (|b| + |A| |x|)_i of a computed
    residual, m the most entries in a row (Higham, ch. 12), so the
    residual holds no more information for a correction to act on.
    Forward: the error left in x, estimated as max|d| times the
    contraction max|d| / max|d_prev| of the last two corrections (Demmel
    et al., ACM TOMS 32(2), 2006), is at most gamma_{m+1} max|x|.  That
    is the same bound carried to x: a correction A^-1 r from a residual
    known to within gamma_{m+1} (|b| + |A| |x|) is known to within
    gamma_{m+1} |A^-1| (|b| + |A| |x|) >= gamma_{m+1} |x|, so a smaller
    error is beyond what the loop can resolve.  The backward test alone
    can pass with an error far above that when the factor contracts the
    error slowly, as S's float32 factor does (about 1e-3 a step).  Once
    the backward test holds, a correction that fails to halve, or the
    last of ``_MAX_SOLVES`` solves, also ends the loop: what is left is
    rounding.  Short of it, either means kappa u_32 is not small; the
    float32 factor is then freed and the same loop runs on a float64
    factor, whose x is returned either way.  When the factorized matrix
    has an entry outside float32's range, so that its float32 copy holds
    an inf or fewer nonzeros, the loop runs on the float64 factor alone.
    A zero ``b`` gives x = 0 without a solve.

    Returns ``(x, SuperLU.nnz of the last factor, triangular solves)``.
    """
    A = elim.A
    m = int(A.getnnz(axis=1).max()) + 1
    u = np.finfo(np.float64).eps / 2.0
    gamma = m * u / (1.0 - m * u)
    abs_A = abs_b = None

    def at_rounding_level(r, x):
        return bool(np.all(np.abs(r) <= gamma * (abs_b + abs_A @ np.abs(x))))

    solves = 0
    for dtype in (np.float32, np.float64):
        # S was dropped for a stalled float32 factor: formed again
        S = elim.S if elim.S is not None else elim.schur()
        with np.errstate(over="ignore"):
            data = S.data.astype(dtype, copy=False)
        if dtype is np.float32 and not (
                np.isfinite(data).all()
                and np.count_nonzero(data) == np.count_nonzero(S.data)):
            continue   # outside float32's range
        indices, indptr, shape = S.indices, S.indptr, S.shape
        # S lives on only in SuperLU's input, which for a float32 factor
        # is the copy: S's float64 data is freed
        S = elim.S = None
        lu = spla.splu(sp.csc_matrix((data, indices, indptr), shape=shape),
                       permc_spec="NATURAL", panel_size=_PANEL)
        del data, indices, indptr
        if abs_A is None:
            abs_A = type(A)((np.abs(A.data), A.indices, A.indptr),
                            shape=A.shape)
            abs_b = np.abs(b)
        fill = int(lu.nnz)
        correction = elim.correction(lu, dtype)
        x = np.zeros(b.size)
        r, last = b, np.inf
        backward = done = at_rounding_level(r, x)
        for _ in range(_MAX_SOLVES):
            if done:
                break
            scale = np.abs(r).max()
            d = correction(r / scale) * scale
            solves += 1
            x += d
            r = b - A @ x
            backward = at_rounding_level(r, x)
            size = float(np.abs(d).max())
            # the error left, about size * (size / last), is within
            # gamma max|x|; in Python floats, whose inf * 0 raises no
            # warning
            xmax = float(np.abs(x).max())
            done = backward and size * size <= gamma * xmax * last
            if not size <= 0.5 * last:   # stalled, or not finite
                break
            last = size
        if backward:
            break
        del lu, correction   # free the stalled factor before the next one
    return x, fill, solves


def solve(system: LinearSystem) -> DiscreteSolution:
    """Solve the assembled system by a sparse LU factorization.

    The path is the one the module docstring describes, the same for
    every system: the mirror fold when the system allows it
    (``_folded_system``); the elimination of the red unknowns, none when
    an off-diagonal entry joins two nodes of one color (``_red_black``),
    which leaves SuperLU the Schur complement of the black ones in their
    nested-dissection order; and a float32 LU of it refined in float64
    against the (folded) system, with a float64 factor should the
    refinement stall (``_refined_lu_solve``).  The selection comes from
    the matrix alone.
    Neither the elimination nor the order changes the unknown numbering,
    ``system.matrix`` or ``vec``.  A factor too large for memory raises
    ``MemoryError``.  Deterministic for fixed inputs."""
    b = system.rhs
    dom = system.dom
    ij = dom.interior_ij
    A, b_f, ij_f, rep = _folded_system(system)
    x_f, fill, iterations = _refined_lu_solve(_red_black(A, ij_f), b_f)
    del A
    x = x_f[rep]
    res = float(np.linalg.norm(b - system.matrix @ x)
                / max(np.linalg.norm(b), 1e-300))

    mask = dom.mask
    values = np.full(mask.cls.shape, np.nan)
    values[ij[:, 0], ij[:, 1]] = x
    values[mask.cls == CURVE] = 0.0
    ei, ej = np.nonzero(mask.cls == EDGE)
    values[ei, ej] = np.asarray(system.bc(mask.x1[ei], mask.x2[ej]),
                                dtype=float)
    return DiscreteSolution(values=values, vec=x, residual_norm=res,
                            iterations=iterations, dom=dom, method="splu",
                            fill=fill)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def hopf_trace(sol: DiscreteSolution, heights: Sequence[float]) -> np.ndarray:
    """u(0, x2)/x2 at grid-aligned heights on the x1 = 0 column.

    Exact nodal division, no interpolation.  Heights must be positive grid
    lines with a defined value (interior or box top): each is looked up
    as the nearest row x2[j], which must lie within 1e-9 max(1, |x2|) of
    it and above the base row j = 0.  The first height that fails raises
    ``MisalignedHeightError``."""
    mask = sol.dom.mask
    lines = mask.x2
    x2 = np.asarray(heights, dtype=float).reshape(-1)
    # the nearest line: the first at or above x2, or the one below it
    j = np.minimum(np.searchsorted(lines, x2), lines.size - 1)
    below = np.maximum(j - 1, 0)
    j = np.where(x2 - lines[below] < lines[j] - x2, below, j)
    aligned = np.isfinite(x2) & (j > 0)
    aligned &= np.abs(lines[j] - x2) <= 1e-9 * np.maximum(1.0, np.abs(x2))
    v = sol.values[mask.center_col, j]
    bad = ~(aligned & np.isfinite(v))
    if np.any(bad):
        m = int(np.flatnonzero(bad)[0])
        if not aligned[m]:
            raise MisalignedHeightError(f"height {heights[m]} is not a grid "
                                        f"line")
        raise MisalignedHeightError(f"no solution value at (0, {heights[m]})")
    return v / lines[j]


# the rows j < this, from the base x2 = 0 up, that oscillation leaves out
_NOISE_FLOOR_CELLS = 2


def oscillation(sol: DiscreteSolution, profile: BoundaryProfile,
                r: float) -> float:
    """max - min of u(x)/x2 over interior nodes of the cylinder
    {|x1| < r, 0 < x2 < r}, excluding the ``_NOISE_FLOOR_CELLS`` lowest
    rows, where the quotient amplifies discretization noise."""
    if r > profile.R0 + 1e-12:
        raise ValueError(f"r = {r} exceeds the patch radius {profile.R0}")
    mask = sol.dom.mask
    # the grid lines ascend, so the cylinder is an index window:
    # -r < x1 < r and noise floor <= j, x2 < r
    i0 = np.searchsorted(mask.x1, -r, side="right")
    i1 = np.searchsorted(mask.x1, r)
    j0 = _NOISE_FLOOR_CELLS
    j1 = np.searchsorted(mask.x2, r)
    window = (slice(i0, i1), slice(j0, j1))
    region = mask.cls[window] == INTERIOR
    if not np.any(region):
        raise EmptyRegionError(f"no interior nodes in the cylinder r = {r}")
    X2 = np.broadcast_to(mask.x2[j0:j1], region.shape)
    quot = sol.values[window][region] / X2[region]
    return float(quot.max() - quot.min())


# ----------------------------------------------------------------------
# convergence study
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    h_list: tuple
    errors: tuple
    observed_order: Optional[float]
    exact: bool
    reference: str


def _lines_in(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Index in the ascending grid lines ``fine`` of each of the lines
    ``coarse``; ``ValueError`` unless every one is there exactly."""
    k = np.minimum(np.searchsorted(fine, coarse), fine.size - 1)
    if not np.array_equal(fine[k], coarse):
        raise ValueError("the refined grid does not hold every coarse node")
    return k


def convergence_study(op: EllipticOperator, profile: BoundaryProfile,
                      bc: Callable, h_list: Sequence[float],
                      exact: Optional[Callable] = None) -> ConvergenceReport:
    """Observed order from max-norm errors across grids.

    With ``exact`` the error is max |u_h - exact| over interior nodes;
    otherwise each grid is compared against its once-refined solve
    (Richardson-style difference) at the nodes the two grids share,
    matched by coordinate.  Errors below 1e-9 everywhere are reported as
    exact reproduction (order undefined)."""
    if len(h_list) < 2 or np.any(np.diff(h_list) >= 0.0):
        raise ValueError("h_list must be strictly decreasing with >= 2 entries")
    errors = []
    for h in h_list:
        dom = DiscreteDomain.build(profile, h)
        sol = solve(discretize(op, dom, bc))
        if exact is not None:
            ii, jj = dom.interior_ij[:, 0], dom.interior_ij[:, 1]
            ref = np.asarray(exact(dom.mask.x1[ii], dom.mask.x2[jj]),
                             dtype=float)
            err = float(np.abs(sol.vec - ref).max())
        else:
            dom2 = DiscreteDomain.build(profile, h / 2.0)
            sol2 = solve(discretize(op, dom2, bc))
            ii, jj = dom.interior_ij[:, 0], dom.interior_ij[:, 1]
            fine = sol2.values[_lines_in(dom2.mask.x1, dom.mask.x1)[ii],
                               _lines_in(dom2.mask.x2, dom.mask.x2)[jj]]
            ok = np.isfinite(fine)
            err = float(np.abs(sol.vec[ok] - fine[ok]).max())
        errors.append(err)
    errors_arr = np.asarray(errors)
    if np.all(errors_arr < 1e-9):
        return ConvergenceReport(tuple(h_list), tuple(errors), None, True,
                                 "exact" if exact else "richardson")
    slope = float(np.polyfit(np.log(np.asarray(h_list)),
                             np.log(np.maximum(errors_arr, 1e-300)), 1)[0])
    return ConvergenceReport(tuple(h_list), tuple(errors), slope, False,
                             "exact" if exact else "richardson")


# ----------------------------------------------------------------------
# dumps
# ----------------------------------------------------------------------

def dump_matrix(path, matrix: sp.spmatrix) -> None:
    """Coordinate text format: row, col, value per line."""
    coo = matrix.tocoo()
    lines = zip(coo.row.tolist(), coo.col.tolist(),
                np.asarray(coo.data, dtype=float).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{r} {c} {v!r}\n" for r, c, v in lines))


def dump_vector(path, vec: np.ndarray) -> None:
    values = np.asarray(vec, dtype=float).ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in values))


def dump_solution_csv(path, sol: DiscreteSolution) -> None:
    """Solution snapshot as CSV rows (x1, x2, u) over defined nodes."""
    mask = sol.dom.mask
    x1 = [repr(v) for v in mask.x1.tolist()]   # each grid line once
    x2 = [repr(v) for v in mask.x2.tolist()]
    i, j = np.nonzero(np.isfinite(sol.values))   # x1-major, as the grid
    lines = zip(i.tolist(), j.tolist(), sol.values[i, j].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,u\n")
        fh.write("".join(f"{x1[a]},{x2[b]},{u!r}\n" for a, b, u in lines))
