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
the top and lateral box sides.

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
drift, is solved whole.  Either way the residual is that of the full
system.

The LU factors are computed and stored in single precision, half the
bytes of double, and the solution is refined in double precision
(residuals in float64, each scaled by its max before the float32 solve)
until the residual is within the rounding bound of its own computation,
so the result carries double-precision accuracy.  A refinement that
stalls, which takes a condition number near 1/u_32, falls back to a
double-precision factor driven by the same loop (Buttari et al., ACM
TOMS 34(4), 2008; Higham, Accuracy and Stability of Numerical
Algorithms, ch. 12).  While SuperLU runs, the solve holds one copy of
the matrix besides the system's own: the permuted factor input, whose
float32 copy shares its index arrays.
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
    index: np.ndarray        # (nx1, nx2) int, -1 off the unknowns
    interior_ij: np.ndarray  # (N, 2)

    @classmethod
    def build(cls, profile: BoundaryProfile, h: float) -> "DiscreteDomain":
        mask = domain_mask(profile, h)
        interior = mask.cls == INTERIOR
        index = np.full(mask.cls.shape, -1, dtype=np.int64)
        ii, jj = np.nonzero(interior)
        index[ii, jj] = np.arange(ii.size)
        return cls(profile=profile, mask=mask, index=index,
                   interior_ij=np.column_stack((ii, jj)))

    @property
    def h(self) -> float:
        return self.mask.h

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
        """Off-diagonal sign and weak row dominance diagnostics."""
        coo = self.matrix.tocoo()
        off = coo.data[coo.row != coo.col]
        max_off = float(off.max()) if off.size else 0.0
        rowsum = np.asarray(self.matrix.sum(axis=1)).ravel()
        return {
            "offdiag_ok": bool(max_off <= tol),
            "max_offdiag": max_off,
            "rowsum_ok": bool(rowsum.min() >= -tol / self.dom.h**2),
            "min_rowsum": float(rowsum.min()),
        }


@dataclass(frozen=True)
class DiscreteSolution:
    values: np.ndarray       # grid-shaped; NaN outside the closed domain
    vec: np.ndarray
    residual_norm: float
    # triangular solves of the refinement (counting those with a stalled
    # float32 factor)
    iterations: int
    dom: DiscreteDomain
    method: str
    # entries SuperLU stores for the L and U factors (of the folded half
    # system when the system was mirror-folded); the same for a float32
    # as for a float64 factor.  Under the nested-dissection order this is
    # within 0.1% of nnz(L) + nnz(U) and, unlike that, needs no copy of
    # the factors.
    fill: int = 0


_A12_TOL = 1e-12   # slack of the monotonicity test |a12| <= min(a11, a22)


def discretize(op: EllipticOperator, dom: DiscreteDomain,
               bc_top_side: Callable,
               source: Optional[Callable] = None) -> LinearSystem:
    """Assemble the sparse system for L u = source on the masked grid.

    ``bc_top_side(x1, x2)`` supplies Dirichlet data on the box top and
    lateral sides; the curve carries u = 0.  Raises ``ValueError`` when a
    coefficient is not finite at a node and ``StencilMonotonicityError``
    when |a12| > min(a11, a22) at a node.

    Assembly is one pass over whole slot columns.  Each stencil
    coefficient is added straight into the column of its neighbor slot:
    the four axis neighbors, the node itself, and the diagonal pair of
    each sign that a12 takes somewhere.  A term that a node lacks adds 0
    there: the drift's other side, and the mixed term of the other sign,
    whose weight is 2 max(s a12, 0).  No entry gets more than two nonzero
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
    h = mask.h
    x1, x2 = mask.x1, mask.x2
    n2 = x2.size
    cls = mask.cls.ravel()
    ii = dom.interior_ij[:, 0]
    jj = dom.interior_ij[:, 1]
    N = ii.size
    flat = ii * n2 + jj          # each node's offset in the raveled grid

    X1 = x1[ii]
    X2 = x2[jj]
    a11, a22, a12 = (np.broadcast_to(np.asarray(v, dtype=float), (N,))
                     for v in op.a_grid(X1, X2))
    b1, b2 = (np.broadcast_to(np.asarray(v, dtype=float), (N,))
              for v in op.b_grid(X1, X2))
    del X1, X2

    for name, v in (("a11", a11), ("a22", a22), ("a12", a12), ("b1", b1),
                    ("b2", b2)):
        if not np.isfinite(v).all():
            k = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValueError(f"{name} = {v[k]:g} is not finite at "
                             f"({x1[ii[k]]:g}, {x2[jj[k]]:g})")
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

    def second_diff(weight, a_minus, a_plus, di, dj, end_minus, end_plus,
                    denom):
        """-(weight) d^2/ds^2 along the step (di, dj), whose squared
        length is denom; an arm that crosses the curve ends where u = 0
        and adds only to the diagonal.  A zero weight adds zeros.
        Temporaries are reused: at 10^5-10^6 nodes each fresh one costs
        about as much as the arithmetic."""
        w2 = 2.0 * weight
        t = a_minus * a_plus
        t *= denom
        np.divide(w2, t, out=t)
        diag[:] += t
        span = np.add(a_minus, a_plus, out=t)
        w2 *= -1.0
        c = a_minus * span
        c *= denom
        np.divide(w2, c, out=c)
        couple(-di, -dj, c, end_minus)
        np.multiply(a_plus, span, out=c)
        c *= denom
        np.divide(w2, c, out=c)
        couple(di, dj, c, end_plus)

    # ---- axis second differences with Shortley-Weller arms: fractions
    # are NaN on whole arms and in (0, 1] elsewhere, so fmin gives 1 on
    # the whole ones
    end_w, end_e, end_s, end_n = (ends(di, dj) for di, dj in
                                  ((-1, 0), (1, 0), (0, -1), (0, 1)))
    alpha_w, alpha_e, alpha_s = (f.ravel().take(flat) for f in
                                 (mask.frac_w, mask.frac_e, mask.frac_s))
    for alpha in (alpha_w, alpha_e, alpha_s):
        np.fmin(alpha, 1.0, out=alpha)
    alpha_n = 1.0   # the graph never crosses an upward arm
    second_diff(A1, alpha_w, alpha_e, 1, 0, end_w, end_e, h * h)
    second_diff(A2, alpha_s, alpha_n, 0, 1, end_s, end_n, h * h)
    del A1, A2

    # ---- mixed term: second difference along the diagonal (s, 1) with
    # s = sign(a12), spacing sqrt(2) h, on whole slot columns with weight
    # 2 max(s a12, 0), as the drift zeroes its other side.  The arm
    # toward (i+s, j+1) goes in as the minus side of the step (-s, -1),
    # so that at nodes whose two arms both end on box data its rhs update
    # comes first.
    for s in (1, -1):
        weight = np.maximum(s * a12, 0.0)
        if not np.any(weight > 0.0):
            continue
        weight *= 2.0
        second_diff(weight, arm_fraction(mask, dom.profile, ii, jj, s, 1),
                    arm_fraction(mask, dom.profile, ii, jj, -s, -1), -s, -1,
                    ends(s, 1), ends(-s, -1), 2.0 * h * h)
        del weight
    del a12

    # ---- upwinded drift: a positive component takes the backward
    # difference, (u_P - u_W)/(alpha_w h) along x1, a negative one the
    # forward difference, (u_E - u_P)/(alpha_e h).  c is the neighbor's
    # coefficient; the diagonal takes its negative
    for b, back, forward in (
            (b1, (-1, 0, alpha_w, end_w), (1, 0, alpha_e, end_e)),
            (b2, (0, -1, alpha_s, end_s), (0, 1, alpha_n, end_n))):
        if not np.any(np.abs(b) > 0.0):
            continue
        up = b > 0.0
        for on, sign, (di, dj, alpha, end) in ((up, 1.0, back),
                                               (~up, -1.0, forward)):
            c = b / (alpha * h)
            c[~on] = 0.0
            c *= -sign
            diag -= c
            couple(di, dj, c, end)
            del c
    del b1, b2, alpha_w, alpha_e, alpha_s, end_w, end_e, end_s, end_n, diag

    if source is not None:
        rhs += np.asarray(source(x1[ii], x2[jj]), dtype=float)

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
    index = dom.index.ravel()
    cols = np.empty((N, S), dtype=itype)
    for s, (di, dj) in enumerate(slots):
        cols[:, s] = (np.arange(dj, N + dj) if di == 0
                      else index.take(flat + (di * n2 + dj)))
    matrix = sp.csr_matrix((V.reshape(-1), cols.reshape(-1),
                            np.arange(0, N * S + 1, S, dtype=itype)),
                           shape=(N, N))
    del V, cols
    matrix.eliminate_zeros()
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
    rep = np.arange(-first, ii.size - first)
    rep[:first] = rep[m[:first]]
    return first, rep


def _factor_input(system: LinearSystem):
    """``(A, b, unfold)``: the CSC matrix SuperLU factorizes, its rhs, and
    the map ``x = y[unfold]`` from its solution to that of ``system``.

    The rows from ``first`` on, all of them without a fold and the kept
    half with one (``_mirror_fold``), are one contiguous range of the
    CSR arrays.  They go in ``_nested_dissection`` order, and one COO to
    CSC conversion puts every entry of a kept row at ``(pos[row],
    pos[rep[col]])``, ``pos`` the int32 elimination position, summing the
    entries that the fold merges."""
    A = system.matrix.tocsr()
    n = A.shape[0]
    first, rep = _mirror_fold(system) or (0, np.arange(n))
    p = _nested_dissection(system.dom.interior_ij[first:])
    pos = np.empty(p.size, dtype=np.int32)
    pos[p] = np.arange(p.size, dtype=np.int32)
    unfold = pos[rep]
    start = A.indptr[first]
    rows = np.repeat(pos, np.diff(A.indptr[first:]))
    A = sp.csc_matrix((A.data[start:], (rows, unfold[A.indices[start:]])),
                      shape=(p.size, p.size))
    return A, system.rhs[first:][p], unfold


_MAX_SOLVES = 10   # triangular solves per factor before it counts as stalled


def _refined_lu_solve(A: sp.csc_matrix, b: np.ndarray):
    """Solve A x = b by a float32 LU of the CSC matrix A, refined in float64.

    ``A`` comes in its elimination order: SuperLU factorizes it as it is
    (``permc_spec="NATURAL"``).  A is put in canonical form in place,
    which SuperLU requires and which changes no matrix-vector product,
    so that the float32 copy handed to SuperLU can share A's index
    arrays; so does |A|, which the stop test needs.
    Starting from x = 0, each step solves for the correction d with the
    factor, the residual scaled by max|r| first so that no entry
    underflows in float32, adds d to x in float64 and recomputes
    r = b - A x in float64.  The loop stops once x has reached the
    double-precision level: every |r_i| lies within the rounding bound
    gamma_{m+1} (|b| + |A| |x|)_i of a computed residual, m the most
    entries in a row (Higham, ch. 12), so the residual holds no more
    information for a correction to act on.  A correction that fails to
    halve, or ``_MAX_SOLVES`` solves short of that level, means
    kappa(A) u_32 is not small; the float32 factor is then freed and the
    same loop runs on a float64 factor, whose stall only means that the
    refinement has nothing left to gain.  A zero ``b`` gives x = 0
    without a solve.

    Returns ``(x, SuperLU.nnz of the last factor, triangular solves)``.
    """
    A.sum_duplicates()   # in place: SuperLU needs canonical indices
    m = int(np.bincount(A.indices, minlength=b.size).max()) + 1
    u = np.finfo(np.float64).eps / 2.0
    gamma = m * u / (1.0 - m * u)
    abs_b = np.abs(b)
    abs_A = sp.csc_matrix((np.abs(A.data), A.indices, A.indptr),
                          shape=A.shape)

    def at_rounding_level(r, x):
        return bool(np.all(np.abs(r) <= gamma * (abs_b + abs_A @ np.abs(x))))

    solves = 0
    for dtype in (np.float32, np.float64):
        lu = spla.splu(sp.csc_matrix((A.data.astype(dtype, copy=False),
                                      A.indices, A.indptr), shape=A.shape),
                       permc_spec="NATURAL")
        fill = int(lu.nnz)
        x = np.zeros(b.size)
        r, last = b, np.inf
        done = at_rounding_level(r, x)
        for _ in range(_MAX_SOLVES):
            if done:
                break
            scale = np.abs(r).max()
            d = lu.solve((r / scale).astype(dtype)).astype(np.float64) * scale
            solves += 1
            x += d
            r = b - A @ x
            done = at_rounding_level(r, x)
            size = np.abs(d).max()
            if not size <= 0.5 * last:   # stalled, or not finite
                break
            last = size
        if done:
            break
        del lu   # free the stalled factor before the next one
    return x, fill, solves


def solve(system: LinearSystem) -> DiscreteSolution:
    """Solve the assembled system by a sparse LU factorization.

    The path is the one the module docstring describes: the mirror fold
    when the system allows it (``_mirror_fold``), the nested-dissection
    order (``_factor_input``), and a float32 LU refined in float64, with
    a float64 factor should the refinement stall (``_refined_lu_solve``).
    The order only permutes the elimination: the unknown numbering,
    ``system.matrix`` and ``vec`` are unchanged.  A factor too large for
    memory raises ``MemoryError``.  Deterministic for fixed inputs."""
    b = system.rhs
    dom = system.dom
    ij = dom.interior_ij
    A, b_f, unfold = _factor_input(system)
    y, fill, iterations = _refined_lu_solve(A, b_f)
    del A
    x = y[unfold]
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
    lines with a defined value (interior or box top)."""
    dom = sol.dom
    mask = dom.mask
    h = mask.h
    col = mask.center_col
    out = np.empty(len(heights))
    for m, x2 in enumerate(heights):
        j = int(round(x2 / h))
        if abs(j * h - x2) > 1e-9 * max(1.0, abs(x2)) or j <= 0 \
                or j >= mask.x2.size:
            raise MisalignedHeightError(f"height {x2} is not a grid line")
        v = sol.values[col, j]
        if not np.isfinite(v):
            raise MisalignedHeightError(f"no solution value at (0, {x2})")
        out[m] = v / mask.x2[j]
    return out


_NOISE_FLOOR_CELLS = 2


def oscillation(sol: DiscreteSolution, profile: BoundaryProfile,
                r: float) -> float:
    """max - min of u(x)/x2 over interior nodes of the cylinder
    {|x1| < r, 0 < x2 < r}, excluding rows x2 < 2h where the quotient
    amplifies discretization noise."""
    if r > profile.R0 + 1e-12:
        raise ValueError(f"r = {r} exceeds the patch radius {profile.R0}")
    mask = sol.dom.mask
    # the grid lines ascend, so the cylinder is an index window:
    # -r < x1 < r and noise floor <= x2 < r
    i0 = np.searchsorted(mask.x1, -r, side="right")
    i1 = np.searchsorted(mask.x1, r)
    j0 = np.searchsorted(mask.x2, _NOISE_FLOOR_CELLS * mask.h - 1e-15)
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


def convergence_study(op: EllipticOperator, profile: BoundaryProfile,
                      bc: Callable, h_list: Sequence[float],
                      exact: Optional[Callable] = None) -> ConvergenceReport:
    """Observed order from max-norm errors across grids.

    With ``exact`` the error is max |u_h - exact| over interior nodes;
    otherwise each grid is compared against its once-refined solve
    (Richardson-style difference).  Errors below 1e-9 everywhere are
    reported as exact reproduction (order undefined)."""
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
            fine = sol2.values[2 * ii, 2 * jj]
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
