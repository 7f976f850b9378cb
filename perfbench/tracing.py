"""Span recording around the public functions of each hopflab layer.

``Tracer.installed()`` swaps span-recording wrappers into the module
attributes that the pipeline looks up at call time and restores the
originals on exit.  The program itself is not modified: every span is
recorded from here, around a call into a layer.

A span is ``[step, name, parent, start_ns, end_ns]``.  ``step`` numbers
the benchmark step (one call into the program) that caused it, so spans of
one step share an id; ``parent`` is the index of the enclosing span, -1 for
the step's root span.  A layer's self time is its spans' durations minus
the part covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg as spla

from hopflab import convex_geometry, decay_analysis, fd_solver

STEP = "bench.step"

# span name -> per-layer self-time metric
LAYER_OF = {
    "fd_solver.DiscreteDomain.build": "convex_geometry.mask_s",
    "convex_geometry.domain_mask": "convex_geometry.mask_s",
    "convex_geometry.delta": "convex_geometry.delta_s",
    "elliptic_operator.a_grid": "elliptic_operator.coeff_s",
    "elliptic_operator.b_grid": "elliptic_operator.coeff_s",
    "fd_solver.discretize": "fd_solver.discretize_s",
    "fd_solver.solve": "fd_solver.solve_s",
    "fd_solver.oscillation": "fd_solver.extract_s",
    "fd_solver.hopf_trace": "fd_solver.extract_s",
    "decay_analysis.contrast_suite": "decay_analysis.self_s",
    "decay_analysis.run_experiment": "decay_analysis.self_s",
    "decay_analysis.product_bound": "decay_analysis.product_s",
    "modulus.dini_classify": "modulus.dini_classify_s",
    STEP: "tracing.unattributed_s",
}
TIME_METRICS = sorted(set(LAYER_OF.values()))
COUNT_METRICS = ("convex_geometry.crossings", "convex_geometry.delta_calls",
                 "fd_solver.mixed_nodes", "fd_solver.nnz",
                 "fd_solver.unknowns", "fd_solver.iterations")


class Tracer:
    """In-memory span recorder plus the counts taken at the same calls."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._step = -1
        self._results: list = []   # (span name, return value) of this round
        self.lu_fill = None

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [self._step, name, parent, time.perf_counter_ns(), 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                self._stack.pop()
            self._results.append((name, result))
            return result
        return wrapper

    def _discretize(self, fn):
        # the operator's coefficient callables are timed where assembly
        # calls them, whoever built the operator
        def with_traced_operator(op, *args, **kwargs):
            op = dataclasses.replace(
                op, a_grid=self._wrap("elliptic_operator.a_grid", op.a_grid),
                b_grid=self._wrap("elliptic_operator.b_grid", op.b_grid))
            return fn(op, *args, **kwargs)
        return self._wrap("fd_solver.discretize", with_traced_operator)

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of one round."""
        build = fd_solver.DiscreteDomain.__dict__["build"]
        patches = [
            (fd_solver.DiscreteDomain, "build", classmethod(self._wrap(
                "fd_solver.DiscreteDomain.build", build.__func__))),
            (fd_solver, "domain_mask", self._wrap(
                "convex_geometry.domain_mask", fd_solver.domain_mask)),
            (fd_solver, "discretize", self._discretize(fd_solver.discretize)),
            (fd_solver, "solve", self._wrap("fd_solver.solve",
                                            fd_solver.solve)),
            (fd_solver, "oscillation", self._wrap("fd_solver.oscillation",
                                                  fd_solver.oscillation)),
            (fd_solver, "hopf_trace", self._wrap("fd_solver.hopf_trace",
                                                 fd_solver.hopf_trace)),
            (convex_geometry, "delta", self._wrap("convex_geometry.delta",
                                                  convex_geometry.delta)),
            (decay_analysis, "dini_classify", self._wrap(
                "modulus.dini_classify", decay_analysis.dini_classify)),
            (decay_analysis, "product_bound", self._wrap(
                "decay_analysis.product_bound", decay_analysis.product_bound)),
            (decay_analysis, "run_experiment", self._wrap(
                "decay_analysis.run_experiment",
                decay_analysis.run_experiment)),
            (decay_analysis, "contrast_suite", self._wrap(
                "decay_analysis.contrast_suite",
                decay_analysis.contrast_suite)),
        ]
        originals = [(obj, attr, obj.__dict__[attr])
                     for obj, attr, _ in patches]
        self._results = []
        try:
            for obj, attr, wrapper in patches:
                setattr(obj, attr, wrapper)
            yield
        finally:
            for obj, attr, original in originals:
                setattr(obj, attr, original)

    def step(self, fn):
        """Run one benchmark step under a root span with a fresh step id."""
        self._step += 1
        return self._wrap(STEP, fn)()

    def round_layers(self, first: int) -> dict:
        """Self seconds per layer metric over the spans from ``first`` on."""
        spans = self.spans[first:]
        covered = [0] * len(spans)
        for span in spans:
            if span[2] >= first:
                covered[span[2] - first] += span[4] - span[3]
        out = defaultdict(float)
        for span, child in zip(spans, covered):
            out[LAYER_OF[span[1]]] += (span[4] - span[3] - child) * 1e-9
        return {name: out[name] for name in TIME_METRICS}

    def round_counts(self, with_lu_fill: bool) -> dict:
        """Counts of the last round, read off the values the layers
        returned.  With ``with_lu_fill`` the LU fill of the round is
        computed here, outside every span, into ``self.lu_fill``: nnz(L) +
        nnz(U) of a COLAMD-ordered sparse LU of each assembled matrix, as
        ``fd_solver.solve`` factorizes today."""
        counts = dict.fromkeys(COUNT_METRICS, 0)
        residual = 0.0
        lu_fill = 0
        for name, result in self._results:
            if name == "convex_geometry.domain_mask":
                counts["convex_geometry.crossings"] += int(
                    np.count_nonzero(~np.isnan(result.frac_w))
                    + np.count_nonzero(~np.isnan(result.frac_e)))
            elif name == "convex_geometry.delta":
                counts["convex_geometry.delta_calls"] += 1
            elif name == "elliptic_operator.a_grid":
                counts["fd_solver.mixed_nodes"] += int(
                    np.count_nonzero(np.asarray(result[2])))
            elif name == "fd_solver.discretize":
                counts["fd_solver.nnz"] += int(result.matrix.nnz)
                counts["fd_solver.unknowns"] += int(result.matrix.shape[0])
                if with_lu_fill:
                    lu = spla.splu(result.matrix.tocsc(), permc_spec="COLAMD")
                    lu_fill += int(lu.L.nnz + lu.U.nnz)
                    del lu
            elif name == "fd_solver.solve":
                counts["fd_solver.iterations"] += int(result.iterations)
                residual = max(residual, float(result.residual_norm))
        self._results = []
        if with_lu_fill:
            self.lu_fill = lu_fill
        counts["fd_solver.residual"] = residual
        return counts

    def dump(self, path) -> None:
        """Write every recorded span as JSON: a name table and rows of
        [step, name index, parent, start_ns, end_ns]."""
        names = sorted(LAYER_OF)
        index = {name: i for i, name in enumerate(names)}
        rows = [[s[0], index[s[1]], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["step", "name", "parent", "start_ns",
                                   "end_ns"],
                       "names": names, "spans": rows}, fh,
                      separators=(",", ":"))
