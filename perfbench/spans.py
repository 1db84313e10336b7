"""Outside-in tracer: spans around the package's public functions.

The tracer rebinds functions and methods of the gpkrylov modules inside
the benchmark process only, while ``installed`` is active, and restores
the originals on exit; nothing under ``src/`` changes.  Each call becomes
a span (name, start, end, parent, solve id) kept in flat in-memory arrays
and written out with ``save`` when the run ends.  A span's self time is
its duration minus the durations of its direct children, which nest
because the program is single-threaded.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

from gpkrylov import baselines, convergence, gpbilq, gpqmr, linop

# (owner, attribute, layer).  Module-level functions are rebound in the
# module that calls them, since the solvers look them up there.
TARGETS = [
    (linop.Operator, "apply", "linop"),
    (linop.Operator, "apply_transpose", "linop"),
    (gpbilq, "reduction_step", "reduction"),
    (gpqmr, "reduction_step", "reduction"),
    (gpbilq, "lq_step", "window"),
    (gpbilq, "substitute_step", "window"),
    (gpbilq, "transfer_scalars", "window"),
    (gpqmr, "qr_step", "window"),
    (gpqmr, "rotate_rhs", "window"),
    (gpbilq, "rotation_block", "rotblock"),
    (gpbilq.BiLQState, "advance", "advance"),
    (gpqmr.QMRState, "advance", "advance"),
    (gpbilq.BiLQState, "estimate_residual_l", "estimate"),
    (gpbilq.BiLQState, "estimate_residual_c", "estimate"),
    (gpbilq.BiLQState, "attempt_transfer", "transfer"),
    (convergence.ConvergenceRecord, "append", "record"),
    (baselines.HessenbergProcessState, "step", "hessenberg"),
]

SOLVE = "solve"  # span name of one public solve call; its self time is the driver


def _qualname(owner, attr):
    return f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"


class Tracer:
    """Span recorder.  ``names[i]`` is the qualified name of span name id i."""

    def __init__(self):
        self.names: list[str] = [SOLVE]
        self.layers: list[str] = ["driver"]
        self.name_id = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._solve_id = -1
        self.solve_methods: list[str] = []

    def _intern(self, name, layer):
        if name not in self.names:
            self.names.append(name)
            self.layers.append(layer)
        return self.names.index(name)

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.solve.append(self._solve_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, fn, name, layer):
        nid = self._intern(name, layer)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Rebind every target to a traced wrapper; restore on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, layer in targets:
                setattr(owner, attr,
                        self.wrap(owner.__dict__[attr], _qualname(owner, attr), layer))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    def run_solve(self, method: str, fn, *args, **kwargs):
        """Call one solve as the root span of a new solve id."""
        self._solve_id = len(self.solve_methods)
        self.solve_methods.append(method)
        traced = self.wrap(fn, SOLVE, "driver")
        try:
            return traced(*args, **kwargs)
        finally:
            self._solve_id = -1

    def arrays(self):
        """The spans as numpy arrays (name_id, parent, solve, start, end)."""
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.solve, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def save(self, path) -> None:
        name_id, parent, solve, start, end = self.arrays()
        np.savez_compressed(path, name_id=name_id, parent=parent, solve=solve,
                            start=start, end=end, names=np.array(self.names),
                            layers=np.array(self.layers),
                            solve_methods=np.array(self.solve_methods))


def self_times(parent, start, end):
    """Duration minus the summed durations of each span's direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def layer_totals(tracer: Tracer):
    """{method: {layer: (self seconds, span count)}} over spans inside solves."""
    name_id, parent, solve, start, end = tracer.arrays()
    own = self_times(parent, start, end)
    layers = np.array(tracer.layers)
    methods = np.array(tracer.solve_methods)
    inside = solve >= 0
    out: dict[str, dict[str, tuple[float, int]]] = {}
    if not inside.any():
        return out
    for method in np.unique(methods):
        sel = inside & (methods[np.where(inside, solve, 0)] == method)
        span_layer = layers[name_id[sel]]
        for layer in np.unique(span_layer):
            hit = span_layer == layer
            out.setdefault(str(method), {})[str(layer)] = (
                float(own[sel][hit].sum()), int(hit.sum()))
    return out
