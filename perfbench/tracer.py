"""Span tracer for the per-layer breakdown.

The layers are the modules of `dirac_edge`.  While installed, the tracer
replaces each public function of a layer (and the private grid builders
`kernel_ops._dense_kernel_matrix` and `magnetic._dressed_grid`) with a
wrapper, in every module that holds the function under some name.  Modules
such as `kernel_ops`, `magnetic` and `cli` import kernel functions by name,
so each of those copies is replaced too.  The library itself is not edited.

Each call records a span: name, start, end and the span that was open when
it began.  A call made on a worker thread with no span of its own open is
attributed to the innermost span open on the thread that installed the
tracer (the CLI's thread pool waits inside `cli.run`).  Spans of one
benchmark operation share its id.  Spans stay in memory until the run
writes them out.
"""

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("core", "closed_form", "edge_kernel", "kernel_ops", "magnetic",
          "hs_calculus", "fiber", "cli")
PRIVATE = {"kernel_ops": ("_dense_kernel_matrix",), "magnetic": ("_dressed_grid",)}

BATCH = {"edge_kernel.halfplane_kernel_batch", "edge_kernel.edge_F_batch"}
SCALAR = {"edge_kernel.halfplane_kernel", "edge_kernel.edge_F"}
DENSE = "kernel_ops._dense_kernel_matrix"


def _batch_points(qual, args, kwargs):
    if qual == "edge_kernel.halfplane_kernel_batch":
        X = args[2] if len(args) > 2 else kwargs["X"]
        return int(np.prod(np.shape(X)[:-1]))
    S = args[0] if args else kwargs["S"]
    T = args[1] if len(args) > 1 else kwargs["T"]
    return int(np.broadcast(np.asarray(S), np.asarray(T)).size)


class Span:
    __slots__ = ("id", "op", "name", "parent", "start", "end", "points", "grid")

    def __init__(self, sid, op, name, parent):
        self.id = sid
        self.op = op
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.points = 0
        self.grid = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def as_dict(self):
        return {"id": self.id, "op": self.op, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "points": self.points}


class Tracer:
    def __init__(self):
        package = importlib.import_module("dirac_edge")
        layer_mods = {name: importlib.import_module(f"dirac_edge.{name}") for name in LAYERS}
        self._modules = [package] + list(layer_mods.values())
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack = []
        self._patches = []
        self._wrappers = {}
        for layer, mod in layer_mods.items():
            names = getattr(mod, "__all__", None) or [
                n for n, v in vars(mod).items()
                if inspect.isfunction(v) and v.__module__ == mod.__name__ and not n.startswith("_")
            ]
            for name in list(names) + list(PRIVATE.get(layer, ())):
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qual, fn):
        tracer = self
        counts_points = qual in BATCH
        keeps_grid = qual == DENSE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            home = tracer._home_stack
            parent = stack[-1] if stack else (home[-1] if home else None)
            span = Span(next(tracer._ids), tracer.op, qual, parent)
            if counts_points:
                span.points = _batch_points(qual, args, kwargs)
            if keeps_grid:
                span.grid = (np.array(args[2], dtype=float), float(args[3]))
            tracer.spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        self._home_stack = self._stack()
        for mod in self._modules:
            for attr, val in list(vars(mod).items()):
                entry = self._wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self._patches:
            setattr(mod, attr, val)
        self._patches = []

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.as_dict()) + "\n")


def _distinct_triples(Y, h):
    """Distinct (x1 - y1, x2, y2) over all grid pairs, on the grid's lattice."""
    i1 = np.rint((Y[:, 0] - Y[:, 0].min()) / h).astype(np.int64)
    _, i2 = np.unique(Y[:, 1], return_inverse=True)
    n1, n2 = int(i1.max()) + 1, int(i2.max()) + 1
    d1 = (i1[:, None] - i1[None, :]) + (n1 - 1)
    key = (d1 * n2 + i2[:, None]) * n2 + i2[None, :]
    return int(np.unique(key).size)


def breakdown(spans):
    """Per-layer metrics of one round from its spans.

    A span's self time is its duration minus its child spans' durations
    (children never overlap: runs pin the CLI to one worker thread).  Time
    metrics sum self times over the spans named.
    """
    children = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    self_t = {s.id: (s.end - s.start) - sum(c.end - c.start for c in children[s.id])
              for s in spans}

    def total(pred):
        return float(sum(self_t[s.id] for s in spans if pred(s)))

    def outermost(names):
        out = []
        for s in spans:
            if s.name not in names:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name not in names:
                p = by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out

    points = sum(s.points for s in outermost(BATCH))
    batch_s = total(lambda s: s.name in BATCH)
    distinct = evaluated = 0
    for d in (s for s in spans if s.name == DENSE):
        distinct += _distinct_triples(*d.grid)
        evaluated += sum(c.points for c in children[d.id] if c.name in BATCH)
    return {
        "edge_kernel.batch_points": (points, "count"),
        "edge_kernel.batch_s": (batch_s, "s"),
        "edge_kernel.us_per_point": (1e6 * batch_s / points if points else 0.0, "us"),
        "edge_kernel.scalar_calls": (len(outermost(SCALAR)), "count"),
        "edge_kernel.scalar_s": (total(lambda s: s.name in SCALAR), "s"),
        "closed_form.bulk_kernel_s": (total(lambda s: s.name == "closed_form.bulk_plane_kernel"), "s"),
        "core.self_s": (total(lambda s: s.layer == "core"), "s"),
        "kernel_ops.compose2_s": (total(lambda s: s.name == "kernel_ops.compose2"), "s"),
        "kernel_ops.compose3_s": (total(lambda s: s.name == "kernel_ops.compose3"), "s"),
        "kernel_ops.dense_matrix_s": (total(lambda s: s.name == DENSE), "s"),
        "kernel_ops.dense_useful_ratio": (distinct / evaluated if evaluated else 0.0, "ratio"),
        "magnetic.schur_s": (total(lambda s: s.name == "magnetic.schur_norm_Tb"), "s"),
        "magnetic.neumann_s": (total(lambda s: s.layer == "magnetic"
                                     and s.name != "magnetic.schur_norm_Tb"), "s"),
        "closed_form.apply_fiber_resolvent_s": (
            total(lambda s: s.name == "closed_form.apply_fiber_resolvent"), "s"),
        "fiber.dispersion_s": (total(lambda s: s.name == "fiber.dispersion_curves"), "s"),
        "fiber.fibers_built": (sum(s.name == "fiber.discretize_fiber" for s in spans), "count"),
        "fiber.ids_s": (total(lambda s: s.name in ("fiber.ids_derivative", "fiber.bulk_ids")), "s"),
        "fiber.edge_density_s": (total(lambda s: s.name == "fiber.edge_density_rho"), "s"),
        "hs_calculus.hs_apply_s": (total(lambda s: s.layer == "hs_calculus"), "s"),
        "cli.self_s": (total(lambda s: s.layer == "cli"), "s"),
    }
