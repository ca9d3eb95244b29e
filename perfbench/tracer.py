"""Span tracing of robinopt's layers, installed from outside the program.

``Tracer.install`` replaces every public function of the layer modules,
plus the ``splu``, ``eigsh`` and ``cg`` names that ``fem`` binds, with a
wrapper that records a span (name, start, end, parent). Calls between
modules go through module attributes, and calls inside a module through its
globals, so both pass through the wrappers. ``uninstall`` restores the
originals. Spans stay in memory; ``aggregate`` turns them into the
per-layer metrics.
"""

import functools
import inspect
import time
from collections import Counter

LAYERS = ("geometry", "fem", "optimizer", "oracles", "specfun", "verify", "cli")

# per-layer metric name -> unit, in report order
METRICS = {
    "fem.splu.calls": "count",
    "fem.splu.s": "s",
    "fem.lu_solve.calls": "count",
    "fem.lu_solve.s": "s",
    "fem.robin_principal_eigenvalue.calls": "count",
    "fem.robin_principal_eigenvalue.s": "s",
    "fem.eigen.iterations": "count",
    "fem.eigsh.calls": "count",
    "fem.cg.calls": "count",
    "optimizer.optimize.calls": "count",
    "optimizer.optimize.s": "s",
    "optimizer.solve_s_of_mu.s": "s",
    "optimizer.eval_F.calls": "count",
    "optimizer.eval_F_prime.calls": "count",
    "optimizer.root_iterations": "count",
    "fem.solve_resolvent.calls": "count",
    "fem.solve_resolvent.s": "s",
    "fem.resolvent.cache_hits": "count",
    "fem.heat_content.s": "s",
    "fem.laplace_transform_check.s": "s",
    "fem.heat.steps": "count",
    "fem.estimate_dirichlet_e1.calls": "count",
    "fem.estimate_dirichlet_e1.s": "s",
    "geometry.generate_mesh.calls": "count",
    "geometry.generate_mesh.s": "s",
    "geometry.nodes": "count",
    "fem.assemble.s": "s",
    "oracles.predict_lambda.s": "s",
    "specfun.corner_coefficient.calls": "count",
    "specfun.corner_coefficient.s": "s",
    "verify.mesh_for.s": "s",
    "cli.main.s": "s",
}

# counts read off return values at the layer boundary
_RESULT_COUNTS = {
    "fem.robin_principal_eigenvalue": ("fem.eigen.iterations",
                                       lambda r: r.iterations),
    "optimizer.solve_s_of_mu": ("optimizer.root_iterations", lambda r: r[1]),
    "geometry.generate_mesh": ("geometry.nodes", lambda r: len(r.nodes)),
}

_HEAT_STEPPERS = ("fem.heat_content", "fem.laplace_transform_check")


class _TracedLU:
    """Stands in for a SuperLU object so its triangular solves are spans."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span("fem.lu_solve"):
            return self._lu.solve(rhs, *args, **kwargs)


class Tracer:
    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counts."""
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, name, fn, wrap_result=None):
        count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return wrap_result(result) if wrap_result else result

        return traced

    def install(self, package):
        """Wrap the layer functions of the imported ``package``."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                self._patch(module, attr, self._wrap(f"{layer}.{attr}", fn))
        fem = package.fem
        self._patch(fem, "splu", self._wrap(
            "fem.splu", fem.splu, lambda lu: _TracedLU(self, lu)))
        self._patch(fem, "eigsh", self._wrap("fem.eigsh", fem.eigsh))
        self._patch(fem, "cg", self._wrap("fem.cg", fem.cg))

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def aggregate(self):
        """Per-layer metrics of the spans and counts recorded since reset.

        A ``.s`` metric is the self time of its function: its spans' time
        minus the time of the timed spans nested in them. Spans of functions
        without a ``.s`` metric count toward the nearest timed span around
        them, so the quadrature inside ``specfun.corner_coefficient`` or a
        Lanczos fallback inside ``fem.robin_principal_eigenvalue`` stays
        with its caller.
        """
        timed = {m[:-2] for m in METRICS if m.endswith(".s")}
        calls = Counter()
        self_time = Counter()
        owner = []  # nearest timed span at or above each span, or -1
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            up = owner[parent] if parent >= 0 else -1
            owner.append(i if name in timed else up)
            if name in timed:
                self_time[name] += end - start
                if up >= 0:
                    self_time[self.spans[up][0]] -= end - start

        factorizing = {parent for name, _, _, parent in self.spans
                       if name in ("fem.splu", "fem.cg") and parent >= 0}
        hits = sum(1 for i, span in enumerate(self.spans)
                   if span[0] == "fem.solve_resolvent" and i not in factorizing)
        steps = sum(1 for name, _, _, parent in self.spans
                    if name == "fem.lu_solve" and parent >= 0
                    and self.spans[parent][0] in _HEAT_STEPPERS)

        out = {}
        for metric in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[base]
            elif kind == "s":
                out[metric] = self_time[base]
            else:
                out[metric] = self.counts[metric]
        out["fem.resolvent.cache_hits"] = hits
        out["fem.heat.steps"] = steps
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False
