"""Span recorder for the traced benchmark run.

`Tracer.install()` rebinds the module attributes of the cgdyn functions that
make up each layer to wrappers that record one span per call: name, start,
end, parent span, thread id and op id. The package itself is not modified;
names that other modules imported with `from ... import` are rebound in those
modules too, and the state-vector route's `expm_multiply` is wrapped on
scipy's module because the route imports it at call time.

Spans stay in memory until `write()`. Hot helpers that run hundreds of
thousands of times per pass (`maxent._radius_sum`, `evolve._route`) only bump
a counter. Counters are per thread, because the sweep experiment runs
trajectories on a thread pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (sid, name, start, end, parent sid, thread id, op id, info)
        self.op = None
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counts = []
        self._lock = threading.Lock()
        self._main_stack = self._state()["stack"]
        self._saved = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "counts": defaultdict(int)}
            self._local.st = st
            with self._lock:
                self._thread_counts.append(st["counts"])
        return st

    def count(self, name, k=1):
        if self.active:
            self._state()["counts"][name] += k

    def counts(self):
        total = defaultdict(int)
        with self._lock:
            for c in self._thread_counts:
                for k, v in c.items():
                    total[k] += v
        return dict(total)

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, info=None):
        """Wrap fn so each call while active records a span called `name`.

        A span opened on a thread with no open span of its own (a sweep pool
        worker) takes the innermost open span of the tracing thread as parent.
        `info(args)` may attach one number to the span, such as a matrix size.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._state()["stack"]
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), tracer.op,
                     info(args) if info else None)
                )

        return wrapper

    def counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, obj, attr, new):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self):
        """Rebind every traced cgdyn function; `uninstall()` restores them."""
        import scipy.sparse.linalg as spla

        from cgdyn import channels, cli, coarse_grain, diagnostics, evolve, maxent, qcore

        def dim(args):
            return int(len(args[0]))

        def result_counter(fn, key):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                name = key(out)
                if name:
                    self.count(name)
                return out

            return wrapper

        def finite_solve(sol):
            return "maxent.finite_solves" if 0.0 < sol.lam < float("inf") else None

        def dyn_counter(fn):
            @functools.wraps(fn)
            def wrapper(dynamics, *args, **kwargs):
                def counted(rho, t):
                    self.count("diagnostics.dyn_calls")
                    return dynamics(rho, t)

                return fn(counted, *args, **kwargs)

            return wrapper

        self._rebind(maxent, "solve_lambda", self.span(
            "maxent.solve_lambda", result_counter(maxent.solve_lambda, finite_solve)))
        self._rebind(evolve, "_route", result_counter(evolve._route, lambda r: f"evolve.route.{r}.calls"))
        self._rebind(maxent, "_radius_sum", self.counter("maxent.radius_evals", maxent._radius_sum))
        plain = [
            (maxent, "assign", "maxent.assign"),
            (evolve, "trajectory", "evolve.trajectory"),
            (evolve, "build_hamiltonian", "evolve.build_hamiltonian"),
            (evolve, "_sparse_hamiltonian", "evolve.sparse_build"),
            (evolve, "_fast_coherences", "evolve.fast_step"),
            (spla, "expm_multiply", "evolve.krylov_step"),
            (qcore, "trace_norm", "qcore.trace_norm"),
            (qcore, "exclusive_products", "qcore.exclusive_products"),
            (qcore, "assert_density_matrix", "qcore.assert_density_matrix"),
            (cli, "main", "cli.main"),
        ]
        for mod, attr, name in plain:
            self._rebind(mod, attr, self.span(name, getattr(mod, attr)))
        for attr in ("eigensystem", "propagate"):
            self._rebind(qcore, attr, self.span(f"qcore.{attr}", getattr(qcore, attr), dim))

        apply_cg = self.span("coarse_grain.apply_cg", coarse_grain.apply_cg)
        for mod in (coarse_grain, evolve, diagnostics, cli):
            self._rebind(mod, "apply_cg", apply_cg)

        for mod, prefix in ((diagnostics, "diagnostics"), (channels, "channels")):
            for attr in _public_functions(mod):
                fn = getattr(mod, attr)
                if attr in ("linearity_probe", "semigroup_gap"):
                    fn = dyn_counter(fn)
                self._rebind(mod, attr, self.span(f"{prefix}.{attr}", fn))

    def uninstall(self):
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, thread, op, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, tid, op, info in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": tid, "op": op, "info": info,
                }) + "\n")


def _public_functions(mod):
    return sorted(
        name for name, obj in vars(mod).items()
        if callable(obj) and not name.startswith("_") and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == mod.__name__
    )


# ---------------------------------------------------------------------------
# Aggregation


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTable:
    """Per-name totals over a list of spans.

    A name ending in "." selects a whole layer. Self time is a span's duration
    minus the part of it covered by its children; children on pool threads
    overlap, so the union is subtracted. `seconds` sums only outermost spans,
    so a function calling itself or a sibling of its layer is counted once.
    """

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                self.children[s[4]].append(s)

    def _select(self, name):
        if name.endswith("."):
            return [s for s in self.spans if s[1].startswith(name)]
        return [s for s in self.spans if s[1] == name]

    def calls(self, name):
        return len(self._select(name))

    def _outermost(self, name):
        """Spans of `name` (or of a `layer.` prefix) whose parent is not one of them."""
        inside = (lambda n: n.startswith(name)) if name.endswith(".") else (lambda n: n == name)
        for s in self._select(name):
            parent = self.by_id.get(s[4])
            if parent is None or not inside(parent[1]):
                yield s

    def seconds(self, name):
        return sum(s[3] - s[2] for s in self._outermost(name))

    def by_op(self, name):
        """Outermost duration of `name` summed per op id."""
        out = defaultdict(float)
        for s in self._outermost(name):
            out[s[6]] += s[3] - s[2]
        return dict(out)

    def self_seconds(self, name):
        total = 0.0
        for s in self._select(name):
            kids = [(c[2], c[3]) for c in self.children.get(s[0], ())]
            total += (s[3] - s[2]) - _covered(kids, s[2], s[3])
        return total

    def info_max(self, name):
        vals = [s[7] for s in self._select(name) if s[7] is not None]
        return max(vals) if vals else 0

    def info_sum(self, name, fn):
        return sum(fn(s[7]) for s in self._select(name) if s[7] is not None)
