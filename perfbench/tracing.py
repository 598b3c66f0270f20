"""Spans around calls into divmax's modules, installed from outside the package.

``install`` swaps each traced public function for a wrapper under every name
its callers look it up by (``divmax.ptas.decompose_fixed`` and
``divmax.fast_clique.decompose_fixed`` are separate bindings), and wraps the
``MetricInstance`` methods on the class.  Spans are kept in memory as
``(name, start, end, parent)`` and handed back by ``Tracer.dump``.
"""
from __future__ import annotations

import functools
import math
import threading
import time


class Tracer:
    """In-memory span recorder.

    A span opened on a helper thread (the brute-force oracle's pool) with no
    open span of its own takes the main thread's innermost open span as parent.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                               "parent": parent})
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(args, kwargs, result)`` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn, rows_counter: str):
        """A generator function whose span covers its consumption and whose
        busy time accrues on each ``next``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = self._open(name)
            self._stack().pop()  # the consumer, not the generator, runs in between
            busy = 0.0
            rows = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        row = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    rows += 1
                    yield row
            finally:
                self.spans[sid]["end"] = time.perf_counter()
                self.spans[sid]["busy"] = busy
                self.count(rows_counter, rows)
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _patch(modules, attr: str, wrapper) -> None:
    for mod in modules:
        if hasattr(mod, attr):
            setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every divmax module with spans."""
    import divmax
    from divmax import (baselines, bisection, cells, cli, diversity, fast_clique,
                        metric, ptas)

    def on_ptas(args, kwargs, sol):
        inst, k = args[0], args[2]
        tracer.count("ptas.guesses", sol.meta.get("guesses", 0))
        tracer.count("ptas.candidates", sol.meta.get("candidates", 0))
        tracer.count("ptas.subsets", math.comb(inst.n, k))

    def on_fast(args, kwargs, sol):
        for key, counter in (("candidates", "fast_clique.leaves"),
                             ("cells_searched", "fast_clique.cells_searched"),
                             ("search_complete", "fast_clique.complete_searches"),
                             ("greedy_floor_used", "fast_clique.greedy_floor_used")):
            tracer.count(counter, int(sol.meta.get(key, 0)))

    def on_bisection(args, kwargs, res):
        tracer.count("bisection.candidates", res.provenance.get("candidates", 0))
        tracer.count("bisection.cells_used", res.cells_used)

    solve = tracer.wrap("ptas.solve", ptas.solve, on_ptas)
    _patch([ptas, cli, divmax], "solve", solve)
    enum = tracer.wrap_generator("ptas.enumerate", ptas.enumerate_compositions,
                                 "ptas.enumerate_rows")
    _patch([ptas, divmax], "enumerate_compositions", enum)

    fast = tracer.wrap("fast_clique.solve", fast_clique.solve_fast, on_fast)
    _patch([fast_clique, cli, divmax], "solve_fast", fast)

    bis = tracer.wrap("bisection.solve", bisection.min_bisection, on_bisection)
    _patch([bisection, divmax], "min_bisection", bis)

    cli.load_instance = tracer.wrap("cli.load", cli.load_instance)

    evaluate = tracer.wrap("diversity.evaluate", diversity.evaluate)
    _patch([diversity, ptas, divmax], "evaluate", evaluate)
    cli.evaluate = tracer.wrap("cli.verify", evaluate)

    def on_brute(args, kwargs, sol):
        tracer.count("baselines.brute_subsets", math.comb(args[0].n, args[2]))

    brute = tracer.wrap("baselines.brute", baselines.brute_force_opt, on_brute)
    _patch([baselines, divmax], "brute_force_opt", brute)
    cli.brute_force_opt = tracer.wrap("cli.oracle", brute)
    baselines.batch_evaluate = tracer.wrap("diversity.batch_evaluate",
                                           baselines.batch_evaluate)

    greedy = tracer.wrap("baselines.greedy", baselines.greedy_clique)
    _patch([baselines, fast_clique, cli, divmax], "greedy_clique", greedy)

    def on_decompose(args, kwargs, decomp):
        tracer.count("cells.centers", len(decomp.centers))

    fixed = tracer.wrap("cells.decompose", cells.decompose_fixed, on_decompose)
    _patch([cells, ptas, fast_clique, divmax], "decompose_fixed", fixed)
    variable = tracer.wrap("cells.decompose", cells.decompose_variable, on_decompose)
    _patch([cells, bisection, divmax], "decompose_variable", variable)

    cls = metric.MetricInstance
    cls.dists_from = tracer.wrap("metric.dists_from", cls.dists_from)
    cls.pow_submatrix = tracer.wrap("metric.pow_submatrix", cls.pow_submatrix)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        hi = s["start"]
        for a, b in sorted(children.get(i, [])):
            a = max(a, hi)
            if b > a:
                covered += b - a
                hi = b
        out.append(s["end"] - s["start"] - covered)
    return out
