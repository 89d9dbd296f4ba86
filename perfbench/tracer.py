"""Spans around tasd's public functions, attached from outside the package.

``Tracer.install()`` replaces each function named in ``TARGETS`` with a
timing wrapper at every place a loaded ``tasd`` module holds it. The
package binds names with ``from .x import y``, so ``search``,
``workload``, ``approxmm`` and ``cli`` each keep their own reference to
``decompose``, ``relative_error`` and the rest; patching only the
defining module would miss their calls. The kernel dispatchers are
reached as ``_kernels.<name>`` attributes, so the same sweep patches them
in their one home. ``tasd.cli.main`` records one span per command, named
``cli.<subcommand>``. ``map_ordered`` gets a wrapper of its own that
hands the calling span to the worker threads by wrapping the ``fn`` it
is given, so spans opened inside a worker keep their parent.

Spans stay in memory (``Tracer.spans``) until the caller takes them.
A span's self time is its duration minus the union of its children's
intervals: children of ``map_ordered`` run on several workers at once and
overlap, so summing them would over-count.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    info: object = None

    @property
    def dur(self) -> float:
        return self.end - self.start


# notes: (args, kwargs, result) -> the span's info


def _matmul_flops(args, kwargs, result):
    a, b = args[0], args[1]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _trace_length(args, kwargs, result):
    return len(kwargs.get("trace") or ())


def _scored_pairs(args, kwargs, result):
    assignment = args[2] if len(args) > 2 else kwargs["assignment"]
    return tuple(
        (layer_id, cfg.canonical())
        for layer_id, cfg in assignment.items()
        if not cfg.is_dense
    )


# (module, function, span name, note)
TARGETS = (
    ("tasd._kernels", "extract_term_blocks", "kernels.extract", None),
    ("tasd._kernels", "matmul_into", "kernels.matmul", _matmul_flops),
    ("tasd.matrix", "load_matrix", "matrix.load_matrix", None),
    ("tasd.matrix", "save_matrix", "matrix.save_matrix", _saved_bytes),
    ("tasd.matrix", "decode", "matrix.decode", None),
    ("tasd.decomp", "decompose", "decomp.decompose", None),
    ("tasd.decomp", "drop_metrics", "decomp.drop_metrics", None),
    ("tasd.decomp", "random_matrix", "decomp.random_matrix", None),
    ("tasd.decomp", "sweep_synthetic", "decomp.sweep_synthetic", None),
    ("tasd.approxmm", "matmul", "approxmm.matmul", None),
    ("tasd.approxmm", "relative_error", "approxmm.relative_error", None),
    ("tasd.approxmm", "error_sweep", "approxmm.error_sweep", None),
    ("tasd.search", "ranked_pairs", "search.ranked_pairs", None),
    ("tasd.search", "layer_wise_greedy", "search.layer_wise_greedy", _trace_length),
    ("tasd.search", "network_wise_search", "search.network_wise_search", _trace_length),
    ("tasd.workload", "load_workload", "workload.load_workload", None),
    ("tasd.hwmodel", "workload_cost", "hwmodel.workload_cost", None),
    ("tasd.hwmodel", "gemm_cost", "hwmodel.gemm_cost", None),
)
ORACLE_MODULE = "tasd.workload"
ORACLE_SPAN = "workload.oracle"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name, fn, args=(), kwargs=None, note=None):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        kwargs = kwargs or {}
        stack = self._stack()
        span = Span(next(self._ids), stack[-1] if stack else None, name, 0.0, 0.0)
        stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if note is not None:
            span.info = note(args, kwargs, result)
        return result

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.run(name, fn, args, kwargs, note)

        return traced

    def _wrap_map(self, fn):
        tracer = self
        resolve = sys.modules["tasd._parallel"].resolve_workers

        def adopt(parent, task_fn):
            def task(item):
                stack = tracer._stack()
                foreign = not stack or stack[-1] != parent
                if foreign:
                    stack.append(parent)
                try:
                    return tracer.run("parallel.task", task_fn, (item,))
                finally:
                    if foreign:
                        stack.pop()

            return task

        @functools.wraps(fn)
        def traced(task_fn, items, workers=None):
            def body():
                return fn(adopt(tracer._stack()[-1], task_fn), items, workers)

            return tracer.run(
                "parallel.map_ordered", body, note=lambda *_: resolve(workers)
            )

        return traced

    def install(self) -> None:
        """Patch every import site of the targets in the loaded tasd modules."""
        replace = {}
        for module, attr, name, note in TARGETS:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            replace[id(fn)] = (fn, self._wrap(name, fn, note))
        mapper = getattr(sys.modules.get("tasd._parallel"), "map_ordered", None)
        if mapper is None:
            self.missing.append("tasd._parallel.map_ordered")
        else:
            replace[id(mapper)] = (mapper, self._wrap_map(mapper))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tasd" or mod_name.startswith("tasd.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, hit[1])

        cli = sys.modules["tasd.cli"]
        main = cli.main
        self._undo.append((cli, "main", main))

        @functools.wraps(main)
        def traced_main(argv=None):
            command = next((a for a in argv or () if not a.startswith("-")), "none")
            return self.run(f"cli.{command}", main, (argv,))

        cli.main = traced_main

        oracles = [
            cls
            for cls in vars(sys.modules[ORACLE_MODULE]).values()
            if inspect.isclass(cls)
            and cls.__module__ == ORACLE_MODULE
            and "evaluate" in vars(cls)
        ]
        if not oracles:
            self.missing.append(f"{ORACLE_MODULE}.*.evaluate")
        for cls in oracles:
            fn = vars(cls)["evaluate"]
            self._undo.append((cls, "evaluate", fn))
            setattr(cls, "evaluate", self._wrap(ORACLE_SPAN, fn, _scored_pairs))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# ---------------------------------------------------------------------------
# span arithmetic


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


class SpanIndex:
    """Self times and ancestry over one batch of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self._kids = defaultdict(list)
        self._named = defaultdict(list)
        for s in spans:
            self._named[s.name].append(s)
            if s.parent is not None:
                self._kids[s.parent].append((s.start, s.end))

    def named(self, name: str) -> list[Span]:
        return self._named.get(name, [])

    def self_time(self, span: Span) -> float:
        return span.dur - covered(span.start, span.end, self._kids.get(span.sid, ()))

    def ancestor(self, span: Span, name: str) -> Span | None:
        """The nearest enclosing span called ``name``, if any."""
        parent = self.by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = self.by_id.get(parent.parent)
        return parent
