"""Span tracing of sq_toolkit's public functions, done from outside the package.

``Tracer.install`` replaces every public function of the package's modules
with a recording wrapper, both on the module that defines it and on every
module that imported it by name (``scattering.sq_search``,
``verify.measurement_entropy``, ...), so calls are caught whichever name
the caller used. ``uninstall`` puts the originals back. Spans stay in memory
as parallel typed arrays and are summarised or written out after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from statistics import median
from time import perf_counter_ns

PACKAGE = "sq_toolkit"
MODULES = ("linalg", "schemes", "observables", "sq", "scattering", "verify", "cli")
ROOT = -1  # parent id of a span that no other span caused


def public_functions():
    """(qualified name, function) for every public function the package defines."""
    found = []
    for short in MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found.append((f"{short}.{name}", obj))
    return found


def span_cost_s() -> float:
    """Seconds that one span adds to a call, measured in this process.

    A wrapped no-op is timed against the bare no-op, 20000 calls in each of
    five rounds, and the median round is returned. A run's span count times
    this cost estimates its traced-minus-untraced time. Timing the ops
    twice, traced and untraced, does not: the machine's speed moves by more
    than the overhead of a few thousand spans within one op.
    """
    def noop():
        return None

    calls = 20_000
    traced = Tracer()._wrap("noop", noop)
    costs = []
    for _ in range(5):
        start = perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = perf_counter_ns() - start
        start = perf_counter_ns()
        for _ in range(calls):
            traced()
        costs.append((perf_counter_ns() - start - bare) / calls)
    return median(costs) * 1e-9


class Tracer:
    """Records (name, start, end, parent) for every call of a wrapped function.

    ``call(name, fn, ...)`` opens a span around benchmark code itself, so
    each op and each check is a root that the library spans hang under. For
    ``sq.sq_search`` the tracer also counts restarts requested and results
    that report convergence, so restart time and the converged ratio are
    measured where the work happens. Spans are kept in typed arrays, with
    times in integer nanoseconds, because a verify run makes about a
    million of them.
    """

    def __init__(self):
        self.name_table: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else ROOT)
        self.end.append(0)
        self._stack.append(span)
        self.start.append(perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn) if name == "sq.sq_search" else None

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counters[f"{name}.restarts"] += int(bound.arguments["restarts"])
                tracer.counters[f"{name}.converged"] += int(bool(result.converged))
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every public function wherever a package module holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        holders = [sys.modules[PACKAGE]] + [
            sys.modules[f"{PACKAGE}.{short}"] for short in MODULES
        ]
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions()}
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((holder, attr, obj))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s and the names of its parents.

        Spans nest strictly (one thread, one stack), so a span's self time is
        its duration minus the summed durations of its direct children.
        """
        durations = [end - start for start, end in zip(self.start, self.end)]
        child_ns = [0] * len(durations)
        for span, parent in enumerate(self.parent):
            if parent != ROOT:
                child_ns[parent] += durations[span]
        names = self.name_table
        rows = [{"calls": 0, "total_ns": 0, "self_ns": 0, "parents": Counter()} for _ in names]
        for span, name_id in enumerate(self.name):
            row = rows[name_id]
            row["calls"] += 1
            row["total_ns"] += durations[span]
            row["self_ns"] += durations[span] - child_ns[span]
            parent = self.parent[span]
            row["parents"][names[self.name[parent]] if parent != ROOT else "<root>"] += 1
        rows = [
            {"calls": row["calls"], "total_s": row["total_ns"] * 1e-9,
             "self_s": row["self_ns"] * 1e-9, "parents": dict(row["parents"])}
            for row in rows
        ]
        return dict(zip(names, rows))

    def columns(self) -> dict:
        """The spans as columns; a span's id is its index, ROOT marks no parent."""
        return {
            "names": self.name_table,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
