"""Call spans around the public functions of fbm's layers.

The layer modules import each other's functions by name, so a function
is replaced by its traced wrapper at every place it is bound inside
``fbm.*``, not only in the module that defines it. Spans are kept in
memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import asdict, dataclass

LAYERS = ("special", "geometry", "assembly", "tikhonov", "fields")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None               # index into Tracer.spans
    invocation: int
    counts: dict | None = None


def _basis_counts(result) -> dict:
    arrays = [a for a in result if a is not None]    # values, gradients
    return {"entries": sum(a.size for a in arrays),
            "bytes": sum(a.nbytes for a in arrays)}


def _svd_counts(result) -> dict:
    # Golub & Van Loan's 6mn^2 + 20n^3 for a thin R-SVD with U and V,
    # times 4 for complex arithmetic
    m, n = result.left_vectors.shape[0], result.right_vectors.shape[0]
    return {"flops": 4 * (6 * m * n * n + 20 * n ** 3)}


def _grid_counts(result) -> dict:
    return {"points": result.points.shape[0]}


COUNTERS = {"special.basis_matrix": _basis_counts,
            "tikhonov.svd": _svd_counts,
            "fields.build_interior_grid": _grid_counts}


class Tracer:
    """Records a span for each call into a traced function. The program
    runs single-threaded here, so one stack of open spans suffices."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._open: list[int] = []       # indices of the spans not yet ended
        self._patched = []               # (namespace, attribute, original)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = Span(name, 0.0, 0.0, parent, self.invocation)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span.counts = counter(result)
        return result

    def install(self) -> None:
        """Replace every binding of a layer's public functions in fbm.*."""
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"fbm.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != "fbm" and not modname.startswith("fbm."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def as_records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def summarize(spans: list[Span], invocation: int) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, and the sum
    and maximum of each count, over the spans of one invocation."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        if span.invocation != invocation:
            continue
        entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[i]
        for key, value in (span.counts or {}).items():
            entry[key] = entry.get(key, 0) + value
            entry[f"{key}_max"] = max(entry.get(f"{key}_max", 0), value)
    return out
