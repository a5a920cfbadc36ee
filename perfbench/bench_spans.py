"""Per-layer spans recorded from outside the program.

A ``Tracer`` replaces each traced function at every module binding that
refers to it (``from .linalg import solve_lp`` gives ``chebyshev`` its own
binding), records one span per call, and puts every binding back on
``uninstall``. Spans live in memory; ``layer_metrics`` turns them into
per-function calls, total and self seconds, plus counts read from the calls'
arguments and results.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# module -> functions traced in it, named as in golombdual's source
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "chebyshev": ("best_error", "verify_golomb", "cycle_functional"),
    "cycles": ("_enumerate", "decompose", "extract_extreme_cycle"),
    "linalg": ("solve_lp", "kernel_basis", "matrix_rank", "_check_optimum"),
    "grids": ("incidence_matrix", "residual", "sup_norm"),
    "measures": ("integrate", "is_orthogonal", "total_variation"),
    "bolts": ("cycle_to_closed_bolts", "closed_bolt_measure"),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

DERIVED = (  # read from spans, arguments and results
    "linalg.solve_lp.rows_max",
    "linalg.solve_lp.cols_max",
    "linalg.solve_lp.max_bits",
    "cycles._enumerate.candidates",
    "cycles._enumerate.cycles_found",
    "cycles._enumerate.cache_hits",
    "cycles._enumerate.yield",
    "linalg.kernel_basis.per_cycle",
    "cycles.decompose.terms",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    instance: int
    info: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bits(values) -> int:
    return max((max(q.numerator.bit_length(), q.denominator.bit_length()) for q in values), default=0)


def _observe(name: str, args: tuple, result: Any) -> dict[str, int]:
    """Counts read from one call; runs after the span has ended."""
    if name == "linalg.solve_lp":
        problem = args[0]
        values = [*result.primal, *result.dual]
        if result.objective is not None:
            values.append(result.objective)
        return {"rows": problem.matrix.rows, "cols": problem.matrix.cols, "bits": _bits(values)}
    if name == "cycles._enumerate":
        cycles, candidates, _ = result
        return {"candidates": candidates, "found": len(cycles)}
    if name == "cycles.decompose":
        return {"terms": len(result.terms)}
    return {}


class Tracer:
    """Records spans for the functions in ``LAYERS`` of the imported
    ``golombdual`` package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.instance)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of every traced function in the package."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "golombdual" or key.startswith("golombdual."))
        ]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"golombdual.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(span.duration - covered)
    return out


def _ancestor(spans: list[Span], index: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    parent = spans[index].parent
    while parent >= 0 and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<layer>.<fn>.calls/.total_s/.self_s`` for every traced function, and
    the figures in ``DERIVED``."""
    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.total_s"] += span.duration
        out[f"{span.name}.self_s"] += own

    lp = [s.info for s in spans if s.name == "linalg.solve_lp"]
    out["linalg.solve_lp.rows_max"] = max((i["rows"] for i in lp), default=0)
    out["linalg.solve_lp.cols_max"] = max((i["cols"] for i in lp), default=0)
    out["linalg.solve_lp.max_bits"] = max((i["bits"] for i in lp), default=0)

    # an _enumerate call that builds no kernel basis served a cached result
    enum = [i for i, s in enumerate(spans) if s.name == "cycles._enumerate"]
    owners = [
        _ancestor(spans, i, "cycles._enumerate")
        for i, s in enumerate(spans)
        if s.name == "linalg.kernel_basis"
    ]
    owners = [i for i in owners if i >= 0]
    searched = set(owners)
    candidates = sum(spans[i].info["candidates"] for i in searched)
    found = sum(spans[i].info["found"] for i in searched)
    out["cycles._enumerate.candidates"] = candidates
    out["cycles._enumerate.cycles_found"] = found
    out["cycles._enumerate.cache_hits"] = len(enum) - len(searched)
    out["cycles._enumerate.yield"] = found / candidates if candidates else 0.0
    out["linalg.kernel_basis.per_cycle"] = len(owners) / found if found else 0.0
    out["cycles.decompose.terms"] = sum(s.info["terms"] for s in spans if s.name == "cycles.decompose")
    return out
