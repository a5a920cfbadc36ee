"""Lightning bolts on two-axis grids.

A bolt is an ordered vertex list in which consecutive vertices are distinct
and share one coordinate, alternating between the axes; the pattern is named
by which coordinate the first pair shares. A closed bolt has even length and
stays a bolt after rotating the list by one, so the alternation wraps
around. Its measure alternates +1/(2k), -1/(2k) along the list; a revisited
vertex with opposite signs cancels, which can push the total variation below
1.

For two-axis grids minimal cycles and closed bolts describe the same
certificates: b points are plus edges and c points minus edges of a
bipartite multigraph on (axis-0 values) x (axis-1 values), where each side's
degree balance lets the edge set be partitioned into alternating closed
walks, read off here deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .chebyshev import _cycle_supremum
from .cycles import GolombCycle, _enumerate
from .grids import GridPoint, ProductGrid, TabulatedFunction, _points_from_json
from .measures import FiniteSignedMeasure

StartAxis = Literal["shared-x-first", "shared-y-first"]


def _require_two_axes(grid: ProductGrid) -> None:
    if grid.n != 2:
        raise ValueError("bolts are defined on two-axis grids only")


def is_bolt(grid: ProductGrid, vertices: Sequence[GridPoint]) -> StartAxis | None:
    """Detect the alternation pattern of a vertex list, or None.

    A single vertex is a bolt under both patterns; "shared-x-first" is
    returned for determinism. An empty list is not a bolt.
    """
    _require_two_axes(grid)
    pts = [grid.check_point(p) for p in vertices]
    if not pts:
        return None
    if len(pts) == 1:
        return "shared-x-first"
    if pts[0][0] == pts[1][0] and pts[0] != pts[1]:
        start: StartAxis = "shared-x-first"
        first_axis = 0
    elif pts[0][1] == pts[1][1] and pts[0] != pts[1]:
        start = "shared-y-first"
        first_axis = 1
    else:
        return None
    for i in range(1, len(pts) - 1):
        axis = (first_axis + i) % 2
        a, b = pts[i], pts[i + 1]
        if a == b or a[axis] != b[axis]:
            return None
    return start


def is_closed_bolt(grid: ProductGrid, vertices: Sequence[GridPoint]) -> bool:
    """A bolt of even length whose rotation by one is again a bolt, so the
    alternation (and distinctness) holds cyclically.

    Even length makes the rotated pattern consistent; the only extra content
    is the wrap-around pair, which must share the coordinate that continues
    the alternation. Two vertices can never close: the wrap would have to
    share the other coordinate as well, forcing the vertices to coincide.
    """
    pts = [grid.check_point(p) for p in vertices]
    if len(pts) < 2 or len(pts) % 2 != 0:
        return False
    start = is_bolt(grid, pts)
    if start is None:
        return False
    wrap_axis = 1 if start == "shared-x-first" else 0
    return pts[-1][wrap_axis] == pts[0][wrap_axis] and pts[-1] != pts[0]


@dataclass(frozen=True)
class Bolt:
    grid: ProductGrid
    vertices: tuple[GridPoint, ...]
    start_axis: StartAxis

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", tuple(self.grid.check_point(p) for p in self.vertices)
        )
        detected = is_bolt(self.grid, self.vertices)
        if detected is None:
            raise ValueError("vertex list is not a bolt")
        if len(self.vertices) > 1 and detected != self.start_axis:
            raise ValueError(f"alternation pattern is {detected}, not {self.start_axis}")


@dataclass(frozen=True)
class ClosedBolt:
    bolt: Bolt

    def __post_init__(self) -> None:
        if not is_closed_bolt(self.bolt.grid, self.bolt.vertices):
            raise ValueError("bolt does not close up")

    @property
    def grid(self) -> ProductGrid:
        return self.bolt.grid

    @property
    def vertices(self) -> tuple[GridPoint, ...]:
        return self.bolt.vertices


def closed_bolt_measure(cb: ClosedBolt) -> FiniteSignedMeasure:
    """Alternating measure +1/(2k), -1/(2k) along the vertex list, starting
    positive. Repeated vertices accumulate, so opposite-sign revisits cancel
    and the total variation can drop below 1."""
    vertices = cb.vertices
    unit = Fraction(1, len(vertices))
    pairs = [
        (p, unit if i % 2 == 0 else -unit) for i, p in enumerate(vertices)
    ]
    return FiniteSignedMeasure.from_atoms(cb.grid, pairs)


def cycle_to_closed_bolts(gc: GolombCycle) -> tuple[ClosedBolt, ...]:
    """Partition a two-part cycle into closed bolts whose signed vertex
    multisets reproduce it.

    View b entries as plus edges and c entries as minus edges between axis-0
    and axis-1 values; the permutation property makes plus and minus degrees
    match at every value, so alternating closed walks cover all edges. Walks
    start at the lexicographically least unused plus edge, always take the
    least-index matching minus edge (sharing the current x) and then the
    least-index matching plus edge (sharing the current y), and close at the
    first return to the start vertex's y.
    """
    _require_two_axes(gc.grid)
    plus = sorted(gc.b_part)
    minus = sorted(gc.c_part)
    used_plus = [False] * len(plus)
    used_minus = [False] * len(minus)
    bolts: list[ClosedBolt] = []
    for start in range(len(plus)):
        if used_plus[start]:
            continue
        used_plus[start] = True
        x0, y0 = plus[start]
        walk: list[GridPoint] = [plus[start]]
        cur_x = x0
        while True:
            j = next(
                i
                for i, p in enumerate(minus)
                if not used_minus[i] and p[0] == cur_x
            )
            used_minus[j] = True
            walk.append(minus[j])
            cur_y = minus[j][1]
            if cur_y == y0:
                break
            i2 = next(
                i
                for i, p in enumerate(plus)
                if not used_plus[i] and p[1] == cur_y
            )
            used_plus[i2] = True
            walk.append(plus[i2])
            cur_x = plus[i2][0]
        bolts.append(ClosedBolt(Bolt(gc.grid, tuple(walk), "shared-x-first")))
    return tuple(bolts)


def bolt_supremum(f: TabulatedFunction) -> Fraction:
    """Supremum of |integral of f| over closed-bolt measures.

    On two axes every minimal cycle is one closed bolt whose measure is the
    cycle's own up to sign, so this is the minimal-cycle supremum, taken as
    verify_golomb takes it; no cycle is converted to bolts. It equals the
    best-approximation error.
    """
    _require_two_axes(f.grid)
    return _cycle_supremum(f, _enumerate(f.grid, None, None, None)[0])[0]


def bolt_to_json(cb: ClosedBolt | Bolt) -> dict:
    bolt = cb.bolt if isinstance(cb, ClosedBolt) else cb
    return {
        "vertices": [list(p) for p in bolt.vertices],
        "closed": isinstance(cb, ClosedBolt)
        or is_closed_bolt(bolt.grid, bolt.vertices),
    }


def bolt_from_json(grid: ProductGrid, obj: object) -> Bolt | ClosedBolt:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError('bolt JSON needs a "vertices" key')
    vertices = _points_from_json(obj["vertices"], "vertices")
    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError('"closed" must be true or false')
    pattern = is_bolt(grid, vertices)
    if pattern is None:
        raise ValueError("vertex list is not a bolt")
    bolt = Bolt(grid, vertices, pattern)
    return ClosedBolt(bolt) if closed else bolt
