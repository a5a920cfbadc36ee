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
from typing import Literal, Sequence, get_args

from .chebyshev import _dual_cycle, best_error
from .cycles import GolombCycle, to_golomb_form
from .grids import GridPoint, ProductGrid, TabulatedFunction, _points_from_json, _require_keys
from .linalg import CertificateError
from .measures import FiniteSignedMeasure, _unit_measure, integrate

StartAxis = Literal["shared-x-first", "shared-y-first"]


def _require_two_axes(grid: ProductGrid) -> None:
    if grid.n != 2:
        raise ValueError("bolts are defined on two-axis grids only")


def is_bolt(grid: ProductGrid, vertices: Sequence[GridPoint]) -> StartAxis | None:
    """Detect the alternation pattern of a vertex list, or None.

    Each pattern is one rule: consecutive vertices are distinct and share
    the coordinate of the axis that alternates, starting at its own axis.
    Two distinct vertices never share both coordinates, so at most one
    pattern holds past a single vertex, which passes both; "shared-x-first"
    is tried first and returned for determinism. An empty list is not a
    bolt.
    """
    _require_two_axes(grid)
    pts = [grid.check_point(p) for p in vertices]
    for axis, start in enumerate(get_args(StartAxis)):
        pairs = enumerate(zip(pts, pts[1:]), axis)
        if pts and all(a != b and a[i % 2] == b[i % 2] for i, (a, b) in pairs):
            return start
    return None


def is_closed_bolt(grid: ProductGrid, vertices: Sequence[GridPoint]) -> bool:
    """A bolt of even length whose alternation (and distinctness) holds
    cyclically: the wrap-around pair is one more step of the same rule, so
    the list with its first vertex appended is again a bolt.

    Even length makes the rotated pattern consistent. Two vertices can
    never close: the wrap would have to share the other coordinate as well,
    forcing the vertices to coincide. Like is_bolt it checks the axes
    first, so on a grid with other than two axes every list raises.
    """
    _require_two_axes(grid)
    pts = [grid.check_point(p) for p in vertices]
    return 0 < len(pts) and len(pts) % 2 == 0 and is_bolt(grid, pts + pts[:1]) is not None


@dataclass(frozen=True)
class Bolt:
    """A vertex list that is a bolt; its pattern, ``start_axis``, is read off
    the vertices by ``is_bolt`` ("shared-x-first" on a single vertex)."""

    grid: ProductGrid
    vertices: tuple[GridPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", tuple(self.grid.check_point(p) for p in self.vertices)
        )
        if is_bolt(self.grid, self.vertices) is None:
            raise ValueError("vertex list is not a bolt")

    @property
    def start_axis(self) -> StartAxis:
        return is_bolt(self.grid, self.vertices)


@dataclass(frozen=True)
class ClosedBolt(Bolt):
    """A bolt that closes up (``is_closed_bolt``)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not is_closed_bolt(self.grid, self.vertices):
            raise ValueError("bolt does not close up")


def closed_bolt_measure(cb: ClosedBolt) -> FiniteSignedMeasure:
    """Alternating measure +1/(2k), -1/(2k) along the vertex list, starting
    positive. Repeated vertices accumulate, so opposite-sign revisits cancel
    and the total variation can drop below 1."""
    return _unit_measure(cb.grid, cb.vertices[::2], cb.vertices[1::2])


def cycle_to_closed_bolts(gc: GolombCycle) -> tuple[ClosedBolt, ...]:
    """Partition a two-part cycle into closed bolts whose signed vertex
    multisets reproduce it.

    View b entries as plus edges and c entries as minus edges between axis-0
    and axis-1 values; the permutation property makes plus and minus degrees
    match at every value, so alternating closed walks cover all edges. Each
    walk starts at the least remaining plus edge, then takes the least
    remaining minus edge sharing the current x and the least remaining plus
    edge sharing the current y in turn, and closes at the first return to
    the start vertex's y. Edges are taken from the sorted lists of the
    remaining ones, so a repeated point is used once per copy.
    """
    _require_two_axes(gc.grid)
    plus = sorted(gc.b_part)
    minus = sorted(gc.c_part)
    bolts: list[ClosedBolt] = []
    while plus:
        walk = [plus.pop(0)]
        while len(walk) % 2 or walk[-1][1] != walk[0][1]:
            edges, axis = (minus, 0) if len(walk) % 2 else (plus, 1)
            edge = next(q for q in edges if q[axis] == walk[-1][axis])
            edges.remove(edge)
            walk.append(edge)
        bolts.append(ClosedBolt(gc.grid, tuple(walk)))
    return tuple(bolts)


def _bolt_certificate(f: TabulatedFunction) -> tuple[Fraction, Fraction, tuple[ClosedBolt, ...]]:
    """The error, the closed-bolt supremum and the closed bolts attaining
    it, read off best_error's audited certificate with no cycle search.

    Every closed-bolt measure nu annihilates separable sums and has total
    variation at most 1, so for the audited best g and error E,
    |int f dnu| = |int (f - g) dnu| <= sup |f - g| = E: a bolt attaining E
    attains the supremum. For E > 0 the dual measure is one minimal cycle,
    which on two axes splits into one closed bolt, and the supremum is that
    bolt's own functional, computed from f and the bolt; at E = 0 it is 0
    with no bolt. The measure is computed, not read from input, so one that
    is not a minimal cycle, a split into other than one bolt, or a
    functional other than E raises CertificateError.
    """
    _require_two_axes(f.grid)
    result = best_error(f)
    if result.error == 0:
        return result.error, result.error, ()
    try:
        # unpacking raises ValueError unless the split is one bolt
        (bolt,) = cycle_to_closed_bolts(to_golomb_form(_dual_cycle(result)))
    except ValueError as exc:
        raise CertificateError(f"the dual measure is not one closed bolt: {exc}") from None
    supremum = abs(integrate(f, closed_bolt_measure(bolt)))
    if supremum != result.error:
        raise CertificateError(f"the bolt's functional {supremum} is not the error {result.error}")
    return result.error, supremum, (bolt,)


def bolt_supremum(f: TabulatedFunction) -> Fraction:
    """Supremum of |integral of f| over closed-bolt measures, which equals
    the best-approximation error (``_bolt_certificate``)."""
    return _bolt_certificate(f)[1]


def bolt_to_json(bolt: Bolt) -> dict:
    return {
        "vertices": [list(p) for p in bolt.vertices],
        "closed": isinstance(bolt, ClosedBolt) or is_closed_bolt(bolt.grid, bolt.vertices),
    }


def bolt_from_json(grid: ProductGrid, obj: object) -> Bolt:
    _require_keys(obj, "bolt", "vertices")
    vertices = _points_from_json(obj["vertices"], "vertices")
    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError('"closed" must be true or false')
    return (ClosedBolt if closed else Bolt)(grid, vertices)
