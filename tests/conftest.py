"""Shared fixtures and helpers for the test suite.

The two point sets below live on the 2x2x2 grid and are used across several
modules: FIVE_POINTS is a minimal cycle whose unique weight direction is
(2, -1, -1, -1, 1), and SIX_POINTS extends it by (0, 1, 1), which keeps it a
cycle but destroys minimality (the kernel becomes two dimensional).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from golombdual import (
    MinimalCycle,
    ProductGrid,
    SeparableSum,
    TabulatedFunction,
    CycleVectorPair,
    closed_bolt_measure,
    cycle_to_closed_bolts,
    enumerate_minimal_cycles,
    incidence_matrix,
    integer_certificate,
    integrate,
    kernel_basis,
    matrix_rank,
    normalize_minimal,
    point_index,
    to_golomb_form,
)

CUBE = ProductGrid((2, 2, 2))

FIVE_POINTS = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
FIVE_CERT = (2, -1, -1, -1, 1)

SIX_POINTS = FIVE_POINTS + ((0, 1, 1),)
SIX_CERT = (3, -1, -1, -2, 2, -1)

SQUARE = ((0, 0), (0, 1), (1, 1), (1, 0))


def rat(value) -> Fraction:
    return Fraction(value)


def table(shape: tuple[int, ...], values) -> TabulatedFunction:
    grid = ProductGrid(shape)
    return TabulatedFunction(grid, tuple(Fraction(v) for v in values))


def random_table(
    rng: random.Random, grid: ProductGrid, bound: int = 10
) -> TabulatedFunction:
    values = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(grid.volume))
    return TabulatedFunction(grid, values)


def random_separable(
    rng: random.Random, grid: ProductGrid, bound: int = 10
) -> SeparableSum:
    tables = tuple(
        tuple(Fraction(rng.randint(-bound, bound)) for _ in range(size))
        for size in grid.factor_sizes
    )
    return SeparableSum(grid, tables)


def brute_force_minimal_cycles(grid: ProductGrid) -> set[MinimalCycle]:
    """Reference enumeration: test every subset of the grid directly.

    A subset is a minimal cycle exactly when its incidence kernel is one
    dimensional and the spanning vector has no zero entry. Only sensible for
    small volumes; the main enumerator is checked against this.
    """
    points = tuple(grid.points())
    found: set[MinimalCycle] = set()
    for size in range(2, len(points) + 1):
        for subset in combinations(points, size):
            basis = kernel_basis(incidence_matrix(subset, grid))
            if len(basis) == 1 and all(w != 0 for w in basis[0]):
                found.add(normalize_minimal(subset, grid))
    return found


def has_lonely_point(combo, coords, n) -> bool:
    for axis in range(n):
        counts: dict[int, int] = {}
        for i in combo:
            counts[coords[i][axis]] = counts.get(coords[i][axis], 0) + 1
        if 1 in counts.values():
            return True
    return False


def subset_scan_cycles(
    grid: ProductGrid, points=None, max_support: int | None = None
) -> tuple[MinimalCycle, ...]:
    """Reference enumeration: the subset scan the circuit search replaced.

    Points are sorted by flat index and every subset of 2 to max_support
    points (default rank + 1) is tried, size by size in lexicographic index
    order. Subsets with a point alone in one of its (axis, value) classes,
    and proper supersets of a cycle already found, are skipped; the others
    are minimal when their incidence kernel is one line with no zero entry,
    normalized to total mass 1 with the first weight positive. The search
    must return exactly this tuple.
    """
    pts = tuple(sorted(grid.points() if points is None else points, key=lambda p: point_index(grid, p)))
    cap = matrix_rank(incidence_matrix(pts, grid)) + 1 if max_support is None else max_support
    found: list[MinimalCycle] = []
    supports: list[frozenset[int]] = []
    for size in range(2, min(cap, len(pts)) + 1):
        for combo in combinations(range(len(pts)), size):
            if has_lonely_point(combo, pts, grid.n) or any(s <= set(combo) for s in supports):
                continue
            subset = tuple(pts[i] for i in combo)
            basis = kernel_basis(incidence_matrix(subset, grid))
            if len(basis) != 1 or any(x == 0 for x in basis[0]):
                continue
            total = sum(abs(x) for x in basis[0])
            lam = tuple(x / total for x in basis[0])
            if lam[0] < 0:
                lam = tuple(-x for x in lam)
            found.append(MinimalCycle(CycleVectorPair(grid, subset, lam)))
            supports.append(frozenset(combo))
    return tuple(found)


def bolt_supremum_by_conversion(f: TabulatedFunction) -> Fraction:
    """Reference closed-bolt supremum on a two-axis grid: the conversion
    loop that bolt_supremum replaced.

    Every minimal cycle is written in two-part integer form, split into
    closed bolts, and f is integrated against each bolt's own measure, so
    this computes the supremum over bolts without relying on each cycle
    being one bolt with the cycle's measure.
    """
    best = Fraction(0)
    for cycle in enumerate_minimal_cycles(f.grid):
        gc = to_golomb_form(cycle.points, integer_certificate(cycle.weights), f.grid)
        for cb in cycle_to_closed_bolts(gc):
            best = max(best, abs(integrate(f, closed_bolt_measure(cb))))
    return best
