"""Finite product grids, tabulated functions on them, and separable sums.

A grid is a product of index sets {0..s_i - 1}. Functions are stored as
row-major value tables (the last axis varies fastest), separable sums as one
value table per axis. The flat index of a point (c_1, ..., c_n) is
(((c_1 * s_2) + c_2) * s_3 + c_3) and so on.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Iterator, Sequence

from .linalg import _as_rat, format_rat, parse_rat

GridPoint = tuple[int, ...]


@dataclass(frozen=True)
class ProductGrid:
    factor_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor_sizes", tuple(self.factor_sizes))
        if any(type(s) is not int for s in self.factor_sizes):
            raise ValueError("factor sizes must be ints; a float, a string or a bool is rejected")
        if not self.factor_sizes:
            raise ValueError("a grid needs at least one factor")
        if any(s < 1 for s in self.factor_sizes):
            raise ValueError("factor sizes must be positive")

    @property
    def n(self) -> int:
        return len(self.factor_sizes)

    @property
    def volume(self) -> int:
        return prod(self.factor_sizes)

    def points(self) -> Iterator[GridPoint]:
        """All grid points in row-major (flat index) order."""
        return product(*(range(s) for s in self.factor_sizes))

    def contains(self, point: GridPoint) -> bool:
        return len(point) == self.n and all(
            0 <= c < s for c, s in zip(point, self.factor_sizes)
        )

    def check_point(self, point: Sequence[int]) -> GridPoint:
        """The point as a tuple, checked to lie on the grid. Coordinates must
        be ints: a float, a string or a bool is rejected, not rounded."""
        pt = tuple(point)
        for c in pt:
            if type(c) is not int:
                raise ValueError(f"point {pt!r} has a coordinate that is not an integer")
        if not self.contains(pt):
            raise ValueError(f"point {pt} is not on a grid of shape {self.factor_sizes}")
        return pt


def point_index(grid: ProductGrid, point: GridPoint) -> int:
    """Row-major flat index of a grid point."""
    pt = grid.check_point(point)
    idx = 0
    for c, s in zip(pt, grid.factor_sizes):
        idx = idx * s + c
    return idx


def _distinct(points: Iterable[GridPoint], grid: ProductGrid) -> list[GridPoint]:
    """The points as checked tuples, raising ValueError on a repeat."""
    pts = [grid.check_point(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate point")
    return pts


def _same_grid(*objects: object) -> None:
    """Raise ValueError unless every object's ``grid`` is the first one's."""
    if any(o.grid != objects[0].grid for o in objects[1:]):
        raise ValueError("grid mismatch")


@dataclass(frozen=True)
class TabulatedFunction:
    """A function on a grid, stored as a row-major tuple of rationals."""

    grid: ProductGrid
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(_as_rat(v) for v in self.values))
        if len(self.values) != self.grid.volume:
            raise ValueError(
                f"expected {self.grid.volume} values for shape "
                f"{self.grid.factor_sizes}, got {len(self.values)}"
            )

    def value_at(self, point: GridPoint) -> Fraction:
        return self.values[point_index(self.grid, point)]

    def __add__(self, other: "TabulatedFunction") -> "TabulatedFunction":
        _same_grid(self, other)
        return TabulatedFunction(
            self.grid, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "TabulatedFunction") -> "TabulatedFunction":
        return self + (-other)

    def __neg__(self) -> "TabulatedFunction":
        return TabulatedFunction(self.grid, tuple(-v for v in self.values))

    def __mul__(self, scalar: Fraction | int) -> "TabulatedFunction":
        c = _as_rat(scalar)
        return TabulatedFunction(self.grid, tuple(c * v for v in self.values))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SeparableSum:
    """A sum g_1(x_1) + ... + g_n(x_n), one value table per axis."""

    grid: ProductGrid
    tables: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "tables",
            tuple(tuple(_as_rat(v) for v in t) for t in self.tables),
        )
        if len(self.tables) != self.grid.n:
            raise ValueError("one table per axis required")
        for t, s in zip(self.tables, self.grid.factor_sizes):
            if len(t) != s:
                raise ValueError("table length does not match factor size")

    @classmethod
    def zero(cls, grid: ProductGrid) -> "SeparableSum":
        return cls(grid, tuple(tuple(Fraction(0) for _ in range(s)) for s in grid.factor_sizes))


def evaluate(g: SeparableSum, point: GridPoint) -> Fraction:
    """Value of a separable sum at a point."""
    pt = g.grid.check_point(point)
    return sum((g.tables[i][c] for i, c in enumerate(pt)), Fraction(0))


def tabulate(g: SeparableSum) -> TabulatedFunction:
    return TabulatedFunction(g.grid, tuple(evaluate(g, p) for p in g.grid.points()))


def residual(f: TabulatedFunction, g: SeparableSum) -> TabulatedFunction:
    """Pointwise difference f - g as a tabulated function."""
    return f - tabulate(g)


def sup_norm(f: TabulatedFunction) -> Fraction:
    return max(abs(v) for v in f.values)


def _class_ids(points: Sequence[GridPoint], n: int) -> tuple[list[tuple[int, ...]], int]:
    """Each point's n (axis, value) classes as incidence row indices, and
    the number of rows. The rows are the realized classes, axis-major,
    values ascending within each axis: every incidence column of the
    package takes its row order from here."""
    ids: dict[tuple[int, int], int] = {}
    for axis in range(n):
        for value in sorted({p[axis] for p in points}):
            ids[(axis, value)] = len(ids)
    return [tuple(ids[(axis, p[axis])] for axis in range(n)) for p in points], len(ids)


def _class_columns(classes: list[tuple[int, ...]], nrows: int) -> list[list[int]]:
    """The integer 0/1 incidence columns, one per point, of points whose
    classes ``_class_ids`` gave as (``classes``, ``nrows``)."""
    cols = []
    for cs in classes:
        col = [0] * nrows
        for c in cs:
            col[c] = 1
        cols.append(col)
    return cols


def _incidence_columns(points: Sequence[GridPoint], n: int) -> list[list[int]]:
    """The integer 0/1 incidence columns of checked, distinct ``points``,
    one per point, over the classes they realize (``_class_ids``)."""
    return _class_columns(*_class_ids(points, n))


def incidence_matrix(points: Sequence[GridPoint], grid: ProductGrid) -> list[list[int]]:
    """The 0/1 incidence matrix of distinct points as its integer columns,
    one per point: column j holds a 1 in the row of each (axis, value)
    class of point j. The rows are the realized classes, axis-major with
    values ascending within each axis (``_class_ids``).

    A vector in its kernel (``kernel_basis``) has vanishing class sums
    along every axis, which is exactly the projection-cycle condition on
    the weights.
    """
    return _incidence_columns(_distinct(points, grid), grid.n)


def _points_from_json(obj: object, key: str) -> tuple[tuple, ...]:
    """The points of a JSON list of coordinate lists, read under ``key``;
    the grid checks the coordinates themselves."""
    if not isinstance(obj, list) or any(not isinstance(p, list) for p in obj):
        raise ValueError(f'"{key}" must be a list of points, each a list of integers')
    return tuple(tuple(p) for p in obj)


def _grid_from_json(shape: object) -> ProductGrid:
    """The grid of a JSON "shape" list; its entries must be JSON integers,
    so true and false are rejected."""
    if not isinstance(shape, list) or any(type(s) is not int for s in shape):
        raise ValueError('"shape" must be a list of integers')
    return ProductGrid(tuple(shape))


def function_to_json(f: TabulatedFunction) -> dict:
    return {
        "shape": list(f.grid.factor_sizes),
        "values": [format_rat(v) for v in f.values],
    }


def _require_keys(obj: object, what: str, *keys: str) -> None:
    """Raise ValueError unless ``obj`` is a JSON object holding every key;
    ``what`` names the object in the message."""
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        names = " and ".join(f'"{k}"' for k in keys)
        raise ValueError(f"{what} JSON needs the {names} key{'s' if len(keys) > 1 else ''}")


def function_from_json(obj: object) -> TabulatedFunction:
    _require_keys(obj, "function", "shape", "values")
    grid = _grid_from_json(obj["shape"])
    values = obj["values"]
    if not isinstance(values, list):
        raise ValueError('"values" must be a list')
    return TabulatedFunction(grid, tuple(parse_rat(v) for v in values))


def function_from_csv(text: str) -> TabulatedFunction:
    """Parse a two-axis function table from CSV: rows are the first axis,
    columns the second."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise ValueError("empty CSV input")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged CSV rows")
    grid = ProductGrid((len(rows), width))
    values = tuple(parse_rat(cell) for row in rows for cell in row)
    return TabulatedFunction(grid, values)
