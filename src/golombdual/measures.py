"""Finitely supported signed measures on a product grid.

The measures of interest annihilate every separable sum; by the marginal
criterion that holds exactly when all axis marginals vanish.

A measure is canonical once constructed: each atom's point is checked to
lie on the grid and stored as a tuple of ints, its mass as a nonzero
``Fraction``, and the atoms are in strictly increasing tuple order, which
for grid points is flat-index order. So equality and hashing of measures
are plain structural equality and hashing, whatever sequences the caller
passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .grids import (
    GridPoint,
    ProductGrid,
    TabulatedFunction,
    _grid_from_json,
    _points_from_json,
    _require_keys,
    _same_grid,
)
from .linalg import _as_rat, _int_row, format_rat, parse_rat

if TYPE_CHECKING:  # only for annotations; cycles.py imports this module at runtime
    from .cycles import CycleVectorPair, GolombCycle

Atom = tuple[GridPoint, Fraction]


@dataclass(frozen=True)
class FiniteSignedMeasure:
    grid: ProductGrid
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        atoms = tuple((self.grid.check_point(p), _as_rat(m)) for p, m in self.atoms)
        if any(m == 0 for _, m in atoms):
            raise ValueError("zero-mass atom in canonical measure")
        for (p, _), (q, _) in zip(atoms, atoms[1:]):
            if p == q:
                raise ValueError(f"duplicate atom at {q}")
            if p > q:
                raise ValueError("atoms must be sorted by flat index")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_atoms(
        cls, grid: ProductGrid, pairs: Iterable[tuple[GridPoint, Fraction | int]]
    ) -> "FiniteSignedMeasure":
        """Canonicalize: accumulate repeated points, drop zeros, sort. Each
        point and mass is checked once, here, so the canonical atoms are
        stored without a second pass of ``__post_init__``."""
        acc: dict[GridPoint, Fraction] = {}
        for point, mass in pairs:
            pt = grid.check_point(point)
            m = _as_rat(mass)
            acc[pt] = acc[pt] + m if pt in acc else m  # add only on a repeat
        mu = object.__new__(cls)  # the fields, without __post_init__
        mu.__dict__.update(grid=grid, atoms=tuple((pt, acc[pt]) for pt in sorted(acc) if acc[pt]))
        return mu

    def mass_at(self, point: GridPoint) -> Fraction:
        pt = self.grid.check_point(point)
        for p, m in self.atoms:
            if p == pt:
                return m
        return Fraction(0)

    @property
    def support(self) -> tuple[GridPoint, ...]:
        return tuple(p for p, _ in self.atoms)

    def is_zero(self) -> bool:
        return not self.atoms

    def __add__(self, other: "FiniteSignedMeasure") -> "FiniteSignedMeasure":
        _same_grid(self, other)
        return FiniteSignedMeasure.from_atoms(self.grid, [*self.atoms, *other.atoms])

    def __sub__(self, other: "FiniteSignedMeasure") -> "FiniteSignedMeasure":
        return self + (-other)

    def __neg__(self) -> "FiniteSignedMeasure":
        return FiniteSignedMeasure(self.grid, tuple((p, -m) for p, m in self.atoms))

    def __mul__(self, scalar: Fraction | int) -> "FiniteSignedMeasure":
        c = _as_rat(scalar)
        if c == 0:
            return FiniteSignedMeasure(self.grid, ())
        return FiniteSignedMeasure(self.grid, tuple((p, c * m) for p, m in self.atoms))

    __rmul__ = __mul__


def total_variation(mu: FiniteSignedMeasure) -> Fraction:
    return sum((abs(m) for _, m in mu.atoms), Fraction(0))


def marginal(mu: FiniteSignedMeasure, axis: int) -> dict[int, Fraction]:
    """Pushforward of the measure onto one factor, as value -> mass.

    Every factor value of the grid appears as a key, including values that
    carry no mass.
    """
    if not 0 <= axis < mu.grid.n:
        raise ValueError(f"axis {axis} out of range")
    out = {value: Fraction(0) for value in range(mu.grid.factor_sizes[axis])}
    for point, mass in mu.atoms:
        out[point[axis]] += mass
    return out


def _class_sums_vanish(points: Sequence[GridPoint], ints: Sequence[int], n: int) -> bool:
    """True when, on each of the ``n`` axes, the integer weights ``ints`` of
    the points sharing a coordinate value sum to zero. Rational weights are
    passed as their ``_int_row``, whose last entry, the denominator, zip
    drops."""
    for axis in range(n):
        sums: dict[int, int] = {}
        for p, w in zip(points, ints):
            sums[p[axis]] = sums.get(p[axis], 0) + w
        if any(sums.values()):
            return False
    return True


def is_orthogonal(mu: FiniteSignedMeasure) -> bool:
    """True when every axis marginal vanishes identically, which is exactly
    when the measure annihilates every separable sum.

    The marginals are not built: the masses are put over one common
    denominator and each axis's class sums are added up as integers, the
    same test ``CycleVectorPair`` makes of its weights.
    """
    return _class_sums_vanish(mu.support, _int_row([m for _, m in mu.atoms]), mu.grid.n)


def integrate(f: TabulatedFunction, mu: FiniteSignedMeasure) -> Fraction:
    _same_grid(f, mu)
    return sum((mass * f.value_at(point) for point, mass in mu.atoms), Fraction(0))


def measure_from_pair(pair: "CycleVectorPair") -> FiniteSignedMeasure:
    """Normalized atomic measure of a weighted cycle: mass lambda_j / sum|lambda|
    at each point. Total variation is 1 and all marginals vanish."""
    total = sum(abs(w) for w in pair.weights)
    return FiniteSignedMeasure.from_atoms(
        pair.grid, ((p, w / total) for p, w in zip(pair.points, pair.weights))
    )


def _unit_measure(
    grid: ProductGrid, plus: Sequence[GridPoint], minus: Sequence[GridPoint]
) -> FiniteSignedMeasure:
    """+1/N on each point of ``plus`` and -1/N on each point of ``minus``,
    N being the number of points in both, accumulated over repeats."""
    unit = Fraction(1, len(plus) + len(minus))
    return FiniteSignedMeasure.from_atoms(
        grid, [(p, unit) for p in plus] + [(p, -unit) for p in minus]
    )


def golomb_measure(gc: "GolombCycle") -> FiniteSignedMeasure:
    """Measure of a cycle in two-part form: +1/(2k) per b entry, -1/(2k) per
    c entry, accumulated over multiplicities. Total variation is 1 because
    the parts are disjoint."""
    return _unit_measure(gc.grid, gc.b_part, gc.c_part)


def measure_to_json(mu: FiniteSignedMeasure) -> dict:
    return {
        "shape": list(mu.grid.factor_sizes),
        "atoms": [
            {"point": list(p), "mass": format_rat(m)} for p, m in mu.atoms
        ],
    }


def measure_from_json(obj: object) -> FiniteSignedMeasure:
    _require_keys(obj, "measure", "shape", "atoms")
    grid = _grid_from_json(obj["shape"])
    atoms = obj["atoms"]
    if not isinstance(atoms, list):
        raise ValueError('"atoms" must be a list')
    if any(not isinstance(e, dict) or "point" not in e or "mass" not in e for e in atoms):
        raise ValueError('each atom needs "point" and "mass"')
    points = _points_from_json([e["point"] for e in atoms], "point")
    return FiniteSignedMeasure.from_atoms(
        grid, zip(points, (parse_rat(e["mass"]) for e in atoms))
    )
