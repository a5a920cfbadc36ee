"""Projection cycles: weighted point sets whose class sums vanish on every axis.

A cycle vector on points x_1..x_m is a nowhere-zero rational vector lambda
with, for every axis, a zero sum over each group of points sharing a
coordinate value. Equivalently, lambda lies in the kernel of the incidence
matrix and has no zero entry. A cycle is minimal when that kernel is one
dimensional; minimal cycles carry an essentially unique weight vector and
their normalized measures are the extreme points among the annihilating
measures, which makes them the certificates behind the duality formula.

The two-part (b/c) form lists each point with multiplicity |n_i|, positive
entries in b and negative in c; the defining property is that for every axis
the coordinate multiset of c is a permutation of that of b, with no point in
both parts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Iterable, Sequence

from .grids import (
    GridPoint,
    ProductGrid,
    _class_columns,
    _class_ids,
    _points_from_json,
)
from .linalg import (
    CertificateError,
    _as_rat,
    _basis_row,
    _column_relations,
    _eliminate,
    _int_row,
    _primitive,
    _rank,
    format_rat,
    parse_rat,
)
from .measures import (
    FiniteSignedMeasure,
    _class_sums_vanish,
    measure_from_pair,
    total_variation,
)


@dataclass(frozen=True)
class CycleVectorPair:
    """Distinct grid points together with a nowhere-zero weight vector whose
    class sums vanish along every axis."""

    grid: ProductGrid
    points: tuple[GridPoint, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.grid.check_point(p) for p in self.points))
        object.__setattr__(self, "weights", tuple(_as_rat(w) for w in self.weights))
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if not self.points:
            raise ValueError("a cycle needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point in cycle")
        if any(w == 0 for w in self.weights):
            raise ValueError("cycle weights must be nonzero")
        if not _class_sums_vanish(self.points, self.weights, self.grid.n):
            raise ValueError("class sums do not vanish; not a cycle vector")


@dataclass(frozen=True)
class GolombCycle:
    """Golomb's two-part multiset form of an integer cycle: each point
    repeated by its multiplicity, positive ones in b and negative ones in c,
    no point in both parts. On every axis the c coordinates permute the b
    coordinates, which is the class-sum test of ``CycleVectorPair`` on
    multiplicities +1 and -1."""

    grid: ProductGrid
    b_part: tuple[GridPoint, ...]
    c_part: tuple[GridPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_part", tuple(self.grid.check_point(p) for p in self.b_part))
        object.__setattr__(self, "c_part", tuple(self.grid.check_point(p) for p in self.c_part))
        if not self.b_part or len(self.b_part) != len(self.c_part):
            raise ValueError("b and c parts must be nonempty and of equal size")
        if set(self.b_part) & set(self.c_part):
            raise ValueError("a point appears in both parts")
        signs = [1] * len(self.b_part) + [-1] * len(self.c_part)
        if not _class_sums_vanish(self.b_part + self.c_part, signs, self.grid.n):
            raise ValueError("c coordinates are not a permutation of b coordinates on every axis")

    @property
    def k(self) -> int:
        return len(self.b_part)


@dataclass(frozen=True)
class MinimalCycle:
    """A cycle whose incidence kernel is one dimensional, carrying the
    normalized weight vector (sum of |weights| equal to 1).

    Minimality is checked with the exact integer rank of the points'
    incidence columns: the class sums vanish, so the weights span a kernel
    line, and rank k - 1 on k points means the kernel is exactly that line.

    Either orientation of the weights is admitted; normalize_minimal returns
    the canonical one (positive weight at the lowest flat index).
    """

    pair: CycleVectorPair

    def __post_init__(self) -> None:
        if sum(abs(w) for w in self.pair.weights) != 1:
            raise ValueError("minimal cycle weights must be normalized to total mass 1")
        if _incidence_rank(self.pair.points, self.pair.grid.n) != len(self.pair.points) - 1:
            raise ValueError("incidence kernel is not one dimensional; cycle not minimal")

    @property
    def grid(self) -> ProductGrid:
        return self.pair.grid

    @property
    def points(self) -> tuple[GridPoint, ...]:
        return self.pair.points

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self.pair.weights

    def measure(self) -> FiniteSignedMeasure:
        return measure_from_pair(self.pair)


@dataclass(frozen=True)
class Decomposition:
    """A convex combination of minimal-cycle measures: positive weights
    summing to 1, one minimal cycle per term."""

    terms: tuple[tuple[Fraction, MinimalCycle], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("empty decomposition")
        if any(t <= 0 for t, _ in self.terms):
            raise ValueError("decomposition weights must be positive")
        if sum(t for t, _ in self.terms) != 1:
            raise ValueError("decomposition weights must sum to 1")

    def combined(self) -> FiniteSignedMeasure:
        # a minimal cycle's weights are its normalized measure's masses
        return FiniteSignedMeasure.from_atoms(
            self.terms[0][1].grid,
            ((p, t * w) for t, mc in self.terms for p, w in zip(mc.points, mc.weights)),
        )


def _kernel_relations(points: Sequence[GridPoint], n: int) -> list[list[int]]:
    """The integer kernel basis of the 0/1 incidence columns of ``points``
    (``_column_relations``), equal to ``kernel_basis(incidence_matrix(points,
    grid))`` up to the ``Fraction`` wrapping."""
    return _column_relations(_class_columns(*_class_ids(points, n)))


def find_cycle_vector(
    points: Sequence[GridPoint], grid: ProductGrid
) -> tuple[Fraction, ...] | None:
    """Some nowhere-zero kernel vector on the given points, or None.

    Starts from the first integer kernel basis vector of the points'
    incidence columns and greedily adds each further basis vector with the
    smallest positive integer multiple that avoids cancelling any
    coordinate already covered. A coordinate left at zero by every basis
    vector vanishes on the whole kernel, so no cycle vector exists at all.
    Deterministic for a fixed input order.
    """
    pts = _distinct(points, grid)
    basis = _kernel_relations(pts, grid.n)
    if not basis or not all(any(col) for col in zip(*basis)):
        return None
    v = basis[0]
    for b in basis[1:]:
        c = next(c for c in count(1) if all(vj + c * bj for vj, bj in zip(v, b) if vj))
        v = [vj + c * bj for vj, bj in zip(v, b)]
    return tuple(Fraction(x) for x in v)


def to_golomb_form(pair: CycleVectorPair) -> GolombCycle:
    """Golomb's two-part form of a weighted cycle: the weights scaled to
    coprime integers n_i, each point repeated |n_i| times, positives in b,
    negatives in c."""
    b: list[GridPoint] = []
    c: list[GridPoint] = []
    for p, n_i in zip(pair.points, _primitive(_int_row(pair.weights)[:-1])):
        (b if n_i > 0 else c).extend([p] * abs(n_i))
    return GolombCycle(pair.grid, tuple(b), tuple(c))


def from_golomb_form(gc: GolombCycle) -> CycleVectorPair:
    """The weighted cycle of a two-part form: distinct points with their
    signed multiplicities, b points first (in order of first appearance),
    then c points, the weights reduced to integers of gcd 1."""
    counts: dict[GridPoint, int] = {}
    for p in gc.b_part:
        counts[p] = counts.get(p, 0) + 1
    for p in gc.c_part:
        counts[p] = counts.get(p, 0) - 1
    return CycleVectorPair(gc.grid, tuple(counts), tuple(_primitive(list(counts.values()))))


def _distinct(points: Iterable[GridPoint], grid: ProductGrid) -> list[GridPoint]:
    pts = [grid.check_point(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate point")
    return pts


def _normalized_cycle(
    points: tuple[GridPoint, ...], vec: Sequence[int], grid: ProductGrid
) -> MinimalCycle:
    """The MinimalCycle on ``points`` with the integer relation ``vec``
    scaled to total mass 1: every cycle the package computes from an
    integer relation is built here. A relation that fails the constructor's
    checks is a fault of that computation, so it raises CertificateError.
    The one cycle built elsewhere is the dual vertex's:
    ``chebyshev.optimal_witness_from_dual`` builds it from the LP measure's
    masses, and a measure that is not one minimal cycle raises ValueError
    there."""
    total = sum(abs(x) for x in vec)
    try:
        return MinimalCycle(CycleVectorPair(grid, points, tuple(Fraction(x, total) for x in vec)))
    except ValueError as exc:
        raise CertificateError(f"a computed relation is not a minimal cycle: {exc}") from None


def is_minimal(points: Sequence[GridPoint], grid: ProductGrid) -> bool:
    """True when the incidence kernel on these points is one dimensional and
    its spanning vector has no zero entry."""
    relations = _kernel_relations(_distinct(points, grid), grid.n)
    return len(relations) == 1 and all(relations[0])


def normalize_minimal(points: Sequence[GridPoint], grid: ProductGrid) -> MinimalCycle:
    """Canonical representative of a minimal cycle: points sorted by flat
    index, weights scaled to total mass 1 with the lowest-index weight
    positive. Invariant under permutations of the input."""
    pts = tuple(sorted(_distinct(points, grid)))
    relations = _kernel_relations(pts, grid.n)
    if len(relations) != 1 or not all(relations[0]):
        raise ValueError("point set is not a minimal cycle")
    return _normalized_cycle(pts, relations[0], grid)


class _Truncated(Exception):
    """Unwinds the circuit search once it has used up its budget."""


def _incidence_rank(points: Sequence[GridPoint], n: int) -> int:
    """Exact rank of the 0/1 incidence columns of ``points`` over the
    rationals (equal to ``matrix_rank(incidence_matrix(points, grid))``)."""
    return _rank(_class_columns(*_class_ids(points, n)))


def _circuits(
    classes: list[tuple[int, ...]], nrows: int, cap: int, budget: int | None
) -> tuple[list[tuple[tuple[int, ...], list[int]]], int, bool]:
    """Every circuit of at most ``cap`` columns of the incidence matrix whose
    column j holds a 1 in rows ``classes[j]``, as (column indices ascending,
    primitive integer relation with its first entry positive), by size and
    then indices; the number of sets whose independence was tested; and
    whether that number exceeded ``budget``, in which case the search
    stopped at budget + 1 with the hits so far.

    A depth-first search over independent sets in index order. The basis
    rows are the chosen columns cleared against each other; each row also
    carries, after the ``nrows`` class entries, the coefficients of the
    chosen columns it combines. A column that clears to zero closes the one
    circuit of the chosen set plus it: that set is a circuit exactly when the
    relation uses every chosen column, and it is never extended, since every
    superset contains that circuit. Each circuit is found once, from its
    prefix without its last column, which is independent.

    A class holding one chosen column, with no later column in it, keeps
    that column's weight at zero in every extension, so such a prefix is cut:
    the loop stops at the smallest last member of the open single classes,
    and skips a column that is the last one of a class the set does not
    touch. Each added column fills at most one single class per axis, so a
    set with more single classes on one axis than the columns it may still
    add is skipped too; a set of ``cap`` columns is tested only when it has
    no single class at all.
    """
    m = len(classes)
    last = [0] * nrows
    for j, cs in enumerate(classes):
        for c in cs:
            last[c] = j
    closes = [[c for c in cs if last[c] == j] for j, cs in enumerate(classes)]
    axis_of = [0] * nrows
    for cs in classes:
        for axis, c in enumerate(cs):
            axis_of[c] = axis
    cols = _class_columns(classes, nrows)
    count = [0] * nrows
    chosen: list[int] = []
    basis: list[tuple[int, list[int]]] = []
    hits: list[tuple[tuple[int, ...], list[int]]] = []
    tested = 0

    def extend(start: int, stop: int, single: list[int]) -> None:
        nonlocal tested
        d = len(chosen)
        room = cap - d - 1
        for j in range(start, stop):
            cs = classes[j]
            if any(count[c] == 0 for c in closes[j]):
                continue
            still = [c for c in single if c not in cs] + [c for c in cs if count[c] == 0]
            if len(still) > room and max(Counter(axis_of[c] for c in still).values()) > room:
                continue
            tested += 1
            if budget is not None and tested > budget:
                raise _Truncated
            col = cols[j] + [0] * cap
            col[nrows + d] = 1
            v = _eliminate(col, basis)
            if not any(v[:nrows]):
                relation = v[nrows : nrows + d + 1]
                if all(relation):
                    hits.append((tuple(chosen) + (j,), _primitive(relation, orient=True)))
                continue
            if not room:
                continue
            chosen.append(j)
            basis.append(_basis_row(v))
            for c in cs:
                count[c] += 1
            extend(j + 1, min((last[c] for c in still), default=m - 1) + 1, still)
            for c in cs:
                count[c] -= 1
            basis.pop()
            chosen.pop()

    truncated = False
    try:
        extend(0, m, [])
    except _Truncated:
        truncated = True
    hits.sort(key=lambda h: (len(h[0]), h[0]))
    return hits, tested, truncated


def _enumerate(
    grid: ProductGrid,
    points: Sequence[GridPoint] | None,
    max_support: int | None,
    budget: int | None,
) -> tuple[list[tuple[tuple[GridPoint, ...], list[int]]], int, bool]:
    """Minimal cycles as the circuits of the incidence column matroid, in
    the order of ``enumerate_minimal_cycles``. Returns (hits, candidates,
    truncated), a hit being (points in flat-index order, primitive integer
    relation with its first entry positive).

    A candidate is a point set whose independence was tested (see
    ``_circuits``); the search stops and reports truncation as soon as the
    count would exceed the budget, with the cycles found so far. A support
    cap below 2 admits no cycle at all and raises ValueError.
    """
    if max_support is not None and max_support < 2:
        raise ValueError(f"max_support must be at least 2, got {max_support}")
    pts = tuple(grid.points()) if points is None else tuple(sorted(_distinct(points, grid)))
    classes, nrows = _class_ids(pts, grid.n)
    cap = _incidence_rank(pts, grid.n) + 1 if max_support is None else max_support
    hits, candidates, truncated = _circuits(classes, nrows, min(cap, len(pts)), budget)
    return [(tuple(pts[i] for i in sup), rel) for sup, rel in hits], candidates, truncated


def enumerate_minimal_cycles(
    grid: ProductGrid,
    points: Sequence[GridPoint] | None = None,
    max_support: int | None = None,
) -> tuple[MinimalCycle, ...]:
    """All minimal cycles supported inside the given point set (the whole
    grid by default), in deterministic order: by support size, then by the
    lexicographic tuple of flat indices.

    Minimal cycles are the circuits of the incidence column matroid, and
    they are generated as such (``_circuits``): each weight vector is the
    integer relation that closes the circuit, scaled to total mass 1 with
    the first weight positive.

    Supports larger than rank(incidence) + 1 cannot occur, so that is the
    default cap; pass max_support to override.
    """
    hits, _, _ = _enumerate(grid, points, max_support, None)
    return tuple(_normalized_cycle(pts, relation, grid) for pts, relation in hits)


def _conformal_step(x: list[int], r: list[int]) -> tuple[int, int, list[int], int]:
    """The largest step t = num / den that keeps every sign of x in x - t r:
    the least x_i / r_i over the entries where r agrees with x in sign, of
    which there must be one. Returns num, den, the integer vector
    den x - num r divided by its gcd g, and g, so that
    x = (num r + g y) / den for the returned y. y agrees with x in sign and
    is zero wherever the least ratio is attained; when that is everywhere,
    y is the zero vector and g is 0."""
    num, den = 0, 0
    for xi, e in zip(x, r):
        if e and (e > 0) == (xi > 0) and (not den or abs(xi) * den < num * abs(e)):
            num, den = abs(xi), abs(e)
    y = [den * xi - num * e for xi, e in zip(x, r)]
    g = gcd(*y)
    return num, den, [yi // g for yi in y] if g else y, g


def _circuit_walk(
    grid: ProductGrid, points: list[GridPoint], x: list[int]
) -> tuple[list[int], list[int]]:
    """A conformal circuit walk (Rockafellar 1969, elementary vectors) on the
    integer class columns of ``points`` (``_class_ids``), for any number of
    axes. Returns the indices of a minimal cycle among ``points``, ascending,
    and its integer weights, which agree with x in sign.

    The integer masses x are a nowhere-zero kernel vector of the columns.
    The columns are cleared heaviest first (by |x| descending, ties in
    index order) with ``_eliminate``, each carrying a tail indexed by basis
    slot as in ``_circuits``; the first one that clears to zero closes a
    circuit r among itself and the independent columns before it. r is
    oriented to agree with x at its last column. When r agrees with x in
    sign wherever r is nonzero, it is a conformal circuit and is returned.
    Otherwise the conformal step x - t r (``_conformal_step``, which also
    divides it by its gcd) stays a kernel vector that agrees with x in sign
    and zeroes at least one atom.
    The zeroed atoms are dropped, the basis rows of the columns before the
    first of them are kept, and the walk resumes there; every step drops an
    atom, so it ends. An r that uses every remaining atom is proportional to
    x, hence conformal.
    """
    classes, nrows = _class_ids(points, grid.n)
    cols = _class_columns(classes, nrows)
    # the indices left, heaviest first; the sort is stable, so ties keep index order
    alive = sorted(range(len(points)), key=lambda i: -abs(x[i]))
    x = [x[i] for i in alive]
    basis: list[tuple[int, list[int]]] = []
    while True:
        d = len(basis)
        if d == len(alive):
            raise CertificateError("the remaining support has no integer relation")
        col = cols[alive[d]] + [0] * (nrows + 1)
        col[nrows + d] = 1
        v = _eliminate(col, basis)
        if any(v[:nrows]):
            basis.append(_basis_row(v))
            continue
        r = v[nrows : nrows + d + 1]
        if not r[d]:
            raise CertificateError("a cleared column is missing from its own relation")
        if (r[d] > 0) != (x[d] > 0):
            r = [-e for e in r]
        if all((e > 0) == (xi > 0) for e, xi in zip(r, x) if e):
            circuit = sorted((i, e) for i, e in zip(alive, r) if e)
            return [i for i, _ in circuit], [e for _, e in circuit]
        x = _conformal_step(x, r + [0] * (len(x) - d - 1))[2]
        del basis[x.index(0) :]
        alive = [i for i, xi in zip(alive, x) if xi]
        x = [xi for xi in x if xi]


def _bolt_exits(
    grid: ProductGrid, points: list[GridPoint], x: list[int]
) -> dict[int, int]:
    """For each vertex of the two-axis graph of ``_bolt_walk`` (row value a
    as a, column value b as s1 + b), the index of the first atom in order
    that leaves it."""
    rows = grid.factor_sizes[0]
    exits: dict[int, int] = {}
    for i, ((a, b), m) in enumerate(zip(points, x)):
        exits.setdefault(a if m > 0 else rows + b, i)
    return exits


def _bolt_walk(
    grid: ProductGrid, points: list[GridPoint], x: list[int]
) -> tuple[list[int], list[int]]:
    """A circulation walk to one closed bolt of a two-axis measure with atoms
    at ``points`` and integer masses x, whose minimal cycles are the simple
    cycles of the bipartite row/column graph (Diliberto and Straus 1951).
    Returns the indices of the bolt, ascending, and its weights, +1 or -1
    by the signs of their masses.

    A positive atom (a, b) is an edge from row a to column b, a negative one
    an edge from column b to row a. The class sums vanish, so a vertex that
    is entered can also be left. The walk takes the first atom, then leaves
    each vertex by its first exit (``_bolt_exits``) until a vertex repeats;
    the loop from that vertex on is a directed simple cycle, with signs
    alternating on 2k >= 4 distinct points, one step per atom. A vertex
    without an exit or a loop that does not alternate raises
    CertificateError.
    """
    rows = grid.factor_sizes[0]
    exits = _bolt_exits(grid, points, x)
    a, b = points[0]
    v = a if x[0] > 0 else rows + b
    seen: dict[int, int] = {}  # a vertex on the path -> the step that left it
    path: list[int] = []
    while v not in seen:
        seen[v] = len(path)
        if v not in exits:
            raise CertificateError("the walk reached a vertex with no atom leaving it")
        i = exits[v]
        path.append(i)
        a, b = points[i]
        v = a if v >= rows else rows + b  # the atom's other end
    loop = path[seen[v] :]
    signs = [x[i] > 0 for i in loop]
    if any(s == t for s, t in zip(signs, signs[1:] + signs[:1])):
        raise CertificateError("the walk's loop is not a closed bolt: its signs do not alternate")
    alive = sorted(loop)
    return alive, [1 if x[i] > 0 else -1 for i in alive]


def _extract(
    grid: ProductGrid, points: list[GridPoint], x: list[int]
) -> tuple[list[int], list[int], MinimalCycle]:
    """One minimal cycle inside the nonzero integer masses x at ``points``
    (distinct, in flat-index order), as (its indices ascending, its integer
    weights, the cycle).

    The class sums of x must vanish; the callers test that once, on the
    input's masses (``_integer_masses``), and a later residual of
    ``decompose`` is ``den x - num w`` for such an x and a cycle w whose
    class sums ``CycleVectorPair`` has checked. On two axes the cycle is the
    closed bolt of a circulation walk (``_bolt_walk``), with no elimination;
    for n >= 3 it is the first conformal circuit that a walk by integer
    elimination closes, clearing the heaviest atoms first
    (``_circuit_walk``). Its signs are checked against x, and it is built
    by ``_normalized_cycle``, whose MinimalCycle rank check is independent
    of either walk; a failed check raises CertificateError.
    """
    alive, w = (_bolt_walk if grid.n == 2 else _circuit_walk)(grid, points, x)
    if any((wi > 0) != (x[i] > 0) for i, wi in zip(alive, w)):
        raise CertificateError("the extracted cycle's signs disagree with the measure")
    return alive, w, _normalized_cycle(tuple(points[i] for i in alive), w, grid)


def _integer_masses(mu: FiniteSignedMeasure) -> tuple[list[GridPoint], list[int], int]:
    """The support of ``mu``, its masses over their common denominator as
    integers x, and that denominator. Raises ValueError unless the class
    sums of x vanish, that is unless ``mu`` annihilates separable sums."""
    points = list(mu.support)
    *x, den = _int_row([m for _, m in mu.atoms])
    if not _class_sums_vanish(points, x, mu.grid.n):
        raise ValueError("measure does not annihilate separable sums")
    return points, x, den


def extract_extreme_cycle(mu: FiniteSignedMeasure) -> MinimalCycle:
    """One minimal cycle inside the support of an annihilating measure, with
    weights matching the measure's signs (``_extract`` on its masses scaled
    to integers)."""
    if mu.is_zero():
        raise ValueError("cannot extract a cycle from the zero measure")
    points, x, _ = _integer_masses(mu)
    return _extract(mu.grid, points, x)[2]


def decompose(mu: FiniteSignedMeasure) -> Decomposition:
    """Write a total-variation-1 annihilating measure as a convex combination
    of minimal-cycle measures.

    The masses are scaled to integers once, and their class sums are tested
    once (``_integer_masses``): the residual is ``scale * x`` on ``points``,
    with x integer and nonzero. Each round extracts a sign-compatible
    minimal cycle from x (``_extract``: a closed bolt on two axes, the first
    conformal circuit of the elimination walk on more) and takes the
    conformal step along its integer weights (``_conformal_step``): the
    largest multiple that keeps every residual mass on the same side of
    zero. The cycle's class sums vanish, so the residual's stay zero. The
    step zeroes at least one atom, so there are at most support-size many
    terms, and sign compatibility makes the total variations add up, so
    the weights sum to 1 exactly. The step returns the residual divided
    by its gcd, and the zeroed atoms are dropped. The terms must recombine
    to ``mu``.
    """
    if total_variation(mu) != 1:
        raise ValueError("measure must have total variation 1")
    points, x, den = _integer_masses(mu)
    scale = Fraction(1, den)
    terms: list[tuple[Fraction, MinimalCycle]] = []
    while points:
        alive, w, mc = _extract(mu.grid, points, x)
        r = [0] * len(x)
        for i, wi in zip(alive, w):
            r[i] = wi
        num, den, y, g = _conformal_step(x, r)
        # the cycle's measure is w / sum|w|, and the step removes (num / den) w
        terms.append((scale * sum(map(abs, w)) * Fraction(num, den), mc))
        points = [p for p, yi in zip(points, y) if yi]
        x = [yi for yi in y if yi]
        scale = scale * g / den
    try:
        dec = Decomposition(tuple(terms))
        recombines = dec.combined() == mu
    except ValueError:  # weights that are not convex cannot recombine to mu
        recombines = False
    if not recombines:
        raise CertificateError("the decomposition does not recombine to the measure")
    return dec


def pair_to_json(pair: CycleVectorPair) -> dict:
    return {
        "points": [list(p) for p in pair.points],
        "lambda": [format_rat(w) for w in pair.weights],
    }


def pair_from_json(grid: ProductGrid, obj: object) -> CycleVectorPair:
    if not isinstance(obj, dict) or "points" not in obj or "lambda" not in obj:
        raise ValueError('cycle JSON needs "points" and "lambda" keys')
    points = _points_from_json(obj["points"], "points")
    if not isinstance(obj["lambda"], list):
        raise ValueError('"lambda" must be a list')
    return CycleVectorPair(grid, points, tuple(parse_rat(w) for w in obj["lambda"]))


def golomb_to_json(gc: GolombCycle) -> dict:
    return {
        "b": [list(p) for p in gc.b_part],
        "c": [list(p) for p in gc.c_part],
    }


def golomb_from_json(grid: ProductGrid, obj: object) -> GolombCycle:
    if not isinstance(obj, dict) or "b" not in obj or "c" not in obj:
        raise ValueError('two-part cycle JSON needs "b" and "c" keys')
    return GolombCycle(
        grid, _points_from_json(obj["b"], "b"), _points_from_json(obj["c"], "c")
    )
