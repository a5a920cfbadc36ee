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

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm, prod
from typing import Sequence

from .grids import (
    GridPoint,
    ProductGrid,
    _class_columns,
    _class_ids,
    _distinct,
    _incidence_columns,
    _points_from_json,
    _require_keys,
    _same_grid,
)
from .linalg import (
    CertificateError,
    _as_rat,
    _basis_row,
    _eliminate,
    _int_row,
    _primitive,
    format_rat,
    kernel_basis,
    matrix_rank,
    parse_rat,
)
from .measures import (
    FiniteSignedMeasure,
    _class_sums_vanish,
    measure_from_pair,
)


@dataclass(frozen=True)
class CycleVectorPair:
    """Distinct grid points together with a nowhere-zero weight vector whose
    class sums vanish along every axis.

    The pair keeps its weights' integer form ``_ints``, the numerators over
    the common denominator D and then D, as ``_int_row`` gives them. Its
    checks (``_check``, which the subclass MinimalCycle extends by the
    normalization and rank tests), ``to_golomb_form`` and ``_recombines``
    read it. Equality, hashing and repr are on the three fields alone."""

    grid: ProductGrid
    points: tuple[GridPoint, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.grid.check_point(p) for p in self.points))
        object.__setattr__(self, "weights", tuple(_as_rat(w) for w in self.weights))
        self._check(tuple(_int_row(self.weights)))

    def _check(self, ints: tuple[int, ...]) -> None:
        """Keep ``ints`` as the weights' integer form and test on it that
        there is one weight per point, at least one point, no point twice,
        no zero weight and no nonzero class sum."""
        object.__setattr__(self, "_ints", ints)
        if len(ints) != len(self.points) + 1:
            raise ValueError("points and weights must have equal length")
        if not self.points:
            raise ValueError("a cycle needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point in cycle")
        if not all(ints):
            raise ValueError("cycle weights must be nonzero")
        if not _class_sums_vanish(self.points, ints, self.grid.n):
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
class MinimalCycle(CycleVectorPair):
    """A cycle whose incidence kernel is one dimensional, carrying the
    normalized weight vector (sum of |weights| equal to 1).

    It is a CycleVectorPair with no fields of its own: ``_check`` runs the
    pair's checks, then the normalization test (sum |n_i| = D over the
    integer form n / D) and the minimality test. Minimality is checked with
    the exact integer rank of the points' incidence columns: the class sums
    vanish, so the weights span a kernel line, and rank k - 1 on k points
    means the kernel is exactly that line.

    Either orientation of the weights is admitted; normalize_minimal returns
    the canonical one (positive weight at the lowest flat index).
    """

    def _check(self, ints: tuple[int, ...]) -> None:
        super()._check(ints)
        # over the weights' common denominator D: sum |n_i| / D == 1
        *nums, den = ints
        if sum(map(abs, nums)) != den:
            raise ValueError("minimal cycle weights must be normalized to total mass 1")
        if matrix_rank(_incidence_columns(self.points, self.grid.n)) != len(self.points) - 1:
            raise ValueError("incidence kernel is not one dimensional; cycle not minimal")

    def measure(self) -> FiniteSignedMeasure:
        return measure_from_pair(self)


@dataclass(frozen=True)
class Decomposition:
    """A convex combination of minimal-cycle measures: positive weights
    summing to 1, one minimal cycle per term, every cycle on one grid. Each
    weight must be an int or a Fraction (``_as_rat``)."""

    terms: tuple[tuple[Fraction, MinimalCycle], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((_as_rat(t), mc) for t, mc in self.terms))
        if not self.terms:
            raise ValueError("empty decomposition")
        if not all(isinstance(mc, MinimalCycle) for _, mc in self.terms):
            raise ValueError("every decomposition term must be a MinimalCycle")
        _same_grid(*(mc for _, mc in self.terms))
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


def to_golomb_form(pair: CycleVectorPair) -> GolombCycle:
    """Golomb's two-part form of a weighted cycle: the weights scaled to
    coprime integers n_i, each point repeated |n_i| times, positives in b,
    negatives in c."""
    b: list[GridPoint] = []
    c: list[GridPoint] = []
    for p, n_i in zip(pair.points, _primitive(pair._ints[:-1])):
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


def _normalized_cycle(
    points: tuple[GridPoint, ...], vec: Sequence[int], grid: ProductGrid
) -> MinimalCycle:
    """The MinimalCycle on ``points`` with the integer relation ``vec``
    scaled to total mass 1: every cycle the package computes from an
    integer relation is built here. The primitive relation n and its total
    T = sum |n_i| are the integer form of the weights n_i / T, so the cycle
    runs MinimalCycle's ``_check`` on them as they are, every check once;
    its points were checked where they entered (``FiniteSignedMeasure``,
    ``grid.points()``, ``_distinct``). A relation that fails a check is a
    fault of that computation, so it raises CertificateError. The one cycle
    built elsewhere is the dual vertex's: ``chebyshev._dual_cycle`` builds
    it from the LP measure's masses, and a measure that is not one minimal
    cycle raises ValueError in ``optimal_witness_from_dual`` and
    CertificateError in the bolt read-out (``bolts._bolt_certificate``)."""
    vec = _primitive(vec)
    total = sum(map(abs, vec))
    mc = object.__new__(MinimalCycle)  # the fields, without __post_init__
    mc.__dict__.update(grid=grid, points=points, weights=tuple(Fraction(x, total) for x in vec))
    try:
        mc._check((*vec, total))
        return mc
    except ValueError as exc:
        raise CertificateError(f"a computed relation is not a minimal cycle: {exc}") from None


def normalize_minimal(points: Sequence[GridPoint], grid: ProductGrid) -> MinimalCycle:
    """Canonical representative of a minimal cycle: points sorted by flat
    index, weights scaled to total mass 1 with the lowest-index weight
    positive. Invariant under permutations of the input."""
    pts = tuple(sorted(_distinct(points, grid)))
    relations = kernel_basis(_incidence_columns(pts, grid.n))
    if len(relations) != 1 or not all(relations[0]):
        raise ValueError("point set is not a minimal cycle")
    return _normalized_cycle(pts, relations[0], grid)


class _Truncated(Exception):
    """Unwinds the circuit search once it has used up its budget."""


def _circuits(
    classes: list[tuple[int, ...]], nrows: int, cap: int, budget: int | None, stop: int | None = None
) -> tuple[list[tuple[tuple[int, ...], list[int]]], int, bool]:
    """Every circuit of at most ``cap`` columns of the incidence matrix whose
    column j holds a 1 in rows ``classes[j]`` and whose first column is
    below ``stop`` (any, by default), as (column indices ascending,
    primitive integer relation with its first entry positive), by size and
    then indices; the number of sets whose independence was tested; and
    whether that number exceeded ``budget``, in which case the search
    stopped at budget + 1 with the hits so far.

    A depth-first search over independent sets in index order. The basis
    rows are the chosen columns cleared against each other; each row also
    carries, after the ``nrows`` class entries, the coefficients of the
    chosen columns it combines, the one chosen at depth d in slot
    ``nrows + d``. A column that clears to zero closes the one circuit of
    the chosen set plus it: that set is a circuit exactly when the relation
    uses every chosen column, and it is never extended, since every
    superset contains that circuit. Each circuit is found once, from its
    prefix without its last column, which is independent.

    ``_eliminate`` clears rows in insertion order, so a column cleared
    against the first d basis rows is its column cleared against the first
    d - 1 rows, cleared by one more row. ``levels[d][j]`` keeps column j
    cleared against ``basis[:d]`` while the search is at depth d or deeper,
    filled on demand from the level above by ``cleared``, the one row step
    that every test reads: a test clears one row, or more only for a column
    the levels above never cleared, and a level is dropped when the search
    backs out of its depth. While a column is a candidate its own
    coefficient sits one slot past the tail, at ``nrows + cap``, which no
    basis row touches; choosing it moves that coefficient to ``nrows + d``.
    So every vector is, entry for entry, the one ``_eliminate`` gives the
    column with its coefficient in slot ``nrows + d``: the same rows,
    relations, hits and candidates.

    A class holding one chosen column, with no later column in it, keeps
    that column's weight at zero in every extension, so such a prefix is cut.
    Sets of classes are int bitmasks, class c's bit being its rank by (last
    member, c), and the search passes down the classes the set touches and
    its single classes, those it holds once. The loop stops at the last
    member of the lowest single bit's class, the single class that ends
    first, and skips a column that is the last one of a class the set does
    not touch. Each added column fills at most one
    single class per axis, so a set with more single classes on one axis
    than the columns it may still add is skipped too; a set of ``cap``
    columns is tested only when it has no single class at all.
    """
    m = len(classes)
    last = [0] * nrows
    for j, cs in enumerate(classes):
        for c in cs:
            last[c] = j
    order = sorted(range(nrows), key=last.__getitem__)  # stable: ties by c
    bit = [0] * nrows
    for rank, c in enumerate(order):
        bit[c] = 1 << rank
    last_of_bit = [last[c] for c in order]
    cmask = [0] * m
    closes = [0] * m
    axis_masks = [0] * (len(classes[0]) if classes else 0)
    for j, cs in enumerate(classes):
        for axis, c in enumerate(cs):
            cmask[j] |= bit[c]
            axis_masks[axis] |= bit[c]
            if last[c] == j:
                closes[j] |= bit[c]
    own = nrows + cap
    cols = _class_columns(classes, nrows)
    levels: list[list[list[int] | None]] = [[col + [0] * cap + [1] for col in cols]]
    chosen: list[int] = []
    basis: list[tuple[int, list[int]]] = []
    hits: list[tuple[tuple[int, ...], list[int]]] = []
    tested = 0

    def cleared(d: int, j: int) -> list[int]:
        """Column j cleared against ``basis[:d]``: ``levels[d][j]``, filled
        from the level above with one more row if it is empty."""
        v = levels[d][j]
        if v is None:
            v = cleared(d - 1, j)
            piv, row = basis[d - 1]
            b = v[piv]
            if b:
                a = row[piv]
                v = [a * x - b * y for x, y in zip(v, row)]
            levels[d][j] = v
        return v

    def extend(start: int, stop: int, touched: int, single: int) -> None:
        nonlocal tested
        d = len(chosen)
        room = cap - d - 1
        for j in range(start, stop):
            if closes[j] & ~touched:
                continue
            cm = cmask[j]
            still = (single & ~cm) | (cm & ~touched)
            if still.bit_count() > room and any((still & a).bit_count() > room for a in axis_masks):
                continue
            tested += 1
            if budget is not None and tested > budget:
                raise _Truncated
            v = cleared(d, j)
            if not any(v[:nrows]):
                relation = v[nrows : nrows + d] + [v[own]]
                if all(relation):
                    hits.append((tuple(chosen) + (j,), _primitive(relation, orient=True)))
                continue
            if not room:
                continue
            pivot, new_row = _basis_row(v)  # a new list: v sits in levels
            new_row[nrows + d], new_row[own] = new_row[own], 0
            chosen.append(j)
            basis.append((pivot, new_row))
            levels.append([None] * m)
            stop_next = last_of_bit[(still & -still).bit_length() - 1] + 1 if still else m
            extend(j + 1, stop_next, touched | cm, still)
            levels.pop()
            basis.pop()
            chosen.pop()

    truncated = False
    try:
        extend(0, m if stop is None else stop, 0, 0)
    except _Truncated:
        truncated = True
    del extend, cleared  # each refers to itself: break the cycles that keep the search alive
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

    On the full grid only the circuits through the origin are searched, and
    ``_images`` writes out the rest, each one cycle of the output; the
    budget caps their number too. A search cut short, or whose images would
    exceed the budget, writes out none: it returns the circuits through the
    origin found so far, truncated.
    """
    if max_support is not None and max_support < 2:
        raise ValueError(f"max_support must be at least 2, got {max_support}")
    pts = tuple(grid.points()) if points is None else tuple(sorted(_distinct(points, grid)))
    classes, nrows = _class_ids(pts, grid.n)
    cap = matrix_rank(_class_columns(classes, nrows)) + 1 if max_support is None else max_support
    stop = 1 if points is None else None
    hits, candidates, truncated = _circuits(classes, nrows, min(cap, len(pts)), budget, stop)
    if points is None and not truncated:
        images = _images(grid, pts, hits, budget)
        if images is not None:
            return images, candidates, False
        truncated = True
    return [(tuple(pts[i] for i in sup), rel) for sup, rel in hits], candidates, truncated


def _images(
    grid: ProductGrid,
    pts: tuple[GridPoint, ...],
    hits: list[tuple[tuple[int, ...], list[int]]],
    budget: int | None,
) -> list[tuple[tuple[GridPoint, ...], list[int]]] | None:
    """Every circuit of the full grid ``pts``, each once, as ``_enumerate``'s
    hits, from ``_circuits``' hits through the origin, which index ``pts``;
    None, before any is written out, when there are more than ``budget``.

    For a point q, sigma_q swaps the values 0 and q_i on every axis i. It
    permutes each axis's classes, so it maps circuits to circuits with the
    same relation point for point, and it is its own inverse. A circuit C
    whose first point is q is so sigma_q(C0) for one C0 = sigma_q(C)
    through the origin, and q = sigma_q(0) carries the origin's entry, the
    positive first one. A point p != 0 of C0 whose first nonzero axis is i
    maps below q exactly when 0 < q_i and p_i <= q_i, so q is the first
    point of sigma_q(C0) exactly when q lies in the box of the q_i below
    every such p_i. Those p have flat indices in [t_i, s_i t_i), t_i the
    stride of axis i, and p_i = k // t_i, least at the least such index k;
    the least index k >= t_i past that range, or len(pts) when there is
    none, has k // t_i >= s_i, so the box's side is min(s_i, k // t_i).

    The images of one hit are its flat indices under every sigma_q of its
    box, built axis by axis: sigma_0 is the identity, and value a of axis i
    moves the entries whose value there is 0 up by a t_i and those whose
    value is a down by as much. Nothing is kept per point of the grid.
    """
    sizes = grid.factor_sizes
    strides = [prod(sizes[i + 1 :]) for i in range(len(sizes))]
    ends = [sup + (len(pts),) for sup, _ in hits]
    boxes = [[min(s, k[bisect_left(k, t)] // t) for s, t in zip(sizes, strides)] for k in ends]
    if budget is not None and sum(map(prod, boxes)) > budget:
        return None
    out = []
    for (sup, rel), sides in zip(hits, boxes):
        images = [list(sup)]
        for side, t, values in zip(sides, strides, zip(*[pts[k] for k in sup])):
            if side > 1:
                moves = [
                    [t * (a if v == 0 else -a if v == a else 0) for v in values]
                    for a in range(1, side)
                ]
                images += [[x + y for x, y in zip(image, move)] for image in images for move in moves]
        for image in images:
            pairs = sorted(zip(image, rel))
            out.append((tuple([pts[k] for k, _ in pairs]), [n for _, n in pairs]))
    # points in flat-index order compare as their flat indices do
    out.sort(key=lambda h: (len(h[0]), h[0]))
    return out


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


def _circuit_walk(cols: list[list[int]], x: list[int]) -> tuple[list[int], list[int]]:
    """A conformal circuit walk (Rockafellar 1969, elementary vectors) on
    the integer incidence columns ``cols`` of the atoms, for any number of
    axes. Returns the indices of a minimal cycle among the atoms, ascending,
    and its primitive integer weights, which agree with x in sign.

    The columns may number the classes of a larger point set: ``decompose``
    numbers its input's support once and passes the columns of the atoms
    still alive. A class that no atom realizes is then a zero row, which
    never holds a pivot, so the basis rows, relations and ``_eliminate``
    calls are those of the atoms' own numbering, with zeros between.

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
    nrows = len(cols[0])
    # the indices left, heaviest first; the sort is stable, so ties keep index order
    alive = sorted(range(len(x)), key=lambda i: -abs(x[i]))
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
            return [i for i, _ in circuit], _primitive([e for _, e in circuit])
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
    grid: ProductGrid, points: list[GridPoint], x: list[int], cols: list[list[int]] | None
) -> tuple[list[int], list[int], MinimalCycle]:
    """One minimal cycle inside the nonzero integer masses x at ``points``
    (distinct, in flat-index order), as (its indices ascending, its integer
    weights, the cycle). ``cols`` holds the points' integer incidence
    columns for the walk on n >= 3 axes, and is None on two.

    The class sums of x must vanish; the callers test that once, on the
    input's masses (``_check_annihilates``), and a later residual of
    ``decompose`` is ``den x - num w`` for such an x and a cycle w whose
    class sums ``CycleVectorPair`` has checked. On two axes the cycle is the
    closed bolt of a circulation walk (``_bolt_walk``), with no elimination;
    for n >= 3 it is the first conformal circuit that a walk by integer
    elimination closes, clearing the heaviest atoms first
    (``_circuit_walk``). Its signs are checked against x, and it is built
    by ``_normalized_cycle``, whose MinimalCycle rank check is independent
    of either walk; a failed check raises CertificateError.
    """
    alive, w = _bolt_walk(grid, points, x) if cols is None else _circuit_walk(cols, x)
    if any((wi > 0) != (x[i] > 0) for i, wi in zip(alive, w)):
        raise CertificateError("the extracted cycle's signs disagree with the measure")
    return alive, w, _normalized_cycle(tuple(points[i] for i in alive), w, grid)


def _integer_masses(mu: FiniteSignedMeasure) -> tuple[list[GridPoint], list[int], int]:
    """The support of ``mu``, its masses over their common denominator as
    integers x, and that denominator den; the total variation of ``mu`` is
    sum |x| / den."""
    points = list(mu.support)
    *x, den = _int_row([m for _, m in mu.atoms])
    return points, x, den


def _check_annihilates(points: list[GridPoint], x: list[int], n: int) -> None:
    """Raise ValueError unless the class sums of the integer masses x at
    ``points`` vanish, that is unless their measure annihilates separable
    sums."""
    if not _class_sums_vanish(points, x, n):
        raise ValueError("measure does not annihilate separable sums")


def _recombines(dec: Decomposition, points: list[GridPoint], x: list[int], den: int) -> bool:
    """Whether the terms of ``dec`` recombine to the measure with masses
    x / den at ``points`` (``dec.combined()`` equals it), in integers: each
    term t = p / q adds p n / (q D) at its cycle's points, n / D being the
    cycle's weights in the integer form its pair keeps. Over the lcm L of
    den and every q D, the terms' sums minus L / den times x must vanish
    everywhere."""
    terms = []
    common = den
    for t, mc in dec.terms:
        *n, d = mc._ints
        terms.append((t.numerator, t.denominator * d, mc.points, n))
        common = lcm(common, t.denominator * d)
    k = common // den
    acc = {p: -k * xi for p, xi in zip(points, x)}
    for num, q, pts, n in terms:
        c = num * (common // q)
        for p, ni in zip(pts, n):
            acc[p] = acc.get(p, 0) + c * ni
    return not any(acc.values())


def extract_extreme_cycle(mu: FiniteSignedMeasure) -> MinimalCycle:
    """One minimal cycle inside the support of an annihilating measure, with
    weights matching the measure's signs (``_extract`` on its masses scaled
    to integers)."""
    if mu.is_zero():
        raise ValueError("cannot extract a cycle from the zero measure")
    points, x, _ = _integer_masses(mu)
    n = mu.grid.n
    _check_annihilates(points, x, n)
    return _extract(mu.grid, points, x, None if n == 2 else _incidence_columns(points, n))[2]


def decompose(mu: FiniteSignedMeasure) -> Decomposition:
    """Write a total-variation-1 annihilating measure as a convex combination
    of minimal-cycle measures.

    The masses are scaled to integers x over their denominator den once
    (``_integer_masses``), and the total variation (sum |x| = den) and the
    class sums are tested once, on them: the residual is ``scale * x`` on
    ``points``, with x integer and nonzero. On n >= 3 axes the support's
    classes are numbered once too, and each round's walk gets the columns
    of the atoms still alive. Each round extracts a sign-compatible minimal
    cycle from x (``_extract``: a closed bolt on two axes, the first
    conformal circuit of the elimination walk on more) and takes the
    conformal step along its integer weights (``_conformal_step``): the
    largest multiple that keeps every residual mass on the same side of
    zero. The cycle's class sums vanish, so the residual's stay zero. The
    step zeroes at least one atom, so there are at most support-size many
    terms, and sign compatibility makes the total variations add up, so
    the weights sum to 1 exactly. The step returns the residual divided
    by its gcd, and the zeroed atoms are dropped. The reported terms must
    recombine to ``mu``, which ``_recombines`` checks in integers.
    """
    n = mu.grid.n
    points, x, den = _integer_masses(mu)
    if sum(map(abs, x)) != den:
        raise ValueError("measure must have total variation 1")
    _check_annihilates(points, x, n)
    masses = (points, x, den)
    cols = None if n == 2 else _incidence_columns(points, n)
    scale = Fraction(1, den)
    terms: list[tuple[Fraction, MinimalCycle]] = []
    while points:
        alive, w, mc = _extract(mu.grid, points, x, cols)
        r = [0] * len(x)
        for i, wi in zip(alive, w):
            r[i] = wi
        num, den, y, g = _conformal_step(x, r)
        # the cycle's measure is w / sum|w|, and the step removes (num / den) w
        terms.append((scale * sum(map(abs, w)) * Fraction(num, den), mc))
        points = list(compress(points, y))
        if cols is not None:
            cols = list(compress(cols, y))
        x = [yi for yi in y if yi]
        scale = scale * g / den
    try:
        dec = Decomposition(tuple(terms))
    except ValueError:  # weights that are not convex cannot recombine to mu
        dec = None
    if dec is None or not _recombines(dec, *masses):
        raise CertificateError("the decomposition does not recombine to the measure")
    return dec


def pair_to_json(pair: CycleVectorPair) -> dict:
    return {
        "points": [list(p) for p in pair.points],
        "lambda": [format_rat(w) for w in pair.weights],
    }


def pair_from_json(grid: ProductGrid, obj: object) -> CycleVectorPair:
    _require_keys(obj, "cycle", "points", "lambda")
    points = _points_from_json(obj["points"], "points")
    if not isinstance(obj["lambda"], list):
        raise ValueError('"lambda" must be a list')
    return CycleVectorPair(grid, points, tuple(parse_rat(w) for w in obj["lambda"]))
