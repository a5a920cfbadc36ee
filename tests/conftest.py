"""Shared fixtures and helpers for the test suite.

The two point sets below live on the 2x2x2 grid and are used across several
modules: FIVE_POINTS is a minimal cycle whose unique weight direction is
(2, -1, -1, -1, 1), and SIX_POINTS extends it by (0, 1, 1), which keeps it a
cycle but destroys minimality (the kernel becomes two dimensional).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Mapping

import golombdual.chebyshev as chebyshev
import golombdual.cli as cli
import golombdual.cycles as cycles
from golombdual import (
    ApproximationResult,
    CertificateError,
    ClosedBolt,
    GolombCycle,
    LpProblem,
    LpRows,
    MinimalCycle,
    ProductGrid,
    SeparableSum,
    TabulatedFunction,
    Decomposition,
    FiniteSignedMeasure,
    closed_bolt_measure,
    cycle_functional,
    cycle_to_closed_bolts,
    enumerate_minimal_cycles,
    extract_extreme_cycle,
    integrate,
    is_orthogonal,
    point_index,
    residual,
    sup_norm,
    to_golomb_form,
    total_variation,
)
from golombdual.bolts import _require_two_axes
from golombdual.linalg import _as_rat, _int_row, solve_lp

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


def _cleared(row) -> list[int]:
    """A dense row of ints or Fractions times the lcm of its denominators;
    ``_as_rat`` rejects a float or a bool."""
    row = [_as_rat(v) for v in row]
    den = lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row]


def integer_columns(rows, width: int | None = None) -> list[list[int]]:
    """The columns of dense rows of ints or Fractions, each row first
    cleared of its denominators, as ``kernel_basis`` and ``matrix_rank``
    take them; row scaling changes neither the rank nor the kernel.
    ``width`` defaults to the first row's length and gives the column count
    of a matrix with no rows."""
    width = len(rows[0]) if width is None else width
    assert all(len(row) == width for row in rows), "ragged rows"
    cleared = [_cleared(row) for row in rows]
    return [[row[j] for row in cleared] for j in range(width)]


def lp_constraints(rows, rhs) -> list[tuple[dict[int, int], int, int]]:
    """The rows ``rows x <= rhs`` of dense ints or Fractions in the integer
    form of ``LpRows``, one ``_int_row`` per row over its entries and rhs:
    the row's nonzero numerators by column, its rhs numerator and the lcm of
    its denominators, so each row is in lowest terms. Every value goes
    through ``_as_rat`` first, which rejects a float or a bool."""
    assert len(rows) == len(rhs), "one rhs per row"
    cons = []
    for row, b in zip(rows, rhs):
        *nums, num, den = _int_row([_as_rat(v) for v in (*row, b)])
        cons.append(({j: v for j, v in enumerate(nums) if v}, num, den))
    return cons


def lp(objective, rows, rhs) -> LpProblem:
    """The LpProblem ``min objective.x  s.t.  rows x <= rhs,  x >= 0`` of
    plain lists of ints or Fractions: ``rows`` are dense and of equal
    length (the objective's when there are none), converted by
    ``lp_constraints``. The constructors check the values."""
    width = len(rows[0]) if rows else len(objective)
    assert all(len(row) == width for row in rows), "ragged rows"
    return LpProblem(tuple(objective), LpRows(width, tuple(lp_constraints(rows, rhs))))


def rational_rows(problem: LpProblem) -> tuple[list[dict[int, Fraction]], list[Fraction]]:
    """The rows of A as ``{column: value}`` and the rhs b of ``problem``, in
    ``Fraction``s: each integer row divided by its denominator."""
    cons = problem.matrix.entries
    return (
        [{j: Fraction(a, den) for j, a in entries.items()} for entries, _, den in cons],
        [Fraction(b, den) for _, b, den in cons],
    )


def reference_check_optimum(problem: LpProblem, x: list[Fraction], dual: list[Fraction]) -> None:
    """Exactness audit of ``min c.x  s.t.  A x <= b,  x >= 0``: x >= 0,
    A x <= b, y <= 0, no multiplier on a slack row (complementary
    slackness), and reduced costs ``c - A^T y`` that are >= 0 and 0 wherever
    x > 0, walking each row's nonzeros once. Together they make c.x = y.b
    and both optimal. The sums run on integers: x, y and c each over one
    common denominator, and each row of A and b over the lcm of its own.
    Raises CertificateError on the first violation.

    The audit that ended ``linalg.solve_lp`` before the weak-duality
    ``_check_optimum`` replaced it, kept as its oracle."""
    for j, v in enumerate(x):
        if v < 0:
            raise CertificateError(f"x[{j}] = {v} is negative")
    *xs, xden = _int_row(x)
    *ys, yden = _int_row(dual)
    tight: list[tuple[Mapping[int, Fraction], int, int]] = []
    for i, (arow, b, y) in enumerate(zip(*rational_rows(problem), ys)):
        den = lcm(b.denominator, *(a.denominator for a in arow.values()))
        # A_i x and b_i, both times den * xden
        lhs = sum(a.numerator * (den // a.denominator) * xs[j] for j, a in arow.items() if xs[j])
        rhs = b.numerator * (den // b.denominator) * xden
        if lhs > rhs:
            raise CertificateError(f"row {i}: {Fraction(lhs, den * xden)} <= {b} does not hold")
        if y > 0:
            raise CertificateError(f"row {i}: dual {dual[i]} is positive on a <= row")
        if y:
            if lhs != rhs:
                raise CertificateError(
                    f"row {i}: dual {dual[i]} is nonzero on a slack row (complementary slackness)"
                )
            tight.append((arow, den, y))
    # c - A^T y over cden * rden * yden, rden the lcm of the tight rows' dens
    *reduced, cden = _int_row(problem.objective)
    rden = lcm(*(den for _, den, _ in tight))
    scale = rden * yden
    reduced = [c * scale for c in reduced]
    for arow, den, y in tight:
        w = y * cden * (rden // den)
        for j, a in arow.items():
            reduced[j] -= a.numerator * (den // a.denominator) * w
    for j, d in enumerate(reduced):
        if d < 0 or (d > 0 and xs[j]):
            raise CertificateError(
                f"column {j}: reduced cost {Fraction(d, cden * scale)} is not dual feasible"
            )


def reference_incidence_matrix(points, grid: ProductGrid) -> list[list[int]]:
    """Reference incidence matrix as dense rows, built row by row from the
    coordinates and independent of the package's class numbering: one 0/1
    row per realized (axis, value) class, axis-major with values ascending,
    one column per point."""
    pts = [grid.check_point(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate point in incidence input")
    rows: list[list[int]] = []
    for axis in range(grid.n):
        for value in sorted({p[axis] for p in pts}):
            rows.append([1 if p[axis] == value else 0 for p in pts])
    return rows


def _bareiss_echelon(rows, width: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss 1968) row echelon form over the integers of
    dense rows of ints or Fractions, ``width`` columns each, every row first
    cleared of its denominators. Intermediate entries stay minors of the
    input, so every division is exact. Returns the nonzero echelon rows and
    the pivot column indices."""
    rows = [_cleared(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(width):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot, top = rows[r][c], rows[r]
        for cur in rows[r + 1 :]:
            factor = cur[c]
            for j in range(c, width):
                q, rem = divmod(pivot * cur[j] - factor * top[j], prev)
                if rem:
                    raise ArithmeticError("Bareiss elimination made a non-exact division")
                cur[j] = q
        prev = pivot
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def bareiss_rank(rows, width: int | None = None) -> int:
    """Reference rank of dense rows: the number of pivots of the Bareiss
    echelon form. ``width`` is as in ``integer_columns``."""
    return len(_bareiss_echelon(rows, len(rows[0]) if width is None else width)[1])


def bareiss_kernel_basis(rows, width: int | None = None) -> list[list[int]]:
    """Reference null-space basis of dense rows (``width`` as in
    ``integer_columns``), independent of the package's column elimination:
    one vector per free column of the Bareiss echelon form, ascending, found
    by back-substitution over Fraction with the free coordinate 1 and the
    other free coordinates 0, then scaled to a primitive integer vector
    whose first nonzero entry is positive."""
    width = len(rows[0]) if width is None else width
    ech, pivot_cols = _bareiss_echelon(rows, width)
    basis = []
    for f in sorted(set(range(width)) - set(pivot_cols)):
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for row, pc in reversed(list(zip(ech, pivot_cols))):
            s = sum((row[j] * v[j] for j in range(pc + 1, width)), Fraction(0))
            v[pc] = -s / row[pc]
        den = lcm(*(x.denominator for x in v))
        ints = [x.numerator * (den // x.denominator) for x in v]
        g = gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        basis.append([x // g for x in ints])
    return basis


def _normalized(points, vec, grid: ProductGrid) -> MinimalCycle:
    """The minimal cycle on ``points`` (in flat-index order) with weights
    ``vec`` scaled to total mass 1, first weight positive."""
    total = sum(abs(x) for x in vec)
    lam = tuple(Fraction(x, total) for x in vec)
    if lam[0] < 0:
        lam = tuple(-x for x in lam)
    return MinimalCycle(grid, tuple(points), lam)


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
            basis = bareiss_kernel_basis(reference_incidence_matrix(subset, grid))
            if len(basis) == 1 and all(w != 0 for w in basis[0]):
                found.add(_normalized(subset, basis[0], grid))
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
    cap = max_support
    if cap is None:
        cap = bareiss_rank(reference_incidence_matrix(pts, grid)) + 1
    found: list[MinimalCycle] = []
    supports: list[frozenset[int]] = []
    for size in range(2, min(cap, len(pts)) + 1):
        for combo in combinations(range(len(pts)), size):
            if has_lonely_point(combo, pts, grid.n) or any(s <= set(combo) for s in supports):
                continue
            subset = tuple(pts[i] for i in combo)
            basis = bareiss_kernel_basis(reference_incidence_matrix(subset, grid))
            if len(basis) != 1 or any(x == 0 for x in basis[0]):
                continue
            found.append(_normalized(subset, basis[0], grid))
            supports.append(frozenset(combo))
    return tuple(found)


def cycle_supremum_by_functional(
    f: TabulatedFunction, max_support: int | None = None, cycles=None
) -> tuple[Fraction, MinimalCycle | None, int]:
    """Reference minimal-cycle supremum: the per-cycle loop that the integer
    supremum on the circuit search's relations replaced.

    Every minimal cycle (``cycles``, enumerated on f's grid by default) is
    built as a normalized MinimalCycle and scored with cycle_functional;
    returns the supremum, the first cycle in enumeration order that attains
    it (None when it is 0), and the number of cycles.
    """
    supremum, witness = Fraction(0), None
    if cycles is None:
        cycles = enumerate_minimal_cycles(f.grid, max_support=max_support)
    for cycle in cycles:
        value = cycle_functional(f, cycle)
        if value > supremum:
            supremum, witness = value, cycle
    return supremum, witness, len(cycles)


def bolt_supremum_by_conversion(f: TabulatedFunction, cycles=None) -> Fraction:
    """Reference closed-bolt supremum on a two-axis grid: the conversion
    loop that bolt_supremum replaced.

    Every minimal cycle (``cycles``, enumerated on f's grid by default) is
    written in two-part integer form, split into closed bolts, and f is
    integrated against each bolt's own measure, so this computes the
    supremum over bolts without relying on each cycle being one bolt with
    the cycle's measure.
    """
    best = Fraction(0)
    for cycle in enumerate_minimal_cycles(f.grid) if cycles is None else cycles:
        gc = to_golomb_form(cycle)
        for cb in cycle_to_closed_bolts(gc):
            best = max(best, abs(integrate(f, closed_bolt_measure(cb))))
    return best


def reference_is_bolt(grid: ProductGrid, vertices) -> str | None:
    """Reference bolt detection: the ``bolts.is_bolt`` that one alternation
    rule replaced, which special-cases the first pair and then loops."""
    _require_two_axes(grid)
    pts = [grid.check_point(p) for p in vertices]
    if not pts:
        return None
    if len(pts) == 1:
        return "shared-x-first"
    if pts[0][0] == pts[1][0] and pts[0] != pts[1]:
        start = "shared-x-first"
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


def reference_is_closed_bolt(grid: ProductGrid, vertices) -> bool:
    """Reference closed-bolt test: the ``bolts.is_closed_bolt`` that works
    out the wrap-around pair's axis by hand, with the axis check moved
    first as in the one-rule version, so that every list raises on a grid
    with other than two axes."""
    _require_two_axes(grid)
    pts = [grid.check_point(p) for p in vertices]
    if len(pts) < 2 or len(pts) % 2 != 0:
        return False
    start = reference_is_bolt(grid, pts)
    if start is None:
        return False
    wrap_axis = 1 if start == "shared-x-first" else 0
    return pts[-1][wrap_axis] == pts[0][wrap_axis] and pts[-1] != pts[0]


def reference_cycle_to_closed_bolts(gc: GolombCycle) -> tuple[ClosedBolt, ...]:
    """Reference bolt partition: the ``bolts.cycle_to_closed_bolts`` that
    walks with used flags over the sorted parts, always taking the
    least-index unused matching edge."""
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
        walk = [plus[start]]
        cur_x = x0
        while True:
            j = next(i for i, p in enumerate(minus) if not used_minus[i] and p[0] == cur_x)
            used_minus[j] = True
            walk.append(minus[j])
            cur_y = minus[j][1]
            if cur_y == y0:
                break
            i2 = next(i for i, p in enumerate(plus) if not used_plus[i] and p[1] == cur_y)
            used_plus[i2] = True
            walk.append(plus[i2])
            cur_x = plus[i2][0]
        bolts.append(ClosedBolt(gc.grid, tuple(walk)))
    return tuple(bolts)


def dense_row_op(cur: list[int], prow: list[int], col: int) -> list[int]:
    """Reference row update of the dense integer kernel the sparse rows
    replaced: ``cur - cur[col] * prow`` for a pivot row whose entry at
    ``col`` is 1, in lowest terms. Both rows are dense integer rows
    (numerators of every column and the rhs, denominator last)."""
    c, dr = cur[col], prow[-1]
    out = [u * dr - c * v for u, v in zip(cur, prow)]
    out[-1] = cur[-1] * dr
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def dense_run_simplex(
    tableau: list[list[int]],
    basis: list[int],
    cost: list[Fraction],
    barred: set[int],
) -> tuple[str, list[int]]:
    """Reference Bland-rule simplex on the full tableau of dense integer
    rows, of which ``linalg._run_simplex`` stores only the rows of basic
    structural columns: lowest eligible entering column, ratio ties left by
    the row with the lower basic column. Returns the status and the final
    reduced costs as a dense integer row."""
    ncols = len(cost)
    z = _int_row([*cost, Fraction(0)])
    for i in range(len(tableau)):
        if z[basis[i]]:
            z = dense_row_op(z, tableau[i], basis[i])
    while True:
        enter = next(
            (j for j in range(ncols) if z[j] < 0 and j not in barred), None
        )
        if enter is None:
            return "optimal", z
        leave = -1
        for i, row in enumerate(tableau):
            a = row[enter]
            if a <= 0:
                continue
            if leave >= 0:
                best = tableau[leave]
                lhs, rhs = row[-2] * best[enter], best[-2] * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave < 0:
            return "unbounded", z
        z = dense_pivot(tableau, basis, z, leave, enter)


def dense_pivot(
    tableau: list[list[int]],
    basis: list[int],
    z: list[int] | None,
    row: int,
    col: int,
) -> list[int] | None:
    """Reference pivot on (row, col) of dense integer rows; returns the
    updated reduced-cost row."""
    prow = tableau[row]
    piv = prow[col]
    # dividing by piv / den: the numerators stay, the denominator becomes piv
    if piv < 0:
        prow = [-v for v in prow[:-1]]
        piv = -piv
    else:
        prow = prow[:-1]
    g = gcd(*prow)  # piv is an entry, so g divides it
    if g > 1:
        prow = [v // g for v in prow]
        piv //= g
    prow.append(piv)
    tableau[row] = prow
    for i, cur in enumerate(tableau):
        if i != row and cur[col]:
            tableau[i] = dense_row_op(cur, prow, col)
    if z is not None and z[col]:
        z = dense_row_op(z, prow, col)
    basis[row] = col
    return z


def dense_row(row: tuple[dict[int, int], int], width: int) -> list[int]:
    """The dense integer row of a sparse row ``(entries, den)``: the
    numerators of columns 0 .. width - 1 (the rhs among them), then den."""
    entries, den = row
    return [entries.get(k, 0) for k in range(width)] + [den]


def sparse_row(row: list[int]) -> tuple[dict[int, int], int]:
    """The sparse row ``(entries, den)`` of a dense integer row: its nonzero
    numerators by column, and its last entry as the denominator."""
    return {k: v for k, v in enumerate(row[:-1]) if v}, row[-1]


def two_phase_minimum(objective, rows, relations, rhs) -> Fraction | str:
    """Reference textbook two-phase simplex on the dense kernel above, for
    ``min c.x`` subject to ``rows rel rhs`` (``<=``, ``>=`` or ``=``) with
    every variable free; ``linalg.solve_lp`` takes only
    ``min c.x  s.t.  A x <= b,  x >= 0`` with b >= 0, and this solves the
    rest.

    Each variable is split into positive and negative parts. Every row is
    flipped to a nonnegative rhs, gets a slack if it is an inequality, and
    an artificial that starts the basis. Phase 1 minimizes the sum of the
    artificials; a positive minimum means "infeasible". Artificials left
    basic at level 0 are pivoted out on any other nonzero entry of their
    row (``dense_pivot`` without reduced costs), and phase 2 bars them from
    entering. Returns the minimum, or "infeasible" or "unbounded".
    """
    n, m = len(objective), len(rows)
    slack_rows = [i for i in range(m) if relations[i] != "="]
    art = 2 * n + len(slack_rows)
    width = art + m
    tableau = []
    for i, (row, rel, b) in enumerate(zip(rows, relations, rhs)):
        sign = -1 if b < 0 else 1
        dense = [Fraction(0)] * (width + 1)
        for j, a in enumerate(row):
            dense[j], dense[n + j] = sign * Fraction(a), -sign * Fraction(a)
        if rel != "=":
            dense[2 * n + slack_rows.index(i)] = sign * (1 if rel == "<=" else -1)
        dense[art + i] = Fraction(1)
        dense[width] = sign * Fraction(b)
        tableau.append(_int_row(dense))
    basis = list(range(art, width))
    barred = set(basis)
    phase1 = [Fraction(0)] * art + [Fraction(1)] * m
    _, z = dense_run_simplex(tableau, basis, phase1, set())
    if z[-2]:  # the rhs entry of z is the negated phase-1 minimum
        return "infeasible"
    for i in range(m):
        if basis[i] in barred:
            j = next((j for j in range(art) if tableau[i][j]), None)
            if j is not None:
                dense_pivot(tableau, basis, None, i, j)
    phase2 = [Fraction(c) for c in objective] + [-Fraction(c) for c in objective]
    phase2 += [Fraction(0)] * (width - 2 * n)
    status, z = dense_run_simplex(tableau, basis, phase2, barred)
    return status if status == "unbounded" else -Fraction(z[-2], z[-1])


def corrupt_relations(monkeypatch, corruption: str) -> None:
    """Make ``cycles._eliminate`` corrupt every relation it closes in the
    extraction: the first nonzero tail entry of a column that clears to zero
    is negated ("negated") or raised by 1 ("shifted"), so the corruption
    reaches every circuit the walk returns, or the column's own tail entry,
    in the slot after the basis rows, is zeroed ("dropped"). Basis rows stay
    intact. The extraction's columns hold nrows class entries and a tail of
    nrows + 1."""
    eliminate = cycles._eliminate

    def corrupted(col, basis):
        v = eliminate(col, basis)
        nrows = (len(col) - 1) // 2
        if not any(v[:nrows]) and corruption == "dropped":
            v[nrows + len(basis)] = 0
        elif not any(v[:nrows]):
            k = next(k for k in range(nrows, len(v)) if v[k])
            v[k] = -v[k] if corruption == "negated" else v[k] + 1
        return v

    monkeypatch.setattr(cycles, "_eliminate", corrupted)


def reference_circuits(
    classes: list[tuple[int, ...]], nrows: int, cap: int, budget: int | None
) -> tuple[list[tuple[tuple[int, ...], list[int]]], int, bool]:
    """Reference circuit search: the ``cycles._circuits`` that cleared each
    tested column from scratch against every chosen basis row, one
    ``cycles._eliminate`` call per candidate, before the search kept its
    cleared columns per depth. The search must return exactly this triple:
    the same hits in the same order, the same count of tested sets and the
    same truncation, at every budget."""
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
    cols = cycles._class_columns(classes, nrows)
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
                raise cycles._Truncated
            col = cols[j] + [0] * cap
            col[nrows + d] = 1
            v = cycles._eliminate(col, basis)
            if not any(v[:nrows]):
                relation = v[nrows : nrows + d + 1]
                if all(relation):
                    hits.append((tuple(chosen) + (j,), cycles._primitive(relation, orient=True)))
                continue
            if not room:
                continue
            chosen.append(j)
            basis.append(cycles._basis_row(v))
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
    except cycles._Truncated:
        truncated = True
    hits.sort(key=lambda h: (len(h[0]), h[0]))
    return hits, tested, truncated


def whole_support_walk(cols: list[list[int]], x) -> tuple[list[int], list[int]]:
    """Reference conformal circuit walk for any number of axes: the walk
    that ``cycles._circuit_walk`` replaced, which returns only once the
    whole remaining support is one circuit. It takes the same arguments,
    the atoms' integer incidence columns (which may number the classes of a
    larger point set) and their integer masses. Returns the indices of that
    circuit, ascending, and its integer weights.

    The columns are cleared in flat-index order with ``cycles._eliminate``,
    each carrying a tail indexed by basis slot. The first that clears to
    zero closes a circuit r. When r uses every remaining atom, those atoms
    are a minimal cycle with weights x. Otherwise r is oriented to agree
    with x at its last column, x takes the conformal step x - t r, the
    zeroed atoms are dropped, the basis rows before the first of them are
    kept, and the walk resumes there."""
    nrows = len(cols[0])
    alive = list(range(len(x)))
    basis: list[tuple[int, list[int]]] = []
    while True:
        d = len(basis)
        if d == len(alive):
            raise cycles.CertificateError("the remaining support has no integer relation")
        col = cols[alive[d]] + [0] * (nrows + 1)
        col[nrows + d] = 1
        v = cycles._eliminate(col, basis)
        if any(v[:nrows]):
            basis.append(cycles._basis_row(v))
            continue
        r = v[nrows : nrows + d + 1]
        if d + 1 == len(alive) and all(r):
            return alive, x
        if not r[d]:
            raise cycles.CertificateError("a cleared column is missing from its own relation")
        if (r[d] > 0) != (x[d] > 0):
            r = [-e for e in r]
        x = cycles._conformal_step(x, r + [0] * (len(x) - d - 1))[2]
        del basis[x.index(0) :]
        alive = [i for i, xi in zip(alive, x) if xi]
        x = [xi for xi in x if xi]


def corrupt_walk(monkeypatch, corruption: str) -> None:
    """Corrupt the two-axis circulation walk of ``cycles``, which never calls
    ``_eliminate``. "wrong-sign": the exit of every vertex becomes the first
    atom at it whatever its sign; the first atom comes first at both of its
    ends, so the walk leaves by it again, an atom of the wrong sign there.
    "flipped": the first weight of every walk's cycle is negated."""
    if corruption == "wrong-sign":

        def exits(grid, points, x):
            rows = grid.factor_sizes[0]
            table: dict[int, int] = {}
            for i, (a, b) in enumerate(points):
                table.setdefault(a, i)
                table.setdefault(rows + b, i)
            return table

        monkeypatch.setattr(cycles, "_bolt_exits", exits)
    else:
        walk = cycles._bolt_walk

        def flipped(grid, points, x):
            alive, w = walk(grid, points, x)
            return alive, [-w[0]] + w[1:]

        monkeypatch.setattr(cycles, "_bolt_walk", flipped)


def corrupt_term_weights(monkeypatch) -> None:
    """Make ``cycles._conformal_step`` return its step num / den as
    num * den, so that ``decompose`` scales each term weight by the step's
    denominator instead of dividing by it. The step's primitive vector and
    its gcd, which the walks and the residual use, stay intact."""
    step = cycles._conformal_step

    def corrupted(x, r):
        num, den, y, g = step(x, r)
        return num * den * den, den, y, g

    monkeypatch.setattr(cycles, "_conformal_step", corrupted)


def decompose_by_measures(mu: FiniteSignedMeasure) -> Decomposition:
    """Reference decomposition: the loop that the integer residual of
    ``decompose`` replaced. The residual is a point -> mass dict of
    ``Fraction``s; every round rebuilds it as a canonical measure, extracts
    a cycle from that (``extract_extreme_cycle``), and subtracts the largest
    multiple of the cycle's measure that keeps every mass's sign."""
    residual = dict(mu.atoms)
    terms = []
    while residual:
        mc = extract_extreme_cycle(FiniteSignedMeasure(mu.grid, tuple(residual.items())))
        t = min(abs(residual[p]) / abs(w) for p, w in zip(mc.points, mc.weights))
        terms.append((t, mc))
        for p, w in zip(mc.points, mc.weights):
            left = residual[p] - t * w
            if left:
                residual[p] = left
            else:
                del residual[p]
    return Decomposition(tuple(terms))


def corrupt_enumeration(monkeypatch, module) -> None:
    """Make the cycle search that ``module`` reads double the first entry of
    every relation it returns, so that no hit is a cycle vector any more:
    ``_origin_circuits`` in chebyshev, the circuits through the origin that
    ``verify_golomb`` scores, and ``_enumerate`` elsewhere."""
    name = "_origin_circuits" if module is chebyshev else "_enumerate"
    real = getattr(module, name)

    def corrupted(*args):
        hits, *rest = real(*args)
        return [(p, [2 * r[0]] + r[1:]) for p, r in hits], *rest

    monkeypatch.setattr(module, name, corrupted)


def forbid_cycle_search(monkeypatch) -> None:
    """Make every cycle search fail at each binding a path could reach it
    by: ``_enumerate``, the full grid's ``_origin_circuits`` that it and
    ``verify_golomb`` run, the circuit search ``_circuits`` under both, and
    ``verify_golomb`` itself."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a cycle search ran")

    for module, name in ((cycles, "_enumerate"), (cycles, "_origin_circuits"), (cycles, "_circuits"),
                         (chebyshev, "_origin_circuits"), (chebyshev, "verify_golomb"),
                         (cli, "_enumerate"), (cli, "verify_golomb")):
        monkeypatch.setattr(module, name, forbidden)


def spread_dual_measure(monkeypatch, module) -> None:
    """Make ``module.best_error`` return its audited result with the dual
    measure replaced by the sum of the closed bolts' measures on the squares
    of the two diagonal 2x2 blocks, at weight 1/2 each. On the 4x4 identity
    table each bolt integrates f to the error, so the sum passes every check
    of ``chebyshev._check_certificate``, yet it is not one minimal cycle."""
    real = module.best_error

    def spread(f: TabulatedFunction) -> ApproximationResult:
        result = real(f)
        a, b = (closed_bolt_measure(ClosedBolt(f.grid, [(x + s, y + s) for x, y in SQUARE]))
                for s in (0, 2))
        return ApproximationResult(result.error, result.best_g, Fraction(1, 2) * (a + b))

    monkeypatch.setattr(module, "best_error", spread)


def fraction_certificate_audit(f: TabulatedFunction, result: ApproximationResult) -> None:
    """Reference certificate check: the ``Fraction`` audit that ended
    ``chebyshev.best_error`` before the integer ``_check_certificate``
    replaced it, built from the public residual, norm and measure
    functions."""
    error, mu = result.error, result.optimal_measure
    res = residual(f, result.best_g)
    if sup_norm(res) != error:
        raise CertificateError(f"sup |f - g| = {sup_norm(res)} differs from the error {error}")
    if not is_orthogonal(mu):
        raise CertificateError("the dual measure does not annihilate separable sums")
    if total_variation(mu) > 1:
        raise CertificateError(f"the dual measure has total variation {total_variation(mu)} > 1")
    if integrate(f, mu) != error:
        raise CertificateError(f"the dual measure integrates f to {integrate(f, mu)}, not {error}")
    for point, mass in mu.atoms:
        r = res.value_at(point)
        if abs(r) != error or (r > 0) != (mass > 0):
            raise CertificateError(
                f"dual mass {mass} at {point} sits where the residual is {r}, not +-{error}"
                " of the same sign"
            )


def reference_best_error(f: TabulatedFunction) -> ApproximationResult:
    """Reference error LP solve: ``chebyshev.best_error`` as it was before
    it wrote its rows in integers. It builds each row as ``{column:
    Fraction}`` over z and the (g+, g-) pairs, with the rhs B - f(x) and
    B + f(x), and converts every row with its own ``_int_row``
    (``lp_constraints``), as ``solve_lp`` then did; the result is read off
    and audited as in ``best_error``."""
    grid = f.grid
    sizes = grid.factor_sizes
    plus: dict[tuple[int, int], int] = {}  # (axis, value) -> column of g+; g- is next
    for axis in range(grid.n):
        for value in range(1 if axis else 0, sizes[axis]):
            plus[(axis, value)] = 2 * len(plus) + 1
    ncols = 2 * len(plus) + 1
    rows: list[dict[int, Fraction]] = []
    for point in grid.points():
        cols = [plus[key] for key in enumerate(point) if key in plus]
        for gp, gm in ((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(-1))):
            row = {0: Fraction(1)}
            for j in cols:
                row[j], row[j + 1] = gp, gm
            rows.append(row)
    bound = max(abs(v) for v in f.values) + 1
    sol = solve_lp(lp(
        (-1,) + (0,) * (ncols - 1),
        [[row.get(j, 0) for j in range(ncols)] for row in rows],
        [w for v in f.values for w in (bound - v, bound + v)],
    ))
    error = bound + sol.objective if sol.status == "optimal" else None
    if error is None or error < 0:
        raise CertificateError(f"the error LP ended {sol.status} with error {error}")
    g = {key: sol.primal[j] - sol.primal[j + 1] for key, j in plus.items()}
    tables = [[g.get((axis, v), Fraction(0)) for v in range(s)] for axis, s in enumerate(sizes)]
    atoms = ((p, sol.dual[2 * i + 1] - sol.dual[2 * i]) for i, p in enumerate(grid.points()))
    mu = FiniteSignedMeasure(grid, tuple((p, m) for p, m in atoms if m))
    result = ApproximationResult(error, SeparableSum(grid, tables), mu)
    chebyshev._check_certificate(f, result)
    return result
