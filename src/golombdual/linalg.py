"""Exact rational linear algebra: row-sparse matrices, null-space bases, and
an exact simplex solver for ``min c.x  s.t.  A x <= b,  x >= 0`` with b >= 0.

Everything is exact rational arithmetic: inputs and results are
``fractions.Fraction``, and the simplex pivots on sparse integer rows
that keep their nonzero numerators and one common denominator each. It
stores such a row only for each basic structural column, at most one per
column of A, and derives the rows of basic slacks from A's own rows when
the ratio test reads them, so a pivot's row updates grow with the columns
of A, not with its rows (the partitioned form of the revised simplex;
Dantzig and Orchard-Hays 1954). There is no floating point anywhere in
this package, so every comparison below is a decidable exact test and
results are reproducible bit for bit.

``_eliminate`` is the package's one fraction-free elimination: it clears
integer columns against a basis of earlier ones. Kernel bases, ranks, the
minimality check of a cycle, and the circuit search and the decomposition's
circuit walk (n >= 3) of ``cycles`` all run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Literal, Mapping, Sequence

Rat = Fraction

# characters occasionally pasted in place of an ASCII minus
_MINUS_VARIANTS = ("−", "–")


def parse_rat(text: str) -> Fraction:
    """Parse a rational from its canonical string form ``p/q`` (or ``p``).

    A plain decimal such as ``0.5`` is read too, but an exponent (``1e3``)
    is rejected: ``Fraction`` expands it to an integer with that many
    digits, so one value could stall the parse.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    cleaned = text.strip()
    for ch in _MINUS_VARIANTS:
        cleaned = cleaned.replace(ch, "-")
    if "e" in cleaned or "E" in cleaned:
        raise ValueError(f"not a rational: {text!r} (no exponents)")
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rat(value: Fraction | int) -> str:
    """Serialize a rational as ``p/q``, or just ``p`` when the denominator is
    1. Only an int or a Fraction is taken, as in ``_as_rat``."""
    value = _as_rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _as_rat(value: object) -> Fraction:
    """``value`` as an exact rational. Only an int (not a bool) or a
    Fraction is taken: a float would be read as its binary expansion, not
    as the decimal it was written as."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    raise ValueError(f"expected an int or a Fraction, got {value!r}")


@dataclass(frozen=True)
class RatMatrix:
    """Row-sparse matrix of rationals: ``entries[i]`` maps each column of
    row i to its value, ``{column: value}``. Every column must be an int in
    ``range(cols)`` and every value an int or a Fraction (``_as_rat``).
    Zeros are dropped, so equal matrices compare equal. The rows are stored
    as read-only copies, so the checks hold for the matrix's lifetime."""

    rows: int
    cols: int
    entries: tuple[Mapping[int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for i, row in enumerate(self.entries):
            for j in row:
                if type(j) is not int or not 0 <= j < self.cols:
                    raise ValueError(f"row {i}: column {j!r} is not an int in range({self.cols})")
        kept = ({j: v for j, a in row.items() if (v := _as_rat(a))} for row in self.entries)
        object.__setattr__(self, "entries", tuple(map(MappingProxyType, kept)))

    def row(self, i: int) -> Mapping[int, Fraction]:
        """Row i's nonzeros, ``{column: value}``."""
        return self.entries[i]


def _int_row(values: Sequence[Fraction]) -> list[int]:
    """Integer row for ``values``: the numerators over one common
    positive denominator, which is appended as the last entry. Clearing by
    the lcm of reduced denominators leaves the row in lowest terms."""
    # a list, not a generator: CPython sizes the argument tuple of a generator
    # by resizing, and one such tuple per row piles up in its tuple free list
    den = lcm(*[v.denominator for v in values])
    row = [v.numerator * (den // v.denominator) for v in values]
    row.append(den)
    return row


def _integer_columns(m: RatMatrix) -> list[list[int]]:
    """The columns of ``m`` with each row cleared of its denominators; row
    scaling changes neither the rank nor the kernel."""
    cols = [[0] * m.rows for _ in range(m.cols)]
    for i, row in enumerate(m.entries):
        for j, v in zip(row, _int_row(list(row.values()))):  # zip drops the denominator
            cols[j][i] = v
    return cols


def _eliminate(col: list[int], basis: list[tuple[int, list[int]]]) -> list[int]:
    """Clear each basis row's pivot entry from ``col``, fraction-free, in
    insertion order. Every row was cleared against the rows before it, so a
    cleared pivot stays zero and one pass leaves ``col`` zero on all pivots."""
    for piv, row in basis:
        b = col[piv]
        if b:
            a = row[piv]
            col = [a * x - b * y for x, y in zip(col, row)]
    return col


def _primitive(v: list[int], orient: bool = False) -> list[int]:
    """The nonzero integer vector ``v`` divided by the gcd of its entries;
    with ``orient``, also by the sign of its first nonzero entry, which
    makes that entry positive. Every integer relation of the package is
    made primitive here, except the conformal step's, which
    ``cycles._conformal_step`` divides itself since it returns the gcd."""
    g = gcd(*v)
    if orient and next(filter(None, v)) < 0:
        g = -g
    return [x // g for x in v]


def _basis_row(v: list[int]) -> tuple[int, list[int]]:
    """``_primitive(v)``, keyed by its first nonzero position as pivot."""
    return next(i for i, x in enumerate(v) if x), _primitive(v)


def _rank(columns: Sequence[list[int]]) -> int:
    """Exact rank of integer columns: the number that do not clear to zero
    against the columns before them."""
    basis: list[tuple[int, list[int]]] = []
    for col in columns:
        v = _eliminate(col, basis)
        if any(v):
            basis.append(_basis_row(v))
    return len(basis)


def _column_relations(columns: Sequence[list[int]]) -> list[list[int]]:
    """For each column that depends on the columns before it, ascending,
    the primitive integer relation that expresses it through them, with
    its first nonzero entry positive.

    The integer columns are cleared in order with ``_eliminate``, each
    carrying an identity tail that records which columns it combines. A
    column that clears to zero leaves its relation in that tail: nonzero at
    the column itself, zero on every other dependent column.
    """
    k = len(columns)
    basis: list[tuple[int, list[int]]] = []
    relations: list[list[int]] = []
    for j, col in enumerate(columns):
        tail = [0] * k
        tail[j] = 1
        v = _eliminate(col + tail, basis)
        if any(v[: len(col)]):
            basis.append(_basis_row(v))
            continue
        relations.append(_primitive(v[len(col) :], orient=True))
    return relations


def kernel_basis(m: RatMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Deterministic basis of the null space {v : m v = 0}.

    One vector per free column (a column that depends on the columns before
    it), free columns in ascending index order. Each vector is the relation
    that expresses its free column through the independent columns before
    it, so it is zero on every other free column; it is scaled to a
    primitive integer vector whose first nonzero entry is positive. The
    relations come from the integer columns (``_column_relations``), which
    the cycle helpers use directly; this wraps them in ``Fraction``s.
    """
    return tuple(
        tuple(Fraction(x) for x in v) for v in _column_relations(_integer_columns(m))
    )


def matrix_rank(m: RatMatrix) -> int:
    """Exact rank over the rationals, by the integer elimination without a
    tail (``_rank``) that also gives the rank of incidence columns."""
    return _rank(_integer_columns(m))


@dataclass(frozen=True)
class LpProblem:
    """The linear program ``min c.x  subject to  A x <= b,  x >= 0`` with
    ``b >= 0``: ``objective`` is c, ``matrix`` is A and ``rhs`` is b. So
    x = 0 is feasible, and every row's slack starts the simplex's basis.
    Every value must be an int or a Fraction (``_as_rat``); a negative rhs
    raises ValueError naming its row."""

    objective: tuple[Fraction, ...]
    matrix: RatMatrix
    rhs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", tuple(map(_as_rat, self.objective)))
        object.__setattr__(self, "rhs", tuple(map(_as_rat, self.rhs)))
        if len(self.objective) != self.matrix.cols:
            raise ValueError("objective length does not match column count")
        if len(self.rhs) != self.matrix.rows:
            raise ValueError("rhs length does not match row count")
        for i, b in enumerate(self.rhs):
            if b < 0:
                raise ValueError(
                    f"row {i} has rhs {b} < 0, so x = 0 is not feasible and its slack"
                    " cannot start the basis"
                )


@dataclass(frozen=True)
class LpSolution:
    """Outcome of ``solve_lp``: ``optimal`` or ``unbounded`` (x = 0 is
    always feasible).

    ``dual`` holds one multiplier y_i <= 0 per row, read from the final
    reduced costs of the rows' slack columns. At an optimum the pair is
    audited for weak duality: x >= 0, A x <= b, y <= 0, ``c - A^T y >= 0``
    and ``c.x = b.y``, which make both optimal. ``objective`` is the value
    c.x that the audit proved, so ``sum(dual[i] * rhs[i])`` equals it
    exactly.
    """

    status: Literal["optimal", "unbounded"]
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    objective: Fraction | None


_ZERO = Fraction(0)


class CertificateError(AssertionError):
    """An exact audit of a computed solution or certificate failed. The
    audits are explicit checks, so ``python -O`` does not remove them."""


_SparseRow = tuple[dict[int, int], int]
# One row of A x <= b over the lcm of its denominators: the nonzero integer
# numerators by structural column, the rhs numerator and that lcm.
_Constraint = tuple[dict[int, int], int, int]


def _row_op(cur: _SparseRow, prow: _SparseRow, col: int) -> _SparseRow:
    """``cur - cur[col] * prow`` for a pivot row whose entry at ``col`` is 1,
    in lowest terms.

    Both are sparse integer rows ``(entries, den)``: ``entries`` maps each
    column with a nonzero numerator, the rhs among them, to that numerator,
    and ``den`` is the row's positive denominator; no zero is stored. The
    result's entry at ``col`` cancels and is deleted like every other zero.
    When the pivot row's denominator is 1 the row is copied, not rescaled.
    The one gcd runs over the nonzeros and the denominator, which is the gcd
    over the dense row.
    """
    entries, den = cur
    pentries, dr = prow
    c = entries[col]
    if dr == 1:
        out = entries.copy()
    else:
        out = {k: u * dr for k, u in entries.items()}
        den *= dr
    get = out.get
    for k, v in pentries.items():
        w = get(k, 0) - c * v
        if w:
            out[k] = w
        else:
            del out[k]
    g = gcd(*out.values(), den)
    if g > 1:
        return {k: v // g for k, v in out.items()}, den // g
    return out, den


def _slack_row(
    con: _Constraint, slack: int, total: int, rows: dict[int, _SparseRow]
) -> _SparseRow:
    """The tableau row of a constraint whose slack column ``slack`` is
    basic: the constraint with its slack and rhs (column ``total``), less
    each basic structural column's stored row times the constraint's entry
    there, one ``_row_op`` per such column."""
    entries, b, den = con
    out = dict(entries)
    out[slack] = den
    if b:
        out[total] = b
    row = (out, den)
    for k in entries:
        if k in rows:
            row = _row_op(row, rows[k], k)
    return row


def _run_simplex(
    cons: list[_Constraint], cost: list[Fraction]
) -> tuple[str, _SparseRow, dict[int, _SparseRow]]:
    """Bland-rule simplex on ``cost.x`` subject to the rows ``cons`` of
    A x <= b, started from the slack basis; column j < n = ``len(cost)`` is
    structural, n + i is constraint i's slack and n + len(cons) the rhs.

    Only the rows of basic structural columns are stored, as sparse integer
    rows (``_row_op``) keyed by their basic column, whose entry equals the
    row's denominator, the integer form of 1: at most n rows however many
    constraints there are. A constraint whose slack is basic has its row
    implied by the stored ones (``_slack_row``); the ratio test derives its
    entering-column entry and rhs from the constraint's own numerators and
    the stored rows of its basic structural columns, all over one common
    denominator, and the row is built only when it leaves. Bland's rule
    (lowest eligible index for both the entering column and the leaving
    row's basic column) guarantees termination without any perturbation.
    A row's positive scale cancels in its own ratio rhs/a, so the ratio
    test compares numerators by cross-multiplication. The slacks cost 0,
    so ``cost`` is already the reduced-cost row. Returns the status, the
    final reduced costs ``z = c - c_B B^-1 A`` as a sparse integer row (its
    rhs entry is the negated objective value) and the stored rows.
    """
    n = len(cost)
    total = n + len(cons)
    den = lcm(*(c.denominator for c in cost))
    z = ({j: c.numerator * (den // c.denominator) for j, c in enumerate(cost) if c}, den)
    rows: dict[int, _SparseRow] = {}
    nonbasic: set[int] = set()  # the constraints whose slack is nonbasic
    b_num = [b for _, b, _ in cons]
    cols: dict[int, list[tuple[int, int]]] = {}  # (constraint, numerator) by column
    for i, (entries, _, _) in enumerate(cons):
        for j, v in entries.items():
            cols.setdefault(j, []).append((i, v))
    while True:
        enter = min((j for j, v in z[0].items() if v < 0 and j < total), default=None)
        if enter is None:
            return "optimal", z, rows
        # (basic column, entering-column entry a > 0, rhs b) of the stored
        # rows; the rows of basic slacks join them below
        ratios = [
            (k, entries[enter], entries.get(total, 0))
            for k, (entries, _) in rows.items()
            if entries.get(enter, 0) > 0
        ]
        # A basic slack's row is its constraint less, for each basic
        # structural column k, the constraint's entry at k times k's stored
        # row. So over the lcm of the stored rows' denominators, each
        # constraint's entering-column entry (alpha) and rhs (beta) are sums
        # over its structural entries, the entry in column j weighed by
        # enter_w[j] and rhs_w[j]; the sums run column by column.
        scale = lcm(*(d for _, d in rows.values()))
        enter_w = {enter: scale} if enter < n else {}
        rhs_w = {}
        for k, (entries, d) in rows.items():
            if enter in entries:
                enter_w[k] = -entries[enter] * (scale // d)
            if total in entries:
                rhs_w[k] = -entries[total] * (scale // d)
        alpha = [0] * len(cons)
        beta = [b * scale for b in b_num]
        for out, weights in ((alpha, enter_w), (beta, rhs_w)):
            for j, w in weights.items():
                for i, v in cols.get(j, ()):
                    out[i] += v * w
        ratios += [(n + i, a, beta[i]) for i, a in enumerate(alpha) if a > 0 and i not in nonbasic]
        if not ratios:
            return "unbounded", z, rows
        leave, best_a, best_b = ratios[0]
        for col, a, b in ratios[1:]:
            lhs, rhs = b * best_a, best_b * a
            if lhs < rhs or (lhs == rhs and col < leave):
                leave, best_a, best_b = col, a, b
        if leave < n:
            prow = rows[leave]
        else:
            prow = _slack_row(cons[leave - n], leave, total, rows)
            nonbasic.add(leave - n)
        if enter >= n:
            nonbasic.discard(enter - n)
        z = _pivot(rows, z, prow, leave, enter, n)


def _pivot(
    rows: dict[int, _SparseRow], z: _SparseRow, prow: _SparseRow, leave: int, enter: int, n: int
) -> _SparseRow:
    """Pivot on column ``enter`` of ``prow``, the row of basic column
    ``leave``, and return the updated reduced-cost row. The row is stored
    under ``enter`` when that column is structural (< n), and dropped from
    storage when a slack enters."""
    # Every row holds its basic column's entry equal to its denominator (the
    # integer form of 1), and the ratio test pivots only on a positive entry.
    # Dividing by piv / den keeps the numerators and makes piv the
    # denominator; the old den is still an entry, so the row stays in lowest
    # terms and the invariant holds for the new basic column.
    rows.pop(leave, None)
    entries = prow[0]
    prow = (entries, entries[enter])
    for k, cur in rows.items():
        if enter in cur[0]:
            rows[k] = _row_op(cur, prow, enter)
    if enter in z[0]:
        z = _row_op(z, prow, enter)
    if enter < n:
        rows[enter] = prow
    return z


def solve_lp(problem: LpProblem) -> LpSolution:
    """Exact primal simplex with Bland's anti-cycling rule for
    ``min c.x  s.t.  A x <= b,  x >= 0``, started from the slack basis at
    x = 0, which ``b >= 0`` makes feasible.

    Each row of A and b is written once as integers over the lcm of its
    denominators, and the simplex (``_run_simplex``) stores sparse integer
    tableau rows only for the basic structural columns, at most one per
    column of A, however many rows A has: the rows of basic slacks are
    derived from A when the ratio test needs them. A pivot touches no zero
    and makes no ``Fraction``. The pivots, and hence the result, are those
    of the same Bland simplex over the full tableau of dense rational rows.
    x is read from the stored rows. A row's simplex multiplier
    ``y = c_B B^-1`` is the negated final reduced cost of its slack column.
    The duals are exact. Every optimum is audited for weak duality
    (``_check_optimum``) on the same integer rows the simplex ran on: x and
    y feasible and ``c.x = b.y``. A failed audit raises CertificateError;
    the objective reported is the c.x the audit proved.
    """
    n, m = problem.matrix.cols, problem.matrix.rows
    total = n + m  # the rhs column
    cons: list[_Constraint] = []
    for arow, b in zip(problem.matrix.entries, problem.rhs):
        *nums, den = _int_row([*arow.values(), b])
        cons.append((dict(zip(arow, nums)), nums[-1], den))

    status, z, rows = _run_simplex(cons, list(problem.objective))
    if status == "unbounded":
        return LpSolution("unbounded", (), (), None)

    x = [_ZERO] * n
    for col, (entries, den) in rows.items():
        if total in entries:
            x[col] = Fraction(entries[total], den)
    # the starting basis is the identity, so row i's slack column ends with
    # reduced cost -(c_B B^-1)_i, the row's simplex multiplier
    z_entries, z_den = z
    dual = [Fraction(-v, z_den) if (v := z_entries.get(n + i)) else _ZERO for i in range(m)]
    objective = _check_optimum(cons, problem.objective, x, dual)
    return LpSolution("optimal", tuple(x), tuple(dual), objective)


def _check_optimum(cons: list[_Constraint], c: Sequence[Rat], x: list[Rat], y: list[Rat]) -> Rat:
    """Weak-duality audit of ``min c.x  s.t.  A x <= b,  x >= 0`` on the
    integer rows ``cons`` the simplex ran on: x >= 0, A x <= b, y <= 0,
    reduced costs ``c - A^T y >= 0`` and ``c.x = b.y``, which make x and y
    both optimal; returns c.x. Complementary slackness needs no check of its
    own: ``c.x - b.y = (c - A^T y).x + y.(A x - b)``, and on a pair that
    passes the first four checks both terms are >= 0, so c.x = b.y forces
    each product in them to 0. The sums run on integers: x, y and c each
    over one common denominator, and ``c - A^T y`` and ``b.y`` over the lcm
    of the denominators of the rows with y != 0 only, since an lcm over
    every row grows with coprime denominators. Raises CertificateError on
    the first violation."""
    for j, v in enumerate(x):
        if v < 0:
            raise CertificateError(f"x[{j}] = {v} is negative")
    *xs, xden = _int_row(x)
    *ys, yden = _int_row(y)
    for i, ((entries, b, den), yi) in enumerate(zip(cons, ys)):
        ax = sum(a * xs[j] for j, a in entries.items())  # A_i x times den * xden
        if ax > b * xden:
            raise CertificateError(f"row {i}: {Fraction(ax, den * xden)} > rhs {Fraction(b, den)}")
        if yi > 0:
            raise CertificateError(f"row {i}: dual {y[i]} is positive on a <= row")
    # c - A^T y and b.y over cden * rden * yden, rden the lcm of the used rows' dens
    *cs, cden = _int_row(c)
    used = [(con, yi) for con, yi in zip(cons, ys) if yi]
    rden = lcm(*(den for (_, _, den), _ in used))
    scale = rden * yden
    reduced = [v * scale for v in cs]
    by = 0
    for (entries, b, den), yi in used:
        w = yi * cden * (rden // den)
        by += b * w
        for j, a in entries.items():
            reduced[j] -= a * w
    for j, d in enumerate(reduced):
        if d < 0:
            raise CertificateError(f"column {j}: reduced cost {Fraction(d, cden * scale)} < 0")
    cx = sum(u * v for u, v in zip(cs, xs))  # c.x times cden * xden
    objective = Fraction(cx, cden * xden)
    if cx * scale != by * xden:
        raise CertificateError(f"c.x = {objective} but b.y = {Fraction(by, cden * scale)}")
    return objective
