"""Best uniform approximation by separable sums, exactly, with duality
certificates.

The distance from f to the separable sums is the optimal value of the linear
program  min t  s.t.  -t <= f(x) - sum_i g_i(x_i) <= t  over all grid points,
solved here in exact rational arithmetic. The dual solution assembles into an
annihilating measure of total variation at most 1 whose integral against f
equals the error; the duality formula says the same value is the supremum of
|integral of f| over normalized minimal-cycle measures, and verify_golomb
checks that equality literally, by enumeration.

For a positive error the duals y = c_B B^-1 are a vertex, and complementary
slackness leaves mass on at most one of a point's two rows (both tight
means t = -t = 0), so the measure is a vertex of {annihilating mu,
sum |mu| = 1}. Its support has a one-dimensional kernel: it is one
normalized minimal-cycle measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from math import gcd

from .cycles import (
    Decomposition,
    MinimalCycle,
    _enumerate,
    _normalized_cycle,
    pair_to_json,
)
from .grids import GridPoint, SeparableSum, TabulatedFunction, _same_grid, point_index
from .linalg import CertificateError, LpProblem, LpRows, _int_row, format_rat, solve_lp
from .measures import FiniteSignedMeasure, _class_sums_vanish

DEFAULT_ENUM_BUDGET = 1 << 20

_F0, _FM1 = Fraction(0), Fraction(-1)


@dataclass(frozen=True)
class ApproximationResult:
    """Exact error, a best separable approximation, and an optimal dual
    measure (annihilating, total variation <= 1, integral equal to the
    error), which is one minimal-cycle measure when the error is positive."""

    error: Fraction
    best_g: SeparableSum
    optimal_measure: FiniteSignedMeasure


@dataclass(frozen=True)
class GolombReport:
    """Outcome of the duality check. When the enumeration budget is exceeded
    no verdict is made: enumerated is False, cycle_supremum and witness are
    None, and equal is False. complete is True only when every minimal
    cycle was examined: the search was not cut short and no support cap
    fell below the largest size a cycle can have, so only then does
    equal = False refute the duality."""

    error: Fraction
    cycle_supremum: Fraction | None
    witness: MinimalCycle | None
    cycles_examined: int
    equal: bool
    enumerated: bool = True
    complete: bool = False


def best_error(f: TabulatedFunction) -> ApproximationResult:
    """Distance from f to the separable sums in the uniform norm, via an
    exact LP.

    The LP is min t s.t. -t <= f(x) - sum_i g_i(x_i) <= t at every grid
    point, over t and the table values g_i(value); the gauge freedom of
    shifting constants between axes is removed by pinning g_i(0) = 0 on
    every axis after the first. It is written here in the one form that
    solve_lp takes, min c.x s.t. A x <= b, x >= 0, b >= 0. With
    B = max|f| + 1, column 0 is z = B - t, and each g variable is an
    adjacent pair of columns (g+, g-) with g = g+ - g-. Each grid point
    contributes the row z - sum g+ + sum g- <= B - f(x), then the row
    z + sum g+ - sum g- <= B + f(x), and the LP minimizes -z, so the error
    is B plus its value. Both rhs are at least 1, so the simplex starts from
    the slack basis at t = B, g = 0, and the row count stays 2 |grid|. The
    rows are written once, in integers (``LpRows``): entries +-D, rhs
    D B -+ D f(x) and denominator D over f's common denominator D, each row
    divided by the gcd of D and its rhs, so that it is in lowest terms.

    z >= 0 bounds t by B, which never binds: g = 0 with t = max|f| is
    feasible, so the optimum has t <= max|f| and z >= 1. So z is basic with
    reduced cost 0 and the row multipliers y <= 0 sum to -1. The dual
    measure puts y(second row) - y(first row) at each point. A positive
    error makes it one minimal-cycle measure (module docstring); at error 0
    it need not be. Every result is audited exactly by _check_certificate;
    a failed audit raises CertificateError.
    """
    grid = f.grid
    sizes = grid.factor_sizes
    plus: dict[tuple[int, int], int] = {}  # (axis, value) -> column of g+; g- is next
    for axis in range(grid.n):
        for value in range(1 if axis else 0, sizes[axis]):
            plus[(axis, value)] = 2 * len(plus) + 1
    ncols = 2 * len(plus) + 1

    # over f's common denominator D, with F = D f and D B = max|F| + D
    *values, den = _int_row(f.values)
    top = max(map(abs, values)) + den
    rows: list[tuple[dict[int, int], int, int]] = []
    for point, v in zip(grid.points(), values):
        cols = [plus[key] for key in enumerate(point) if key in plus]
        for sign, b in ((-1, top - v), (1, top + v)):
            k = gcd(den, b)  # the row +-den, b over den in lowest terms
            row = {0: den // k}
            for j in cols:
                row[j], row[j + 1] = sign * den // k, -sign * den // k
            rows.append((row, b // k, den // k))
    sol = solve_lp(LpProblem((_FM1,) + (_F0,) * (ncols - 1), LpRows(ncols, tuple(rows))))
    # g = 0, t = max|f| is feasible and t >= 0 on every feasible point
    error = Fraction(top, den) + sol.objective if sol.status == "optimal" else None
    if error is None or error < 0:
        raise CertificateError(f"the error LP ended {sol.status} with error {error}")

    g = {key: sol.primal[j] - sol.primal[j + 1] for key, j in plus.items()}
    tables = [[g.get((axis, v), _F0) for v in range(s)] for axis, s in enumerate(sizes)]
    best_g = SeparableSum(grid, tables)
    dual = sol.dual  # point i's rows are 2i and 2i + 1; most points have both multipliers 0
    atoms = ((p, hi - lo) for p, lo, hi in zip(grid.points(), dual[::2], dual[1::2]) if lo or hi)
    mu = FiniteSignedMeasure(grid, tuple((p, m) for p, m in atoms if m))
    result = ApproximationResult(error=error, best_g=best_g, optimal_measure=mu)
    _check_certificate(f, result)
    return result


def _check_certificate(f: TabulatedFunction, result: ApproximationResult) -> None:
    """Weak duality, checked exactly: sup |f - g| equals the error E, and mu
    annihilates separable sums, has total variation at most 1 and
    integrates f to E. Then no separable sum is closer to f than E, and
    best_g attains it. A failed check raises CertificateError.

    f, the g tables and E share one common denominator and the masses have
    their own, so every check compares integers; the residual is a flat
    list in row-major order, read at each atom's flat index.

    The last check, complementary slackness (each atom sits where the
    residual is +-E with the mass's sign), can fail only at E = 0. Since mu
    annihilates g, E = int f dmu = sum m_i r_i <= sum |m_i| E <= E, so for
    E > 0 the first four checks force |r_i| = E and sign(r_i) = sign(m_i)
    on the support. At E = 0 every r_i is 0, so it admits no positive mass,
    and an annihilating measure without one is empty, which is the measure
    the LP returns for a separable table.
    """
    grid, g, mu, error = f.grid, result.best_g, result.optimal_measure, result.error
    _same_grid(f, g, mu)
    *ints, e, den = _int_row([*f.values, *(v for t in g.tables for v in t), error])
    rest = iter(ints[grid.volume :])
    tables = [list(islice(rest, size)) for size in grid.factor_sizes]
    # product runs over the points in row-major order; zip stops at the volume
    res = [v - sum(gs) for v, gs in zip(ints, product(*tables))]
    sup = max(map(abs, res))
    if sup != e:
        raise CertificateError(f"sup |f - g| = {Fraction(sup, den)} differs from the error {error}")
    *masses, mden = _int_row([m for _, m in mu.atoms])
    if not _class_sums_vanish(mu.support, masses, grid.n):
        raise CertificateError("the dual measure does not annihilate separable sums")
    tv = sum(map(abs, masses))
    if tv > mden:
        raise CertificateError(f"the dual measure has total variation {Fraction(tv, mden)} > 1")
    flat = [point_index(grid, p) for p in mu.support]
    integral = sum(m * ints[i] for m, i in zip(masses, flat))
    if integral != e * mden:
        raise CertificateError(
            f"the dual measure integrates f to {Fraction(integral, mden * den)}, not {error}"
        )
    for (point, mass), i in zip(mu.atoms, flat):
        if abs(res[i]) != e or (res[i] > 0) != (mass > 0):
            raise CertificateError(
                f"dual mass {mass} at {point} sits where the residual is {Fraction(res[i], den)},"
                f" not +-{error} of the same sign"
            )


def cycle_functional(f: TabulatedFunction, cycle: MinimalCycle) -> Fraction:
    """|integral of f| against the cycle's normalized measure: the exact sum
    over its own distinct points and weights, which have total mass 1."""
    _same_grid(f, cycle)
    return abs(sum((w * f.value_at(p) for p, w in zip(cycle.points, cycle.weights)), _F0))


def _cycle_supremum(
    f: TabulatedFunction, hits: list[tuple[tuple[GridPoint, ...], list[int]]]
) -> tuple[Fraction, MinimalCycle | None]:
    """The largest cycle functional of f over ``_enumerate``'s hits, with the
    first cycle, in their order, that attains it (None when it is 0).

    Over f's common denominator D a hit scores the integers |sum n_i F(x_i)|
    and sum |n_i|, compared by cross-multiplication. Only the witness is
    built; a failed MinimalCycle check or functional raises CertificateError.
    """
    *values, den = _int_row(f.values)
    value_at = dict(zip(f.grid.points(), values))
    best, mass, arg = 0, 1, None
    for points, relation in hits:
        value = abs(sum(n * value_at[p] for n, p in zip(relation, points)))
        total = sum(map(abs, relation))
        if value * mass > best * total:
            best, mass, arg = value, total, (points, relation)
    supremum = Fraction(best, mass * den)
    if arg is None:
        return supremum, None
    witness = _normalized_cycle(*arg, f.grid)
    functional = cycle_functional(f, witness)
    if functional != supremum:
        raise CertificateError(f"the witness's functional {functional} is not the supremum {supremum}")
    return supremum, witness


def verify_golomb(f: TabulatedFunction, max_support: int | None = None) -> GolombReport:
    """Check the duality formula on f's grid: the best-approximation error
    must equal the maximum of |integral of f| over all minimal cycles.

    Each call searches afresh and takes the maximum on the integer relations,
    building only the witness (``_cycle_supremum``). DEFAULT_ENUM_BUDGET,
    read at call time, caps the search's candidates (point sets whose
    independence was tested); past it the report says so instead of
    guessing a verdict. The enumeration runs
    first, so a support cap below 2 is rejected before the LP is solved.

    A minimal cycle is a circuit of the incidence columns, so it has at most
    rank + 1 points, and at most |grid|; the full grid's incidence has rank
    sum(s_i) - n + 1, the dimension of the separable sums. A cap at least
    that large misses no cycle, and the report is complete.
    """
    hits, _, truncated = _enumerate(f.grid, None, max_support, DEFAULT_ENUM_BUDGET)
    sizes = f.grid.factor_sizes
    largest = min(sum(sizes) - len(sizes) + 2, f.grid.volume)
    complete = not truncated and (max_support is None or max_support >= largest)
    result = best_error(f)
    if truncated:
        return GolombReport(error=result.error, cycle_supremum=None, witness=None,
                            cycles_examined=0, equal=False, enumerated=False)
    supremum, witness = _cycle_supremum(f, hits)
    equal = supremum == result.error
    if not (equal and result.error > 0):
        witness = None
    return GolombReport(
        error=result.error,
        cycle_supremum=supremum,
        witness=witness,
        cycles_examined=len(hits),
        equal=equal,
        complete=complete,
    )


def optimal_witness_from_dual(
    f: TabulatedFunction, result: ApproximationResult | None = None
) -> tuple[MinimalCycle, Decomposition]:
    """A minimal cycle achieving the error. For a positive error the dual
    measure is one normalized minimal-cycle measure (module docstring), read
    off by ``_dual_cycle`` as the witness and its one-term decomposition;
    any other measure raises ValueError. The witness's weights are the
    measure's masses, so the certificate check on ``result`` is the check
    that the witness's functional equals the error. It runs once: on a
    ``result`` the caller passes, here, and otherwise in ``best_error``.
    """
    if result is None:
        result = best_error(f)
    else:
        _check_certificate(f, result)
    if result.error == 0:
        raise ValueError("zero error: every annihilating measure integrates f to 0")
    cycle = _dual_cycle(result)
    return cycle, Decomposition(((Fraction(1), cycle),))


def _dual_cycle(result: ApproximationResult) -> MinimalCycle:
    """The dual measure of a positive-error result as the one normalized
    minimal cycle it is (module docstring), its weights the measure's
    masses. MinimalCycle re-checks it exactly; any other measure raises
    ValueError."""
    return MinimalCycle(result.optimal_measure.grid, *zip(*result.optimal_measure.atoms))


def report_to_json(report: GolombReport) -> dict:
    return {
        "error": format_rat(report.error),
        "cycle_supremum": None
        if report.cycle_supremum is None
        else format_rat(report.cycle_supremum),
        "equal": report.equal,
        "witness": None if report.witness is None else pair_to_json(report.witness),
        "cycles_examined": report.cycles_examined,
        "enumerated": report.enumerated,
        "complete": report.complete,
    }
