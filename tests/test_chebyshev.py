"""Best uniform approximation by separable sums and the duality checks."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golombdual.chebyshev as chebyshev
import golombdual.cycles as cycles
from golombdual import (
    ApproximationResult,
    CertificateError,
    FiniteSignedMeasure,
    LpProblem,
    LpSolution,
    TabulatedFunction,
    MinimalCycle,
    ProductGrid,
    SeparableSum,
    best_error,
    bolt_supremum,
    cycle_functional,
    enumerate_minimal_cycles,
    integrate,
    is_orthogonal,
    normalize_minimal,
    optimal_witness_from_dual,
    report_to_json,
    residual,
    sup_norm,
    tabulate,
    total_variation,
    verify_golomb,
)

from conftest import (
    CUBE,
    FIVE_POINTS,
    SIX_CERT,
    SIX_POINTS,
    SQUARE,
    corrupt_enumeration,
    cycle_supremum_by_functional,
    forbid_cycle_search,
    fraction_certificate_audit,
    lp,
    random_separable,
    random_table,
    rational_rows,
    reference_best_error,
    table,
    two_phase_minimum,
)
from golombdual.linalg import _int_row, solve_lp

XY = table((2, 2), [0, 0, 0, 1])  # f(x, y) = x * y on {0, 1}^2


class TestBestError:
    def test_separable_input_has_zero_error(self):
        rng = random.Random(1)
        for shape in ((2, 2), (3, 3), (2, 2, 2)):
            grid = ProductGrid(shape)
            f = tabulate(random_separable(rng, grid))
            result = best_error(f)
            assert result.error == 0
            assert sup_norm(residual(f, result.best_g)) == 0

    def test_product_table(self):
        result = best_error(XY)
        assert result.error == Fraction(1, 4)
        assert sup_norm(residual(XY, result.best_g)) == Fraction(1, 4)
        assert result.optimal_measure.atoms == (
            ((0, 0), Fraction(1, 4)),
            ((0, 1), Fraction(-1, 4)),
            ((1, 0), Fraction(-1, 4)),
            ((1, 1), Fraction(1, 4)),
        )

    def test_2x2_closed_form(self):
        # On a 2x2 grid the only cycle is the square, so the error is
        # |a - b - c + d| / 4 for the table (a, b; c, d).
        rng = random.Random(2)
        for _ in range(50):
            a, b, c, d = (rng.randint(-20, 20) for _ in range(4))
            f = table((2, 2), [a, b, c, d])
            assert best_error(f).error == Fraction(abs(a - b - c + d), 4)

    def test_dual_measure_certificate(self):
        rng = random.Random(3)
        for shape in ((3, 3), (2, 2, 2), (3, 3, 2)):
            f = random_table(rng, ProductGrid(shape))
            result = best_error(f)
            mu = result.optimal_measure
            assert is_orthogonal(mu)
            assert total_variation(mu) <= 1
            assert integrate(f, mu) == result.error
            res = residual(f, result.best_g)
            for point, mass in mu.atoms:
                value = res.value_at(point)
                assert abs(value) == result.error
                assert (value > 0) == (mass > 0)

    def test_error_zero_only_for_separable(self):
        assert best_error(XY).error > 0

    def test_positive_error_measure_is_one_minimal_cycle(self):
        # the duals are a vertex of {annihilating mu, sum |mu| = 1}, whose
        # support carries a one-dimensional incidence kernel
        rng = random.Random(14)
        for shape, count in (
            ((2, 2), 4), ((3, 3), 4), ((5, 4), 3), ((2, 2, 2), 4),
            ((3, 3, 2), 3), ((4, 4, 4), 1), ((2, 2, 2, 2), 3),
        ):
            grid = ProductGrid(shape)
            for bound in (10, 1000):
                checked = 0
                while checked < count:
                    mu = best_error(random_table(rng, grid, bound)).optimal_measure
                    if mu.is_zero():
                        continue
                    assert normalize_minimal(mu.support, grid).measure() in (mu, -mu)
                    checked += 1


def error_without_bound(f: TabulatedFunction) -> Fraction:
    """min t s.t. -t <= f(x) - sum_i g_i(x_i) <= t with t and every g_i(v)
    free: the error LP with neither the bound on t nor the gauge pinning.
    Its slacks are no feasible start, so the reference two-phase simplex of
    ``conftest`` solves it."""
    sizes = f.grid.factor_sizes
    offsets = [1 + sum(sizes[:axis]) for axis in range(f.grid.n)]
    ncols = 1 + sum(sizes)
    rows, relations, rhs = [], [], []
    for point in f.grid.points():
        for sign, rel in ((1, ">="), (-1, "<=")):
            row = [0] * ncols
            row[0] = sign
            for axis, value in enumerate(point):
                row[offsets[axis] + value] = 1
            rows.append(row)
            relations.append(rel)
            rhs.append(f.value_at(point))
    value = two_phase_minimum([1] + [0] * (ncols - 1), rows, relations, rhs)
    assert isinstance(value, Fraction)
    return value


class TestErrorBound:
    """best_error bounds t by max|f| + 1, which never binds (g = 0 reaches
    t = max|f|) and lets the simplex start at a feasible basis."""

    def solve(self, f: TabulatedFunction, monkeypatch) -> Fraction:
        problems = []

        def recording_solve_lp(problem):
            problems.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(chebyshev, "solve_lp", recording_solve_lp)
        error = best_error(f).error
        (problem,) = problems
        assert problem.matrix.rows == 2 * f.grid.volume
        assert problem.objective == (-1,) + (0,) * (problem.matrix.cols - 1)
        bound = max(abs(v) for v in f.values) + 1
        assert rational_rows(problem)[1] == [w for v in f.values for w in (bound - v, bound + v)]
        assert error == error_without_bound(f)
        assert error == verify_golomb(f).cycle_supremum
        return error

    def test_seeded_tables(self, monkeypatch):
        rng = random.Random(41)
        for shape in ((2, 2), (3, 3), (4, 3), (2, 5), (2, 2, 2), (3, 2, 2)):
            for bound in (1, 10, 1000):
                self.solve(random_table(rng, ProductGrid(shape), bound), monkeypatch)

    def test_error_equal_to_max_abs(self, monkeypatch):
        f = table((2, 2), [1, -1, -1, 1])
        assert self.solve(f, monkeypatch) == 1 == max(abs(v) for v in f.values)

    def test_zero_and_separable_tables(self, monkeypatch):
        assert self.solve(table((3, 2), [0] * 6), monkeypatch) == 0
        rng = random.Random(42)
        for shape in ((3, 3), (2, 2, 2)):
            f = tabulate(random_separable(rng, ProductGrid(shape)))
            assert self.solve(f, monkeypatch) == 0

    def test_single_row_and_single_column_grids(self, monkeypatch):
        rng = random.Random(43)
        for shape in ((1, 1), (1, 5), (5, 1), (1, 3, 1)):
            assert self.solve(random_table(rng, ProductGrid(shape)), monkeypatch) == 0

    def test_all_negative_values(self, monkeypatch):
        rng = random.Random(44)
        for shape in ((3, 3), (2, 2, 2)):
            grid = ProductGrid(shape)
            values = tuple(Fraction(rng.randint(-50, -1)) for _ in range(grid.volume))
            assert self.solve(TabulatedFunction(grid, values), monkeypatch) > 0

    def test_large_denominators(self, monkeypatch):
        rng = random.Random(45)
        for shape in ((3, 3), (2, 2, 2)):
            grid = ProductGrid(shape)
            values = tuple(
                Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
                for _ in range(grid.volume)
            )
            self.solve(TabulatedFunction(grid, values), monkeypatch)


def error_lp_by_build(f: TabulatedFunction) -> LpProblem:
    """Reference error LP in standard form, built from dense rows of the LP
    over t and g: column 0 is t, then g_0(v) for every v and g_i(v) for
    v >= 1 on the later axes; per point the row t + sum g >= f(x), then
    -t + sum g <= f(x). With B = max|f| + 1, t = B - z and g = g+ - g-
    turn them into z - sum g+ + sum g- <= B - f(x) and
    z + sum g+ - sum g- <= B + f(x) over the columns z, then a (g+, g-)
    pair per g; the objective is min -z."""
    grid = f.grid
    var_of = {(0, v): 1 + v for v in range(grid.factor_sizes[0])}
    for axis in range(1, grid.n):
        for value in range(1, grid.factor_sizes[axis]):
            var_of[(axis, value)] = len(var_of) + 1
    ncols = len(var_of) + 1
    bound = max(abs(v) for v in f.values) + 1
    rows, rhs = [], []
    for point in grid.points():
        g = [0] * ncols
        for axis, value in enumerate(point):
            if (axis, value) in var_of:
                g[var_of[(axis, value)]] = 1
        value = f.value_at(point)
        # (t coefficient, g coefficient, rhs) of the >= row negated into
        # -t - sum g <= -f(x), then of the <= row; t = B - z moves
        # -(t coefficient) B to the right-hand side
        for t_coef, sign, b in ((-1, -1, -value), (-1, 1, value)):
            row = [-t_coef]
            for j in range(1, ncols):
                row += [sign * g[j], -sign * g[j]]
            rows.append(row)
            rhs.append(b - t_coef * bound)
    objective = [-1] + [0] * (2 * ncols - 2)
    return lp(objective, rows, rhs)


class TestErrorLpBuild:
    def test_problem_equals_the_built_one(self, monkeypatch):
        problems = []

        def recording_solve_lp(problem):
            problems.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(chebyshev, "solve_lp", recording_solve_lp)
        rng = random.Random(46)
        shapes = ((1, 1), (2, 2), (3, 5), (4, 4), (2, 3, 2), (3, 3, 3), (2, 2, 2, 2), (2, 1, 3, 2))
        tables = [random_table(rng, ProductGrid(s), bound) for s in shapes for bound in (1, 1000)]
        tables += [rational_table(rng, ProductGrid(s)) for s in shapes]
        for f in tables:
            best_error(f)
            got, want = problems.pop(), error_lp_by_build(f)
            # equal rational rows: each row equal up to its positive scale
            assert (got.objective, got.matrix.cols) == (want.objective, want.matrix.cols)
            assert rational_rows(got) == rational_rows(want)
            # every row is in lowest terms: its entries, rhs and denominator
            # have gcd 1, and its denominator divides f's common denominator
            den = _int_row(f.values)[-1]
            for row, rhs, d in got.matrix.entries:
                assert gcd(*row.values(), rhs, d) == 1 and den % d == 0


def rational_table(rng: random.Random, grid: ProductGrid) -> TabulatedFunction:
    """A table of values p/q with |p| <= 50 and q drawn from coprime
    denominators, so f's common denominator exceeds most of its own."""
    return TabulatedFunction(grid, tuple(
        Fraction(rng.randint(-50, 50), rng.choice(COPRIME_DENOMINATORS)) for _ in range(grid.volume)
    ))


COPRIME_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 101, 9973)


@st.composite
def oracle_tables(draw, family: str) -> TabulatedFunction:
    """A table of one of the families on which the integer error LP must
    answer as the rational one does: ``coprime`` values p/q over coprime
    denominators; ``size-1`` grids with an axis of size 1; ``separable``
    sums of rational tables, whose error is 0; and ``1e6``, integers up to
    10^6 in absolute value, with a value of exactly +-10^6."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda s: prod(s) <= 24))
    if family == "size-1":
        shape.insert(draw(st.integers(0, len(shape))), 1)
    grid = ProductGrid(tuple(shape))
    rat = st.builds(Fraction, st.integers(-50, 50), st.sampled_from(COPRIME_DENOMINATORS))
    if family == "separable":
        tables = [draw(st.lists(rat, min_size=size, max_size=size)) for size in grid.factor_sizes]
        return tabulate(SeparableSum(grid, tables))
    values = st.integers(-10**6, 10**6) if family == "1e6" else rat
    drawn = draw(st.lists(values, min_size=grid.volume, max_size=grid.volume))
    if family == "1e6":
        drawn[draw(st.integers(0, grid.volume - 1))] = draw(st.sampled_from((-10**6, 10**6)))
    return TabulatedFunction(grid, tuple(Fraction(v) for v in drawn))


class TestIntegerRowsMatchTheRationalOnes:
    """``best_error`` writes its rows in integers over f's common
    denominator; ``reference_best_error`` builds the same rows in
    ``Fraction``s and converts each on its own. The rows are the same
    rational rows, so Bland's rule makes the same pivots, and the results
    must be equal: error, best_g and measure."""

    @pytest.mark.parametrize("family", ["coprime", "size-1", "separable", "1e6"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_result_as_reference(self, family, data):
        f = data.draw(oracle_tables(family))
        result = best_error(f)
        assert result == reference_best_error(f)
        if family == "separable":
            assert result.error == 0


class TestCertificateAudits:
    """Corrupted LP output must raise CertificateError, not pass silently."""

    def corrupt(self, monkeypatch, primal=None, dual=None) -> None:
        def corrupted_solve_lp(problem):
            sol = solve_lp(problem)
            return LpSolution(
                sol.status,
                tuple(primal(sol.primal)) if primal else sol.primal,
                tuple(dual(sol.dual)) if dual else sol.dual,
                sol.objective,
            )

        monkeypatch.setattr(chebyshev, "solve_lp", corrupted_solve_lp)

    def test_corrupted_primal(self, monkeypatch):
        # move g_0(0) by 1/3: the residual no longer levels at the error
        self.corrupt(monkeypatch, primal=lambda x: (x[0], x[1] + Fraction(1, 3), *x[2:]))
        with pytest.raises(CertificateError, match="differs from the error"):
            best_error(XY)

    def test_corrupted_dual(self, monkeypatch):
        # drop the mass on the first point: the measure stops annihilating
        self.corrupt(monkeypatch, dual=lambda y: (0, 0, *y[2:]))
        with pytest.raises(CertificateError, match="annihilate"):
            best_error(XY)

    @pytest.mark.parametrize(
        "scale,check",
        [(2, "total variation 2 > 1"), (Fraction(1, 2), "integrates f to 1/8, not 1/4")],
        ids=["doubled", "halved"],
    )
    def test_scaled_dual(self, scale, check, monkeypatch):
        # a multiple of the dual measure still annihilates, but twice it
        # weighs 2 and half of it integrates f to half the error
        self.corrupt(monkeypatch, dual=lambda y: (scale * v for v in y))
        with pytest.raises(CertificateError, match=check):
            best_error(XY)

    def test_mass_on_a_zero_residual(self):
        # a separable table with its exact g has error 0; a 2x2 rectangle of
        # total variation 1 annihilates and integrates f to 0, so only
        # complementary slackness fails: it admits no mass at error 0
        g = random_separable(random.Random(21), ProductGrid((2, 3)))
        rectangle = normalize_minimal(SQUARE, g.grid).measure()
        result = ApproximationResult(Fraction(0), g, rectangle)
        with pytest.raises(CertificateError, match="sits where the residual is 0"):
            chebyshev._check_certificate(tabulate(g), result)

    def test_non_optimal_status(self, monkeypatch):
        monkeypatch.setattr(
            chebyshev, "solve_lp", lambda problem: LpSolution("unbounded", (), (), None)
        )
        with pytest.raises(CertificateError, match="unbounded"):
            best_error(XY)

    def test_witness_of_a_wrong_error(self):
        result = best_error(XY)
        wrong = ApproximationResult(Fraction(1, 3), result.best_g, result.optimal_measure)
        with pytest.raises(CertificateError, match="differs from the error 1/3"):
            optimal_witness_from_dual(XY, wrong)


def certificate_verdict(check, f: TabulatedFunction, result: ApproximationResult) -> str | None:
    """The message of the CertificateError that check(f, result) raises,
    or None when the result passes."""
    try:
        check(f, result)
    except CertificateError as exc:
        return str(exc)
    return None


@st.composite
def corrupted_results(draw) -> tuple[TabulatedFunction, ApproximationResult]:
    """A real best_error result on 1-4 axes (size-1 axes included, values
    with denominators up to 10**12, separable about a third of the time),
    left whole or with one corruption: one g value or the error moved by
    1/q, one mass scaled or moved to another point, the measure negated, or
    a 2x2 rectangle of total variation 1 added to it."""
    shape = draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: prod(s) <= 24)
    )
    grid = ProductGrid(tuple(shape))
    value = st.one_of(
        st.integers(-10, 10).map(Fraction),
        st.builds(Fraction, st.integers(-10**13, 10**13), st.integers(1, 10**12)),
    )
    if draw(st.integers(0, 2)) == 0:
        f = tabulate(SeparableSum(grid, [[draw(value) for _ in range(s)] for s in shape]))
    else:
        f = TabulatedFunction(grid, tuple(draw(value) for _ in range(grid.volume)))
    result = best_error(f)
    error, g, mu = result.error, result.best_g, result.optimal_measure
    step = Fraction(draw(st.sampled_from((1, -1))), draw(st.integers(1, 10**12)))
    kind = draw(st.sampled_from(("none", "g", "error", "scale", "move", "negate", "rectangle")))
    atoms = list(mu.atoms)
    if kind == "g":
        axis = draw(st.integers(0, grid.n - 1))
        at = draw(st.integers(0, shape[axis] - 1))
        tables = [list(t) for t in g.tables]
        tables[axis][at] += step
        g = SeparableSum(grid, tables)
    elif kind == "error":
        error += step
    elif kind in ("scale", "move") and atoms:
        i = draw(st.integers(0, len(atoms) - 1))
        point, mass = atoms.pop(i)
        if kind == "scale":
            factor = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 4)))
            atoms.append((point, factor * mass))
        else:
            atoms.append((tuple(draw(st.integers(0, s - 1)) for s in shape), mass))
        mu = FiniteSignedMeasure.from_atoms(grid, atoms)
    elif kind == "negate":
        mu = -mu
    elif kind == "rectangle" and sum(s > 1 for s in shape) >= 2:
        a, b = [axis for axis, s in enumerate(shape) if s > 1][:2]
        corner = [draw(st.integers(0, s - 1)) for s in shape]
        pairs = []
        for da, db, sign in ((0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 1, 1)):
            point = list(corner)
            point[a], point[b] = (corner[a] + da) % shape[a], (corner[b] + db) % shape[b]
            pairs.append((tuple(point), Fraction(sign, 4)))
        mu = mu + FiniteSignedMeasure.from_atoms(grid, pairs)
    return f, ApproximationResult(error, g, mu)


class TestCertificateCheck:
    """The integer certificate check against the Fraction audit it replaced
    (``conftest.fraction_certificate_audit``): on real and corrupted results
    both pass, or both fail with the same message, so at the same first
    check."""

    @settings(max_examples=150, deadline=None)
    @given(corrupted_results())
    def test_same_verdict_as_the_fraction_audit(self, case):
        f, result = case
        assert certificate_verdict(chebyshev._check_certificate, f, result) == (
            certificate_verdict(fraction_certificate_audit, f, result)
        )

    def test_every_corruption_kind_is_caught_on_the_product_table(self):
        result = best_error(XY)
        mu = result.optimal_measure
        moved = FiniteSignedMeasure.from_atoms(XY.grid, [*mu.atoms[1:], ((0, 1), mu.atoms[0][1])])
        cases = [
            (result.error + Fraction(1, 10**12), result.best_g, mu, "differs from the error"),
            (result.error, result.best_g, moved, "annihilate"),
            (result.error, result.best_g, 2 * mu, "total variation 2 > 1"),
            (result.error, result.best_g, -mu, "integrates f to -1/4, not 1/4"),
        ]
        for error, g, measure, message in cases:
            with pytest.raises(CertificateError, match=message):
                chebyshev._check_certificate(XY, ApproximationResult(error, g, measure))

    def test_grid_mismatch(self):
        result = best_error(XY)
        g = SeparableSum.zero(ProductGrid((2, 3)))
        other = ApproximationResult(result.error, g, result.optimal_measure)
        with pytest.raises(ValueError, match="grid mismatch"):
            chebyshev._check_certificate(XY, other)


class TestCycleFunctional:
    def test_separable_gives_zero_on_every_cycle(self):
        rng = random.Random(4)
        grid = ProductGrid((3, 3))
        f = tabulate(random_separable(rng, grid))
        for cycle in enumerate_minimal_cycles(grid):
            assert cycle_functional(f, cycle) == 0

    def test_product_table_on_the_square(self):
        mc = normalize_minimal(SQUARE, ProductGrid((2, 2)))
        assert cycle_functional(XY, mc) == Fraction(1, 4)

    def test_indicator_against_five_point_cycle(self):
        mc = normalize_minimal(FIVE_POINTS, CUBE)
        values = [0] * CUBE.volume
        values[0] = 1  # mass sits at (0, 0, 0)
        f = table((2, 2, 2), values)
        assert cycle_functional(f, mc) == Fraction(1, 3)

    def test_orientation_independent(self):
        rng = random.Random(6)
        for shape in ((2, 2), (3, 3), (2, 2, 2)):
            grid = ProductGrid(shape)
            f = random_table(rng, grid)
            for mc in enumerate_minimal_cycles(grid):
                flipped = MinimalCycle(grid, mc.points, tuple(-w for w in mc.weights))
                expected = abs(integrate(f, mc.measure()))
                assert cycle_functional(f, mc) == expected
                assert cycle_functional(f, flipped) == expected

    def test_grid_mismatch(self):
        mc = normalize_minimal(SQUARE, ProductGrid((2, 2)))
        with pytest.raises(ValueError, match="grid mismatch"):
            cycle_functional(table((3, 3), range(9)), mc)

    def test_never_exceeds_best_error(self):
        rng = random.Random(7)
        grid = ProductGrid((3, 3))
        for _ in range(10):
            f = random_table(rng, grid)
            error = best_error(f).error
            for cycle in enumerate_minimal_cycles(grid):
                assert cycle_functional(f, cycle) <= error


class TestVerifyGolomb:
    def test_separable_reports_equality_at_zero(self):
        rng = random.Random(8)
        f = tabulate(random_separable(rng, ProductGrid((3, 3))))
        report = verify_golomb(f)
        assert report.equal
        assert report.error == 0
        assert report.cycle_supremum == 0
        assert report.witness is None
        assert report.enumerated

    def test_product_table_reports_square_witness(self):
        report = verify_golomb(XY)
        assert report.equal
        assert report.error == Fraction(1, 4)
        assert report.cycle_supremum == Fraction(1, 4)
        assert report.cycles_examined == 1
        assert report.witness == normalize_minimal(SQUARE, ProductGrid((2, 2)))

    def test_random_instances_verify(self):
        rng = random.Random(9)
        for shape in ((3, 3), (2, 2, 2), (3, 2, 2)):
            for _ in range(5):
                f = random_table(rng, ProductGrid(shape))
                report = verify_golomb(f)
                assert report.equal
                assert report.cycles_examined > 0

    def test_budget_exhaustion_reports_not_enumerated(self, monkeypatch):
        # verify_golomb reads DEFAULT_ENUM_BUDGET when it is called: at 1 the
        # search itself stops after one candidate, and with none it finishes
        f = random_table(random.Random(10), ProductGrid((3, 3)))
        monkeypatch.setattr(chebyshev, "DEFAULT_ENUM_BUDGET", 1)
        report = verify_golomb(f)
        assert not report.enumerated
        assert not report.complete
        assert not report.equal
        assert report.cycle_supremum is None
        assert report.witness is None
        assert report.cycles_examined == 0
        monkeypatch.setattr(chebyshev, "DEFAULT_ENUM_BUDGET", None)
        assert verify_golomb(f).enumerated

    def test_support_cap_can_miss_the_witness(self):
        report = verify_golomb(XY, max_support=3)
        assert report.enumerated
        assert not report.equal
        assert report.cycle_supremum == 0
        assert not report.complete

    def test_complete_without_a_cap(self):
        rng = random.Random(11)
        for shape in ((3, 3), (2, 2, 2), (1, 4)):
            report = verify_golomb(random_table(rng, ProductGrid(shape)))
            assert report.enumerated and report.complete and report.equal

    @pytest.mark.parametrize("shape,largest", [
        # rank + 1 = sum(s_i) - n + 2 points, or |grid| when that is fewer
        ((3, 3), 6), ((2, 2, 2), 5), ((4, 2), 6), ((1, 3), 3), ((1, 1, 2), 2),
    ])
    def test_complete_needs_a_cap_of_the_largest_cycle_size(self, shape, largest):
        f = random_table(random.Random(12), ProductGrid(shape))
        for cap in range(2, largest + 2):
            report = verify_golomb(f, max_support=cap)
            assert report.enumerated
            assert report.complete == (cap >= largest)
            if report.complete:
                assert report.equal

    def test_support_cap_below_two_is_rejected(self):
        # a cap below 2 scans nothing, so there is no supremum to compare
        for cap in (-3, 0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                verify_golomb(XY, max_support=cap)

    def test_support_cap_is_rejected_before_the_lp(self, monkeypatch):
        def no_lp(f):
            raise AssertionError("the error LP was solved")

        monkeypatch.setattr(chebyshev, "best_error", no_lp)
        f = random_table(random.Random(5), ProductGrid((12, 12)))
        for cap in (-3, 0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                verify_golomb(f, max_support=cap)

    def test_report_json(self):
        obj = report_to_json(verify_golomb(XY))
        assert obj["error"] == "1/4"
        assert obj["cycle_supremum"] == "1/4"
        assert obj["equal"] is True
        assert obj["enumerated"] is True
        assert obj["complete"] is True
        assert obj["cycles_examined"] == 1
        assert obj["witness"]["lambda"] == ["1/4", "-1/4", "-1/4", "1/4"]


# denominators that share no factor with each other
COPRIME_DENS = (999983, 1000003, 2**31 - 1, 3**13, 2**20)
SMALL_SHAPES = ((2, 2), (2, 3), (3, 3), (1, 4), (1, 2, 3), (2, 1, 2), (2, 2, 2))


def coprime_rational_table(rng: random.Random, grid: ProductGrid) -> TabulatedFunction:
    values = tuple(
        Fraction(rng.randint(-10**6, 10**6), rng.choice(COPRIME_DENS))
        for _ in range(grid.volume)
    )
    return TabulatedFunction(grid, values)


VALUES = st.one_of(
    st.integers(-10, 10).map(Fraction),
    st.integers(-10**12, 10**12).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(COPRIME_DENS)),
)


@st.composite
def drawn_tables(draw) -> tuple[TabulatedFunction, int | None]:
    """A table on a small grid, separable about a third of the time, with
    an optional support cap."""
    grid = ProductGrid(draw(st.sampled_from(SMALL_SHAPES)))
    if draw(st.integers(0, 2)) == 0:
        tables = tuple(tuple(draw(VALUES) for _ in range(s)) for s in grid.factor_sizes)
        f = tabulate(SeparableSum(grid, tables))
    else:
        f = TabulatedFunction(grid, tuple(draw(VALUES) for _ in range(grid.volume)))
    return f, draw(st.one_of(st.none(), st.integers(2, 6)))


class TestIntegerSupremum:
    """verify_golomb takes the supremum on the circuit search's integer
    relations and builds only the witness. It must agree with the per-cycle
    loop it replaced (``conftest.cycle_supremum_by_functional``) on the
    supremum, the witness and the number of cycles examined."""

    def check(self, f: TabulatedFunction, max_support: int | None = None):
        supremum, witness, count = cycle_supremum_by_functional(f, max_support)
        hits, _, _ = cycles._enumerate(f.grid, None, max_support, None)
        assert chebyshev._cycle_supremum(f, hits) == (supremum, witness)
        report = verify_golomb(f, max_support=max_support)
        assert report.cycle_supremum == supremum
        assert report.cycles_examined == count
        if report.equal and report.error > 0:
            assert report.witness == witness
        else:
            assert report.witness is None
        return report

    @pytest.mark.parametrize("shape", SMALL_SHAPES + ((3, 4), (3, 3, 2), (2, 2, 2, 2)))
    def test_seeded_integer_tables(self, shape):
        rng = random.Random(4141)
        for _ in range(3):
            assert self.check(random_table(rng, ProductGrid(shape))).equal

    def test_separable_tables_have_no_witness(self):
        rng = random.Random(4142)
        for shape in SMALL_SHAPES:
            report = self.check(tabulate(random_separable(rng, ProductGrid(shape))))
            assert report.error == report.cycle_supremum == 0
            assert report.witness is None and report.equal

    def test_large_coprime_denominators(self):
        rng = random.Random(4143)
        for shape in ((3, 3), (2, 2, 2), (3, 4)):
            assert self.check(coprime_rational_table(rng, ProductGrid(shape))).equal

    def test_values_of_a_million_and_more(self):
        rng = random.Random(4144)
        for shape in ((3, 3), (2, 2, 2), (1, 2, 3)):
            assert self.check(random_table(rng, ProductGrid(shape), bound=10**9)).equal

    def test_capped_support(self):
        rng = random.Random(4145)
        for shape in ((3, 3), (2, 2, 2), (3, 4)):
            f = random_table(rng, ProductGrid(shape))
            for cap in range(2, 8):
                self.check(f, cap)

    @settings(max_examples=40, deadline=None)
    @given(drawn_tables())
    def test_drawn_tables(self, case):
        f, cap = case
        self.check(f, cap)


class TestOnlyTheWitnessIsBuilt:
    def count_builds(self, monkeypatch) -> list[tuple]:
        calls: list[tuple] = []
        real = cycles._normalized_cycle

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cycles, "_normalized_cycle", counted)
        monkeypatch.setattr(chebyshev, "_normalized_cycle", counted)
        return calls

    @pytest.mark.parametrize("shape", ((3, 3, 2), (3, 4)))
    def test_one_cycle_for_a_positive_error_none_for_zero(self, shape, monkeypatch):
        calls = self.count_builds(monkeypatch)
        grid = ProductGrid(shape)
        rng = random.Random(4146)
        tables = (random_table(rng, grid), tabulate(random_separable(rng, grid)))
        errors = []
        for f in tables:
            calls.clear()
            report = verify_golomb(f)
            assert report.equal
            assert len(calls) == (1 if report.error > 0 else 0)
            errors.append(report.error)
        if grid.n == 2:
            # bolt_supremum searches no cycle: it builds one MinimalCycle,
            # the dual vertex's, and none at error 0
            forbid_cycle_search(monkeypatch)
            real = chebyshev.MinimalCycle
            monkeypatch.setattr(chebyshev, "MinimalCycle", lambda *args: calls.append(args) or real(*args))
            for f, error in zip(tables, errors):
                calls.clear()
                assert bolt_supremum(f) == error
                assert len(calls) == (1 if error > 0 else 0)


class TestWitnessAudit:
    """The witness of the integer supremum is audited: a relation that is
    not a minimal cycle, or a functional that disagrees, is a certificate
    error."""

    def test_corrupted_relation_fails_the_audit(self, monkeypatch):
        f = random_table(random.Random(4147), ProductGrid((3, 3)))
        assert verify_golomb(f).equal
        corrupt_enumeration(monkeypatch, chebyshev)
        with pytest.raises(CertificateError, match="not a minimal cycle"):
            verify_golomb(f)

    def test_corrupted_relation_exits_three(self, tmp_path, monkeypatch, capsys):
        from golombdual.cli import main

        path = tmp_path / "f.json"
        assert main(["gen", "--shape", "3x3", "--seed", "4", "--output", str(path)]) == 0
        corrupt_enumeration(monkeypatch, chebyshev)
        out = tmp_path / "report.json"
        assert main(["verify", "--input", str(path), "--output", str(out)]) == 3
        assert capsys.readouterr().err.startswith("certificate error: ")
        assert not out.exists()

    def test_a_cycle_that_is_not_minimal_fails_the_audit(self):
        f = random_table(random.Random(4148), CUBE)
        with pytest.raises(CertificateError, match="not a minimal cycle"):
            chebyshev._cycle_supremum(f, [(SIX_POINTS, list(SIX_CERT))])

    def test_a_functional_that_disagrees_fails_the_audit(self, monkeypatch):
        monkeypatch.setattr(chebyshev, "cycle_functional", lambda f, c: Fraction(-1))
        with pytest.raises(CertificateError, match="is not the supremum"):
            verify_golomb(XY)


class TestOptimalWitness:
    def test_product_table_witness_is_the_square(self):
        cycle, dec = optimal_witness_from_dual(XY)
        assert cycle == normalize_minimal(SQUARE, ProductGrid((2, 2)))
        assert len(dec.terms) == 1
        assert dec.terms[0][0] == 1
        assert cycle_functional(XY, cycle) == Fraction(1, 4)

    def test_witness_achieves_the_error_on_random_tables(self):
        rng = random.Random(11)
        grid = ProductGrid((3, 3))
        checked = 0
        while checked < 10:
            f = random_table(rng, grid)
            result = best_error(f)
            if result.error == 0:
                continue
            cycle, dec = optimal_witness_from_dual(f, result)
            assert cycle_functional(f, cycle) == result.error
            assert sum(w for w, _ in dec.terms) == 1
            assert any(c == cycle for _, c in dec.terms)
            checked += 1

    def test_scaling_doubles_the_functional(self):
        cycle, _ = optimal_witness_from_dual(XY)
        doubled = XY * 2
        cycle2, _ = optimal_witness_from_dual(doubled)
        assert cycle_functional(doubled, cycle2) == Fraction(1, 2)
        assert cycle_functional(doubled, cycle) == Fraction(1, 2)

    def test_rejects_zero_error(self):
        f = table((2, 2), [0, 0, 0, 0])
        with pytest.raises(ValueError):
            optimal_witness_from_dual(f)

    def test_rejects_a_measure_spread_over_two_cycles(self):
        # the 4x4 identity: the squares on the two diagonal 2x2 blocks both
        # integrate f to the error, and so does their even mixture
        f = table((4, 4), [1 if x == y else 0 for x in range(4) for y in range(4)])
        grid = f.grid
        a = normalize_minimal(SQUARE, grid).measure()
        b = normalize_minimal([(x + 2, y + 2) for x, y in SQUARE], grid).measure()
        mixed = Fraction(1, 2) * a + Fraction(1, 2) * b
        result = best_error(f)
        assert integrate(f, a) == integrate(f, b) == integrate(f, mixed) == result.error
        hand_built = ApproximationResult(result.error, result.best_g, mixed)
        with pytest.raises(ValueError):
            optimal_witness_from_dual(f, hand_built)

    def test_the_certificate_is_audited_once(self, monkeypatch):
        # best_error audits the result it solves; a result the caller passes
        # is audited by optimal_witness_from_dual itself
        result = best_error(XY)
        calls = []
        real = chebyshev._check_certificate

        def counted(f, result):
            calls.append(1)
            real(f, result)

        monkeypatch.setattr(chebyshev, "_check_certificate", counted)
        for args in ((XY,), (XY, result)):
            calls.clear()
            optimal_witness_from_dual(*args)
            assert len(calls) == 1


class TestInvariance:
    def test_translation_by_separable_sums(self):
        rng = random.Random(12)
        grid = ProductGrid((3, 3))
        f = random_table(rng, grid)
        base = best_error(f).error
        for _ in range(3):
            g = tabulate(random_separable(rng, grid))
            assert best_error(f + g).error == base

    def test_scaling(self):
        rng = random.Random(13)
        grid = ProductGrid((2, 2, 2))
        f = random_table(rng, grid)
        base = best_error(f).error
        assert best_error(f * -2).error == 2 * base
        assert best_error(f * Fraction(1, 2)).error == base / 2
