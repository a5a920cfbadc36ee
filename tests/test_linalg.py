"""Rational parsing, matrices, kernel bases, and the exact LP solver."""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golombdual import (
    CertificateError,
    LpProblem,
    RatMatrix,
    format_rat,
    kernel_basis,
    matrix_rank,
    parse_rat,
    solve_lp,
)
from golombdual import chebyshev, linalg
from golombdual.linalg import _check_optimum, _int_row, _run_simplex

import conftest
from conftest import (
    CUBE,
    FIVE_POINTS,
    SQUARE,
    bareiss_kernel_basis,
    bareiss_rank,
    dense_matrix_row,
    dense_row,
    lp,
    lp_constraints,
    reference_check_optimum,
    random_table,
    rat_matrix,
    sparse_row,
)

from golombdual import ProductGrid, best_error, incidence_matrix


class TestRationalStrings:
    def test_parse_plain_integer(self):
        assert parse_rat("5") == Fraction(5)
        assert parse_rat("0") == Fraction(0)
        assert parse_rat("-17") == Fraction(-17)

    def test_parse_fraction(self):
        assert parse_rat("3/4") == Fraction(3, 4)
        assert parse_rat("-3/4") == Fraction(-3, 4)

    def test_parse_unicode_minus(self):
        assert parse_rat("−3/4") == Fraction(-3, 4)

    def test_parse_reduces(self):
        assert parse_rat("6/8") == Fraction(3, 4)

    @pytest.mark.parametrize(
        "bad", ["", "abc", "1/0", "1/2/3", "1..5", "1e3", "2E-1", "1e999999999"]
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    def test_parse_plain_decimal(self):
        assert parse_rat("0.5") == Fraction(1, 2)
        assert parse_rat("-1.25") == Fraction(-5, 4)

    def test_parse_rejects_non_string(self):
        with pytest.raises(ValueError):
            parse_rat(3)

    def test_format_integer_omits_denominator(self):
        assert format_rat(Fraction(7)) == "7"
        assert format_rat(0) == "0"
        assert format_rat(Fraction(-2)) == "-2"

    def test_format_fraction(self):
        assert format_rat(Fraction(-3, 4)) == "-3/4"
        assert format_rat(Fraction(10, 4)) == "5/2"

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rat(format_rat(q)) == q

    @pytest.mark.parametrize("bad", [0.1, True, "1/4"], ids=["float", "bool", "string"])
    def test_format_rejects_values_that_are_not_ints_or_fractions(self, bad):
        with pytest.raises(ValueError, match="int or a Fraction"):
            format_rat(bad)


class TestRatMatrix:
    def test_from_rows(self):
        m = rat_matrix([[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.entries == ({0: 1, 1: 2}, {0: 3, 1: 4})
        assert m.row(1) == {0: Fraction(3), 1: Fraction(4)}
        assert all(type(v) is Fraction for row in m.entries for v in row.values())
        assert [dense_matrix_row(m, i) for i in range(2)] == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("rows, cols", [(-1, 0), (0, -1)])
    def test_negative_dimensions_are_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="matrix dimensions must be nonnegative"):
            RatMatrix(rows, cols, ())

    def test_entry_count_checked(self):
        # one mapping per row, so the row count must match ``rows``
        for entries in (({0: 1},) * 3, ({0: 1},), ()):
            with pytest.raises(ValueError, match="expected 2 rows"):
                RatMatrix(rows=2, cols=2, entries=entries)

    @pytest.mark.parametrize("col", [2, 5, -1], ids=["cols", "beyond", "negative"])
    def test_column_out_of_range_is_rejected(self, col):
        with pytest.raises(ValueError, match=r"not an int in range\(2\)"):
            RatMatrix(1, 2, ({0: 1, col: 1},))

    @pytest.mark.parametrize("col", [True, False, 1.0, "0", Fraction(1)],
                             ids=["true", "false", "float", "string", "fraction"])
    def test_column_that_is_not_an_int_is_rejected(self, col):
        with pytest.raises(ValueError, match="not an int"):
            RatMatrix(1, 2, ({col: 1},))

    @pytest.mark.parametrize("value", [0.5, 0.0], ids=["float", "zero-float"])
    def test_float_value_is_rejected(self, value):
        with pytest.raises(ValueError, match="int or a Fraction"):
            RatMatrix(1, 2, ({1: value},))

    def test_zeros_are_dropped(self):
        half = Fraction(-1, 2)
        spelled_with_zeros = RatMatrix(3, 3, ({0: 1, 1: 0}, {2: Fraction(0)}, {2: half}))
        sparse = RatMatrix(3, 3, ({0: Fraction(1)}, {}, {2: half}))
        assert spelled_with_zeros == sparse == rat_matrix([[1, 0, 0], [0, 0, 0], [0, 0, half]])
        assert spelled_with_zeros.entries == ({0: 1}, {}, {2: half})
        assert sparse != RatMatrix(3, 3, ({0: 1}, {}, {1: half}))

    def test_rows_are_read_only_copies(self):
        row = {0: 1}
        m = RatMatrix(1, 2, (row,))
        row[1] = 2
        assert m.row(0) == {0: 1}
        with pytest.raises(TypeError):
            m.row(0)[1] = 0.5
        assert m == RatMatrix(1, 2, ({0: 1},))

    @pytest.mark.parametrize("bad", [0.1, True, "1/4"], ids=["float", "bool", "string"])
    def test_from_rows_rejects_values_that_are_not_ints_or_fractions(self, bad):
        with pytest.raises(ValueError, match="int or a Fraction"):
            rat_matrix([[1, bad]])


class TestKernelBasis:
    def test_single_equation(self):
        m = rat_matrix([[1, 1]])
        assert kernel_basis(m) == ((Fraction(1), Fraction(-1)),)

    def test_identity_has_trivial_kernel(self):
        m = rat_matrix([[1, 0], [0, 1]])
        assert kernel_basis(m) == ()

    def test_zero_matrix_kernel_is_standard_basis(self):
        m = rat_matrix([[0, 0, 0], [0, 0, 0]])
        assert kernel_basis(m) == (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )

    def test_square_incidence_kernel(self):
        grid = ProductGrid((2, 2))
        m = incidence_matrix(SQUARE, grid)
        assert kernel_basis(m) == (
            (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)),
        )

    def test_five_point_incidence_kernel(self):
        m = incidence_matrix(FIVE_POINTS, CUBE)
        assert kernel_basis(m) == (
            (Fraction(2), Fraction(-1), Fraction(-1), Fraction(-1), Fraction(1)),
        )

    def test_fractional_entries(self):
        m = rat_matrix([[Fraction(1, 2), Fraction(1, 3)]])
        (v,) = kernel_basis(m)
        assert v == (Fraction(2), Fraction(-3))

    def test_vectors_are_primitive_integers_with_positive_lead(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = rat_matrix(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            )
            for v in kernel_basis(m):
                nonzero = [w for w in v if w != 0]
                assert nonzero[0] > 0
                assert all(w.denominator == 1 for w in v)

    def test_rank_nullity_on_random_matrices(self):
        rng = random.Random(11)
        integer = lambda: rng.randint(-5, 5)
        # negative rationals with mixed denominators inside one row
        rational = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        for entry in [integer] * 60 + [rational] * 60:
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            m = rat_matrix(
                [[entry() for _ in range(cols)] for _ in range(rows)]
            )
            basis = kernel_basis(m)
            assert len(basis) == cols - matrix_rank(m)
            for v in basis:
                for i in range(rows):
                    assert sum(a * w for a, w in zip(dense_matrix_row(m, i), v)) == 0
            if basis:
                stacked = rat_matrix([list(v) for v in basis])
                assert matrix_rank(stacked) == len(basis)

    def test_matches_bareiss_oracle(self):
        # the column elimination against the Bareiss row echelon with
        # back-substitution that it replaced, kept in conftest as a reference
        rng = random.Random(2024)
        entries = {
            "0/1": lambda: rng.randint(0, 1),
            "small": lambda: rng.randint(-4, 4),
            "rational": lambda: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
        }
        checked = 0
        for name, entry in entries.items():
            for _ in range(150):
                rows, cols = rng.randint(1, 6), rng.randint(1, 7)
                table = [[Fraction(entry()) for _ in range(cols)] for _ in range(rows)]
                if rows > 2 and rng.random() < 0.5:  # force a dependent row
                    k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    table[rng.randrange(rows)] = [x + k * y for x, y in zip(table[0], table[1])]
                m = rat_matrix(table)
                assert kernel_basis(m) == bareiss_kernel_basis(m), (name, table)
                assert matrix_rank(m) == bareiss_rank(m), (name, table)
                checked += 1
        for rows, cols in ((0, 0), (0, 1), (0, 4), (1, 0), (3, 0)):
            m = RatMatrix(rows, cols, ({},) * rows)
            assert kernel_basis(m) == bareiss_kernel_basis(m)
            assert matrix_rank(m) == bareiss_rank(m) == 0
        assert checked == 450


class TestMatrixRank:
    def test_examples(self):
        assert matrix_rank(rat_matrix([[1, 0], [0, 1]])) == 2
        assert matrix_rank(rat_matrix([[1, 2], [2, 4]])) == 1
        assert matrix_rank(rat_matrix([[0, 0]])) == 0


def planted_lp(rng: random.Random):
    """``min c.x s.t. Ax <= b, x >= 0`` built around a known optimal pair:
    choose x* >= 0 and y* <= 0, make rows tight where y* < 0 and reduced
    costs c - A^T y* zero where x* > 0 and nonnegative elsewhere. Weak
    duality then certifies both as optimal with value c.x* = y*.b. Every b_i
    is nonnegative, as the form requires: a row with (A x*)_i < 0 gets
    y*_i = 0 and slack to reach 0. Returns (A, b, c, c.x*)."""
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    a = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]
    xs = [Fraction(max(0, rng.randint(-3, 5))) for _ in range(n)]
    ys = [Fraction(min(0, rng.randint(-5, 3))) for _ in range(m)]
    b = []
    for i in range(m):
        row_value = sum(a[i][j] * xs[j] for j in range(n))
        if row_value < 0:
            ys[i] = Fraction(0)
        slack = Fraction(0) if ys[i] < 0 else rng.randint(0, 4) - min(row_value, 0)
        b.append(row_value + slack)
    c = []
    for j in range(n):
        col_value = sum(a[i][j] * ys[i] for i in range(m))
        surplus = Fraction(0) if xs[j] > 0 else Fraction(rng.randint(0, 4))
        c.append(col_value + surplus)
    return a, b, c, sum(c[j] * xs[j] for j in range(n))


class TestSolveLp:
    @pytest.mark.parametrize("field", ["objective", "rows", "rhs"])
    def test_build_rejects_float_values(self, field):
        args = {"objective": [1], "rows": [[1]], "rhs": [3]}
        args[field] = [[0.1]] if field == "rows" else [0.1]
        with pytest.raises(ValueError, match="int or a Fraction"):
            lp(args["objective"], args["rows"], args["rhs"])

    def test_single_bound_max(self):
        # max x s.t. x <= 3 is min -x
        sol = solve_lp(lp([-1], [[1]], [3]))
        assert sol.status == "optimal"
        assert sol.objective == -3
        assert sol.primal == (Fraction(3),)
        assert sol.dual == (Fraction(-1),)

    def test_unbounded(self):
        sol = solve_lp(lp([-1], [[-1]], [0]))
        assert (sol.status, sol.primal, sol.dual, sol.objective) == ("unbounded", (), (), None)

    def test_lower_bound_drives_minimum(self):
        # min x s.t. x <= 10, x >= 2, written with x = 2 + w: min w s.t. w <= 8
        sol = solve_lp(lp([1], [[1]], [8]))
        assert sol.status == "optimal"
        assert 2 + sol.primal[0] == 2 and sol.objective == 0

    def test_upper_bound_caps_maximum(self):
        # max x s.t. x <= 9, x <= 7, written with the reflection x = 7 - w
        # (as best_error writes t = B - z): min w s.t. -w <= 2
        sol = solve_lp(lp([1], [[-1]], [2]))
        assert sol.status == "optimal"
        assert 7 - sol.primal[0] == 7

    def test_free_variable_reaches_negative_values(self):
        # min x s.t. x >= -3, x free, written with the split x = x+ - x-
        # (as best_error writes g): min x+ - x- s.t. -x+ + x- <= 3
        sol = solve_lp(lp([1, -1], [[-1, 1]], [3]))
        assert sol.status == "optimal"
        assert sol.primal[0] - sol.primal[1] == -3 == sol.objective

    def test_two_sided_bounds(self):
        # max x + 2y s.t. x + y <= 10, 0 <= x <= 4, 0 <= y <= 3: the upper
        # bounds are rows of their own
        sol = solve_lp(lp([-1, -2], [[1, 1], [1, 0], [0, 1]], [10, 4, 3]))
        assert sol.status == "optimal"
        assert sol.objective == -10 and sol.primal == (4, 3)

    def test_equality_constraint(self):
        # an equality row is a <= row and its negation, which b >= 0 allows
        # only for b = 0: min -x0 s.t. x0 - x1 = 0, x1 <= 3
        problem = lp([-1, 0], [[1, -1], [-1, 1], [0, 1]], [0, 0, 3])
        sol = solve_lp(problem)
        assert sol.status == "optimal"
        assert sol.primal == (3, 3) and sol.objective == -3
        assert_strong_duality(problem, sol)

    def test_fractional_data(self):
        sol = solve_lp(lp([Fraction(-1, 3)], [[Fraction(2, 5)]], [Fraction(1, 7)]))
        assert sol.status == "optimal"
        assert sol.objective == -Fraction(1, 3) * Fraction(5, 14)

    def test_two_sided_approximation_problem(self):
        # the error LP of the table f = x*y on {0,1}^2 as best_error writes
        # it: B = max|f| + 1 = 2, columns z = B - t, then (g+, g-) for u(0),
        # u(1) and v(1), with v(0) pinned to zero by omission; per point
        # z - g+ + g- <= B - f and z + g+ - g- <= B + f, minimizing -z
        rows, rhs = [], []
        for x in (0, 1):
            for y in (0, 1):
                f = x * y
                g = [x == 0, x == 1, y == 1]
                for sign in (-1, 1):
                    row = [1]
                    for used in g:
                        row += [sign * used, -sign * used]
                    rows.append(row)
                    rhs.append(2 + sign * f)
        sol = solve_lp(lp([-1, 0, 0, 0, 0, 0, 0], rows, rhs))
        assert sol.status == "optimal"
        assert 2 + sol.objective == Fraction(1, 4)
        assert sum(sol.dual) == -1

    def test_planted_optima_with_nonneg_rows(self):
        # Nonnegativity is also written as explicit rows -x_j <= 0, so the
        # reported duals account for those constraints too.
        rng = random.Random(2024)
        for _ in range(30):
            a, b, c, target = planted_lp(rng)
            m, n = len(a), len(c)
            rows = [list(row) for row in a]
            rhs = list(b)
            for j in range(n):
                rows.append([-1 if k == j else 0 for k in range(n)])
                rhs.append(0)
            sol = solve_lp(lp(c, rows, rhs))
            assert sol.status == "optimal"
            assert sol.objective == target
            assert all(x >= 0 for x in sol.primal)
            for i in range(m):
                assert sum(a[i][j] * sol.primal[j] for j in range(n)) <= b[i]
            assert sum(sol.dual[i] * rhs[i] for i in range(m + n)) == target

    def test_planted_optima_with_bounds(self):
        # Same construction, nonnegativity by the form's own bounds x >= 0.
        rng = random.Random(55)
        for _ in range(30):
            a, b, c, target = planted_lp(rng)
            sol = solve_lp(lp(c, a, b))
            assert sol.status == "optimal"
            assert sol.objective == target

    def test_dimension_mismatches_rejected(self):
        with pytest.raises(ValueError, match="objective length"):
            lp([1, 2], [[1]], [1])
        with pytest.raises(ValueError, match="rhs length"):
            lp([1], [[1]], [1, 2])

    @pytest.mark.parametrize("rows,rhs,row", [
        ([[1]], [-1], 0),
        ([[1, 1], [0, 0]], [3, Fraction(-1, 2)], 1),  # no point satisfies 0 <= -1/2
        ([[1], [1], [-1]], [0, 2, -3], 2),
    ])
    def test_negative_rhs_is_rejected(self, rows, rhs, row):
        # x = 0 must be feasible, since the simplex starts from the slack
        # basis and has no phase 1
        with pytest.raises(ValueError, match=f"row {row} has rhs"):
            lp([0] * len(rows[0]), rows, rhs)


def random_lp(rng: random.Random) -> LpProblem:
    """A small LP ``min c.x s.t. Ax <= b, x >= 0``: up to 6 rows and
    columns, A of mixed sign, b from 0 to 5, at random a redundant copy of a
    row scaled by 1, 2 or 1/2, which makes ratio ties, and an objective of
    either sign."""
    m = rng.randint(1, 6)
    n = rng.randint(1, 6)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(0, 5) for _ in range(m)]
    if rng.random() < 0.5:
        i = rng.randrange(m)
        k = rng.choice([1, 2, Fraction(1, 2)])
        rows.append([k * v for v in rows[i]])
        rhs.append(k * rhs[i])
    return lp([rng.randint(-4, 4) for _ in range(n)], rows, rhs)


def budget_lp(rng: random.Random) -> LpProblem:
    """A small LP in the form of ``random_lp`` with a budget row: 3 to 8
    columns and 3 to 8 rows of mixed sign, at random a redundant copy of one
    of them, and a last row whose coefficients are all at least 1 and whose
    rhs is at least 1. The budget row bounds every column, so every LP has
    an optimum, and the simplex takes several pivots to reach it."""
    m = rng.randint(3, 8)
    n = rng.randint(3, 8)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(0, 5) for _ in range(m)]
    if rng.random() < 0.5:
        i = rng.randrange(m)
        k = rng.choice([1, 2, Fraction(1, 2)])
        rows.append([k * v for v in rows[i]])
        rhs.append(k * rhs[i])
    rows.append([rng.randint(1, 5) for _ in range(n)])
    rhs.append(rng.randint(1, 20))
    return lp([rng.randint(-4, 4) for _ in range(n)], rows, rhs)


class TestDuals:
    def test_dual_feasibility_audit_rejects_wrong_dual(self):
        # min -x s.t. x <= 1: y = -2 has the right sign and leaves the
        # reduced cost 1 >= 0, but only y = -1 gives b.y = -1 = c.x (the
        # reduced cost of x > 0 must be zero).
        cons = lp_constraints(lp([-1], [[1]], [1]))
        assert _check_optimum(cons, [Fraction(-1)], [Fraction(1)], [Fraction(-1)]) == -1
        with pytest.raises(AssertionError):
            _check_optimum(cons, [Fraction(-1)], [Fraction(1)], [Fraction(-2)])

    def test_strong_duality_on_random_lps(self):
        rng = random.Random(8128)
        statuses = set()
        optima = 0
        for _ in range(1000):
            problem = random_lp(rng)
            sol = solve_lp(problem)
            statuses.add(sol.status)
            if sol.status != "optimal":
                continue
            assert len(sol.dual) == problem.matrix.rows
            assert_strong_duality(problem, sol)
            optima += 1
        assert statuses == {"optimal", "unbounded"}
        assert optima >= 300


def beale_lp() -> LpProblem:
    """Beale (1955): the largest-coefficient rule can cycle on this LP;
    Bland's rule reaches the optimum -5/4 at x = (1, 0, 1, 0)."""
    return lp(
        [Fraction(-3, 4), 20, Fraction(-1, 2), 6],
        [
            [Fraction(1, 4), -8, -1, 9],
            [Fraction(1, 2), -12, Fraction(-1, 2), 3],
            [0, 0, 1, 0],
        ],
        [0, 0, 1],
    )


class TestIntegerPivots:
    def test_beale_cycling_example(self):
        problem = beale_lp()
        sol = solve_lp(problem)
        assert sol.status == "optimal"
        assert sol.objective == Fraction(-5, 4)
        assert sol.primal == (Fraction(1), Fraction(0), Fraction(1), Fraction(0))
        assert sum(y * b for y, b in zip(sol.dual, problem.rhs)) == Fraction(-5, 4)

    def test_ratio_tie_between_slack_rows_leaves_the_lower_slack(self, monkeypatch):
        # min -x0 s.t. x0/2 + x1 <= 1 (slack column 2), 3 x0 <= 6 (slack 3);
        # the rhs is column 4. x0 enters, and both ratios are 2: 1 / (1/2)
        # and 6 / 3. Bland's rule lets the row whose basic column has the
        # lower index leave, the first constraint's slack.
        pivots = record_pivots(monkeypatch)
        cons = [({0: 1, 1: 2}, 2, 2), ({0: 3}, 6, 1)]
        status, z, rows = _run_simplex(cons, [Fraction(-1), Fraction(0)])
        assert (status, pivots) == ("optimal", [(0, 2)])
        # x0 + 2 x1 + 2 s_2 = 2 is stored under x0, in lowest terms; the
        # second constraint's slack stays basic, and its row is not stored
        assert rows == {0: ({0: 1, 1: 2, 2: 2, 4: 2}, 1)}
        assert z == ({1: 2, 2: 2, 4: 2}, 1)

    def test_ratio_tie_leaves_the_stored_row_before_a_slack_row(self, monkeypatch):
        # min -x0 - 2 x1 s.t. x0 + x1 <= 2 (slack column 2), x1 <= 2 (slack
        # 3). x0 enters first and is stored as x0 + x1 + s_2 = 2. Then x1
        # enters, and its ratio is 2 both on that stored row and on the
        # derived row of the second constraint. The stored row's basic
        # column 0 is lower than the slack's 3, so x0 leaves.
        pivots = record_pivots(monkeypatch)
        cons = [({0: 1, 1: 1}, 2, 1), ({1: 1}, 2, 1)]
        status, z, rows = _run_simplex(cons, [Fraction(-1), Fraction(-2)])
        assert (status, pivots) == ("optimal", [(0, 2), (1, 0)])
        # the same row is now stored under x1; the slack of x1 <= 2 stays
        # basic at level 0
        assert rows == {1: ({0: 1, 1: 1, 2: 1, 4: 2}, 1)}
        assert z == ({0: 1, 2: 2, 4: 4}, 1)
        sol = solve_lp(lp([-1, -2], [[1, 1], [0, 1]], [2, 2]))
        assert (sol.primal, sol.dual, sol.objective) == ((0, 2), (-2, 0), -4)

    def test_ratio_tie_leaves_the_row_with_the_lower_basic_column(self, monkeypatch):
        # min -x1 - 2 x2 s.t. x1 - x0 <= 0 (slack column 3), x0 + x2 <= 1
        # (slack 4). x1 enters first (x0 costs 0) and is stored as
        # x1 - x0 + s_3 = 0; then x0 enters and is stored second. When x2
        # enters, both stored rows have ratio 1. Bland's rule lets x0's row
        # leave, the lower basic column, although it was stored last.
        pivots = record_pivots(monkeypatch)
        cons = [({0: -1, 1: 1}, 0, 1), ({0: 1, 2: 1}, 1, 1)]
        status, z, rows = _run_simplex(cons, [Fraction(0), Fraction(-1), Fraction(-2)])
        assert (status, pivots) == ("optimal", [(1, 3), (0, 4), (2, 0)])
        assert rows == {1: ({0: -1, 1: 1, 3: 1}, 1), 2: ({0: 1, 2: 1, 4: 1, 5: 1}, 1)}
        assert z == ({0: 1, 3: 1, 4: 2, 5: 2}, 1)

    def test_int_row_is_in_lowest_terms(self):
        assert _int_row([Fraction(6, 4), Fraction(10, 3)]) == [9, 20, 6]
        assert _int_row([Fraction(2), Fraction(4)]) == [2, 4, 1]
        assert _int_row([]) == [1]


def record_pivots(monkeypatch: pytest.MonkeyPatch) -> list[tuple[int, int]]:
    """The list that each later ``linalg._pivot`` call appends its
    (entering column, leaving basic column) to."""
    pivots: list[tuple[int, int]] = []
    pivot = linalg._pivot

    def recording_pivot(rows, z, prow, leave, enter, n):
        pivots.append((enter, leave))
        return pivot(rows, z, prow, leave, enter, n)

    monkeypatch.setattr(linalg, "_pivot", recording_pivot)
    return pivots


class DenseReplay:
    """Replays every simplex run of ``solve_lp`` on the dense reference
    kernel of ``conftest``, from the full starting tableau: every
    constraint's row with its slack, the slack basis and the cost row.

    A run must make the same pivots, as (entering column, leaving basic
    column), and end with the same status and reduced costs. A second dense
    copy pivots in step with the run: each pivot row, stored or built from
    its constraint, must equal the dense row of its basic column, and after
    each pivot so must every stored row, the reduced costs too. Exactly
    the basic structural columns have a stored row, so a slack's row is
    never stored. No stored row holds a zero or a denominator below 1, every
    pivot entry is positive, and every stored row's basic-column entry
    equals its denominator: together they keep a pivot row in lowest terms
    without a gcd, which ``linalg._pivot`` relies on.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.run_simplex, self.pivot = linalg._run_simplex, linalg._pivot
        self.dense_pivot = conftest.dense_pivot
        self.sparse_pivots: list[tuple[int, int]] = []
        self.dense_pivots: list[tuple[int, int]] = []
        self.runs = self.pivots = 0
        monkeypatch.setattr(linalg, "_run_simplex", self._run_simplex)
        monkeypatch.setattr(linalg, "_pivot", self._pivot)
        monkeypatch.setattr(conftest, "dense_pivot", self._dense_pivot)

    def _dense_pivot(self, tableau, basis, z, row, col):
        self.dense_pivots.append((col, basis[row]))
        return self.dense_pivot(tableau, basis, z, row, col)

    @staticmethod
    def start(cons, cost):
        """The dense starting tableau, slack basis and cost of ``cons``."""
        n, total = len(cost), len(cost) + len(cons)
        tableau = [
            dense_row(({**entries, n + i: den, total: b}, den), total + 1)
            for i, (entries, b, den) in enumerate(cons)
        ]
        return tableau, list(range(n, total)), [*cost, *[Fraction(0)] * len(cons)]

    def _run_simplex(self, cons, cost):
        dense, dense_basis, dense_cost = self.start(cons, cost)
        self.dense_pivots.clear()
        dense_status, dense_z = conftest.dense_run_simplex(dense, dense_basis, dense_cost, set())
        self.n = len(cost)
        self.step, self.step_basis, _ = self.start(cons, cost)
        self.step_z = _int_row([*dense_cost, Fraction(0)])
        self.sparse_pivots.clear()
        status, z, rows = self.run_simplex(cons, cost)
        assert self.sparse_pivots == self.dense_pivots
        assert status == dense_status
        assert z == sparse_row(dense_z)
        self.check(rows, dense, dense_basis, self.n)
        self.runs += 1
        return status, z, rows

    def _pivot(self, rows, z, prow, leave, enter, n):
        assert n == self.n
        row = self.step_basis.index(leave)
        assert prow == sparse_row(self.step[row])
        assert prow[0].get(enter, 0) > 0
        self.step_z = self.dense_pivot(self.step, self.step_basis, self.step_z, row, enter)
        self.sparse_pivots.append((enter, leave))
        z = self.pivot(rows, z, prow, leave, enter, n)
        assert z == sparse_row(self.step_z)
        self.check(rows, self.step, self.step_basis, n)
        self.pivots += 1
        return z

    @staticmethod
    def check(rows, dense, dense_basis, n) -> None:
        assert sorted(rows) == sorted(col for col in dense_basis if col < n)
        for row, col in zip(dense, dense_basis):
            if col < n:
                assert rows[col] == sparse_row(row)
        for col, (entries, den) in rows.items():
            assert den > 0 and 0 not in entries.values()
            assert entries[col] == den


class TestSparseKernelMatchesDense:
    def test_random_lps(self, monkeypatch):
        replay = DenseReplay(monkeypatch)
        rng = random.Random(4099)
        statuses = {solve_lp(random_lp(rng)).status for _ in range(300)}
        assert statuses == {"optimal", "unbounded"}
        # one simplex run per LP, straight from the slack basis
        assert replay.runs == 300 and replay.pivots > 300

    def test_budget_row_lps(self, monkeypatch):
        replay = DenseReplay(monkeypatch)
        rng = random.Random(4111)
        statuses = {solve_lp(budget_lp(rng)).status for _ in range(300)}
        assert statuses == {"optimal"}
        assert replay.runs == 300 and replay.pivots > 2 * 300

    def test_beale_cycling_example(self, monkeypatch):
        replay = DenseReplay(monkeypatch)
        assert solve_lp(beale_lp()).objective == Fraction(-5, 4)
        assert replay.runs == 1 and replay.pivots > 0

    @pytest.mark.parametrize("shape", [(3, 3), (8, 8), (4, 4, 4)])
    def test_best_error_lps(self, monkeypatch, shape):
        replay = DenseReplay(monkeypatch)
        rng = random.Random(sum(shape))
        for _ in range(2):
            best_error(random_table(rng, ProductGrid(shape)))
        # the error LP starts at a feasible basis: one simplex run per table
        assert replay.runs == 2 and replay.pivots > 2


class TestStoredRowWork:
    """The simplex stores a row only for each basic structural column, and a
    pivot makes at most one ``_row_op`` per other stored row, one for the
    reduced costs and one per structural entry of a leaving slack's
    constraint: at most cols + max nnz per row + 1, however many rows."""

    @pytest.mark.parametrize("shape", [(8, 8), (4, 4, 4)])
    def test_error_lps(self, monkeypatch, shape):
        run_simplex, pivot, row_op = linalg._run_simplex, linalg._pivot, linalg._row_op
        work = []  # per run: (cols, max nnz per row, pivots, row ops)
        basic: set[int] = set()  # the basic structural columns

        def counting_run_simplex(cons, cost):
            basic.clear()
            work.append([len(cost), max(len(entries) for entries, _, _ in cons), 0, 0])
            return run_simplex(cons, cost)

        def checking_pivot(rows, z, prow, leave, enter, n):
            z = pivot(rows, z, prow, leave, enter, n)
            basic.discard(leave)
            if enter < n:
                basic.add(enter)
            assert len(rows) <= len(basic)
            work[-1][2] += 1
            return z

        def counting_row_op(cur, prow, col):
            work[-1][3] += 1
            return row_op(cur, prow, col)

        monkeypatch.setattr(linalg, "_run_simplex", counting_run_simplex)
        monkeypatch.setattr(linalg, "_pivot", checking_pivot)
        monkeypatch.setattr(linalg, "_row_op", counting_row_op)
        rng = random.Random(sum(shape))
        for bound in (10, 1000):
            best_error(random_table(rng, ProductGrid(shape), bound))
        assert len(work) == 2
        for cols, nnz, pivots, row_ops in work:
            assert pivots > 0
            assert row_ops <= pivots * (cols + nnz + 1)


def assert_strong_duality(problem: LpProblem, sol) -> None:
    """The objective is c.x, the dual objective y.b equals it exactly, and
    the reduced costs d = c - A^T y are nonnegative and zero wherever
    x > 0."""
    m, n = problem.matrix.rows, problem.matrix.cols
    rows = [dense_matrix_row(problem.matrix, i) for i in range(m)]
    assert sol.objective == sum((c * x for c, x in zip(problem.objective, sol.primal)), Fraction(0))
    assert sum((y * b for y, b in zip(sol.dual, problem.rhs)), Fraction(0)) == sol.objective
    for j in range(n):
        d = problem.objective[j] - sum(
            (rows[i][j] * sol.dual[i] for i in range(m)), Fraction(0)
        )
        assert d >= 0 and (d == 0 or sol.primal[j] == 0)


class TestSparseTableauEdges:
    """Rows and columns with no nonzero entry, large mixed denominators, and
    problems without rows."""

    @pytest.mark.parametrize("rhs", [0, 3], ids=["<=-0", "<=-3"])
    def test_satisfied_zero_row_is_harmless(self, rhs):
        problem = lp([-1, -2], [[0, 0], [1, 1]], [rhs, 2])
        sol = solve_lp(problem)
        assert sol.status == "optimal"
        assert sol.objective == -4
        assert sol.primal == (0, 2)
        assert sol.dual == (0, -2)
        assert_strong_duality(problem, sol)

    def test_free_zero_column(self):
        # no row constrains x1
        rows = [[-1, 0], [1, 0]]
        problem = lp([1, 0], rows, [2, 5])
        sol = solve_lp(problem)
        assert (sol.status, sol.objective, sol.primal) == ("optimal", 0, (0, 0))
        assert_strong_duality(problem, sol)
        problem = lp([-1, 3], rows, [2, 5])
        sol = solve_lp(problem)
        assert (sol.status, sol.objective, sol.primal) == ("optimal", -5, (5, 0))
        assert_strong_duality(problem, sol)
        assert solve_lp(lp([1, -3], rows, [2, 5])).status == "unbounded"

    def test_rows_with_large_mixed_denominators(self):
        # Beale's LP plus a slack row whose rhs has its own large denominator,
        # every row scaled by a positive rational of large numerator and
        # denominator; the optimum and the optimal x cannot move.
        base_rows = [
            [Fraction(1, 4), -8, -1, 9],
            [Fraction(1, 2), -12, Fraction(-1, 2), 3],
            [0, 0, 1, 0],
            [1, 1, 1, 1],
        ]
        base_rhs = [0, 0, 1, Fraction(3 * 10**9 + 7, 999999937)]
        objective = [Fraction(-3, 4), 20, Fraction(-1, 2), 6]
        rng = random.Random(1009)
        for _ in range(20):
            rows, rhs = [], []
            for row, b in zip(base_rows, base_rhs):
                k = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
                rows.append([k * a for a in row])
                rhs.append(k * b)
            problem = lp(objective, rows, rhs)
            sol = solve_lp(problem)
            assert sol.status == "optimal"
            assert sol.objective == Fraction(-5, 4)
            assert sol.primal == (1, 0, 1, 0)
            assert_strong_duality(problem, sol)

    @pytest.mark.parametrize("problem,status,objective,primal", [
        (lp([], [], []), "optimal", 0, ()),
        (lp([1, 2], [], []), "optimal", 0, (0, 0)),
        (lp([Fraction(1, 3)], [], []), "optimal", 0, (0,)),
        (lp([0, 0], [], []), "optimal", 0, (0, 0)),
        (lp([1, -1], [], []), "unbounded", None, ()),
    ])
    def test_problem_without_rows(self, problem, status, objective, primal):
        sol = solve_lp(problem)
        assert (sol.status, sol.objective, sol.primal, sol.dual) == (status, objective, primal, ())
        if status == "optimal":
            assert_strong_duality(problem, sol)


class TestCertificateAudits:
    """Each check of ``_check_optimum`` rejects one corrupted x or y. The LP
    is min -x0 - x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6, x0 <= 5, with the
    optimum x = (8/5, 6/5), y = (-2/5, -1/5, 0); the third row is slack."""

    PROBLEM = lp([-1, -1], [[1, 2], [3, 1], [1, 0]], [4, 6, 5])
    CONS = [({0: 1, 1: 2}, 4, 1), ({0: 3, 1: 1}, 6, 1), ({0: 1}, 5, 1)]
    COST = PROBLEM.objective
    X = [Fraction(8, 5), Fraction(6, 5)]
    Y = [Fraction(-2, 5), Fraction(-1, 5), Fraction(0)]

    def test_is_an_assertion_error(self):
        assert issubclass(CertificateError, AssertionError)

    def test_the_optimum_passes(self):
        sol = solve_lp(self.PROBLEM)
        assert (list(sol.primal), list(sol.dual), sol.objective) == (self.X, self.Y, Fraction(-14, 5))
        assert lp_constraints(self.PROBLEM) == self.CONS
        assert _check_optimum(self.CONS, self.COST, self.X, self.Y) == Fraction(-14, 5)

    def test_corrupted_primal_is_rejected(self):
        corruptions = [
            ([Fraction(-1), Fraction(6, 5)], r"x\[0\] = -1 is negative"),
            ([Fraction(8, 5) + Fraction(1, 7), Fraction(6, 5)], "row 0: 29/7 > rhs 4"),
            # feasible but not optimal: c.x = -13/5 > b.y
            ([Fraction(7, 5), Fraction(6, 5)], "c.x = -13/5 but b.y = -14/5"),
        ]
        for x, match in corruptions:
            with pytest.raises(CertificateError, match=match):
                _check_optimum(self.CONS, self.COST, x, self.Y)

    def test_corrupted_dual_is_rejected(self):
        corruptions = [
            # a positive multiplier on a <= row
            ([Fraction(2, 5), Fraction(-1, 5), Fraction(0)], "row 0: dual 2/5 is positive"),
            # a multiplier on the slack row: reduced costs (1, 0) >= 0, but
            # complementary slackness fails, so b.y < c.x
            ([Fraction(-2, 5), Fraction(-1, 5), Fraction(-1)], "c.x = -14/5 but b.y = -39/5"),
            # reduced costs (-2/5, -4/5), both negative
            ([Fraction(0), Fraction(-1, 5), Fraction(0)], "column 0: reduced cost -2/5 < 0"),
            # reduced costs (3/5, 6/5), positive where x > 0
            ([Fraction(-1), Fraction(-1, 5), Fraction(0)], "c.x = -14/5 but b.y = -26/5"),
        ]
        for y, match in corruptions:
            with pytest.raises(CertificateError, match=match):
                _check_optimum(self.CONS, self.COST, self.X, y)

    def test_audits_survive_python_optimize(self):
        code = (
            "from fractions import Fraction as F\n"
            "from golombdual import CertificateError\n"
            "from golombdual.linalg import _check_optimum\n"
            "cons = [({0: 1}, 1, 1)]\n"
            "_check_optimum(cons, [F(-1)], [F(1)], [F(-1)])\n"
            "try:\n"
            "    _check_optimum(cons, [F(-1)], [F(1)], [F(-2)])\n"
            "except CertificateError:\n"
            "    print('raised')\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "raised\n", "")


def audit_verdict(check, *args) -> str | None:
    """The message of the CertificateError that ``check(*args)`` raises,
    or None when the audit passes."""
    try:
        check(*args)
    except CertificateError as exc:
        return str(exc)
    return None


CORRUPTIONS = ("whole", "x up", "x down", "y positive", "y scaled", "y onto slack", "c up", "c down")


def corrupt(problem: LpProblem, x, y, kind: str, j: int, q: int):
    """(cost, x, y) of an LP optimum with one corruption of ``kind`` at
    index ``j`` (taken modulo the length) by 1/q: x moved; y made positive,
    scaled by q/2, or moved onto a row with slack (a new multiplier -1/q
    there when y is 0); or a cost moved, which breaks a reduced cost in
    that direction."""
    cost, x, y = list(problem.objective), list(x), list(y)
    n, m = len(x), len(y)
    step = Fraction(1, q)
    if kind in ("x up", "x down") and n:
        x[j % n] += step if kind == "x up" else -step
    elif kind in ("c up", "c down") and n:
        cost[j % n] += step if kind == "c up" else -step
    elif kind == "y positive" and m:
        y[j % m] = abs(y[j % m]) + step
    elif kind == "y scaled":
        y = [v * Fraction(q, 2) for v in y]
    elif kind == "y onto slack":
        slack = [
            i for i in range(m)
            if sum((a * x[k] for k, a in problem.matrix.row(i).items()), Fraction(0)) < problem.rhs[i]
        ]
        if slack:
            to = slack[j % len(slack)]
            used = [i for i in range(m) if y[i] and i != to]
            moved = y[used[j % len(used)]] if used else -step
            if used:
                y[used[j % len(used)]] = Fraction(0)
            y[to] += moved
    return cost, x, y


def same_verdict(problem: LpProblem, x, y, kind: str, j: int, q: int) -> tuple[str | None, str | None]:
    """The reference audit's and ``_check_optimum``'s messages on one
    corruption; they must pass or fail together."""
    cost, x, y = corrupt(problem, x, y, kind, j, q)
    reference = audit_verdict(
        reference_check_optimum, LpProblem(tuple(cost), problem.matrix, problem.rhs), x, y
    )
    audit = audit_verdict(_check_optimum, lp_constraints(problem), cost, x, y)
    assert (reference is None) == (audit is None), (kind, j, q, reference, audit)
    return reference, audit


def error_lps(monkeypatch) -> list[LpProblem]:
    """The LPs that ``best_error`` solves for a few seeded small tables."""
    problems = []
    real = linalg.solve_lp

    def recording(problem):
        problems.append(problem)
        return real(problem)

    monkeypatch.setattr(chebyshev, "solve_lp", recording)
    rng = random.Random(22)
    for shape in ((2, 2), (3, 3), (2, 3), (2, 2, 2), (3,)):
        for bound in (3, 1000):
            best_error(random_table(rng, ProductGrid(shape), bound))
    monkeypatch.undo()
    return problems


class TestWeakDualityAudit:
    """``_check_optimum`` checks weak duality on ``solve_lp``'s integer
    rows and gives the verdict of the former audit (``reference_check_optimum``),
    which also checked complementary slackness row by row and column by
    column, on every optimum and every corruption of one."""

    def test_audit_reads_the_problems_rows(self, monkeypatch):
        calls = []
        real = linalg._check_optimum

        def recording(cons, cost, x, y):
            objective = real(cons, cost, x, y)
            calls.append((cons, cost, objective))
            return objective

        monkeypatch.setattr(linalg, "_check_optimum", recording)
        rng = random.Random(2207)
        problems = [random_lp(rng) for _ in range(60)]
        problems.append(lp(
            [Fraction(-1, 3), Fraction(-2, 7)],
            [[Fraction(1, 6), Fraction(3, 10)], [Fraction(5, 4), 0], [0, Fraction(1, 9)]],
            [Fraction(7, 15), Fraction(11, 8), 2],
        ))
        solved = 0
        for problem in problems:
            calls.clear()
            sol = solve_lp(problem)
            if sol.status != "optimal":
                assert calls == []
                continue
            solved += 1
            ((cons, cost, objective),) = calls
            assert cost is problem.objective and objective == sol.objective
            assert cons == lp_constraints(problem)
            assert len(cons) == problem.matrix.rows
            for i, (entries, b, den) in enumerate(cons):
                assert {j: Fraction(a, den) for j, a in entries.items()} == dict(problem.matrix.row(i))
                assert Fraction(b, den) == problem.rhs[i]
                assert den > 0 and gcd(den, b, *entries.values()) == 1
        assert solved >= 20

    def test_rows_with_zero_dual_stay_out_of_the_common_denominator(self, monkeypatch):
        # one binding row with dual -1, and a slack row x1 <= 1/p with dual 0
        # for each of the 46 primes p < 200: an lcm over every row's
        # denominator would be their product, about 270 bits, while the one
        # row in use has denominator 1, as have x, y and c
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
        problem = lp([-1, 0], [[1, 0]] + [[0, 1]] * len(primes), [1] + [Fraction(1, p) for p in primes])
        lcms: list[int] = []
        auditing: list[bool] = []
        real_lcm, real_audit = linalg.lcm, linalg._check_optimum

        def recording(*args):
            value = real_lcm(*args)
            if auditing:
                lcms.append(value)
            return value

        def audit(*args):
            auditing.append(True)
            try:
                return real_audit(*args)
            finally:
                auditing.clear()

        monkeypatch.setattr(linalg, "lcm", recording)
        monkeypatch.setattr(linalg, "_check_optimum", audit)
        sol = solve_lp(problem)
        assert sol.objective == -1 and sol.dual == (-1,) + (0,) * len(primes)
        assert lcms and max(v.bit_length() for v in lcms) <= 8

    def test_same_verdict_as_reference_on_seeded_optima(self, monkeypatch):
        rng = random.Random(2022)
        problems = [random_lp(rng) for _ in range(80)] + error_lps(monkeypatch)
        reference_checks = ("negative", "does not hold", "positive", "complementary", "dual feasible")
        audit_checks = ("negative", "> rhs", "positive", "< 0", "but b.y")
        reference_hits, audit_hits = set(), set()
        for problem in problems:
            sol = solve_lp(problem)
            if sol.status != "optimal":
                continue
            for kind in CORRUPTIONS:
                for j in range(3):
                    for q in (1, 7):
                        reference, audit = same_verdict(problem, sol.primal, sol.dual, kind, j, q)
                        reference_hits |= {c for c in reference_checks if c in (reference or "pass")}
                        audit_hits |= {c for c in audit_checks if c in (audit or "pass")}
                        reference_hits.add(reference is None)
        # both audits passed some pairs and raised at each of their checks
        assert reference_hits == {*reference_checks, True, False}
        assert audit_hits == set(audit_checks)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_verdict_as_reference_on_drawn_optima(self, data):
        rat = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 12]))
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(0, 4))
        rows = data.draw(st.lists(st.lists(rat, min_size=n, max_size=n), min_size=m, max_size=m))
        rhs = [abs(v) for v in data.draw(st.lists(rat, min_size=m, max_size=m))]
        # a row with positive entries bounds the feasible set
        rows.append(data.draw(st.lists(rat.map(lambda v: abs(v) + 1), min_size=n, max_size=n)))
        rhs.append(data.draw(rat.map(abs)))
        problem = lp(data.draw(st.lists(rat, min_size=n, max_size=n)), rows, rhs)
        sol = solve_lp(problem)
        assert sol.status == "optimal"
        kind = data.draw(st.sampled_from(CORRUPTIONS))
        j = data.draw(st.integers(0, 5))
        q = data.draw(st.integers(1, 12))
        same_verdict(problem, sol.primal, sol.dual, kind, j, q)
