"""Product grids, tabulated functions, separable sums, incidence matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from golombdual import (
    ProductGrid,
    SeparableSum,
    TabulatedFunction,
    evaluate,
    function_from_csv,
    function_from_json,
    function_to_json,
    incidence_matrix,
    kernel_basis,
    point_index,
    point_of,
    residual,
    sup_norm,
    tabulate,
)

from conftest import (
    CUBE,
    FIVE_POINTS,
    SQUARE,
    dense_matrix_row,
    random_separable,
    rat_matrix,
    table,
)


class TestProductGrid:
    def test_basic_properties(self):
        grid = ProductGrid((3, 3, 2))
        assert grid.n == 3
        assert grid.volume == 18
        assert len(tuple(grid.points())) == 18

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            ProductGrid(())
        with pytest.raises(ValueError):
            ProductGrid((2, 0))

    @pytest.mark.parametrize("sizes", [(2.7, True), (2.0, 2), ("2", 2)], ids=["float-bool", "float", "string"])
    def test_sizes_that_are_not_ints_are_rejected_not_coerced(self, sizes):
        with pytest.raises(ValueError, match="must be ints"):
            ProductGrid(sizes)

    def test_contains(self):
        grid = ProductGrid((2, 2))
        assert grid.contains((1, 1))
        assert not grid.contains((1, 2))
        assert not grid.contains((1,))
        assert not grid.contains((-1, 0))

    @pytest.mark.parametrize(
        "bad", [(0.4, 0), (0, "1"), (True, 0), (1, 1.9)], ids=["float", "string", "bool", "float-above"]
    )
    def test_non_integer_coordinates_are_rejected_not_coerced(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            ProductGrid((2, 2)).check_point(bad)

    def test_points_enumerated_in_index_order(self):
        grid = ProductGrid((2, 3))
        pts = tuple(grid.points())
        assert pts == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
        assert [point_index(grid, p) for p in pts] == list(range(6))


class TestPointIndex:
    def test_corner_cases_on_2x2(self):
        grid = ProductGrid((2, 2))
        assert point_index(grid, (0, 0)) == 0
        assert point_index(grid, (1, 0)) == 2

    def test_three_axis_example(self):
        grid = ProductGrid((3, 3, 2))
        assert point_index(grid, (1, 2, 1)) == 11

    def test_inverse(self):
        grid = ProductGrid((3, 3, 2))
        assert point_of(grid, 11) == (1, 2, 1)
        with pytest.raises(ValueError):
            point_of(grid, 18)
        with pytest.raises(ValueError):
            point_of(grid, -1)

    def test_out_of_range_point(self):
        grid = ProductGrid((2, 2))
        with pytest.raises(ValueError):
            point_index(grid, (0, 2))
        with pytest.raises(ValueError):
            point_index(grid, (0,))

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    def test_bijection_over_full_volume(self, sizes):
        grid = ProductGrid(tuple(sizes))
        for i in range(grid.volume):
            assert point_index(grid, point_of(grid, i)) == i


class TestTabulatedFunction:
    def test_value_at(self):
        f = table((2, 2), [0, 1, 2, 3])
        assert f.value_at((1, 0)) == 2

    def test_length_checked(self):
        with pytest.raises(ValueError):
            table((2, 2), [1, 2, 3])

    def test_arithmetic(self):
        f = table((2, 2), [0, 1, 2, 3])
        g = table((2, 2), [1, 1, 1, 1])
        assert (f + g).values == (1, 2, 3, 4)
        assert (f - g).values == (-1, 0, 1, 2)
        assert (-f).values == (0, -1, -2, -3)
        assert (f * Fraction(1, 2)).values == (0, Fraction(1, 2), 1, Fraction(3, 2))
        assert (f * 2).values == (0, 2, 4, 6)

    @pytest.mark.parametrize("bad", [0.1, True, "1/2"], ids=["float", "bool", "string"])
    def test_values_and_scalars_must_be_ints_or_fractions(self, bad):
        grid = ProductGrid((2, 2))
        with pytest.raises(ValueError, match="int or a Fraction"):
            TabulatedFunction(grid, (bad, 0, 0, 0))
        f = table((2, 2), [0, 1, 2, 3])
        with pytest.raises(ValueError, match="int or a Fraction"):
            f * bad
        with pytest.raises(ValueError, match="int or a Fraction"):
            bad * f

    def test_grid_mismatch(self):
        f = table((2, 2), [0, 1, 2, 3])
        g = table((4,), [0, 1, 2, 3])
        with pytest.raises(ValueError):
            f + g


class TestSeparableSum:
    def test_zero_evaluates_to_zero_everywhere(self):
        g = SeparableSum.zero(CUBE)
        assert all(evaluate(g, p) == 0 for p in CUBE.points())

    def test_two_axis_example(self):
        grid = ProductGrid((2, 2))
        g = SeparableSum(grid, ((0, 1), (0, 1)))
        assert evaluate(g, (1, 1)) == 2

    def test_three_axis_example(self):
        grid = ProductGrid((2, 2, 2))
        g = SeparableSum(grid, ((1, 2), (0, 5), (-1, 0)))
        assert evaluate(g, (0, 1, 0)) == 5

    def test_table_lengths_checked(self):
        with pytest.raises(ValueError):
            SeparableSum(ProductGrid((2, 2)), ((0, 1), (0, 1, 2)))
        with pytest.raises(ValueError):
            SeparableSum(ProductGrid((2, 2)), ((0, 1),))

    @pytest.mark.parametrize("bad", [0.5, False, "1"], ids=["float", "bool", "string"])
    def test_table_values_must_be_ints_or_fractions(self, bad):
        with pytest.raises(ValueError, match="int or a Fraction"):
            SeparableSum(ProductGrid((2, 2)), ((0, bad), (0, 1)))

    def test_tabulate_matches_evaluate(self):
        rng = random.Random(3)
        grid = ProductGrid((2, 3, 2))
        g = random_separable(rng, grid)
        f = tabulate(g)
        assert all(f.value_at(p) == evaluate(g, p) for p in grid.points())


class TestResidual:
    def test_zero_approximant_returns_f(self):
        f = table((2, 2), [3, 1, 4, 1])
        assert residual(f, SeparableSum.zero(f.grid)) == f

    def test_exact_separable_gives_zero_residual(self):
        rng = random.Random(9)
        grid = ProductGrid((3, 2))
        g = random_separable(rng, grid)
        res = residual(tabulate(g), g)
        assert all(v == 0 for v in res.values)
        assert sup_norm(res) == 0

    def test_product_table_against_its_best_approximant(self):
        f = table((2, 2), [0, 0, 0, 1])  # f(x, y) = x*y
        g = SeparableSum(
            f.grid, ((Fraction(-1, 4), Fraction(1, 4)), (0, Fraction(1, 2)))
        )
        res = residual(f, g)
        assert res.values == (
            Fraction(1, 4),
            Fraction(-1, 4),
            Fraction(-1, 4),
            Fraction(1, 4),
        )
        assert sup_norm(res) == Fraction(1, 4)

    def test_grid_mismatch(self):
        f = table((2, 2), [0, 0, 0, 1])
        g = SeparableSum.zero(ProductGrid((2, 3)))
        with pytest.raises(ValueError):
            residual(f, g)


class TestIncidenceMatrix:
    def test_square_matrix_and_kernel(self):
        grid = ProductGrid((2, 2))
        m = incidence_matrix(SQUARE, grid)
        assert (m.rows, m.cols) == (4, 4)
        assert m == rat_matrix([
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ])
        assert kernel_basis(m) == ((1, -1, 1, -1),)

    def test_single_point_is_a_column_of_ones(self):
        m = incidence_matrix([(1, 2, 0)], ProductGrid((3, 3, 2)))
        assert (m.rows, m.cols) == (3, 1)
        assert m == rat_matrix([[1], [1], [1]])
        assert kernel_basis(m) == ()

    def test_five_point_matrix(self):
        m = incidence_matrix(FIVE_POINTS, CUBE)
        assert (m.rows, m.cols) == (6, 5)
        assert m == rat_matrix([
            [1, 1, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [1, 1, 0, 1, 0],
            [0, 0, 1, 0, 1],
            [1, 0, 1, 1, 0],
            [0, 1, 0, 0, 1],
        ])
        assert kernel_basis(m) == ((2, -1, -1, -1, 1),)

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError):
            incidence_matrix([(0, 0), (0, 0)], ProductGrid((2, 2)))

    def test_each_column_has_one_entry_per_axis(self):
        rng = random.Random(21)
        for _ in range(20):
            grid = ProductGrid(tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 3))))
            pts = rng.sample(tuple(grid.points()), rng.randint(1, grid.volume))
            m = incidence_matrix(pts, grid)
            for j in range(m.cols):
                assert sum(dense_matrix_row(m, i)[j] for i in range(m.rows)) == grid.n

    def test_kernel_vectors_have_vanishing_class_sums(self):
        rng = random.Random(22)
        for _ in range(20):
            grid = ProductGrid((3, 2, 2))
            pts = rng.sample(tuple(grid.points()), rng.randint(2, 10))
            m = incidence_matrix(pts, grid)
            for v in kernel_basis(m):
                for axis in range(grid.n):
                    for value in range(grid.factor_sizes[axis]):
                        total = sum(
                            w for p, w in zip(pts, v) if p[axis] == value
                        )
                        assert total == 0


class TestSerialization:
    def test_json_round_trip(self):
        f = table((2, 3), [1, Fraction(-1, 2), 0, 7, Fraction(2, 3), -4])
        obj = function_to_json(f)
        assert obj["shape"] == [2, 3]
        assert obj["values"][1] == "-1/2"
        assert function_from_json(obj) == f

    def test_json_requires_matching_length(self):
        with pytest.raises(ValueError):
            function_from_json({"shape": [2, 2], "values": ["1", "2"]})

    def test_json_requires_keys(self):
        with pytest.raises(ValueError):
            function_from_json({"shape": [2, 2]})
        with pytest.raises(ValueError):
            function_from_json([1, 2, 3])

    def test_json_values_must_be_a_list(self):
        with pytest.raises(ValueError, match='"values" must be a list'):
            function_from_json({"shape": [2, 2], "values": "0 1 1 0"})

    def test_json_shape_entries_must_not_be_booleans(self):
        with pytest.raises(ValueError, match="list of integers"):
            function_from_json({"shape": [True, 2], "values": ["0", "1"]})

    def test_csv_rows_are_first_axis(self):
        f = function_from_csv("0,1\n2,3\n")
        assert f.grid == ProductGrid((2, 2))
        assert f.values == (0, 1, 2, 3)
        assert f.value_at((1, 0)) == 2

    def test_csv_accepts_fractions_and_spaces(self):
        f = function_from_csv("1/2, -3\n 0 , 2/6 \n")
        assert f.values == (Fraction(1, 2), -3, 0, Fraction(1, 3))

    def test_csv_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            function_from_csv("1,2\n3\n")

    def test_csv_rejects_empty(self):
        with pytest.raises(ValueError):
            function_from_csv("")
