"""Cycles: weight vectors, two-part form, minimality, enumeration, decomposition."""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golombdual.cycles as cycles
import golombdual.grids as grids
from golombdual import (
    CertificateError,
    CycleVectorPair,
    Decomposition,
    FiniteSignedMeasure,
    GolombCycle,
    MinimalCycle,
    ProductGrid,
    decompose,
    enumerate_minimal_cycles,
    extract_extreme_cycle,
    from_golomb_form,
    incidence_matrix,
    is_orthogonal,
    kernel_basis,
    matrix_rank,
    measure_from_pair,
    normalize_minimal,
    pair_from_json,
    pair_to_json,
    point_index,
    to_golomb_form,
    total_variation,
)
from golombdual.chebyshev import DEFAULT_ENUM_BUDGET
from golombdual.linalg import _int_row

from conftest import (
    CUBE,
    FIVE_CERT,
    FIVE_POINTS,
    SIX_CERT,
    SIX_POINTS,
    SQUARE,
    _normalized,
    bareiss_kernel_basis,
    bareiss_rank,
    brute_force_minimal_cycles,
    corrupt_enumeration,
    corrupt_relations,
    corrupt_term_weights,
    corrupt_walk,
    decompose_by_measures,
    has_lonely_point,
    integer_columns,
    reference_circuits,
    reference_incidence_matrix,
    subset_scan_cycles,
    whole_support_walk,
)

GRID22 = ProductGrid((2, 2))
GRID44 = ProductGrid((4, 4))

SQUARE_FAR = ((2, 2), (2, 3), (3, 3), (3, 2))

# a minimal cycle on 3x3x3x3 whose normalized weights (over 30) have the
# coprime denominators 5 (6/30) and 6 (5/30)
COPRIME_GRID = ProductGrid((3, 3, 3, 3))
COPRIME_POINTS = (
    (0, 0, 0, 0), (0, 0, 2, 1), (0, 2, 0, 2), (1, 1, 1, 0), (1, 1, 2, 2),
    (1, 2, 0, 2), (1, 2, 1, 2), (2, 0, 1, 2), (2, 1, 2, 1), (2, 2, 2, 0),
)
COPRIME_CERT = (5, -3, -2, -4, 1, -3, 6, -2, 3, -1)


def square_cycle() -> MinimalCycle:
    return normalize_minimal(SQUARE, GRID22)


class TestCycleVectorPair:
    def test_valid_pair(self):
        pair = CycleVectorPair(GRID22, SQUARE, (1, -1, 1, -1))
        assert pair.weights == (1, -1, 1, -1)

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            CycleVectorPair(GRID22, SQUARE, (1, -1, 0, 0))

    @pytest.mark.parametrize("bad", [0.25, True, "1/4"], ids=["float", "bool", "string"])
    def test_rejects_weights_that_are_not_ints_or_fractions(self, bad):
        with pytest.raises(ValueError, match="int or a Fraction"):
            CycleVectorPair(GRID22, SQUARE, (bad, -1, 1, -1))

    def test_rejects_vector_outside_kernel(self):
        with pytest.raises(ValueError):
            CycleVectorPair(GRID22, SQUARE, (1, -1, 1, 1))

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            CycleVectorPair(
                GRID22, ((0, 0), (0, 0), (1, 1), (1, 0)), (1, -1, 1, -1)
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CycleVectorPair(GRID22, SQUARE, (1, -1, 1))

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError, match="a cycle needs at least one point"):
            CycleVectorPair(GRID22, (), ())

    def test_six_point_certificate_validates(self):
        pair = CycleVectorPair(CUBE, SIX_POINTS, SIX_CERT)
        assert pair.weights == SIX_CERT


# a cycle on the 2x3 grid: twice the square on columns 0-1 plus the square
# on columns 1-2, with weights (2, -1, -1, -2, 1, 1)
WIDE_POINTS = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
WIDE_FORM = (((0, 0), (0, 0), (1, 1), (1, 2)), ((0, 1), (0, 2), (1, 0), (1, 0)))


def golomb_parts(grid, points, weights):
    gc = to_golomb_form(CycleVectorPair(grid, points, tuple(weights)))
    return gc.b_part, gc.c_part


class TestIntegerCertificate:
    """The integer certificate of a cycle, its weights scaled to coprime
    integers, is what ``to_golomb_form`` expands into the two parts."""

    def test_from_normalized_weights(self):
        weights = (
            Fraction(1, 3),
            Fraction(-1, 6),
            Fraction(-1, 6),
            Fraction(-1, 6),
            Fraction(1, 6),
        )
        parts = golomb_parts(CUBE, FIVE_POINTS, weights)
        assert parts == golomb_parts(CUBE, FIVE_POINTS, FIVE_CERT)
        assert parts == (
            ((0, 0, 0), (0, 0, 0), (1, 1, 1)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        )

    def test_integral_input_passes_through(self):
        assert golomb_parts(GRID22, SQUARE, (1, -1, 1, -1)) == (((0, 0), (1, 1)), ((0, 1), (1, 0)))

    def test_common_factor_removed(self):
        grid = ProductGrid((2, 3))
        for weights in (
            tuple(Fraction(v, 12) for v in (4, -2, -2, -4, 2, 2)),
            (6, -3, -3, -6, 3, 3),
            tuple(Fraction(v, 5) for v in (4, -2, -2, -4, 2, 2)),
        ):
            assert golomb_parts(grid, WIDE_POINTS, weights) == WIDE_FORM
        assert golomb_parts(GRID22, SQUARE, (2, -2, 2, -2)) == (((0, 0), (1, 1)), ((0, 1), (1, 0)))


class TestGolombCycle:
    def test_valid_square_form(self):
        gc = GolombCycle(GRID22, ((0, 0), (1, 1)), ((0, 1), (1, 0)))
        assert gc.k == 2

    def test_parts_must_have_equal_size(self):
        with pytest.raises(ValueError):
            GolombCycle(GRID22, ((0, 0),), ((0, 1), (1, 0)))

    def test_parts_must_be_disjoint(self):
        with pytest.raises(ValueError):
            GolombCycle(GRID22, ((0, 0), (1, 1)), ((0, 0), (1, 0)))

    def test_coordinates_must_permute(self):
        with pytest.raises(ValueError):
            GolombCycle(GRID22, ((0, 0), (1, 1)), ((0, 1), (1, 1)))
        with pytest.raises(ValueError):
            GolombCycle(
                ProductGrid((3, 3)), ((0, 0), (1, 1)), ((0, 1), (2, 0))
            )

    def test_repeated_points_allowed_within_a_part(self):
        gc = GolombCycle(
            CUBE,
            ((0, 0, 0), (0, 0, 0), (1, 1, 1)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        )
        assert gc.k == 3


def sorted_coordinates_rule(b_part, c_part, n) -> bool:
    """Reference permutation test by sorting, independent of the class
    sums: equal nonempty sizes, no shared point, and equal sorted
    coordinates on every axis."""
    if not b_part or len(b_part) != len(c_part) or set(b_part) & set(c_part):
        return False
    return all(sorted(p[a] for p in b_part) == sorted(p[a] for p in c_part) for a in range(n))


def golomb_accepts(grid, b_part, c_part) -> bool:
    try:
        GolombCycle(grid, b_part, c_part)
    except ValueError:
        return False
    return True


class TestGolombCycleMatchesSortedCoordinates:
    """The class-sum test accepts and rejects exactly the two-part forms the
    sorted-coordinates rule does."""

    @pytest.mark.parametrize("shape", ((4, 4), (3, 3, 2), (2, 2, 2, 2)))
    def test_seeded_multisets(self, shape):
        grid = ProductGrid(shape)
        pts = tuple(grid.points())
        rng = random.Random(2207)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            k = rng.randint(1, 5)
            b_part = tuple(rng.choice(pts) for _ in range(k))
            kind = rng.choice(("permuted", "one axis", "unequal", "shared", "random"))
            if kind in ("permuted", "one axis"):
                # permute each axis's coordinates (only axis 0 for "one
                # axis"), a few tries to find c disjoint from b
                for _ in range(10):
                    coords = [[p[a] for p in b_part] for a in range(grid.n)]
                    for a in range(grid.n if kind == "permuted" else 1):
                        rng.shuffle(coords[a])
                    c_part = tuple(zip(*coords))
                    if not set(b_part) & set(c_part):
                        break
            elif kind == "unequal":
                c_part = tuple(rng.choice(pts) for _ in range(k + rng.choice((-1, 1))))
            elif kind == "shared":
                c_part = (rng.choice(b_part),) + tuple(rng.choice(pts) for _ in range(k - 1))
            else:
                c_part = tuple(rng.choice(pts) for _ in range(k))
            want = sorted_coordinates_rule(b_part, c_part, grid.n)
            assert golomb_accepts(grid, b_part, c_part) == want, (b_part, c_part)
            verdicts[want] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20

    def test_permutation_on_one_axis_only_is_rejected(self):
        b_part = ((0, 0, 0), (1, 1, 0))
        c_part = ((1, 0, 0), (0, 1, 1))  # axes 0 and 1 permute, axis 2 does not
        assert not sorted_coordinates_rule(b_part, c_part, 3)
        assert not golomb_accepts(CUBE, b_part, c_part)


def seeded_point_sets(grid: ProductGrid, rng: random.Random, count: int):
    """Point sets of 1 to 9 points: random samples (mostly with lonely
    points), unions of two minimal cycles (kernels of dimension 2 or more),
    cycles with extra points, and samples with a repeated point."""
    pts = tuple(grid.points())
    found = enumerate_minimal_cycles(grid, max_support=6)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield tuple(rng.sample(pts, rng.randint(1, 9)))
        elif kind == 1:
            a, b = rng.sample(found, 2)
            union = tuple(dict.fromkeys(a.points + b.points))
            yield union if len(union) <= 9 else a.points
        elif kind == 2:
            a = rng.choice(found)
            extra = [p for p in pts if p not in a.points]
            yield a.points + tuple(rng.sample(extra, rng.randint(0, 9 - len(a.points))))
        else:
            sample = rng.sample(pts, rng.randint(1, 8))
            yield tuple(sample) + (rng.choice(sample),)


class TestCycleHelpersMatchReferences:
    """``incidence_matrix`` matches the row-by-row reference, and
    ``normalize_minimal``, which runs on the integer class columns, matches
    the Bareiss kernel of that reference matrix."""

    @pytest.mark.parametrize("shape", ((4, 4), (3, 3, 2), (2, 2, 2, 2)))
    def test_seeded_point_sets(self, shape):
        grid = ProductGrid(shape)
        rng = random.Random(9091)
        kinds = {"repeated": 0, "lonely": 0, "wide kernel": 0, "minimal": 0}
        for points in seeded_point_sets(grid, rng, 240):
            if len(set(points)) != len(points):
                kinds["repeated"] += 1
                for helper in (incidence_matrix, reference_incidence_matrix, normalize_minimal):
                    with pytest.raises(ValueError, match="duplicate"):
                        helper(points, grid)
                continue
            reference = reference_incidence_matrix(points, grid)
            assert incidence_matrix(points, grid) == integer_columns(reference)
            basis = bareiss_kernel_basis(reference)
            minimal = len(basis) == 1 and all(basis[0])
            ordered = tuple(sorted(points, key=lambda p: point_index(grid, p)))
            if minimal:
                kinds["minimal"] += 1
                (vec,) = bareiss_kernel_basis(reference_incidence_matrix(ordered, grid))
                assert normalize_minimal(points, grid) == _normalized(ordered, vec, grid)
            else:
                with pytest.raises(ValueError, match="not a minimal cycle"):
                    normalize_minimal(points, grid)
            kinds["wide kernel"] += len(basis) >= 2
            kinds["lonely"] += has_lonely_point(range(len(points)), points, grid.n)
        assert min(kinds.values()) >= 10, kinds


def coprime_b_first(pair: CycleVectorPair) -> CycleVectorPair:
    """The pair with its weights scaled to coprime integers, the points of
    positive weight first, each group in the pair's order."""
    den = lcm(*(w.denominator for w in pair.weights))
    ints = [int(w * den) for w in pair.weights]
    g = gcd(*ints)
    order = [i for i, n in enumerate(ints) if n > 0] + [i for i, n in enumerate(ints) if n < 0]
    return CycleVectorPair(
        pair.grid, tuple(pair.points[i] for i in order), tuple(ints[i] // g for i in order)
    )


class TestGolombConversion:
    def test_five_point_form(self):
        gc = to_golomb_form(CycleVectorPair(CUBE, FIVE_POINTS, FIVE_CERT))
        assert gc.b_part == ((0, 0, 0), (0, 0, 0), (1, 1, 1))
        assert gc.c_part == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_square_form(self):
        gc = to_golomb_form(CycleVectorPair(GRID22, SQUARE, (1, -1, 1, -1)))
        assert gc.b_part == ((0, 0), (1, 1))
        assert gc.c_part == ((0, 1), (1, 0))

    def test_from_square_form(self):
        gc = GolombCycle(GRID22, ((0, 0), (1, 1)), ((0, 1), (1, 0)))
        pair = from_golomb_form(gc)
        assert pair.points == ((0, 0), (1, 1), (0, 1), (1, 0))
        assert pair.weights == (1, 1, -1, -1)

    def test_from_five_point_form(self):
        gc = GolombCycle(
            CUBE,
            ((0, 0, 0), (0, 0, 0), (1, 1, 1)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        )
        pair = from_golomb_form(gc)
        assert pair.points == (
            (0, 0, 0),
            (1, 1, 1),
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        )
        assert pair.weights == (2, 1, -1, -1, -1)

    def test_multiplicity_gcd_is_reduced(self):
        # Both parts doubled: multiplicities (2, -2) reduce to the primitive
        # weights (1, -1, ...) so the invariant gcd = 1 holds.
        gc = GolombCycle(
            GRID22,
            ((0, 0), (0, 0), (1, 1), (1, 1)),
            ((0, 1), (0, 1), (1, 0), (1, 0)),
        )
        assert from_golomb_form(gc).weights == (1, 1, -1, -1)

    def test_round_trip_on_enumerated_cycles(self):
        grid = ProductGrid((3, 3, 2))
        pairs = list(enumerate_minimal_cycles(grid))
        assert len(pairs) == 1740
        pairs += [
            CycleVectorPair(CUBE, FIVE_POINTS, FIVE_CERT),
            CycleVectorPair(CUBE, FIVE_POINTS, tuple(3 * w for w in FIVE_CERT)),
            CycleVectorPair(CUBE, FIVE_POINTS, tuple(Fraction(-w, 7) for w in FIVE_CERT)),
            CycleVectorPair(CUBE, SIX_POINTS, SIX_CERT),
            CycleVectorPair(CUBE, SIX_POINTS, tuple(Fraction(2 * w, 9) for w in SIX_CERT)),
        ]
        for pair in pairs:
            assert from_golomb_form(to_golomb_form(pair)) == coprime_b_first(pair)


class TestMinimality:
    def test_five_points_minimal(self):
        normalize_minimal(FIVE_POINTS, CUBE)

    def test_six_points_not_minimal(self):
        with pytest.raises(ValueError, match="not a minimal cycle"):
            normalize_minimal(SIX_POINTS, CUBE)

    def test_square_minimal(self):
        normalize_minimal(SQUARE, GRID22)

    def test_non_cycles_not_minimal(self):
        for points in ([(0, 0)], [(0, 0), (0, 1)]):
            with pytest.raises(ValueError, match="not a minimal cycle"):
                normalize_minimal(points, GRID22)

    def test_minimal_sets_have_no_proper_subcycle(self):
        # a circuit's proper subsets are independent: no relation at all
        for points in (FIVE_POINTS, SQUARE):
            grid = CUBE if len(points[0]) == 3 else GRID22
            normalize_minimal(points, grid)
            for size in range(1, len(points)):
                for subset in combinations(points, size):
                    assert kernel_basis(incidence_matrix(subset, grid)) == []


class TestMinimalCycleNormalization:
    """``MinimalCycle`` tests sum |w| = 1 as sum |n_i| = D over the weights'
    integer row n / D."""

    def test_weights_with_coprime_denominators_summing_to_one(self):
        weights = tuple(Fraction(v, 30) for v in COPRIME_CERT)
        assert {5, 6} <= {w.denominator for w in weights}
        assert sum(abs(w) for w in weights) == 1
        mc = MinimalCycle(COPRIME_GRID, COPRIME_POINTS, weights)
        assert mc.weights == weights
        assert mc == normalize_minimal(COPRIME_POINTS, COPRIME_GRID)

    def test_a_sum_of_one_plus_one_over_a_large_prime_is_rejected(self):
        p = 2**61 - 1  # a Mersenne prime
        weights = tuple(Fraction(v, 30) * (1 + Fraction(1, p)) for v in COPRIME_CERT)
        assert sum(abs(w) for w in weights) == 1 + Fraction(1, p)
        with pytest.raises(ValueError, match="normalized to total mass 1"):
            MinimalCycle(COPRIME_GRID, COPRIME_POINTS, weights)


class TestNormalizeMinimal:
    def test_five_point_weights(self):
        mc = normalize_minimal(FIVE_POINTS, CUBE)
        assert mc.points == FIVE_POINTS
        assert mc.weights == (
            Fraction(1, 3),
            Fraction(-1, 6),
            Fraction(-1, 6),
            Fraction(-1, 6),
            Fraction(1, 6),
        )

    def test_square_weights_in_flat_index_order(self):
        mc = square_cycle()
        assert mc.points == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert mc.weights == (
            Fraction(1, 4),
            Fraction(-1, 4),
            Fraction(-1, 4),
            Fraction(1, 4),
        )

    def test_point_order_does_not_matter(self):
        rng = random.Random(5)
        reference = normalize_minimal(FIVE_POINTS, CUBE)
        shuffled = list(FIVE_POINTS)
        for _ in range(10):
            rng.shuffle(shuffled)
            assert normalize_minimal(shuffled, CUBE) == reference

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            normalize_minimal(SIX_POINTS, CUBE)
        with pytest.raises(ValueError):
            normalize_minimal([(0, 0), (0, 1)], GRID22)

    def test_minimal_cycle_validation(self):
        MinimalCycle(
            GRID22,
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            (Fraction(1, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 4)),
        )
        with pytest.raises(ValueError, match="normalized to total mass 1"):
            MinimalCycle(GRID22, ((0, 0), (0, 1), (1, 0), (1, 1)), (1, -1, -1, 1))

    def test_minimal_cycle_allows_either_orientation(self):
        mc = MinimalCycle(
            GRID22,
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            (Fraction(-1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(-1, 4)),
        )
        assert mc.measure() == -square_cycle().measure()

    def test_measure_of_minimal_cycle(self):
        mc = square_cycle()
        mu = mc.measure()
        assert total_variation(mu) == 1
        assert is_orthogonal(mu)


class TestEnumeration:
    def test_full_2x2_has_exactly_the_square(self):
        cycles = enumerate_minimal_cycles(GRID22)
        assert cycles == (square_cycle(),)

    def test_six_point_set_contains_five_point_cycle(self):
        cycles = enumerate_minimal_cycles(CUBE, SIX_POINTS)
        assert normalize_minimal(FIVE_POINTS, CUBE) in cycles

    def test_counts_on_two_axis_grids_match_closed_form(self):
        # On an s-by-t grid the minimal cycles are exactly the simple cycles
        # of the complete bipartite graph: sum over k >= 2 of
        # C(s,k) * C(t,k) * k! * (k-1)! / 2.
        from math import comb, factorial

        for s, t in ((2, 2), (3, 3), (4, 4), (2, 3)):
            expected = sum(
                comb(s, k) * comb(t, k) * factorial(k) * factorial(k - 1) // 2
                for k in range(2, min(s, t) + 1)
            )
            assert len(enumerate_minimal_cycles(ProductGrid((s, t)))) == expected

    def test_matches_brute_force_on_small_grids(self):
        for shape in ((2, 2), (2, 3), (2, 2, 2)):
            grid = ProductGrid(shape)
            assert set(enumerate_minimal_cycles(grid)) == brute_force_minimal_cycles(
                grid
            )

    def test_order_is_by_size_then_flat_indices(self):
        grid = ProductGrid((3, 3))
        cycles = enumerate_minimal_cycles(grid)
        keys = [
            (len(c.points), tuple(point_index(grid, p) for p in c.points))
            for c in cycles
        ]
        assert keys == sorted(keys)

    def test_support_cap_restricts_output(self):
        grid = ProductGrid((3, 3))
        small = enumerate_minimal_cycles(grid, max_support=4)
        assert small == tuple(
            c for c in enumerate_minimal_cycles(grid) if len(c.points) <= 4
        )
        assert len(small) == 9

    def test_support_cap_below_two_is_rejected(self):
        grid = ProductGrid((3, 3))
        for cap in (-3, 0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                enumerate_minimal_cycles(grid, max_support=cap)
        assert enumerate_minimal_cycles(grid, max_support=2) == ()
        assert enumerate_minimal_cycles(grid, max_support=3) == ()

    def test_point_subset_restricts_support(self):
        cycles = enumerate_minimal_cycles(CUBE, FIVE_POINTS)
        assert cycles == (normalize_minimal(FIVE_POINTS, CUBE),)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            enumerate_minimal_cycles(GRID22, ((0, 0), (0, 0)))

    def test_computed_relation_that_fails_its_audit_is_a_certificate_error(self, monkeypatch):
        corrupt_enumeration(monkeypatch, cycles)
        with pytest.raises(CertificateError, match="not a minimal cycle"):
            enumerate_minimal_cycles(ProductGrid((3, 3)))


# every two-axis shape from 2x2 to 5x4, and the small grids with 3 and 4 axes
SEARCH_SHAPES = tuple((s, t) for s in range(2, 6) for t in range(2, 5)) + (
    (2, 2, 2),
    (3, 2, 2),
    (3, 3, 2),
    (2, 2, 2, 2),
)
# grids with an axis of size 1, whose one class holds every point
SIZE_ONE_SHAPES = ((1, 3, 3), (3, 1, 2), (2, 2, 1, 2))


def integer_rank_is_exact(points, grid) -> bool:
    return matrix_rank(incidence_matrix(points, grid)) == bareiss_rank(
        reference_incidence_matrix(points, grid)
    )


class TestCircuitSearch:
    """The depth-first circuit search returns exactly the tuple of the subset
    scan it replaced (``conftest.subset_scan_cycles``): the same points, the
    same weights, in the same order."""

    @pytest.mark.parametrize("shape", SEARCH_SHAPES)
    def test_full_grid_matches_subset_scan(self, shape):
        grid = ProductGrid(shape)
        found = enumerate_minimal_cycles(grid)
        assert found == subset_scan_cycles(grid)
        for c in found:
            assert integer_rank_is_exact(c.points, grid)
            assert matrix_rank(incidence_matrix(c.points, grid)) == len(c.points) - 1

    @pytest.mark.parametrize("shape", ((2, 3), (3, 3), (3, 4), (4, 4), (2, 2, 2), (3, 2, 2)))
    def test_every_cap_matches_subset_scan(self, shape):
        grid = ProductGrid(shape)
        rank = matrix_rank(incidence_matrix(tuple(grid.points()), grid))
        for cap in range(2, rank + 2):
            assert enumerate_minimal_cycles(grid, max_support=cap) == subset_scan_cycles(
                grid, max_support=cap
            )

    def test_point_subsets_match_subset_scan(self):
        for points in (FIVE_POINTS, SIX_POINTS):
            assert enumerate_minimal_cycles(CUBE, points) == subset_scan_cycles(CUBE, points)
        rng = random.Random(6061)
        grid = ProductGrid((3, 3, 2))
        pts = tuple(grid.points())
        seen = 0
        for _ in range(16):
            subset = rng.sample(pts, rng.randint(6, 14))
            for cap in (None, 4):
                found = enumerate_minimal_cycles(grid, subset, cap)
                assert found == subset_scan_cycles(grid, subset, cap)
                seen += len(found)
        assert seen > 0

    @pytest.mark.parametrize("shape", ((3, 4), (3, 3, 2), (1, 2, 3)))
    def test_hits_are_points_and_primitive_relations(self, shape):
        # one hit per cycle: its points in flat-index order and its primitive
        # integer relation, first entry positive, proportional to the weights
        grid = ProductGrid(shape)
        hits, _, truncated = cycles._enumerate(grid, None, None, None)
        found = enumerate_minimal_cycles(grid)
        assert not truncated and len(hits) == len(found)
        for (points, relation), cycle in zip(hits, found):
            assert points == cycle.points
            flat = [point_index(grid, p) for p in points]
            assert flat == sorted(flat)
            assert relation[0] > 0 and gcd(*relation) == 1
            mass = sum(abs(n) for n in relation)
            assert tuple(Fraction(n, mass) for n in relation) == cycle.weights

    def test_integer_rank_on_non_minimal_sets(self):
        rng = random.Random(8087)
        for shape in ((4, 4), (3, 3, 2), (2, 2, 2, 2)):
            grid = ProductGrid(shape)
            pts = tuple(grid.points())
            found = enumerate_minimal_cycles(grid)
            for _ in range(40):
                a, b = rng.sample(found, 2)
                extra = rng.sample([p for p in pts if p not in a.points], rng.randint(1, 3))
                superset = a.points + tuple(extra)
                union = tuple(dict.fromkeys(a.points + b.points))
                lonely = ()
                while not has_lonely_point(range(len(lonely)), lonely, grid.n):
                    lonely = tuple(rng.sample(pts, rng.randint(2, len(pts) // 2)))
                assert matrix_rank(incidence_matrix(union, grid)) <= len(union) - 2  # kernel >= 2
                for points in (superset, union, lonely):
                    assert integer_rank_is_exact(points, grid)

    def test_minimal_cycle_rejects_a_wider_kernel(self):
        # a nowhere-zero combination of two cycles satisfies every check of
        # CycleVectorPair and has total mass 1; only the rank says its kernel
        # is not one line
        total = sum(abs(c) for c in SIX_CERT)
        weights = tuple(Fraction(c, total) for c in SIX_CERT)
        CycleVectorPair(CUBE, SIX_POINTS, weights)
        with pytest.raises(ValueError, match="not one dimensional"):
            MinimalCycle(CUBE, SIX_POINTS, weights)
        rng = random.Random(3331)
        for shape in ((4, 4), (3, 3, 2), (2, 2, 2, 2)):
            grid = ProductGrid(shape)
            found = enumerate_minimal_cycles(grid)
            rejected = 0
            while rejected < 20:
                a, b = rng.sample(found, 2)
                s, t = rng.choice((1, 2, 3)), rng.choice((-2, -1, 1, 2))
                mass: dict[tuple[int, ...], Fraction] = {}
                for c, k in ((a, s), (b, t)):
                    for p, w in zip(c.points, c.weights):
                        mass[p] = mass.get(p, Fraction(0)) + k * w
                if not all(mass.values()):
                    continue
                norm = sum(abs(m) for m in mass.values())
                weights = tuple(m / norm for m in mass.values())
                CycleVectorPair(grid, tuple(mass), weights)
                with pytest.raises(ValueError, match="not one dimensional"):
                    MinimalCycle(grid, tuple(mass), weights)
                with pytest.raises(ValueError, match="not a minimal cycle"):
                    normalize_minimal(tuple(mass), grid)
                rejected += 1

    @pytest.mark.parametrize(
        ("shape", "steps"),
        (((3, 3, 2), 8318), ((2, 2, 2, 2), 5710), ((4, 4), 1658)),
        ids=["3x3x2", "2x2x2x2", "4x4"],
    )
    def test_each_depth_keeps_its_cleared_columns(self, shape, steps):
        # every read of a cleared column goes through _circuits' inner
        # cleared, which stores what it computes in levels[d][j]; a search
        # that recomputed a stored column would call it more often (21614,
        # 14591 and 3560 times without the store)
        calls = []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name == "cleared" and code.co_filename == cycles.__file__:
                calls.append(1)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            cycles._enumerate(ProductGrid(shape), None, None, None)
        finally:
            sys.setprofile(previous)
        assert len(calls) == steps


class TestCircuitSearchMatchesReference:
    """The search that keeps its cleared columns per depth returns the very
    triple of the search that cleared each candidate from scratch
    (``conftest.reference_circuits``): the same hits in the same order, the
    same number of tested sets and the same truncation, budgets included."""

    @staticmethod
    def classes_of(points, grid):
        pts = tuple(sorted(points))
        classes, nrows = cycles._class_ids(pts, grid.n)
        return classes, nrows, min(matrix_rank(incidence_matrix(pts, grid)) + 1, len(pts))

    @pytest.mark.parametrize("shape", SEARCH_SHAPES + SIZE_ONE_SHAPES)
    def test_full_grid_at_every_cap_and_budget(self, shape):
        grid = ProductGrid(shape)
        classes, nrows, top = self.classes_of(grid.points(), grid)
        for cap in range(2, top + 1):
            found = cycles._circuits(classes, nrows, cap, None)
            assert found == reference_circuits(classes, nrows, cap, None)
        tested = found[1]
        for budget in (0, 1, tested // 3, tested - 1, tested, None):
            assert cycles._circuits(classes, nrows, top, budget) == reference_circuits(
                classes, nrows, top, budget
            )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_point_subsets(self, data):
        shapes = ((3, 3, 2), (2, 2, 2, 2), (2, 3, 4), (4, 4)) + SIZE_ONE_SHAPES
        grid = ProductGrid(data.draw(st.sampled_from(shapes)))
        points = data.draw(
            st.lists(st.sampled_from(tuple(grid.points())), min_size=2, max_size=14, unique=True)
        )
        classes, nrows, top = self.classes_of(points, grid)
        cap = data.draw(st.integers(2, top))
        budget = data.draw(st.none() | st.integers(0, 300))
        assert cycles._circuits(classes, nrows, cap, budget) == reference_circuits(
            classes, nrows, cap, budget
        )

    @pytest.mark.parametrize(
        "shape, found, candidates",
        (
            ((3, 3, 2), 1740, 3577),
            ((2, 2, 2, 2), 1348, 2727),
            ((4, 4), 204, 620),
            ((5, 5), 3940, 19967),
        ),
        ids=["3x3x2", "2x2x2x2", "4x4", "5x5"],
    )
    def test_full_grid_counts(self, shape, found, candidates):
        # the search tree itself: any change to it shows in these counts, and
        # the candidates are the unit of the enumeration budget (README)
        hits, tested, truncated = cycles._enumerate(ProductGrid(shape), None, None, None)
        assert (len(hits), tested, truncated) == (found, candidates, False)


class TestSearchBudget:
    """A candidate is a point set whose independence was tested. The
    reference search (``conftest.reference_circuits``) tests each one with
    one elimination of a new column against the chosen ones; the search
    clears a column one basis row at a time and tests the same sets."""

    def counting_eliminate(self, monkeypatch) -> list[int]:
        calls: list[int] = []
        real = cycles._eliminate

        def counted(col, basis):
            calls.append(1)
            return real(col, basis)

        monkeypatch.setattr(cycles, "_eliminate", counted)
        return calls

    @pytest.mark.parametrize("shape", ((3, 4), (3, 3, 2)))
    def test_candidates_count_independence_tests(self, shape, monkeypatch):
        grid = ProductGrid(shape)
        classes, nrows = cycles._class_ids(tuple(grid.points()), grid.n)
        cap = matrix_rank(incidence_matrix(tuple(grid.points()), grid)) + 1
        calls = self.counting_eliminate(monkeypatch)
        reference = reference_circuits(classes, nrows, cap, None)
        hits, tested, truncated = cycles._circuits(classes, nrows, cap, None)
        assert (hits, tested, truncated) == reference
        assert not truncated
        assert tested == len(calls) > len(hits) > 0
        for b in (0, 1, tested // 3, tested - 1):
            calls.clear()
            assert reference_circuits(classes, nrows, cap, b)[1:] == (b + 1, True)
            assert len(calls) == b
            partial, count, truncated = cycles._circuits(classes, nrows, cap, b)
            assert truncated and count == b + 1
            assert partial == [h for h in hits if h in partial]
        calls.clear()
        assert reference_circuits(classes, nrows, cap, tested) == (hits, tested, False)
        assert len(calls) == tested
        assert cycles._circuits(classes, nrows, cap, tested) == (hits, tested, False)

    def test_enumerate_truncates_exactly_past_the_budget(self):
        # a cut search on the full grid returns only circuits through the
        # origin (TestSearchThroughTheOrigin), a subsequence of the full
        # order; two axes are counted first (TestTwoAxisCount)
        for shape in ((2, 2, 2, 2), (3, 3, 2)):
            grid = ProductGrid(shape)
            origin = (0,) * grid.n
            full, total, truncated = cycles._enumerate(grid, None, None, None)
            assert not truncated
            for b in (0, 1, total // 2, total - 1):
                found, candidates, truncated = cycles._enumerate(grid, None, None, b)
                assert truncated and candidates == b + 1
                assert found == [h for h in full if h in found]
                assert all(h[0][0] == origin for h in found)
            assert cycles._enumerate(grid, None, None, total) == (full, total, False)
            # every call searches afresh: one candidate short of the whole search
            found, candidates, truncated = cycles._enumerate(grid, None, None, total - 1)
            assert truncated and candidates == total and found == [h for h in full if h in found]


class TestSearchFreesItself:
    """A search holds nothing once its result is dropped: with the cyclic
    collector off, a dropped result leaves no unreachable object behind, so
    each search is freed by reference counting when it returns."""

    @pytest.mark.parametrize("shape, budget", (((3, 3, 2), None), ((4, 4), 5)))
    def test_dropped_search_leaves_no_garbage(self, shape, budget):
        grid = ProductGrid(shape)
        gc.collect()
        gc.disable()
        try:
            found, _, truncated = cycles._enumerate(grid, None, None, budget)
            assert truncated == (budget is not None)
            del found
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSearchThroughTheOrigin:
    """On the full grid ``_enumerate`` searches only the circuits through the
    origin and writes out every other one as an image under the per-axis
    swaps of 0 with one value (``cycles._orbits``). A point subset keeps the
    full search, which is the oracle here."""

    @pytest.mark.parametrize("shape", SEARCH_SHAPES + SIZE_ONE_SHAPES)
    def test_images_are_the_full_search_at_every_cap(self, shape):
        grid = ProductGrid(shape)
        pts = tuple(grid.points())
        top = min(matrix_rank(incidence_matrix(pts, grid)) + 1, len(pts))
        for cap in (None, *range(2, top + 1)):
            found, _, truncated = cycles._enumerate(grid, None, cap, None)
            full, _, cut = cycles._enumerate(grid, pts, cap, None)
            assert not truncated and not cut
            assert found == full

    @pytest.mark.parametrize("shape", SEARCH_SHAPES + SIZE_ONE_SHAPES)
    def test_first_column_stop_keeps_the_circuits_through_it(self, shape):
        grid = ProductGrid(shape)
        classes, nrows, top = TestCircuitSearchMatchesReference.classes_of(grid.points(), grid)
        hits, tested, _ = reference_circuits(classes, nrows, top, None)
        through, count, truncated = cycles._circuits(classes, nrows, top, None, 1)
        assert through == [h for h in hits if h[0][0] == 0]
        assert not truncated and count <= tested

    @pytest.mark.parametrize(("shape", "cap"), (((8, 8, 2), 4), ((3, 3, 2), 4)))
    def test_the_budget_caps_the_images(self, shape, cap):
        # 8x8x2 at cap 4 tests 747 candidates and writes out 6720 cycles:
        # a budget between the two finishes the search through the origin
        # and writes out none of its images
        grid = ProductGrid(shape)
        origin = (0,) * grid.n
        full, total, truncated = cycles._enumerate(grid, None, cap, None)
        assert not truncated and total < len(full)
        through = [h for h in full if h[0][0] == origin]
        for b in (total, len(full) - 1):
            assert cycles._enumerate(grid, None, cap, b) == (through, total, True)
        assert cycles._enumerate(grid, None, cap, len(full)) == (full, total, False)

    def test_a_cut_search_builds_nothing_per_point(self):
        # a |grid|^2 table of the swaps on 16x16x4 would take about 32 MiB
        tracemalloc.start()
        try:
            _, candidates, truncated = cycles._enumerate(ProductGrid((16, 16, 4)), None, None, 10**3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert truncated and candidates == 10**3 + 1 and peak < 6 * 2**20


class TestTwoAxisCount:
    """An s x t grid's minimal cycles are its closed bolts, counted in closed
    form (``cycles._two_axis_count``) before any search: past the budget
    ``_enumerate`` and ``verify_golomb`` return truncated at once."""

    @pytest.mark.parametrize("shape", [s for s in SEARCH_SHAPES if len(s) == 2] + [(1, 4), (2, 7)])
    def test_the_count_is_the_search_at_every_cap(self, shape):
        grid = ProductGrid(shape)
        for cap in range(2, cycles._largest_cycle(grid) + 2):
            found, _, truncated = cycles._enumerate(grid, tuple(grid.points()), cap, None)
            assert not truncated
            assert cycles._two_axis_count(*shape, cap) == len(found)

    def test_counts_past_the_search(self):
        # 6x6 and 6x7 fit 2^20; 7x7 and 8x8 do not
        counts = [cycles._two_axis_count(s, t, s + t) for s, t in ((6, 6), (6, 7), (7, 7), (8, 8))]
        assert counts == [113865, 526155, 4662231, 256485040]

    @pytest.mark.parametrize(("shape", "cap", "budget"), (
        ((4, 4), None, 203), ((64, 64), 4, DEFAULT_ENUM_BUDGET), ((8, 8), None, DEFAULT_ENUM_BUDGET),
    ))
    def test_a_count_past_the_budget_skips_the_search(self, shape, cap, budget, monkeypatch):
        # 4x4 has 204 cycles; the 2016^2 rectangles of 64x64 and the
        # 256485040 cycles of 8x8 are past DEFAULT_ENUM_BUDGET
        grid = ProductGrid(shape)
        real = cycles._circuits

        def no_search(*args):
            raise AssertionError("a cycle search ran")

        monkeypatch.setattr(cycles, "_circuits", no_search)
        assert cycles._enumerate(grid, None, cap, budget) == ([], 0, True)
        assert cycles._origin_circuits(grid, cap, budget) == ([], [], 0, 0, True)
        if shape == (4, 4):
            # at the count itself the search runs, and its 620 candidates cut it
            monkeypatch.setattr(cycles, "_circuits", real)
            assert cycles._enumerate(grid, None, cap, budget + 1)[1:] == (budget + 2, True)

    def test_axes_of_size_one_leave_the_count_to_the_other_two(self, monkeypatch):
        # 1x8x8 has the 256485040 cycles of 8x8, past DEFAULT_ENUM_BUDGET
        def no_search(*args):
            raise AssertionError("a cycle search ran")

        monkeypatch.setattr(cycles, "_circuits", no_search)
        grid = ProductGrid((1, 8, 8))
        assert cycles._origin_circuits(grid, None, DEFAULT_ENUM_BUDGET) == ([], [], 0, 0, True)
        assert cycles._enumerate(grid, None, None, DEFAULT_ENUM_BUDGET) == ([], 0, True)


class TestLargestCycle:
    @pytest.mark.parametrize("shape", SEARCH_SHAPES + SIZE_ONE_SHAPES + ((1, 3), (1, 1, 2), (4,)))
    def test_rank_plus_one_without_a_rank(self, shape):
        # the largest hit of the search capped only by rank + 1, which no
        # circuit exceeds, and 2, the least cap, on a grid with no cycle
        grid = ProductGrid(shape)
        hits = cycles._enumerate(grid, tuple(grid.points()), None, None)[0]
        assert cycles._largest_cycle(grid) == max((len(pts) for pts, _ in hits), default=2)

    def test_the_full_grid_takes_no_rank(self, monkeypatch):
        def no_rank(columns):
            raise AssertionError("matrix_rank ran")

        monkeypatch.setattr(cycles, "matrix_rank", no_rank)
        assert len(cycles._enumerate(ProductGrid((3, 3, 2)), None, None, None)[0]) == 1740
        with pytest.raises(AssertionError, match="matrix_rank ran"):
            cycles._enumerate(ProductGrid((3, 3, 2)), FIVE_POINTS, None, None)


class TestExtractExtremeCycle:
    def test_minimal_cycle_measure_returns_itself(self):
        mc = normalize_minimal(FIVE_POINTS, CUBE)
        assert extract_extreme_cycle(mc.measure()) == mc

    def test_orientation_follows_the_measure(self):
        mc = square_cycle()
        extracted = extract_extreme_cycle(-(mc.measure()))
        assert extracted.measure() == -mc.measure()

    def test_disjoint_squares_yield_one_of_them(self):
        near = normalize_minimal(SQUARE, GRID44)
        far = normalize_minimal(SQUARE_FAR, GRID44)
        mu = near.measure() * Fraction(1, 2) + far.measure() * Fraction(1, 2)
        extracted = extract_extreme_cycle(mu)
        assert extracted in (near, far)

    def test_six_point_measure_yields_inner_cycle(self):
        pair = CycleVectorPair(CUBE, SIX_POINTS, SIX_CERT)
        mu = measure_from_pair(pair)
        extracted = extract_extreme_cycle(mu)
        assert set(extracted.points) <= set(SIX_POINTS)
        normalize_minimal(extracted.points, CUBE)
        for p, w in zip(extracted.points, extracted.weights):
            assert (w > 0) == (mu.mass_at(p) > 0)

    def test_rejects_zero_and_non_orthogonal(self):
        with pytest.raises(ValueError):
            extract_extreme_cycle(FiniteSignedMeasure(GRID22, ()))
        with pytest.raises(ValueError):
            extract_extreme_cycle(
                FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1)),))
            )


class TestDecompose:
    def test_minimal_cycle_measure_is_a_single_term(self):
        mc = normalize_minimal(FIVE_POINTS, CUBE)
        dec = decompose(mc.measure())
        assert dec.terms == ((Fraction(1), mc),)

    def test_disjoint_squares_split_evenly(self):
        near = normalize_minimal(SQUARE, GRID44)
        far = normalize_minimal(SQUARE_FAR, GRID44)
        mu = near.measure() * Fraction(1, 2) + far.measure() * Fraction(1, 2)
        dec = decompose(mu)
        assert sorted(w for w, _ in dec.terms) == [Fraction(1, 2), Fraction(1, 2)]
        assert {c for _, c in dec.terms} == {near, far}
        assert dec.combined() == mu

    def test_six_point_measure_reconstructs(self):
        pair = CycleVectorPair(CUBE, SIX_POINTS, SIX_CERT)
        mu = measure_from_pair(pair)
        dec = decompose(mu)
        assert sum(w for w, _ in dec.terms) == 1
        assert len(dec.terms) <= len(SIX_POINTS)
        assert dec.combined() == mu
        for weight, cycle in dec.terms:
            assert weight > 0
            normalize_minimal(cycle.points, CUBE)
            assert set(cycle.points) <= set(SIX_POINTS)

    def test_rejects_wrong_variation_and_non_orthogonal(self):
        mc = square_cycle()
        with pytest.raises(ValueError):
            decompose(mc.measure() * Fraction(1, 2))
        with pytest.raises(ValueError):
            decompose(FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1)),)))

    def test_measure_built_from_lists_decomposes_like_its_twin(self):
        near = normalize_minimal(SQUARE, GRID44)
        far = normalize_minimal(SQUARE_FAR, GRID44)
        twin = near.measure() * Fraction(1, 4) + far.measure() * Fraction(3, 4)
        listed = FiniteSignedMeasure(GRID44, tuple((list(p), m) for p, m in twin.atoms))
        assert decompose(listed) == decompose(twin)
        assert extract_extreme_cycle(listed) == extract_extreme_cycle(twin)

    def test_decomposition_validation(self):
        mc = square_cycle()
        with pytest.raises(ValueError):
            Decomposition(((Fraction(1, 2), mc),))
        with pytest.raises(ValueError):
            Decomposition(((Fraction(-1), mc), (Fraction(2), mc)))
        with pytest.raises(ValueError, match="empty decomposition"):
            Decomposition(())
        # a float weight is rejected where it enters, not when combined
        with pytest.raises(ValueError, match="int or a Fraction"):
            Decomposition(((0.5, mc), (0.5, mc)))
        with pytest.raises(ValueError, match="MinimalCycle"):
            Decomposition(((Fraction(1), "notacycle"),))
        # a 3x3 cycle's atoms cannot be combined on the 2x2 grid
        other = normalize_minimal(SQUARE, ProductGrid((3, 3)))
        with pytest.raises(ValueError, match="grid mismatch"):
            Decomposition(((Fraction(1, 2), mc), (Fraction(1, 2), other)))
        (t, _), = Decomposition(((1, mc),)).terms
        assert type(t) is Fraction and t == 1

    def test_corrupted_decomposition_is_rejected(self, monkeypatch):
        # every term keeps its weight but names the first term's cycle, so
        # the weights still sum to 1 and only the recombination audit fails
        near = normalize_minimal(SQUARE, GRID44)
        far = normalize_minimal(SQUARE_FAR, GRID44)
        mu = near.measure() * Fraction(1, 2) + far.measure() * Fraction(1, 2)
        monkeypatch.setattr(
            cycles,
            "Decomposition",
            lambda terms: Decomposition(tuple((w, terms[0][1]) for w, _ in terms)),
        )
        with pytest.raises(CertificateError, match="recombine"):
            decompose(mu)

    def test_swapped_term_weights_are_rejected(self, monkeypatch):
        # the first two terms trade weights: they still sum to 1, so only
        # the recombination audit fails
        near = normalize_minimal(SQUARE, GRID44)
        far = normalize_minimal(SQUARE_FAR, GRID44)
        mu = near.measure() * Fraction(1, 4) + far.measure() * Fraction(3, 4)

        def swapped(terms):
            (s, a), (t, b), *rest = terms
            return Decomposition(((t, a), (s, b), *rest))

        monkeypatch.setattr(cycles, "Decomposition", swapped)
        with pytest.raises(CertificateError, match="recombine"):
            decompose(mu)

    def test_a_cycle_off_the_support_is_rejected(self, monkeypatch):
        # the last term keeps its weight but names a square two of whose
        # points carry no mass
        near = normalize_minimal(SQUARE, GRID44)
        far = normalize_minimal(SQUARE_FAR, GRID44)
        mu = near.measure() * Fraction(1, 4) + far.measure() * Fraction(3, 4)
        off = normalize_minimal(((2, 1), (2, 3), (3, 3), (3, 1)), GRID44)
        assert not set(off.points) <= set(mu.support)
        monkeypatch.setattr(
            cycles,
            "Decomposition",
            lambda terms: Decomposition(terms[:-1] + ((terms[-1][0], off),)),
        )
        with pytest.raises(CertificateError, match="recombine"):
            decompose(mu)

    def test_total_variation_is_tested_first_in_integers(self):
        # a measure that fails both input checks reports its total
        # variation; one of 1 + 1/p for a large prime p is not 1
        with pytest.raises(ValueError, match="total variation 1"):
            decompose(FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1, 2)),)))
        p = 2**61 - 1
        mu = square_cycle().measure() * (1 + Fraction(1, p))
        with pytest.raises(ValueError, match="total variation 1"):
            decompose(mu)
        with pytest.raises(ValueError, match="does not annihilate separable sums"):
            decompose(FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1)),)))

    @pytest.mark.parametrize("corruption", ["negated", "shifted"])
    def test_corrupted_relation_is_rejected(self, corruption, monkeypatch):
        # a relation off the kernel leads the elimination walk (n >= 3) to a
        # point set that has no relation left, or to weights whose class
        # sums do not vanish
        corrupt_relations(monkeypatch, corruption)
        for mu in corruption_measures():
            if mu.grid.n >= 3:
                with pytest.raises(CertificateError):
                    extract_extreme_cycle(mu)
                with pytest.raises(CertificateError):
                    decompose(mu)

    def test_relation_without_its_closing_column_is_rejected(self, monkeypatch):
        # the column that cleared to zero must carry a nonzero tail entry of
        # its own; zeroed, the relation names only the basis columns
        corrupt_relations(monkeypatch, "dropped")
        for mu in corruption_measures():
            if mu.grid.n >= 3:
                with pytest.raises(CertificateError, match="missing from its own relation"):
                    decompose(mu)

    def test_bolt_walk_stops_at_a_vertex_without_exit(self):
        # masses that do not annihilate: both atoms leave row 0, and the
        # walk enters column 0, which no atom leaves
        with pytest.raises(CertificateError, match="no atom leaving it"):
            cycles._bolt_walk(GRID22, [(0, 0), (0, 1)], [1, 1])

    @pytest.mark.parametrize(
        "corruption,check",
        [("wrong-sign", "do not alternate"), ("flipped", "signs disagree")],
        ids=["wrong-sign", "flipped"],
    )
    def test_corrupted_walk_is_rejected(self, corruption, check, monkeypatch):
        # a wrong-sign exit closes a loop whose signs do not alternate; a
        # flipped weight disagrees with its atom's mass. The MinimalCycle
        # audit would catch both too, so the match pins the walk's own check.
        corrupt_walk(monkeypatch, corruption)
        for mu in corruption_measures():
            if mu.grid.n == 2:
                with pytest.raises(CertificateError, match=check):
                    extract_extreme_cycle(mu)
                with pytest.raises(CertificateError, match=check):
                    decompose(mu)


def corruption_measures() -> list[FiniteSignedMeasure]:
    """Two disjoint squares on 4x4, the six-point measure on 2x2x2 and
    seeded rectangle sums on 10x10, 5x5x4 and 2x2x2x2, each normalized to
    total variation 1."""
    near = normalize_minimal(SQUARE, GRID44)
    far = normalize_minimal(SQUARE_FAR, GRID44)
    measures = [
        near.measure() * Fraction(1, 2) + far.measure() * Fraction(1, 2),
        measure_from_pair(CycleVectorPair(CUBE, SIX_POINTS, SIX_CERT)),
    ]
    rng = random.Random(3)
    measures += [rectangle_sum(rng, shape, 14) for shape in ((10, 10), (5, 5, 4), (2, 2, 2, 2))]
    return [mu * (1 / total_variation(mu)) for mu in measures]


def rectangle_sum(rng: random.Random, shape: tuple[int, ...], atoms: int) -> FiniteSignedMeasure:
    """A sum of signed 2x2 rectangles (two values on each of two axes, the
    other coordinates fixed, masses +c, -c, -c, +c) with at least ``atoms``
    atoms, normalized to total variation 1. It annihilates separable sums.
    Raises ValueError when ``atoms`` exceeds the grid's volume, which no
    draw could reach."""
    grid = ProductGrid(shape)
    if atoms > grid.volume:
        raise ValueError(f"{atoms} atoms do not fit on a grid of {grid.volume} points")
    acc: dict[tuple[int, ...], int] = {}
    while sum(1 for m in acc.values() if m) < atoms:
        a1, a2 = rng.sample(range(len(shape)), 2)
        u = rng.sample(range(shape[a1]), 2)
        v = rng.sample(range(shape[a2]), 2)
        base = [rng.randrange(s) for s in shape]
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for i, si in ((0, 1), (1, -1)):
            for j, sj in ((0, 1), (1, -1)):
                point = list(base)
                point[a1], point[a2] = u[i], v[j]
                acc[tuple(point)] = acc.get(tuple(point), 0) + c * si * sj
    tv = sum(abs(m) for m in acc.values())
    return FiniteSignedMeasure.from_atoms(grid, ((p, Fraction(m, tv)) for p, m in acc.items()))


def assert_conformal_minimal(cycle: MinimalCycle, mu: FiniteSignedMeasure) -> None:
    """``cycle`` lies in the support of ``mu`` with its signs, its class
    sums vanish on every axis, and the reference incidence rank of its
    points is one less than their number, all checked without the
    package's class numbering or elimination."""
    masses = dict(mu.atoms)
    for p, w in zip(cycle.points, cycle.weights):
        assert p in masses and (w > 0) == (masses[p] > 0)
    for axis in range(mu.grid.n):
        sums: dict[int, Fraction] = {}
        for p, w in zip(cycle.points, cycle.weights):
            sums[p[axis]] = sums.get(p[axis], Fraction(0)) + w
        assert not any(sums.values())
    points = cycle.points
    assert bareiss_rank(reference_incidence_matrix(points, mu.grid)) == len(points) - 1
    assert sum(abs(w) for w in cycle.weights) == 1


def assert_every_residual_extracts(mu: FiniteSignedMeasure) -> None:
    """Decompose ``mu``; on every residual the extraction returns that
    round's term, and it is a conformal minimal cycle of the residual."""
    dec = decompose(mu)
    residual = dict(mu.atoms)
    for t, mc in dec.terms:
        measure = FiniteSignedMeasure.from_atoms(mu.grid, residual.items())
        assert extract_extreme_cycle(measure) == mc
        assert_conformal_minimal(mc, measure)
        for p, w in zip(mc.points, mc.weights):
            residual[p] -= t * w
    assert not any(residual.values())


def assert_both_walks_extract(mu: FiniteSignedMeasure) -> None:
    """Decompose ``mu``, and again with an oracle walk in place of the
    package's: on two axes the elimination walk (``cycles._circuit_walk``)
    replaces the circulation walk, and on n >= 3 axes the whole-support walk
    (``conftest.whole_support_walk``) replaces the elimination walk. On every
    residual of the first decomposition both walks give a conformal minimal
    cycle, and both decompositions recombine to ``mu``. On two axes the
    elimination walk gets the columns of the points it is handed."""
    dec = decompose(mu)
    oracle_walks = []

    def oracle_bolt_walk(grid, points, x):
        oracle_walks.append(points)
        return cycles._circuit_walk(incidence_matrix(points, grid), x)

    def oracle_circuit_walk(cols, x):
        oracle_walks.append(cols)
        return whole_support_walk(cols, x)

    with pytest.MonkeyPatch.context() as mp:
        if mu.grid.n == 2:
            mp.setattr(cycles, "_bolt_walk", oracle_bolt_walk)
        else:
            mp.setattr(cycles, "_circuit_walk", oracle_circuit_walk)
        oracle = decompose(mu)
        residual = dict(mu.atoms)
        for t, mc in dec.terms:
            measure = FiniteSignedMeasure.from_atoms(mu.grid, residual.items())
            assert_conformal_minimal(mc, measure)
            assert_conformal_minimal(extract_extreme_cycle(measure), measure)
            for p, w in zip(mc.points, mc.weights):
                residual[p] -= t * w
    assert len(oracle_walks) == len(oracle.terms) + len(dec.terms)
    assert dec.combined() == mu and oracle.combined() == mu


@st.composite
def annihilating_measures(
    draw, min_axes: int = 2, max_axes: int = 4
) -> FiniteSignedMeasure:
    """A nonzero sum of signed 2x2 rectangles (``rectangle_sum``), which span
    the annihilating measures, normalized to total variation 1:
    ``min_axes`` to ``max_axes`` axes of size 1 to 4 with at least two of
    size 2 or more, one rectangle (a single cycle) or several, which may be
    disjoint, and coefficients with numerators up to 10^9 and denominators
    up to 10^12."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=min_axes, max_size=max_axes)))
    wide = [axis for axis, size in enumerate(shape) if size >= 2]
    assume(len(wide) >= 2)
    acc: dict[tuple[int, ...], Fraction] = {}
    for _ in range(draw(st.integers(1, 4))):
        a1, a2 = draw(st.permutations(wide))[:2]
        u = draw(st.permutations(range(shape[a1])))[:2]
        v = draw(st.permutations(range(shape[a2])))[:2]
        base = [draw(st.integers(0, size - 1)) for size in shape]
        c = Fraction(draw(st.integers(1, 10**9)), draw(st.integers(1, 10**12)))
        if draw(st.booleans()):
            c = -c
        for i, si in ((0, 1), (1, -1)):
            for j, sj in ((0, 1), (1, -1)):
                point = list(base)
                point[a1], point[a2] = u[i], v[j]
                acc[tuple(point)] = acc.get(tuple(point), Fraction(0)) + c * si * sj
    mu = FiniteSignedMeasure.from_atoms(ProductGrid(shape), acc.items())
    assume(not mu.is_zero())
    return mu * (1 / total_variation(mu))


# (shape, atom targets); the 16-point grid holds at most 16 atoms
RECTANGLE_SUMS = (
    ((10, 10), (20, 55, 90)),
    ((5, 5, 4), (20, 55, 90)),
    ((2, 2, 2, 2), (8, 12, 14)),
)


class TestExtractionOracle:
    """Every extracted cycle, on a measure and on every residual of its
    decomposition, is a minimal cycle inside the residual's support with
    the residual's signs, checked against the reference incidence rank."""

    @pytest.mark.parametrize("shape,targets", RECTANGLE_SUMS)
    def test_cycle_on_every_residual(self, shape, targets):
        rng = random.Random(4201)
        for atoms in targets:
            assert_every_residual_extracts(rectangle_sum(rng, shape, atoms))

    @settings(max_examples=60, deadline=None)
    @given(annihilating_measures())
    def test_cycle_on_every_residual_of_drawn_measures(self, mu):
        assert_every_residual_extracts(mu)

    def test_rectangle_sum_rejects_more_atoms_than_points(self):
        # the 2x2x2x2 grid has 16 points; the draw loop would never end
        with pytest.raises(ValueError, match="do not fit"):
            rectangle_sum(random.Random(3), (2, 2, 2, 2), 17)
        assert len(rectangle_sum(random.Random(3), (2, 2, 2, 2), 14).atoms) >= 14

    def test_both_walks_on_two_axis_residuals(self):
        shape, targets = RECTANGLE_SUMS[0]
        rng = random.Random(4201)
        for atoms in targets:
            assert_both_walks_extract(rectangle_sum(rng, shape, atoms))

    @settings(max_examples=60, deadline=None)
    @given(annihilating_measures(max_axes=2))
    def test_both_walks_on_residuals_of_drawn_two_axis_measures(self, mu):
        assert_both_walks_extract(mu)

    @pytest.mark.parametrize("shape,targets", RECTANGLE_SUMS[1:])
    def test_both_walks_on_n_axis_residuals(self, shape, targets):
        rng = random.Random(4201)
        for atoms in targets:
            assert_both_walks_extract(rectangle_sum(rng, shape, atoms))

    @settings(max_examples=60, deadline=None)
    @given(annihilating_measures(min_axes=3, max_axes=4))
    def test_both_walks_on_residuals_of_drawn_n_axis_measures(self, mu):
        assert_both_walks_extract(mu)

    @pytest.mark.parametrize("shape,targets", RECTANGLE_SUMS)
    def test_decomposition_is_sound(self, shape, targets):
        rng = random.Random(7919)
        for atoms in targets:
            mu = rectangle_sum(rng, shape, atoms)
            assert len(mu.atoms) >= atoms and total_variation(mu) == 1
            dec = decompose(mu)
            assert len(dec.terms) <= len(mu.atoms)
            assert sum(t for t, _ in dec.terms) == 1
            masses = dict(mu.atoms)
            recombined: dict[tuple[int, ...], Fraction] = {}
            for t, mc in dec.terms:
                assert t > 0
                normalize_minimal(mc.points, mu.grid)
                for p, w in zip(mc.points, mc.weights):
                    assert (w > 0) == (masses[p] > 0)  # p in the support, same sign
                    recombined[p] = recombined.get(p, Fraction(0)) + t * w
            assert {p: m for p, m in recombined.items() if m} == masses


class TestCircuitWalkWork:
    """The elimination walk (n >= 3) clears the heaviest atoms first and
    returns the first conformal circuit it closes, which saves most of the
    eliminations of the whole-support walk it replaced. Both counts are
    deterministic."""

    @staticmethod
    def eliminations(mu: FiniteSignedMeasure, walk=None) -> int:
        """The ``_eliminate`` calls of ``decompose(mu)``, with ``walk`` in
        place of ``cycles._circuit_walk`` when given."""
        calls = []
        real = cycles._eliminate

        def counted(col, basis):
            calls.append(1)
            return real(col, basis)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_eliminate", counted)
            if walk is not None:
                mp.setattr(cycles, "_circuit_walk", walk)
            decompose(mu)
        return len(calls)

    def test_fewer_eliminations_than_the_whole_support_walk(self):
        mu = rectangle_sum(random.Random(1), (5, 5, 4), 80)
        assert self.eliminations(mu) < self.eliminations(mu, whole_support_walk)

    def test_class_sums_are_tested_once_plus_once_per_term(self, monkeypatch):
        # the input's integer masses once, then each term's weights in
        # CycleVectorPair; the residuals are not re-tested
        mu = rectangle_sum(random.Random(1), (5, 5, 4), 80)
        calls = []
        real = cycles._class_sums_vanish

        def counted(points, weights, n):
            calls.append(1)
            return real(points, weights, n)

        monkeypatch.setattr(cycles, "_class_sums_vanish", counted)
        dec = decompose(mu)
        assert len(dec.terms) > 1
        assert len(calls) == 1 + len(dec.terms)

    def test_classes_are_numbered_once_plus_once_per_rank_check(self, monkeypatch):
        # decompose numbers its input's classes once; each term's
        # MinimalCycle numbers its own points for the rank check
        mu = rectangle_sum(random.Random(1), (5, 5, 4), 80)
        calls = []
        real = grids._class_ids

        def counted(points, n):
            calls.append(1)
            return real(points, n)

        monkeypatch.setattr(grids, "_class_ids", counted)
        dec = decompose(mu)
        assert len(dec.terms) > 1
        assert len(calls) == 1 + len(dec.terms)

    def test_a_conformal_circuit_is_returned_without_a_step(self, monkeypatch):
        # two five-point cycles on disjoint coordinate values: every relation
        # the walk can close is one of them, conformal to the measure, so
        # the walk returns the first one; the whole-support walk would step
        grid = ProductGrid((4, 4, 4))
        near = normalize_minimal(FIVE_POINTS, grid)
        far = normalize_minimal([tuple(c + 2 for c in p) for p in FIVE_POINTS], grid)
        mu = near.measure() * Fraction(1, 3) + far.measure() * Fraction(2, 3)
        points = list(mu.support)
        steps = []
        real = cycles._conformal_step

        def counted(x, r):
            steps.append(1)
            return real(x, r)

        monkeypatch.setattr(cycles, "_conformal_step", counted)
        cols = incidence_matrix(points, grid)
        alive, _ = cycles._circuit_walk(cols, _int_row([m for _, m in mu.atoms])[:-1])
        assert not steps
        assert {points[i] for i in alive} in (set(near.points), set(far.points))

    def test_columns_are_cleared_heaviest_first(self, monkeypatch):
        # up to the first relation, the walk clears the atoms by |mass|
        # descending, ties in flat-index order
        mu = rectangle_sum(random.Random(1), (5, 5, 4), 80)
        points = list(mu.support)
        x = _int_row([m for _, m in mu.atoms])[:-1]
        cols = incidence_matrix(points, mu.grid)
        nrows = len(cols[0])
        atom_of = {tuple(c): i for i, c in enumerate(cols)}
        cleared: list[int] = []
        closed: list[bool] = []
        real = cycles._eliminate

        def recorded(col, basis):
            v = real(col, basis)
            if not closed:
                cleared.append(atom_of[tuple(col[:nrows])])
                if not any(v[:nrows]):
                    closed.append(True)
            return v

        monkeypatch.setattr(cycles, "_eliminate", recorded)
        cycles._circuit_walk(cols, x)
        heaviest = sorted(range(len(x)), key=lambda i: (-abs(x[i]), i))
        assert closed and cleared == heaviest[: len(cleared)] != sorted(cleared)

    def test_the_walk_returns_primitive_weights(self, monkeypatch):
        # without the division by the gcd, 9 of the 134 walks on the 5x5x4
        # sums and 3 of the 67 on the 3x3x3x2 sums return a common factor
        weights = []
        real = cycles._circuit_walk

        def recorded(cols, x):
            alive, w = real(cols, x)
            weights.append(w)
            return alive, w

        monkeypatch.setattr(cycles, "_circuit_walk", recorded)
        for shape, atoms in (((5, 5, 4), 80), ((3, 3, 3, 2), 40)):
            for seed in range(1, 6):
                decompose(rectangle_sum(random.Random(seed), shape, atoms))
        assert len(weights) == 134 + 67
        assert all(gcd(*w) == 1 for w in weights)


class TestConformalStep:
    """``_conformal_step`` returns num, den, the stepped vector
    den x - num r divided by its gcd g, and g."""

    def test_the_stepped_vector_is_primitive(self):
        # the least ratio 2 / 1 is at the second atom, and x - 2r = (2, 0, 4)
        assert cycles._conformal_step([4, -2, 6], [1, -1, 1]) == (2, 1, [1, 0, 2], 2)
        # r is zero on the last two atoms; the step 3 / 2 leaves
        # 2x - 3r = (2, 0, -6, 10)
        assert cycles._conformal_step([4, 3, -3, 5], [2, 2, 0, 0]) == (3, 2, [1, 0, -3, 5], 2)

    def test_a_step_that_zeroes_every_atom_returns_gcd_0(self):
        assert cycles._conformal_step([2, -2], [1, -1]) == (2, 1, [0, 0], 0)

    def test_decompose_residuals_are_primitive(self, monkeypatch):
        mu = rectangle_sum(random.Random(1), (5, 5, 4), 80)
        steps = []
        real = cycles._conformal_step

        def recorded(x, r):
            out = real(x, r)
            steps.append((x, r, out))
            return out

        monkeypatch.setattr(cycles, "_conformal_step", recorded)
        decompose(mu)
        assert len(steps) > 20
        for x, r, (num, den, y, g) in steps:
            assert [den * xi - num * e for xi, e in zip(x, r)] == [g * yi for yi in y]
            assert gcd(*y) == (1 if any(y) else 0)


class TestDecomposeMatchesMeasureLoop:
    """``decompose`` on an integer residual gives the same terms, weights
    and cycles as the loop that rebuilt a ``Fraction`` measure every round
    (``conftest.decompose_by_measures``)."""

    @pytest.mark.parametrize("shape,targets", RECTANGLE_SUMS)
    def test_rectangle_sums(self, shape, targets):
        rng = random.Random(4201)
        for atoms in targets:
            mu = rectangle_sum(rng, shape, atoms)
            assert decompose(mu).terms == decompose_by_measures(mu).terms

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_seeded_5x5x4_rectangle_sums(self, seed):
        rng = random.Random(seed)
        for atoms in (30, 60, 100):
            mu = rectangle_sum(rng, (5, 5, 4), atoms)
            assert decompose(mu).terms == decompose_by_measures(mu).terms

    @settings(max_examples=60, deadline=None)
    @given(annihilating_measures())
    def test_drawn_measures(self, mu):
        assert decompose(mu).terms == decompose_by_measures(mu).terms

    def test_term_weight_scaled_by_the_step_denominator_is_rejected(self, monkeypatch):
        # the five-point cycle's weight 2 makes its one step 2 / 2, so its
        # term weight becomes 4; the walk and the residual stay right, only
        # the weight is wrong, and the recombination audit catches it
        corrupt_term_weights(monkeypatch)
        with pytest.raises(CertificateError, match="recombine"):
            decompose(normalize_minimal(FIVE_POINTS, CUBE).measure())


def perturbed(dec: Decomposition, kind: str) -> Decomposition:
    """``dec`` with its terms changed by ``kind``: "none"; "reversed" (the
    same terms in reverse order); "swap-weights" (the first and last terms
    trade weights); "shift" (half the smaller of those two weights moves from
    the first term to the last); "negate" (the first term's cycle with its
    weights negated, still a minimal cycle). A decomposition of one term
    is left as it is by the last three."""
    terms = list(dec.terms)
    (s, a), (t, b) = terms[0], terms[-1]
    if kind == "reversed":
        terms.reverse()
    elif len(terms) > 1 and kind == "swap-weights":
        terms[0], terms[-1] = (t, a), (s, b)
    elif len(terms) > 1 and kind == "shift":
        e = min(s, t) / 2
        terms[0], terms[-1] = (s - e, a), (t + e, b)
    elif kind == "negate":
        terms[0] = (s, MinimalCycle(a.grid, a.points, tuple(-w for w in a.weights)))
    return Decomposition(tuple(terms))


class TestIntegerRecombinationAudit:
    """``decompose``'s recombination audit (``_recombines``) decides in
    integers what ``Decomposition.combined() == mu`` decides in
    ``Fraction``s, on the reported terms."""

    @settings(max_examples=80, deadline=None)
    @given(
        annihilating_measures(),
        st.sampled_from(["none", "reversed", "swap-weights", "shift", "negate"]),
    )
    def test_verdict_equals_the_fraction_recombination(self, mu, kind):
        dec = perturbed(decompose(mu), kind)
        verdict = cycles._recombines(dec, *cycles._integer_masses(mu))
        assert verdict == (dec.combined() == mu)
        if kind in ("none", "reversed"):
            assert verdict

    def test_negated_cycle_is_rejected(self):
        mu = normalize_minimal(FIVE_POINTS, CUBE).measure()
        dec = perturbed(decompose(mu), "negate")
        assert not cycles._recombines(dec, *cycles._integer_masses(mu))
        assert dec.combined() != mu


def assert_built_like_public(mc: MinimalCycle) -> None:
    """``mc``, as ``_normalized_cycle`` built it, equals the cycle that the
    public constructors build from its grid, points and weights, and both
    keep the integer form ``_int_row(weights)``."""
    public = MinimalCycle(mc.grid, mc.points, mc.weights)
    assert mc == public
    assert hash(mc) == hash(public)
    assert repr(mc) == repr(public)
    assert mc._ints == public._ints == tuple(_int_row(mc.weights))
    assert all(type(w) is Fraction for w in mc.weights)


class TestIntegerForm:
    """A pair keeps its weights' integer form, numerators over the common
    denominator D and then D. ``_normalized_cycle`` builds it from a
    computed relation without re-deriving it, and gives the cycle that the
    public constructors give, or fails the same checks."""

    def test_fields_are_grid_points_and_weights(self):
        assert [f.name for f in fields(CycleVectorPair)] == ["grid", "points", "weights"]
        pair = CycleVectorPair(CUBE, FIVE_POINTS, FIVE_CERT)
        assert pair._ints == (2, -1, -1, -1, 1, 1)
        assert "_ints" not in repr(pair)

    @pytest.mark.parametrize("shape", [(3, 3, 2), (2, 2, 2, 2), (4, 4)])
    def test_every_enumerated_cycle(self, shape):
        grid = ProductGrid(shape)
        hits, _, _ = cycles._enumerate(grid, None, None, None)
        for points, relation in hits:
            mc = cycles._normalized_cycle(points, relation, grid)
            assert mc._ints == (*relation, sum(map(abs, relation)))
            assert_built_like_public(mc)

    @pytest.mark.parametrize("shape,targets", RECTANGLE_SUMS + (((6, 7), (12, 30)),))
    def test_every_decompose_term(self, shape, targets):
        rng = random.Random(2601)
        for atoms in targets:
            for _, mc in decompose(rectangle_sum(rng, shape, atoms)).terms:
                assert_built_like_public(mc)

    def test_a_relation_with_a_common_factor_is_made_primitive(self):
        square = normalize_minimal(SQUARE, GRID22)
        tripled = cycles._normalized_cycle(square.points, [3, -3, -3, 3], GRID22)
        assert tripled == square
        assert tripled._ints == (1, -1, -1, 1, 4)
        assert_built_like_public(tripled)

    def test_no_point_or_weight_is_checked_again(self, monkeypatch):
        square = normalize_minimal(SQUARE, GRID22)
        calls = []

        def counted(real):
            def wrapper(*args):
                calls.append(real.__name__)
                return real(*args)
            return wrapper

        monkeypatch.setattr(ProductGrid, "check_point", counted(ProductGrid.check_point))
        monkeypatch.setattr(cycles, "_as_rat", counted(cycles._as_rat))
        monkeypatch.setattr(cycles, "_int_row", counted(cycles._int_row))
        assert cycles._normalized_cycle(square.points, [1, -1, -1, 1], GRID22) == square
        assert calls == []
        CycleVectorPair(GRID22, square.points, square.weights)
        assert sorted(set(calls)) == ["_as_rat", "_int_row", "check_point"]

    @pytest.mark.parametrize(
        "change,check",
        [
            (lambda e: 0, "cycle weights must be nonzero"),
            (lambda e: e + 1 if e != -1 else e - 1, "class sums do not vanish"),
        ],
    )
    def test_a_corrupted_relation_names_its_failed_check(self, change, check):
        # one entry changed, at every position of some hits of each size
        grid = ProductGrid((3, 3, 2))
        hits, _, _ = cycles._enumerate(grid, None, 6, None)
        for points, relation in hits[:: len(hits) // 7]:
            for i, e in enumerate(relation):
                corrupted = relation[:i] + [change(e)] + relation[i + 1 :]
                with pytest.raises(CertificateError, match=f"not a minimal cycle: {check}"):
                    cycles._normalized_cycle(points, corrupted, grid)

    def test_two_disjoint_squares_are_not_minimal(self):
        near = normalize_minimal(SQUARE, GRID44)
        far = normalize_minimal(SQUARE_FAR, GRID44)
        relation = [1, -1, -1, 1] * 2
        assert cycles._class_sums_vanish(near.points + far.points, relation, 2)
        with pytest.raises(CertificateError, match="not a minimal cycle: incidence kernel"):
            cycles._normalized_cycle(near.points + far.points, relation, GRID44)


class TestMinimalCycleIsAPair:
    """A MinimalCycle is a CycleVectorPair with two more checks, and no
    fields of its own."""

    def test_is_a_pair_with_the_same_fields(self):
        mc = normalize_minimal(FIVE_POINTS, CUBE)
        assert isinstance(mc, CycleVectorPair)
        assert fields(MinimalCycle) == fields(CycleVectorPair)
        pair = CycleVectorPair(mc.grid, mc.points, mc.weights)
        assert pair_to_json(mc) == pair_to_json(pair)
        assert to_golomb_form(mc) == to_golomb_form(pair)
        assert mc.measure() == measure_from_pair(mc) == measure_from_pair(pair)
        assert repr(mc) == repr(pair).replace("CycleVectorPair", "MinimalCycle")

    def test_the_pair_checks_run_first(self):
        # a pair that fails CycleVectorPair's checks fails them with the
        # same message as a MinimalCycle
        bad = [
            (((0, 0), (0, 1)), (Fraction(1, 2),), "equal length"),
            (((0, 0), (0, 0)), (Fraction(1, 2), Fraction(-1, 2)), "duplicate point"),
            (SQUARE, (Fraction(1, 2), 0, Fraction(-1, 2), 0), "must be nonzero"),
            (SQUARE, (Fraction(1, 4),) * 4, "class sums do not vanish"),
        ]
        for points, weights, message in bad:
            for cls in (CycleVectorPair, MinimalCycle):
                with pytest.raises(ValueError, match=message):
                    cls(GRID22, points, weights)


class TestCycleJson:
    def test_pair_round_trip(self):
        pair = CycleVectorPair(CUBE, FIVE_POINTS, FIVE_CERT)
        obj = pair_to_json(pair)
        assert obj["points"] == [list(p) for p in FIVE_POINTS]
        assert obj["lambda"] == ["2", "-1", "-1", "-1", "1"]
        assert pair_from_json(CUBE, obj) == pair

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            pair_from_json(GRID22, {"points": [[0, 0]]})
        with pytest.raises(ValueError):
            pair_from_json(GRID22, {"points": [[0, 0], [0, "1"], [1, 0], [1, 1]],
                                    "lambda": ["1", "-1", "-1", "1"]})

    def test_rejects_point_lists_that_are_not_lists_of_points(self):
        with pytest.raises(ValueError, match='"points" must be a list of points'):
            pair_from_json(GRID22, {"points": [1], "lambda": ["1"]})
        with pytest.raises(ValueError, match='"points" must be a list of points'):
            pair_from_json(GRID22, {"points": 4, "lambda": ["1"]})
        with pytest.raises(ValueError, match='"lambda" must be a list'):
            pair_from_json(GRID22, {"points": [[0, 0]], "lambda": "1"})
