"""Cycles: weight vectors, two-part form, minimality, enumeration, decomposition."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golombdual.cycles as cycles
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
    find_cycle_vector,
    from_golomb_form,
    golomb_from_json,
    golomb_to_json,
    incidence_matrix,
    is_minimal,
    is_orthogonal,
    matrix_rank,
    measure_from_pair,
    normalize_minimal,
    pair_from_json,
    pair_to_json,
    point_index,
    to_golomb_form,
    total_variation,
)
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
    reference_incidence_matrix,
    subset_scan_cycles,
    whole_support_walk,
)

GRID22 = ProductGrid((2, 2))
GRID44 = ProductGrid((4, 4))

SQUARE_FAR = ((2, 2), (2, 3), (3, 3), (3, 2))


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


def reference_find_cycle_vector(basis, m):
    """The greedy combination of ``find_cycle_vector`` on a given basis, in
    ``Fraction`` arithmetic."""
    if not basis or any(all(v[j] == 0 for v in basis) for j in range(m)):
        return None
    v = list(basis[0])
    for b in basis[1:]:
        forbidden = set()
        for vj, bj in zip(v, b):
            if bj != 0 and vj != 0:
                ratio = -vj / bj
                if ratio > 0 and ratio.denominator == 1:
                    forbidden.add(int(ratio))
        c = 1
        while c in forbidden:
            c += 1
        v = [vj + c * bj for vj, bj in zip(v, b)]
    return tuple(v)


class TestCycleHelpersMatchReferences:
    """``incidence_matrix`` matches the row-by-row reference, and the cycle
    helpers, which run on the integer class columns, match the Bareiss
    kernel of that reference matrix."""

    @pytest.mark.parametrize("shape", ((4, 4), (3, 3, 2), (2, 2, 2, 2)))
    def test_seeded_point_sets(self, shape):
        grid = ProductGrid(shape)
        rng = random.Random(9091)
        kinds = {"repeated": 0, "lonely": 0, "wide kernel": 0, "minimal": 0}
        for points in seeded_point_sets(grid, rng, 240):
            if len(set(points)) != len(points):
                kinds["repeated"] += 1
                for helper in (incidence_matrix, reference_incidence_matrix, is_minimal,
                               normalize_minimal, find_cycle_vector):
                    with pytest.raises(ValueError, match="duplicate"):
                        helper(points, grid)
                continue
            inc = incidence_matrix(points, grid)
            assert inc == reference_incidence_matrix(points, grid)
            basis = bareiss_kernel_basis(inc)
            minimal = len(basis) == 1 and all(basis[0])
            assert is_minimal(points, grid) == minimal
            want = reference_find_cycle_vector(basis, len(points))
            assert find_cycle_vector(points, grid) == want
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


class TestFindCycleVector:
    def test_single_point_has_none(self):
        assert find_cycle_vector([(0, 0)], GRID22) is None

    def test_pair_sharing_one_coordinate_has_none(self):
        assert find_cycle_vector([(0, 0), (0, 1)], GRID22) is None

    def test_three_corner_l_shape_has_none(self):
        assert find_cycle_vector([(0, 0), (0, 1), (1, 0)], GRID22) is None

    def test_square_is_found(self):
        v = find_cycle_vector(SQUARE, GRID22)
        ratio = v[0]
        assert tuple(w / ratio for w in v) == (1, -1, 1, -1)

    def test_six_points_get_an_all_nonzero_vector(self):
        v = find_cycle_vector(SIX_POINTS, CUBE)
        assert v == (3, -2, -2, -1, 1, 1)
        CycleVectorPair(CUBE, SIX_POINTS, v)

    def test_deterministic(self):
        assert find_cycle_vector(SIX_POINTS, CUBE) == find_cycle_vector(
            SIX_POINTS, CUBE
        )

    def test_agrees_with_brute_force_existence(self):
        # Existence of an all-nonzero kernel vector can be checked directly
        # on small point sets by scanning rational combinations of the basis.
        rng = random.Random(17)
        grid = ProductGrid((3, 2, 2))
        pts = tuple(grid.points())
        for _ in range(40):
            subset = rng.sample(pts, rng.randint(1, 8))
            found = find_cycle_vector(subset, grid)
            basis = bareiss_kernel_basis(reference_incidence_matrix(subset, grid))
            if found is not None:
                assert all(w != 0 for w in found)
                assert CycleVectorPair(grid, tuple(subset), tuple(found))
            if not basis:
                assert found is None
                continue
            exists = False
            span_coeffs = [
                coeffs
                for coeffs in combinations(range(-3, 4), len(basis))
            ]
            for coeffs in span_coeffs:
                combo = [
                    sum(c * v[j] for c, v in zip(coeffs, basis))
                    for j in range(len(subset))
                ]
                if all(w != 0 for w in combo):
                    exists = True
                    break
            if exists:
                assert found is not None


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
        pairs = [c.pair for c in enumerate_minimal_cycles(grid)]
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
        assert is_minimal(FIVE_POINTS, CUBE)

    def test_six_points_not_minimal(self):
        assert not is_minimal(SIX_POINTS, CUBE)

    def test_square_minimal(self):
        assert is_minimal(SQUARE, GRID22)

    def test_non_cycles_not_minimal(self):
        assert not is_minimal([(0, 0)], GRID22)
        assert not is_minimal([(0, 0), (0, 1)], GRID22)

    def test_minimal_sets_have_no_proper_subcycle(self):
        for points in (FIVE_POINTS, SQUARE):
            grid = CUBE if len(points[0]) == 3 else GRID22
            assert is_minimal(points, grid)
            for size in range(1, len(points)):
                for subset in combinations(points, size):
                    assert find_cycle_vector(subset, grid) is None


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
        pair = CycleVectorPair(
            GRID22,
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            (Fraction(1, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 4)),
        )
        MinimalCycle(pair)
        unnormalized = CycleVectorPair(
            GRID22, ((0, 0), (0, 1), (1, 0), (1, 1)), (1, -1, -1, 1)
        )
        with pytest.raises(ValueError):
            MinimalCycle(unnormalized)

    def test_minimal_cycle_allows_either_orientation(self):
        flipped = CycleVectorPair(
            GRID22,
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            (Fraction(-1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(-1, 4)),
        )
        mc = MinimalCycle(flipped)
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


def integer_rank_is_exact(points, grid) -> bool:
    return cycles._incidence_rank(points, grid.n) == bareiss_rank(
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
            assert cycles._incidence_rank(c.points, grid.n) == len(c.points) - 1

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
                assert cycles._incidence_rank(union, grid.n) <= len(union) - 2  # kernel >= 2
                for points in (superset, union, lonely):
                    assert integer_rank_is_exact(points, grid)

    def test_minimal_cycle_rejects_a_wider_kernel(self):
        # a nowhere-zero combination of two cycles satisfies every check of
        # CycleVectorPair and has total mass 1; only the rank says its kernel
        # is not one line
        total = sum(abs(c) for c in SIX_CERT)
        pair = CycleVectorPair(CUBE, SIX_POINTS, tuple(Fraction(c, total) for c in SIX_CERT))
        with pytest.raises(ValueError, match="not one dimensional"):
            MinimalCycle(pair)
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
                pair = CycleVectorPair(grid, tuple(mass), tuple(m / norm for m in mass.values()))
                with pytest.raises(ValueError, match="not one dimensional"):
                    MinimalCycle(pair)
                assert not is_minimal(pair.points, grid)
                rejected += 1


class TestSearchBudget:
    """A candidate is a point set whose independence was tested: one
    elimination of a new column against the chosen ones."""

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
        cap = cycles._incidence_rank(tuple(grid.points()), grid.n) + 1
        calls = self.counting_eliminate(monkeypatch)
        hits, tested, truncated = cycles._circuits(classes, nrows, cap, None)
        assert not truncated
        assert tested == len(calls) > len(hits) > 0
        for b in (0, 1, tested // 3, tested - 1):
            calls.clear()
            partial, count, truncated = cycles._circuits(classes, nrows, cap, b)
            assert truncated and count == b + 1 and len(calls) == b
            assert partial == [h for h in hits if h in partial]
        calls.clear()
        assert cycles._circuits(classes, nrows, cap, tested) == (hits, tested, False)
        assert len(calls) == tested

    def test_enumerate_truncates_exactly_past_the_budget(self):
        grid = ProductGrid((4, 4))
        full, total, truncated = cycles._enumerate(grid, None, None, None)
        assert not truncated
        for b in (0, 1, total // 2, total - 1):
            found, candidates, truncated = cycles._enumerate(grid, None, None, b)
            assert truncated and candidates == b + 1
            assert found == [h for h in full if h in found]
        assert cycles._enumerate(grid, None, None, total) == (full, total, False)
        # every call searches afresh: one candidate short of the whole search
        found, candidates, truncated = cycles._enumerate(grid, None, None, total - 1)
        assert truncated and candidates == total and found == [h for h in full if h in found]


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
        assert is_minimal(extracted.points, CUBE)
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
            assert is_minimal(cycle.points, CUBE)
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
    cycle, and both decompositions recombine to ``mu``."""
    if mu.grid.n == 2:
        name, walk = "_bolt_walk", cycles._circuit_walk
    else:
        name, walk = "_circuit_walk", whole_support_walk
    dec = decompose(mu)
    oracle_walks = []

    def oracle_walk(grid, points, x):
        oracle_walks.append(points)
        return walk(grid, points, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, name, oracle_walk)
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
                assert is_minimal(mc.points, mu.grid)
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
        alive, _ = cycles._circuit_walk(grid, points, _int_row([m for _, m in mu.atoms])[:-1])
        assert not steps
        assert {points[i] for i in alive} in (set(near.points), set(far.points))

    def test_columns_are_cleared_heaviest_first(self, monkeypatch):
        # up to the first relation, the walk clears the atoms by |mass|
        # descending, ties in flat-index order
        mu = rectangle_sum(random.Random(1), (5, 5, 4), 80)
        points = list(mu.support)
        x = _int_row([m for _, m in mu.atoms])[:-1]
        classes, nrows = cycles._class_ids(points, mu.grid.n)
        atom_of = {tuple(c): i for i, c in enumerate(cycles._class_columns(classes, nrows))}
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
        cycles._circuit_walk(mu.grid, points, x)
        heaviest = sorted(range(len(x)), key=lambda i: (-abs(x[i]), i))
        assert closed and cleared == heaviest[: len(cleared)] != sorted(cleared)


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


class TestCycleJson:
    def test_pair_round_trip(self):
        pair = CycleVectorPair(CUBE, FIVE_POINTS, FIVE_CERT)
        obj = pair_to_json(pair)
        assert obj["points"] == [list(p) for p in FIVE_POINTS]
        assert obj["lambda"] == ["2", "-1", "-1", "-1", "1"]
        assert pair_from_json(CUBE, obj) == pair

    def test_golomb_round_trip(self):
        gc = GolombCycle(GRID22, ((0, 0), (1, 1)), ((0, 1), (1, 0)))
        obj = golomb_to_json(gc)
        assert obj == {"b": [[0, 0], [1, 1]], "c": [[0, 1], [1, 0]]}
        assert golomb_from_json(GRID22, obj) == gc

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            pair_from_json(GRID22, {"points": [[0, 0]]})
        with pytest.raises(ValueError):
            golomb_from_json(GRID22, {"b": [[0, 0]]})
        with pytest.raises(ValueError):
            pair_from_json(GRID22, {"points": [[0, 0], [0, "1"], [1, 0], [1, 1]],
                                    "lambda": ["1", "-1", "-1", "1"]})
        with pytest.raises(ValueError):
            golomb_from_json(GRID22, {"b": [[0, 0], [1, 1.9]], "c": [[0, 1], [1, 0]]})

    def test_rejects_point_lists_that_are_not_lists_of_points(self):
        with pytest.raises(ValueError, match='"b" must be a list of points'):
            golomb_from_json(GRID22, {"b": 1, "c": []})
        with pytest.raises(ValueError, match='"c" must be a list of points'):
            golomb_from_json(GRID22, {"b": [[0, 0], [1, 1]], "c": [[0, 1], 5]})
        with pytest.raises(ValueError, match='"points" must be a list of points'):
            pair_from_json(GRID22, {"points": [1], "lambda": ["1"]})
        with pytest.raises(ValueError, match='"points" must be a list of points'):
            pair_from_json(GRID22, {"points": 4, "lambda": ["1"]})
        with pytest.raises(ValueError, match='"lambda" must be a list'):
            pair_from_json(GRID22, {"points": [[0, 0]], "lambda": "1"})
