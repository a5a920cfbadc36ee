"""Signed measures: canonical form, variation, marginals, integration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from golombdual import measures
from golombdual import (
    CycleVectorPair,
    FiniteSignedMeasure,
    GolombCycle,
    ProductGrid,
    enumerate_minimal_cycles,
    golomb_measure,
    integrate,
    is_orthogonal,
    marginal,
    measure_from_json,
    measure_from_pair,
    measure_to_json,
    tabulate,
    to_golomb_form,
    total_variation,
)

from conftest import CUBE, FIVE_POINTS, SQUARE, random_separable, table

GRID22 = ProductGrid((2, 2))

SQUARE_BOLT = FiniteSignedMeasure(
    GRID22,
    (
        ((0, 0), Fraction(1, 4)),
        ((0, 1), Fraction(-1, 4)),
        ((1, 0), Fraction(-1, 4)),
        ((1, 1), Fraction(1, 4)),
    ),
)

FIVE_MEASURE = FiniteSignedMeasure(
    CUBE,
    (
        ((0, 0, 0), Fraction(1, 3)),
        ((0, 0, 1), Fraction(-1, 6)),
        ((0, 1, 0), Fraction(-1, 6)),
        ((1, 0, 0), Fraction(-1, 6)),
        ((1, 1, 1), Fraction(1, 6)),
    ),
)


class TestCanonicalForm:
    def test_from_atoms_sorts_accumulates_and_drops_zeros(self):
        mu = FiniteSignedMeasure.from_atoms(
            GRID22,
            [
                ((1, 1), Fraction(2)),
                ((0, 0), Fraction(1)),
                ((1, 1), Fraction(-2)),
                ((0, 1), Fraction(1, 2)),
            ],
        )
        assert mu.atoms == (((0, 0), Fraction(1)), ((0, 1), Fraction(1, 2)))

    def test_from_atoms_accumulates_a_repeated_point_and_drops_one_summing_to_zero(self):
        # masses are added only where a point repeats; a point given once
        # keeps its mass as given, an int becoming a Fraction
        mu = FiniteSignedMeasure.from_atoms(
            GRID22,
            [
                ((0, 1), 1),
                ((1, 0), Fraction(1, 3)),
                ((0, 1), Fraction(1, 2)),
                ((1, 1), Fraction(3, 4)),
                ((1, 0), Fraction(-1, 3)),
                ((0, 1), Fraction(-1, 4)),
                ((0, 0), 0),
            ],
        )
        assert mu.atoms == (((0, 1), Fraction(5, 4)), ((1, 1), Fraction(3, 4)))
        assert all(type(m) is Fraction for _, m in mu.atoms)

    def test_from_atoms_checks_each_atom_once(self, monkeypatch):
        # one check_point and one _as_rat per input atom, and none for the
        # canonical atoms it stores
        points, masses = [], []
        check_point, as_rat = ProductGrid.check_point, measures._as_rat
        monkeypatch.setattr(ProductGrid, "check_point", lambda g, p: points.append(p) or check_point(g, p))
        monkeypatch.setattr(measures, "_as_rat", lambda m: masses.append(m) or as_rat(m))
        mu = FiniteSignedMeasure.from_atoms(GRID22, [([0, 1], 1), ((1, 1), 2), ((0, 1), -1)])
        assert (points, masses) == ([[0, 1], (1, 1), (0, 1)], [1, 2, -1])
        monkeypatch.undo()
        assert mu == FiniteSignedMeasure(GRID22, (((1, 1), Fraction(2)),))
        assert all(type(p) is tuple and type(m) is Fraction for p, m in mu.atoms)

    @pytest.mark.parametrize("point", [(0, 5), (2, 0), (0, True), (1.0, 0), (0,)],
                             ids=["off-grid", "off-grid-first", "bool", "float", "short"])
    def test_from_atoms_rejects_a_bad_point_even_when_its_masses_cancel(self, point):
        with pytest.raises(ValueError, match="not on a grid|not an integer"):
            FiniteSignedMeasure.from_atoms(GRID22, [(point, 1), (point, -1)])

    def test_constructor_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            FiniteSignedMeasure(GRID22, (((0, 0), Fraction(0)),))

    @pytest.mark.parametrize("bad", [0.5, True, "1/2"], ids=["float", "bool", "string"])
    def test_constructor_rejects_masses_that_are_not_ints_or_fractions(self, bad):
        with pytest.raises(ValueError, match="int or a Fraction"):
            FiniteSignedMeasure(GRID22, (((0, 0), bad),))

    @pytest.mark.parametrize("bad", [0.5, True, "1/2"], ids=["float", "bool", "string"])
    def test_from_atoms_and_scalars_reject_values_that_are_not_ints_or_fractions(self, bad):
        with pytest.raises(ValueError, match="int or a Fraction"):
            FiniteSignedMeasure.from_atoms(GRID22, [((0, 0), bad)])
        with pytest.raises(ValueError, match="int or a Fraction"):
            SQUARE_BOLT * bad
        with pytest.raises(ValueError, match="int or a Fraction"):
            bad * SQUARE_BOLT

    def test_constructor_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteSignedMeasure(
                GRID22, (((0, 0), Fraction(1)), ((0, 0), Fraction(2)))
            )

    def test_constructor_rejects_unsorted_atoms(self):
        with pytest.raises(ValueError):
            FiniteSignedMeasure(
                GRID22, (((0, 1), Fraction(1)), ((0, 0), Fraction(2)))
            )

    def test_constructor_rejects_a_duplicate_that_is_not_adjacent(self):
        with pytest.raises(ValueError):
            FiniteSignedMeasure(
                GRID22, (((0, 0), Fraction(1)), ((0, 1), Fraction(1)), ((0, 0), Fraction(2)))
            )
        with pytest.raises(ValueError, match="duplicate"):
            FiniteSignedMeasure(GRID22, (([0, 0], Fraction(1)), ((0, 0), Fraction(2))))

    def test_constructor_stores_checked_tuples_and_fractions(self):
        # a measure built from list coordinates and int masses is the same
        # canonical measure as its from_atoms twin: equal, equally hashed,
        # and its atoms are found by mass_at
        listed = FiniteSignedMeasure(
            GRID22, (([0, 0], 1), ([0, 1], -1), ([1, 0], -1), ([1, 1], 1))
        )
        twin = FiniteSignedMeasure.from_atoms(
            GRID22, [((0, 0), 1), ((0, 1), -1), ((1, 0), -1), ((1, 1), 1)]
        )
        assert listed == twin
        assert hash(listed) == hash(twin)
        assert listed.mass_at((0, 0)) == 1
        assert listed.mass_at([1, 0]) == -1
        assert all(type(p) is tuple and type(m) is Fraction for p, m in listed.atoms)

    def test_constructor_rejects_off_grid_points(self):
        with pytest.raises(ValueError):
            FiniteSignedMeasure(GRID22, (((0, 5), Fraction(1)),))

    @pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "string"])
    def test_constructor_rejects_coordinates_that_are_not_ints(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            FiniteSignedMeasure(GRID22, (((0, bad), Fraction(1)),))

    def test_mass_at_and_support(self):
        assert SQUARE_BOLT.mass_at((0, 1)) == Fraction(-1, 4)
        assert SQUARE_BOLT.mass_at((1, 1)) == Fraction(1, 4)
        assert SQUARE_BOLT.support == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert not SQUARE_BOLT.is_zero()
        assert FiniteSignedMeasure(GRID22, ()).is_zero()

    def test_arithmetic(self):
        delta = FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1)),))
        doubled = delta * 2
        assert doubled.mass_at((0, 0)) == 2
        assert (2 * delta) == doubled
        assert (delta - delta).is_zero()
        assert (-delta).mass_at((0, 0)) == -1
        combined = SQUARE_BOLT + delta
        assert combined.mass_at((0, 0)) == Fraction(5, 4)
        assert (delta * 0).is_zero()

    def test_grid_mismatch_rejected(self):
        delta = FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1)),))
        other = FiniteSignedMeasure(ProductGrid((3, 3)), (((0, 0), Fraction(1)),))
        with pytest.raises(ValueError):
            delta + other


class TestTotalVariation:
    def test_single_atom(self):
        mu = FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1)),))
        assert total_variation(mu) == 1

    def test_mixed_signs_add_in_absolute_value(self):
        mu = FiniteSignedMeasure(
            GRID22, (((0, 0), Fraction(1, 2)), ((0, 1), Fraction(-1, 2)))
        )
        assert total_variation(mu) == 1

    def test_five_point_measure(self):
        assert total_variation(FIVE_MEASURE) == 1

    def test_zero_measure(self):
        assert total_variation(FiniteSignedMeasure(GRID22, ())) == 0


class TestMarginal:
    def test_point_mass_reports_all_factor_values(self):
        delta = FiniteSignedMeasure(GRID22, (((0, 1), Fraction(1)),))
        assert marginal(delta, 0) == {0: Fraction(1), 1: Fraction(0)}
        assert marginal(delta, 1) == {0: Fraction(0), 1: Fraction(1)}

    def test_square_bolt_marginals_vanish(self):
        assert marginal(SQUARE_BOLT, 0) == {0: 0, 1: 0}
        assert marginal(SQUARE_BOLT, 1) == {0: 0, 1: 0}

    def test_five_point_measure_marginals_vanish(self):
        for axis in range(3):
            assert all(v == 0 for v in marginal(FIVE_MEASURE, axis).values())

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            marginal(SQUARE_BOLT, 2)
        with pytest.raises(ValueError):
            marginal(SQUARE_BOLT, -1)


class TestIsOrthogonal:
    def test_zero_measure(self):
        assert is_orthogonal(FiniteSignedMeasure(GRID22, ()))

    def test_point_mass_is_not(self):
        assert not is_orthogonal(FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1)),)))

    def test_square_bolt_is(self):
        assert is_orthogonal(SQUARE_BOLT)

    def test_matches_integration_against_separable_sums(self):
        rng = random.Random(14)
        grid = ProductGrid((3, 2, 2))
        cycles = enumerate_minimal_cycles(grid)
        orthogonal = rng.choice(cycles).measure()
        skewed = orthogonal + FiniteSignedMeasure(grid, (((2, 1, 1), Fraction(1, 7)),))
        for mu in (orthogonal, skewed):
            integrals_vanish = all(
                integrate(tabulate(random_separable(rng, grid)), mu) == 0
                for _ in range(100)
            )
            assert is_orthogonal(mu) == integrals_vanish


NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(lambda x: x != 0)


@st.composite
def measures_of_each_kind(draw):
    """A measure and whether it annihilates separable sums: the zero
    measure, a single atom, a sum of rectangles (+-c on the corners of a
    box, signed by the parity of the corner), such a sum with one mass
    perturbed, and a dipole (+c and -c on two points that differ on one
    axis, so every other axis's marginal vanishes)."""
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
    grid = ProductGrid(shape)
    kind = draw(st.sampled_from(("zero", "atom", "rectangles", "perturbed", "dipole")))

    def point():
        return tuple(draw(st.integers(0, s - 1)) for s in shape)

    pairs = []
    if kind == "atom":
        pairs.append((point(), draw(NONZERO)))
    if kind in ("rectangles", "perturbed"):
        for _ in range(draw(st.integers(1, 3))):
            c = draw(NONZERO)
            sides = [draw(st.lists(st.integers(0, s - 1), min_size=2, max_size=2, unique=True)) for s in shape]
            for corner in range(2 ** len(shape)):
                bits = [(corner >> axis) & 1 for axis in range(len(shape))]
                sign = -1 if sum(bits) % 2 else 1
                pairs.append((tuple(side[b] for side, b in zip(sides, bits)), sign * c))
    if kind == "perturbed":
        pairs.append((point(), draw(NONZERO)))
    if kind == "dipole":
        p, axis = point(), draw(st.integers(0, len(shape) - 1))
        q = list(p)
        q[axis] = (p[axis] + draw(st.integers(1, shape[axis] - 1))) % shape[axis]
        c = draw(NONZERO)
        pairs += [(p, c), (tuple(q), -c)]
    return FiniteSignedMeasure.from_atoms(grid, pairs), kind in ("zero", "rectangles")


class TestIsOrthogonalMatchesMarginals:
    @given(measures_of_each_kind())
    def test_orthogonal_exactly_when_every_marginal_vanishes(self, case):
        mu, annihilates = case
        marginals_vanish = all(
            all(v == 0 for v in marginal(mu, axis).values()) for axis in range(mu.grid.n)
        )
        assert is_orthogonal(mu) == marginals_vanish == annihilates


class TestIntegrate:
    def test_point_mass_picks_out_value(self):
        f = table((2, 2), [5, 0, 0, 0])
        mu = FiniteSignedMeasure(GRID22, (((0, 0), Fraction(1)),))
        assert integrate(f, mu) == 5

    def test_separable_integrates_to_zero_against_orthogonal(self):
        rng = random.Random(4)
        f = tabulate(random_separable(rng, GRID22))
        assert integrate(f, SQUARE_BOLT) == 0

    def test_product_table_against_square_bolt(self):
        f = table((2, 2), [0, 0, 0, 1])
        assert integrate(f, SQUARE_BOLT) == Fraction(1, 4)
        assert integrate(f, -SQUARE_BOLT) == Fraction(-1, 4)

    def test_grid_mismatch(self):
        f = table((3, 3), [0] * 9)
        with pytest.raises(ValueError):
            integrate(f, SQUARE_BOLT)


class TestMeasureFromPair:
    def test_square(self):
        pair = CycleVectorPair(GRID22, SQUARE, (1, -1, 1, -1))
        assert measure_from_pair(pair) == SQUARE_BOLT

    def test_five_points(self):
        pair = CycleVectorPair(CUBE, FIVE_POINTS, (2, -1, -1, -1, 1))
        assert measure_from_pair(pair) == FIVE_MEASURE

    def test_six_points(self):
        points = FIVE_POINTS + ((0, 1, 1),)
        pair = CycleVectorPair(CUBE, points, (3, -1, -1, -2, 2, -1))
        mu = measure_from_pair(pair)
        assert mu.mass_at((0, 0, 0)) == Fraction(3, 10)
        assert mu.mass_at((1, 0, 0)) == Fraction(-2, 10)
        assert mu.mass_at((0, 1, 1)) == Fraction(-1, 10)
        assert total_variation(mu) == 1

    def test_always_orthogonal_with_unit_variation(self):
        rng = random.Random(31)
        grid = ProductGrid((3, 3))
        for cycle in rng.sample(enumerate_minimal_cycles(grid), 8):
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            pair = CycleVectorPair(
                grid, cycle.points, tuple(w * scale for w in cycle.weights)
            )
            mu = measure_from_pair(pair)
            assert is_orthogonal(mu)
            assert total_variation(mu) == 1


class TestGolombMeasure:
    def test_square_parts(self):
        gc = GolombCycle(GRID22, ((0, 0), (1, 1)), ((0, 1), (1, 0)))
        assert golomb_measure(gc) == SQUARE_BOLT

    def test_five_point_parts_with_repetition(self):
        gc = GolombCycle(
            CUBE,
            ((0, 0, 0), (0, 0, 0), (1, 1, 1)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        )
        assert golomb_measure(gc) == FIVE_MEASURE

    def test_matches_pair_measure_via_certificate(self):
        rng = random.Random(8)
        grid = ProductGrid((3, 3))
        for cycle in rng.sample(enumerate_minimal_cycles(grid), 8):
            gc = to_golomb_form(cycle)
            assert golomb_measure(gc) == measure_from_pair(cycle)
            assert total_variation(golomb_measure(gc)) == 1


class TestMeasureJson:
    def test_round_trip(self):
        obj = measure_to_json(FIVE_MEASURE)
        assert obj["shape"] == [2, 2, 2]
        assert obj["atoms"][0] == {"point": [0, 0, 0], "mass": "1/3"}
        assert measure_from_json(obj) == FIVE_MEASURE

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            measure_from_json({"shape": [2, 2]})
        with pytest.raises(ValueError):
            measure_from_json({"shape": [2, 2], "atoms": [{"point": [0, 0]}]})
        with pytest.raises(ValueError):
            measure_from_json({"shape": "2x2", "atoms": []})
        with pytest.raises(ValueError):
            measure_from_json({"shape": [True, 2], "atoms": []})
        with pytest.raises(ValueError):
            measure_from_json({"shape": [2, 2], "atoms": [{"point": [0.4, 0], "mass": "1"}]})

    def test_atoms_must_be_a_list(self):
        with pytest.raises(ValueError, match='"atoms" must be a list'):
            measure_from_json({"shape": [2, 2], "atoms": {"point": [0, 0], "mass": "0"}})

    def test_rejects_a_point_that_is_not_a_list(self):
        for point in (1, "00", None):
            atoms = [{"point": point, "mass": "1"}, {"point": [1, 1], "mass": "-1"}]
            with pytest.raises(ValueError, match='"point" must be a list of points'):
                measure_from_json({"shape": [2, 2], "atoms": atoms})
