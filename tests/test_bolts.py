"""Two-axis bolts: detection, closing, measures, and cycle conversion."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from golombdual import (
    Bolt,
    ClosedBolt,
    GolombCycle,
    ProductGrid,
    best_error,
    bolt_from_json,
    bolt_supremum,
    bolt_to_json,
    closed_bolt_measure,
    cycle_functional,
    cycle_to_closed_bolts,
    enumerate_minimal_cycles,
    integrate,
    is_bolt,
    is_closed_bolt,
    is_orthogonal,
    tabulate,
    to_golomb_form,
    total_variation,
)

from conftest import (
    SQUARE,
    bolt_supremum_by_conversion,
    random_separable,
    random_table,
    reference_cycle_to_closed_bolts,
    reference_is_bolt,
    reference_is_closed_bolt,
    table,
)

GRID22 = ProductGrid((2, 2))
GRID33 = ProductGrid((3, 3))
GRID44 = ProductGrid((4, 4))

STAIRCASE = ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0))

# Walks around two squares glued through the column x = 0; the vertex (0, 1)
# appears twice, once with each sign, so its masses cancel.
REVISIT = (
    (0, 0),
    (0, 1),
    (1, 1),
    (1, 0),
    (2, 0),
    (2, 1),
    (0, 1),
    (0, 3),
    (3, 3),
    (3, 0),
)


class TestIsBolt:
    def test_two_vertices_sharing_x(self):
        assert is_bolt(GRID22, ((0, 0), (0, 1))) == "shared-x-first"

    def test_two_vertices_sharing_y(self):
        assert is_bolt(GRID22, ((0, 0), (1, 0))) == "shared-y-first"

    def test_no_shared_coordinate(self):
        assert is_bolt(GRID22, ((0, 0), (1, 1))) is None

    def test_square_path(self):
        assert is_bolt(GRID22, SQUARE) == "shared-x-first"

    def test_alternation_must_continue(self):
        assert is_bolt(GRID33, ((0, 0), (0, 1), (0, 2))) is None

    def test_consecutive_duplicates_rejected(self):
        assert is_bolt(GRID22, ((0, 0), (0, 0))) is None

    def test_single_vertex(self):
        assert is_bolt(GRID22, ((0, 0),)) == "shared-x-first"

    def test_empty(self):
        assert is_bolt(GRID22, ()) is None

    def test_requires_two_axes(self):
        with pytest.raises(ValueError):
            is_bolt(ProductGrid((2, 2, 2)), ((0, 0, 0), (0, 0, 1)))
        with pytest.raises(ValueError):
            is_bolt(ProductGrid((4,)), ((0,), (1,)))


class TestIsClosedBolt:
    def test_square(self):
        assert is_closed_bolt(GRID22, SQUARE)

    def test_two_vertices_cannot_close(self):
        assert not is_closed_bolt(GRID22, ((0, 0), (0, 1)))

    def test_staircase_closes(self):
        assert is_closed_bolt(GRID33, STAIRCASE)

    def test_odd_length_never_closes(self):
        assert not is_closed_bolt(GRID33, ((0, 0), (0, 1), (1, 1)))

    def test_open_path_fails(self):
        assert not is_closed_bolt(GRID33, ((0, 0), (0, 1), (1, 1), (1, 2)))

    def test_revisiting_walk_closes(self):
        assert is_closed_bolt(GRID44, REVISIT)

    @pytest.mark.parametrize(
        "vertices", [[], [(0, 0, 0)], [(0, 0, 0), (0, 0, 1)]], ids=["empty", "odd", "even"]
    )
    def test_requires_two_axes_at_every_length(self, vertices):
        # the axis check runs before the length test, as in is_bolt
        with pytest.raises(ValueError, match="two-axis grids only"):
            is_closed_bolt(ProductGrid((2, 2, 2)), vertices)


class TestBoltTypes:
    def test_bolt_records_start_axis(self):
        bolt = Bolt(GRID22, ((0, 0), (0, 1)), "shared-x-first")
        assert bolt.start_axis == "shared-x-first"

    def test_bolt_rejects_wrong_axis_label(self):
        with pytest.raises(ValueError):
            Bolt(GRID22, ((0, 0), (0, 1)), "shared-y-first")

    def test_bolt_rejects_non_bolt(self):
        with pytest.raises(ValueError):
            Bolt(GRID22, ((0, 0), (1, 1)), "shared-x-first")

    def test_closed_bolt_rejects_open_path(self):
        bolt = Bolt(GRID33, ((0, 0), (0, 1), (1, 1), (1, 2)), "shared-x-first")
        with pytest.raises(ValueError):
            ClosedBolt(bolt)

    def test_closed_bolt_accepts_square(self):
        cb = ClosedBolt(Bolt(GRID22, SQUARE, "shared-x-first"))
        assert cb.vertices == SQUARE


def closed(grid: ProductGrid, vertices) -> ClosedBolt:
    axis = is_bolt(grid, vertices)
    return ClosedBolt(Bolt(grid, tuple(vertices), axis))


class TestClosedBoltMeasure:
    def test_square_alternates_quarters(self):
        mu = closed_bolt_measure(closed(GRID22, SQUARE))
        assert mu.atoms == (
            ((0, 0), Fraction(1, 4)),
            ((0, 1), Fraction(-1, 4)),
            ((1, 0), Fraction(-1, 4)),
            ((1, 1), Fraction(1, 4)),
        )
        assert total_variation(mu) == 1

    def test_orientation_flip_negates(self):
        rotated = SQUARE[1:] + SQUARE[:1]
        mu = closed_bolt_measure(closed(GRID22, SQUARE))
        nu = closed_bolt_measure(closed(GRID22, rotated))
        assert nu == -mu

    def test_staircase_measure(self):
        mu = closed_bolt_measure(closed(GRID33, STAIRCASE))
        assert total_variation(mu) == 1
        assert is_orthogonal(mu)
        assert mu.mass_at((0, 0)) == Fraction(1, 6)
        assert mu.mass_at((2, 0)) == Fraction(-1, 6)

    def test_cancelling_revisit_drops_variation_below_one(self):
        mu = closed_bolt_measure(closed(GRID44, REVISIT))
        assert mu.mass_at((0, 1)) == 0
        assert total_variation(mu) == Fraction(4, 5)
        assert is_orthogonal(mu)

    def test_always_orthogonal(self):
        rng = random.Random(19)
        for cycle in rng.sample(enumerate_minimal_cycles(GRID44), 15):
            gc = to_golomb_form(cycle.pair)
            for cb in cycle_to_closed_bolts(gc):
                assert is_orthogonal(closed_bolt_measure(cb))


class TestCycleToClosedBolts:
    def test_square_converts_to_one_bolt(self):
        gc = GolombCycle(GRID22, ((0, 0), (1, 1)), ((0, 1), (1, 0)))
        bolts = cycle_to_closed_bolts(gc)
        assert len(bolts) == 1
        assert bolts[0].vertices == ((0, 0), (0, 1), (1, 1), (1, 0))

    def test_disjoint_squares_give_two_bolts(self):
        gc = GolombCycle(
            GRID44,
            ((0, 0), (1, 1), (2, 2), (3, 3)),
            ((0, 1), (1, 0), (2, 3), (3, 2)),
        )
        bolts = cycle_to_closed_bolts(gc)
        assert len(bolts) == 2
        assert bolts[0].vertices == ((0, 0), (0, 1), (1, 1), (1, 0))
        assert bolts[1].vertices == ((2, 2), (2, 3), (3, 3), (3, 2))

    def test_signed_vertex_multisets_reproduce_the_input(self):
        # Two squares overlapping in the column x = 0 force a walk through
        # the doubled point (0, 0) and the doubled point (1, 0).
        gc = GolombCycle(
            ProductGrid((2, 3)),
            ((0, 0), (0, 0), (1, 1), (1, 2)),
            ((0, 1), (0, 2), (1, 0), (1, 0)),
        )
        bolts = cycle_to_closed_bolts(gc)
        plus: Counter = Counter()
        minus: Counter = Counter()
        for cb in bolts:
            for i, vertex in enumerate(cb.vertices):
                (plus if i % 2 == 0 else minus)[vertex] += 1
        assert plus == Counter(gc.b_part)
        assert minus == Counter(gc.c_part)
        for cb in bolts:
            assert is_closed_bolt(cb.grid, cb.vertices)

    def test_single_minimal_cycles_convert_to_single_bolts(self):
        # bolt_supremum and the bolts command rest on this: on two axes a
        # minimal cycle on 2k points has weights +-1/(2k) and is one closed
        # bolt that integrates f to +- the cycle functional
        rng = random.Random(23)
        for shape in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5)):
            grid = ProductGrid(shape)
            f = random_table(rng, grid)
            for cycle in enumerate_minimal_cycles(grid):
                assert all(abs(w) == Fraction(1, len(cycle.points)) for w in cycle.weights)
                gc = to_golomb_form(cycle.pair)
                bolts = cycle_to_closed_bolts(gc)
                assert len(bolts) == 1
                mu = closed_bolt_measure(bolts[0])
                assert mu in (cycle.measure(), -cycle.measure())
                assert abs(integrate(f, mu)) == cycle_functional(f, cycle)

    def test_deterministic(self):
        gc = GolombCycle(
            GRID44,
            ((0, 0), (1, 1), (2, 2), (3, 3)),
            ((0, 1), (1, 0), (2, 3), (3, 2)),
        )
        assert cycle_to_closed_bolts(gc) == cycle_to_closed_bolts(gc)

    def test_rejects_other_dimensions(self):
        gc = GolombCycle(
            ProductGrid((2, 2, 2)),
            ((0, 0, 0), (0, 0, 0), (1, 1, 1)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        )
        with pytest.raises(ValueError):
            cycle_to_closed_bolts(gc)


class TestBoltSupremum:
    def test_product_table(self):
        f = table((2, 2), [0, 0, 0, 1])
        assert bolt_supremum(f) == Fraction(1, 4)

    def test_separable_gives_zero(self):
        rng = random.Random(25)
        f = tabulate(random_separable(rng, GRID33))
        assert bolt_supremum(f) == 0

    def test_matches_best_error_on_random_tables(self):
        rng = random.Random(26)
        for _ in range(10):
            f = random_table(rng, GRID33)
            error = best_error(f).error
            assert bolt_supremum(f) == error
            assert bolt_supremum_by_conversion(f) == error

    def test_rejects_other_dimensions(self):
        rng = random.Random(27)
        f = random_table(rng, ProductGrid((2, 2, 2)))
        with pytest.raises(ValueError):
            bolt_supremum(f)


class TestBoltJson:
    def test_round_trip_closed(self):
        cb = closed(GRID22, SQUARE)
        obj = bolt_to_json(cb)
        assert obj == {"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]], "closed": True}
        back = bolt_from_json(GRID22, obj)
        assert isinstance(back, ClosedBolt)
        assert back == cb

    def test_round_trip_open(self):
        bolt = Bolt(GRID33, ((0, 0), (0, 1), (1, 1)), "shared-x-first")
        obj = bolt_to_json(bolt)
        assert obj["closed"] is False
        back = bolt_from_json(GRID33, obj)
        assert isinstance(back, Bolt)
        assert back.vertices == bolt.vertices

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            bolt_from_json(GRID22, {"vertices": "zig"})
        with pytest.raises(ValueError):
            bolt_from_json(GRID22, {"closed": True})
        with pytest.raises(ValueError):
            bolt_from_json(GRID22, {"vertices": [[0, 0], [0, 1], [True, 1], [1, 0]]})

    def test_rejects_vertices_that_are_not_a_list_of_points(self):
        for vertices in (3, [1, 2], [[0, 0], 1]):
            with pytest.raises(ValueError, match='"vertices" must be a list of points'):
                bolt_from_json(GRID22, {"vertices": vertices})

    def test_closed_must_be_a_json_boolean(self):
        obj = {"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]}
        for closed in ("no", 1, None):
            with pytest.raises(ValueError, match='"closed" must be true or false'):
                bolt_from_json(GRID22, {**obj, "closed": closed})
        assert isinstance(bolt_from_json(GRID22, obj), Bolt)

    def test_rejects_vertices_that_are_not_a_bolt(self):
        # (0, 0) and (1, 1) share no coordinate, so no step alternates
        with pytest.raises(ValueError, match="vertex list is not a bolt"):
            bolt_from_json(GRID22, {"vertices": [[0, 0], [1, 1]]})


def outcome(fn, *args):
    """What fn(*args) gives: its return value, or the type and message of
    the exception it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


BOLT_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4))
OFF_GRID = ((4, 0), (0, -1), (0, 0, 0), (0,), (0.0, 1), (True, 0), ("0", 1))


def alternating_walk(rng: random.Random, sizes, length: int) -> list[list[int]]:
    """A walk of ``length`` vertices whose first pair shares a random axis;
    each step redraws the coordinate that moves, so values revisit."""
    axis = rng.randrange(2)
    p = [rng.randrange(s) for s in sizes]
    walk = [p[:]]
    for i in range(length - 1):
        moving = 1 - (axis + i) % 2
        p[moving] = rng.choice([v for v in range(sizes[moving]) if v != p[moving]])
        walk.append(p[:])
    if length > 1 and rng.random() < 0.5:
        # close the walk up: its last step lands on the first vertex's value
        walk[-1][moving] = walk[0][moving]
    return walk


def random_vertex_list(rng: random.Random) -> tuple[ProductGrid, list]:
    """A seeded vertex list: empty, single, an alternating walk of 2 to 10
    vertices (closed up half the time, odd lengths included) that may be
    rotated, reversed, broken by a redrawn or doubled vertex, or given an
    off-grid point; or a list of points on the 2x2x2 grid."""
    kind = rng.randrange(8)
    if kind == 7:
        grid = ProductGrid((2, 2, 2))
        points = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(7))]
        if points and rng.random() < 0.2:
            points[rng.randrange(len(points))] = (0, 1)
        return grid, points
    sizes = rng.choice(BOLT_SHAPES)
    grid = ProductGrid(sizes)
    if kind == 0:
        return grid, []
    walk = alternating_walk(rng, sizes, 1 if kind == 1 else rng.randint(2, 10))
    points = [tuple(p) for p in walk]
    r = rng.random()
    i = rng.randrange(len(points))
    if r < 0.1:
        points = points[i:] + points[:i]
    elif r < 0.2:
        points.reverse()
    elif r < 0.3:
        points[i] = (rng.randrange(sizes[0]), rng.randrange(sizes[1]))
    elif r < 0.4:
        points.insert(i, points[i])
    elif r < 0.5:
        points[i] = rng.choice(OFF_GRID)
    return grid, points


def closed_bolt_walk(rng: random.Random, sizes) -> list[tuple[int, int]]:
    """A closed bolt of 2k vertices (k from 2 to 4) starting with a shared
    x: (x_i, y_i), (x_i, y_i+1) for i < k, indices mod k, with consecutive
    x values and consecutive y values distinct around the cycle (which takes
    an even k on an axis of two values)."""
    k = rng.choice((2, 4) if 2 in sizes else (2, 3, 4))

    def cyclic(size: int) -> list[int]:
        while True:
            values = [rng.randrange(size) for _ in range(k)]
            if all(values[i] != values[i - 1] for i in range(k)):
                return values

    xs, ys = cyclic(sizes[0]), cyclic(sizes[1])
    return [v for i in range(k) for v in ((xs[i], ys[i]), (xs[i], ys[(i + 1) % k]))]


def random_bolt_sum(rng: random.Random) -> GolombCycle:
    """The Golomb cycle of the sum of 1 to 3 seeded closed bolts' signed
    vertex multisets on a small grid, opposite signs cancelled, each part
    shuffled; points repeat within a part."""
    sizes = rng.choice(BOLT_SHAPES)
    while True:
        signed: Counter = Counter()
        for _ in range(rng.randint(1, 3)):
            for i, v in enumerate(closed_bolt_walk(rng, sizes)):
                signed[v] += 1 if i % 2 == 0 else -1
        b = [v for v, m in signed.items() for _ in range(m)]
        c = [v for v, m in signed.items() for _ in range(-m)]
        if b:
            rng.shuffle(b)
            rng.shuffle(c)
            return GolombCycle(ProductGrid(sizes), tuple(b), tuple(c))


class TestMatchesTheReference:
    """The one-rule bolt functions against the ones they replaced
    (``tests/conftest.py``): the same return value, or the same exception
    type and message, on seeded inputs."""

    def test_vertex_lists(self):
        rng = random.Random(20)
        closed_up = raised = 0
        for _ in range(2400):
            grid, points = random_vertex_list(rng)
            got = outcome(is_bolt, grid, points)
            assert got == outcome(reference_is_bolt, grid, points), points
            closes = outcome(is_closed_bolt, grid, points)
            assert closes == outcome(reference_is_closed_bolt, grid, points), points
            closed_up += closes == ("returned", True)
            raised += got[0] == "raised"
        # both answers and both kinds of failure occur often
        assert closed_up > 150 and raised > 300

    def test_bolt_sums(self):
        rng = random.Random(20)
        repeated = split = 0
        for _ in range(1200):
            gc = random_bolt_sum(rng)
            got = outcome(cycle_to_closed_bolts, gc)
            assert got == outcome(reference_cycle_to_closed_bolts, gc), gc
            repeated += len(set(gc.b_part)) < gc.k
            split += len(got[1]) > 1
        assert repeated > 200 and split > 200
