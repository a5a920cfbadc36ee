"""Acceptance suite: the eight end-to-end guarantees this package makes.

Every check is exact; rational arithmetic leaves no tolerance to tune. The
eight tests below, in order:

1. Duality equality: the best-approximation error equals the supremum of
   |integral of f| over all minimal cycles, on 204 seeded random instances
   across six grid shapes.
2. Fidelity of the documented 2x2x2 example cycles (five-point minimal
   cycle, six-point non-minimal extension).
3. Decomposition round-trip: random orthogonal measures split into convex
   combinations of minimal-cycle measures that reconstruct them exactly.
4. Dual-measure certificates: orthogonality, total variation at most 1,
   exact attainment, and the sign/support conditions at the optimum.
5. Witness extraction: a minimal cycle achieving the error, read off the
   optimal dual measure, whenever the error is positive.
6. Two-axis equivalence: the closed-bolt supremum agrees with the error and
   with the minimal-cycle supremum on every two-axis instance.
7. Enumeration against a brute-force oracle on every grid of volume <= 9.
8. Invariance: translation by separable sums leaves the error unchanged;
   scaling multiplies it by the absolute factor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from golombdual import (
    ApproximationResult,
    CycleVectorPair,
    FiniteSignedMeasure,
    MinimalCycle,
    ProductGrid,
    TabulatedFunction,
    best_error,
    bolt_supremum,
    closed_bolt_measure,
    cycle_functional,
    cycle_to_closed_bolts,
    decompose,
    enumerate_minimal_cycles,
    integrate,
    is_closed_bolt,
    is_orthogonal,
    normalize_minimal,
    optimal_witness_from_dual,
    residual,
    tabulate,
    to_golomb_form,
    total_variation,
)

from conftest import (
    CUBE,
    FIVE_POINTS,
    SIX_CERT,
    SIX_POINTS,
    bolt_supremum_by_conversion,
    brute_force_minimal_cycles,
    random_separable,
    random_table,
)

SHAPES = ((2, 2), (3, 3), (4, 4), (2, 2, 2), (3, 2, 2), (3, 3, 2))
INSTANCES_PER_SHAPE = 34
VALUE_BOUND = 10
SEED = 20260814


@dataclass(frozen=True)
class Instance:
    shape: tuple[int, ...]
    f: TabulatedFunction
    result: ApproximationResult
    cycle_supremum: Fraction


@pytest.fixture(scope="module")
def cycles_by_shape() -> dict[tuple[int, ...], tuple[MinimalCycle, ...]]:
    return {shape: enumerate_minimal_cycles(ProductGrid(shape)) for shape in SHAPES}


@pytest.fixture(scope="module")
def instances(cycles_by_shape) -> tuple[Instance, ...]:
    rng = random.Random(SEED)
    out = []
    for shape in SHAPES:
        grid = ProductGrid(shape)
        cycles = cycles_by_shape[shape]
        for _ in range(INSTANCES_PER_SHAPE):
            f = random_table(rng, grid, VALUE_BOUND)
            result = best_error(f)
            supremum = max(
                (cycle_functional(f, cycle) for cycle in cycles),
                default=Fraction(0),
            )
            out.append(Instance(shape, f, result, supremum))
    return tuple(out)


def test_1_duality_equality_on_random_instances(instances):
    assert len(instances) >= 200
    for inst in instances:
        assert inst.result.error == inst.cycle_supremum
    print(
        f"[1] duality equality: PASS on {len(instances)} instances "
        f"across shapes {SHAPES}, all exact"
    )


def test_2_documented_example_cycles():
    five = normalize_minimal(FIVE_POINTS, CUBE)
    base = five.weights[0] / 2
    assert five.weights == tuple(base * m for m in (2, -1, -1, -1, 1))

    CycleVectorPair(CUBE, SIX_POINTS, SIX_CERT)
    with pytest.raises(ValueError, match="not a minimal cycle"):
        normalize_minimal(SIX_POINTS, CUBE)
    print(
        "[2] documented example cycles: PASS "
        "(five-point cycle minimal with weights (2,-1,-1,-1,1)/6; "
        "six-point extension a non-minimal cycle)"
    )


def test_3_decomposition_round_trip(cycles_by_shape):
    rng = random.Random(SEED + 3)
    cases = 100
    for case in range(cases):
        shape = SHAPES[case % len(SHAPES)]
        grid = ProductGrid(shape)
        cycles = cycles_by_shape[shape]
        chosen = rng.sample(cycles, rng.randint(1, min(4, len(cycles))))
        mu = FiniteSignedMeasure(grid, ())
        for cycle in chosen:
            mu = mu + cycle.measure() * Fraction(rng.randint(1, 9))
        mu = mu * (1 / total_variation(mu))

        dec = decompose(mu)
        assert sum(w for w, _ in dec.terms) == 1
        assert all(w > 0 for w, _ in dec.terms)
        assert len(dec.terms) <= len(mu.support)
        combined = FiniteSignedMeasure(grid, ())
        for weight, cycle in dec.terms:
            term = cycle.measure()
            normalize_minimal(cycle.points, grid)
            assert is_orthogonal(term)
            assert total_variation(term) == 1
            combined = combined + term * weight
        assert combined == mu
    print(f"[3] decomposition round-trip: PASS on {cases} random orthogonal measures")


def test_4_dual_measure_certificates(instances):
    for inst in instances:
        mu = inst.result.optimal_measure
        error = inst.result.error
        assert is_orthogonal(mu)
        assert total_variation(mu) <= 1
        assert integrate(inst.f, mu) == error
        res = residual(inst.f, inst.result.best_g)
        for point, mass in mu.atoms:
            value = res.value_at(point)
            assert abs(value) == error
            assert (value > 0) == (mass > 0)
    print(
        f"[4] dual-measure certificates: PASS on {len(instances)} instances "
        "(orthogonal, variation <= 1, exact attainment, signs on the "
        "max-residual set)"
    )


def test_5_witness_extraction(instances):
    positive = 0
    for inst in instances:
        if inst.result.error == 0:
            continue
        positive += 1
        cycle, dec = optimal_witness_from_dual(inst.f, inst.result)
        assert cycle_functional(inst.f, cycle) == inst.result.error
        assert any(c == cycle for _, c in dec.terms)
    assert positive > 0
    print(
        f"[5] witness extraction: PASS on all {positive} instances "
        "with positive error"
    )


def test_6_two_axis_equivalence(instances, cycles_by_shape):
    checked = 0
    for inst in instances:
        if len(inst.shape) != 2:
            continue
        checked += 1
        assert bolt_supremum(inst.f) == inst.result.error
        assert (
            bolt_supremum_by_conversion(inst.f, cycles_by_shape[inst.shape])
            == inst.result.error
        )
        assert inst.cycle_supremum == inst.result.error
    bolts_checked = 0
    for shape in SHAPES:
        if len(shape) != 2:
            continue
        grid = ProductGrid(shape)
        for cycle in cycles_by_shape[shape]:
            gc = to_golomb_form(cycle)
            for cb in cycle_to_closed_bolts(gc):
                bolts_checked += 1
                assert is_closed_bolt(grid, cb.vertices)
                assert is_orthogonal(closed_bolt_measure(cb))
    assert checked > 0 and bolts_checked > 0
    print(
        f"[6] two-axis equivalence: PASS on {checked} instances; "
        f"{bolts_checked} emitted closed bolts all valid and orthogonal"
    )


def test_7_enumeration_matches_brute_force():
    shapes = ((2, 2), (2, 3), (3, 3), (1, 4), (2, 2, 2), (2, 2, 1))
    for shape in shapes:
        grid = ProductGrid(shape)
        assert grid.volume <= 9
        enumerated = set(enumerate_minimal_cycles(grid))
        assert enumerated == brute_force_minimal_cycles(grid)
    print(
        f"[7] enumeration oracle: PASS, set-equal with the all-subsets "
        f"search on shapes {shapes}"
    )


def test_8_invariance_under_translation_and_scaling():
    rng = random.Random(SEED + 8)
    translations = 20
    scalings = (Fraction(-2), Fraction(3), Fraction(1, 2))
    for shape in SHAPES:
        grid = ProductGrid(shape)
        f = random_table(rng, grid, VALUE_BOUND)
        base = best_error(f).error
        for _ in range(translations):
            g = tabulate(random_separable(rng, grid, VALUE_BOUND))
            assert best_error(f + g).error == base
        for c in scalings:
            assert best_error(f * c).error == abs(c) * base
    print(
        f"[8] invariance: PASS on {len(SHAPES)} instances, "
        f"{translations} separable translations each and scalings "
        f"{tuple(str(c) for c in scalings)}"
    )
