"""Exact checks of golombdual's JSON reports, independent of golombdual.

Standard library only; this module must never import golombdual, so that a
defect in the package cannot also hide itself here. Every comparison is an
exact ``Fraction`` equality.

- ``error``: sup|f - sum g| equals the error, the gauge pins hold, the
  measure annihilates every axis, has total variation at most 1 and
  integrates f to the error. By weak duality the measure's integral is a
  lower bound and g's residual an upper bound on the best error, so the
  report proves its own optimality.
- ``verify``: the duality check came out equal over a finished enumeration,
  and the witness cycle is annihilating with total variation 1 and its
  functional equals the error.
- ``bolts``: the witness bolts are closed and their measures integrate f to
  the bolt supremum, which equals the error.
- ``decompose``: positive weights summing to 1, each term annihilating with
  total variation 1, and the terms recombine to the input exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

Point = tuple[int, ...]
Masses = dict[Point, Fraction]


class CheckFailure(Exception):
    """A report that does not hold up."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _rat(text: object) -> Fraction:
    _require(isinstance(text, str), f"expected a rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CheckFailure(f"not a rational: {text!r}") from None


def _shape(obj: dict) -> tuple[int, ...]:
    shape = obj.get("shape")
    _require(
        isinstance(shape, list) and bool(shape) and all(isinstance(s, int) and s > 0 for s in shape),
        f"bad shape {shape!r}",
    )
    return tuple(shape)


def _point(shape: tuple[int, ...], raw: object) -> Point:
    _require(
        isinstance(raw, list)
        and len(raw) == len(shape)
        and all(isinstance(c, int) and 0 <= c < s for c, s in zip(raw, shape)),
        f"point {raw!r} is not on a grid of shape {shape}",
    )
    return tuple(raw)


def function_values(obj: dict) -> tuple[tuple[int, ...], dict[Point, Fraction]]:
    """Shape and point -> value map of a function file."""
    shape = _shape(obj)
    points = list(product(*(range(s) for s in shape)))
    values = obj.get("values")
    _require(isinstance(values, list) and len(values) == len(points), "bad function values")
    return shape, {p: _rat(v) for p, v in zip(points, values)}


def measure_masses(shape: tuple[int, ...], obj: object) -> Masses:
    """Point -> mass map of a measure file; repeated points accumulate."""
    _require(isinstance(obj, dict) and _shape(obj) == shape, "measure shape mismatch")
    atoms = obj.get("atoms")
    _require(isinstance(atoms, list), "measure needs an atom list")
    out: Masses = {}
    for atom in atoms:
        _require(isinstance(atom, dict), f"bad atom {atom!r}")
        p = _point(shape, atom.get("point"))
        out[p] = out.get(p, Fraction(0)) + _rat(atom.get("mass"))
    return {p: m for p, m in out.items() if m}


def cycle_masses(shape: tuple[int, ...], obj: object) -> Masses:
    """Point -> weight map of a cycle ``{"points", "lambda"}``; points must
    be distinct and weights nonzero."""
    _require(isinstance(obj, dict), f"bad cycle {obj!r}")
    points, lams = obj.get("points"), obj.get("lambda")
    _require(
        isinstance(points, list) and isinstance(lams, list) and len(points) == len(lams) > 0,
        "cycle needs equal-length points and lambda",
    )
    out: Masses = {}
    for raw, lam in zip(points, lams):
        p = _point(shape, raw)
        _require(p not in out, f"duplicate cycle point {p}")
        w = _rat(lam)
        _require(w != 0, "zero cycle weight")
        out[p] = w
    return out


def annihilates(shape: tuple[int, ...], masses: Masses) -> bool:
    """Every axis marginal vanishes."""
    for axis in range(len(shape)):
        marginal = [Fraction(0)] * shape[axis]
        for p, m in masses.items():
            marginal[p[axis]] += m
        if any(marginal):
            return False
    return True


def total_variation(masses: Masses) -> Fraction:
    return sum((abs(m) for m in masses.values()), Fraction(0))


def integral(f: dict[Point, Fraction], masses: Masses) -> Fraction:
    return sum((m * f[p] for p, m in masses.items()), Fraction(0))


def _same_shape(report: dict, shape: tuple[int, ...]) -> None:
    _require(_shape(report) == shape, "report shape differs from the input")


def check_error(f_obj: dict, report: dict) -> Fraction:
    """Check an ``error`` report; returns its error."""
    shape, f = function_values(f_obj)
    _same_shape(report, shape)
    error = _rat(report.get("error"))
    tables = report.get("best_g")
    _require(
        isinstance(tables, list)
        and len(tables) == len(shape)
        and all(isinstance(t, list) and len(t) == s for t, s in zip(tables, shape)),
        "best_g needs one table per axis",
    )
    g = [[_rat(v) for v in t] for t in tables]
    _require(all(g[axis][0] == 0 for axis in range(1, len(shape))), "gauge pin g_i(0) = 0 broken")
    sup = max(abs(v - sum(g[i][c] for i, c in enumerate(p))) for p, v in f.items())
    _require(sup == error, f"sup|f - g| = {sup}, report says {error}")
    mu = measure_masses(shape, report.get("optimal_measure"))
    _require(annihilates(shape, mu), "optimal measure does not annihilate every axis")
    _require(total_variation(mu) <= 1, "optimal measure has total variation above 1")
    _require(integral(f, mu) == error, "integral of f against the measure is not the error")
    return error


def check_verify(f_obj: dict, report: dict) -> Fraction:
    """Check a ``verify`` report; returns its error."""
    shape, f = function_values(f_obj)
    _same_shape(report, shape)
    _require(report.get("enumerated") is True, "enumeration did not finish")
    _require(report.get("equal") is True, "duality check did not come out equal")
    error = _rat(report.get("error"))
    _require(_rat(report.get("cycle_supremum")) == error, "cycle supremum differs from the error")
    _require(isinstance(report.get("cycles_examined"), int), "cycles_examined missing")
    if error == 0:
        _require(report.get("witness") is None, "zero error with a witness")
        return error
    w = cycle_masses(shape, report.get("witness"))
    _require(annihilates(shape, w), "witness does not annihilate every axis")
    _require(total_variation(w) == 1, "witness total variation is not 1")
    _require(abs(integral(f, w)) == error, "witness functional differs from the error")
    return error


def _is_closed_bolt(vertices: list[Point]) -> bool:
    """Even length, consecutive vertices distinct and sharing one coordinate
    with the shared axis alternating, and the alternation wraps around."""
    k = len(vertices)
    if k < 4 or k % 2:
        return False
    for first_axis in (0, 1):
        if all(
            vertices[i] != vertices[(i + 1) % k]
            and vertices[i][(first_axis + i) % 2] == vertices[(i + 1) % k][(first_axis + i) % 2]
            for i in range(k)
        ):
            return True
    return False


def check_bolts(f_obj: dict, report: dict) -> Fraction:
    """Check a ``bolts`` report; returns its error."""
    shape, f = function_values(f_obj)
    _require(len(shape) == 2, "bolts needs a two-axis grid")
    _same_shape(report, shape)
    _require(report.get("equal") is True, "bolt supremum differs from the error")
    error = _rat(report.get("error"))
    supremum = _rat(report.get("bolt_supremum"))
    _require(supremum == error, "bolt supremum differs from the error")
    bolts = report.get("witness_bolts")
    _require(isinstance(bolts, list), "witness_bolts missing")
    if error == 0:
        _require(not bolts, "zero error with witness bolts")
        return error
    _require(bool(bolts), "positive error without witness bolts")
    best = Fraction(0)
    for bolt in bolts:
        _require(isinstance(bolt, dict) and bolt.get("closed") is True, "witness bolt not marked closed")
        raw = bolt.get("vertices")
        _require(isinstance(raw, list), "bolt needs a vertex list")
        vertices = [_point(shape, v) for v in raw]
        _require(_is_closed_bolt(vertices), f"not a closed bolt: {vertices}")
        unit = Fraction(1, len(vertices))
        mu: Masses = {}
        for i, p in enumerate(vertices):
            mu[p] = mu.get(p, Fraction(0)) + (unit if i % 2 == 0 else -unit)
        mu = {p: m for p, m in mu.items() if m}
        _require(annihilates(shape, mu), "bolt measure does not annihilate every axis")
        value = abs(integral(f, mu))
        _require(value <= supremum, "a witness bolt exceeds the bolt supremum")
        best = max(best, value)
    _require(best == supremum, "no witness bolt reaches the bolt supremum")
    return error


def check_decompose(mu_obj: dict, report: dict) -> int:
    """Check a ``decompose`` report; returns its number of terms."""
    shape = _shape(mu_obj)
    mu = measure_masses(shape, mu_obj)
    _same_shape(report, shape)
    terms = report.get("terms")
    _require(isinstance(terms, list) and bool(terms), "decomposition has no terms")
    combined: Masses = {}
    total = Fraction(0)
    for term in terms:
        _require(isinstance(term, dict), f"bad term {term!r}")
        t = _rat(term.get("weight"))
        _require(t > 0, "decomposition weight not positive")
        total += t
        c = cycle_masses(shape, term.get("cycle"))
        _require(annihilates(shape, c), "term does not annihilate every axis")
        _require(total_variation(c) == 1, "term total variation is not 1")
        for p, w in c.items():
            combined[p] = combined.get(p, Fraction(0)) + t * w
    _require(total == 1, f"decomposition weights sum to {total}, not 1")
    combined = {p: m for p, m in combined.items() if m}
    _require(combined == mu, "terms do not recombine to the input measure")
    return len(terms)


CHECKS = {
    "error": check_error,
    "verify": check_verify,
    "bolts": check_bolts,
    "decompose": check_decompose,
}


def check(
    command: str,
    input_obj: dict,
    report: dict,
    expected_error: str | None = None,
    expected_cycles: int | None = None,
) -> str | None:
    """None when the report holds up, else the reason it does not.

    ``expected_error`` and ``expected_cycles`` are frozen answers for this
    instance, compared by value when given.
    """
    try:
        _require(isinstance(report, dict), "report is not a JSON object")
        result = CHECKS[command](input_obj, report)
        if expected_error is not None:
            _require(result == Fraction(expected_error), f"error {result}, frozen answer {expected_error}")
        if expected_cycles is not None:
            got = report.get("cycles_examined")
            _require(got == expected_cycles, f"cycles_examined {got}, frozen answer {expected_cycles}")
    except CheckFailure as exc:
        return str(exc)
    return None
