"""Seeded inputs for the benchmark workloads.

Standard library only. A workload is a fixed list of golombdual CLI calls;
the workload seed picks the input values. Instance ``i`` of a run with seed
``s`` draws its values from ``random.Random(1000 * s + i)``. Functions follow
the rule of ``golombdual gen``: uniform integers in ``[-range, range]`` in
row-major order, one ``randint`` per grid point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

DEFAULT_SEED = 1
# Never used while tuning the workloads; a change that claims a gain repeats
# its runs here.
HELD_OUT_SEED = 97

WORKLOADS = ("error-2d", "error-3d", "certify", "decompose")


@dataclass(frozen=True)
class Instance:
    """One CLI call: ``golombdual <command> --input <input_name>``."""

    name: str
    command: str
    input_name: str
    input_obj: dict

    def argv(self, input_path: str, output_path: str) -> list[str]:
        return [self.command, "--input", input_path, "--output", output_path]


def shape_text(shape: tuple[int, ...]) -> str:
    return "x".join(str(s) for s in shape)


def gen_function(shape: tuple[int, ...], seed: int, value_range: int = 10) -> dict:
    """The function file ``golombdual gen --shape .. --seed .. --range ..``
    writes, as a JSON object."""
    rng = random.Random(seed)
    values = [str(rng.randint(-value_range, value_range)) for _ in range(prod(shape))]
    return {"shape": list(shape), "values": values}


def gen_measure(shape: tuple[int, ...], seed: int, atoms: int) -> dict:
    """An annihilating measure with ``atoms`` to ``atoms + 3`` atoms and total
    variation 1.

    It is a sum of signed 2x2 rectangles: two values on each of two axes,
    the other coordinates fixed, masses +c, -c, -c, +c. Each rectangle
    annihilates every separable sum, and so does any sum of them.
    """
    rng = random.Random(seed)
    n = len(shape)
    acc: dict[tuple[int, ...], int] = {}
    while sum(1 for m in acc.values() if m) < atoms:
        a1, a2 = rng.sample(range(n), 2)
        u = rng.sample(range(shape[a1]), 2)
        v = rng.sample(range(shape[a2]), 2)
        base = [rng.randrange(s) for s in shape]
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for i, si in ((0, 1), (1, -1)):
            for j, sj in ((0, 1), (1, -1)):
                point = list(base)
                point[a1], point[a2] = u[i], v[j]
                key = tuple(point)
                acc[key] = acc.get(key, 0) + c * si * sj
    tv = sum(abs(m) for m in acc.values())
    return {
        "shape": list(shape),
        "atoms": [
            {"point": list(p), "mass": _rat_text(Fraction(acc[p], tv))}
            for p in product(*(range(s) for s in shape))
            if acc.get(p)
        ],
    }


def _rat_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# (command, shape, value range) per call, in call order.
_ERROR_2D = [("error", (8, 8), 10)] * 8 + [("error", (10, 10), 10)] * 2 + [
    ("error", (12, 12), 10)
]
# Many mid-size tables rather than one 6x6x3: a single 6x6x3 LP's cost moves
# by a factor of two from seed to seed and would set the whole pass's time.
_ERROR_3D = [("error", (4, 4, 4), 10)] * 10 + [("error", (5, 4, 3), 10**6)]
# Three rounds: the first call per shape enumerates cold, later ones hit the
# program's enumeration cache.
_CERTIFY = [
    ("verify", (3, 3, 2), 10),
    ("verify", (2, 2, 2, 2), 10),
    ("verify", (4, 4), 10),
    ("bolts", (3, 4), 10),
] * 3
# (shape, target atom count) per decompose call.
_DECOMPOSE = [
    ((10, 10), 50),
    ((5, 5, 4), 56),
    ((10, 10), 62),
    ((5, 5, 4), 68),
    ((10, 10), 74),
    ((5, 5, 4), 80),
    ((10, 10), 86),
    ((5, 5, 4), 87),
] * 2


def instances(workload: str, seed: int) -> list[Instance]:
    """The calls of one pass of ``workload`` for ``seed``, in order."""
    out: list[Instance] = []
    if workload in ("error-2d", "error-3d", "certify"):
        spec = {"error-2d": _ERROR_2D, "error-3d": _ERROR_3D, "certify": _CERTIFY}[workload]
        for i, (command, shape, value_range) in enumerate(spec):
            name = f"{i:02d}-{command}-{shape_text(shape)}"
            obj = gen_function(shape, 1000 * seed + i, value_range)
            out.append(Instance(name, command, f"{name}.json", obj))
    elif workload == "decompose":
        for i, (shape, atoms) in enumerate(_DECOMPOSE):
            name = f"{i:02d}-decompose-{shape_text(shape)}"
            obj = gen_measure(shape, 1000 * seed + i, atoms)
            out.append(Instance(name, "decompose", f"{name}.json", obj))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return out
