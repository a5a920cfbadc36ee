"""Command-line interface.

Exit codes: 0 on success (for verify: duality confirmed), 1 when a
verification is negative or the enumeration budget was exceeded, 2 on input
errors, 3 when an exact audit of a computed solution or certificate fails
(a bug, never an input error). Each command returns its exit code and its
report, built in memory, and main is the one writer: it writes the report
as JSON, to --output or stdout, only once the command has returned, so a
failing run never leaves a partial file. The gen command
uses random.Random (the documented Mersenne Twister), so output is
byte-identical for a given seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Callable

from . import chebyshev
from .bolts import _bolt_certificate, bolt_to_json
from .chebyshev import best_error, report_to_json, verify_golomb
from .cycles import _enumerate, _normalized_cycle, decompose, pair_to_json
from .grids import (
    ProductGrid,
    TabulatedFunction,
    function_from_csv,
    function_from_json,
    function_to_json,
)
from .linalg import CertificateError, format_rat
from .measures import measure_from_json, measure_to_json


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad shape {text!r}; expected AxBxC") from None
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"bad shape {text!r}; sizes must be positive")
    return sizes


def _load_function(path: str) -> TabulatedFunction:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.lower().endswith(".csv"):
        return function_from_csv(text)
    return function_from_json(json.loads(text))


def _cmd_error(args: argparse.Namespace) -> tuple[int, dict]:
    f = _load_function(args.input)
    result = best_error(f)
    return 0, {
        "shape": list(f.grid.factor_sizes),
        "error": format_rat(result.error),
        "best_g": [[format_rat(v) for v in table] for table in result.best_g.tables],
        "optimal_measure": measure_to_json(result.optimal_measure),
    }


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    f = _load_function(args.input)
    report = verify_golomb(f, max_support=args.max_support)
    return (0 if report.equal else 1), {**report_to_json(report), "shape": list(f.grid.factor_sizes)}


def _cmd_cycles(args: argparse.Namespace) -> tuple[int, dict | None]:
    grid = ProductGrid(_parse_shape(args.shape))
    budget = chebyshev.DEFAULT_ENUM_BUDGET  # read per call, as verify_golomb reads it
    hits, candidates, truncated = _enumerate(grid, None, args.max_support, budget)
    if truncated:
        unit = "candidates" if candidates > budget else "cycles"
        print(f"error: the cycle search exceeded its budget of {budget} {unit}", file=sys.stderr)
        return 1, None
    return 0, {
        "shape": list(grid.factor_sizes),
        "cycles": [pair_to_json(_normalized_cycle(*hit, grid)) for hit in hits],
    }


def _cmd_decompose(args: argparse.Namespace) -> tuple[int, dict]:
    with open(args.input, "r", encoding="utf-8") as fh:
        mu = measure_from_json(json.load(fh))
    return 0, {
        "shape": list(mu.grid.factor_sizes),
        "terms": [{"weight": format_rat(t), "cycle": pair_to_json(c)} for t, c in decompose(mu).terms],
    }


def _cmd_bolts(args: argparse.Namespace) -> tuple[int, dict]:
    f = _load_function(args.input)
    error, supremum, bolts = _bolt_certificate(f)
    # _bolt_certificate raises CertificateError unless the supremum is the error
    return 0, {
        "shape": list(f.grid.factor_sizes),
        "error": format_rat(error),
        "bolt_supremum": format_rat(supremum),
        "equal": supremum == error,
        "witness_bolts": [bolt_to_json(cb) for cb in bolts],
    }


def _cmd_gen(args: argparse.Namespace) -> tuple[int, dict]:
    grid = ProductGrid(_parse_shape(args.shape))
    r = args.value_range
    if r < 0:
        raise ValueError(f"--range must be at least 0, got {r}")
    rng = random.Random(args.seed)
    values = tuple(Fraction(rng.randint(-r, r)) for _ in range(grid.volume))
    return 0, function_to_json(TabulatedFunction(grid, values))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="golombdual",
        description=(
            "Exact best approximation by sums of univariate functions on "
            "finite grids, with minimal-cycle duality certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str, handler: Callable[[argparse.Namespace], tuple[int, dict | None]], help_text: str
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", help="write JSON here instead of stdout")
        p.set_defaults(handler=handler)
        return p

    p = add("error", _cmd_error, "best approximation error, best g, optimal dual measure")
    p.add_argument("--input", required=True,
                   help="function file: CSV (two axes) if named *.csv in any case, else JSON")

    p = add("verify", _cmd_verify, "check error == minimal-cycle supremum")
    p.add_argument("--input", required=True, help="function file, read as for error")
    p.add_argument("--max-support", type=int, default=None)

    p = add("cycles", _cmd_cycles, "enumerate minimal cycles of a grid")
    p.add_argument("--shape", required=True, help="grid shape like 3x3x2")
    p.add_argument("--max-support", type=int, default=None)

    p = add("decompose", _cmd_decompose, "decompose an annihilating measure into minimal cycles")
    p.add_argument("--input", required=True, help="measure JSON file")

    p = add("bolts", _cmd_bolts, "closed-bolt supremum report (two-axis grids)")
    p.add_argument("--input", required=True, help="function file, read as for error")

    p = add("gen", _cmd_gen, "generate a random integer-valued function file")
    p.add_argument("--shape", required=True, help="grid shape like 3x3x2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", type=int, default=10, dest="value_range",
                   help="values are uniform integers in [-range, range]")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse objects refer to each other in cycles; building the parser
    # once leaves no cyclic garbage behind each call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, report = args.handler(args)
        if report is not None:
            text = json.dumps(report, indent=2) + "\n"
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        return code
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
