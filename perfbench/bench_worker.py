"""One pass of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. The parent takes
``--t0`` from ``time.monotonic()`` just before starting this process, so
``setup_s`` covers interpreter start, ``import golombdual`` and generating
and writing the inputs. The pass then calls ``golombdual.cli.main`` once per
instance, each call starting after the previous one returned, and times each
call alone. After set-up and after each call, outside the timed regions, it
runs a fixed probe kernel for a share of the call's time, which tells the
parent how fast the machine ran meanwhile.
It prints one JSON object on stdout; outputs are checked by the parent,
outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from itertools import combinations
from pathlib import Path

PROBE_SHARE = 0.15  # probe time after each call, as a share of the call's time
PROBE_MIN_S = 0.1

_rng = random.Random(12345)
_PROBE_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(13)] for _ in range(12)]
_PROBE_POINTS = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]


def _probe_once() -> None:
    # exact elimination, like the simplex's pivots
    for _ in range(2):
        m = [row[:] for row in _PROBE_MATRIX]
        for c in range(12):
            p = next(i for i in range(c, 12) if m[i][c] != 0)
            m[c], m[p] = m[p], m[c]
            for i in range(12):
                if i != c and m[i][c]:
                    f = m[i][c] / m[c][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    # class counting over point subsets, like the cycle enumeration's prune
    for combo in combinations(_PROBE_POINTS, 4):
        for axis in range(3):
            counts: dict[int, int] = {}
            for point in combo:
                counts[point[axis]] = counts.get(point[axis], 0) + 1


def probe(seconds: float) -> tuple[int, float]:
    """Run a fixed kernel of the benchmark's own until ``seconds`` have
    passed; returns (runs, elapsed seconds).

    Program changes cannot move it; what moves it is the machine's speed at
    that moment. The collector is off so that the program's heap size does
    not leak into the figure.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        runs = 0
        while True:
            _probe_once()
            runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return runs, elapsed
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", help="output directory; omit to only set up")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    from golombdual import cli

    import bench_inputs

    inputs = Path(args.work) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    instances = bench_inputs.instances(args.workload, args.seed)
    for inst in instances:
        (inputs / inst.input_name).write_text(json.dumps(inst.input_obj), encoding="utf-8")
    setup_s = time.monotonic() - args.t0
    setup_probe = probe(PROBE_MIN_S)
    if args.out is None:
        print(json.dumps({"setup_s": setup_s, "setup_probe": setup_probe}))
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import bench_spans

        tracer = bench_spans.Tracer()
        tracer.install()
    calls = []
    probes = [setup_probe]
    try:
        for index, inst in enumerate(instances):
            argv = inst.argv(str(inputs / inst.input_name), str(out / inst.input_name))
            if tracer is not None:
                tracer.instance = index
            error = None
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # an audit that fails raises; count it and go on
                rc = None
                error = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
            calls.append({"name": inst.name, "rc": rc, "seconds": seconds, "error": error})
            probes.append(probe(max(PROBE_MIN_S, PROBE_SHARE * seconds)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "probes": probes,
        "calls": calls,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = bench_spans.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
