"""Regenerate ``expected.json``, the frozen answers the benchmark checks.

    python3 perfbench/freeze.py

For the default and the held-out seed it runs every ``error``, ``verify``
and ``bolts`` instance through ``golombdual.cli.main`` in-process, requires
each report to pass ``bench_check``, and records the error of each instance
and ``cycles_examined`` of each ``verify`` shape. Decompositions are not
frozen: an equally valid LP vertex may give another one.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402
from golombdual import cli  # noqa: E402


def main() -> int:
    errors: dict[str, dict[str, dict[str, str]]] = {}
    cycles: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (bench_inputs.DEFAULT_SEED, bench_inputs.HELD_OUT_SEED):
            for workload in ("error-2d", "error-3d", "certify"):
                answers = errors.setdefault(str(seed), {}).setdefault(workload, {})
                for inst in bench_inputs.instances(workload, seed):
                    src, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
                    src.write_text(json.dumps(inst.input_obj), encoding="utf-8")
                    if cli.main(inst.argv(str(src), str(out))) != 0:
                        raise SystemExit(f"{workload} {inst.name}: nonzero exit")
                    report = json.loads(out.read_text(encoding="utf-8"))
                    problem = bench_check.check(inst.command, inst.input_obj, report)
                    if problem:
                        raise SystemExit(f"{workload} {inst.name}: {problem}")
                    answers[inst.name] = report["error"]
                    if inst.command == "verify":
                        shape = bench_inputs.shape_text(tuple(inst.input_obj["shape"]))
                        if cycles.setdefault(shape, report["cycles_examined"]) != report["cycles_examined"]:
                            raise SystemExit(f"{shape}: cycles_examined differs between instances")
                    print(f"seed {seed} {inst.name}: error {report['error']}", flush=True)
    path = HERE / "expected.json"
    path.write_text(json.dumps({"cycles_examined": cycles, "error": errors}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
