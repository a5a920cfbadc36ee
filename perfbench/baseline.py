"""Run every workload at the default and the held-out seed and write
``baseline.json``.

    python3 perfbench/baseline.py

Each run measures for ``run_seconds`` from ``BENCHMARK.json``, as the
benchmark's own runs do.

Prints every end-to-end metric and ``failed_ratio`` by name and unit for all
workloads, then the longest single call from one traced run per workload at
the default seed. The file also holds that run's other per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} calls failed\n{proc.stderr}")
    return result


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    seeds = (bench_inputs.DEFAULT_SEED, bench_inputs.HELD_OUT_SEED)
    out: dict = {
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
        },
        "seconds": seconds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in bench_inputs.WORKLOADS:
        for seed in seeds:
            result = _run(workload, seed, seconds, 0)
            row = out["end_to_end"].setdefault(workload, {})[str(seed)] = {
                name: m["value"] for name, m in result["metrics"].items()
            }
            row["failed_ratio"] = result["failed"] / result["attempted"]
            for name, m in result["metrics"].items():
                print(f"{workload:10s} seed {seed}: {name} = {m['value']:.4f} {m['unit']}", flush=True)
            print(f"{workload:10s} seed {seed}: failed_ratio = {row['failed_ratio']}", flush=True)
        result = _run(workload, seeds[0], seconds, 1)
        out["per_layer"][workload] = {name: m["value"] for name, m in result["metrics"].items()}
        longest = result["metrics"]["cli.main.max_s"]
        print(f"{workload:10s} seed {seeds[0]}: cli.main.max_s = {longest['value']:.4f} {longest['unit']}",
              flush=True)
    path = HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
