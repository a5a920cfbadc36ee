"""Seeded end-to-end and per-layer benchmark of the golombdual CLI.

    python3 perfbench/run.py --workload error-2d --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it finds the sources at ``src/``
next to this directory. Each pass of the workload runs in a fresh
interpreter (``bench_worker.py``), so the program's in-process caches start
empty, as they do for every CLI user. Passes repeat, one after the other,
while the next one is expected to end within ``--seconds``; at least one
pass runs (two with ``--trace 1``). Call times are rescaled to reference
machine speed by a probe kernel the worker runs between calls (see
``to_reference``). Every report is checked exactly by ``bench_check.py``
after its pass, against frozen answers in ``expected.json`` where the seed
has them.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402

SETUP_ONLY_RUNS = 5  # extra set-ups per run, so setup_s is a median of several
HARD_LIMIT_S = 170  # stop starting work so the run ends within 180 s
# Seconds per run of the probe kernel (bench_worker._probe_once) at
# reference speed: a fixed constant, about the kernel's time on the baseline
# machine when the host is quiet. wall_s and setup_s are seconds at that speed.
PROBE_REF_S = 0.02

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith((".yield", ".per_cycle", "overhead_ratio")):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(work: Path, args: argparse.Namespace, deadline: float, out: Path | None = None,
           traced: bool = False) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before the pass could start")
    cmd = [
        sys.executable, str(HERE / "bench_worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
        "--work", str(work),
    ]
    if out is not None:
        cmd += ["--out", str(out)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def _rate(probes: list[list[float]]) -> float:
    """Seconds per probe-kernel run over the given (runs, seconds) probes."""
    return sum(t for _, t in probes) / sum(n for n, _ in probes)


def to_reference(seconds: float, result: dict) -> float:
    """Seconds measured in a pass, rescaled to reference machine speed.

    After each call the worker ran the probe kernel for a fixed share of
    that call's time, so the probes sample the pass in proportion to the
    calls' lengths. A slow minute on a shared host slows the probe and the
    calls alike and cancels out. The probe runs none of the program's code.
    """
    return seconds * PROBE_REF_S / _rate(result["probes"])


def reference_wall_s(result: dict) -> float:
    return to_reference(sum(c["seconds"] for c in result["calls"]), result)


def reference_slowest_s(result: dict) -> float:
    return to_reference(max(c["seconds"] for c in result["calls"]), result)


def reference_setup_s(result: dict) -> float:
    return result["setup_s"] * PROBE_REF_S / _rate([result["setup_probe"]])


def _check_pass(instances, outdir: Path, result: dict, reference: dict[str, bytes],
                verdicts: dict, expected: dict, args: argparse.Namespace) -> dict[str, str]:
    """Instance name -> problem, for every call of one pass that failed."""
    errors = expected["error"].get(str(args.seed), {}).get(args.workload, {})
    problems = {}
    for inst, call in zip(instances, result["calls"]):
        path = outdir / inst.input_name
        if call["rc"] != 0:
            problems[inst.name] = f"exit code {call['rc']} {call['error'] or ''}".rstrip()
        elif not path.is_file():
            problems[inst.name] = "no report written"
        elif reference.setdefault(inst.name, path.read_bytes()) != path.read_bytes():
            problems[inst.name] = "report differs from the first pass's bytes"
        else:
            if inst.name not in verdicts:
                try:
                    report = json.loads(reference[inst.name])
                except json.JSONDecodeError as exc:
                    verdicts[inst.name] = f"report is not JSON: {exc}"
                else:
                    shape = bench_inputs.shape_text(tuple(inst.input_obj["shape"]))
                    verdicts[inst.name] = bench_check.check(
                        inst.command, inst.input_obj, report,
                        expected_error=errors.get(inst.name),
                        expected_cycles=expected["cycles_examined"].get(shape)
                        if inst.command == "verify" else None,
                    )
            if verdicts[inst.name] is not None:
                problems[inst.name] = verdicts[inst.name]
    return problems


def measure(args: argparse.Namespace, work: Path) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    instances = bench_inputs.instances(args.workload, args.seed)

    setups = [_spawn(work, args, deadline) for _ in range(SETUP_ONLY_RUNS)]
    passes: list[tuple[bool, dict]] = []
    reference: dict[str, bytes] = {}
    verdicts: dict[str, str | None] = {}
    attempted = failed = 0
    start = time.monotonic()
    while True:
        traced = args.trace and len(passes) % 2 == 1
        outdir = work / f"pass-{len(passes)}"
        result = _spawn(work, args, deadline, outdir, traced)
        passes.append((traced, result))
        setups.append(result)
        problems = _check_pass(instances, outdir, result, reference, verdicts, expected, args)
        attempted += len(instances)
        failed += len(problems)
        for name, problem in problems.items():
            print(f"FAIL pass {len(passes) - 1} {name}: {problem}", file=sys.stderr)
        shutil.rmtree(outdir)
        elapsed = time.monotonic() - start
        if args.trace and len(passes) < 2:
            continue
        if elapsed + result["elapsed_s"] > args.seconds:
            break

    plain = [r for t, r in passes if not t]
    walls = [reference_wall_s(r) for r in plain]
    metrics: dict[str, float] = {}
    if not args.trace:
        metrics = {
            "wall_s": median(walls),
            "setup_s": median(reference_setup_s(r) for r in setups),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in plain),
        }
        units = END_TO_END_UNITS
    else:
        traced_runs = [r for t, r in passes if t]
        for name in traced_runs[0]["layers"]:
            pick = median if name.endswith("_s") else median_low  # counts repeat exactly
            metrics[name] = pick(r["layers"][name] for r in traced_runs)
        # the longest call, from the untraced passes: the wait a user feels
        metrics["cli.main.max_s"] = median(reference_slowest_s(r) for r in plain)
        traced_walls = [reference_wall_s(r) for r in traced_runs]
        metrics["trace.overhead_ratio"] = median(traced_walls) / median(walls)
        units = {name: layer_unit(name) for name in metrics}
    raw = median(sum(c["seconds"] for c in r["calls"]) for r in plain)
    raw_slowest = median(max(c["seconds"] for c in r["calls"]) for r in plain)
    probe = _rate([p for _, r in passes for p in r["probes"]])
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(instances)} calls, {failed} of {attempted} calls failed "
          f"(failed_ratio {failed / attempted}); measured wall {raw} s, "
          f"measured slowest call {raw_slowest} s, "
          f"probe kernel {probe} s per run against {PROBE_REF_S} s at reference speed")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=bench_inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "golombdual" / "cli.py").is_file():
        print(f"perfbench: no golombdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
