"""Tests of the benchmark's own parts: the exact checker, input generation,
span bookkeeping and the binding patcher. Run with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402
import bench_spans  # noqa: E402
import run  # noqa: E402
from bench_spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from golombdual import cli  # noqa: E402


def _report(tmp_path: Path, command: str, input_obj: dict) -> dict:
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(input_obj))
    assert cli.main([command, "--input", str(src), "--output", str(out)]) == 0
    return json.loads(out.read_text())


def _rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


F33 = bench_inputs.gen_function((3, 3), 5)
F222 = bench_inputs.gen_function((2, 2, 2), 3)
MU = bench_inputs.gen_measure((4, 4), 11, 8)


class TestChecker:
    def test_accepts_real_reports(self, tmp_path):
        for command, obj in (("error", F33), ("verify", F222), ("bolts", F33), ("decompose", MU)):
            assert bench_check.check(command, obj, _report(tmp_path, command, obj)) is None

    def test_error_off_by_a_thousandth(self, tmp_path):
        report = _report(tmp_path, "error", F33)
        report["error"] = _rat(Fraction(report["error"]) + Fraction(1, 1000))
        assert bench_check.check("error", F33, report) is not None

    def test_one_atom_sign_flipped(self, tmp_path):
        report = _report(tmp_path, "error", F33)
        atom = report["optimal_measure"]["atoms"][0]
        atom["mass"] = _rat(-Fraction(atom["mass"]))
        assert "annihilate" in bench_check.check("error", F33, report)

    def test_decomposition_weights_not_summing_to_one(self, tmp_path):
        report = _report(tmp_path, "decompose", MU)
        term = report["terms"][0]
        term["weight"] = _rat(Fraction(term["weight"]) * 2)
        assert bench_check.check("decompose", MU, report) is not None

    def test_verify_not_equal(self, tmp_path):
        report = _report(tmp_path, "verify", F222)
        report["equal"] = False
        assert "equal" in bench_check.check("verify", F222, report)

    def test_bolt_not_closed(self, tmp_path):
        report = _report(tmp_path, "bolts", F33)
        vertices = report["witness_bolts"][0]["vertices"]
        vertices.append(vertices[0])
        assert bench_check.check("bolts", F33, report) is not None

    def test_frozen_answers_compared(self, tmp_path):
        report = _report(tmp_path, "verify", F222)
        error, cycles = report["error"], report["cycles_examined"]
        assert bench_check.check("verify", F222, report, error, cycles) is None
        assert bench_check.check("verify", F222, report, error + "1", cycles) is not None
        assert bench_check.check("verify", F222, report, error, cycles + 1) is not None

    def test_does_not_import_golombdual(self):
        code = "import sys, bench_check; print('golombdual' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestInputs:
    def test_deterministic_per_seed(self):
        for workload in bench_inputs.WORKLOADS:
            assert bench_inputs.instances(workload, 3) == bench_inputs.instances(workload, 3)

    def test_seeds_differ(self):
        for workload in bench_inputs.WORKLOADS:
            a = [i.input_obj for i in bench_inputs.instances(workload, 3)]
            b = [i.input_obj for i in bench_inputs.instances(workload, 4)]
            assert all(x != y for x, y in zip(a, b))

    def test_functions_follow_gen(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        cli.main(["gen", "--shape", "5x4x3", "--seed", "42", "--range", "1000000", "--output", str(out)])
        assert json.loads(out.read_text()) == bench_inputs.gen_function((5, 4, 3), 42, 10**6)

    def test_measures_annihilate_with_unit_mass(self):
        for inst in bench_inputs.instances("decompose", 2):
            shape = tuple(inst.input_obj["shape"])
            masses = bench_check.measure_masses(shape, inst.input_obj)
            assert 50 <= len(masses) <= 90
            assert bench_check.annihilates(shape, masses)
            assert bench_check.total_variation(masses) == 1


class TestSpans:
    def test_self_time_on_nested_tree(self):
        spans = [
            Span("a", 0.0, 10.0, -1, 0),
            Span("b", 1.0, 4.0, 0, 0),
            Span("c", 2.0, 3.0, 1, 0),
            Span("d", 5.0, 9.0, 0, 0),
            Span("e", 10.0, 11.0, -1, 1),
        ]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])

    def test_cache_hits_are_enumerations_without_kernel_calls(self):
        spans = [
            Span("cycles._enumerate", 0.0, 5.0, -1, 0, {"candidates": 10, "found": 2}),
            Span("linalg.kernel_basis", 1.0, 2.0, 0, 0),
            Span("linalg.kernel_basis", 2.0, 3.0, 0, 0),
            Span("linalg.kernel_basis", 3.0, 4.0, 0, 0),
            Span("cycles._enumerate", 6.0, 7.0, -1, 1, {"candidates": 10, "found": 2}),
        ]
        m = layer_metrics(spans)
        assert m["cycles._enumerate.calls"] == 2
        assert m["cycles._enumerate.cache_hits"] == 1
        assert m["cycles._enumerate.candidates"] == 10
        assert m["cycles._enumerate.yield"] == 0.2
        assert m["linalg.kernel_basis.per_cycle"] == 1.5
        assert m["cycles._enumerate.self_s"] == pytest.approx(2.0 + 1.0)

    def test_wrappers_restore_every_binding(self):
        def bindings():
            return {
                (name, attr): value
                for name, module in sys.modules.items()
                if name == "golombdual" or name.startswith("golombdual.")
                for attr, value in vars(module).items()
                if callable(value)
            }

        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            during = bindings()
            assert during[("golombdual.chebyshev", "solve_lp")] is not before[("golombdual.chebyshev", "solve_lp")]
            assert during[("golombdual.linalg", "_check_optimum")] is not before[("golombdual.linalg", "_check_optimum")]
        finally:
            tracer.uninstall()
        after = bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_traced_call_is_byte_identical(self, tmp_path):
        src = tmp_path / "f.json"
        src.write_text(json.dumps(F33))
        cli.main(["error", "--input", str(src), "--output", str(tmp_path / "plain.json")])
        tracer = Tracer()
        tracer.install()
        try:
            cli.main(["error", "--input", str(src), "--output", str(tmp_path / "traced.json")])
        finally:
            tracer.uninstall()
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
        m = layer_metrics(tracer.spans)
        assert m["cli.main.calls"] == m["chebyshev.best_error.calls"] == m["linalg.solve_lp.calls"] == 1
        assert m["linalg.solve_lp.rows_max"] == 18
        assert m["cycles._enumerate.calls"] == 0
        assert set(m) == {f"{n}.{k}" for n in bench_spans.TRACED for k in ("calls", "total_s", "self_s")} | set(bench_spans.DERIVED)


def test_reference_speed_rescales_by_probe_rate():
    # the probe kernel ran at half the reference speed, so did the calls
    ref = run.PROBE_REF_S
    result = {"calls": [{"seconds": 1.0}, {"seconds": 4.0}],
              "probes": [[10, 20 * ref], [5, 10 * ref], [20, 40 * ref]]}
    assert run.reference_wall_s(result) == pytest.approx(2.5)
    assert run.reference_slowest_s(result) == pytest.approx(2.0)
    assert run.reference_setup_s({"setup_s": 0.2, "setup_probe": [3, 6 * ref]}) == pytest.approx(0.1)


def test_benchmark_json_matches_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layers = [f"{n}.{k}" for n in bench_spans.TRACED for k in ("calls", "total_s", "self_s")]
    layers += [*bench_spans.DERIVED, "cli.main.max_s", "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {n: run.layer_unit(n) for n in layers}
    assert [w["name"] for w in bench["workloads"]] == list(bench_inputs.WORKLOADS)
