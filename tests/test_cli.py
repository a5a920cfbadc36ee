"""Command-line interface: parsing, exit codes, and report formats."""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import golombdual.bolts as bolts
import golombdual.chebyshev as chebyshev
import golombdual.cli as cli
from golombdual import (
    LpSolution,
    MinimalCycle,
    bolt_from_json,
    closed_bolt_measure,
    function_from_json,
    integrate,
    measure_to_json,
)
from golombdual.cli import main

from conftest import (
    CUBE,
    FIVE_CERT,
    FIVE_POINTS,
    SIX_POINTS,
    corrupt_enumeration,
    corrupt_relations,
    corrupt_term_weights,
    corrupt_walk,
    forbid_cycle_search,
    spread_dual_measure,
)

XY_CSV = "0,0\n0,1\n"

# the package's public names, sorted
PUBLIC_NAMES = [
    "ApproximationResult", "Bolt", "CertificateError", "ClosedBolt", "CycleVectorPair",
    "Decomposition", "FiniteSignedMeasure", "GolombCycle", "GolombReport", "GridPoint",
    "LpProblem", "LpRows", "LpSolution", "MinimalCycle", "ProductGrid", "SeparableSum",
    "TabulatedFunction", "best_error", "bolt_from_json", "bolt_supremum",
    "bolt_to_json", "closed_bolt_measure", "cycle_functional", "cycle_to_closed_bolts",
    "decompose", "enumerate_minimal_cycles", "evaluate", "extract_extreme_cycle",
    "format_rat", "from_golomb_form", "function_from_csv", "function_from_json",
    "function_to_json", "golomb_measure", "incidence_matrix", "integrate", "is_bolt",
    "is_closed_bolt", "is_orthogonal", "kernel_basis", "main", "marginal",
    "matrix_rank", "measure_from_json", "measure_from_pair", "measure_to_json",
    "normalize_minimal", "optimal_witness_from_dual", "pair_from_json", "pair_to_json",
    "parse_rat", "point_index", "report_to_json", "residual", "solve_lp", "sup_norm",
    "tabulate", "to_golomb_form", "total_variation", "verify_golomb",
]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["gen", "--shape", "3x3x2", "--seed", "42", "--range", "10"]
        assert main([*args, "--output", str(a)]) == 0
        assert main([*args, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_schema_and_range(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["gen", "--shape", "2x3", "--seed", "7", "--range", "4",
                     "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["shape"] == [2, 3]
        assert len(obj["values"]) == 6
        f = function_from_json(obj)
        assert all(-4 <= v <= 4 and v.denominator == 1 for v in f.values)

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen", "--shape", "3x3", "--seed", "1", "--output", str(a)])
        main(["gen", "--shape", "3x3", "--seed", "2", "--output", str(b)])
        assert a.read_text() != b.read_text()

    def test_requires_shape(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err != ""

    def test_rejects_bad_shape(self, capsys):
        for shape in ("2x0", "axb", "", "3x-1"):
            code, _, err = run_main(["gen", "--shape", shape], capsys)
            assert code == 2
            assert err != ""

    def test_rejects_negative_range(self, capsys):
        code, out, err = run_main(["gen", "--shape", "2x2", "--range", "-3"], capsys)
        assert (code, out) == (2, "")
        assert "--range" in err


class TestErrorCommand:
    def test_csv_input(self, tmp_path, capsys):
        path = write(tmp_path / "xy.csv", XY_CSV)
        code, out, _ = run_main(["error", "--input", path], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["shape"] == [2, 2]
        assert obj["error"] == "1/4"
        assert obj["optimal_measure"]["atoms"][0] == {
            "point": [0, 0],
            "mass": "1/4",
        }

    def test_csv_suffix_in_any_case(self, tmp_path, capsys):
        lower = run_main(["error", "--input", write(tmp_path / "xy.csv", XY_CSV)], capsys)
        upper = run_main(["error", "--input", write(tmp_path / "XY.CSV", XY_CSV)], capsys)
        assert upper == lower and lower[0] == 0

    def test_json_input(self, tmp_path, capsys):
        path = write(
            tmp_path / "f.json",
            json.dumps({"shape": [2, 2], "values": ["0", "0", "0", "1"]}),
        )
        code, out, _ = run_main(["error", "--input", path], capsys)
        assert code == 0
        assert json.loads(out)["error"] == "1/4"

    def test_separable_reports_zero(self, tmp_path, capsys):
        path = write(tmp_path / "s.csv", "0,1\n1,2\n")
        code, out, _ = run_main(["error", "--input", path], capsys)
        assert code == 0
        assert json.loads(out)["error"] == "0"


class TestVerifyCommand:
    def test_verified_instance_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path / "xy.csv", XY_CSV)
        code, out, _ = run_main(["verify", "--input", path], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["equal"] is True
        assert obj["error"] == "1/4"
        assert obj["cycle_supremum"] == "1/4"
        assert obj["enumerated"] is True
        assert obj["complete"] is True
        assert obj["witness"]["points"] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_missed_witness_exits_one(self, tmp_path, capsys):
        path = write(tmp_path / "xy.csv", XY_CSV)
        code, out, _ = run_main(
            ["verify", "--input", path, "--max-support", "3"], capsys
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["equal"] is False
        assert obj["witness"] is None

    def test_capped_search_reports_incomplete(self, tmp_path, capsys):
        # the seed-31 3x3 witness has 6 points: a cap of 4 misses it, which
        # is a cut search, not a failure of the duality
        path = str(tmp_path / "f.json")
        assert main(["gen", "--shape", "3x3", "--seed", "31", "--output", path]) == 0
        code, out, _ = run_main(["verify", "--input", path, "--max-support", "4"], capsys)
        obj = json.loads(out)
        assert code == 1
        assert (obj["error"], obj["cycle_supremum"]) == ("20/3", "13/2")
        assert (obj["enumerated"], obj["equal"], obj["complete"]) == (True, False, False)
        code, out, _ = run_main(["verify", "--input", path], capsys)
        obj = json.loads(out)
        assert code == 0
        assert (obj["enumerated"], obj["equal"], obj["complete"]) == (True, True, True)

    def test_support_cap_below_two_exits_two(self, tmp_path, capsys):
        # a cap below 2 scans nothing; it must not read as a duality failure
        path = str(tmp_path / "f.json")
        assert main(["gen", "--shape", "3x3", "--seed", "31", "--output", path]) == 0
        for command in ("verify", "cycles"):
            for cap in ("-3", "0", "1"):
                code, out, err = run_main(
                    [command, "--input", path, "--max-support", cap], capsys
                )
                assert (code, out) == (2, "")
                assert "max_support must be at least 2" in err
        code, out, _ = run_main(["verify", "--input", path, "--max-support", "2"], capsys)
        assert code == 1
        assert json.loads(out)["cycle_supremum"] == "0"

    def test_support_cap_below_two_exits_before_the_lp(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "f.json")
        assert main(["gen", "--shape", "12x12", "--seed", "5", "--output", path]) == 0

        def no_lp(f):
            raise AssertionError("the error LP was solved")

        monkeypatch.setattr(chebyshev, "best_error", no_lp)
        code, out, err = run_main(["verify", "--input", path, "--max-support", "1"], capsys)
        assert (code, out) == (2, "")
        assert "max_support must be at least 2" in err

    def test_output_file(self, tmp_path, capsys):
        inp = write(tmp_path / "xy.csv", XY_CSV)
        out_path = tmp_path / "report.json"
        code, out, _ = run_main(
            ["verify", "--input", inp, "--output", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["equal"] is True


class TestCyclesCommand:
    def test_shape_2x2(self, capsys):
        code, out, _ = run_main(["cycles", "--shape", "2x2"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["shape"] == [2, 2]
        assert obj["cycles"] == [
            {
                "points": [[0, 0], [0, 1], [1, 0], [1, 1]],
                "lambda": ["1/4", "-1/4", "-1/4", "1/4"],
            }
        ]

    def test_from_input_grid(self, tmp_path, capsys):
        path = write(tmp_path / "f.csv", "0,0\n0,1\n")
        code, out, _ = run_main(["cycles", "--input", path], capsys)
        assert code == 0
        assert len(json.loads(out)["cycles"]) == 1

    def test_needs_shape_or_input(self, capsys):
        code, _, err = run_main(["cycles"], capsys)
        assert code == 2
        assert err != ""

    def test_shape_and_input_together_are_rejected(self, tmp_path, capsys):
        # the grids disagree, so neither flag may win silently
        path = write(tmp_path / "f.csv", "0,0,0\n0,1,0\n0,0,0\n")
        code, out, err = run_main(["cycles", "--shape", "2x2", "--input", path], capsys)
        assert (code, out) == (2, "")
        assert "exactly one of --shape and --input" in err

    def test_computed_relation_that_fails_its_audit_exits_3(self, capsys, monkeypatch):
        corrupt_enumeration(monkeypatch, cli)
        code, out, err = run_main(["cycles", "--shape", "3x3"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("certificate error: ") and "not a minimal cycle" in err


class TestSearchBudget:
    """cycles runs under verify's candidate budget; a search it cuts short
    exits 1 with a message and writes no report. The budget is lowered to 1
    here: reaching the real 2^20 takes a 6x6 grid."""

    @pytest.mark.parametrize("command", ("cycles",))
    def test_cut_search_exits_one_without_a_report(self, command, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "f.json")
        assert main(["gen", "--shape", "3x3", "--seed", "31", "--output", path]) == 0
        out = tmp_path / "report.json"
        assert main([command, "--input", path, "--output", str(out)]) == 0
        out.unlink()
        monkeypatch.setattr(cli, "DEFAULT_ENUM_BUDGET", 1)
        code, stdout, err = run_main([command, "--input", path, "--output", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == "error: the cycle search exceeded its budget of 1 candidates\n"
        assert not out.exists()


class TestDecomposeCommand:
    def test_six_point_measure(self, tmp_path, capsys):
        from golombdual import CycleVectorPair, measure_from_pair

        pair = CycleVectorPair(CUBE, SIX_POINTS, (3, -1, -1, -2, 2, -1))
        mu = measure_from_pair(pair)
        path = write(tmp_path / "mu.json", json.dumps(measure_to_json(mu)))
        code, out, _ = run_main(["decompose", "--input", path], capsys)
        assert code == 0
        obj = json.loads(out)
        weights = [Fraction(t["weight"]) for t in obj["terms"]]
        assert sum(weights) == 1
        assert all(w > 0 for w in weights)

    def test_point_that_is_not_a_list_is_named(self, tmp_path, capsys):
        payload = {"shape": [2, 2], "atoms": [{"point": 1, "mass": "1"}]}
        path = write(tmp_path / "mu.json", json.dumps(payload))
        code, out, err = run_main(["decompose", "--input", path], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and '"point"' in err

    def test_rejects_non_orthogonal(self, tmp_path, capsys):
        payload = {"shape": [2, 2], "atoms": [{"point": [0, 0], "mass": "1"}]}
        path = write(tmp_path / "mu.json", json.dumps(payload))
        code, _, err = run_main(["decompose", "--input", path], capsys)
        assert code == 2
        assert err != ""

    def test_corrupted_relation_exits_3(self, tmp_path, capsys, monkeypatch):
        from golombdual import CycleVectorPair, measure_from_pair

        corrupt_relations(monkeypatch, "shifted")
        mu = measure_from_pair(CycleVectorPair(CUBE, SIX_POINTS, (3, -1, -1, -2, 2, -1)))
        path = write(tmp_path / "mu.json", json.dumps(measure_to_json(mu)))
        code, out, err = run_main(["decompose", "--input", path], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("certificate error: ")

    def test_corrupted_term_weights_exit_3(self, tmp_path, capsys, monkeypatch):
        from golombdual import CycleVectorPair, measure_from_pair

        # the five-point cycle's weight 2 makes its one step 2 / 2
        corrupt_term_weights(monkeypatch)
        mu = measure_from_pair(CycleVectorPair(CUBE, FIVE_POINTS, FIVE_CERT))
        path = write(tmp_path / "mu.json", json.dumps(measure_to_json(mu)))
        code, out, err = run_main(["decompose", "--input", path], capsys)
        assert (code, out) == (3, "")
        assert err == "certificate error: the decomposition does not recombine to the measure\n"

    @pytest.mark.parametrize("corruption", ["wrong-sign", "flipped"])
    def test_corrupted_walk_exits_3(self, corruption, tmp_path, capsys, monkeypatch):
        # a closed bolt on six points of a 3x3 grid
        corrupt_walk(monkeypatch, corruption)
        atoms = [([0, 0], "1/6"), ([0, 1], "-1/6"), ([1, 1], "1/6"),
                 ([1, 2], "-1/6"), ([2, 0], "-1/6"), ([2, 2], "1/6")]
        payload = {"shape": [3, 3], "atoms": [{"point": p, "mass": m} for p, m in atoms]}
        path = write(tmp_path / "mu.json", json.dumps(payload))
        code, out, err = run_main(["decompose", "--input", path], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("certificate error: ")


class TestBoltsCommand:
    def test_product_table(self, tmp_path, capsys):
        path = write(tmp_path / "xy.csv", XY_CSV)
        code, out, _ = run_main(["bolts", "--input", path], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["error"] == "1/4"
        assert obj["bolt_supremum"] == "1/4"
        assert obj["equal"] is True
        assert obj["witness_bolts"] == [
            {"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]], "closed": True}
        ]

    def test_witness_bolts_of_a_seeded_3x4_table(self, tmp_path, capsys):
        # two six-point cycles attain 25/6 here; the witness is the closed
        # bolt of the LP's dual vertex
        path = str(tmp_path / "f.json")
        assert main(["gen", "--shape", "3x4", "--seed", "17", "--output", path]) == 0
        code, out, _ = run_main(["bolts", "--input", path], capsys)
        assert code == 0
        obj = json.loads(out)
        assert (obj["error"], obj["bolt_supremum"], obj["equal"]) == ("25/6", "25/6", True)
        assert obj["witness_bolts"] == [
            {"vertices": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [2, 1]], "closed": True}
        ]

    def test_answers_past_the_search_budget(self, tmp_path, capsys):
        # a cycle search on 8x8 exceeds verify's 2^20 candidates; bolts runs none
        path = str(tmp_path / "f.json")
        assert main(["gen", "--shape", "8x8", "--seed", "1", "--output", path]) == 0
        code, out, _ = run_main(["bolts", "--input", path], capsys)
        assert code == 0
        obj = json.loads(out)
        assert (obj["error"], obj["bolt_supremum"], obj["equal"]) == ("37/4", "37/4", True)
        (bolt,) = obj["witness_bolts"]
        f = function_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
        assert bolt["closed"] is True
        assert integrate(f, closed_bolt_measure(bolt_from_json(f.grid, bolt))) == Fraction(37, 4)

    def test_searches_no_cycle_and_audits_once(self, tmp_path, capsys, monkeypatch):
        # the report is read off best_error's certificate, whose one audit
        # is the call's only one
        gen = str(tmp_path / "gen.json")
        assert main(["gen", "--shape", "3x4", "--seed", "17", "--output", gen]) == 0
        paths = [write(tmp_path / "xy.csv", XY_CSV), write(tmp_path / "zero.csv", "0,1\n1,2\n"), gen]
        forbid_cycle_search(monkeypatch)
        calls = []
        real = chebyshev._check_certificate

        def counted(f, result):
            calls.append(1)
            real(f, result)

        monkeypatch.setattr(chebyshev, "_check_certificate", counted)
        for path in paths:
            calls.clear()
            code, out, _ = run_main(["bolts", "--input", path], capsys)
            assert (code, json.loads(out)["equal"], len(calls)) == (0, True, 1)

    @pytest.mark.parametrize("corruption", ["spread-measure", "two-bolts", "functional"])
    def test_a_failed_read_out_exits_3(self, corruption, tmp_path, capsys, monkeypatch):
        # the 4x4 identity table; the dual measure is computed, not read
        # from input, so a read-out that fails is a certificate error
        rows = [",".join("1" if x == y else "0" for y in range(4)) for x in range(4)]
        path = write(tmp_path / "f.csv", "\n".join(rows) + "\n")
        if corruption == "spread-measure":
            spread_dual_measure(monkeypatch, bolts)
        elif corruption == "two-bolts":
            split = bolts.cycle_to_closed_bolts
            monkeypatch.setattr(bolts, "cycle_to_closed_bolts", lambda gc: split(gc) * 2)
        else:
            real = bolts.integrate
            monkeypatch.setattr(bolts, "integrate", lambda f, mu: real(f, mu) / 2)
        out = tmp_path / "report.json"
        code, stdout, err = run_main(["bolts", "--input", path, "--output", str(out)], capsys)
        assert (code, stdout) == (3, "")
        message = {"spread-measure": "not minimal", "two-bolts": "too many values to unpack",
                   "functional": "is not the error"}[corruption]
        assert err.startswith("certificate error: ") and message in err
        assert not out.exists()

    def test_takes_no_support_cap(self, tmp_path, capsys):
        # bolts reads its bolt off the LP's certificate and searches no
        # cycle, so there is no search to cap
        path = write(tmp_path / "xy.csv", XY_CSV)
        with pytest.raises(SystemExit) as exc:
            main(["bolts", "--input", path, "--max-support", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-support 3" in captured.err

    def test_rejects_three_axis_input(self, tmp_path, capsys):
        payload = {"shape": [2, 2, 2], "values": ["0"] * 8}
        path = write(tmp_path / "f.json", json.dumps(payload))
        code, _, err = run_main(["bolts", "--input", path], capsys)
        assert code == 2
        assert "bolts are defined on two-axis grids only" in err


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, out, err = run_main(["error", "--input", "/nonexistent/f.csv"], capsys)
        assert code == 2
        assert out == ""
        assert err != ""

    def test_invalid_json(self, tmp_path, capsys):
        path = write(tmp_path / "f.json", "{not json")
        code, _, err = run_main(["error", "--input", path], capsys)
        assert code == 2
        assert err != ""

    def test_wrong_schema(self, tmp_path, capsys):
        path = write(tmp_path / "f.json", json.dumps({"values": ["1"]}))
        code, _, err = run_main(["error", "--input", path], capsys)
        assert code == 2
        assert err != ""

    def test_ragged_csv(self, tmp_path, capsys):
        path = write(tmp_path / "f.csv", "1,2\n3\n")
        code, _, err = run_main(["error", "--input", path], capsys)
        assert code == 2
        assert err != ""

    def test_no_partial_output_on_failure(self, tmp_path, capsys):
        bad = write(tmp_path / "f.json", "{not json")
        out_path = tmp_path / "report.json"
        code, _, _ = run_main(
            ["error", "--input", bad, "--output", str(out_path)], capsys
        )
        assert code == 2
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "index, bad",
        [(0, [0.4, 0]), (1, [0, "1"]), (2, [True, 0]), (3, [1, 1.9])],
        ids=["float", "string", "bool", "float-above"],
    )
    def test_point_coordinates_must_be_integers(self, tmp_path, capsys, index, bad):
        # int() used to coerce each bad point to the one it replaces here,
        # so the file read as the 2x2 square
        points = [[0, 0], [0, 1], [1, 0], [1, 1]]
        points[index] = bad
        masses = ["1/4", "-1/4", "-1/4", "1/4"]
        payload = {"shape": [2, 2], "atoms": [
            {"point": p, "mass": m} for p, m in zip(points, masses)
        ]}
        path = write(tmp_path / "mu.json", json.dumps(payload))
        code, out, err = run_main(["decompose", "--input", path], capsys)
        assert (code, out) == (2, "")
        assert "not an integer" in err

    def test_values_and_atoms_must_be_lists(self, tmp_path, capsys):
        function = write(tmp_path / "f.json", json.dumps({"shape": [2, 2], "values": "0 1 1 0"}))
        measure = write(tmp_path / "mu.json", json.dumps({"shape": [2, 2], "atoms": {}}))
        for command, path, key in (("error", function, "values"), ("decompose", measure, "atoms")):
            code, out, err = run_main([command, "--input", path], capsys)
            assert (code, out) == (2, "")
            assert err == f'error: "{key}" must be a list\n'

    def test_shape_entries_must_not_be_booleans(self, tmp_path, capsys):
        function = write(tmp_path / "f.json", json.dumps({"shape": [True, 2], "values": ["0", "1"]}))
        measure = write(tmp_path / "mu.json", json.dumps({"shape": [True, 2], "atoms": []}))
        for command, path in (("error", function), ("decompose", measure)):
            code, out, err = run_main([command, "--input", path], capsys)
            assert (code, out) == (2, "")
            assert '"shape" must be a list of integers' in err

    def test_values_take_no_exponent(self, tmp_path, capsys):
        path = write(
            tmp_path / "f.json",
            json.dumps({"shape": [2, 2], "values": ["0", "0", "0", "1e3"]}),
        )
        code, out, err = run_main(["error", "--input", path], capsys)
        assert (code, out) == (2, "")
        assert "not a rational" in err

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestCertificateErrors:
    def test_failed_audit_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            chebyshev, "solve_lp", lambda problem: LpSolution("unbounded", (), (), None)
        )
        out = tmp_path / "out.json"
        code, stdout, err = run_main(
            ["error", "--input", write(tmp_path / "xy.csv", XY_CSV), "--output", str(out)],
            capsys,
        )
        assert code == 3
        assert stdout == ""
        assert err.startswith("certificate error: the error LP ended unbounded")
        assert not out.exists()


class TestConsoleScript:
    def test_end_to_end_pipeline(self, tmp_path):
        gen = subprocess.run(
            [sys.executable, "-m", "golombdual.cli", "gen", "--shape", "3x3",
             "--seed", "5", "--range", "6", "--output", str(tmp_path / "f.json")],
            capture_output=True,
            text=True,
        )
        assert gen.returncode == 0
        verify = subprocess.run(
            [sys.executable, "-m", "golombdual.cli", "verify", "--input",
             str(tmp_path / "f.json")],
            capture_output=True,
            text=True,
        )
        assert verify.returncode == 0
        assert json.loads(verify.stdout)["equal"] is True

    def test_module_entry_point_writes_nothing_to_stderr(self):
        done = subprocess.run(
            [sys.executable, "-m", "golombdual.cli", "gen", "--shape", "2x2", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert json.loads(done.stdout)["shape"] == [2, 2]

    def test_module_entry_point_under_warnings_as_errors(self, capsys):
        # running golombdual.cli as a module must not find it imported by
        # its own package, which runpy would warn about
        argv = ["gen", "--shape", "2x2", "--seed", "1"]
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "golombdual.cli", *argv],
            capture_output=True,
        )
        assert done.returncode == 0
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out.encode()

    def test_public_names_resolve(self):
        import golombdual

        for name in golombdual.__all__:
            assert getattr(golombdual, name) is not None
        assert golombdual.main is golombdual.cli.main
        assert not hasattr(golombdual, "RunConfig") and not hasattr(golombdual, "run")

    def test_public_names(self):
        # __all__ is read off the package's imports; it must stay these names,
        # none private and none a module
        import golombdual

        assert golombdual.__all__ == PUBLIC_NAMES
        for name in golombdual.__all__:
            assert not name.startswith("_")
            assert not isinstance(getattr(golombdual, name), types.ModuleType)

    def test_reingesting_emitted_function_is_identity(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert main(["gen", "--shape", "2x2x2", "--seed", "11",
                     "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        f = function_from_json(obj)
        from golombdual import function_to_json

        assert function_to_json(f) == obj


class TestNoCyclicGarbage:
    def test_warm_call_leaves_no_argparse_objects_in_cycles(self, tmp_path):
        # each call used to build a parser whose ~290 objects refer to each
        # other and waited for a full collection; the json encoder's own
        # closures (33 objects per indented dump before Python 3.13) remain
        argv = ["gen", "--shape", "3x3", "--seed", "1", "--output", str(tmp_path / "f.json")]
        assert main(argv) == 0
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            collected = gc.collect()
            kinds = {type(o).__module__ for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert "argparse" not in kinds
        assert collected <= 40


class TestReadme:
    def test_python_api_tour(self):
        # run the README's Python tour as printed and check the values its
        # comments state
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        tour = text[text.index("## Python API") :]
        tour = tour[tour.index("```python\n") + len("```python\n") :]
        ns: dict = {}
        exec(tour[: tour.index("```")], ns)
        assert ns["result"].error == Fraction(1, 4)
        assert ns["report"].equal is True
        assert isinstance(ns["report"].witness, MinimalCycle)
        two_part = ns["gc"]
        assert (two_part.b_part, two_part.c_part) == (((0, 0), (1, 1)), ((0, 1), (1, 0)))
        pair = ns["from_golomb_form"](two_part)
        assert pair.points == two_part.b_part + two_part.c_part
        assert pair.weights == (1, 1, -1, -1)
        assert all(w.denominator == 1 for w in pair.weights)
