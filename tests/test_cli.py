"""Command line behavior: exit codes, JSON schema, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import sqrat
from conftest import DEEP_INPUT_IDS, DEEP_INPUTS
from sqrat import cli
from sqrat.cli import main

SCHEMA = json.loads(
    (Path(sqrat.__file__).parent / "schema" / "report.schema.json")
    .read_text(encoding="utf-8"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report, err


class TestDecideCommand:
    def test_negative_family(self, capsys):
        code, report, _ = run_json(
            capsys, ["decide", "x", "4*x+1", "x^2-4*x"])
        assert code == 1
        assert report["verdict"] == "not_rationalizable"
        assert report["genus"] == 1
        assert report["subset_criterion"] is False
        assert report["failing_subset"] == [1, 2]

    def test_positive_family_with_witness(self, capsys):
        code, report, _ = run_json(capsys, ["decide", "x-1", "x-2"])
        assert code == 0
        assert report["verdict"] == "rationalizable"
        assert report["witness"] is not None
        assert len(report["witness"]["roots"]) == 2

    def test_no_input_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["decide"])
        assert code == 2 and "error" in err

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, ["decide", "x^^1"])
        assert code == 2 and "error" in err

    def test_single_higher_root(self, capsys, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("root[3]: x*(x-1)*(x-2)\n")
        code, report, _ = run_json(capsys, ["decide", "--file", str(path)])
        assert code == 1
        assert report["verdict"] == "not_rationalizable"
        assert report["root_order"] == 3

    @pytest.mark.parametrize("lines, code, failing", [
        ([f"x-{k}" for k in range(21)], 1, [0, 1, 2]),
        ([f"{(k + 1) ** 2}*(x-{k % 2})" for k in range(21)], 0, None),
        ([f"{(k + 1) ** 2}*(x-{k % 3})" for k in range(200)], 1, [0, 1, 2]),
    ], ids=["21-shifts", "21-passing", "200-failing"])
    def test_any_family_size_gets_an_answer(self, capsys, tmp_path, lines,
                                            code, failing):
        path = tmp_path / "family.txt"
        path.write_text("\n".join(lines) + "\n")
        got, report, _ = run_json(capsys, ["decide", "--file", str(path)])
        assert got == code
        assert report["subset_criterion"] is (failing is None)
        assert report["failing_subset"] == failing

    def test_set_of_higher_roots_rejected(self, capsys, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("root[3]: x\nroot[3]: x-1\n")
        code, _, err = run(capsys, ["decide", "--file", str(path)])
        assert code == 2 and "square roots only" in err


class TestGenusCommand:
    def test_multiquadratic(self, capsys):
        code, report, _ = run_json(
            capsys, ["genus", "x^2-x", "x^2-2*x", "x^2-3*x+2"])
        assert code == 0
        assert (report["genus"], report["rank"], report["branch_count"]) == \
            (0, 2, 3)

    def test_cyclic(self, capsys):
        code, report, _ = run_json(
            capsys, ["genus", "--root-order", "3", "x*(x-1)*(x-2)"])
        assert code == 0 and report["genus"] == 1 and report["root_order"] == 3

    def test_constant(self, capsys):
        code, report, _ = run_json(capsys, ["genus", "5"])
        assert code == 0 and report["genus"] == 0 and report["rank"] == 0

    def test_root_order_needs_single_radicand(self, capsys):
        code, _, err = run(capsys,
                           ["genus", "--root-order", "3", "x", "x-1"])
        assert code == 2

    @pytest.mark.parametrize("order", ["1", "0", "-2"])
    def test_root_order_below_two_is_usage_error(self, capsys, order):
        code, out, err = run(capsys, ["genus", "--root-order", order, "x"])
        assert (code, out) == (2, "")
        assert err == "error: root order must be an integer >= 2\n"


class TestMinpolyCommand:
    def test_reduce_reproduces_degree_eight(self, capsys):
        code, report, _ = run_json(
            capsys, ["minpoly", "--reduce", "x", "4*x+1", "x^2-4*x"])
        assert code == 0
        assert report["generators"] == ["x", "4*x + 1", "x - 4"]
        assert report["minpoly"] == (
            "z^8 + (-24*x + 12)*z^6 + (144*x^2 - 72*x + 86)*z^4 + "
            "(-256*x^3 + 96*x^2 + 88*x + 300)*z^2 + "
            "1296*x^2 + 1800*x + 625")

    def test_quartic(self, capsys):
        code, report, _ = run_json(capsys, ["minpoly", "x^2-x", "x^2-2*x"])
        assert code == 0
        assert report["minpoly"] == "z^4 + (-4*x^2 + 6*x)*z^2 + x^2"

    def test_generators_are_the_polynomials_used(self, capsys):
        # sqrt(1/x) = sqrt(x)/x: the minimal polynomial z^2 - x belongs to
        # the generator x of the same square class
        code, out, _ = run(capsys, ["minpoly", "1/x", "(x+1)/4", "1/(2*x-2)"])
        assert code == 0
        assert out.splitlines()[0] == "generators: x, 1/4*x + 1/4, 1/2*x - 1/2"
        code, report, _ = run_json(capsys, ["minpoly", "1/x"])
        assert report["generators"] == ["x"]
        assert report["minpoly"] == "z^2 - x"

    def test_dependent_generators_exit_2(self, capsys):
        code, _, err = run(capsys, ["minpoly", "x", "x*(x-1)^2"])
        assert code == 2 and "dependent" in err


class TestRationalizeCommand:
    def test_witness_found(self, capsys):
        code, report, _ = run_json(capsys, ["rationalize", "x", "1-x"])
        assert code == 0 and report["accepted"]

    def test_unknown(self, capsys):
        code, report, _ = run_json(capsys, ["rationalize", "x", "x-1", "x-2"])
        assert code == 1 and report["witness"] is None

    def test_constant_defect_flag(self, capsys):
        code, report, _ = run_json(capsys, ["rationalize", "5", "x"])
        assert code == 1 and not report["accepted"]
        code, report, _ = run_json(
            capsys, ["rationalize", "5", "x", "--allow-constant-defect"])
        assert code == 0 and report["accepted"]


class TestScanCommand:
    def test_small_scan(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, report, _ = run_json(
            capsys, ["scan", "--seed", "1", "--trials", "5", "--max-m", "2"])
        assert code == 0
        scan = report["scan"]
        assert scan["trials"] == 5
        assert scan["agreements"] + scan["disagreement_count"] == 5

    def test_more_than_twenty_radicands(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, report, _ = run_json(
            capsys, ["scan", "--seed", "3", "--trials", "5", "--max-m", "25"])
        assert code == 0
        assert report["scan"]["agreements"] == 5

    def test_invalid_trials(self, capsys):
        code, _, err = run(capsys, ["scan", "--trials", "0"])
        assert code == 2 and "trials" in err


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        argvs = [
            ["decide", "x", "4*x+1", "x^2-4*x", "--json"],
            ["genus", "x^2-x", "x^2-2*x", "--json"],
            ["minpoly", "--reduce", "x", "4*x+1", "x^2-4*x", "--json"],
            ["scan", "--seed", "3", "--trials", "10", "--json"],
        ]
        for argv in argvs:
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            second = capsys.readouterr().out
            assert first == second

    def test_file_and_positional_agree(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("# family\nx\n4*x+1\nx^2-4*x\n")
        _, from_file, _ = run_json(capsys, ["decide", "--file", str(path)])
        _, from_args, _ = run_json(capsys,
                                   ["decide", "x", "4*x+1", "x^2-4*x"])
        for key in ("verdict", "genus", "rank", "branch_count",
                    "failing_subset"):
            assert from_file[key] == from_args[key]


class TestRobustInput:
    @pytest.mark.parametrize("text", [text for text, _ in DEEP_INPUTS],
                             ids=DEEP_INPUT_IDS)
    def test_deep_nesting_exits_2(self, capsys, text):
        code, out, err = run(capsys, ["decide", "--", text])
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["decide", "genus", "minpoly",
                                         "rationalize"])
    def test_file_not_utf8_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "r.txt"
        path.write_bytes(b"x-1\r\n# caf\xc3\xa9\nx\n\xff\xfe\n")
        code, out, err = run(capsys, [command, "--file", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 at byte 15\n"


REPEATED = [
    ["decide", "x", "4*x+1", "x^2-4*x"],
    ["decide", "x^2-x", "x^2-2*x", "x^2-3*x+2", "--json"],
    ["genus", "x^3-x", "--root-order", "3", "--json"],
    ["minpoly", "x", "x-1"],
    ["rationalize", "x^2+1"],
    ["rationalize", "--json", "--", "-(x^2+1)"],
    ["decide", "x + + 1"],
    ["decide"],
]


def test_main_reused_in_one_process(capsys):
    """Many main() calls in one process print what fresh processes print."""
    env = dict(os.environ, PYTHONPATH=str(Path(sqrat.__file__).parents[1]))
    fresh = []
    for argv in REPEATED:
        proc = subprocess.run([sys.executable, "-m", "sqrat.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert {code for code, _, _ in fresh} == {0, 1, 2}
    for _ in range(3):
        for argv, expected in zip(REPEATED, fresh):
            assert run(capsys, argv) == expected



def _raise(error):
    def broken(*args, **kwargs):
        raise error
    return broken


class TestInternalErrors:
    @pytest.mark.parametrize("error", [
        RuntimeError("coprime basis reconstruction failed"),
        RecursionError("maximum recursion depth exceeded"),
        MemoryError("out of memory"),
    ])
    @pytest.mark.parametrize("argv", [
        ["decide", "x", "x+1"],
        ["genus", "x^3-x"],
        ["minpoly", "x", "x+1"],
        ["scan", "--trials", "1"],
    ])
    def test_exit_2_with_message(self, capsys, monkeypatch, argv, error):
        for stage in ("build_branch_table", "minpoly_multiquadratic",
                      "conjecture_scan"):
            monkeypatch.setattr(cli, stage, _raise(error))
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"internal error: {type(error).__name__}: {error}\n"

    @pytest.mark.parametrize("argv", [
        ["decide", "x", "x+1", "--debug"],
        ["scan", "--trials", "1", "--debug"],
    ])
    def test_debug_reraises(self, monkeypatch, argv):
        monkeypatch.setattr(cli, "build_branch_table",
                            _raise(RuntimeError("invariant broken")))
        monkeypatch.setattr(cli, "conjecture_scan",
                            _raise(RuntimeError("invariant broken")))
        with pytest.raises(RuntimeError, match="invariant broken"):
            main(argv)
