"""Each request computes each fact about its family once: one coprime basis,
one GF(2) elimination, exponents taken from the basis."""

import sys

import pytest

from sqrat import lattice, poly, rationalize
from sqrat.cli import main
from sqrat.decide import decide_set, scan_trial_outcome
from sqrat.parsing import parse_expr
from sqrat.rationalize import minpoly_multiquadratic
from sqrat.resultants import zp_to_str


def count_calls(monkeypatch, module, name):
    """Calls of module.name, counted through every sqrat module binding it."""
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "sqrat":
            continue
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.fixture
def basis_calls(monkeypatch):
    return count_calls(monkeypatch, poly, "coprime_basis")


@pytest.fixture
def branch_count_calls(monkeypatch):
    return count_calls(monkeypatch, lattice, "branch_count")


@pytest.fixture
def multiplicity_calls(monkeypatch):
    return count_calls(monkeypatch, poly, "multiplicity")


def test_scan_trial(basis_calls):
    outcome = scan_trial_outcome(
        [parse_expr(t) for t in ("x", "4*x+1", "x^2-4*x")])
    assert outcome["genus"] == 1
    assert len(basis_calls) == 1


@pytest.mark.parametrize("argv, genus", [
    (["decide", "x^2-x", "x^2-2*x", "x^2-3*x+2"], 0),
    (["decide", "x", "4*x+1", "x^2-4*x"], 1),
    (["genus", "--root-order", "3", "x*(x-1)*(x-2)"], 1),
])
def test_cli_request(basis_calls, capsys, argv, genus):
    main(argv + ["--json"])
    assert f'"genus": {genus},' in capsys.readouterr().out
    assert len(basis_calls) == 1


FAMILY = ("x", "4*x+1", "x^2-4*x")


def test_decide_set_eliminates_once(branch_count_calls):
    verdict = decide_set([parse_expr(t) for t in FAMILY])
    assert verdict.genus == 1
    assert len(branch_count_calls) == 1


def test_scan_trial_eliminates_once(branch_count_calls):
    scan_trial_outcome([parse_expr(t) for t in FAMILY])
    assert len(branch_count_calls) == 1


def test_no_multiplicity_in_library_paths(multiplicity_calls):
    m = minpoly_multiquadratic([parse_expr("x/(x+1)^3"),
                                parse_expr("(x+2)/(x^2+1)")])
    assert zp_to_str(m.poly) == ("z^4 + (-2*x^3 - 6*x^2 - 4*x - 4)*z^2 "
                                 "+ x^6 + 2*x^5 + x^4 + 4*x^3 + 4*x^2 + 4")
    scan_trial_outcome([parse_expr(t) for t in FAMILY])
    main(["genus", "--root-order", "3", "(x+1)^40*(x-2)^7*(x^2+1)^9"])
    assert multiplicity_calls == []


@pytest.mark.parametrize("command", ["decide", "rationalize"])
def test_one_verification_per_witness(monkeypatch, capsys, command):
    calls = count_calls(monkeypatch, rationalize, "verify_witness")
    assert main([command, "x^2-x", "x^2-2*x", "x^2-3*x+2"]) == 0
    assert "witness: x -> " in capsys.readouterr().out
    assert len(calls) == 1
