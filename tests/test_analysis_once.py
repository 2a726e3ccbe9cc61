"""Each request builds its branch table, hence its coprime basis, once."""

import sys

import pytest

from sqrat import poly
from sqrat.cli import main
from sqrat.decide import scan_trial_outcome
from sqrat.parsing import parse_expr


@pytest.fixture
def basis_calls(monkeypatch):
    """Calls of coprime_basis, counted through every sqrat module binding it."""
    original = poly.coprime_basis
    calls = []

    def counting(fs):
        calls.append(fs)
        return original(fs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "sqrat":
            continue
        if getattr(module, "coprime_basis", None) is original:
            monkeypatch.setattr(module, "coprime_basis", counting)
    return calls


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
