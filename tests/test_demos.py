"""Smoke test of the scheme-budget demo, the one demo fast enough for tier-1."""

import runpy
from pathlib import Path

from biphoton.schemes import SCHEMES

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_scheme_budgets_demo(capsys):
    runpy.run_path(str(DEMOS / "scheme_budgets.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["scheme", "final", "rate", "(1/s)"]
    assert [line.split()[0] for line in lines[1:1 + len(SCHEMES)]] == list(SCHEMES)
    assert "sequential scheme, step by step:" in lines
