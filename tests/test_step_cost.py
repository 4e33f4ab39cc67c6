"""Smoke test of ``tools/step_cost.py`` at three repeats."""

import importlib
import os

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture
def step_cost(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("step_cost")


def test_one_line_per_n(step_cost, capsys):
    """A header, then one line for each n = 1..7: n and two positive
    medians, µs per operator build and per step."""
    assert step_cost.main(["3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "operators_us", "step_us"]
    assert [int(row.split()[0]) for row in rows] == list(range(1, 8))
    for row in rows:
        _, build, step = row.split()
        assert 0 < float(build) and 0 < float(step)


@pytest.mark.parametrize("argv", [["x"], ["0"], ["3", "4"]])
def test_bad_repeat_count_is_a_usage_error(step_cost, argv):
    with pytest.raises(SystemExit) as exc:
        step_cost.main(argv)
    assert exc.value.code == 2
