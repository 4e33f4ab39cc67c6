"""Smoke test of ``tools/paired_requests.py``: the checkout against itself
on three family inputs."""

import importlib
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture
def paired_requests(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("paired_requests")


def test_checkout_against_itself(paired_requests, capsys):
    """Three inputs, one round: a header, each side's median of best
    times, and the change's difference and win count; the two copies of
    the package leave no module behind."""
    assert paired_requests.main([SRC, SRC, "--count", "3", "--rounds", "1"]) == 0
    header, base, change, summary = capsys.readouterr().out.splitlines()
    assert header == "family: 3 inputs, 1 rounds, median of best times"
    for line, side in ((base, "base"), (change, "change")):
        name, seconds, unit = line.split()
        assert (name, unit) == (side, "s") and float(seconds) > 0
    words = summary.split()
    assert words[0] == "change" and words[1].endswith("%,")
    assert words[2:4] == ["faster", "on"] and words[5:] == ["of", "3", "inputs"]
    assert 0 <= int(words[4]) <= 3
    assert not [m for m in sys.modules if m.startswith("solitonforge_")]


def test_sides_are_separate_packages(paired_requests, tmp_path, monkeypatch):
    """Each side is its own copy of the package, imported under its own
    name, with its own modules and classes."""
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        loaded = [paired_requests.load(SRC, f"solitonforge_{side}", str(tmp_path))
                  for side in paired_requests.SIDES]
        (base_cli, _, base_error), (change_cli, _, change_error) = loaded
        assert base_cli.__name__ == "solitonforge_base.cli"
        assert change_cli.__name__ == "solitonforge_change.cli"
        assert base_error is not change_error
        assert (sys.modules["solitonforge_base.radau"]
                is not sys.modules["solitonforge_change.radau"])
    finally:
        for name in [m for m in sys.modules if m.startswith("solitonforge_")]:
            del sys.modules[name]


@pytest.mark.parametrize("argv", [[SRC], [SRC, SRC, "--count", "0"],
                                  [SRC, SRC, "--rounds", "0"],
                                  [SRC, SRC, "--workload", "cli-verify"],
                                  [SRC, TOOLS]])
def test_bad_arguments_are_a_usage_error(paired_requests, argv):
    with pytest.raises(SystemExit) as exc:
        paired_requests.main(argv)
    assert exc.value.code == 2
