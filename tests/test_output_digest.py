"""Smoke test of ``tools/output_digest.py`` on two family inputs."""

import importlib
import os
import re

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture
def output_digest(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("output_digest")


def test_two_family_inputs(output_digest, capsys):
    """One line per input and one for the set, each a SHA-256; the two
    inputs hash differently, and a second run gives the same digest."""
    assert output_digest.main(["--count", "2", "--per-input", "family:101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    items = output_digest.inputs("family:101", 2)
    assert len(lines) == 3
    digests = []
    for line, item in zip(lines, items):
        name, value = line.split()
        assert name == item["id"]
        digests.append(value)
    name, count, _, value = lines[2].split()
    assert (name, count) == ("family:101", "2")
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests + [value])
    assert digests[0] != digests[1]
    assert output_digest.digest(items) == value


def test_unknown_set_is_a_usage_error(output_digest):
    with pytest.raises(SystemExit) as exc:
        output_digest.main(["family"])
    assert exc.value.code == 2
