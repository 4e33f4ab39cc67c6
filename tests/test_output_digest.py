"""Smoke test of ``tools/output_digest.py`` on two family inputs, one CLI
command and the edges set."""

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


def test_one_cli_command(output_digest, capsys, monkeypatch):
    """The cli set holds the 33 shipped-config commands; its first, solve
    on bryant_d2, runs in a fresh process, exits 0, writes its profile,
    and hashes the same in a second temporary directory: no path or time
    reaches the digest."""
    fed, feed = [], output_digest._feed
    monkeypatch.setattr(output_digest, "_feed",
                        lambda h, *values: (fed.append(values), feed(h, *values)))
    assert len(output_digest.inputs("cli", 100)) == 33
    assert output_digest.main(["--count", "1", "--per-input", "cli"]) == 0
    (code, out, err), *files = fed
    assert code == 0 and out.startswith(b"solve:") and err == b""
    assert [name for name, _ in files] == ["profile.csv", "profile.json"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    name, value = lines[0].split()
    assert name == "solve:bryant_d2"
    assert lines[1].split()[:3] == ["cli", "1", "inputs"]
    assert re.fullmatch("[0-9a-f]{64}", value)
    assert output_digest.digest(output_digest.inputs("cli", 1)) == lines[1].split()[3]


def test_unknown_set_is_a_usage_error(output_digest):
    with pytest.raises(SystemExit) as exc:
        output_digest.main(["family"])
    assert exc.value.code == 2


def test_edges_set(output_digest, monkeypatch):
    """The edges set, among the defaults, runs r2_d2_3's factors at eps_2 =
    1e-30, whose tail crosses origin_tol on a point of its sample grid,
    through the whole request path; at 1e-165 and 1e-200 Y_2^2 underflows
    at the switch to the tail, and each contributes ZeroY naming
    seed_coeffs[1]."""
    fed, feed = [], output_digest._feed
    monkeypatch.setattr(output_digest, "_feed",
                        lambda h, *values: (fed.append(values), feed(h, *values)))
    assert "edges" in output_digest.DEFAULT_SETS
    items = output_digest.inputs("edges", 1)
    assert [item["id"] for item in items] == [
        "edge-eps2-1e-30", "edge-eps2-1e-165", "edge-eps2-1e-200"]
    runs = []
    for item in items:
        fed.clear()
        output_digest.digest([item])
        runs.append(list(fed))
    whole, *underflows = runs
    assert len(whole) > 1 and not any(isinstance(v[0], str) and v[0] == "raised"
                                      for v in whole)
    for eps, [values] in zip(["1e-165", "1e-200"], underflows):
        raised, name, message = values
        assert (raised, name) == ("raised", "ZeroY")
        assert f"seed_coeffs[1] = {eps} " in message
