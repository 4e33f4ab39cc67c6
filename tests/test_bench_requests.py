"""Smoke test of the benchmark's request path.

``perfbench/worker.py`` serves each generated input through the package's
module attributes (``flow.run``, ``oracle.integrate_second_order``, ...) and
gates it on what they return, so a change to those names or to the
``OracleRun`` fields would otherwise show only in a benchmark run.  Here
the first input of each warm-interpreter workload goes through the
worker's own request and gate functions.
"""

import importlib
import os

import pytest

from solitonforge import cli

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("worker")


@pytest.mark.parametrize("workload, request_fn, gate_fn", [
    ("family", "family_request", "gate_family"),
    ("ricci-flat", "ricci_flat_request", "gate_ricci_flat"),
])
def test_first_input_passes_its_gate(worker, workload, request_fn, gate_fn):
    item = worker.gen.inputs_for(workload, 101)[0]
    spec = cli.parse_config(item["config"], inline=True).spec
    record = getattr(worker, gate_fn)(getattr(worker, request_fn)(spec))
    assert record["reasons"] == []
    assert record["steps"] > 0
