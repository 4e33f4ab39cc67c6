"""Tests of the benchmark's own machinery.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _texts(workload, seed):
    return [(item["id"], item["config"]) for item in gen.inputs_for(workload, seed)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs_across_processes(workload):
    """Byte-identical config files from one seed, even under a different
    hash seed in another interpreter."""
    script = (f"import json, sys; sys.path.insert(0, {BENCH!r}); import gen; "
              f"print(json.dumps(gen.inputs_for({workload!r}, 7)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    other = [(item["id"], item["config"]) for item in json.loads(out)]
    assert other == _texts(workload, 7)
    assert _texts(workload, 7) == _texts(workload, 7)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    assert _texts(workload, 1) != _texts(workload, 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generated_configs_parse(workload):
    from solitonforge import cli

    for _, text in _texts(workload, 3)[:40]:
        cli.parse_config(text, inline=True)


def test_family_groups_share_factor_spec_and_eps0():
    inputs = gen.family_inputs(5)
    for k in range(0, len(inputs), gen.GROUP_SIZE):
        group = [json.loads(item["config"]) for item in inputs[k:k + gen.GROUP_SIZE]]
        assert all(g["factors"] == group[0]["factors"] for g in group)
        if len(group[0]["factors"]) > 1:
            assert len({g["seed_coeffs"][0] for g in group}) == 1
            assert len({g["seed_coeffs"][1] for g in group}) == gen.GROUP_SIZE


def test_names_match_the_allowed_pattern():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(run.WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_tail_keeps_ten_samples_beyond():
    values = list(range(50))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == 80
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |     440000 |   scipy.integrate",
        "import time:      2000 |       3000 |     solitonforge.flow",
        "import time:      5000 |     600000 | solitonforge",
    ])
    assert run.parse_importtime(text) == pytest.approx((0.44, 0.007))


def test_tracer_restores_module_attributes():
    import worker
    from solitonforge import flow, phase

    originals = (flow.run, phase.rhs)
    tracer = worker.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.request_scope("r", "request", lambda: 1 / 0) as wrapped:
            assert flow.run is not originals[0]
            wrapped()
    assert (flow.run, phase.rhs) == originals
    assert tracer.spans[0][0] == "request"


def test_end_to_end_scales_times_and_counts_only_passed_requests():
    def rec(seconds, sample, reasons=()):
        return {"seconds": seconds, "speed_s": sample, "passed": not reasons,
                "reasons": list(reasons)}

    ref = run.speed.REFERENCE_S
    result = {"records": [rec(1.0, 2 * ref), rec(3.0, ref / 2, ["check:x"]),
                          rec(2.0, ref, ["raised:X"])],
              "elapsed_s": 6.0, "maxrss_kb": 2048}
    metrics = run.end_to_end(result, [(0.5, ref), (1.4, 2 * ref), (0.6, ref)])
    # scaled times 0.5, 6.0 and 2.0: the raised request keeps its time
    assert metrics["request_p50_s"][0] == pytest.approx(2.0)
    # one passed request in 6 s, scaled by measured/scaled time
    assert metrics["requests_per_s"][0] == pytest.approx(1 / 6.0 * 6.0 / 8.5)
    assert metrics["setup_s"][0] == pytest.approx(0.6)
    assert metrics["peak_rss_mb"][0] == 2.0


def test_per_layer_aggregates_do_not_grow_with_request_count():
    def rec(dev, failed_checks):
        return {"seconds": 1.0, "untraced": {"seconds": 0.9},
                "layers": {"request": 0.1, "flow.run": 0.9}, "counts": {},
                "oracle": {"g": dev, "g_dot": 0.0, "u_dot": 0.0}, "drift": dev,
                "min_headroom": 1.0 - dev, "checks_failed": failed_checks}

    few = [rec(0.1 * k, k % 2) for k in range(10)]
    many = few * 5 + [rec(0.95, 1)]
    for records in (few, many):
        out = run.per_layer({"records": records}, (0.4, 0.03))
        assert out["oracle.max_dev"][0] < 0.95
        assert out["verify.checks_failed"][0] == pytest.approx(0.5, abs=0.01)
        assert out["trace.unattributed_frac"][0] == pytest.approx(0.1)
        assert out["trace.overhead_frac"][0] == pytest.approx(1 / 0.9 - 1)


def test_defect_probe_lies_outside_the_family_domain():
    lo, hi = gen.FAMILY_EPS0
    for item in gen.family_inputs(4):
        assert lo <= abs(json.loads(item["config"])["seed_coeffs"][0]) <= hi
    probe = gen.defect_probe_inputs()
    assert probe == gen.defect_probe_inputs()
    for item in probe:
        assert not lo <= abs(json.loads(item["config"])["seed_coeffs"][0]) <= hi


def test_gate_cli_classifies_exits_and_missing_outputs(tmp_path):
    import worker

    assert worker.gate_cli(2, str(tmp_path))["reasons"] == ["raised:exit2"]
    assert worker.gate_cli(0, str(tmp_path))["reasons"] == ["crashed:outputs:FileNotFoundError"]
    assert worker.gate_cli(-9, str(tmp_path))["reasons"][0] == "crashed:exit-9"
