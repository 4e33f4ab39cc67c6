"""Benchmark runner for solitonforge.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):
    cli-verify  one fresh `solitonforge verify` process per request
    family      warm interpreter: flow -> reconstruct -> curvature -> verify
                -> oracle on generated soliton sweep points
    ricci-flat  warm interpreter: flow -> reconstruct -> Ricci components
                (+ oracle, recorded only) on generated Ricci-flat specs

The runner measures set-up (fresh-interpreter `import solitonforge`),
serves the workload for --seconds in a closed loop with one client, gates
every request, and prints one line per metric followed, as the last line,
by a JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from a run that serves each input traced and untraced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import gen
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-verify", "family", "ricci-flat")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 120.0   # one CLI request, or one fresh import


END_TO_END = {
    "setup_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.scipy_integrate_s": "s",
    "import.solitonforge_self_s": "s",
    "cli.parse_config_s": "s",
    "cli.export_s": "s",
    "cli.export_bytes": "bytes",
    "flow.run_s": "s",
    "flow.steps": "count",
    "flow.samples": "count",
    "phase.rhs_calls": "count",
    "phase.jac_calls": "count",
    "phase.rhs_s": "s",
    "reconstruct.build_profile_s": "s",
    "geometry.sectional_curvatures_s": "s",
    "geometry.ricci_components_s": "s",
    "verify.run_suite_s": "s",
    "oracle.run_s": "s",
    "oracle.max_dev": "1",
    "oracle.conservation_drift": "1",
    "oracle.u_dot_dev": "1",
    "verify.checks_failed": "count",
    "verify.min_headroom": "1",
    "failed_frac": "1",
    "family.defect_probe_failed": "count",
    "trace.overhead_frac": "1",
    "trace.unattributed_frac": "1",
}
# span name -> per-layer self-time metric
LAYER_TIMES = {
    "cli.parse_config": "cli.parse_config_s",
    "cli.export": "cli.export_s",
    "flow.run": "flow.run_s",
    "phase.rhs": "phase.rhs_s",
    "reconstruct.build_profile": "reconstruct.build_profile_s",
    "geometry.sectional_curvatures": "geometry.sectional_curvatures_s",
    "geometry.ricci_components": "geometry.ricci_components_s",
    "verify.run_suite": "verify.run_suite_s",
    "oracle.run": "oracle.run_s",
}
# the span around a whole request: its self time is attributed to no layer
ROOT_SPANS = ("request", "cli.main")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --------------------------------------------------------------------------
# child processes


def run_child(argv, env, timeout, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run a child to completion: (exit code, wall seconds, ru_maxrss in KiB).

    The wall time ends when the child exits, before it is reaped, so the
    bookkeeping below is not timed.  A watchdog kills a child that is
    still running after `timeout` seconds.
    """
    lock = threading.Lock()
    done = [False]
    start = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)

    def kill():
        with lock:
            if not done[0]:  # not yet reaped, so the pid is still this child
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        seconds = perf_counter() - start
    except BaseException:
        proc.kill()
        raise
    finally:
        with lock:
            done[0] = True
        timer.cancel()
        timer.join()
        if proc.returncode is None:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------------------
# set-up


# Appended to the code of every fresh child: a speed.py sample taken in the
# child after its work, reported on stderr with the time the epilogue took,
# which the runner subtracts from the child's wall time.
SPEED_EPILOGUE = (
    "import time as _t; _t0 = _t.perf_counter(); import sys as _s; "
    f"_s.path.insert(0, {HERE!r}); import speed as _sp; _v = _sp.sample(); "
    "_s.stderr.write('\\nperfbench-speed %r %r\\n' % (_v, _t.perf_counter() - _t0))"
)


def run_sampled(code: str, args: list, env: dict, stderr_path: str, finish: str = "pass"):
    """Run `python -c "code; epilogue; finish" args`: (exit code, wall
    seconds without the epilogue, ru_maxrss KiB, speed sample).  The sample
    is None when the child died before its epilogue."""
    with open(stderr_path, "w") as err:
        exit_code, wall, rss = run_child(
            [sys.executable, "-c", f"{code}; {SPEED_EPILOGUE}; {finish}", *args],
            env, CHILD_TIMEOUT_S, stderr=err)
    with open(stderr_path) as fh:
        marks = [line.split() for line in fh if line.startswith("perfbench-speed ")]
    if not marks:
        return exit_code, wall, rss, None
    return exit_code, wall - float(marks[-1][2]), rss, float(marks[-1][1])


def measure_setup(env: dict, workdir: str) -> list[tuple[float, float]]:
    """(wall seconds, speed sample) of fresh `import solitonforge` processes.

    One untimed import first compiles bytecode and warms the file cache,
    which a user pays once, not on every run.
    """
    out = []
    for k in range(SETUP_REPEATS + 1):
        code, seconds, _, sample = run_sampled(
            "import solitonforge", [], env, os.path.join(workdir, "setup-stderr.txt"))
        if code != 0 or sample is None:
            raise BenchError(f"`import solitonforge` exited with {code}")
        if k:
            out.append((seconds, sample))
    return out


def parse_importtime(text: str) -> tuple[float, float]:
    """(scipy.integrate cumulative s, sum of solitonforge self s)."""
    scipy_us, self_us = 0, 0
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if not m:
            continue
        own, cumulative, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "scipy.integrate":
            scipy_us = cumulative
        if name == "solitonforge" or name.startswith("solitonforge."):
            self_us += own
    return scipy_us * 1e-6, self_us * 1e-6


def measure_importtime(env: dict) -> tuple[float, float]:
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import solitonforge"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(parse_importtime(proc.stderr))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


# --------------------------------------------------------------------------
# serving


def serve_cli(inputs, workdir, env, seconds):
    """cli-verify, untraced: one fresh CLI process per request.

    Outputs are gated after the timed window, so reading them back does
    not count against throughput.
    """
    # the console script's body, with the exit deferred past the epilogue
    shim = "import sys; from solitonforge.cli import main; _code = main()"
    pending = []
    start = perf_counter()
    k = 0
    while perf_counter() - start < seconds:
        item = inputs[k % len(inputs)]
        request_id = f"{k:04d}-{item['id']}"
        out_dir = os.path.join(workdir, "out", request_id)
        config = os.path.join(workdir, "configs", f"{item['id']}.json")
        pending.append((request_id, out_dir, *run_sampled(
            shim, ["verify", "--config", config, "--out", out_dir], env,
            os.path.join(workdir, f"stderr-{request_id}.txt"), finish="sys.exit(_code)")))
        k += 1
    elapsed = perf_counter() - start

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import worker  # imports the package; only after the timed window

    records, peak = [], 0
    for request_id, out_dir, code, wall, rss, sample in pending:
        rec = {"id": request_id, "seconds": wall, "speed_s": sample,
               **worker.gate_cli(code, out_dir)}
        if sample is None:
            rec["reasons"].append("crashed:no_speed_sample")
        rec["passed"] = not rec["reasons"]
        records.append(rec)
        peak = max(peak, rss)
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"records": records, "elapsed_s": elapsed, "maxrss_kb": peak, "spans": []}


def serve_worker(workload, workdir, env, seconds, trace):
    """Warm-interpreter workloads, and the traced cli-verify run."""
    result_path = os.path.join(workdir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--inputs", os.path.join(workdir, "inputs.json"),
            "--seconds", repr(seconds), "--trace", str(int(trace)),
            "--workdir", workdir, "--result", result_path]
    with open(os.path.join(workdir, "worker-stderr.txt"), "w") as err:
        code, _, rss = run_child(argv, env, seconds + CHILD_TIMEOUT_S, stderr=err)
    if code != 0:
        with open(os.path.join(workdir, "worker-stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker exited with {code}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["maxrss_kb"] = rss  # the worker's own peak, from wait4
    return result


# --------------------------------------------------------------------------
# metrics


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, but never below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), 50
    return xs[n - TAIL_BEYOND - 1], math.floor(100 * (n - TAIL_BEYOND) / n)


def timed(records):
    """Requests with a wall time and a speed sample: every request that
    ran, including those that failed the gate or raised."""
    return [r for r in records if r["seconds"] is not None and r.get("speed_s") is not None]


def end_to_end(result, setup):
    """End-to-end metrics in reference-host seconds (see speed.py).

    Every request and set-up import carries a speed.py sample taken in the
    process that did the work, just before (worker) or just after (fresh
    processes) it; its time is scaled by that sample, and the throughput
    by the time-weighted mean of the requests' factors.  Throughput counts
    passed requests only, over the time spent on all of them.
    """
    records = result["records"]
    done = timed(records)
    if not done:
        raise BenchError("no request ran to completion")
    raw = [r["seconds"] for r in done]
    times = [speed.scaled(r["seconds"], r["speed_s"]) for r in done]
    setups = [speed.scaled(t, sample) for t, sample in setup]
    passed = sum(r["passed"] for r in records)
    rate = passed / result["elapsed_s"]
    tail_s, tail_pct = tail(times)
    samples = [r["speed_s"] for r in done]
    return {
        "setup_s": (statistics.median(setups), len(setups),
                    f"fresh imports, measured {statistics.median(t for t, _ in setup):.4f} s"),
        "request_p50_s": (statistics.median(times), len(done),
                          f"measured {statistics.median(raw):.4f} s"),
        "request_tail_s": (tail_s, len(done), f"p{tail_pct}"),
        "requests_per_s": (rate * sum(raw) / sum(times), passed,
                           f"passed requests, measured {rate:.4f}/s over "
                           f"{result['elapsed_s']:.2f} s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, 1, "ru_maxrss of the serving process"),
        "host.speed_sample_s": (statistics.median(samples), len(samples),
                                f"median speed.py sample, reference {speed.REFERENCE_S} s"),
    }


def _median_of(records, key):
    vals = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(vals) if vals else 0.0


def percentile(values, pct):
    """The pct-th percentile (a multiple of 10) of values; 0 when empty.
    Unlike a maximum, it does not grow with the number of requests."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[pct // 10 - 1]


def per_layer(result, importtime):
    """Traced run: per-request medians of layer self times and counts; the
    check outcomes as per-request rates and percentiles.

    A layer that a workload never calls reports 0.
    """
    records = result["records"]
    traced = [r for r in records if r.get("layers") is not None]
    pairs = [r for r in traced if r["seconds"] and r["untraced"]["seconds"]]
    out = {name: (0.0, len(traced), "") for name in PER_LAYER}
    out["import.scipy_integrate_s"] = (importtime[0], IMPORTTIME_REPEATS, "python -X importtime")
    out["import.solitonforge_self_s"] = (importtime[1], IMPORTTIME_REPEATS, "python -X importtime")
    for span, metric in LAYER_TIMES.items():
        vals = [r["layers"].get(span, 0.0) for r in traced]
        out[metric] = (statistics.median(vals) if vals else 0.0, len(vals), "self time")
    for metric, key in (("flow.steps", "steps"), ("flow.samples", "samples"),
                        ("cli.export_bytes", "export_bytes")):
        out[metric] = (_median_of(traced, key), len(traced), "")
    for metric, key in (("phase.rhs_calls", "phase.rhs"), ("phase.jac_calls", "phase.jac")):
        vals = [r["counts"].get(key, 0) for r in traced]
        out[metric] = (statistics.median(vals) if vals else 0.0, len(vals), "")
    devs = [max(r["oracle"].values()) for r in traced if r.get("oracle")]
    u_dot = [r["oracle"]["u_dot"] for r in traced if r.get("oracle")]
    drifts = [r["drift"] for r in traced if r.get("drift") is not None]
    rooms = [r["min_headroom"] for r in traced if r.get("min_headroom") is not None]
    out["oracle.max_dev"] = (percentile(devs, 90), len(devs), "p90 over requests")
    out["oracle.u_dot_dev"] = (percentile(u_dot, 90), len(u_dot), "p90 over requests")
    out["oracle.conservation_drift"] = (percentile(drifts, 90), len(drifts), "p90 over requests")
    out["verify.min_headroom"] = (percentile(rooms, 10), len(rooms), "p10 over requests")
    failed_checks = [r.get("checks_failed") or 0 for r in traced]
    out["verify.checks_failed"] = (statistics.mean(failed_checks) if failed_checks else 0.0,
                                   len(traced), "mean per request")
    probe = result.get("defect_probe", [])
    out["family.defect_probe_failed"] = (
        sum(not r["passed"] for r in probe), len(probe),
        "known failing specs, served after the timed loop")
    if pairs:
        traced_p50 = statistics.median(r["seconds"] for r in pairs)
        untraced_p50 = statistics.median(r["untraced"]["seconds"] for r in pairs)
        layer_sum = statistics.median(
            sum(v for k, v in r["layers"].items() if k in LAYER_TIMES) for r in pairs)
        root = statistics.median(
            sum(v for k, v in r["layers"].items() if k in ROOT_SPANS) / r["seconds"]
            for r in pairs)
        out["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, len(pairs),
                                      f"untraced p50 {untraced_p50:.4f} s")
        out["trace.unattributed_frac"] = (
            root, len(pairs),
            f"layer self times sum to {layer_sum / untraced_p50:.4f} of the untraced p50")
    return out


def write_trace(root, workload, seed, result):
    """Spans as [name, start, end, parent index, request id], one file per run."""
    path = os.path.join(".perfbench_runs", f"trace-{workload}-seed{seed}.json")
    with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request"],
                   "spans": result["spans"]}, fh)
    return path


# --------------------------------------------------------------------------


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "solitonforge", "__init__.py")):
        raise BenchError("src/solitonforge not found; run from the root of a checkout")
    env = child_env(root)
    workdir = os.path.join(root, ".perfbench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "configs"))
    try:
        inputs = gen.inputs_for(args.workload, args.seed)
        for item in inputs:
            with open(os.path.join(workdir, "configs", f"{item['id']}.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(item["config"])
        with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)

        if args.trace:
            importtime = measure_importtime(env)
            result = serve_worker(args.workload, workdir, env, args.seconds, True)
            metrics = per_layer(result, importtime)
            print(f"trace: {write_trace(root, args.workload, args.seed, result)}")
        else:
            setup = measure_setup(env, workdir)
            if args.workload == "cli-verify":
                result = serve_cli(inputs, workdir, env, args.seconds)
            else:
                result = serve_worker(args.workload, workdir, env, args.seconds, False)
            metrics = end_to_end(result, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failed = [r for r in records if not r["passed"]]
    for r in failed:
        print(f"failed request {r['id']}: {', '.join(r['reasons'])} {r.get('error', '')}")
    for r in result.get("defect_probe", []):
        print(f"defect probe {r['id']}: {', '.join(r['reasons']) or 'passed'}")
    # printed on every run; a JSON metric only in the traced run, since it
    # is 0 on a healthy run
    metrics["failed_frac"] = (len(failed) / len(records), len(records),
                              f"{len(failed)} failed")
    for name, (value, count, note) in metrics.items():
        unit = PER_LAYER.get(name) or END_TO_END.get(name, "s")
        print(f"{name} = {value:.6g} {unit} (n={count}{', ' + note if note else ''})")
    units = PER_LAYER if args.trace else END_TO_END
    # Every request must pass its gate: the workloads hold only inputs on
    # which the seed commit passes.  Family's known failing corners are
    # served apart, as the traced run's defect probe (gen.DEFECT_PROBE).
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items() if name in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="solitonforge benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, so run_child kills its child on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
