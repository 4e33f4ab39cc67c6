"""The serving interpreter of the solitonforge benchmark.

``run.py`` starts this script once per warm-interpreter run.  It imports
the package (untimed), then serves the generated inputs one at a time,
each request only after the previous one has completed (a closed loop
with one client), until the run's time is up.  Every request is checked
by the workload's correctness gate; a request that raises or breaks the
gate is counted as failed and kept in the record.

With ``--trace 1`` every input is served twice, once traced and once
untraced, in alternating order.  Tracing replaces the module attributes
through which the package's layers call each other (``flow.run``,
``reconstruct.build_profile``, ``phase.rhs``, ...) by wrappers that record
one span per call; ``phase.rhs`` and ``phase.rhs_jacobian`` are only
counted and timed, because a request makes about 10^4 of them.  The
traced family run then serves gen.DEFECT_PROBE, the known failing specs,
once each and untraced.

Usage (normally only from run.py):
    python3 perfbench/worker.py --workload family --inputs inputs.json \
        --seconds 30 --trace 0 --workdir DIR --result result.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import gen
import speed
from solitonforge import cli, flow, geometry, oracle, phase, reconstruct, verify
from solitonforge.errors import SolitonForgeError

ORACLE_TOL = 1e-6
DRIFT_TOL = 1e-8
# criterion 09 of the acceptance suite: what Ricci-flat mode claims
RICCI_FLAT_LIMITS = {"L": 1e-8, "H_minus_1": 1e-8, "ricci": 1e-6, "u_dot": 1e-12}

# (module, attribute, span name); several attributes may share a span name
SPANNED = (
    (cli, "parse_config", "cli.parse_config"),
    (cli, "export_profile_csv", "cli.export"),
    (cli, "export_plot_series", "cli.export"),
    (cli, "_write_json", "cli.export"),
    (flow, "run", "flow.run"),
    (reconstruct, "build_profile", "reconstruct.build_profile"),
    (geometry, "sectional_curvatures", "geometry.sectional_curvatures"),
    (geometry, "ricci_components", "geometry.ricci_components"),
    (verify, "run_suite", "verify.run_suite"),
    (oracle, "init_from_profile", "oracle.run"),
    (oracle, "integrate_second_order", "oracle.run"),
    (oracle, "compare_profiles", "oracle.run"),
)
COUNTED = (
    (phase, "rhs", "phase.rhs"),
    (phase, "rhs_jacobian", "phase.jac"),
)
PHASE_LAYER = "phase.rhs"


class Tracer:
    """In-memory spans: [name, start, end, parent index, request id].

    Counted calls (phase.rhs / phase.rhs_jacobian) add their time to the
    enclosing span's child time, so that span's self time excludes them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.child_s: list[float] = []
        self.stack: list[int] = []
        self.request = None
        self.counted: dict[str, list] = {}  # name -> [calls, seconds]

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            rec = [name, 0.0, 0.0, parent, self.request]
            self.spans.append(rec)
            self.child_s.append(0.0)
            self.stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                rec[1], rec[2] = start, end
                if parent is not None:
                    self.child_s[parent] += end - start
        return wrapper

    def _counter(self, cell, fn):
        # about 10^4 calls per request: keep the wrapper to locals
        stack, child_s = self.stack, self.child_s

        def wrapper(*args):
            start = perf_counter()
            out = fn(*args)
            dt = perf_counter() - start
            cell[0] += 1
            cell[1] += dt
            if stack:
                child_s[stack[-1]] += dt
            return out
        return wrapper

    @contextmanager
    def request_scope(self, request_id, root_name, fn):
        """Install the wrappers for one request; yields the wrapped root."""
        self.request = request_id
        self.counted = {name: [0, 0.0] for _, _, name in COUNTED}
        saved = []
        try:
            for module, attr, name in SPANNED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._span(name, getattr(module, attr)))
            for module, attr, name in COUNTED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._counter(self.counted[name], getattr(module, attr)))
            yield self._span(root_name, fn)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call_counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.counted.items()}

    def layer_self_times(self, first: int) -> dict[str, float]:
        """Self time per span name for the spans recorded since `first`."""
        out = {PHASE_LAYER: sum(cell[1] for cell in self.counted.values())}
        for k in range(first, len(self.spans)):
            name, start, end = self.spans[k][:3]
            out[name] = out.get(name, 0.0) + (end - start) - self.child_s[k]
        return out


# --------------------------------------------------------------------------
# requests and their correctness gates


def _oracle(spec, profile):
    t0 = 10.0 * float(profile.t[0])  # as cmd_oracle
    state = oracle.init_from_profile(profile, t0)
    run = oracle.integrate_second_order(
        state, spec, t_end=min(100.0 * t0, float(profile.t[-1])))
    return oracle.compare_profiles(profile, run), run.conservation_drift()


def family_request(spec):
    traj = flow.run(spec)
    profile = reconstruct.build_profile(traj, spec)
    curv = geometry.sectional_curvatures(profile, spec)
    report = verify.run_suite(traj, profile, curv, spec)
    devs, drift = _oracle(spec, profile)
    return traj, report, devs, drift


def ricci_flat_request(spec):
    traj = flow.run(spec)
    profile = reconstruct.build_profile(traj, spec)
    ric = geometry.ricci_components(profile, spec)
    devs, drift = _oracle(spec, profile)
    return traj, profile, ric, devs, drift


def cli_request(config_path, out_dir):
    return cli.main(["verify", "--config", config_path, "--out", out_dir])


def headroom(measured: float, tolerance: float) -> float:
    return 1.0 - measured / tolerance


def gate_family(outputs) -> dict:
    traj, report, devs, drift = outputs
    reasons = [f"check:{c.name}" for c in report.checks if not c.passed]
    for field, dev in devs.items():
        if not dev <= ORACLE_TOL:
            reasons.append(f"oracle:{field}")
    if not drift <= DRIFT_TOL:
        reasons.append("oracle:conservation_drift")
    rooms = [headroom(c.measured, c.tolerance) for c in report.checks
             if c.tolerance > 0 and math.isfinite(c.measured)]
    return {
        "reasons": reasons,
        "steps": traj.n_steps,
        "samples": int(traj.s.size),
        "checks_failed": sum(not c.passed for c in report.checks),
        "min_headroom": min(rooms) if rooms else None,
        "oracle": devs,
        "drift": drift,
    }


def gate_ricci_flat(outputs) -> dict:
    traj, profile, (ric_tt, ric_factor), devs, drift = outputs
    measured = {
        "L": float(np.abs(traj.L).max()),
        "H_minus_1": float(np.abs(traj.H - 1.0).max()),
        "ricci": float(max(np.abs(ric_tt).max(), np.abs(ric_factor).max())),
        "u_dot": float(np.abs(profile.u_dot).max()),
    }
    failed = [k for k, tol in RICCI_FLAT_LIMITS.items() if not measured[k] <= tol]
    return {
        "reasons": [f"criterion09:{k}" for k in failed],
        "steps": traj.n_steps,
        "samples": int(traj.s.size),
        "checks_failed": len(failed),
        "min_headroom": min(headroom(measured[k], tol)
                            for k, tol in RICCI_FLAT_LIMITS.items()),
        # recorded, not gated: see the README on the u_dot artefact
        "oracle": devs,
        "drift": drift,
    }


def gate_cli(exit_code: int, out_dir: str) -> dict:
    """Gate one `solitonforge verify` run by the files it wrote.

    Exit 1 is a failed verification and exit 2 the package's own error
    report; any other nonzero exit, or missing outputs, is a crash.
    """
    if exit_code == 2:
        return {"reasons": ["raised:exit2"], "export_bytes": 0}
    reasons = {0: [], 1: ["exit:1"]}.get(exit_code, [f"crashed:exit{exit_code}"])
    out = {"reasons": reasons, "export_bytes": 0}
    try:
        with open(os.path.join(out_dir, "verify_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        with open(os.path.join(out_dir, "profile.json"), encoding="utf-8") as fh:
            n_steps = json.load(fh)["n_steps"]
        _, columns = cli.read_profile_csv(os.path.join(out_dir, "profile.csv"))
        rows = len(columns["s"])
        checks = report["checks"]
        rooms = [headroom(c["measured"], c["tolerance"]) for c in checks
                 if c["tolerance"] > 0 and math.isfinite(c["measured"])]
        failed_checks = sum(not c["passed"] for c in checks)
    except (OSError, ValueError, LookupError, TypeError, SolitonForgeError) as exc:
        reasons.append(f"crashed:outputs:{type(exc).__name__}")
        return out
    if report.get("passed") is not True:
        reasons.append("report:not_passed")
    if rows != n_steps + 1:
        reasons.append("csv:row_count")
    out.update(
        steps=n_steps,
        samples=rows,
        checks_failed=failed_checks,
        min_headroom=min(rooms) if rooms else None,
        export_bytes=sum(e.stat().st_size for e in os.scandir(out_dir)),
    )
    return out


# --------------------------------------------------------------------------
# serving loop


def _timed(rec: dict, fn, *args):
    """fn(*args), with its wall time in rec["seconds"] even if it raises."""
    start = perf_counter()
    try:
        return fn(*args)
    finally:
        rec["seconds"] = perf_counter() - start


class Server:
    def __init__(self, workload: str, workdir: str, tracer: Tracer):
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer

    def prepare(self, item: dict):
        """Untimed per-input preparation: the spec, or a config path."""
        if self.workload == "cli-verify":
            return os.path.join(self.workdir, "configs", f"{item['id']}.json")
        return cli.parse_config(item["config"], inline=True).spec

    def serve(self, request_id: str, arg, traced: bool) -> dict:
        """One timed request plus its gate; never raises.  A request that
        raises keeps its wall time up to the raise."""
        if self.workload == "cli-verify":
            fn, gate, root = cli_request, None, "cli.main"
            out_dir = os.path.join(self.workdir, "out", request_id)
            args = (arg, out_dir)
        else:
            fn = family_request if self.workload == "family" else ricci_flat_request
            gate = gate_family if self.workload == "family" else gate_ricci_flat
            root, args = "request", (arg,)
        rec = {"id": request_id, "seconds": None}
        try:
            if traced:
                first = len(self.tracer.spans)
                with self.tracer.request_scope(request_id, root, fn) as wrapped:
                    outputs = _timed(rec, wrapped, *args)
                rec["layers"] = self.tracer.layer_self_times(first)
                rec["counts"] = self.tracer.call_counts()
            else:
                outputs = _timed(rec, fn, *args)
            if gate is None:
                rec.update(gate_cli(outputs, out_dir))
            else:
                rec.update(gate(outputs))
        except SolitonForgeError as exc:  # the package's own failure report
            rec["reasons"] = [f"raised:{type(exc).__name__}"]
            rec["error"] = str(exc)
        except Exception as exc:  # a crash: recorded, and the run is incorrect
            rec["reasons"] = [f"crashed:{type(exc).__name__}"]
            rec["error"] = "".join(traceback.format_exception_only(exc)).strip()
        finally:
            if self.workload == "cli-verify":
                shutil.rmtree(os.path.join(self.workdir, "out", request_id),
                              ignore_errors=True)
        rec["passed"] = not rec["reasons"]
        return rec


def serve_loop(server: Server, inputs: list[dict], seconds: float, trace: bool):
    """Serve until `seconds` have passed: (records, serving seconds).
    Untraced runs sample the speed.py loop just before each request
    (`speed_s`); serving seconds exclude those samples."""
    records, samples = [], []
    speed.sample()  # the first call pays scipy's lazy imports
    start = perf_counter()
    k = 0
    while perf_counter() - start < seconds:
        item = inputs[k % len(inputs)]
        request_id = f"{k:04d}-{item['id']}"
        arg = server.prepare(item)
        if trace:
            order = (True, False) if k % 2 == 0 else (False, True)
            pair = {mode: server.serve(request_id, arg, mode) for mode in order}
            records.append({**pair[True], "untraced": pair[False]})
        else:
            samples.append(speed.sample())
            records.append({**server.serve(request_id, arg, False), "speed_s": samples[-1]})
        k += 1
    return records, perf_counter() - start - sum(samples)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cli-verify", "family", "ricci-flat"))
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    tracer = Tracer()
    server = Server(args.workload, args.workdir, tracer)
    records, elapsed = serve_loop(server, inputs, args.seconds, bool(args.trace))
    result = {
        "records": records,
        "elapsed_s": elapsed,
        "spans": tracer.spans,
    }
    if args.trace and args.workload == "family":
        # after the timed loop, so it changes none of the run's timings
        result["defect_probe"] = [server.serve(item["id"], server.prepare(item), False)
                                  for item in gen.defect_probe_inputs()]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
