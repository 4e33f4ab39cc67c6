"""One SHA-256 digest of the package's outputs per benchmark workload and seed.

Two checkouts that print the same digests computed the same doubles,
bit for bit, on the same inputs: a change meant to leave every output
as it was can be checked by running this in both.

    python tools/output_digest.py [--count N] [--per-input] [SET ...]

A SET is ``family:<seed>`` or ``ricci-flat:<seed>``, the first N (default
100) inputs that ``perfbench/gen.py`` generates for that workload and
seed, ``probes``, its four defect-probe specs, ``edges``, the factors of
``configs/r2_d2_3.json`` with the seed (-1e-6, eps_2) for eps_2 = 1e-30,
1e-165 and 1e-200 (a tail that crosses origin_tol at a point of its
sample grid, and two seeds whose Y_2^2 underflows at the switch to the
tail), or ``cli``, the first N of the 33 CLI commands on the shipped
configs (below).  The default sets are ``family:101 family:7
ricci-flat:101 probes edges``.  Each input runs the package's request
path, ``cli.Request``: its trajectory and profile, then its suite report
(family, probes and edges) or ``verify.ricci_flat_checks`` on its Ricci
tensor (ricci-flat), and its oracle run over ``oracle.window`` with the
run's deviations.  The digest covers every trajectory (s, X, Y, L, H,
termination and each segment's samples and interpolant), every profile
column, every check (name, measured, tolerance, passed) and the oracle
run (t, samples, interpolant, deviations, drift); a request that raises
a ``SolitonForgeError`` contributes its type and message.
``--per-input`` also prints each input's own digest, to find the one
that differs.

The ``cli`` set runs ``solve``, ``verify``, ``oracle`` and ``curvature``
on each of the seven soliton configs under ``configs``, ``solve``,
``oracle``, ``curvature`` and ``ricci-flat`` on ``ricci_flat_d2_3`` and
``sweep`` on ``sweep_d2_3``, each in a fresh ``python -m
solitonforge.cli`` process in a temporary directory, on a copy of the
config and with a relative ``--out``, so that no path of the checkout
reaches an output.  Its digest covers each run's exit code, stdout,
stderr and written files, by relative path.

The package is imported from this checkout's ``src``; ``gen.py`` is
imported without writing bytecode under ``perfbench``.  Standard library
and the package only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from solitonforge import cli, flow, verify  # noqa: E402
from solitonforge.errors import SolitonForgeError  # noqa: E402
from solitonforge.model import Mode  # noqa: E402

DEFAULT_SETS = ("family:101", "family:7", "ricci-flat:101", "probes", "edges")
CONFIG_DIR = os.path.join(ROOT, "configs")
EDGE_SEEDS = (1e-30, 1e-165, 1e-200)
SOLITON_CONFIGS = ("bryant_d2", "r1_d3", "r1_d4", "r1_d9", "r2_d2_3", "r2_d3_5", "r3_d2_2_3")
CLI_COMMANDS = ([(command, config) for config in SOLITON_CONFIGS
                 for command in ("solve", "verify", "oracle", "curvature")]
                + [(command, "ricci_flat_d2_3")
                   for command in ("solve", "oracle", "curvature", "ricci-flat")]
                + [("sweep", "sweep_d2_3")])


def _import_gen():
    """perfbench/gen.py as a module, read only."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import gen
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.pop(0)
    return gen


gen = _import_gen()


def _feed(h, *values) -> None:
    """Add each value to the hash: an array (or numpy scalar) as its dtype,
    shape and bytes, anything else as its repr, which for a float is
    exact."""
    for v in values:
        if hasattr(v, "tobytes"):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(v.tobytes())
        else:
            h.update(repr(v).encode())
        h.update(b"\0")


def _feed_trajectory(h, traj) -> None:
    _feed(h, traj.s, traj.X, traj.Y, traj.L, traj.H, traj.termination)
    for seg in traj.segments:
        _feed(h, type(seg).__name__, seg.steps, seg.nfev, seg.s)
        if isinstance(seg, flow.TailSegment):
            _feed(h, seg.taus, seg.dense.ts, seg.dense.samples, seg.dense.Q)
        else:
            _feed(h, seg.samples, seg.Q)


def _feed_request(h, config: str) -> None:
    """Run one input through the request path and hash what it returns."""
    req = cli.Request(cli.parse_config(config, inline=True).spec)
    try:
        _feed_trajectory(h, req.traj)
        profile = req.profile
        _feed(h, *(getattr(profile, f.name) for f in dataclasses.fields(profile)
                   if f.name != "spec"))
        if req.spec.mode is Mode.RICCI_FLAT:
            checks = verify.ricci_flat_checks(req.traj, profile, req.ricci)
        else:
            checks = req.report.checks
        for c in checks:
            _feed(h, c.name, c.measured, c.tolerance, c.passed)
        run = req.oracle_run
        _feed(h, run.t, run.g, run.g_dot, run.u_dot, run.conservation, run.dense.Q,
              sorted(req.oracle_deviations.items()), run.conservation_drift())
    except SolitonForgeError as exc:
        _feed(h, "raised", type(exc).__name__, str(exc))


def _feed_command(h, command: str, config: str) -> None:
    """Run one CLI command on a shipped config, in a fresh process in a
    temporary directory, and hash its exit code, output and files."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(CONFIG_DIR, f"{config}.json"), tmp)
        proc = subprocess.run(
            [sys.executable, "-m", "solitonforge.cli", command,
             "--config", f"{config}.json", "--out", "out"],
            cwd=tmp, env=env, capture_output=True)
        _feed(h, proc.returncode, proc.stdout, proc.stderr)
        out = os.path.join(tmp, "out")
        for dirpath, dirnames, filenames in os.walk(out):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    _feed(h, os.path.relpath(path, out), fh.read())


def inputs(name: str, count: int) -> list[dict]:
    """The inputs of one SET (see the module docstring)."""
    if name == "probes":
        return gen.defect_probe_inputs()
    if name == "edges":
        with open(os.path.join(CONFIG_DIR, "r2_d2_3.json"), encoding="utf-8") as fh:
            config = json.load(fh)
        return [{"id": f"edge-eps2-{eps:g}",
                 "config": json.dumps(dict(config, seed_coeffs=[-1e-6, eps]))}
                for eps in EDGE_SEEDS]
    if name == "cli":
        return [{"id": f"{command}:{config}", "command": command, "config": config}
                for command, config in CLI_COMMANDS[:count]]
    workload, _, seed = name.partition(":")
    if workload not in ("family", "ricci-flat") or not seed.lstrip("-").isdigit():
        raise ValueError(f"a set is family:<seed>, ricci-flat:<seed>, probes, edges or cli, "
                         f"not {name!r}")
    return gen.inputs_for(workload, int(seed))[:count]


def digest(items: list[dict], per_input=None) -> str:
    """The hex SHA-256 over the inputs' outputs, in order; per_input, if
    given, is called with each input's id and own hex digest."""
    total = hashlib.sha256()
    for item in items:
        h = hashlib.sha256()
        if "command" in item:
            _feed_command(h, item["command"], item["config"])
        else:
            _feed_request(h, item["config"])
        total.update(h.digest())
        if per_input is not None:
            per_input(item["id"], h.hexdigest())
    return total.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("sets", nargs="*", default=list(DEFAULT_SETS), metavar="SET")
    p.add_argument("--count", type=int, default=100,
                   help="inputs per workload set (default 100)")
    p.add_argument("--per-input", action="store_true",
                   help="also print each input's digest")
    args = p.parse_args(argv)
    try:
        sets = [(name, inputs(name, args.count)) for name in args.sets]
    except ValueError as exc:
        p.error(str(exc))
    for name, items in sets:
        show = (lambda i, d: print(f"  {i}  {d}")) if args.per_input else None
        value = digest(items, show)
        print(f"{name}  {len(items)} inputs  {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
