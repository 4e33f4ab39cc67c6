"""One SHA-256 digest of the package's outputs per benchmark workload and seed.

Two checkouts that print the same digests computed the same doubles,
bit for bit, on the same inputs: a change meant to leave every output
as it was can be checked by running this in both.

    python tools/output_digest.py [--count N] [--per-input] [SET ...]

A SET is ``family:<seed>`` or ``ricci-flat:<seed>``, the first N (default
100) inputs that ``perfbench/gen.py`` generates for that workload and
seed, or ``probes``, its four defect-probe specs.  The default sets are
``family:101 family:7 ricci-flat:101 probes``.  Each input runs the
benchmark's request path: ``flow.run``, ``reconstruct.build_profile``,
then ``geometry.sectional_curvatures`` and ``verify.run_suite`` (family
and probes) or ``geometry.ricci_components`` and
``verify.ricci_flat_checks`` (ricci-flat), and the oracle from
t0 = 10 t[0] to min(100 t0, t[-1]).  The digest covers every
trajectory (s, X, Y, L, H, termination and each segment's samples and
interpolant), every profile column, every check (name, measured,
tolerance, passed) and the oracle run (t, samples, interpolant,
deviations, drift); a request that raises a ``SolitonForgeError``
contributes its type and message.  ``--per-input`` also prints each
input's own digest, to find the one that differs.

The package is imported from this checkout's ``src``; ``gen.py`` is
imported without writing bytecode under ``perfbench``.  Standard library
and the package only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from solitonforge import cli, flow, geometry, oracle, reconstruct, verify  # noqa: E402
from solitonforge.errors import SolitonForgeError  # noqa: E402
from solitonforge.model import Mode  # noqa: E402

DEFAULT_SETS = ("family:101", "family:7", "ricci-flat:101", "probes")


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
            _feed(h, seg.taus, seg.dense.ts, seg.dense.samples, seg.dense.F)
        else:
            _feed(h, seg.samples, seg.Q)


def _feed_request(h, config: str) -> None:
    """Run one input through the request path and hash what it returns."""
    spec = cli.parse_config(config, inline=True).spec
    try:
        traj = flow.run(spec)
        _feed_trajectory(h, traj)
        profile = reconstruct.build_profile(traj, spec)
        _feed(h, *(getattr(profile, f.name) for f in dataclasses.fields(profile)
                   if f.name != "spec"))
        if spec.mode is Mode.RICCI_FLAT:
            checks = verify.ricci_flat_checks(traj, profile,
                                              geometry.ricci_components(profile, spec))
        else:
            curv = geometry.sectional_curvatures(profile, spec)
            checks = verify.run_suite(traj, profile, curv, spec).checks
        for c in checks:
            _feed(h, c.name, c.measured, c.tolerance, c.passed)
        t0 = 10.0 * float(profile.t[0])
        run = oracle.integrate_second_order(oracle.init_from_profile(profile, t0), spec,
                                            t_end=min(100.0 * t0, float(profile.t[-1])))
        devs = oracle.compare_profiles(profile, run)
        _feed(h, run.t, run.g, run.g_dot, run.u_dot, run.conservation, run.dense.F,
              sorted(devs.items()), run.conservation_drift())
    except SolitonForgeError as exc:
        _feed(h, "raised", type(exc).__name__, str(exc))


def inputs(name: str, count: int) -> list[dict]:
    """The inputs of one SET (see the module docstring)."""
    if name == "probes":
        return gen.defect_probe_inputs()
    workload, _, seed = name.partition(":")
    if workload not in ("family", "ricci-flat") or not seed.lstrip("-").isdigit():
        raise ValueError(f"a set is family:<seed>, ricci-flat:<seed> or probes, not {name!r}")
    return gen.inputs_for(workload, int(seed))[:count]


def digest(items: list[dict], per_input=None) -> str:
    """The hex SHA-256 over the inputs' outputs, in order; per_input, if
    given, is called with each input's id and own hex digest."""
    total = hashlib.sha256()
    for item in items:
        h = hashlib.sha256()
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
