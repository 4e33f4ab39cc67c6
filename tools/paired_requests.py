"""Same-process A/B timing of two checkouts on the benchmark's requests.

Separate benchmark runs on a shared host drift by tens of percent, more
than a change of a few percent in a request's time.  This script imports
both checkouts into one interpreter and times them on the same inputs,
alternating between them, so that the drift falls on both alike.

    python tools/paired_requests.py BASE_SRC CHANGE_SRC [--workload W]
                                    [--count N] [--rounds R]

BASE_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each one's ``solitonforge`` package is copied into a temporary directory
under its own name, ``solitonforge_base`` and ``solitonforge_change``,
and imported from there; the package's imports are relative, so the two
copies share no module.  Both serve the first N (default 100) inputs
that ``perfbench/gen.py`` generates for the workload (``family``, the
default, or ``ricci-flat``) at the benchmark's seed 101, each parsed by
its own ``cli.parse_config``.  A request is the benchmark's: ``flow.run``
and ``reconstruct.build_profile``, then ``geometry.sectional_curvatures``
and ``verify.run_suite`` (family) or ``geometry.ricci_components``
(ricci-flat), and the oracle from t0 = 10 t[0] to min(100 t0, t[-1]).
A request that raises the package's own error is timed up to the raise.

Each of the R (default 5) rounds serves every input once on each side,
the side that goes first alternating from input to input and from round
to round.  The script prints each side's median over the inputs of the
input's best time, the change's relative difference, and the number of
inputs whose best time is lower on the change's side.

``gen.py`` is imported from this checkout without writing bytecode under
``perfbench``.  Standard library, numpy and the two packages only.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 101
SIDES = ("base", "change")


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


def load(src: str, name: str, directory: str):
    """The ``solitonforge`` package of the checkout source `src`, copied
    into `directory` as the package `name`: a function that serves one
    request, and the package's error class."""
    shutil.copytree(os.path.join(src, "solitonforge"), os.path.join(directory, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    mod = {m: importlib.import_module(f"{name}.{m}")
           for m in ("cli", "flow", "geometry", "oracle", "reconstruct", "verify", "errors")}
    flow, geometry, oracle = mod["flow"], mod["geometry"], mod["oracle"]
    reconstruct, verify = mod["reconstruct"], mod["verify"]

    def family(spec):
        traj = flow.run(spec)
        profile = reconstruct.build_profile(traj, spec)
        curv = geometry.sectional_curvatures(profile, spec)
        verify.run_suite(traj, profile, curv, spec)
        return profile

    def ricci_flat(spec):
        traj = flow.run(spec)
        profile = reconstruct.build_profile(traj, spec)
        geometry.ricci_components(profile, spec)
        return profile

    def request(workload: str, spec) -> None:
        profile = (family if workload == "family" else ricci_flat)(spec)
        t0 = 10.0 * float(profile.t[0])
        state = oracle.init_from_profile(profile, t0)
        run = oracle.integrate_second_order(
            state, spec, t_end=min(100.0 * t0, float(profile.t[-1])))
        oracle.compare_profiles(profile, run)
        run.conservation_drift()

    return mod["cli"], request, mod["errors"].SolitonForgeError


def compare(base_src: str, change_src: str, workload: str, count: int,
            rounds: int) -> dict:
    """{side: [best seconds per input]} over `rounds` rounds of the first
    `count` inputs of `workload`."""
    items = _import_gen().inputs_for(workload, SEED)[:count]
    best = {side: [float("inf")] * len(items) for side in SIDES}
    packages = {side: f"solitonforge_{side}" for side in SIDES}
    with tempfile.TemporaryDirectory() as directory:
        sys.path.insert(0, directory)
        try:
            sides = {}
            for side, src in zip(SIDES, (base_src, change_src)):
                cli, request, error = load(src, packages[side], directory)
                specs = [cli.parse_config(item["config"], inline=True).spec
                         for item in items]
                sides[side] = (request, error, specs)
            for r in range(rounds):
                for i in range(len(items)):
                    for side in SIDES if (r + i) % 2 == 0 else SIDES[::-1]:
                        request, error, specs = sides[side]
                        start = perf_counter()
                        try:
                            request(workload, specs[i])
                        except error:
                            pass
                        best[side][i] = min(best[side][i], perf_counter() - start)
        finally:
            sys.path.remove(directory)
            for name in [m for m in sys.modules if m.split(".")[0] in packages.values()]:
                del sys.modules[name]
    return best


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", metavar="BASE_SRC", help="the src directory of the base checkout")
    p.add_argument("change", metavar="CHANGE_SRC",
                   help="the src directory of the changed checkout")
    p.add_argument("--workload", choices=("family", "ricci-flat"), default="family")
    p.add_argument("--count", type=int, default=100, help="inputs (default 100)")
    p.add_argument("--rounds", type=int, default=5, help="rounds (default 5)")
    args = p.parse_args(argv)
    if args.count < 1 or args.rounds < 1:
        p.error("--count and --rounds must be at least 1")
    for src in (args.base, args.change):
        if not os.path.isfile(os.path.join(src, "solitonforge", "__init__.py")):
            p.error(f"{src} holds no solitonforge package")
    best = compare(args.base, args.change, args.workload, args.count, args.rounds)
    medians = {side: statistics.median(times) for side, times in best.items()}
    wins = sum(c < b for b, c in zip(best["base"], best["change"]))
    n = len(best["base"])
    print(f"{args.workload}: {n} inputs, {args.rounds} rounds, median of best times")
    for side in SIDES:
        print(f"{side:>6s} {medians[side]:.6f} s")
    print(f"change {100 * (medians['change'] / medians['base'] - 1):+.1f}%, "
          f"faster on {wins} of {n} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
