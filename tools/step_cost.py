"""The Radau stepper's cost per step attempt and per step, for n = 1..7.

These are the sizes the package runs the stepper at: the flow at 2r,
the tail at r + 1 and the oracle at 2r + 1 for r = 1..3, and the stepper
tests at 1.  For each n it builds one seeded linear system y' = A y and
prints the median wall time of ``Radau._newton_operators`` (the Newton
and error operators that every step attempt builds) and of one
``Radau.step`` on it, in µs.

    python tools/step_cost.py [REPEATS]

REPEATS (default 200) is the number of timed calls of each.  A is a
random skew-symmetric matrix less I, so the solution turns and decays.
The steps run over t in [0, 10] at rtol 1e-10 and atol 1e-12 and start
again from the same state at the end, so every timed step is one of the
same fixed run.  The package is imported from this checkout's ``src``.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from solitonforge.radau import Radau  # noqa: E402

SIZES = range(1, 8)
SEED = 1
T_BOUND = 10.0


def _solver(n: int) -> Radau:
    """The stepper on the seeded system of n components, from a seeded
    start."""
    rng = np.random.default_rng([SEED, n])
    B = rng.standard_normal((n, n))
    A = B - B.T - np.identity(n)
    return Radau(lambda y: y.dot(A.T), lambda y: A, 0.0, rng.standard_normal(n),
                 t_bound=T_BOUND, rtol=1e-10, atol=1e-12)


def costs(n: int, repeats: int) -> tuple:
    """(µs per operator build, µs per step), medians over `repeats` calls."""
    solver = _solver(n)
    J = solver.jac(solver.y)
    builds, steps = [], []
    for _ in range(repeats):
        start = perf_counter()
        solver._newton_operators(solver.h_abs, J)
        builds.append(perf_counter() - start)
    for _ in range(repeats):
        if solver.status != "running":
            solver = _solver(n)
        start = perf_counter()
        solver.step()
        steps.append(perf_counter() - start)
    return 1e6 * statistics.median(builds), 1e6 * statistics.median(steps)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("repeats", nargs="?", type=int, default=200, metavar="REPEATS",
                   help="timed calls of each (default 200)")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("REPEATS must be at least 1")
    print(f"{'n':>2s} {'operators_us':>12s} {'step_us':>8s}")
    for n in SIZES:
        build, step = costs(n, args.repeats)
        print(f"{n:2d} {build:12.1f} {step:8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
