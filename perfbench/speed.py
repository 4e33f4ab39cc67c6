"""Host-speed reference for the benchmark's end-to-end times.

Shared machines drift in speed by a fifth or more within minutes: the
same Ricci-flat request, served over and over in one process, had medians
from 0.22 s to 0.35 s over windows of 20 requests.  The reference loop
below slows down with it.  It integrates the stiff van der Pol oscillator
with scipy's Radau, the solver machinery that dominates a request, and it
imports nothing from the package.  Every timed piece of work gets one
sample from the process that did it: the worker samples just before each
request, and a fresh process (a CLI request, a set-up import) samples just
after its work, in an epilogue whose time is not counted.  The run reports
each time scaled to a host on which one sample takes REFERENCE_S:

    scaled = measured * REFERENCE_S / sample

On that host, five seeds of the Ricci-flat workload had run medians within
3.5% of each other scaled, and spread by a third measured.  Because the
loop does not touch the package, a change to the package moves a scaled
time by the same share as the measured one.  Runs print the measured
values next to the scaled ones.
"""

from time import perf_counter

from scipy.integrate import solve_ivp

REFERENCE_S = 0.012
_MU = 50.0


def _vdp(t, y):
    return [y[1], _MU * (1.0 - y[0] ** 2) * y[1] - y[0]]


def _vdp_jac(t, y):
    return [[0.0, 1.0], [-2.0 * _MU * y[0] * y[1] - 1.0, _MU * (1.0 - y[0] ** 2)]]


def _pass() -> float:
    start = perf_counter()
    solve_ivp(_vdp, (0.0, 8.0), [2.0, 0.0], method="Radau", jac=_vdp_jac,
              rtol=1e-8, atol=1e-8)
    return perf_counter() - start


def sample() -> float:
    """Seconds for one pass of the reference loop.

    An untimed pass first brings the loop's code and data back into the
    caches, so the sample does not depend on how much of them the
    request before it evicted, which is the package's doing.
    """
    _pass()
    return _pass()


def scaled(measured: float, sample_s: float) -> float:
    """A measured time in reference-host seconds."""
    return measured * REFERENCE_S / sample_s
