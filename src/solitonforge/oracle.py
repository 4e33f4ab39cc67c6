"""Independent second-order integration of the original equations in t.

The cross-check integrates the coupled system for (g_i, u) directly,

    gdd_i / g_i = lambda_i / g_i^2 - (tr L)(gd_i / g_i)
                  + u_dot (gd_i / g_i) + (gd_i / g_i)^2
    u_ddot      = sum_i d_i gdd_i / g_i

starting from a sample of a reconstructed profile (never at the
singular collapse t = 0), with the profile's own closed-form g, g_dot
and u_dot there, and monitors the conserved quantity

    sum_i d_i lambda_i / g_i^2 + tr(L^2) - (u_dot - tr L)^2

which must stay at the gauge constant C along exact solutions.

The field (``t_field``) has 2r + 1 ≤ 7 components, so it is evaluated on
Python floats, where numpy's per-call overhead would outweigh the
arithmetic.  The system is defined only where every g_i is positive: a
start with a g_i that is not finite and positive, or with a non-finite
g_dot or u_dot, is rejected with ``ValidationError`` naming the field,
and a g_i that reaches 0 during the run raises ``BlowUp``.

``scipy.integrate`` is imported inside the function that uses it:
importing it takes about as long as a ``solitonforge verify`` run spends
integrating, and only the oracle needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, NoOverlap, OutOfRange, StepLimitExceeded, ValidationError
from .model import Mode, ProblemSpec
from .reconstruct import MetricProfile


@dataclass
class SecondOrderState:
    """State of the t-space system at one abscissa."""

    t: float
    g: np.ndarray
    g_dot: np.ndarray
    u_dot: float

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.g, self.g_dot, [self.u_dot]])


@dataclass
class OracleRun:
    """Samples of a second-order integration plus its dense output."""

    t: np.ndarray
    g: np.ndarray
    g_dot: np.ndarray
    u_dot: np.ndarray
    conservation: np.ndarray
    dense: object  # OdeSolution over [t0, t_end]

    def conservation_drift(self) -> float:
        return float(np.abs(self.conservation - self.conservation[0]).max())


def init_from_profile(profile: MetricProfile, t0: float) -> SecondOrderState:
    """The profile's own (g, g_dot, u_dot) at its first sample with t >= t0.

    Starting at a sample needs no interpolation, so the start carries the
    profile's closed-form values whatever the sample spacing.
    """
    t = profile.t
    if not (t[0] < t0 < t[-1]):
        raise OutOfRange(f"t0 = {t0:g} outside profile range ({t[0]:g}, {t[-1]:g})")
    k = int(np.searchsorted(t, t0))
    return SecondOrderState(t=float(t[k]), g=profile.g[k].copy(),
                            g_dot=profile.g_dot[k].copy(), u_dot=float(profile.u_dot[k]))


def conservation_quantity(y: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """The conserved quantity at each column of a (2r + 1, N) stack of
    states [g, g_dot, u_dot], in one vectorised pass.

    Each factor sum is taken left to right over the factors, as
    ``t_field`` sums its dot products.  The potential and kinetic sums
    are so those of numpy's ``sum`` of fewer than eight terms, bit for
    bit; tr L agrees with a BLAS dot, whose summation order is not fixed,
    to a few ulps of its terms.
    """
    r = spec.r
    d, lam = spec.dims.tolist(), spec.lambdas.tolist()
    g, gd, ud = y[:r], y[r:2 * r], y[-1]
    rel = gd / g
    potential = kinetic = tr_L = 0.0
    for i in range(r):
        potential += d[i] * lam[i] / g[i] ** 2
        kinetic += d[i] * rel[i] ** 2
        tr_L += d[i] * rel[i]
    return potential + kinetic - (ud - tr_L) ** 2


def t_field(v: list, d: list, lam: list) -> list:
    """The t-space vector field at one packed state [g, g_dot, u_dot], on
    Python floats, with the factors' d_i and lambda_i as lists.

    The operations are those of the numpy expressions

        rel = g_dot / g;  tr L = d . rel
        gdd / g = lam / g^2 - (tr L) rel + u_dot rel + rel^2
        u_ddot = d . (gdd / g)

    in the same order, with both dot products summed left to right.  numpy
    would send them to a BLAS dot, whose summation order is not fixed, so
    the values agree with the numpy form to a few ulps rather than bit for
    bit.  A g_i that is 0, or whose square underflows to 0, raises
    ``ZeroDivisionError``.
    """
    r = len(d)
    g = v[:r]
    gd = v[r:2 * r]
    ud = v[-1]
    rel = [b / a for a, b in zip(g, gd)]
    tr_L = 0.0
    for di, q in zip(d, rel):
        tr_L += di * q
    gdd_over_g = [l / (a * a) - tr_L * q + ud * q + q * q
                  for l, a, q in zip(lam, g, rel)]
    u_dd = 0.0
    for di, q in zip(d, gdd_over_g):
        u_dd += di * q
    return gd + [q * a for q, a in zip(gdd_over_g, g)] + [u_dd]


def _check_start(state: SecondOrderState) -> None:
    """Reject a start the t-space system is not defined at: every g_i
    finite and positive, g_dot and u_dot finite."""
    if not np.all(np.isfinite(state.g) & (state.g > 0)):
        raise ValidationError(f"oracle start state: g must be finite and positive, got {state.g}")
    if not np.all(np.isfinite(state.g_dot)):
        raise ValidationError(f"oracle start state: g_dot must be finite, got {state.g_dot}")
    if not math.isfinite(state.u_dot):
        raise ValidationError(f"oracle start state: u_dot must be finite, got {state.u_dot}")


def integrate_second_order(
    state: SecondOrderState, spec: ProblemSpec, t_end: float
) -> OracleRun:
    """Adaptive integration of the t-space system from `state` to t_end.

    The start must have every g_i finite and positive and a finite g_dot
    and u_dot; any other raises ``ValidationError`` naming the field.  The
    field is ``t_field``; a g_i that reaches 0 inside it ends the run with
    ``BlowUp``, as does one that falls below 1e-12 or a non-finite sample.
    """
    from scipy.integrate import solve_ivp

    _check_start(state)
    r = spec.r
    d, lam = spec.dims.tolist(), spec.lambdas.tolist()

    def rhs(t, y):
        return t_field(y.tolist(), d, lam)

    def collapse(t, y):
        return float(y[:r].min()) - 1e-12
    collapse.terminal = True

    try:
        sol = solve_ivp(
            rhs,
            (state.t, t_end),
            state.as_vector(),
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
            events=collapse,
        )
    except ZeroDivisionError as exc:   # g_i, or g_i^2 by underflow, reached 0
        raise BlowUp(f"a warping function reached 0 before t = {t_end:g}") from exc
    if sol.status == -1:
        raise StepLimitExceeded(f"oracle integration failed: {sol.message}")
    if sol.status == 1 or not np.all(np.isfinite(sol.y)):
        raise BlowUp(f"a warping function left (0, inf) before t = {t_end:g}")

    return OracleRun(
        t=sol.t,
        g=sol.y[:r].T,
        g_dot=sol.y[r:2 * r].T,
        u_dot=sol.y[-1],
        conservation=conservation_quantity(sol.y, spec),
        dense=sol.sol,
    )


def compare_profiles(profile: MetricProfile, run: OracleRun) -> dict[str, float]:
    """Max relative deviation per field over the overlapping t-range.

    The oracle's dense output is evaluated on the profile's own t-grid.
    The u_dot deviation is taken relative to max |u_dot| in soliton mode
    and to max |w| in Ricci-flat mode, where u_dot is identically zero.
    """
    t = profile.t
    mask = (t >= run.t[0]) & (t <= run.t[-1])
    if not mask.any():
        raise NoOverlap(
            f"profile t-range ({t[0]:g}, {t[-1]:g}) does not meet "
            f"oracle range ({run.t[0]:g}, {run.t[-1]:g})"
        )
    r = profile.r
    yo = run.dense(t[mask])
    scale = lambda a: np.maximum(np.abs(a), 1e-30)

    dev = {}
    g_dev = np.abs(profile.g[mask] - yo[:r].T) / scale(profile.g[mask])
    gd_dev = np.abs(profile.g_dot[mask] - yo[r:2 * r].T) / scale(profile.g_dot[mask])
    if profile.spec.mode is Mode.RICCI_FLAT:
        # u_dot vanishes identically, so its own size is roundoff; measure
        # it against the frame factor w = -u_dot + tr L instead
        ud_ref = np.abs(profile.w[mask]).max()
    else:
        ud_ref = np.maximum(np.abs(profile.u_dot[mask]).max(), 1e-30)
    ud_dev = np.abs(profile.u_dot[mask] - yo[-1]) / ud_ref
    dev["g"] = float(g_dev.max())
    dev["g_dot"] = float(gd_dev.max())
    dev["u_dot"] = float(ud_dev.max())
    return dev
