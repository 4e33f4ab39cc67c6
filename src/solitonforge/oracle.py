"""Independent second-order integration of the original equations in t.

The cross-check integrates the coupled system for (g_i, u) directly,

    gdd_i / g_i = lambda_i / g_i^2 - (tr L)(gd_i / g_i)
                  + u_dot (gd_i / g_i) + (gd_i / g_i)^2
    u_ddot      = sum_i d_i gdd_i / g_i

starting from mid-trajectory data of a reconstructed profile (never at
the singular collapse t = 0), and monitors the conserved quantity

    sum_i d_i lambda_i / g_i^2 + tr(L^2) - (u_dot - tr L)^2

which must stay at the gauge constant C along exact solutions.

``scipy.integrate`` and ``scipy.interpolate`` are imported inside the
functions that use them: importing them takes about as long as a
``solitonforge verify`` run spends integrating, and only the oracle
needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, NoOverlap, OutOfRange, StepLimitExceeded
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
    """Interpolate (g, g_dot, u_dot) at t0 from a profile.

    Cubic Hermite interpolation uses the profile's own derivative fields,
    so the interpolation error is O(h^4) in the sample spacing.
    """
    from scipy.interpolate import CubicHermiteSpline

    t = profile.t
    if not (t[0] < t0 < t[-1]):
        raise OutOfRange(f"t0 = {t0:g} outside profile range ({t[0]:g}, {t[-1]:g})")
    g = np.array([
        CubicHermiteSpline(t, profile.g[:, i], profile.g_dot[:, i])(t0)
        for i in range(profile.r)
    ])
    g_dot = np.array([
        CubicHermiteSpline(t, profile.g_dot[:, i], profile.g_ddot[:, i])(t0)
        for i in range(profile.r)
    ])
    u_dot = float(CubicHermiteSpline(t, profile.u_dot, profile.u_ddot)(t0))
    return SecondOrderState(t=float(t0), g=g, g_dot=g_dot, u_dot=u_dot)


def conservation_quantity(y: np.ndarray, spec: ProblemSpec) -> float:
    r = spec.r
    g, gd, ud = y[:r], y[r:2 * r], y[-1]
    rel = gd / g
    tr_L = spec.dims @ rel
    return float(
        (spec.dims * spec.lambdas / g**2).sum()
        + (spec.dims * rel**2).sum()
        - (ud - tr_L) ** 2
    )


def integrate_second_order(
    state: SecondOrderState, spec: ProblemSpec, t_end: float
) -> OracleRun:
    """Adaptive integration of the t-space system from `state` to t_end."""
    from scipy.integrate import solve_ivp

    r = spec.r
    d, lam = spec.dims, spec.lambdas

    def rhs(t, y):
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        tr_L = d @ rel
        gdd_over_g = lam / g**2 - tr_L * rel + ud * rel + rel**2
        u_dd = d @ gdd_over_g
        return np.concatenate([gd, gdd_over_g * g, [u_dd]])

    def collapse(t, y):
        return float(y[:r].min()) - 1e-12
    collapse.terminal = True

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
    if sol.status == -1:
        raise StepLimitExceeded(f"oracle integration failed: {sol.message}")
    if sol.status == 1 or not np.all(np.isfinite(sol.y)):
        raise BlowUp(f"a warping function left (0, inf) before t = {t_end:g}")

    cons = np.array([conservation_quantity(y, spec) for y in sol.y.T])
    return OracleRun(
        t=sol.t,
        g=sol.y[:r].T,
        g_dot=sol.y[r:2 * r].T,
        u_dot=sol.y[-1],
        conservation=cons,
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
