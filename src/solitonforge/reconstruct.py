"""Recover physical data (t, g_i, u and t-derivatives) from a trajectory.

All t-derivatives come from closed forms in (X, Y, L); quadrature is used
only for the three cumulative quantities t, u and (in Ricci-flat mode)
log w, where w = -du/dt + tr L is the frame factor relating s to t
(dt = ds / w).  In soliton mode w = sqrt(C / L); in Ricci-flat mode L
vanishes identically and w is integrated from (log w)' = -sum(X^2) with
the gauge w(s_0) = 1.

The quadratures need no second integrator: every interval between two
samples carries a fixed Gauss-Legendre rule, and the per-interval
increments are summed.  Each node sits at a fixed fraction of its
interval, so each segment of the trajectory hands over all its nodes,
and ds/dx there, in one call (``at_fractions``), with no abscissa to
compute and no step to search for.  A Radau step is linear in s, with
ds/dx its length; its interpolant is a polynomial of degree
``radau.STAGES`` in s, so the rule of ``STAGES + 1`` points is exact for
the polynomial integrands H - 1 and sum(X^2), and sqrt(L / C) and 1 / w
are smooth there, the rule converged far below the flow's tolerance.
An interval of the tail is linear in tau = log s, with ds = s dtau; its
integrands are smooth in tau over a twelfth of a decade.
In Ricci-flat mode the t integrand needs log w inside each step, which
a nested rule on [s_k, node] supplies: its nodes sit at the products
x_i x_j of the node fractions, weighted by ds/dx there.

The same rule over the part of a step from its first sample gives t at
any abscissa, so `fields_at_t` can place the closed-form fields at
given times, such as the nodes of verify's Richardson extrapolation,
whatever the step sizes.

The un-sampled tail below the first sample is estimated from the exact
exponential rates at the critical point: L ~ e^{2 b^2 s} gives
t_0 = sqrt(L(s_0)/C) / b^2 (soliton) and t_0 = 1/(w(s_0) b^2)
(Ricci-flat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonNegativeL, QuadratureFailure, ZeroY
from .flow import Trajectory
from .model import Mode, ProblemSpec, constants
from .radau import STAGES


@dataclass
class MetricProfile:
    """Sampled physical data along a trajectory.

    Arrays are indexed [sample] or [sample, factor].  u is normalized by
    u(s_0) = 0; t includes the estimated tail below the first sample so
    that t -> 0 corresponds to the collapsing submanifold.
    """

    spec: ProblemSpec
    s: np.ndarray
    t: np.ndarray
    w: np.ndarray          # -u_dot + tr L, the ds/dt factor
    g: np.ndarray
    g_dot: np.ndarray
    g_ddot: np.ndarray
    g_dddot: np.ndarray
    u: np.ndarray
    u_dot: np.ndarray
    u_ddot: np.ndarray
    L: np.ndarray
    H: np.ndarray

    @property
    def r(self) -> int:
        return self.g.shape[1]

    def tr_L(self) -> np.ndarray:
        return (self.spec.dims * self.g_dot / self.g).sum(axis=1)


# Gauss-Legendre points per accepted step.  STAGES + 1 make the rule exact
# for polynomials of degree 2 STAGES + 1, which covers sum(X^2), of degree
# 2 STAGES on the stepper's interpolant of degree STAGES.
_GL_POINTS = STAGES + 1
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_POINTS)
# The nodes as fractions of their step, and the nested rule's nodes on
# [s_k, node i] as fractions of the step, x_i x_j in row-major order.
_NODE_X = 0.5 * (1.0 + _GL_X)
_NESTED_X = np.outer(_NODE_X, _NODE_X).ravel()
# Newton steps at most, and the relative residual in t that ends them,
# for the abscissa of a given time in `fields_at_t`: from its start one
# step leaves about 1e-11, below which the rule's own error slows them
_NEWTON_STEPS = 8
_T_RESIDUAL = 1e-10


def _fractions(spec: ProblemSpec) -> np.ndarray:
    """The rule's node fractions, and in Ricci-flat mode the nested rule's
    after them."""
    if spec.mode is Mode.RICCI_FLAT:
        return np.concatenate([_NODE_X, _NESTED_X])
    return _NODE_X


def _increments(y: np.ndarray, ds_dx: np.ndarray, spec: ProblemSpec,
                log_w_k: np.ndarray | None = None) -> np.ndarray:
    """The quadratures' increments over intervals: columns [dt, du] in
    soliton mode and [dlog w, dt, du] in Ricci-flat mode, one row per
    interval.

    y (interval, 2r, node) holds the states at the `_fractions` of each
    interval and ds_dx (interval, node) ds/dx there.  In Ricci-flat mode
    log_w_k is log w at each interval's start; by default the intervals
    are consecutive from the first sample, and it is summed from their
    own dlog w.
    """
    r = spec.r
    q = _GL_POINTS
    sqrt_d = np.sqrt(spec.dims)
    weights = 0.5 * ds_dx[:, :q] * _GL_W                 # (interval, node)
    X, Y = y[:, :r], y[:, r:]
    sx2 = np.einsum("kin,kin->kn", X, X)
    du = (weights * (sqrt_d @ X[:, :, :q] - 1.0)).sum(axis=1)

    if spec.mode is Mode.RICCI_FLAT:
        dlog_w = -(weights * sx2[:, :q]).sum(axis=1)
        if log_w_k is None:
            log_w_k = np.concatenate([[0.0], np.cumsum(dlog_w)[:-1]])
        # log w at each node: log w(s_k) plus the nested rule on [s_k, node]
        sub_weights = (0.5 * ds_dx[:, q:].reshape(-1, q, q) * _NODE_X[:, None]) * _GL_W
        sub_sx2 = sx2[:, q:].reshape(-1, q, q)
        node_log_w = log_w_k[:, None] - (sub_weights * sub_sx2).sum(axis=2)
        dt = (weights * np.exp(-node_log_w)).sum(axis=1)
        return np.column_stack([dlog_w, dt, du])
    ell = sx2 + np.einsum("kin,kin->kn", Y, Y) - 1.0
    dt = (weights * np.sqrt(ell / spec.gauge_C)).sum(axis=1)
    return np.column_stack([dt, du])


def _cumulative(traj: Trajectory, spec: ProblemSpec) -> np.ndarray:
    """Cumulative quadratures along the dense trajectory.

    Returns per-sample columns [t_rel, u] in soliton mode and
    [log w, t_rel, u] in Ricci-flat mode, all zero at the first sample.
    """
    x = _fractions(spec)
    nodes = [seg.at_fractions(x) for seg in traj.segments]
    y = np.concatenate([y for y, _ in nodes])            # (interval, 2r, node)
    ds_dx = np.concatenate([rate for _, rate in nodes])  # (interval, node)
    increments = _increments(y, ds_dx, spec)

    cum = np.cumsum(increments, axis=0)
    bad = ~np.isfinite(increments).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise QuadratureFailure(
            f"cumulative quadrature is not finite on the step "
            f"[{traj.s[k]:.6g}, {traj.s[k + 1]:.6g}]"
        )
    return np.vstack([np.zeros(increments.shape[1]), cum])


def _tail_t0(spec: ProblemSpec, w: np.ndarray) -> float:
    beta2 = constants(spec).beta ** 2
    return (1.0 / w[0]) / beta2


def build_profile(traj: Trajectory, spec: ProblemSpec) -> MetricProfile:
    """Evaluate every recovered field along the trajectory."""
    if not traj.segments:
        raise QuadratureFailure("trajectory has no dense output (stationary seed?)")
    if np.any(traj.Y == 0):
        raise ZeroY("a Y component vanishes; warping functions undefined")

    lam = spec.lambdas
    if spec.mode is Mode.SOLITON and np.any(traj.L >= 0):
        raise NonNegativeL("soliton reconstruction requires L < 0 throughout")
    # An extreme but accepted gauge_C or lambda (near +-1e308, or a
    # subnormal gauge_C) overflows the arithmetic below.  Every field is
    # checked for finiteness afterwards, so numpy's warnings would only
    # repeat what that check reports.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cum = _cumulative(traj, spec)
        if spec.mode is Mode.RICCI_FLAT:
            log_w, t_rel, u = cum.T
            w = np.exp(log_w)
        else:
            t_rel, u = cum.T
            w = np.sqrt(spec.gauge_C / traj.L)
        t = _tail_t0(spec, w) + t_rel
        fields = {"t": t, "w": w, **_closed_forms(spec, traj.X, traj.Y, w, traj.H),
                  "u": u}

    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise QuadratureFailure(
                f"profile field {name} is not finite (gauge_C = {spec.gauge_C:g}, "
                f"lambda = {lam.tolist()})"
            )
    if np.any(np.diff(t) <= 0):
        message = "recovered arclength is not strictly increasing"
        if traj.termination == "s_max":   # t moved by less than its ulps
            message = (f"s_max = {spec.s_max:g} is too short an s-range to resolve t: "
                       f"the {message}")
        raise QuadratureFailure(message)

    return MetricProfile(spec=spec, s=traj.s.copy(), L=traj.L.copy(),
                         H=traj.H.copy(), **fields)


def _closed_forms(spec: ProblemSpec, X: np.ndarray, Y: np.ndarray, w: np.ndarray,
                  H: np.ndarray) -> dict:
    """The fields that are closed forms in the state: g_i and its first
    three t-derivatives, u_dot and u_ddot, at states with rows X, Y (m, r),
    frame factor w and H (m,)."""
    d = spec.dims
    lam = spec.lambdas
    sqrt_d = np.sqrt(d)
    g = np.sqrt(d * lam) / (Y * w[:, None])
    g_dot = np.sqrt(lam) * X / Y
    sx2 = np.einsum("ij,ij->i", X, X)
    g_ddot = g * (w[:, None] ** 2) * (X**2 + Y**2 - sqrt_d * X) / d
    bracket = (X / Y**2) * (
        -3.0 * X + X**2 / sqrt_d + sqrt_d + sqrt_d * sx2[:, None]
    ) + X / sqrt_d - 1.0
    g_dddot = w[:, None] * (lam / g) * bracket
    u_dot = w * (H - 1.0)
    u_ddot = (d * g_ddot / g).sum(axis=1)
    return {"g": g, "g_dot": g_dot, "g_ddot": g_ddot, "g_dddot": g_dddot,
            "u_dot": u_dot, "u_ddot": u_ddot}


def fields_at_t(traj: Trajectory, profile: MetricProfile, t: np.ndarray) -> dict:
    """The closed-form fields of `_closed_forms` at the times t (m,) inside
    the profile, read off the dense trajectory rather than the samples.

    Each time's abscissa s lies in the interval from the last sample k
    with t_k <= t.  There t(s) = t_k + the Gauss-Legendre rule of
    `_increments` on [s_k, s], and dt/ds = 1 / w, so Newton's method finds
    s from a start interpolated between the samples; it stops once t(s)
    is within `_T_RESIDUAL` of t, relative.
    """
    spec = profile.spec
    r = spec.r
    ricci_flat = spec.mode is Mode.RICCI_FLAT
    t = np.asarray(t, dtype=float)
    k = np.clip(np.searchsorted(profile.t, t, side="right") - 1, 0, profile.t.size - 2)
    s_k, t_k = traj.s[k], profile.t[k]
    log_w_k = np.log(profile.w[k])
    # t is nearly exponential in s near the seed, so the start interpolates
    # log t linearly
    s = s_k + np.log(t / t_k) / np.log(profile.t[k + 1] / t_k) * (traj.s[k + 1] - s_k)
    x = np.append(_fractions(spec), 1.0)   # the rule's nodes, then s itself
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_STEPS):
            h = s - s_k
            y = traj.dense((s_k[:, None] + x * h[:, None]).ravel())
            y = y.reshape(2 * r, t.size, x.size).transpose(1, 0, 2)
            ds_dx = np.broadcast_to(h[:, None], (t.size, x.size - 1))
            increments = _increments(y[:, :, :-1], ds_dx, spec, log_w_k)
            X, Y = y[:, :r, -1], y[:, r:, -1]
            if ricci_flat:
                w = np.exp(log_w_k + increments[:, 0])
            else:
                L = np.einsum("ij,ij->i", X, X) + np.einsum("ij,ij->i", Y, Y) - 1.0
                w = np.sqrt(spec.gauge_C / L)
            residual = t_k + increments[:, -2] - t
            if not np.abs(residual / t).max() > _T_RESIDUAL:
                break
            s = s - residual * w
        return _closed_forms(spec, X, Y, w, X @ np.sqrt(spec.dims))
