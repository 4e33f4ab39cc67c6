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
ds/dx its length; its interpolant is a quintic in s, so the rule is
exact for the polynomial integrands H - 1 and sum(X^2), and sqrt(L / C)
and 1 / w are smooth there, the rule converged far below the flow's
tolerance.  An interval of the tail is linear in tau = log s, with ds =
s dtau; its integrands are smooth in tau over a twelfth of a decade.
In Ricci-flat mode the t integrand needs log w inside each step, which
a nested rule on [s_k, node] supplies: its nodes sit at the products
x_i x_j of the node fractions, weighted by ds/dx there.

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


# Gauss-Legendre points per accepted step.  Six make the rule exact for
# polynomials of degree 11, which covers sum(X^2), of degree 10, on a
# quintic interpolant.
_GL_POINTS = 6
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_POINTS)
# The nodes as fractions of their step, and the nested rule's nodes on
# [s_k, node i] as fractions of the step, x_i x_j in row-major order.
_NODE_X = 0.5 * (1.0 + _GL_X)
_NESTED_X = np.outer(_NODE_X, _NODE_X).ravel()


def _cumulative(traj: Trajectory, spec: ProblemSpec) -> np.ndarray:
    """Cumulative quadratures along the dense trajectory.

    Returns per-sample columns [t_rel, u] in soliton mode and
    [log w, t_rel, u] in Ricci-flat mode, all zero at the first sample.
    """
    r = spec.r
    q = _GL_POINTS
    sqrt_d = np.sqrt(spec.dims)
    ricci_flat = spec.mode is Mode.RICCI_FLAT

    x = np.concatenate([_NODE_X, _NESTED_X]) if ricci_flat else _NODE_X
    nodes = [seg.at_fractions(x) for seg in traj.segments]
    y = np.concatenate([y for y, _ in nodes])            # (interval, 2r, node)
    ds_dx = np.concatenate([rate for _, rate in nodes])  # (interval, node)
    weights = 0.5 * ds_dx[:, :q] * _GL_W                 # (interval, node)
    X, Y = y[:, :r], y[:, r:]
    sx2 = np.einsum("kin,kin->kn", X, X)
    du = (weights * (sqrt_d @ X[:, :, :q] - 1.0)).sum(axis=1)

    if ricci_flat:
        dlog_w = -(weights * sx2[:, :q]).sum(axis=1)
        log_w_k = np.concatenate([[0.0], np.cumsum(dlog_w)[:-1]])
        # log w at each node: log w(s_k) plus the nested rule on [s_k, node]
        sub_weights = (0.5 * ds_dx[:, q:].reshape(-1, q, q) * _NODE_X[:, None]) * _GL_W
        sub_sx2 = sx2[:, q:].reshape(-1, q, q)
        node_log_w = log_w_k[:, None] - (sub_weights * sub_sx2).sum(axis=2)
        dt = (weights * np.exp(-node_log_w)).sum(axis=1)
        increments = np.column_stack([dlog_w, dt, du])
    else:
        ell = sx2 + np.einsum("kin,kin->kn", Y, Y) - 1.0
        dt = (weights * np.sqrt(ell / spec.gauge_C)).sum(axis=1)
        increments = np.column_stack([dt, du])

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

    d = spec.dims
    lam = spec.lambdas
    sqrt_d = np.sqrt(d)
    X, Y = traj.X, traj.Y

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

        g = np.sqrt(d * lam) / (Y * w[:, None])
        g_dot = np.sqrt(lam) * X / Y
        sx2 = np.einsum("ij,ij->i", X, X)
        g_ddot = g * (w[:, None] ** 2) * (X**2 + Y**2 - sqrt_d * X) / d
        bracket = (X / Y**2) * (
            -3.0 * X + X**2 / sqrt_d + sqrt_d + sqrt_d * sx2[:, None]
        ) + X / sqrt_d - 1.0
        g_dddot = w[:, None] * (lam / g) * bracket

        u_dot = w * (traj.H - 1.0)
        u_ddot = (d * g_ddot / g).sum(axis=1)

    fields = {"t": t, "w": w, "g": g, "g_dot": g_dot, "g_ddot": g_ddot,
              "g_dddot": g_dddot, "u": u, "u_dot": u_dot, "u_ddot": u_ddot}
    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise QuadratureFailure(
                f"profile field {name} is not finite (gauge_C = {spec.gauge_C:g}, "
                f"lambda = {lam.tolist()})"
            )
    if np.any(np.diff(t) <= 0):
        raise QuadratureFailure("recovered arclength is not strictly increasing")

    return MetricProfile(
        spec=spec,
        s=traj.s.copy(),
        t=t,
        w=w,
        g=g,
        g_dot=g_dot,
        g_ddot=g_ddot,
        g_dddot=g_dddot,
        u=u,
        u_dot=u_dot,
        u_ddot=u_ddot,
        L=traj.L.copy(),
        H=traj.H.copy(),
    )
