"""Curvature of the reconstructed metric and its asymptotics.

For dt^2 + sum g_i(t)^2 h_i the Ricci curvature on unit directions is

    Ric(d/dt)   = - sum_i d_i gdd_i / g_i
    Ric(U_i)    = lambda_i / g_i^2 - gdd_i / g_i
                  - (gd_i / g_i) (tr L - gd_i / g_i)

and the sectional curvatures are -gdd_i/g_i (mixed with d/dt),
-gd_i gd_j / (g_i g_j) for planes across two factors, and
(K_h - gd_i^2)/g_i^2 within a factor, with K_h the sectional curvature
of the Einstein factor itself (modeled as a round sphere; exactly 1 for
a unit round sphere).

`sectional_curvatures` is the one place a curvature quantity is
computed: it evaluates `ricci_components` once and derives the scalar
curvature and the soliton residual from those arrays.  `asymptotics`
fits the tail of the report it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTail, ZeroG
from .model import ProblemSpec
from .reconstruct import MetricProfile

# the asymptotic fits use the last two decades of t
TAIL_DECADES = 2.0


@dataclass
class CurvatureReport:
    """Per-sample curvature data for a reconstructed metric."""

    t: np.ndarray
    ric_tt: np.ndarray               # (n,)
    ric_factor: np.ndarray           # (n, r)
    sectional_mixed_t: np.ndarray    # (n, r): K(U_i ^ d/dt)
    sectional_cross: np.ndarray      # (n, r, r), symmetric, 0 on diagonal
    sectional_within: np.ndarray     # (n, r): (K_h - g_dot^2) / g^2
    scalar_R: np.ndarray             # (n,)
    soliton_residual_max: float      # max |Ric + Hess u|
    scalar_R_gap: float              # max |R + (u_ddot + tr L u_dot)|

    def min_ricci(self) -> float:
        # np.minimum, not min(): a NaN in either array must come through
        return float(np.minimum(self.ric_tt.min(), self.ric_factor.min()))


@dataclass
class AsymptoticsReport:
    """Tail-fitted limits characterizing the paraboloid geometry."""

    g_gdot_limit: np.ndarray        # per factor, target lambda_i / sqrt(-C)
    g_sq_over_t_limit: np.ndarray   # per factor, target 2 lambda_i / sqrt(-C)
    g_sq_exponent: np.ndarray       # fitted d log g_i^2 / d log t, target 1
    curvature_slope: float          # d log|K| / d log t, target -1
    scalar_slope: float             # d log R / d log t, target -1
    R_t2_ladder: np.ndarray         # R * t^2 on a geometric ladder of t


def ricci_components(profile: MetricProfile, spec: ProblemSpec):
    """(ric_tt, ric_factor) per sample on unit directions."""
    if np.any(profile.g == 0):
        raise ZeroG("warping function vanishes")
    d = spec.dims
    lam = spec.lambdas
    g, gd, gdd = profile.g, profile.g_dot, profile.g_ddot
    ric_tt = -(d * gdd / g).sum(axis=1)
    tr_L = (d * gd / g).sum(axis=1)
    ric_factor = lam / g**2 - gdd / g - (gd / g) * (tr_L[:, None] - gd / g)
    return ric_tt, ric_factor


def sectional_curvatures(profile: MetricProfile, spec: ProblemSpec) -> CurvatureReport:
    """All three sectional-curvature families plus Ricci and scalar data.

    The scalar curvature is R = Ric(d/dt) + sum d_i Ric(U_i), and the
    soliton residual is max |Ric + Hess u|, where Hess u is u_ddot on the
    normal direction and u_dot * g_dot/g on unit factor directions.  The
    trace of the steady equation gives R a second route, -(u_ddot + tr L
    u_dot), and scalar_R_gap is the largest difference of the two routes;
    a NaN in either maximum comes through.  The within-factor planes model
    each Einstein factor as the round sphere of its Einstein constant,
    K_h = lambda_i / (d_i - 1) (0 for d_i = 1, where a factor has no
    2-planes of its own).
    """
    ric_tt, ric_factor = ricci_components(profile, spec)
    d = spec.dims
    g, gd = profile.g, profile.g_dot
    rel = gd / g
    cross = -rel[:, :, None] * rel[:, None, :]
    diag = np.arange(spec.r)
    cross[:, diag, diag] = 0.0
    k_h = np.divide(spec.lambdas, d - 1, out=np.zeros(spec.r), where=d > 1)

    res_tt = np.abs(ric_tt + profile.u_ddot)
    res_factor = np.abs(ric_factor + profile.u_dot[:, None] * gd / g)
    scalar_R = ric_tt + (d * ric_factor).sum(axis=1)
    return CurvatureReport(
        t=profile.t.copy(),
        ric_tt=ric_tt,
        ric_factor=ric_factor,
        sectional_mixed_t=-profile.g_ddot / g,
        sectional_cross=cross,
        sectional_within=(k_h - gd**2) / g**2,
        scalar_R=scalar_R,
        soliton_residual_max=float(np.maximum(res_tt.max(), res_factor.max())),
        scalar_R_gap=float(np.abs(
            scalar_R + (profile.u_ddot + profile.tr_L() * profile.u_dot)).max()),
    )


def _loglog_slope(t: np.ndarray, v: np.ndarray) -> float:
    return float(np.polyfit(np.log(t), np.log(np.abs(v)), 1)[0])


def asymptotics(profile: MetricProfile, curv: CurvatureReport) -> AsymptoticsReport:
    """Tail fits over the final TAIL_DECADES decades of t, from a profile
    and its curvature report."""
    t = profile.t
    if t[-1] / t[0] < 10.0 ** (TAIL_DECADES + 1):
        raise InsufficientTail(
            f"trajectory spans {np.log10(t[-1] / t[0]):.1f} decades of t; "
            f"need at least {TAIL_DECADES + 1:.1f}"
        )
    tail = t >= t[-1] / 10.0**TAIL_DECADES
    tt = t[tail]
    # dominant sectional curvature at large t: the within-factor planes,
    # (K_h - g_dot^2) / g^2 ~ K_h / g^2 (mixed and cross planes fall off a
    # full power of t faster and drown in roundoff first)
    K_dom = np.abs(curv.sectional_within[tail][:, profile.spec.dims > 1]).max(axis=1)
    # geometric ladder across the tail for the R * t^2 growth check
    rungs = np.searchsorted(t, np.geomspace(tt[0], tt[-1], 25))
    # a set, not np.unique: np.unique's first call imports numpy.ma
    idx = np.array(sorted(set(rungs.clip(0, len(t) - 1).tolist())))
    return AsymptoticsReport(
        g_gdot_limit=(profile.g * profile.g_dot)[-1],
        g_sq_over_t_limit=profile.g[-1] ** 2 / t[-1],
        g_sq_exponent=np.array(
            [_loglog_slope(tt, profile.g[tail, i] ** 2) for i in range(profile.r)]),
        curvature_slope=_loglog_slope(tt, K_dom),
        scalar_slope=_loglog_slope(tt, curv.scalar_R[tail]),
        R_t2_ladder=curv.scalar_R[idx] * t[idx] ** 2,
    )
