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
    sectional_within: np.ndarray     # (n, r, 2): [min, max] using K_h bounds
    scalar_R: np.ndarray             # (n,)
    soliton_residual_max: float

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
    ladder_t: np.ndarray


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


def soliton_residual(profile: MetricProfile, spec: ProblemSpec) -> float:
    """max |Ric + Hess u| over samples and unit directions.

    Hess u is u_ddot on the normal direction and u_dot * g_dot/g on unit
    factor directions.
    """
    return _soliton_residual(profile, *ricci_components(profile, spec))


def _soliton_residual(profile: MetricProfile, ric_tt, ric_factor) -> float:
    res_tt = np.abs(ric_tt + profile.u_ddot)
    res_factor = np.abs(
        ric_factor + profile.u_dot[:, None] * profile.g_dot / profile.g
    )
    return float(max(res_tt.max(), res_factor.max()))


def scalar_curvature(profile: MetricProfile, spec: ProblemSpec) -> np.ndarray:
    """R = Ric(d/dt) + sum d_i Ric(U_i)."""
    ric_tt, ric_factor = ricci_components(profile, spec)
    return ric_tt + (spec.dims * ric_factor).sum(axis=1)


def scalar_curvature_from_potential(profile: MetricProfile) -> np.ndarray:
    """Second route: R = -(u_ddot + tr L * u_dot), the trace of the steady
    soliton equation."""
    return -(profile.u_ddot + profile.tr_L() * profile.u_dot)


def sectional_curvatures(profile: MetricProfile, spec: ProblemSpec) -> CurvatureReport:
    """All three sectional-curvature families plus Ricci and scalar data.

    The within-factor planes use `default_k_h_bounds`: each Einstein factor
    is modeled as the round sphere of its Einstein constant.
    """
    if np.any(profile.g == 0):
        raise ZeroG("warping function vanishes")
    r = spec.r
    k_h_bounds = default_k_h_bounds(spec)
    g, gd = profile.g, profile.g_dot
    mixed = -profile.g_ddot / g
    rel = gd / g
    cross = -rel[:, :, None] * rel[:, None, :]
    for i in range(r):
        cross[:, i, i] = 0.0

    within = np.zeros((len(profile.t), r, 2))
    for i in range(r):
        lo, hi = k_h_bounds[i]
        within[:, i, 0] = (lo - gd[:, i] ** 2) / g[:, i] ** 2
        within[:, i, 1] = (hi - gd[:, i] ** 2) / g[:, i] ** 2

    ric_tt, ric_factor = ricci_components(profile, spec)
    return CurvatureReport(
        t=profile.t.copy(),
        ric_tt=ric_tt,
        ric_factor=ric_factor,
        sectional_mixed_t=mixed,
        sectional_cross=cross,
        sectional_within=within,
        scalar_R=ric_tt + (spec.dims * ric_factor).sum(axis=1),
        soliton_residual_max=_soliton_residual(profile, ric_tt, ric_factor),
    )


def default_k_h_bounds(spec: ProblemSpec) -> list[tuple[float, float]]:
    """(min, max) of the sectional curvature of each Einstein factor, as
    the round sphere's K_h = lambda_i / (d_i - 1) (0 for d_i = 1, where a
    factor has no 2-planes of its own and the bound is unused)."""
    bounds = []
    for f in spec.factors:
        if f.dim > 1:
            k = f.einstein_const / (f.dim - 1)
        else:
            k = 0.0
        bounds.append((k, k))
    return bounds


def _loglog_slope(t: np.ndarray, v: np.ndarray) -> float:
    return float(np.polyfit(np.log(t), np.log(np.abs(v)), 1)[0])


def asymptotics(profile: MetricProfile, spec: ProblemSpec) -> AsymptoticsReport:
    """Tail fits over the final TAIL_DECADES decades of t."""
    t = profile.t
    if t[-1] / t[0] < 10.0 ** (TAIL_DECADES + 1):
        raise InsufficientTail(
            f"trajectory spans {np.log10(t[-1] / t[0]):.1f} decades of t; "
            f"need at least {TAIL_DECADES + 1:.1f}"
        )
    tail = t >= t[-1] / 10.0**TAIL_DECADES
    tt = t[tail]

    g_gdot = (profile.g * profile.g_dot)[-1]
    g_sq_over_t = (profile.g[-1] ** 2) / t[-1]
    g_sq_exp = np.array(
        [_loglog_slope(tt, profile.g[tail, i] ** 2) for i in range(spec.r)]
    )

    # dominant sectional curvature at large t: the within-factor planes,
    # (K_h - g_dot^2) / g^2 ~ K_h / g^2 (mixed and cross planes fall off a
    # full power of t faster and drown in roundoff first)
    bounds = default_k_h_bounds(spec)
    K_dom = np.zeros(tail.sum())
    for i in range(spec.r):
        if spec.dims[i] > 1:
            K_i = (bounds[i][1] - profile.g_dot[tail, i] ** 2) / profile.g[tail, i] ** 2
            K_dom = np.maximum(K_dom, np.abs(K_i))
    R_all = scalar_curvature(profile, spec)
    curvature_slope = _loglog_slope(tt, K_dom)
    scalar_slope = _loglog_slope(tt, R_all[tail])

    # geometric ladder across the tail for the R * t^2 growth check
    ladder_t = np.geomspace(tt[0], tt[-1], 25)
    idx = np.unique(np.searchsorted(t, ladder_t).clip(0, len(t) - 1))
    ladder = R_all[idx] * t[idx] ** 2

    return AsymptoticsReport(
        g_gdot_limit=g_gdot,
        g_sq_over_t_limit=g_sq_over_t,
        g_sq_exponent=g_sq_exp,
        curvature_slope=curvature_slope,
        scalar_slope=scalar_slope,
        R_t2_ladder=ladder,
        ladder_t=t[idx],
    )
