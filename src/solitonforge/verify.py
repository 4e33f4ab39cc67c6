"""Claim-by-claim numerical verification of a soliton pipeline run.

Each analytic statement about the trajectory, the reconstructed metric,
or its curvature becomes one named check with a measured value and a
tolerance.  Limits as s -> -infinity are realized as intercepts of fits
against L (every relevant quantity approaches its limit linearly in L),
and limits as t -> 0 as Richardson extrapolation from the first times.

The seed-end checks use three |L| windows, one for check (d) (with the
reported-only Q_limits), one for (f) and one for (g) and the Y_i decay
rates.  run_suite evaluates the dense output once per window and fits
every quantity of that window from the same arrays, and each window's
ends are where |L| crosses its bounds on the dense output.  The t = 0
limits need only the profile and the dense trajectory: boundary_checks
computes them and their checks on their own, for a caller that wants no
more than g_i(0), from the fields at exact times t_min 1.6^k.  Neither
the windows nor the Richardson nodes depend on where the steps fall, so
a stepper with longer steps moves the checks only by its own error.
The phase system's own claims, the spectrum at the critical point and
the identity L' = 2 L sum X^2, are checked from `phase.rhs` and
`phase.rhs_jacobian`; that the tail starts on the slow manifold, from
the Radau state at the switch and the graph of `manifold`.  The
curvature signs and decay and the paraboloid end are tail_checks on the
fits of `geometry.asymptotics`, which needs three decades of t, so
run_suite raises InsufficientTail on a shorter run.

Each gated CLI command exits 1 iff one of its builder's checks fails:
run_suite for `verify`; curvature_checks, a curvature report alone, and
in soliton mode tail_checks on its fits, for `curvature`; oracle_checks,
the oracle's deviations and conservation drift, for `oracle`;
ricci_flat_checks, the flatness residuals, for `ricci-flat`; and
boundary_checks per point plus distinct_check across the points for
`sweep`.  Each tolerance is written once, here.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import geometry, manifold, phase, reconstruct
from .errors import IncompleteInputs, TooFewSamples
from .flow import MONOTONE_SLACK, Trajectory
from .geometry import AsymptoticsReport, CurvatureReport
from .model import Mode, ProblemSpec, constants, critical_point
from .reconstruct import MetricProfile

# The floor for L in lyapunov_monotone: L is -1 at the origin, and lower
# only beyond roundoff.
L_FLOOR = -1.0 - 1e-9


@dataclass
class Check:
    """One verified claim: measured value(s) against a tolerance.

    Every check has the same pass rule: measured <= tolerance, and the
    claim's side condition ``requires`` (a sign, a finiteness or a strict
    inequality) holds.  measured is oriented so that smaller is better,
    and a NaN fails.
    """

    name: str
    description: str
    measured: float
    tolerance: float
    details: dict = field(default_factory=dict)
    requires: InitVar[bool] = True
    passed: bool = field(init=False)

    def __post_init__(self, requires: bool) -> None:
        self.passed = bool(self.measured <= self.tolerance and requires)

    def __str__(self) -> str:
        """The one form in which a check is printed, on a PASS or FAIL line."""
        return f"{self.name}: measured {self.measured:.6g} (tol {self.tolerance:.2g})"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _worst(*parts) -> float:
    """The largest part of a measured value; unlike max(), a NaN in any
    part propagates, so it fails the check."""
    return float(np.max(parts))


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


@dataclass
class VerifyReport:
    """All checks plus free-standing diagnostics."""

    checks: list[Check]
    diagnostics: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "diagnostics": {k: _jsonable(v) for k, v in self.diagnostics.items()},
        }

    def summary_lines(self) -> list[str]:
        return [f"[{'PASS' if c.passed else 'FAIL'}] {c} - {c.description}"
                for c in self.checks]


def richardson_extrapolate(values, order: int, parity: str = "none"):
    """Polynomial extrapolation of (t, v) samples to t = 0.

    parity "even" fits a polynomial in t^2 (for fields even about t = 0),
    "none" fits in t.  Returns (limit, error_estimate) where the error
    estimate is the difference between the last two extrapolation orders.
    """
    pts = sorted(((float(t), float(v)) for t, v in values), key=lambda p: p[0])
    need = max(3, order + 1)
    if len(pts) < need:
        raise TooFewSamples(f"need at least {need} samples, got {len(pts)}")
    t = np.array([p[0] for p in pts[: order + 1]])
    v = np.array([p[1] for p in pts[: order + 1]])
    limit, error = _at_zero(t**2 if parity == "even" else t, v)
    return float(limit), float(error)


def _at_zero(x: np.ndarray, v: np.ndarray):
    """The values at 0 of the interpolating polynomials through all the
    nodes x and through all but the last, for v (node,) or each column of
    v (node, column): (limit, |limit - the other|)."""
    fit = np.polynomial.polynomial.polyfit
    limit = fit(x, v, x.size - 1)[0]
    return limit, np.abs(limit - fit(x[:-1], v[:-1], x.size - 2)[0])


# --------------------------------------------------------------------------
# seed-end (s -> -infinity) limit machinery


def _window_states(traj: Trajectory, lo: float, hi: float, n: int = 250):
    """Dense states over the s-window where |L| runs from lo to hi.

    The window's ends are where |L| crosses lo and hi on the dense output,
    not between the samples.  Near the seed |L| ~ e^{2 beta^2 s}, so log |L|
    interpolated linearly over the samples puts them within about 1e-5 of
    |L|, and one Newton step on both ends at once, with d|L|/ds = -2 L
    sum X^2, within about 1e-10.
    """
    absL = np.abs(traj.L)
    lo = max(lo, absL[0])
    hi = min(hi, 0.99 * absL[-1])
    if hi <= lo:
        raise TooFewSamples(f"empty seed-end window |L| in [{lo:g}, {hi:g}]")
    r = traj.r
    target = np.array([lo, hi])
    ends = np.interp(np.log(target), np.log(absL), traj.s)
    y = traj.dense(ends)
    X = y[:r]
    L = np.einsum("ij,ij->j", y, y) - 1.0
    ends -= (L + target) / (2.0 * L * np.einsum("ij,ij->j", X, X))
    np.clip(ends, traj.s[0], traj.s[-1], out=ends)
    s_grid = np.linspace(ends[0], ends[1], n)
    y = traj.dense(s_grid)
    X, Y = y[:r].T, y[r:].T
    L = np.einsum("ij,ij->i", X, X) + np.einsum("ij,ij->i", Y, Y) - 1.0
    return s_grid, X, Y, L


def _intercept_vs_L(L: np.ndarray, v: np.ndarray):
    """Extrapolate v to L = 0 by a linear fit in L; the error estimate is
    the change when a quadratic term is added."""
    lin = np.polynomial.polynomial.polyfit(L, v, 1)[0]
    quad = np.polynomial.polynomial.polyfit(L, v, 2)[0]
    return float(lin), float(abs(lin - quad))


# --------------------------------------------------------------------------
# the suite


def run_suite(
    traj: Trajectory,
    profile: MetricProfile,
    curv: CurvatureReport,
    spec: ProblemSpec,
) -> VerifyReport:
    """Evaluate every checkable claim about a soliton run."""
    if traj is None or profile is None or curv is None:
        raise IncompleteInputs("run_suite requires trajectory, profile and curvature")
    if spec.mode is not Mode.SOLITON:
        raise IncompleteInputs("the verification suite applies to soliton mode")

    # first, so that a run too short for the tail fits is InsufficientTail
    # before a seed-end window of it can fail
    asym = geometry.asymptotics(profile, curv)
    c = constants(spec)
    beta, b2 = c.beta, c.beta ** 2
    d = spec.dims
    sqrt_d = np.sqrt(d)
    r = spec.r
    L0 = abs(traj.L[0])
    checks: list[Check] = []
    diag: dict = {"kappa": traj.kappa_estimate, "termination": traj.termination}

    # (a) monotone Lyapunov in (-1, 0)
    dL = np.diff(traj.L)
    slack = MONOTONE_SLACK * (1.0 + np.abs(traj.L[:-1]))
    worst = float((dL - slack).max())
    checks.append(Check(
        "lyapunov_monotone",
        "L strictly decreasing (up to roundoff plateaus) and within (-1, 0)",
        measured=worst,
        tolerance=0.0,
        requires=traj.L[0] < 0 and traj.L.min() > L_FLOOR,
        details={"max_increase": float(dL.max()), "L_first": float(traj.L[0])},
    ))

    # (b) omega-limit at the origin, kappa = -1
    norm_end = float(np.sqrt(traj.X[-1] @ traj.X[-1] + traj.Y[-1] @ traj.Y[-1]))
    kap_err = abs(traj.L[-1] + 1.0)
    checks.append(Check(
        "origin_limit",
        "terminal state at the origin with L = -1",
        measured=_worst(norm_end, kap_err),
        tolerance=1e-6,
        details={"terminal_norm": norm_end, "kappa_plus_one": kap_err},
    ))

    # (c) X_i / Y_i^2 -> 1/sqrt(d_i) at the origin end
    ratio_end = traj.X[-1] / traj.Y[-1] ** 2
    dev_c = float(np.abs(ratio_end - 1.0 / sqrt_d).max())
    checks.append(Check(
        "origin_ratio",
        "X_i / Y_i^2 at the origin end equals 1/sqrt(d_i)",
        measured=dev_c,
        tolerance=1e-4,
        details={"ratios": ratio_end, "targets": 1.0 / sqrt_d,
                 "sample_s": float(traj.s[-1])},
    ))

    # the tail starts on the slow manifold: the Radau state at the switch
    # lies on the graph X = h(Y^2) to roundoff
    for tail in traj.segments[1:]:
        k = int(np.searchsorted(traj.s, tail.s[0]))
        checks.append(Check(
            "slow_manifold_offset",
            "the state where the tail leaves the Radau stepper lies on the slow "
            "manifold X = h(Y^2)",
            measured=manifold.offset(tuple(d.tolist()), traj.X[k], traj.Y[k]),
            tolerance=1e-12,
            details={"switch_s": float(traj.s[k])},
        ))

    # (d) X_i / Y_i^2 -> 1/(sqrt(d_i)(1 + beta^2)) at the seed end (i > 1)
    if r > 1:
        # window far enough from the seed that the off-manifold transient
        # (decaying like |L|^((1+b^2)/(2 b^2))) is below the tolerance
        kappa_tr = 6000.0 ** (2.0 * b2 / (1.0 + b2))
        lo = min(kappa_tr * L0, 3e-3)
        hi = min(10.0 * lo, 3e-2)
        _, X, Y, L = _window_states(traj, lo, hi)
        devs, errs, limits, q_limits = [], [], [], []
        for i in range(1, r):
            ratio = X[:, i] / Y[:, i] ** 2
            lim, err = _intercept_vs_L(L, ratio)
            target = 1.0 / (sqrt_d[i] * (1.0 + b2))
            limits.append(lim)
            devs.append(abs(lim - target))
            errs.append(err)
            # reported only: the limit of (X_i/Y_i^2 - target)/L
            q_limits.append(_intercept_vs_L(L, (ratio - target) / L)[0])
        diag["Q_limits"] = q_limits
        checks.append(Check(
            "seed_ratio",
            "X_i / Y_i^2 extrapolates to 1/(sqrt(d_i)(1 + beta^2)) at the seed end",
            measured=_worst(*devs),
            tolerance=1e-3,
            details={"limits": limits, "fit_errors": errs,
                     "window_absL": [lo, hi]},
        ))

    # (e) X_1 < beta everywhere
    x1_max = float(traj.X[:, 0].max())
    checks.append(Check(
        "x1_below_beta",
        "X_1 stays strictly below beta",
        measured=x1_max - beta,
        tolerance=0.0,
        requires=x1_max < beta,
        details={"beta": beta},
    ))

    # (f) limit of (X_1 - beta)/L equals beta*rho/(1 + beta^2)
    _, X, Y, L = _window_states(traj, 2.0 * L0, min(30.0 * L0, 0.05))
    xbl, xbl_err = _intercept_vs_L(L, (X[:, 0] - beta) / L)
    rho, rho_err = _intercept_vs_L(
        L, (np.einsum("ij,ij->i", X, X) + Y[:, 0] ** 2 - 1.0) / L
    )
    target_f = beta * rho / (1.0 + b2)
    dev_f = abs(xbl - target_f)
    diag["rho_estimate"] = rho
    checks.append(Check(
        "x1_minus_beta_over_L",
        "(X_1 - beta)/L limit consistent with beta*rho/(1 + beta^2)",
        measured=dev_f,
        tolerance=1e-3,
        details={"limit": xbl, "rho": rho, "target": target_f,
                 "fit_errors": [xbl_err, rho_err]},
    ))

    # (g) L ~ e^{2 beta^2 s}: fitted exponent and finite negative limit
    s, X, Y, L = _window_states(traj, 1.5 * L0, min(50.0 * L0, 0.05))
    # an L >= 0 in the window gives a nan exponent, which fails the check
    with np.errstate(invalid="ignore", divide="ignore"):
        expo_L = float(np.polyfit(s, np.log(-L), 1)[0])
    lam_hat, lam_err = _intercept_vs_L(L, np.exp(-2.0 * b2 * s) * L / spec.gauge_C)
    dev_g = abs(expo_L - 2.0 * b2) / (2.0 * b2)
    diag["L_exponent"] = expo_L
    diag["L_scaled_limit"] = lam_hat
    checks.append(Check(
        "L_decay_rate",
        "L decays like e^{2 beta^2 s} with a finite negative limit of "
        "e^{-2 beta^2 s} L",
        measured=dev_g,
        tolerance=0.02,
        requires=lam_hat > 0.0,
        details={"exponent": expo_L, "target": 2.0 * b2,
                 "scaled_limit_over_C": lam_hat},
    ))

    # decay exponents of Y_i (i > 1), part of the same remark and window
    if r > 1:
        expos = [float(np.polyfit(s, np.log(Y[:, i]), 1)[0]) for i in range(1, r)]
        diag["Y_exponents"] = expos
        checks.append(Check(
            "Y_decay_rate",
            "Y_i grows like e^{beta^2 s} out of the seed (i > 1)",
            measured=_worst(*(abs(e - b2) / b2 for e in expos)),
            tolerance=0.05,
            details={"exponents": expos, "target": b2},
        ))

    # (h) boundary limits at t = 0 by Richardson extrapolation
    boundary, b_checks = boundary_checks(traj, profile)
    checks.extend(b_checks)
    diag["boundary"] = boundary

    # (i) inequality ledger: H < 1 and L + 1 - H < 0
    sx2 = np.einsum("ij,ij->i", traj.X, traj.X)
    sy2 = np.einsum("ij,ij->i", traj.Y, traj.Y)
    lh = sx2 + sy2 - traj.H  # L + 1 - H, formed without cancellation in L
    # near the origin Y^2 and H cancel in it, so it is resolved to a few
    # ulps of H
    noise = 8.0 * np.finfo(float).eps * np.abs(traj.H)
    h_max = float(traj.H.max())
    lh_worst = float((lh - noise).max())
    checks.append(Check(
        "inequality_ledger",
        "H < 1 and L + 1 - H < 0 at every sample",
        measured=_worst(h_max - 1.0, lh_worst),
        tolerance=0.0,
        requires=h_max < 1.0,
        details={"H_max": h_max, "L_plus_1_minus_H_max": float(lh.max())},
    ))

    # (j) nonnegative Ricci and soliton-equation residual
    checks.extend(curvature_checks(curv))

    # (k) the potential's boundary value by two routes
    u0_quad = -(traj.H[0] - 1.0) / (2.0 * b2)  # gauge u(s_0) = 0 + exact tail
    c0 = profile.u[0] - float((d * np.log(profile.g[0])).sum())
    log_l = 0.0
    for i in range(1, r):
        log_l += d[i] * math.log(boundary["g_0"][i])
    d1, lam1 = d[0], spec.lambdas[0]
    u0_prod = (
        c0
        + log_l
        + 0.5 * d1 * math.log(lam_hat)
        + d1 * math.log(math.sqrt(d1 * lam1) / c.beta_hat)
    )
    dev_k = abs(u0_prod - u0_quad) / (1.0 + abs(u0_quad))
    diag["u0_quadrature"] = u0_quad
    diag["u0_product_formula"] = u0_prod
    checks.append(Check(
        "potential_boundary_value",
        "u(0) from the tail quadrature matches the product formula",
        measured=dev_k,
        tolerance=1e-3,
        requires=math.isfinite(u0_prod),
        details={"u0_quadrature": u0_quad, "u0_product": u0_prod},
    ))

    # (l) the critical point is a zero of the field with the closed-form
    # spectrum, and L' = 2 L sum X^2 holds on at most 200 strided samples;
    # one field evaluation covers the critical point (row 0) and the samples
    crit = critical_point(spec)
    stride = -(-len(traj.s) // 200)
    X, Y, L = traj.X[::stride], traj.Y[::stride], traj.L[::stride]
    F = phase.rhs(np.vstack([crit, np.hstack([X, Y])]), sqrt_d)
    eig = np.sort(np.linalg.eigvals(phase.rhs_jacobian(crit, sqrt_d)).real)
    closed = np.sort([b2 - 1.0] * r + [b2] * (r - 1) + [2.0 * b2])
    dL = 2.0 * (np.einsum("ij,ij->i", X, F[1:, :r])
                + np.einsum("ij,ij->i", Y, F[1:, r:]))
    identity = np.abs(dL - 2.0 * L * np.einsum("ij,ij->i", X, X)) / (1.0 + np.abs(L))
    checks += [
        Check("spectrum", "the critical point is a zero of the field with "
              "spectrum beta^2 - 1 (r times), beta^2 (r - 1 times), 2 beta^2",
              _worst(np.abs(eig - closed).max(), np.abs(F[0]).max()), 1e-10,
              {"eigenvalues": eig, "closed_form": closed}),
        Check("lyapunov_identity", "L' = 2 L sum X^2 along the flow, relative "
              "to 1 + |L|", _worst(identity), 1e-12, {"samples": int(L.size)}),
    ]

    # (m) curvature signs and decay, and the paraboloid end
    checks.extend(tail_checks(asym, curv, spec))

    return VerifyReport(checks=checks, diagnostics=diag)


def curvature_checks(curv: CurvatureReport) -> list[Check]:
    """Nonnegative Ricci and the steady soliton equation Ric + Hess u = 0.

    measured is -min Ric for the first, so that it passes at or below
    the tolerance like the rest.
    """
    return [
        Check("ricci_nonnegative", "smallest Ricci eigenvalue is nonnegative",
              -curv.min_ricci(), 1e-8),
        Check("soliton_residual", "max |Ric + Hess u| over samples and directions",
              curv.soliton_residual_max, 1e-6),
    ]


def tail_checks(asym: AsymptoticsReport, curv: CurvatureReport,
                spec: ProblemSpec) -> list[Check]:
    """The soliton's curvature and its paraboloid end, from the tail fits
    of `geometry.asymptotics` and the curvature report they came from.

    For r > 1 the planes across two factors have K < 0 at t >= 100 t_0
    (measured: the largest such K); for r = 1 every sectional curvature is
    positive on the first half of the samples and >= -1e-8 after it
    (measured: minus the smallest on the first half).  R t^2 must rise
    from rung to rung of the ladder, by more than 10x in all; measured is
    its largest fall between two rungs.  Both are sign claims, with
    tolerance 0: the other measured values converge as the integration
    tolerances shrink, but these follow where the tail's samples, and its
    last sample, happen to fall.
    """
    if spec.r > 1:
        large = curv.t >= 100.0 * curv.t[0]
        sign = _worst(curv.sectional_cross[large][:, ~np.eye(spec.r, dtype=bool)])
        floor = True
    else:
        planes = np.stack([curv.sectional_mixed_t, curv.sectional_within])
        sign = -planes[:, curv.t <= curv.t[len(curv.t) // 2]].min()
        floor = planes.min() >= -1e-8
    ladder = asym.R_t2_ladder
    fall = _worst(-np.diff(ladder))
    g_gdot = spec.lambdas / math.sqrt(-spec.gauge_C)  # the limit of g_i g_i'
    return [
        Check("curvature_signs", "K < 0 across two factors at large t (r > 1); "
              "every K > 0 (r = 1)", sign, 0.0, requires=sign < 0 and floor),
        Check("curvature_decay", "|K| decays like 1/t: log-log slope + 1",
              abs(asym.curvature_slope + 1.0), 0.1),
        Check("scalar_decay", "R decays like 1/t: log-log slope + 1",
              abs(asym.scalar_slope + 1.0), 0.1),
        Check("scalar_growth", "R t^2 increases along the tail ladder, by more "
              "than 10x", fall, 0.0,
              requires=fall < 0 and 0 < 10.0 * ladder[0] < ladder[-1]),
        Check("g_sq_exponent", "g_i^2 grows like t: log-log slope - 1",
              _worst(np.abs(asym.g_sq_exponent - 1.0)), 0.05),
        Check("paraboloid_g_gdot", "g_i g_i' -> lambda_i / sqrt(-C)",
              _worst(np.abs(asym.g_gdot_limit - g_gdot)), 1e-3),
        Check("paraboloid_g_sq_over_t", "g_i^2 / t -> 2 lambda_i / sqrt(-C), "
              "relative", _worst(np.abs(asym.g_sq_over_t_limit - 2.0 * g_gdot)
                                 / (2.0 * g_gdot)), 1e-2),
        Check("scalar_two_routes", "R from the Ricci trace matches -(u'' + tr L "
              "u'), relative to max |R|",
              curv.scalar_R_gap / np.abs(curv.scalar_R).max(), 1e-6),
    ]


def oracle_checks(devs: dict, drift: float) -> list[Check]:
    """The independent second-order solve against the profile: the largest
    relative deviation of `oracle.compare_profiles`, and the drift of the
    solve's conserved quantity."""
    return [
        Check("oracle_deviation", "max relative deviation of the oracle from "
              "the profile", _worst(*devs.values()), 1e-6, details=devs),
        Check("conservation_drift", "drift of the oracle's conserved quantity",
              drift, 1e-8),
    ]


def ricci_flat_checks(traj: Trajectory, profile: MetricProfile, ric) -> list[Check]:
    """Ricci-flat mode's claims, each named after the summary key that
    `ricci-flat` fills with its measured value; ric is (ric_tt, ric_factor)."""
    return [Check(name, description, _worst(*(np.abs(a).max() for a in parts)), tol)
            for name, description, parts, tol in (
                ("max_abs_L", "L = 0 along the flow", [traj.L], 1e-8),
                ("max_abs_H_minus_1", "H = 1 along the flow", [traj.H - 1.0], 1e-8),
                ("max_abs_ricci", "every Ricci component vanishes", ric, 1e-6),
                ("max_abs_u_dot", "u' = 0: the potential is trivial",
                 [profile.u_dot], 1e-12))]


def distinct_check(values, errors) -> Check:
    """A sweep's claim that its points are distinct solutions: their g_i(0)
    values differ pairwise by more than the sum of the two extrapolation
    error estimates.  measured is the largest overlap, err_a + err_b -
    |value_a - value_b|, over the pairs, and must be negative."""
    v, e = np.asarray(values), np.asarray(errors)
    a, b = np.triu_indices(v.size, 1)
    overlap = _worst(e[a] + e[b] - np.abs(v[a] - v[b]))
    return Check("pairwise_distinct", "g_i(0) values differ beyond their "
                 "combined error estimates", overlap, 0.0, requires=overlap < 0)


# profile fields extrapolated to t = 0, each with its order of derivative
_BOUNDARY_FIELDS = (("g", 0), ("g_dot", 1), ("g_ddot", 2), ("g_dddot", 3),
                    ("u_dot", 1), ("u_ddot", 2))


def _boundary_nodes(profile: MetricProfile) -> np.ndarray:
    """The times of the Richardson extrapolation to t = 0: t_min 1.6^k for
    k = 0..4, those of them inside the profile."""
    t = profile.t[0] * 1.6 ** np.arange(5)
    return t[t <= profile.t[-1]]


def boundary_checks(traj: Trajectory, profile: MetricProfile):
    """Richardson extrapolations of the profile fields to t = 0, and the
    smooth-closure checks on them: (boundary limits, checks).

    The fields are evaluated at the exact `_boundary_nodes`, on the dense
    trajectory (`reconstruct.fields_at_t`), so the limits do not depend on
    where the steps fall.  The parity rule: g_1 is odd about t = 0 and
    every other g_i, like u, is even, so the k-th derivative of g_i is
    extrapolated in t^2 iff k + [i = 1] is even.
    """
    t = _boundary_nodes(profile)
    if t.size < 3:
        raise TooFewSamples(f"need at least 3 Richardson nodes, got {t.size}")
    fields = reconstruct.fields_at_t(traj, profile, t)
    # every field's columns side by side (u's: one column, not one per
    # factor), each fitted in t and in t^2, and each keeping the fit its
    # parity asks for
    columns = np.column_stack([fields[name] for name, _ in _BOUNDARY_FIELDS])
    r = profile.r
    odd = np.concatenate([(k + (np.arange(r) == 0)) % 2 if fields[name].ndim == 2
                          else [k % 2] for name, k in _BOUNDARY_FIELDS]) == 1
    fits = np.where(odd, _at_zero(t, columns), _at_zero(t * t, columns))
    boundary, errors = {}, {}
    start = 0
    for name, _ in _BOUNDARY_FIELDS:
        if fields[name].ndim == 2:
            limits, errs = fits[:, start:start + r].tolist()
            start += r
        else:
            limits, errs = fits[:, start].tolist()
            start += 1
        boundary[f"{name}_0"] = limits
        errors[name] = errs
    boundary["g_0_err"] = errors["g"]
    g_0, gd_0 = boundary["g_0"], boundary["g_dot_0"]
    gdd_0, gddd_0 = boundary["g_ddot_0"], boundary["g_dddot_0"]
    ud_0, udd_0 = boundary["u_dot_0"], boundary["u_ddot_0"]

    checks = [
        Check("collapse_g1",
              "g_1(0) = 0 and g_1'(0) = 1 (smooth collapse of the sphere factor)",
              _worst(abs(g_0[0]), abs(gd_0[0] - 1.0)), 1e-3,
              {"g1_0": g_0[0], "g1_dot_0": gd_0[0],
               "errors": [errors["g"][0], errors["g_dot"][0]]}),
        Check("collapse_g1_ddot", "g_1''(0) = 0", abs(gdd_0[0]), 1e-2,
              {"error": errors["g_ddot"][0]}),
        Check("potential_boundary_derivatives", "u'(0) = 0 with u''(0) finite",
              abs(ud_0), 1e-3, {"u_dot_0": ud_0, "u_ddot_0": udd_0,
                                "errors": [errors["u_dot"], errors["u_ddot"]]},
              requires=math.isfinite(udd_0)),
    ]
    if profile.r > 1:
        checks.append(Check(
            "noncollapsing_factors",
            "g_i(0) > 0 and g_i'(0) = 0 with finite g_i''(0) (i > 1)",
            _worst(*(abs(v) for v in gd_0[1:])), 1e-3,
            {"g_0": g_0[1:], "g_dot_0": gd_0[1:], "g_ddot_0": gdd_0[1:]},
            requires=(all(v > 0 for v in g_0[1:])
                      and all(math.isfinite(v) for v in gdd_0[1:] + gddd_0[1:]))))
    return boundary, checks
