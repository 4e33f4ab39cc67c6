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

The field has 2r + 1 ≤ 7 components, so it is evaluated on Python
floats, where numpy's per-call overhead would outweigh the arithmetic:
``t_field`` builds it for the factors' d_i and lambda_i as a
straight-line row-stack kernel, one local per component, compiled once
per r, and ``t_jacobian`` its analytic Jacobian, the same way.
The system is defined only where every g_i is positive: a start with a
g_i that is not finite and positive, or with a non-finite g_dot or
u_dot, is rejected with ``ValidationError`` naming the field; a g_i that
reaches 0 inside the field or its Jacobian (or whose square or cube
underflows to 0 there), or a step end with a g_i <= 0 or a non-finite
entry, raises ``BlowUp``.  A run goes forward over a window with length:
a t_end that is not finite and beyond the start is ``OutOfRange``,
raised before the field is called.

The integrator is the package's Radau IIA stepper (``radau.Radau``) at
rtol = atol = 1e-12, the one that runs the flow; the t-space system is
autonomous, so the stepper takes it as it is, and the step-end test
above runs after every accepted step.  The run's dense output is the
stepper's own interpolant, a ``radau.RadauSegment`` in t.  Any failure
of a step, a step size below the spacing of floats at t among them, is
``StepLimitExceeded``.  The cross-check stays independent of the flow's
integration: the same stepper runs a different system, second order in
t against the first-order phase flow in s; and the tests check the
oracle against scipy's explicit DOP853 on the same system.  Each run
builds its field once, through the module attribute ``t_field``, and
loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BlowUp, NoOverlap, OutOfRange, StepLimitExceeded, ValidationError
from .model import Mode, ProblemSpec
from .phase import _field_factory, _rows_body, _stacked
from .radau import Radau, RadauSegment, run_segment
from .reconstruct import MetricProfile

# rtol and atol of the integration
TOL = 1e-12


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
    dense: RadauSegment   # over [t0, t_end]

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

    Each factor sum is taken left to right over the factors, as the
    field of ``t_field`` sums its dot products.  The potential and
    kinetic sums are so those of numpy's ``sum`` of fewer than eight
    terms, bit for bit; tr L agrees with a BLAS dot, whose summation order is not fixed,
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


@lru_cache(maxsize=None)
def _t_factory(r: int):
    """The factory of ``t_field``'s kernels on r factors, compiled once per r."""
    g, gd = [f"g{i}" for i in range(r)], [f"gd{i}" for i in range(r)]
    u_dd = " + ".join(["0.0"] + [f"d{i} * p{i}" for i in range(r)])
    body = [f"q{i} = gd{i} / g{i}" for i in range(r)]
    body.append(" + ".join(["tr_L = 0.0"] + [f"d{i} * q{i}" for i in range(r)]))
    body += [f"p{i} = lam{i} / (g{i} * g{i}) - tr_L * q{i} + ud * q{i} + q{i} * q{i}"
             for i in range(r)]
    return _field_factory({"d": r, "lam": r}, "rows", _rows_body(
        g + gd + ["ud"], body, gd + [f"p{i} * g{i}" for i in range(r)] + [u_dd]))


def t_field(d: list, lam: list):
    """The t-space vector field of the factors' d_i and lambda_i, as
    ``fun(y)`` on one packed state y = [g, g_dot, u_dot] (2r + 1,) or a
    stack of them (k, 2r + 1), returning an array of the same shape.

    The field is a straight-line row-stack kernel (``phase._rows_body``),
    with d_i and lambda_i bound as closure variables.  Its operations are
    those of the numpy expressions

        rel = g_dot / g;  tr L = d . rel
        gdd / g = lam / g^2 - (tr L) rel + u_dot rel + rel^2
        u_ddot = d . (gdd / g)

    in the same order, with both dot products summed left to right from
    0.0.  numpy would send them to a BLAS dot, whose summation order is
    not fixed, so the values agree with the numpy form to a few ulps
    rather than bit for bit.  A g_i that is 0, or whose square underflows
    to 0, raises ``ZeroDivisionError``.
    """
    return _stacked(_t_factory(len(d))(d, lam))


@lru_cache(maxsize=None)
def _t_jacobian_factory(r: int):
    """The factory of ``t_jacobian``'s kernels on r factors, compiled once
    per r."""
    n = 2 * r + 1
    state = [f"g{i}" for i in range(r)] + [f"gd{i}" for i in range(r)] + ["ud"]
    body = [f"{''.join(f'{x}, ' for x in state)}= v"]
    body += [f"q{i} = gd{i} / g{i}" for i in range(r)]
    body.append(" + ".join(["tr_L = 0.0"] + [f"d{i} * q{i}" for i in range(r)]))
    body += [f"k{i} = ud - tr_L + 2.0 * q{i}" for i in range(r)]
    body += [f"e{i} = d{i} * q{i} / g{i}" for i in range(r)]
    body += [f"f{i} = d{i} / g{i}" for i in range(r)]
    rows = [["1.0" if j == r + i else "0.0" for j in range(n)] for i in range(r)]
    rows += [[f"e{j} * gd{i}" + (f" - lam{i} / (g{i} * g{i}) - q{i} * q{i}" if i == j else "")
              for j in range(r)]
             + [(f"k{i} - " if i == j else "-") + f"f{j} * gd{i}" for j in range(r)]
             + [f"gd{i}"] for i in range(r)]
    rows.append([f"d{j} * (-2.0 * lam{j} / (g{j} * g{j} * g{j}) - k{j} * q{j} / g{j})"
                 f" + e{j} * tr_L" for j in range(r)]
                + [f"d{j} * k{j} / g{j} - f{j} * tr_L" for j in range(r)] + ["tr_L"])
    body.append(f"return [{', '.join(x for row in rows for x in row)}]")
    return _field_factory({"d": r, "lam": r}, "v", body)


def t_jacobian(d: list, lam: list):
    """The analytic Jacobian of ``t_field(d, lam)``, as ``jac(y)`` on one
    packed state (2r + 1,), returning the (2r + 1, 2r + 1) matrix.

    With q_i = g_dot_i / g_i, tr L = d . q, k_i = u_dot - tr L + 2 q_i,
    e_j = d_j q_j / g_j and f_j = d_j / g_j, the g rows are dg_i/dg_dot_i
    = 1; the g_dot_i row is e_j g_dot_i - [i = j] (lambda_i / g_i^2 +
    q_i^2) in g_j, [i = j] k_i - f_j g_dot_i in g_dot_j and g_dot_i in
    u_dot; the u_dot row is d_j (-2 lambda_j / g_j^3 - k_j q_j / g_j) + e_j
    tr L in g_j, d_j k_j / g_j - f_j tr L in g_dot_j and tr L in u_dot.  A
    g_i that is 0, or whose cube underflows to 0, raises
    ``ZeroDivisionError``.
    """
    n = 2 * len(d) + 1
    kernel = _t_jacobian_factory(len(d))(d, lam)
    return lambda y: np.array(kernel(y.tolist())).reshape(n, n)


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
    """Adaptive integration of the t-space system from `state` forward to
    t_end.

    The start must have every g_i finite and positive and a finite g_dot
    and u_dot; any other raises ``ValidationError`` naming the field.  A
    t_end that is not finite and beyond state.t raises ``OutOfRange``.
    The field is ``t_field(d, lam)`` and its Jacobian ``t_jacobian(d,
    lam)``, each built once; a g_i that reaches 0 inside either ends the
    run with ``BlowUp``, as does a step end with a g_i <= 0 or a
    non-finite entry.  Any other failure of a step, a step size below the
    spacing of floats at t among them, raises ``StepLimitExceeded``.
    """
    _check_start(state)
    t0, t_end = float(state.t), float(t_end)
    if not (math.isfinite(t_end) and t_end > t0):
        raise OutOfRange(f"oracle window: t_end = {t_end:g} must be finite and "
                         f"beyond the start t = {t0:g}")
    r = spec.r
    d, lam = spec.dims.tolist(), spec.lambdas.tolist()

    def left(t, y) -> bool:
        """A g_i <= 0 or a non-finite entry at a step end, on Python floats."""
        v = y.tolist()
        return not (all(x > 0 for x in v[:r]) and all(map(math.isfinite, v)))

    # the stepper's finiteness checks report overflow as a ValueError, so
    # numpy's own warnings would only repeat it
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            solver = Radau(t_field(d, lam), t_jacobian(d, lam), t0, state.as_vector(),
                           t_end, TOL, TOL)
            dense, stopped = run_segment(solver, left)
    except ZeroDivisionError as exc:   # g_i, or g_i^2 or g_i^3 by underflow, reached 0
        raise BlowUp(f"a warping function reached 0 before t = {t_end:g}") from exc
    except ValueError as exc:          # every failure of a step
        raise StepLimitExceeded(f"oracle integration failed: {exc}") from None
    if stopped:
        raise BlowUp(f"a warping function left (0, inf) before t = {t_end:g}")
    y = dense.samples.T

    return OracleRun(
        t=dense.ts,
        g=y[:r].T,
        g_dot=y[r:2 * r].T,
        u_dot=y[-1],
        conservation=conservation_quantity(y, spec),
        dense=dense,
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
