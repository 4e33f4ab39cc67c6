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

The integrator is DOP853 (Hairer, Nørsett & Wanner, *Solving ODEs I*,
§II.10) at rtol = atol = 1e-12 with a terminal collapse event at
min(g) = 1e-12.  It runs in the step loop of ``_dop853`` rather than in
scipy's generic initial-value driver, whose overhead outweighed the
arithmetic: two wrapper layers and an ``np.asarray`` per field call, an
event callback per step, and one interpolant object per step, evaluated
one segment at a time.  The loop reads the tableau from scipy's
``DOP853`` class (``A``, ``B``, ``E3``, ``E5``, ``D``, ``A_EXTRA`` and
``n_stages``) and repeats scipy's arithmetic call for call: each stage
as ``y + np.dot(K[:s].T, a) * h`` on a stage array of the same shape,
the error norm, step-size control and initial step of scipy's
``RungeKutta`` and ``DOP853`` on the same numpy scalars, and the
interpolant of its ``Dop853DenseOutput``.  Since every operation and
operand is the same, every sample, interpolant value and deviation is
that of scipy's DOP853 run with dense output and the same event, bit
for bit; the tests check this against scipy's driver itself.  The stage
abscissae ``t + c h`` are not formed, since the field is autonomous.

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

# rtol and atol of the integration
TOL = 1e-12
# the g_i at which the run counts as collapsed
COLLAPSE = 1e-12
# scipy's step-size control for explicit Runge-Kutta pairs; the exponent
# is -1 / (order of the error estimator + 1), DOP853's being 7
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8


@dataclass
class SecondOrderState:
    """State of the t-space system at one abscissa."""

    t: float
    g: np.ndarray
    g_dot: np.ndarray
    u_dot: float

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.g, self.g_dot, [self.u_dot]])


class Dop853Dense:
    """Piecewise DOP853 interpolant over the accepted steps.

    Step k covers [ts[k], ts[k+1]]; with x = (t - ts[k]) / (ts[k+1] -
    ts[k]) its value is scipy's ``Dop853DenseOutput`` nesting of the
    step's seven coefficient rows F[k], alternately multiplied by x and 1
    - x, plus samples[k].  A call evaluates all abscissae in one pass, in
    scipy's order of operations, and picks each one's step as
    ``OdeSolution`` does: an abscissa on a step boundary uses the earlier
    step and one outside the range extrapolates from the nearest end step.
    The values are therefore those of scipy's ``OdeSolution`` over the
    same steps, bit for bit.
    """

    def __init__(self, ts: np.ndarray, samples: np.ndarray, F: np.ndarray) -> None:
        self.ts = ts             # (step + 1,)
        self.samples = samples   # (step + 1, n)
        self.F = F               # (step, 7, n)

    def __call__(self, t) -> np.ndarray:
        """States at the N abscissae of a 1-D array: shape (n, N)."""
        t = np.asarray(t, dtype=float)
        ts, last = self.ts, self.ts.size - 2
        if ts[0] == ts[-1]:      # a run of length 0: its one state
            return np.repeat(self.samples[:1].T, t.size, axis=1)
        if ts[-1] > ts[0]:
            k = np.searchsorted(ts, t, side="left") - 1
            np.clip(k, 0, last, out=k)
        else:                    # a backward run
            k = last - np.clip(np.searchsorted(ts[::-1], t, side="right") - 1, 0, last)
        t_old = ts[k]
        x = ((t - t_old) / (ts[k + 1] - t_old))[:, None]
        y = np.zeros((t.size, self.samples.shape[1]))
        for i, j in enumerate(range(self.F.shape[1] - 1, -1, -1)):
            y += self.F[k, j]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.samples[k]
        return y.T


@dataclass
class OracleRun:
    """Samples of a second-order integration plus its dense output."""

    t: np.ndarray
    g: np.ndarray
    g_dot: np.ndarray
    u_dot: np.ndarray
    conservation: np.ndarray
    dense: Dop853Dense   # over [t0, t_end]

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
    A step size below ten ulps of t raises ``StepLimitExceeded``.
    """
    _check_start(state)
    r = spec.r
    try:
        t, y, F = _dop853(state.as_vector(), float(state.t), float(t_end), spec)
    except ZeroDivisionError as exc:   # g_i, or g_i^2 by underflow, reached 0
        raise BlowUp(f"a warping function reached 0 before t = {t_end:g}") from exc
    if not np.all(np.isfinite(y)):
        raise BlowUp(f"a warping function left (0, inf) before t = {t_end:g}")

    return OracleRun(
        t=t,
        g=y[:r].T,
        g_dot=y[r:2 * r].T,
        u_dot=y[-1],
        conservation=conservation_quantity(y, spec),
        dense=Dop853Dense(t, y.T, F),
    )


def _norm(x: np.ndarray):
    """The 2-norm of a 1-D array as ``np.linalg.norm`` computes it, a numpy
    scalar, without its argument handling."""
    return np.sqrt(x.dot(x))


def _rms(x: np.ndarray):
    """scipy's RMS norm."""
    return _norm(x) / x.size ** 0.5


def _initial_step(y0, f0, t0, t_bound, direction, d, lam):
    """scipy's ``select_initial_step`` (Hairer, Nørsett & Wanner, *Solving
    ODEs I*, §II.4) at error-estimator order 7, rtol = atol = TOL and no
    maximum step, on the same numpy scalars."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = TOL + np.abs(y0) * TOL
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.array(t_field((y0 + h0 * direction * f0).tolist(), d, lam))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _dop853(y0, t0, t_bound, spec):
    """DOP853 from (t0, y0) to t_bound on ``t_field``: the accepted step
    ends t (N,), the states there as an (n, N) stack, and each step's
    seven dense-output coefficient rows as a (N - 1, 7, n) stack.

    The tableau is that of scipy's ``DOP853`` class, used as it stands;
    every array operation is scipy's, on arrays of the same shapes and
    layouts, so every value is bit for bit that of scipy's driver with
    method DOP853, rtol = atol = TOL, dense output and a terminal event
    at min(g) = COLLAPSE.  Raises ``StepLimitExceeded`` when the step
    size falls below ten ulps of t, or is NaN (on which scipy's loop
    rejects steps without end), and ``BlowUp`` when the collapse event
    fires: a sign change of min(g) - COLLAPSE between two step ends, an
    end at 0 included (scipy then locates the event time, which the run
    has no use for).  The field's ``ZeroDivisionError`` propagates.
    """
    from scipy.integrate import DOP853

    r = spec.r
    d, lam = spec.dims.tolist(), spec.lambdas.tolist()
    A, B, E3, E5, D = DOP853.A, DOP853.B, DOP853.E3, DOP853.E5, DOP853.D
    stages = DOP853.n_stages
    direction = 1.0 if t_bound >= t0 else -1.0
    n = y0.size
    # rows: the stages, f at the step end, then the dense output's extra
    # stages; each stage reads the rows before it through a transposed view
    K = np.empty((stages + 1 + len(DOP853.A_EXTRA), n))
    main = [(s, K[:s].T, A[s, :s]) for s in range(1, stages)]
    extra = [(s, K[:s].T, a[:s])
             for s, a in enumerate(DOP853.A_EXTRA, start=stages + 1)]
    K_B, K_E = K[:stages].T, K[:stages + 1].T

    t, y = t0, y0
    f = np.array(t_field(y0.tolist(), d, lam))
    h_abs = _initial_step(y0, f, t0, t_bound, direction, d, lam)
    g = float(y0[:r].min()) - COLLAPSE
    if t0 == t_bound:   # scipy's run of length 0: one constant segment
        if g == 0:
            raise BlowUp(f"a warping function left (0, inf) before t = {t_bound:g}")
        return np.array([t0, t0]), np.vstack([y0, y0]).T, np.zeros((1, 3 + len(D), n))
    ts, ys, Fs = [t0], [y0], []
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:   # a NaN step size, too, ends the run
                raise StepLimitExceeded(
                    f"oracle integration failed: {DOP853.TOO_SMALL_STEP}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            K[0] = f
            for s, KT, a in main:
                K[s] = t_field((y + np.dot(KT, a) * h).tolist(), d, lam)
            y_new = y + h * np.dot(K_B, B)
            K[stages] = t_field(y_new.tolist(), d, lam)

            scale = TOL + np.maximum(np.abs(y), np.abs(y_new)) * TOL
            error_norm = _error_norm(np.dot(K_E, E5) / scale,
                                     np.dot(K_E, E3) / scale, h)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        # the step's interpolant (Dop853DenseOutput), before the event test
        for s, KT, a in extra:
            K[s] = t_field((y + np.dot(KT, a) * h).tolist(), d, lam)
        F = np.empty((3 + len(D), n))
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (K[stages] + K[0])
        F[3:] = h * np.dot(D, K)
        Fs.append(F)

        g_new = float(y_new[:r].min()) - COLLAPSE
        if (g <= 0 and g_new >= 0) or (g >= 0 and g_new <= 0):
            raise BlowUp(f"a warping function left (0, inf) before t = {t_bound:g}")
        g = g_new
        t, y, f = t_new, y_new, K[stages].copy()
        ts.append(t)
        ys.append(y)
        if direction * (t - t_bound) >= 0:
            return np.array(ts), np.vstack(ys).T, np.array(Fs)


def _error_norm(err5: np.ndarray, err3: np.ndarray, h: float):
    """DOP853's scaled error norm (scipy's ``_estimate_error_norm``) from
    the order-5 and order-3 estimates divided by the scale."""
    err5_norm_2 = _norm(err5) ** 2
    err3_norm_2 = _norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / np.sqrt(denom * err5.size)


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
