"""Seeding on the unstable manifold and adaptive integration of the flow.

Soliton trajectories start just inside the unit ball (L < 0) along the
unstable directions of the critical point and run until the state reaches
the origin.  Ricci-flat trajectories are re-projected onto the invariant
set {L = 0, H = 1} after every accepted step, since that set is only
neutrally stable under the discretized flow.

The tail of a soliton trajectory is mildly stiff: the X components relax
at a rate of order one while the crawl toward the origin slows like 1/s,
so an implicit method (Radau) is used; an explicit embedded pair would be
stability-limited to O(1) steps and could never reach the origin
tolerance in the available step budget.

The Radau stepper is the package's own (``radau.Radau``, Hairer &
Wanner's Radau IIA in numpy alone), so the flow loads no ``scipy``
module.  It takes ``phase.rhs`` and ``phase.rhs_jacobian`` as they are:
the flow is autonomous, and ``rhs`` takes one state (n,) or the
stepper's stage-major (5, n) stack of stages and evaluates it on Python
floats, bit for bit as the numpy expressions would.  It is called through
the module, so that a wrapper set on ``phase.rhs`` sees every call.  The
Ricci-flat projection is the stepper's ``project`` hook: each accepted
state is projected before the stepper's one right-hand-side call of the
step, so every ``phase.rhs`` call of ``integrate`` is the stepper's.
Every failure of a step is a ``ValueError``, which the loop reports as
``StepLimitExceeded``.

The per-step monitors (|y|^2 for L and the origin test, and Y > 0) and
the Ricci-flat projection run on Python floats, from one ``tolist()`` of
the state, with their sums taken left to right: at 2r ≤ 6 components a
numpy call costs more than its arithmetic.  They are no longer BLAS dots,
whose summation order is not fixed, so they agree with the numpy forms to
an ulp or so rather than bit for bit.  A state that the projection cannot
take onto {L = 0, H = 1} (H = 0, or |X|^2 > 1 at H = 1) raises
``ValueError``: a failed step during the run, ``SeedLeavesWrongRegion``
at the seed.  The step loop answers to the stepper's accuracy contract
(``radau.py``): a change to it that alters the steps or the work must
pass the accuracy tests in ``tests/test_flow.py`` and re-pin
``SHIPPED_WORK`` there.

Each accepted step starts from the sample recorded before it, so the
dense output needs only the samples, their abscissae and each step's
interpolant coefficients Q.  It evaluates any set of abscissae in one
vectorised pass (one ``searchsorted``, then one array operation per
power of the local abscissa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phase
from .errors import (
    InvariantViolated,
    NonPositiveY,
    OutOfRange,
    SeedLeavesWrongRegion,
    StepLimitExceeded,
)
from .model import Mode, ProblemSpec, critical_point
from .phase import PhasePoint
from .radau import Radau

# The step monitors' bounds on L, which verify's lyapunov_monotone check
# shares: the relative allowance for roundoff plateaus in the monotonicity
# of L (near the origin L changes by less than one ulp per step), and the
# floor for L, which is -1 at the origin, beyond roundoff.
MONOTONE_SLACK = 1e-13
L_FLOOR = -1.0 - 1e-9
# The phase speed |f| below which a state counts as a rest point.
REST_SPEED = 1e-13


class DenseOutput:
    """Piecewise Radau interpolant over the accepted steps.

    Step k covers [ts[k], ts[k+1]] and is samples[k] + Q[k] @ (x, x^2,
    ..., x^5) with x = (s - ts[k]) / h[k] and h = np.diff(ts): the stepper's
    ``dense`` polynomial (and scipy's ``RadauDenseOutput``), since each
    step starts from the sample before it and its step size is the
    difference of its ends, bit for bit.  A call evaluates all abscissae
    at once; an abscissa on a step boundary uses the earlier step and one
    outside the range extrapolates from the nearest end step, as scipy's
    ``OdeSolution`` does.
    """

    def __init__(self, ts: np.ndarray, samples: np.ndarray, Q: np.ndarray) -> None:
        self.ts = ts             # (step + 1,)
        self.samples = samples   # (step + 1, n)
        self.Q = Q               # (step, n, 5)

    def __call__(self, s) -> np.ndarray:
        """States at the abscissae: shape (n,) for a scalar, else (n, N)."""
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        ts = self.ts
        k = np.searchsorted(ts, flat, side="left") - 1
        np.clip(k, 0, ts.size - 2, out=k)
        t_old = ts[k]
        x = (flat - t_old) / (ts[k + 1] - t_old)
        # one power at a time: gathering Q[k] whole would hold an
        # (N, n, 5) copy, which shows in the peak memory of a request
        y = self.samples[k]
        power = np.ones_like(x)
        for j in range(self.Q.shape[2]):
            power *= x
            y += self.Q[k, :, j] * power[:, None]
        return y[0] if s.ndim == 0 else y.T


@dataclass
class Trajectory:
    """An integrated trajectory: accepted samples plus derived scalars."""

    spec: ProblemSpec
    s: np.ndarray        # (n,), strictly increasing
    X: np.ndarray        # (n, r)
    Y: np.ndarray        # (n, r)
    L: np.ndarray        # (n,)
    H: np.ndarray        # (n,)
    termination: str     # "origin" | "stationary" | "s_max"
    n_steps: int
    kappa_estimate: float
    dense: DenseOutput | None = None

    @property
    def r(self) -> int:
        return self.X.shape[1]

    def states_at(self, s_values: np.ndarray) -> np.ndarray:
        """Dense-output states, shape (len(s_values), 2r)."""
        s_values = np.asarray(s_values, dtype=float)
        if s_values.size == 0:
            return np.empty((0, 2 * self.r))
        if s_values.min() < self.s[0] or s_values.max() > self.s[-1]:
            raise OutOfRange(
                f"requested s in [{s_values.min():g}, {s_values.max():g}], "
                f"trajectory covers [{self.s[0]:g}, {self.s[-1]:g}]"
            )
        return np.atleast_2d(self.dense(s_values).T)


def seed(spec: ProblemSpec) -> PhasePoint:
    """Initial state: critical point displaced along the unstable directions.

    Soliton mode requires eps0 < 0 and eps_i > 0 so the displaced point
    enters {L < 0} with all Y_i > 0.  Ricci-flat mode rescales the
    displaced point onto {L = 0, H = 1}.  Coefficients so large that
    |v|^2 overflows, a soliton seed outside the unit ball and a
    Ricci-flat seed that projects onto a rest point raise
    SeedLeavesWrongRegion naming seed_coeffs.
    """
    crit = critical_point(spec).as_vector()
    # finite but huge coefficients overflow |v|^2, which is checked below
    with np.errstate(over="ignore"):
        head = crit + spec.seed_coeffs[0] * phase.unstable_eigenvector_fast(spec)
        v = head.copy()
        for i in range(1, spec.r):
            v[spec.r + i] += spec.seed_coeffs[i]
        vv = float(v @ v)
    if not math.isfinite(vv):
        raise SeedLeavesWrongRegion(
            f"seed_coeffs {list(spec.seed_coeffs)} put the seed out of "
            f"floating-point range (|v|^2 = {vv})"
        )
    p = PhasePoint.from_vector(spec.s_start, v)

    if spec.mode is Mode.SOLITON:
        if any(c != 0.0 for c in spec.seed_coeffs):
            L = phase.lyapunov(p)
            if not L < 0:
                raise SeedLeavesWrongRegion(_outside_ball(spec.seed_coeffs, head, L))
            if not np.all(p.Y > 0):
                raise NonPositiveY(f"seed has non-positive Y: {p.Y}")
        return p
    sqrt_d = np.sqrt(spec.dims)
    try:
        y = np.array(_project_ricci_flat(v.tolist(), sqrt_d.tolist()))
    except ValueError as exc:
        raise SeedLeavesWrongRegion(
            f"seed_coeffs {list(spec.seed_coeffs)} put the seed where {exc}"
        ) from None
    f = phase.rhs(y, sqrt_d)
    speed = math.sqrt(f @ f)
    if speed < REST_SPEED:
        raise SeedLeavesWrongRegion(
            f"seed_coeffs {list(spec.seed_coeffs)} project onto a rest point "
            f"of the Ricci-flat flow (|f| = {speed:.3e})"
        )
    return PhasePoint.from_vector(spec.s_start, y)


def _outside_ball(coeffs, head: np.ndarray, L: float) -> str:
    """The message for a soliton seed with L >= 0, naming the coefficient
    that adds most to L.  The first coefficient moves the seed within the
    (X_1, Y_1) plane, to ``head``, and each further one along a unit Y_i
    direction orthogonal to it, so L = (|head|^2 - 1) + sum of eps_i^2."""
    parts = [float(head @ head) - 1.0] + [c * c for c in coeffs[1:]]
    i = int(np.argmax(parts))
    message = (f"seed_coeffs[{i}] = {coeffs[i]!r} puts the seed at "
               f"L = {L:.3e} >= 0, outside the unit ball")
    if i == 0 and not coeffs[0] < 0:
        message += "; eps0 must be negative"
    return message


def _sum_of_squares(v: list) -> float:
    """sum of v_i^2 on Python floats, left to right."""
    total = 0.0
    for x in v:
        total += x * x
    return total


def _project_ricci_flat(v: list, sqrt_d: list) -> list:
    """Rescale X so that H = 1 and then Y so that L = 0, on Python floats,
    with the spec's sqrt(d_i) computed once by the caller.  A state with
    H = 0, or with |X|^2 > 1 once H = 1, has no such rescaling and raises
    ValueError."""
    r = len(sqrt_d)
    h = 0.0
    for s, x in zip(sqrt_d, v):
        h += s * x
    if h == 0:
        raise ValueError("H = 0, which no rescaling of X takes to 1")
    X = [x / h for x in v[:r]]
    Y = v[r:]
    sx2 = _sum_of_squares(X)
    sy2 = _sum_of_squares(Y)
    if sy2 > 0:
        ratio = (1.0 - sx2) / sy2
        if not ratio >= 0:
            raise ValueError(f"|X|^2 = {sx2!r} at H = 1, so no Y gives L = 0")
        c = math.sqrt(ratio)
        Y = [y * c for y in Y]
    return X + Y


def integrate(spec: ProblemSpec, start: PhasePoint) -> Trajectory:
    """Integrate the phase flow from a seed, monitoring invariants per step.

    Terminates at the first accepted step with ||(X, Y)|| < origin_tol
    (soliton mode) or at s_max.  Raises InvariantViolated if an accepted
    step breaks monotonicity of L or positivity of Y beyond roundoff, and
    StepLimitExceeded past the step budget or when the stepper fails.
    """
    sqrt_d = np.sqrt(spec.dims)
    sd = sqrt_d.tolist()
    sc = spec.step_controls
    soliton = spec.mode is Mode.SOLITON
    y0 = start.as_vector()
    ss = [start.s]
    ys = [y0.copy()]
    Qs = []   # each accepted step's dense-output coefficients
    r = spec.r
    prev_L = float(y0 @ y0) - 1.0

    # An atol near underflow overflows the stepper's norms and Newton
    # matrices; its finiteness checks report that as a ValueError,
    # so numpy's own warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        solver = Radau(
            lambda y: phase.rhs(y, sqrt_d),
            lambda y: phase.rhs_jacobian(y, sqrt_d),
            start.s,
            y0,
            t_bound=spec.s_max,
            rtol=sc.rtol,
            atol=sc.atol,
            project=None if soliton else
            lambda y: np.array(_project_ricci_flat(y.tolist(), sd)),
        )
        stationary = float(np.sqrt(solver.f @ solver.f)) < REST_SPEED  # seeded at a rest point
        termination = "stationary" if stationary else "s_max"
        while solver.status == "running" and not stationary:
            if len(Qs) >= sc.max_steps:
                raise StepLimitExceeded(
                    f"no termination within {sc.max_steps} steps (s = {solver.t:.3e})"
                )
            try:
                solver.step()
            except ValueError as exc:  # every failure of a step, an underflowing h among them
                raise StepLimitExceeded(f"integrator failed at s={solver.t:.3e}: {exc}") from exc
            Qs.append(solver.dense)

            y = solver.y   # the stepper replaces its state each step, never writes to it
            v = y.tolist()
            yy = _sum_of_squares(v)
            L = yy - 1.0
            if soliton:
                if min(v[r:]) <= 0:
                    raise InvariantViolated("Y_positive", solver.t, f"Y = {y[r:]}")
                if L > prev_L + MONOTONE_SLACK * (1.0 + abs(prev_L)):
                    raise InvariantViolated(
                        "L_decreasing", solver.t, f"L rose from {prev_L} to {L}"
                    )
                if L < L_FLOOR:
                    raise InvariantViolated("L_bounded", solver.t, f"L = {L} < -1")
            ss.append(solver.t)
            ys.append(y)
            prev_L = L

            if soliton and math.sqrt(yy) < spec.origin_tol:
                termination = "origin"
                break
            # Ricci-flat trajectories converge to a fixed point inside
            # {L = 0, H = 1}; stop once the phase velocity is negligible
            if not soliton and math.sqrt(solver.f @ solver.f) < spec.origin_tol:
                termination = "stationary"
                break

    s_arr = np.array(ss)
    y_arr = np.array(ys)
    X = y_arr[:, :r]
    Y = y_arr[:, r:]
    L = np.einsum("ij,ij->i", X, X) + np.einsum("ij,ij->i", Y, Y) - 1.0
    H = X @ sqrt_d
    dense = DenseOutput(s_arr, y_arr, np.array(Qs)) if Qs else None
    return Trajectory(
        spec=spec,
        s=s_arr,
        X=X,
        Y=Y,
        L=L,
        H=H,
        termination=termination,
        n_steps=len(Qs),
        kappa_estimate=float(L[-1]),
        dense=dense,
    )


def run(spec: ProblemSpec) -> Trajectory:
    """Seed and integrate in one call."""
    return integrate(spec, seed(spec))
