"""Seeding on the unstable manifold and adaptive integration of the flow.

Soliton trajectories start just inside the unit ball (L < 0) along the
unstable directions of the critical point and run until the state reaches
the origin.  Ricci-flat trajectories are re-projected onto the invariant
set {L = 0, H = 1} after every accepted step, since that set is only
neutrally stable under the discretized flow.

A trajectory is an ordered list of segments.  The first is the Radau
stepper's.  Out of the seed and through the transit the flow is mildly
stiff: the X components relax at a rate of order one, so an implicit
method (Radau) is used; an explicit embedded pair would be
stability-limited to O(1) steps.  A soliton trajectory then crawls into
the origin along its slow manifold X = h(w), w = Y^2 (``manifold``),
from s of about 1e4 to 1e16.  Once |y| falls below ``TAIL_SWITCH`` the
Radau segment ends and the tail segment takes over: the r-dimensional
flow on the graph, in tau = log s and u = 1/z = 1/(s w).  u relaxes to
2/d along a closed form U, the logistic relaxation of z, and the same
Radau stepper integrates only the relative remainder q = u/U - 1
(``manifold.remainder_field``), with tau appended as a state so that
the stepper's abscissa is tau, from q = 0 at rtol = atol = the spec's
rtol.  Its Jacobian is diag(-(2/d)/U) (``manifold.remainder_jacobian``):
the field is that linear term plus an O(1/s) one.  A Y_i so small at
the switch that u_i = 1/(s Y_i^2) is not finite is a ``ZeroY`` error
naming seed_coeffs.  Every trajectory starts at s = 0, which the
autonomous flow allows, so log s is defined on the tail.  A stop test
after every tail step ends the tail once |y| is below ``origin_tol``,
where the crossing is found on the step's interpolant, or at ``s_max``.
The tail emits its samples on the fixed geometric grid of
``TAIL_SAMPLES_PER_DECADE`` points per decade of s, less any point
within ``TAIL_END_ULPS`` ulps of either end in tau, plus its end: the
row count of a profile does not depend on how many steps the tail
took, and every interval has length in tau.  The stop test, the
crossing and the samples map q back through u = U (1 + q) = 1/z; on the
samples X = h(z/s) and Y = sqrt(z/s), so Y > 0 by construction.
Ricci-flat runs have one Radau segment.

The Radau stepper is the package's own (``radau.Radau``, Hairer &
Wanner's Radau IIA in numpy alone), so the flow loads no ``scipy``
module.  It takes ``phase.rhs`` and ``phase.rhs_jacobian`` as they are:
the flow is autonomous, and ``rhs`` takes one state (n,) or the
stepper's stage-major (7, n) stack of stages, whose every row gets the
values of that state alone, bit for bit.  It is called through
the module, so that a wrapper set on ``phase.rhs`` sees every call.  The
Ricci-flat projection is the stepper's ``project`` hook: each accepted
state is projected before the stepper's one right-hand-side call of the
step, so every ``phase.rhs`` call of ``integrate`` is the stepper's.
Every failure of a step is a ``ValueError``, which the loop reports as
``StepLimitExceeded``; the step budget ``max_steps`` counts the steps of
both segments.  The tail's own stepper calls ``manifold``'s field, not
``phase.rhs``.

The per-step monitors (|y|^2 for L and the origin test, and Y > 0) and
the Ricci-flat projection run on Python floats, from one ``tolist()`` of
the state, with their sums taken left to right: at 2r ≤ 6 components a
numpy call costs more than its arithmetic.  They are no longer BLAS dots,
whose summation order is not fixed, so they agree with the numpy forms to
an ulp or so rather than bit for bit.  The tail's samples pass the same
monitors in one vectorised test.  A state that the projection cannot
take onto {L = 0, H = 1} (H = 0, or |X|^2 > 1 at H = 1) raises
``ValueError``: a failed step during the run, ``SeedLeavesWrongRegion``
at the seed.  The step loop answers to the stepper's accuracy contract
(``radau.py``): a change to it that alters the steps or the work must
pass the accuracy tests in ``tests/test_flow.py`` and re-pin
``SHIPPED_WORK`` there.

A state is a plain packed vector [X, Y] of shape (2r,): ``seed`` returns
one and ``integrate`` starts from one at s = 0.

Each segment evaluates states at any abscissae in one vectorised pass,
and states at fixed fractions of each interval between its samples,
with ds/dx there (``at_fractions``, from which reconstruct's quadrature
takes its nodes and weights).  Each accepted Radau step starts from the
sample recorded before it, so a ``radau.RadauSegment`` needs only the
samples, their abscissae and each step's interpolant coefficients Q, in
the format of the stepper's ``dense`` (``radau.Radau`` builds Q, and
uses it for its own warm start).  The tail segment holds one such
segment in tau; its intervals between samples are linear in tau, so ds
= s dtau there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import manifold, phase
from .errors import (
    InvariantViolated,
    NonPositiveY,
    OutOfRange,
    SeedLeavesWrongRegion,
    StepLimitExceeded,
    ValidationError,
    ZeroY,
)
from .model import Mode, ProblemSpec, critical_point
from .radau import Radau, RadauSegment, run_segment

# The step monitor's relative allowance for roundoff plateaus in the
# monotonicity of L (near the origin L changes by less than one ulp per
# step), which verify's lyapunov_monotone check shares.
MONOTONE_SLACK = 1e-13
# The phase speed |f| below which a state counts as a rest point.
REST_SPEED = 1e-13
# The |y| below which a soliton trajectory leaves the Radau stepper for its
# slow manifold: w = Y^2 is about 1e-4 there, and h(w) is exact to 1e-20.
TAIL_SWITCH = 1e-2
# The tail's samples per decade of s, on a fixed geometric grid.
TAIL_SAMPLES_PER_DECADE = 12
# No grid point within this many ulps in tau of either end of the tail is
# a sample: the crossing of origin_tol is itself good only to a few ulps.
TAIL_END_ULPS = 16


class TailSegment:
    """The tail on the slow manifold: the Radau run of the relative
    remainder q over tau = log s, mapped through u = U (1 + q) = 1/z, with
    U the relaxation from u0 at taus[0], to states X = h(z/s), Y =
    sqrt(z/s).

    Its samples are at the abscissae ``s``, whose tau are ``taus``; the
    first is the switch, the Radau segment's last sample.  The intervals
    between the samples are linear in tau, so ds = s dtau on them.  A call
    evaluates the run's interpolant ``dense``, a ``RadauSegment`` in tau
    of the states [q, tau], which extrapolates from its end steps outside
    [taus[0], taus[-1]].  steps and nfev are the run's.
    """

    def __init__(self, dims: tuple, s: np.ndarray, taus: np.ndarray, u0: list,
                 dense: RadauSegment) -> None:
        self.dims = dims
        self.s = s               # (sample,)
        self.taus = taus         # (sample,)
        self.u0 = u0             # r floats, 1/z at the switch
        self.dense = dense       # [q, tau] over tau

    @property
    def steps(self) -> int:
        return self.dense.steps

    @property
    def nfev(self) -> int:
        return self.dense.nfev

    def states_at_tau(self, tau: np.ndarray) -> np.ndarray:
        """States [X, Y] at the abscissae tau (...), shape (..., n)."""
        return _on_graph(self.dims, self.u0, self.taus[0], self.dense, tau)

    def __call__(self, s) -> np.ndarray:
        """States at the N abscissae of a 1-D array: shape (n, N)."""
        s = np.asarray(s, dtype=float)
        return self.states_at_tau(np.log(s)).T

    def at_fractions(self, x: np.ndarray):
        """The states at the m fractions x (in tau) of every interval
        between two samples, shape (interval, n, m), and ds/dx there,
        s dtau/dx, shape (interval, m)."""
        dtau = np.diff(self.taus)[:, None]
        tau = self.taus[:-1, None] + np.asarray(x, dtype=float) * dtau
        y = self.states_at_tau(tau)
        return y.transpose(0, 2, 1), np.exp(tau) * dtau


@dataclass
class Trajectory:
    """An integrated trajectory: the accepted samples, L and H at each,
    and its ordered segments (none when the seed is a rest point), which
    share their boundary samples."""

    spec: ProblemSpec
    s: np.ndarray        # (n,), strictly increasing
    X: np.ndarray        # (n, r)
    Y: np.ndarray        # (n, r)
    L: np.ndarray        # (n,)
    H: np.ndarray        # (n,)
    termination: str     # "origin" | "stationary" | "s_max"
    segments: list = field(default_factory=list)

    @property
    def r(self) -> int:
        return self.X.shape[1]

    @property
    def n_steps(self) -> int:
        """The number of intervals between samples."""
        return self.s.size - 1

    @property
    def radau_steps(self) -> int:
        return sum(seg.steps for seg in self.segments if isinstance(seg, RadauSegment))

    @property
    def tail_steps(self) -> int:
        return sum(seg.steps for seg in self.segments if isinstance(seg, TailSegment))

    @property
    def kappa_estimate(self) -> float:
        """The terminal L, which tends to kappa = -1 at the origin."""
        return float(self.L[-1])

    def dense(self, s) -> np.ndarray:
        """States at the N abscissae of a 1-D array, shape (n, N), each from
        its segment: an abscissa on a boundary of two segments uses the
        earlier one, and one outside the trajectory the nearest end one.
        A trajectory with no segments raises OutOfRange."""
        s = np.asarray(s, dtype=float)
        if not self.segments:
            raise OutOfRange("a trajectory seeded at a rest point has no dense output")
        which = np.searchsorted([seg.s[-1] for seg in self.segments[:-1]], s)
        y = np.empty((2 * self.r, s.size))
        for i, seg in enumerate(self.segments):
            mask = which == i
            if mask.any():
                y[:, mask] = seg(s[mask])
        return y


def seed(spec: ProblemSpec) -> np.ndarray:
    """Initial state, packed as [X, Y]: the critical point displaced along
    the unstable directions.

    Soliton mode requires eps0 < 0 and eps_i > 0 so the displaced point
    enters {L < 0} with all Y_i > 0.  Ricci-flat mode rescales the
    displaced point onto {L = 0, H = 1}.  Coefficients so large that
    |v|^2 overflows, a soliton seed outside the unit ball and a
    Ricci-flat seed that projects onto a rest point raise
    SeedLeavesWrongRegion naming seed_coeffs.
    """
    crit = critical_point(spec)
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
    if spec.mode is Mode.SOLITON:
        if any(c != 0.0 for c in spec.seed_coeffs):
            L = vv - 1.0
            if not L < 0:
                raise SeedLeavesWrongRegion(_outside_ball(spec.seed_coeffs, head, L))
            if not np.all(v[spec.r:] > 0):
                raise NonPositiveY(f"seed has non-positive Y: {v[spec.r:]}")
        return v
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
    return y


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


def integrate(spec: ProblemSpec, y0: np.ndarray) -> Trajectory:
    """Integrate the phase flow from the state y0 at s = 0, monitoring
    invariants per step.

    A soliton trajectory leaves the Radau stepper for its slow manifold
    once |y| < TAIL_SWITCH, and terminates where ||(X, Y)|| crosses
    origin_tol, or at s_max.  Raises InvariantViolated if an accepted step
    or a tail sample breaks monotonicity of L or positivity of Y beyond
    roundoff, and StepLimitExceeded past the step budget or when a
    stepper fails.  A y0 that is not a finite vector of 2r entries, or an
    s_max not > 0, raises ValidationError naming it before anything is
    integrated.
    """
    try:
        y = np.asarray(y0, dtype=float)
    except (TypeError, ValueError):   # not numbers, or ragged
        y = np.empty(0)
    if not (y.shape == (2 * spec.r,) and np.isfinite(y).all()):
        raise ValidationError(f"y0 must be a finite vector of {2 * spec.r} entries, got {y0!r}")
    y0 = y
    if not spec.s_max > 0:
        raise ValidationError(f"s_max must be > 0, got {spec.s_max!r}")
    sqrt_d = np.sqrt(spec.dims)
    sd = sqrt_d.tolist()
    sc = spec.step_controls
    soliton = spec.mode is Mode.SOLITON
    ss = [0.0]
    ys = [y0]
    Qs = []   # each accepted step's dense-output coefficients
    r = spec.r
    prev_L = float(y0 @ y0) - 1.0
    switch = False

    # An atol near underflow overflows the stepper's norms and Newton
    # matrices; its finiteness checks report that as a ValueError,
    # so numpy's own warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        solver = Radau(
            lambda y: phase.rhs(y, sqrt_d),
            lambda y: phase.rhs_jacobian(y, sqrt_d),
            0.0,
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
            ss.append(solver.t)
            ys.append(y)
            prev_L = L

            if soliton and math.sqrt(yy) < spec.origin_tol:
                termination = "origin"
                break
            if soliton and math.sqrt(yy) < TAIL_SWITCH and solver.status == "running":
                switch = True
                break
            # Ricci-flat trajectories converge to a fixed point inside
            # {L = 0, H = 1}; stop once the phase velocity is negligible
            if not soliton and math.sqrt(solver.f @ solver.f) < spec.origin_tol:
                termination = "stationary"
                break

        s_arr = np.array(ss)
        y_arr = np.array(ys)
        segments = [RadauSegment(s_arr, y_arr, np.array(Qs), solver.nfev)] if Qs else []
        if switch:
            tail, termination = _tail(spec, solver.t, solver.y, sc.max_steps - len(Qs))
            segments.append(tail)
            s_arr = np.concatenate([s_arr, tail.s[1:]])
            y_arr = np.vstack([y_arr, tail.states_at_tau(tail.taus[1:])])
            _check_tail(y_arr[len(Qs):], s_arr[len(Qs):], r)

    X = y_arr[:, :r]
    Y = y_arr[:, r:]
    L = np.einsum("ij,ij->i", X, X) + np.einsum("ij,ij->i", Y, Y) - 1.0
    H = X @ sqrt_d
    return Trajectory(
        spec=spec,
        s=s_arr,
        X=X,
        Y=Y,
        L=L,
        H=H,
        termination=termination,
        segments=segments,
    )


def _on_graph(dims: tuple, u0: list, tau0: float, dense: RadauSegment, tau) -> np.ndarray:
    """The states [X, Y] = [h(w), sqrt(w)] at the abscissae tau (...) of a
    tail whose dense output is the relative remainder q about the
    relaxation U from u0 at tau0 (``manifold.relaxation``): u = U (1 + q)
    = 1/z and w = e^-tau / u.  Shape (..., n)."""
    tau = np.asarray(tau, dtype=float)
    b, a = manifold.relaxation(dims, u0)
    q = dense(tau.ravel())[:-1].T.reshape(tau.shape + (-1,))
    U = np.array(b) + np.array(a) * np.exp(tau0 - tau)[..., None]
    w = np.exp(-tau)[..., None] / (U * (1.0 + q))
    return np.concatenate([manifold.on_graph(dims, w), np.sqrt(w)], axis=-1)


def _tail(spec: ProblemSpec, s0: float, y0: np.ndarray, budget: int):
    """The tail segment from the switch state y0 at s0, and how it ended:
    "origin" where |y| crosses origin_tol, or "s_max".  budget is the
    number of steps left of max_steps.  A Y_i so small at the switch that
    u_i = 1/(s Y_i^2) is not finite raises ZeroY naming seed_coeffs."""
    r = spec.r
    dims = tuple(spec.dims.tolist())
    tau0 = math.log(s0)
    tau_max = math.log(spec.s_max)
    tol2 = spec.origin_tol ** 2
    z0 = [s0 * y * y for y in y0[r:].tolist()]
    for i, z in enumerate(z0):
        if not (z > 0.0 and 1.0 / z < math.inf):
            raise ZeroY(f"seed_coeffs[{i}] = {spec.seed_coeffs[i]!r} is too small: at the "
                        f"switch to the tail (s = {s0:.3e}) factor {i + 1} has s Y_{i + 1}^2 "
                        f"= {z!r}, whose reciprocal u = 1/(s Y^2) is not finite")
    u0 = [1.0 / z for z in z0]
    b, a = manifold.relaxation(dims, u0)
    steps = 0

    def stop(tau, y) -> bool:
        """At the origin, or out of steps, or z = 1/u left (0, inf)."""
        nonlocal steps
        steps += 1
        e, inv_s = math.exp(tau0 - tau), math.exp(-tau)
        u = [(bj + aj * e) * (1.0 + qj) for bj, aj, qj in zip(b, a, y.tolist())]
        if not all(0.0 < x < math.inf for x in u):
            raise InvariantViolated("Y_positive", math.exp(tau), f"u = 1/(s Y^2) = {u}")
        # |y|^2 = |X|^2 + sum(w) rounds to no less than sum(w), so the
        # graph is evaluated only once sum(w) is below origin_tol^2
        w = [inv_s / x for x in u]
        w_sum = 0.0
        for x in w:
            w_sum += x
        if w_sum < tol2:
            X = manifold.on_graph(dims, np.array(w))
            if float(X @ X + w_sum) < tol2:
                return True
        if steps >= budget and tau < tau_max:
            raise StepLimitExceeded(f"no termination within {spec.step_controls.max_steps} "
                                    f"steps (s = {math.exp(tau):.3e})")
        return False

    rtol = spec.step_controls.rtol
    try:
        solver = Radau(manifold.remainder_field(dims, u0, tau0),
                       manifold.remainder_jacobian(dims, u0, tau0),
                       tau0, np.append(np.zeros(r), tau0), tau_max, rtol, rtol)
        dense, origin = run_segment(solver, stop)
    except ValueError as exc:   # every failure of a step
        raise StepLimitExceeded(f"tail integrator failed after s={s0:.3e}: {exc}") from exc
    if origin:
        log_tol2 = 2.0 * math.log(spec.origin_tol)

        def above(tau: float) -> float:
            """log |y|^2 - log origin_tol^2 on the dense output."""
            y = _on_graph(dims, u0, tau0, dense, tau)
            return math.log(float(y @ y)) - log_tol2

        tau_end = _crossing(above, dense.ts[-2], dense.ts[-1])
        s_end = math.exp(tau_end)
    else:
        tau_end, s_end = tau_max, spec.s_max
    # the grid 10^(k / TAIL_SAMPLES_PER_DECADE) of s, less its points
    # within TAIL_END_ULPS ulps of either end in tau
    per = TAIL_SAMPLES_PER_DECADE
    k = np.arange(math.floor(per * math.log10(s0)), math.ceil(per * tau_end / math.log(10)) + 1)
    grid = 10.0 ** (k / per)
    taus = np.log(grid)
    inner = ((taus > tau0 + TAIL_END_ULPS * math.ulp(tau0))
             & (taus < tau_end - TAIL_END_ULPS * math.ulp(tau_end)))
    tail = TailSegment(dims, np.concatenate([[s0], grid[inner], [s_end]]),
                       np.concatenate([[tau0], taus[inner], [tau_end]]), u0, dense)
    return tail, "origin" if origin else "s_max"


def _crossing(f, a: float, b: float) -> float:
    """The abscissa in (a, b] where f, with f(a) > 0 >= f(b), falls through
    0, to a few ulps: the Illinois variant of regula falsi, from which the
    end with f <= 0 is returned, or at once an abscissa where f is exactly
    0."""
    fa, fb = f(a), f(b)
    side = 0
    for _ in range(100):
        m = (a * fb - b * fa) / (fb - fa)
        if not a < m < b:
            m = 0.5 * (a + b)
            if not a < m < b:
                break
        fm = f(m)
        if fm == 0:
            return m
        if fm < 0:
            b, fb = m, fm
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = m, fm
            if side == 1:
                fb *= 0.5
            side = 1
    return b


def _check_tail(y: np.ndarray, s: np.ndarray, r: int) -> None:
    """The step monitors on the tail's samples, the switch state first."""
    yy = np.einsum("ij,ij->i", y, y)
    L = yy - 1.0
    rise = np.diff(L) - MONOTONE_SLACK * (1.0 + np.abs(L[:-1]))
    bad = np.flatnonzero(~(y[1:, r:] > 0).all(axis=1))
    if bad.size:
        k = bad[0] + 1
        raise InvariantViolated("Y_positive", float(s[k]), f"Y = {y[k, r:]}")
    bad = np.flatnonzero(rise > 0)
    if bad.size:
        k = bad[0]
        raise InvariantViolated("L_decreasing", float(s[k + 1]),
                                f"L rose from {L[k]} to {L[k + 1]}")


def run(spec: ProblemSpec) -> Trajectory:
    """Seed and integrate in one call."""
    return integrate(spec, seed(spec))
