"""Radau IIA (order 5) stepper for the autonomous phase flow.

The method, its constants and its step control are those of Hairer &
Wanner, *Solving ODEs II*, §IV.8, for a callable dense Jacobian and
forward integration: the tableau constants, the Newton tolerance and
iteration, the initial step selection, the step-size predictor, the
Jacobian reuse and the ``nextafter`` minimum step, with ``nfev``,
``njev`` and ``nlu`` counting right-hand-side evaluations, Jacobians and
factorisations.

It lives in the package for two reasons.  Importing ``scipy.integrate``
pulls in ``scipy.special``, ``scipy.optimize`` and ``scipy.sparse.linalg``,
about a third of a CLI run's wall time, for one class.  And the
Ricci-flat projection in ``flow.integrate`` has to replace the current
state between steps, which scipy keeps in private fields; here ``t``,
``y`` and ``f`` are this class's own public state.

Unlike scipy's generic interface, it takes the flow as it is: the flow
is autonomous, so ``fun(y)`` and ``jac(y)`` take no time, and ``fun``
gets either one state (n,) or the three collocation stages as one
stage-major (3, n) stack, the two shapes ``phase.rhs`` takes.  Every
failure of a step raises ``ValueError``.
The step controls are not checked here: ``model.StepControls`` owns the
rules for ``rtol`` and ``atol``.

It uses numpy alone, so the flow loads no ``scipy`` module.  The three
collocation stages are evaluated in one call of ``fun``.  Whenever the
Newton matrices are refreshed, both of them, ``MU_REAL/h I - J`` and
``MU_COMPLEX/h I - J`` (2r×2r, r ≤ 3), are written into one (2, n, n)
complex stack and inverted by `_lu` in one ``np.linalg.inv`` call; the
real inverse is the real part of the first member's.  ``nlu`` counts
matrices, two per refresh.  A singular Newton matrix raises numpy's
``LinAlgError``, a ``ValueError``.

The simplified Newton iteration is linear in the stage values F and in
the stage increments Z.  In the eigenbasis of the tableau, with
``W = TI Z``, its update is ``dW0 = inv(MU_REAL/h - J) (TI0 F - MU_REAL
W0/h)`` for the real eigenvalue and the complex analogue for MU_COMPLEX.
Each refresh folds both inverses, the complex one split into its real and
imaginary parts, together with ``T``, ``TI`` and the eigenvalues into one
real (6n, 6n) operator

    K = blockdiag(inv_real, [[Re, -Im], [Im, Re]] of inv_complex)
        @ [TI ⊗ I | -M0 ⊗ I],
    newton_op = [K ; (T ⊗ I) K] @ blockdiag(I, TI ⊗ I),

which maps the stacked input ``v = [F ; Z/h]`` to ``[dW ; dZ]``, so that
an iteration is one call of ``fun``, one matrix-vector product, the
scaled RMS norm of dW and ``Z + dZ``: W is never formed.  The same
refresh builds the (n, 4n) error operator ``inv_real [I | E ⊗ I]``,
which maps ``[f ; Z/h]`` to the error estimate ``inv_real (f + Z^T E /
h)``.  Neither operator holds h: the Z/h of their input is the current
step's, and the step that ends at ``t_bound``, like any h recomputed as
``t_new - t``, differs from the h of the refresh in its last bits, which
an operator with 1/h folded in would multiply into every update.  For n
= 2r ≤ 6 numpy's per-call overhead outweighs the arithmetic, so folding
``T W`` and ``W += dW`` into the Newton product, and ``Z^T E / h`` and
``f + Z^T E / h`` into the error product, saves more than the larger
products cost.  The maps are the same linear maps as the textbook forms,
summed in another order, so they agree with them to a few ulps rather
than bit for bit.

The stepper answers to an accuracy contract, which ``tests/test_flow.py``
checks: each step's end agrees with a tight reference integration over
the same interval to within a hundredth of the step's error scale, the
verify checks move by less than 1% of their tolerances when the
tolerances tighten a hundredfold, and a linear problem ends on its
closed-form solution.  The work of each shipped config (steps, ``nfev``,
``njev``, ``nlu`` and rejected attempts) is pinned there as
``SHIPPED_WORK``, and that of a few more specs as ``WIDER_WORK``.  A
change that alters the steps or the work must pass the accuracy tests
and re-pin both, with the old and new counts in CHANGES.md.  A change
that means to leave them alone must leave both pins as they are.  If it
sums anything in another order, as the stage-space operators above did,
each step moves by an ulp or so; the step sizes follow the error norm,
so the run carries that along (the tail's last abscissa moved by up to
5e-7 relative), and a convergence or Jacobian test that lands within
about 1e-4 of its threshold flips, adding or saving a step or a few
evaluations on that input (6 of 400 generated inputs did).  Step control runs on Python floats (``math.nextafter``,
``abs``, ``math.sqrt``), which round as numpy's scalars do;
``_initial_step`` keeps numpy scalars so that a degenerate scale gives
inf or nan instead of raising.

Finiteness is checked where a bad value can first do harm, and no more
often.  `_lu` scans each stack of Newton matrices once before inverting
it.  The Newton iteration and the error estimate do not scan their inputs
on every call: a non-finite entry in the stacked input ``[F ; Z/h]`` or
``[f ; Z/h]`` makes every entry of the product with the operator, and so
the scaled norm, non-finite, and only then are the inputs scanned.  A
non-finite F ends the iteration unconverged; a non-finite ``Z/h``, or a
non-finite f in the error estimate, raises ``ValueError`` with the
message ``_NOT_FINITE``.

A ``project`` hook maps each accepted state to the one the next step
starts from, before the step's single ``fun`` call, so that ``y`` and
``f`` stay a consistent pair; the flow's Ricci-flat projection uses it.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps

S6 = 6 ** 0.5

# Butcher tableau.  A is not used directly: the Newton iteration works in
# the eigenbasis A = T diag(MU_REAL, MU_COMPLEX, conj(MU_COMPLEX)) T^-1.
C = np.array([(4 - S6) / 10, (4 + S6) / 10, 1])
_C = C.tolist()   # the abscissae as Python floats, for the warm start
E = np.array([-13 - 7 * S6, -13 + 7 * S6, -1]) / 3

MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
              - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))

T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1, 1, 0]])
TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
# diag(MU_REAL, MU_COMPLEX) acting on (W0, Re W1, Im W1) as a real matrix
M0 = np.array([
    [MU_REAL, 0, 0],
    [0, MU_COMPLEX.real, -MU_COMPLEX.imag],
    [0, MU_COMPLEX.imag, MU_COMPLEX.real]])

# Dense-output coefficients: a step's interpolant is
# y_old + Q @ (x, x^2, x^3) with Q = Z^T P and x = (s - t_old) / h.
P = np.array([
    [13/3 + 7*S6/3, -23/3 - 22*S6/3, 10/3 + 5 * S6],
    [13/3 - 7*S6/3, -23/3 + 22*S6/3, 10/3 - 5 * S6],
    [1/3, -8/3, 10/3]])

NEWTON_MAXITER = 6  # Newton iterations per collocation solve
MIN_FACTOR = 0.2    # smallest step-size decrease after a rejection
MAX_FACTOR = 10     # largest step-size increase

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_NOT_FINITE = "array must not contain infs or NaNs"


def _norm(x: np.ndarray) -> float:
    """RMS norm, with the operations of ``np.linalg.norm(x) / sqrt(size)``,
    as a Python float."""
    x = x.ravel()
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Step-size factor from the last one or two error norms (§IV.8)."""
    if error_norm == 0:
        return math.inf
    if error_norm_old is None or h_abs_old is None:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * error_norm ** -0.25


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError(_NOT_FINITE)


def _lu(a: np.ndarray) -> np.ndarray:
    """The factorisation of a Newton matrix, or of a stack of them: the
    inverse of each, from one finiteness scan and one LAPACK call."""
    _check_finite(a)
    return np.linalg.inv(a)


def _error_estimate(error_op: np.ndarray, u: np.ndarray, scale: np.ndarray):
    """The error estimate ``error_op @ u`` and its scaled RMS norm.

    A non-finite u raises `_check_finite`'s ValueError.  Any non-finite
    entry of u makes every entry of the product, and so the norm,
    non-finite, so u is scanned only when the norm comes out non-finite.
    """
    error = error_op @ u
    error_norm = _norm(error / scale)
    if not math.isfinite(error_norm):
        _check_finite(u)
    return error, error_norm


class Radau:
    """Implicit Runge-Kutta Radau IIA stepper of order 5, forward in t.

    ``fun(y)`` is the right-hand side and ``jac(y)`` its dense Jacobian.
    ``fun`` must also take the three collocation stages at once, as a
    (3, n) ``y`` of one state per row, and return the (3, n) values.
    ``step()`` advances by one accepted step; ``status`` becomes
    ``"finished"`` once ``t`` reaches ``t_bound``.  A step that cannot be
    taken raises ``ValueError``: ``TOO_SMALL_STEP`` once the step size is
    below the spacing of floats at ``t``, or the errors above.

    After each accepted step, ``dense`` holds its (n, 3) dense-output
    coefficients Q: the step's interpolant is ``y_old + Q @ (x, x^2,
    x^3)`` with ``x = (s - t_old) / (t - t_old)``, where ``t_old`` and
    ``y_old`` are the state the step started from and ``t - t_old`` is
    its size, bit for bit.  The next Newton iteration starts from it.

    ``project``, if given, maps each accepted state to the state the next
    step starts from (the flow's Ricci-flat projection).  It is applied to
    the new ``y`` before the step's one ``fun`` call, so ``f`` is
    ``fun(y)`` at the projected state; a Jacobian refresh, the error
    estimate and ``dense`` use the state the step produced.  The initial
    state is not projected.  A caller may also replace ``y`` and ``f``
    between steps (``f`` must then be ``fun(y)``).

    Besides ``nfev``, ``njev`` and ``nlu``, the stepper counts
    ``nrejected``, the step attempts it discarded (by the error test or
    after a Newton iteration that failed to converge), and records the
    smallest and largest accepted step in ``h_min`` and ``h_max``.
    """

    def __init__(self, fun, jac, t0: float, y0, t_bound: float,
                 rtol: float, atol: float, project=None):
        y0 = np.asarray(y0, dtype=float)
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        if not t_bound > t0:
            raise ValueError("`t_bound` must exceed `t0`.")

        self._fun = fun
        self._jac = jac
        self._project = project
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.n = y0.size
        self.status = "running"
        self.nfev = 0
        self.njev = 0
        self.nlu = 0
        self.rtol = rtol
        self.atol = atol
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))

        self.f = self.fun(y0)
        self.h_abs = self._initial_step()
        self.h_abs_old = None
        self.error_norm_old = None

        self.J = np.asarray(jac(y0), dtype=float)
        self.njev = 1
        self.current_jac = True
        self.error_op = None
        self.newton_op = None
        self.t_old = None
        self.y_old = None
        self.dense = None
        self.nrejected = 0
        self.h_min = float("inf")
        self.h_max = 0.0

        n = self.n
        I = np.identity(n)
        kron_TI = np.kron(TI, I)
        # [TI (x) I | -(M0 (x) I)(TI (x) I)] maps the stacked Newton input
        # [F ; Z/h] to the right-hand sides of the real system and of the
        # complex one split into its real and imaginary rows
        self._rhs_map = np.hstack([kron_TI, -np.kron(M0, I).dot(kron_TI)])
        self._kron_T = np.kron(T, I)
        # [I | E (x) I] maps [f ; Z/h] to f + Z^T E / h
        self._error_map = np.hstack([I, np.kron(E, I)])
        # both Newton matrices, MU_REAL/h I - J and MU_COMPLEX/h I - J
        self._matrices = np.empty((2, n, n), dtype=complex)
        self._diagonals = self._matrices.reshape(2, -1)[:, ::n + 1]   # views
        self._block = np.zeros((3 * n, 3 * n))
        self._newton_op = np.empty((6 * n, 6 * n))
        self._error_op = np.empty((n, 4 * n))
        self._v = np.empty(6 * n)
        self._vF = self._v[:3 * n].reshape(3, n)
        self._vZ = self._v[3 * n:].reshape(3, n)
        self._u = np.empty(4 * n)
        self._uf = self._u[:n]
        self._uZ = self._u[n:].reshape(3, n)
        self._scale = np.empty((3, n))   # the error scale, once per stage

    def fun(self, y):
        self.nfev += 1
        return self._fun(y)

    def jac(self, y):
        self.njev += 1
        return np.asarray(self._jac(y), dtype=float)

    def lu(self, a):
        """`_lu` of a matrix or a stack of them, counting each matrix."""
        self.nlu += math.prod(a.shape[:-2])
        return _lu(a)

    def _newton_operators(self, h, J):
        """Invert both Newton matrices of step size h, in one stacked call,
        and build the two operators the step applies.

        Returns ``(error_op, newton_op)``: the (n, 4n) error operator,
        which takes ``[f ; Z/h]`` to the error estimate, and the (6n, 6n)
        Newton operator, which takes the stacked input ``[F ; Z/h]``
        (stage by stage) to ``[dW ; dZ]``.  Neither holds h itself: the
        Z/h of their input is the current step's.  Both are buffers of
        the stepper, rewritten by the next call.
        """
        n = self.n
        A = self._matrices
        np.negative(J, out=A)
        self._diagonals[0] += MU_REAL / h
        self._diagonals[1] += MU_COMPLEX / h
        inv = self.lu(A)
        inv_real = inv[0].real
        inv_complex = inv[1]
        B = self._block
        B[:n, :n] = inv_real
        B[n:2 * n, n:2 * n] = B[2 * n:, 2 * n:] = inv_complex.real
        B[n:2 * n, 2 * n:] = -inv_complex.imag
        B[2 * n:, n:2 * n] = inv_complex.imag
        G = self._newton_op
        np.dot(B, self._rhs_map, out=G[:3 * n])
        np.dot(self._kron_T, G[:3 * n], out=G[3 * n:])
        np.dot(inv_real, self._error_map, out=self._error_op)
        return self._error_op, G

    def _initial_step(self) -> float:
        """Hairer, Nørsett & Wanner's starting step for an order-3 error
        estimate (*Solving ODEs I*, §II.4)."""
        y0, f0 = self.y, self.f
        interval_length = abs(self.t_bound - self.t)
        scale = self.atol + np.abs(y0) * self.rtol
        # numpy scalars: with an atol near underflow the norms overflow,
        # and the divisions below must give inf or nan rather than raise
        # ZeroDivisionError
        d0 = np.float64(_norm(y0 / scale))
        d1 = np.float64(_norm(f0 / scale))
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * f0
        f1 = self.fun(y1)
        d2 = np.float64(_norm((f1 - f0) / scale)) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 4)
        # a Python float, so that the step control runs on Python floats
        return float(min(100 * h0, h1, interval_length))

    def _warm_start(self, h) -> np.ndarray:
        """Newton start Z0: the last step's interpolant at t + h C, minus y."""
        t, t_old = self.t, self.t_old
        h_old = t - t_old
        x0, x1, x2 = [(t + h * c - t_old) / h_old for c in _C]
        p = np.array([[x0, x0 * x0, x0 * x0 * x0],
                      [x1, x1 * x1, x1 * x1 * x1],
                      [x2, x2 * x2, x2 * x2 * x2]])
        return p.dot(self.dense.T) + (self.y_old - self.y)

    def step(self) -> None:
        """Take one accepted step, or raise ValueError (see the class)."""
        if self.status != "running":
            raise RuntimeError("Attempt to step on a finished solver.")
        t = self.t
        y = self.y
        f = self.f
        atol = self.atol
        rtol = self.rtol

        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            h_abs_old = None
            error_norm_old = None
        else:
            h_abs = self.h_abs
            h_abs_old = self.h_abs_old
            error_norm_old = self.error_norm_old

        J = self.J
        error_op = self.error_op
        newton_op = self.newton_op
        current_jac = self.current_jac
        abs_y = np.abs(y)
        newton_scale = atol + abs_y * rtol

        rejected = False
        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                raise ValueError(TOO_SMALL_STEP)

            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            if self.dense is None:
                Z0 = np.zeros((3, y.shape[0]))
            else:
                Z0 = self._warm_start(h)

            converged = False
            while not converged:
                if newton_op is None:
                    error_op, newton_op = self._newton_operators(h, J)

                converged, n_iter, Z, rate = self._solve_collocation(
                    y, h, Z0, newton_scale, newton_op)

                if not converged:
                    if current_jac:
                        break
                    J = self.jac(y)
                    current_jac = True
                    newton_op = None

            if not converged:
                h_abs *= 0.5
                newton_op = None
                self.nrejected += 1
                continue

            y_new = y + Z[-1]
            u = self._u   # [f ; Z/h], the error operator's input
            self._uf[...] = f
            np.divide(Z, h, out=self._uZ)
            scale = atol + np.maximum(abs_y, np.abs(y_new)) * rtol
            error, error_norm = _error_estimate(error_op, u, scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)

            if rejected and error_norm > 1:
                self._uf[...] = self.fun(y + error)
                error, error_norm = _error_estimate(error_op, u, scale)

            if error_norm > 1:
                factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
                h_abs *= max(MIN_FACTOR, safety * factor)
                newton_op = None
                rejected = True
                self.nrejected += 1
            else:
                step_accepted = True

        recompute_jac = n_iter > 2 and rate > 1e-3

        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(MAX_FACTOR, safety * factor)

        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            newton_op = None

        if recompute_jac:
            J = self.jac(y_new)
            current_jac = True
        else:
            current_jac = False
        if self._project is not None:
            y_new = self._project(y_new)
        f_new = self.fun(y_new)

        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm
        self.h_abs = h_abs * factor

        self.t_old = t
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.f = f_new

        self.error_op = error_op
        self.newton_op = newton_op
        self.current_jac = current_jac
        self.J = J

        if h < self.h_min:
            self.h_min = float(h)
        if h > self.h_max:
            self.h_max = float(h)
        self.dense = np.dot(Z.T, P)
        if t_new - self.t_bound >= 0:
            self.status = "finished"

    def _solve_collocation(self, y, h, Z0, scale, newton_op):
        """Simplified Newton iteration for the stage increments Z.

        ``newton_op`` is the Newton operator of `_newton_operators` for
        this h.  Returns (converged, iterations, Z, rate of convergence).
        Z0 is not written to.
        """
        n3 = 3 * self.n
        Z = Z0
        self._scale[...] = scale
        scale = self._scale.reshape(-1)

        v, vF, vZ = self._v, self._vF, self._vZ

        dW_norm_old = None
        converged = False
        rate = None
        tol = self.newton_tol
        fun = self._fun
        for k in range(NEWTON_MAXITER):
            vF[...] = fun(y + Z)   # all three stages in one call
            self.nfev += 3

            np.divide(Z, h, out=vZ)
            dWZ = newton_op.dot(v)
            dW_norm = _norm(dWZ[:n3] / scale)
            if not math.isfinite(dW_norm):
                # a non-finite entry of v makes every entry of dW, and so
                # the norm, non-finite; only then is v scanned.  A
                # non-finite stage value ends the iteration unconverged,
                # so a fresh Jacobian or a shorter step follows; a
                # non-finite Z/h means h has underflowed, and is an error
                if not np.isfinite(vF).all():
                    break
                _check_finite(v)

            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old

            if (rate is not None and (rate >= 1 or
                    rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol)):
                break

            Z = Z + dWZ[n3:].reshape(Z.shape)

            if (dW_norm == 0 or
                    rate is not None and rate / (1 - rate) * dW_norm < tol):
                converged = True
                break

            dW_norm_old = dW_norm

        return converged, k + 1, Z, rate
