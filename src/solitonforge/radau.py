"""Radau IIA (order 5) stepper for the phase flow.

The method, its constants and its step control are those of Hairer &
Wanner, *Solving ODEs II*, §IV.8, in the form that scipy 1.17's
``scipy.integrate.Radau`` implements them, for a callable dense Jacobian
and forward integration: the same tableau constants, Newton tolerance
and iteration, initial step selection, step-size predictor, Jacobian
reuse, ``nextafter`` minimum step, ``rtol`` floor and ``first_step``
bounds, and the same ``nfev``, ``njev`` and ``nlu`` bookkeeping.

It lives in the package for two reasons.  Importing ``scipy.integrate``
pulls in ``scipy.special``, ``scipy.optimize`` and ``scipy.sparse.linalg``,
about a third of a CLI run's wall time, for one class.  And the
Ricci-flat projection in ``flow.integrate`` has to replace the current
state between steps, which scipy keeps in private fields; here ``t``,
``y`` and ``f`` are this class's own public state.

It uses numpy alone, so the flow loads no ``scipy`` module.  Each Newton
matrix (2r×2r, r ≤ 3) is inverted once when it is formed, and every
solve with it is one matrix-vector product; the three collocation stages
are evaluated in one call of ``fun``.  This is a deliberate departure
from scipy's LU factorisation and per-stage calls: the stepper is no
longer bit-identical to scipy's Radau.  Its states agree with scipy's to
well within the tolerances, not to the last bit.  A singular Newton
matrix raises numpy's ``LinAlgError``, a ``ValueError``.

The simplified Newton iteration is linear in the stage values F and in
the transformed increments W.  In the eigenbasis of the tableau its
update is ``dW0 = inv(MU_REAL/h - J) (TI0 F - MU_REAL W0/h)`` for the
real eigenvalue and the complex analogue for MU_COMPLEX.  Whenever the
two Newton matrices are inverted, the stepper folds both inverses, the
complex one split into its real and imaginary parts, together with
``TI`` and the eigenvalues into one real (3n, 6n) operator

    K = blockdiag(inv_real, [[Re, -Im], [Im, Re]] of inv_complex)
        @ [TI ⊗ I | -M0 ⊗ I],

so that an iteration is one call of ``fun``, one finiteness check of the
stacked input ``v = [F ; W/h]``, ``dW = K @ v``, the scaled RMS norm and
``Z = T W``.  For n = 2r ≤ 6 this replaces a dozen small numpy calls
(complex arithmetic, two solves, three row copies) by one matrix-vector
product.  The update is the same linear map, summed in another order, so
it agrees with the two-solve form to a few ulps rather than bit for bit;
on the shipped configs the steps and the ``nfev``, ``njev`` and ``nlu``
counts are unchanged.  The real inverse is kept for the error estimate.
"""

from __future__ import annotations

import warnings

import numpy as np

EPS = np.finfo(float).eps

S6 = 6 ** 0.5

# Butcher tableau.  A is not used directly: the Newton iteration works in
# the eigenbasis A = T diag(MU_REAL, MU_COMPLEX, conj(MU_COMPLEX)) T^-1.
C = np.array([(4 - S6) / 10, (4 + S6) / 10, 1])
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


def _norm(x: np.ndarray):
    """RMS norm, with the operations of ``np.linalg.norm(x) / sqrt(size)``."""
    x = x.ravel()
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Step-size factor from the last one or two error norms (§IV.8)."""
    if error_norm == 0:
        return np.inf
    if error_norm_old is None or h_abs_old is None:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * error_norm ** -0.25


def _lu(a: np.ndarray) -> np.ndarray:
    """The factorisation `_solve_lu` applies: the inverse of `a`."""
    if not np.isfinite(a).all():
        raise ValueError(_NOT_FINITE)
    return np.linalg.inv(a)


def _solve_lu(inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` with ``inv = _lu(a)``."""
    if not np.isfinite(b).all():
        raise ValueError(_NOT_FINITE)
    return inv @ b


class Radau:
    """Implicit Runge-Kutta Radau IIA stepper of order 5, forward in t.

    ``fun(t, y)`` is the right-hand side and ``jac(t, y)`` its dense
    Jacobian.  ``fun`` must also take the three collocation stages at
    once, as scipy's ``vectorized=True`` asks: an (n, 3) ``y`` of one
    state per column with the (3,) abscissae ``t``, returning the (n, 3)
    values.  ``step()`` advances by one accepted step and returns None,
    or sets ``status`` to ``"failed"`` and returns scipy's message; the
    status becomes ``"finished"`` once ``t`` reaches ``t_bound``.

    After each accepted step, ``dense`` holds ``(t_old, h, y_old, Q)``:
    the step's interpolant is ``y_old + Q @ (x, x^2, x^3)`` with
    ``x = (s - t_old) / h``.  The stepper warm-starts its next Newton
    iteration from it.  A caller may replace ``y`` and ``f`` between
    steps (``f`` must then be ``fun(t, y)``); ``dense`` is left as the
    step produced it.

    Besides scipy's ``nfev``, ``njev`` and ``nlu``, the stepper counts
    ``nrejected``, the step attempts it discarded (by the error test or
    after a Newton iteration that failed to converge), and records the
    smallest and largest accepted step in ``h_min`` and ``h_max``.
    """

    def __init__(self, fun, jac, t0: float, y0, t_bound: float,
                 rtol: float, atol: float, first_step: float | None = None):
        y0 = np.asarray(y0, dtype=float)
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        if not t_bound > t0:
            raise ValueError("`t_bound` must exceed `t0`.")
        if rtol < 100 * EPS:
            warnings.warn(
                "At least one element of `rtol` is too small. "
                f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                stacklevel=2,
            )
        if atol < 0:
            raise ValueError("`atol` must be positive.")

        self._fun = fun
        self._jac = jac
        self.t = t0
        self.y = y0
        self.t_bound = t_bound
        self.n = y0.size
        self.status = "running"
        self.nfev = 0
        self.njev = 0
        self.nlu = 0
        self.rtol = max(rtol, 100 * EPS)
        self.atol = atol
        # scipy computes the Newton tolerance from the rtol it was given,
        # before the floor above
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))

        self.f = self.fun(t0, y0)
        if first_step is None:
            self.h_abs = self._initial_step()
        elif first_step <= 0:
            raise ValueError("`first_step` must be positive.")
        elif first_step > np.abs(t_bound - t0):
            raise ValueError("`first_step` exceeds bounds.")
        else:
            self.h_abs = first_step
        self.h_abs_old = None
        self.error_norm_old = None

        self.J = np.asarray(jac(t0, y0), dtype=float)
        self.njev = 1
        self.I = np.identity(self.n)
        self.current_jac = True
        self.LU_real = None
        self.K = None
        self.dense = None
        self.nrejected = 0
        self.h_min = float("inf")
        self.h_max = 0.0

        n = self.n
        # [TI (x) I | -M0 (x) I] maps the stacked Newton input [F ; W/h]
        # to the right-hand sides of the real system and of the complex
        # one split into its real and imaginary rows
        self._kron = np.hstack([np.kron(TI, self.I), -np.kron(M0, self.I)])
        self._block = np.zeros((3 * n, 3 * n))
        self._v = np.empty(6 * n)
        self._vF = self._v[:3 * n].reshape(3, n)
        self._vW = self._v[3 * n:].reshape(3, n)
        self._scale = np.empty((3, n))   # the error scale, once per stage

    def fun(self, t, y):
        self.nfev += 1
        return self._fun(t, y)

    def jac(self, t, y):
        self.njev += 1
        return np.asarray(self._jac(t, y), dtype=float)

    def lu(self, a):
        self.nlu += 1
        return _lu(a)

    def _newton_operators(self, h, J):
        """Invert both Newton matrices of step size h and fold them into K.

        Returns ``(LU_real, K)``: the inverse of the real matrix, which the
        error estimate applies, and the (3n, 6n) operator that takes the
        stacked input ``[F ; W/h]`` (stage by stage) to the Newton update
        ``dW`` in one matrix-vector product.
        """
        LU_real = self.lu(MU_REAL / h * self.I - J)
        LU_complex = self.lu(MU_COMPLEX / h * self.I - J)
        n = self.n
        B = self._block
        B[:n, :n] = LU_real
        B[n:2 * n, n:2 * n] = B[2 * n:, 2 * n:] = LU_complex.real
        B[n:2 * n, 2 * n:] = -LU_complex.imag
        B[2 * n:, n:2 * n] = LU_complex.imag
        return LU_real, B.dot(self._kron)

    def _initial_step(self) -> float:
        """Hairer, Nørsett & Wanner's starting step for an order-3 error
        estimate (*Solving ODEs I*, §II.4), as scipy selects it."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _norm(y0 / scale)
        d1 = _norm(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * f0
        f1 = self.fun(t0 + h0, y1)
        d2 = _norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 4)
        return min(100 * h0, h1, interval_length)

    def step(self) -> str | None:
        """Take one accepted step; return None, or a message on failure."""
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished solver.")
        if not self._step_impl():
            self.status = "failed"
            return TOO_SMALL_STEP
        if self.t - self.t_bound >= 0:
            self.status = "finished"
        return None

    def _warm_start(self, t, h) -> np.ndarray:
        """Newton start Z0: the last step's interpolant at t + h C, minus y."""
        t_old, h_old, y_old, Q = self.dense
        x = (t + h * C - t_old) / h_old
        p = np.empty((3, 3))
        p[0] = x
        p[1] = p[0] * x
        p[2] = p[1] * x
        z = np.dot(Q, p)
        z += y_old[:, None]
        return z.T - self.y

    def _step_impl(self) -> bool:
        t = self.t
        y = self.y
        f = self.f
        atol = self.atol
        rtol = self.rtol

        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            h_abs_old = None
            error_norm_old = None
        else:
            h_abs = self.h_abs
            h_abs_old = self.h_abs_old
            error_norm_old = self.error_norm_old

        J = self.J
        LU_real = self.LU_real
        K = self.K
        current_jac = self.current_jac

        rejected = False
        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                return False

            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)

            if self.dense is None:
                Z0 = np.zeros((3, y.shape[0]))
            else:
                Z0 = self._warm_start(t, h)

            scale = atol + np.abs(y) * rtol

            converged = False
            while not converged:
                if K is None:
                    LU_real, K = self._newton_operators(h, J)

                converged, n_iter, Z, rate = self._solve_collocation(
                    t, y, h, Z0, scale, K)

                if not converged:
                    if current_jac:
                        break
                    J = self.jac(t, y)
                    current_jac = True
                    K = None

            if not converged:
                h_abs *= 0.5
                K = None
                self.nrejected += 1
                continue

            y_new = y + Z[-1]
            ZE = Z.T.dot(E) / h
            error = _solve_lu(LU_real, f + ZE)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _norm(error / scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)

            if rejected and error_norm > 1:
                error = _solve_lu(LU_real, self.fun(t, y + error) + ZE)
                error_norm = _norm(error / scale)

            if error_norm > 1:
                factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
                h_abs *= max(MIN_FACTOR, safety * factor)
                K = None
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
            K = None

        f_new = self.fun(t_new, y_new)
        if recompute_jac:
            J = self.jac(t_new, y_new)
            current_jac = True
        else:
            current_jac = False

        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm
        self.h_abs = h_abs * factor

        self.t = t_new
        self.y = y_new
        self.f = f_new

        self.LU_real = LU_real
        self.K = K
        self.current_jac = current_jac
        self.J = J

        if h < self.h_min:
            self.h_min = float(h)
        if h > self.h_max:
            self.h_max = float(h)
        self.dense = (t, h, y, np.dot(Z.T, P))
        return True

    def _solve_collocation(self, t, y, h, Z0, scale, K):
        """Simplified Newton iteration for the stage increments Z.

        ``K`` is the fused operator of `_newton_operators` for this h.
        Returns (converged, iterations, Z, rate of convergence).
        """
        W = TI.dot(Z0)
        W_flat = W.reshape(-1)   # a view: updating it updates W
        Z = Z0
        self._scale[...] = scale
        scale = self._scale.reshape(-1)

        v, vF, vW = self._v, self._vF, self._vW
        tc = t + h * C

        dW_norm_old = None
        converged = False
        rate = None
        tol = self.newton_tol
        fun = self._fun
        for k in range(NEWTON_MAXITER):
            F = fun(tc, (y + Z).T)  # all three stages in one call
            self.nfev += 3

            vF[...] = F.T
            np.divide(W, h, out=vW)
            if not np.isfinite(v).all():
                # a non-finite stage value ends the iteration unconverged,
                # so a fresh Jacobian or a shorter step follows; a
                # non-finite W/h means h has underflowed, and is an error
                if not np.isfinite(F).all():
                    break
                raise ValueError(_NOT_FINITE)

            dW = K.dot(v)

            dW_norm = _norm(dW / scale)
            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old

            if (rate is not None and (rate >= 1 or
                    rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol)):
                break

            W_flat += dW
            Z = T.dot(W)

            if (dW_norm == 0 or
                    rate is not None and rate / (1 - rate) * dW_norm < tol):
                converged = True
                break

            dW_norm_old = dW_norm

        return converged, k + 1, Z, rate
