"""Radau IIA (order 13, seven stages) stepper for autonomous systems.

The method and its step control are those of Hairer & Wanner, *Solving
ODEs II*, §IV.8, and of their variable-order RADAU code (J. Comput. Appl.
Math. 111 (1999) 93-111) at seven stages: the tableau constants, the
simplified Newton iteration and its tolerance, the embedded error
estimate, the initial step selection, the step-size predictor and the
``nextafter`` minimum step, with ``nfev``, ``njev`` and ``nlu`` counting
right-hand-side evaluations, Jacobians and factorisations.  The error
estimate has order 7, so the number of steps goes as tol^(-1/8), and
the initial step is `_initial_step`, scipy's ``select_initial_step`` at
that order.

It is the package's one integrator, on three systems: the phase flow in
s (``flow.integrate``), the soliton's tail on its slow manifold in tau =
log s (``flow._tail``) and the oracle's second-order system in t
(``oracle.integrate_second_order``).  Each run's accepted steps form a
`RadauSegment`, its piecewise interpolant; `run_segment` drives the tail
and the oracle with a test after every step.

It lives in the package for two reasons.  Importing ``scipy.integrate``
pulls in ``scipy.special``, ``scipy.optimize`` and ``scipy.sparse.linalg``,
about a third of a CLI run's wall time, for one class.  And the
Ricci-flat projection in ``flow.integrate`` has to replace the current
state between steps, which scipy keeps in private fields; here ``t``,
``y`` and ``f`` are this class's own public state.

Unlike scipy's generic interface, it takes a system as it is: each is
autonomous (the tail and the oracle carry their abscissa as a state), so
``fun(y)`` and ``jac(y)`` take no time, and ``fun`` gets either one
state (n,) or the seven collocation stages as one stage-major (7, n)
stack, which each field evaluates row by row in one call.  Every
failure of a step raises ``ValueError``.  The step controls are not
checked here: ``model.StepControls`` owns the rules for ``rtol`` and
``atol``.  The constant maps of the Newton iteration do not depend on
n: `_DW_BLOCKS` and `_ERROR_BLOCKS` are built once, at import.

It uses numpy alone, so no run loads a ``scipy`` module.  The seven
collocation stages are evaluated in one call of ``fun``.  A^-1 has one
real eigenvalue MU_REAL and three complex pairs, so the Newton iteration
needs four matrices: on every step attempt, ``MU_REAL/h I - J`` and
``MU_COMPLEX[k]/h I - J`` (n×n, n ≤ 7) are written into one (4, n, n)
complex stack and inverted by `_lu` in one ``np.linalg.inv`` call; the
real inverse is the real part of the first member's.  ``nlu`` counts
matrices, four per attempt.  A singular Newton matrix raises
numpy's ``LinAlgError``, a ``ValueError``.

The simplified Newton iteration is linear in the stage values F and in
the stage increments Z.  In the eigenbasis of the tableau, with
``W = TI Z``, its update is ``dW0 = inv(MU_REAL/h - J) (TI0 F - MU_REAL
W0/h)`` for the real eigenvalue and the complex analogue for each
MU_COMPLEX.  Each attempt folds the four inverses, each complex one
split into its real and imaginary parts, together with ``T``, ``TI`` and
the eigenvalues into one real (14n, 14n) operator

    K = blockdiag(inv_real, [[Re, -Im], [Im, Re]] of each inv_complex)
        @ ([TI | -M0 TI] ⊗ I),
    newton_op = [K ; (T ⊗ I) K].

``newton_op`` maps the stacked input ``v = [F ; Z/h]`` to ``[dW ;
dZ]``, so that an iteration is one call of ``fun``, one matrix-vector
product, the scaled RMS norm of dW and ``Z + dZ``: W is never formed.
The operators, their input and the Newton product ``[dW ; dZ]`` are
buffers of the stepper, rewritten by the next call, and every view of
them that an attempt writes through is made once, with the stepper; no
result handed out (``y``, ``f``, ``dense``, Z) is one of them.
The same attempt builds the (n, 8n) error operator ``inv_real [I | E ⊗
I]``, which maps ``[f ; Z/h]`` to the error estimate ``inv_real (f + Z^T
E / h)``.  Neither operator holds the 1/h of Z/h, which their input
carries.  For n ≤ 7 numpy's per-call overhead outweighs the arithmetic,
so folding ``T W`` and ``W += dW`` into the Newton product, and ``Z^T E
/ h`` and ``f + Z^T E / h`` into the error product, saves more than the
larger products cost.

Every factor of both operators but the inverses is a Kronecker product
with I_n (Van Loan, "The ubiquitous Kronecker product", J. Comput. Appl.
Math. 123 (2000)), so each of their n×n blocks is a fixed real
combination of the eight real n×n parts of the four inverses, Re and Im
of each (the real system's Im is 0).  The combinations do not depend on
n: `_DW_BLOCKS` holds 8 coefficients for each of K's (7, 14) blocks and
`_ERROR_BLOCKS` 8 for each of the error operator's 8 blocks.  An attempt
writes both operators into the stepper's buffers with three products and
never multiplies through an identity block: each coefficient stack times
the parts, stacked row by row as (n, 8, n), gives K's rows and the error
operator block by block, and one (7, 7) @ (7, 14n²) product with T gives
``(T ⊗ I) K``.  The maps are the same linear maps as the textbook forms,
summed in another order, so they agree with them to a few ulps rather
than bit for bit.

Every step attempt takes one Jacobian, where the attempt is predicted
to end, as BDF codes take their iteration matrix at the predicted
solution (Brown, Byrne & Hindmarsh, SIAM J. Sci. Stat. Comput. 10
(1989) 1038-1051): at the warm start's last stage, ``y + Z0[-1]``.  The
first attempt's Z0 is zero, so its Jacobian is taken at ``y0``.  The
attempt then builds its Newton operators for its own h.  Nothing is kept
from one attempt to the next, so ``njev`` counts attempts, accepted and
rejected, and ``nlu`` is four times ``njev``.  A Newton solve that fails
halves h, and a failed error test shrinks it, as in the textbook.
Hairer & Wanner's code reuses J across steps, and its operators while h
changes by less than a fifth; on this flow that reuse spared almost no
factorisation, and one Jacobian per attempt takes fewer right-hand-side
evaluations and fewer rejected attempts.

One constant differs from the textbook's.  The error test aims at
``ERROR_TARGET`` = 0.3 of the error scale ``atol + rtol |y|``: at 1 the
longer steps break the accuracy contract below.  The config tolerances
keep their meaning.  The Newton tolerance is Hairer & Wanner's, ``max(10
eps / rtol, min(0.03, sqrt(rtol)))``.

The stepper answers to an accuracy contract, which ``tests/test_flow.py``
checks: each step's end agrees with a tight reference integration over
the same interval to within a hundredth of the step's error scale, the
verify checks move by less than 1% of their tolerances when the
tolerances tighten a hundredfold, and a linear problem ends on its
closed-form solution.  The work of each shipped config (steps, ``nfev``,
``njev``, ``nlu`` and rejected attempts) is pinned there as
``SHIPPED_WORK``, that of a few more specs as ``WIDER_WORK``, and that
of the oracle on each shipped soliton config as ``SHIPPED_ORACLE_WORK``.
A change that alters the steps or the work must pass the accuracy tests
and re-pin them, with the old and new counts in CHANGES.md.  A change
that means to leave them alone must leave the pins as they are.  If it
sums anything in another order, as the stage-space operators above did,
each step moves by an ulp or so; the step sizes follow the error norm,
so the run carries that along (the tail's last abscissa moved by up to
5e-7 relative), and a convergence test that lands within about 1e-4 of
its threshold flips, adding or saving a step or a few evaluations on
that input (6 of 400 generated inputs did).  Step control runs on Python
floats (``math.nextafter``, ``abs``, ``math.sqrt``), which round as
numpy's scalars do; the initial step is computed on numpy scalars, so
that a degenerate scale gives inf or nan instead of raising.

Finiteness is checked where a bad value can first do harm, and no more
often.  `_lu` scans each stack of Newton matrices once before inverting
it.  The Newton iteration and the error estimate do not scan their inputs
on every call: a non-finite entry in the stacked input ``[F ; Z/h]`` or
``[f ; Z/h]`` makes every entry of the product with the operator, and so
the scaled norm, non-finite, and only then are the inputs scanned.  A
non-finite F ends the iteration unconverged, so h halves; a non-finite
``Z/h``, or a non-finite f in the error estimate, raises ``ValueError``
with the message ``_NOT_FINITE``.

A ``project`` hook maps each accepted state to the one the next step
starts from, before the step's single ``fun`` call, so that ``y`` and
``f`` stay a consistent pair; the flow's Ricci-flat projection uses it.
"""

from __future__ import annotations

import math

import numpy as np

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

EPS = np.finfo(float).eps

STAGES = 7
_PAIRS = (STAGES - 1) // 2   # complex eigenvalue pairs of A^-1

# Butcher tableau, from the Gauss-Radau nodes C (the zeros of
# P_7(2x - 1) - P_6(2x - 1), Legendre polynomials P_k), A_ij the integral
# of the j-th Lagrange basis polynomial on C over [0, C_i].  Every literal
# below is the correctly rounded value of a 60-digit construction, which
# tests/test_flow.py repeats; a float64 construction leaves
# |T M0^-1 TI - A| near 1e-11, enough to show in the closed-form test.
# A is not used directly: the Newton iteration works in the real
# eigenbasis of A^-1 = T M0 TI, with one real eigenvalue MU_REAL and three
# complex pairs, whose members MU_COMPLEX (one of each pair, the one with
# negative imaginary part, by increasing real part) act on the real and
# imaginary rows of their block as [[Re, -Im], [Im, Re]].  The columns
# of T are the eigenvectors, scaled to a last entry of 1.
C = np.array([0.029316427159784893, 0.1480785996684843, 0.3369846902811543,
              0.5586715187715501, 0.7692338620300545, 0.9269456713197411, 1.0])
# The error estimate's weights E = A^-T (b_hat - b) / gamma0, where the
# embedded weights (gamma0, b_hat) on the nodes (0, C), gamma0 =
# 1 / MU_REAL, have order 7 and b is the last row of A
E = np.array([-54.374436894128614, 7.000024004259187, -2.355661091987557,
              1.1322890661061344, -0.6468913267673587, 0.38753338537535237,
              -0.14285714285714285])

MU_REAL = 8.936832788405216
MU_COMPLEX = np.array([4.378693561506806 - 10.169693283795011j,
                       7.14105521918764 - 6.623045922639276j,
                       8.511834825102946 - 3.281013624325059j])

T = np.array([
    [0.0024435843048706113, 0.021567551351320772, -0.008783567925144144,
     -0.004055161452331024, -0.004427232753268285, -0.0012386461879528741,
     0.0027606174805438525],
    [-0.001815339648319317, -0.03813164813441155, 0.021525560594006874,
     0.00841556827655959, 0.00403194957022455, -6.666635339396339e-05,
     -0.00318547482516621],
    [0.004605339331161875, 0.05739650893938172, -0.05885052920842679,
     -0.008560431061603433, 0.006923212665023909, -0.0023521809829433384,
     -0.00041690777252975626],
    [0.017870023342853068, -0.03821469359696835, 0.16573681127294385,
     -0.03737124230238446, -0.00823900729850772, 0.0031150711523461752,
     -0.025116604913438822],
    [0.12818100807728391, -0.2491742124652637, -0.27356330579866234,
     0.0053667613791817705, -0.19321111610126201, 0.10171773248171515,
     -0.09504502035604623],
    [0.5200651497488247, 0.5315846490836285, -0.4863228366175729,
     0.5265742264584493, -0.27553439498962584, 0.5217519452747653,
     -0.1280719446355439],
    [1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
TI = np.array([
    [227.51530596268069, 166.64802246760974, 43.26514588452621,
     3.623090061341016, 3.572674832938798, -2.7435563656033675,
     1.4514535402547504],
    [-3.007390169451292, -11.015866078765772, 1.4877994561316563,
     2.1303881595592826, -1.8161410868175656, 1.134325587895161,
     -0.41469904594330353],
    [8.441963188321084, 0.650525274057515, -6.9406707303698765,
     3.2050475255978985, -1.0712809435464785, 0.3548507491216222,
     -0.09198549132786554],
    [74.6783322350227, 87.40858897990081, 4.024158737379998,
     -3.714806315158364, -3.4300939859823174, 2.6966048097653124,
     -0.9386927436075462],
    [-58.356528851906575, 10.06877395780018, 30.36638884256667,
     1.020020865184866, 0.11241750037842496, -1.8906408310003777,
     0.9716486393831483],
    [-299.1862480282521, -243.04074536874478, -48.77710407803787,
     -2.0386719057419342, 1.673560239861085, -1.0873740320571061,
     0.9019382492960993],
    [93.0765028974353, -23.881631056281144, -39.278880730813846,
     -14.38891568549108, 3.5104383993993613, -4.8632848855661805,
     2.2464827295912397]])
# the eigenvalues acting on (W0, Re W1, Im W1, ..., Re W3, Im W3) as a
# real matrix: TI A^-1 T
_M1, _M2, _M3 = MU_COMPLEX
M0 = np.array([
    [MU_REAL, 0, 0, 0, 0, 0, 0],
    [0, _M1.real, -_M1.imag, 0, 0, 0, 0],
    [0, _M1.imag, _M1.real, 0, 0, 0, 0],
    [0, 0, 0, _M2.real, -_M2.imag, 0, 0],
    [0, 0, 0, _M2.imag, _M2.real, 0, 0],
    [0, 0, 0, 0, 0, _M3.real, -_M3.imag],
    [0, 0, 0, 0, 0, _M3.imag, _M3.real]])
# the Newton matrices' shifts, MU / h I - J, one per row
_MU = np.concatenate([[MU_REAL], MU_COMPLEX])[:, None]

# Dense-output coefficients: a step's interpolant is y_old + Q @ (x, x^2,
# ..., x^7) with Q = Z^T P and x = (s - t_old) / h; P is the inverse
# transpose of the matrix [C_i^k], k = 1..7.
P = np.array([
    [54.374436894128614, -809.604447567907, 4356.1008389578465,
     -11271.767934426613, 15165.697701626303, -10230.214794534506,
     2735.414199050748],
    [-7.000024004259187, 295.72882206751626, -2118.907019153766,
     6270.7306415830535, -9102.864560299675, 6441.038378576283,
     -1778.7262387691535],
    [2.355661091987557, -108.43698367594611, 1063.3426386156493,
     -3770.1808571400634, 6126.120473885261, -4675.3990102870885,
     1362.1980775102002],
    [-1.1322890661061344, 53.45541143713203, -570.1028912055015,
     2308.4681482334067, -4190.257632877243, 3485.0725047391993,
     -1085.503251260887],
    [0.6468913267673587, -30.856719667980922, 340.2585258530358,
     -1459.5261955536778, 2857.2748261860943, -2561.697312686989,
     853.8999845427503],
    [-0.38753338537535237, 18.571060264328636, -207.83495021012072,
     915.1333401610366, -1861.1136656635979, 1752.0573770502433,
     -616.4256282165146],
    [0.14285714285714285, -6.857142857142857, 77.14285714285714,
     -342.85714285714283, 707.1428571428571, -678.8571428571429,
     245.14285714285714]])

# the error estimate has order STAGES, so a step's error goes as h^(STAGES + 1)
_ORDER_EXPONENT = 1 / (STAGES + 1)

NEWTON_MAXITER = 6  # Newton iterations per collocation solve
ERROR_TARGET = 0.3  # the error norm a step aims at, a share of the error scale
MIN_FACTOR = 0.2    # smallest step-size decrease after a rejection
MAX_FACTOR = 10     # largest step-size increase

_NOT_FINITE = "array must not contain infs or NaNs"


def _norm(x: np.ndarray) -> float:
    """RMS norm, with the operations of ``np.linalg.norm(x) / sqrt(size)``,
    as a Python float."""
    x = x.ravel()
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _rms(x: np.ndarray):
    """scipy's RMS norm of a 1-D array, a numpy scalar."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, y0, f0, interval_length, rtol, atol):
    """scipy's ``select_initial_step`` (Hairer, Nørsett & Wanner, *Solving
    ODEs I*, §II.4) at error-estimator order 7 and no maximum step, on the
    same numpy scalars, for a forward run over `interval_length` > 0 from
    y0, where ``fun(y0)`` is f0."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """Step-size factor from the last one or two error norms (§IV.8)."""
    if error_norm == 0:
        return math.inf
    if error_norm_old is None or h_abs_old is None:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** _ORDER_EXPONENT
    return min(1, multiplier) * error_norm ** -_ORDER_EXPONENT


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


def _block_coefficients() -> tuple:
    """The coefficients of every n×n block of the two operators in the
    eight real parts of the four inverses (Re and Im of the real system's
    inverse, then of each complex one's): (7, 1, 14, 8) for the dW rows
    of the Newton operator, block row, a broadcast axis, block column,
    part; (8, 8) for the error operator, block column, part."""
    # [TI | -M0 TI] maps [F ; Z/h] to the right-hand sides of the real
    # system and of the three complex ones, each split into its real and
    # imaginary rows; each complex inverse acts on its pair of rows (re,
    # im) as (Re + i Im)(re + i im)
    rhs = np.hstack([TI, -M0.dot(TI)])
    dW = np.zeros((STAGES, 1, 2 * STAGES, 2 * (1 + _PAIRS)))
    dW[0, 0, :, 0] = rhs[0]
    for k in range(1, 1 + _PAIRS):
        re, im = rhs[2 * k - 1], rhs[2 * k]
        dW[2 * k - 1, 0, :, 2 * k] = re
        dW[2 * k - 1, 0, :, 2 * k + 1] = -im
        dW[2 * k, 0, :, 2 * k] = im
        dW[2 * k, 0, :, 2 * k + 1] = re
    error = np.zeros((STAGES + 1, 2 * (1 + _PAIRS)))
    error[:, 0] = np.concatenate([[1.0], E])   # [I | E ⊗ I] times the real inverse
    return dW, error


_DW_BLOCKS, _ERROR_BLOCKS = _block_coefficients()


class Radau:
    """Implicit Runge-Kutta Radau IIA stepper of order 13 (seven stages),
    forward in t.

    ``fun(y)`` is the right-hand side and ``jac(y)`` its dense Jacobian.
    ``fun`` must also take the seven collocation stages at once, as a
    (7, n) ``y`` of one state per row, and return the (7, n) values.
    ``step()`` advances by one accepted step; ``status`` becomes
    ``"finished"`` once ``t`` reaches ``t_bound``.  A step that cannot be
    taken raises ``ValueError``: ``TOO_SMALL_STEP`` once the step size is
    below the spacing of floats at ``t``, or the errors above.  The caller
    passes a finite ``y0`` and a ``t_bound`` beyond ``t0``; neither is
    checked here (``flow.integrate`` checks both).

    After each accepted step, ``dense`` holds its (n, 7) dense-output
    coefficients Q: the step's interpolant, of degree 7, is ``y_old + Q @
    (x, x^2, ..., x^7)`` with ``x = (s - t_old) / (t - t_old)``, where
    ``t_old`` and ``y_old`` are the state the step started from and ``t -
    t_old`` is its size, bit for bit.  Its coefficients sum to the step's
    increment, to roundoff in the sum, so the interpolant ends on the
    step's end.  The next Newton iteration starts from it.

    ``project``, if given, maps each accepted state to the state the next
    step starts from (the flow's Ricci-flat projection).  It is applied to
    the new ``y`` before the step's one ``fun`` call, so ``f`` is
    ``fun(y)`` at the projected state; the error estimate and ``dense``
    use the state the step produced.  The next step's Jacobian is taken
    at ``y + Z0[-1]``, the projected state plus the warm start's last
    stage.  The initial state is not projected.  A caller may also
    replace ``y`` and ``f`` between steps (``f`` must then be
    ``fun(y)``).

    Besides ``nfev``, ``njev`` and ``nlu``, the stepper counts
    ``nrejected``, the step attempts it discarded (by the error test or
    after a Newton iteration that failed to converge), and records the
    smallest and largest accepted step in ``h_min`` and ``h_max``.
    """

    def __init__(self, fun, jac, t0: float, y0, t_bound: float,
                 rtol: float, atol: float, project=None):
        y0 = np.asarray(y0, dtype=float)

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
        # Hairer & Wanner's Newton tolerance (see the module docstring)
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))

        self.f = self.fun(y0)
        # a Python float, so that the step control runs on Python floats
        self.h_abs = float(_initial_step(self.fun, y0, self.f, t_bound - t0, rtol, atol))
        self.h_abs_old = None
        self.error_norm_old = None

        self.t_old = None
        self.y_old = None
        self.dense = None
        self.nrejected = 0
        self.h_min = float("inf")
        self.h_max = 0.0

        n = self.n
        s = STAGES
        # the four Newton matrices, MU_REAL/h I - J and MU_COMPLEX[k]/h I - J
        self._matrices = np.empty((1 + _PAIRS, n, n), dtype=complex)
        self._diagonals = self._matrices.reshape(1 + _PAIRS, -1)[:, ::n + 1]   # views
        self._newton_op = G = np.empty((2 * s * n, 2 * s * n))
        # the dW rows as (block row, row in the block, block column, column
        # in the block), and the dW and dZ rows one block row each
        self._dW_blocks = G[:s * n].reshape(s, n, 2 * s, n)
        self._dW_rows = G[:s * n].reshape(s, -1)
        self._dZ_rows = G[s * n:].reshape(s, -1)
        self._error_op = np.empty((n, (s + 1) * n))
        self._error_blocks = self._error_op.reshape(n, s + 1, n)
        self._v = np.empty(2 * s * n)
        self._vF = self._v[:s * n].reshape(s, n)
        self._vZ = self._v[s * n:].reshape(s, n)
        self._dWZ = np.empty(2 * s * n)   # the Newton product [dW ; dZ]
        self._dW = self._dWZ[:s * n]
        self._dZ = self._dWZ[s * n:].reshape(s, n)
        self._u = np.empty((s + 1) * n)
        self._uf = self._u[:n]
        self._uZ = self._u[n:].reshape(s, n)
        self._scale = np.empty((s, n))   # the error scale, once per stage
        self._scale_flat = self._scale.reshape(-1)

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
        """Invert the four Newton matrices of step size h, in one stacked
        call, and build the two operators the step applies.

        Returns ``(error_op, newton_op)``: the (n, 8n) error operator,
        which takes ``[f ; Z/h]`` to the error estimate, and the (14n,
        14n) Newton operator, which takes the stacked input ``[F ; Z/h]``
        (stage by stage) to ``[dW ; dZ]``.  Every n×n block of the dW
        rows and of the error operator is a combination of the eight real
        parts of the inverses, with the coefficients of `_DW_BLOCKS` and
        `_ERROR_BLOCKS`, and each is written by one batched product; the
        dZ rows are T times the dW rows, block row by block row.  Neither
        operator holds h itself: the Z/h of their input is the current
        step's.  Both are buffers of the stepper, rewritten by the next
        call, as the Newton product of `_solve_collocation` is by the next
        iteration.
        """
        n = self.n
        A = self._matrices
        np.negative(J, out=A)
        self._diagonals += _MU / h
        inv = self.lu(A)
        # the eight real parts as (n, 8, n): row a of each part in turn
        parts = inv.view(float).reshape(1 + _PAIRS, n, n, 2).transpose(1, 0, 3, 2)
        parts = parts.reshape(n, 2 * (1 + _PAIRS), n)
        np.matmul(_DW_BLOCKS, parts, out=self._dW_blocks)
        np.dot(T, self._dW_rows, out=self._dZ_rows)   # (T ⊗ I) dW
        np.matmul(_ERROR_BLOCKS, parts, out=self._error_blocks)
        return self._error_op, self._newton_op

    def _warm_start(self, h) -> np.ndarray:
        """Newton start Z0: the last step's interpolant at t + h C, minus y."""
        t, t_old = self.t, self.t_old
        h_old = t - t_old
        x = (t + h * C - t_old) / h_old
        # the powers x, x^2, ..., x^7 of each node, multiplied in turn
        p = x.repeat(STAGES).reshape(STAGES, STAGES).cumprod(axis=1)
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

        abs_y = np.abs(y)
        newton_scale = atol + abs_y * rtol
        u = self._u   # [f ; Z/h], the error operator's input: f once per step
        self._uf[...] = f

        rejected = False
        while True:
            if h_abs < min_step:
                raise ValueError(TOO_SMALL_STEP)

            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            if self.dense is None:
                Z0 = np.zeros((STAGES, y.shape[0]))
            else:
                Z0 = self._warm_start(h)

            # one Jacobian per attempt, at the warm start's predicted end
            error_op, newton_op = self._newton_operators(h, self.jac(y + Z0[-1]))
            converged, n_iter, Z = self._solve_collocation(
                y, h, Z0, newton_scale, newton_op)

            if not converged:
                h_abs *= 0.5
                self.nrejected += 1
                continue

            y_new = y + Z[-1]
            np.divide(Z, h, out=self._uZ)
            scale = ERROR_TARGET * (atol + np.maximum(abs_y, np.abs(y_new)) * rtol)
            error, error_norm = _error_estimate(error_op, u, scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)

            if rejected and error_norm > 1:
                self._uf[...] = self.fun(y + error)
                error, error_norm = _error_estimate(error_op, u, scale)
                self._uf[...] = f   # back, for the next attempt

            if error_norm <= 1:
                break
            factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
            h_abs *= max(MIN_FACTOR, safety * factor)
            rejected = True
            self.nrejected += 1

        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(MAX_FACTOR, safety * factor)

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

        if h < self.h_min:
            self.h_min = float(h)
        if h > self.h_max:
            self.h_max = float(h)
        # the last column takes up the rounding of Z^T P, so that the
        # interpolant's coefficients sum to the step's increment Z[-1]
        Q = np.dot(Z.T, P)
        Q[:, -1] += Z[-1] - np.add.reduce(Q, axis=1)
        self.dense = Q
        if t_new - self.t_bound >= 0:
            self.status = "finished"

    def _solve_collocation(self, y, h, Z0, scale, newton_op):
        """Simplified Newton iteration for the stage increments Z.

        ``newton_op`` is the Newton operator of `_newton_operators` for
        this h.  Returns (converged, iterations, Z).
        Z0 is not written to.
        """
        Z = Z0
        self._scale[...] = scale
        scale = self._scale_flat

        v, vF, vZ = self._v, self._vF, self._vZ
        dWZ, dW, dZ = self._dWZ, self._dW, self._dZ

        dW_norm_old = None
        converged = False
        rate = None
        tol = self.newton_tol
        fun = self._fun
        for k in range(NEWTON_MAXITER):
            vF[...] = fun(y + Z)   # all seven stages in one call
            self.nfev += STAGES

            np.divide(Z, h, out=vZ)
            newton_op.dot(v, out=dWZ)
            dW_norm = _norm(dW / scale)
            if not math.isfinite(dW_norm):
                # a non-finite entry of v makes every entry of dW, and so
                # the norm, non-finite; only then is v scanned.  A
                # non-finite stage value ends the iteration unconverged,
                # so a shorter step follows; a
                # non-finite Z/h means h has underflowed, and is an error
                if not np.isfinite(vF).all():
                    break
                _check_finite(v)

            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old

            if (rate is not None and (rate >= 1 or
                    rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol)):
                break

            Z = Z + dZ

            if (dW_norm == 0 or
                    rate is not None and rate / (1 - rate) * dW_norm < tol):
                converged = True
                break

            dW_norm_old = dW_norm

        return converged, k + 1, Z


class RadauSegment:
    """A run's accepted steps: a piecewise interpolant over them.

    Step k covers [ts[k], ts[k+1]] and is samples[k] + Q[k] @ (x, x^2,
    ..., x^7) with x = (t - ts[k]) / h[k] and h = np.diff(ts): the stepper's
    ``dense`` polynomial (and scipy's ``RadauDenseOutput``), since each
    step starts from the sample before it and its step size is the
    difference of its ends, bit for bit.  A call evaluates all abscissae
    at once; an abscissa on a step boundary uses the earlier step and one
    outside the range extrapolates from the nearest end step, as scipy's
    ``OdeSolution`` does.  nfev counts the stepper's right-hand-side
    evaluations.
    """

    def __init__(self, ts: np.ndarray, samples: np.ndarray, Q: np.ndarray,
                 nfev: int) -> None:
        self.ts = ts             # (step + 1,)
        self.samples = samples   # (step + 1, n)
        self.Q = Q               # (step, n, 7)
        self.nfev = nfev
        self._Q_by_power = Q.transpose(2, 0, 1).copy()   # (7, step, n)

    @property
    def s(self) -> np.ndarray:
        return self.ts

    @property
    def steps(self) -> int:
        return self.Q.shape[0]

    def __call__(self, t) -> np.ndarray:
        """States at the N abscissae of a 1-D array: shape (n, N)."""
        t = np.asarray(t, dtype=float)
        ts = self.ts
        k = np.searchsorted(ts, t, side="left") - 1
        np.clip(k, 0, ts.size - 2, out=k)
        t_old = ts[k]
        x = (t - t_old) / (ts[k + 1] - t_old)
        # the powers x, x^2, ..., x^7, each the one before times x, and the
        # (7, N, n) stack of terms: 0.27 MB for the tail's 1200-point read
        # at n = 4.  They are added to the samples in turn, so that a read
        # is a loop over the powers, bit for bit.
        powers = np.broadcast_to(x, (self.Q.shape[2],) + x.shape).cumprod(axis=0)
        terms = self._Q_by_power.take(k, axis=1)
        terms *= powers[:, :, None]
        y = self.samples[k]
        for term in terms:
            y += term
        return y.T

    def at_fractions(self, x: np.ndarray):
        """Every step's interpolant at the m fractions x of the step (x = 0
        its start, 1 its end), shape (step, n, m), and dt/dx there, the
        step size, shape (step, m)."""
        x = np.asarray(x, dtype=float)
        powers = x ** np.arange(1, self.Q.shape[2] + 1)[:, None]
        h = np.diff(self.ts)[:, None]
        return (self.samples[:-1, :, None] + self.Q @ powers,
                np.broadcast_to(h, (h.shape[0], x.size)))


def run_segment(solver: Radau, stop) -> tuple:
    """Step `solver` until it finishes, or until ``stop(t, y)``, called
    after every accepted step, is true: (its `RadauSegment`, whether
    ``stop`` ended the run).  Exceptions of the stepper and of ``stop``
    propagate."""
    ts, ys, Qs = [solver.t], [solver.y], []
    stopped = False
    while solver.status == "running" and not stopped:
        solver.step()
        ts.append(solver.t)
        ys.append(solver.y)
        Qs.append(solver.dense)
        stopped = stop(solver.t, solver.y)
    return RadauSegment(np.array(ts), np.array(ys), np.array(Qs), solver.nfev), stopped
