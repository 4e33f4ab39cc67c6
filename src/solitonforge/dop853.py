"""The DOP853 step loop (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.10).

One explicit Runge-Kutta pair of order 8 with its order-7 dense output,
shared by the two integrations that need a non-stiff method: the
oracle's t-space system (``oracle.integrate_second_order``) and the
soliton's tail on its slow manifold (``flow.integrate``).

``_dop853`` takes a field of ``_field_factory``: ``fun(t, v)`` on a
Python list ``v``, which returns the derivative as a list of floats, and
its stage entry ``fun.stage(t, y, d, h)``, the field at the state y + d
h, formed entry by entry inside the kernel; and an optional stop test
``stop(t, y)``, called at the end of every accepted step, where a true
result ends the run.  Runs go forward only, to a ``t_bound`` beyond
``t0``.  The loop repeats the arithmetic of scipy's ``DOP853`` call for
call on such runs.  scipy forms each stage state as ``y + np.dot(K[:s].T,
a) * h`` on arrays; here the same ``np.dot`` (a BLAS product, whose
summation the loop must not change) is passed as the list d, and the
stage forms ``y_i + d_i * h`` on the Python floats, with h a float.
numpy's elementwise multiply and add are each one correctly rounded IEEE
operation on doubles, as Python's float ones are, and no product is fused
into the sum, so every entry rounds the same.  The interpolant's first
three rows are scipy's elementwise expressions in the step's start and
end states and derivatives, formed on the same floats; the rest are its
``np.dot``.  The stage's abscissa is ``t + c * h``; the error norm,
step-size control and initial step are those of scipy's ``RungeKutta``
and ``DOP853`` on the same numpy scalars, and the interpolant that of its
``Dop853DenseOutput``.  Since every operation and operand is the same,
every sample, interpolant value and step is that of scipy's DOP853 run
with dense output, bit for bit; the oracle's tests check this against
``solve_ivp`` itself.

The loop runs two fields: the oracle's t-space field (``oracle.t_field``)
and the tail's remainder about its logistic relaxation
(``manifold.remainder_field``).  Each is straight-line Python, compiled
with its stage entry from one generated body by ``_field_factory``, one
factory per field and number of factors; the phase flow's field and
Jacobian (``phase``) are compiled by it too.

The tableau is written here as correctly rounded literals, the doubles
of scipy's ``dop853_coefficients`` (a test compares them with
``np.array_equal``), so that nothing in the package imports scipy.

A ``t_bound`` that is not beyond ``t0`` raises ``ValueError`` before
``fun`` is called.  A step size below ten ulps of t, or a NaN one (on
which scipy's loop rejects steps without end), raises
``ValueError(TOO_SMALL_STEP)``; each caller reports it as its own
error.
"""

from __future__ import annotations

import math

import numpy as np

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# scipy's step-size control for explicit Runge-Kutta pairs; the exponent
# is -1 / (order of the error estimator + 1), DOP853's being 7
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8

STAGES = 12


def _rows(rows, shape) -> np.ndarray:
    """An array of `shape` whose rows start with the given entries and are
    zero after them."""
    out = np.zeros(shape)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


A = _rows([
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
], (STAGES, STAGES))
B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
              1.8915178993145003, -5.801203960010585, 0.3111643669578199,
              -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
# the error estimators, on the stages and f at the step end
E3, E5 = _rows([
    [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, -0.4226823213237919,
     -0.1521609496625161, 0.20136540080403034, 0.02265179219836082],
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
     -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
     0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
], (2, STAGES + 1))
# the dense output's three extra stages, on the stages before them
A_EXTRA = _rows([
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
], (3, STAGES + 4))
C_EXTRA = np.array([0.1, 0.2, 0.7777777777777778])
# the interpolant's last four coefficient rows, on all sixteen stages
D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])


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
        ts = self.ts
        k = np.searchsorted(ts, t, side="left") - 1
        np.clip(k, 0, ts.size - 2, out=k)
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


def _norm(x: np.ndarray):
    """The 2-norm of a 1-D array as ``np.linalg.norm`` computes it, a numpy
    scalar, without its argument handling."""
    return np.sqrt(x.dot(x))


def _rms(x: np.ndarray):
    """scipy's RMS norm."""
    return _norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """scipy's ``select_initial_step`` (Hairer, Nørsett & Wanner, *Solving
    ODEs I*, §II.4) at error-estimator order 7 and no maximum step, on the
    same numpy scalars, for a forward run: t_bound > t0."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.array(fun(t0 + h0, (y0 + h0 * f0).tolist()))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(err5: np.ndarray, err3: np.ndarray, h: float):
    """DOP853's scaled error norm (scipy's ``_estimate_error_norm``) from
    the order-5 and order-3 estimates divided by the scale."""
    err5_norm_2 = _norm(err5) ** 2
    err3_norm_2 = _norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return h * err5_norm_2 / np.sqrt(denom * err5.size)


def _field_factory(consts: dict, args: str, body: list, state: list = ()):
    """Compile a straight-line kernel and return its factory: the
    package's one compiler of generated code, for the DOP853 loop's fields
    and the phase flow's field and Jacobian.

    ``factory(*seqs)`` takes one sequence per key of `consts`, in order:
    the one for key c holds consts[c] numbers, which it unpacks into the
    locals c0, c1, ....  It returns ``field(<args>)``, whose body is the
    source lines `body`; the field reads those locals as closure
    variables, and ``math`` as its one global.  No number of the caller's
    enters the source text, so the field computes on the caller's own
    doubles, and the source, hence the compiled factory, depends only on
    the shape of `consts` and on `body`: callers compile once per number
    of factors and cache.  With no constants, ``factory()`` returns a
    kernel that takes all its numbers as arguments.

    A DOP853 field names its components `state` and `args` is its
    abscissa, which `body` may read.  ``field(<args>, v)`` then unpacks
    the list v into those names, and its attribute ``field.stage(<args>,
    y, d, h)`` sets each name to ``y_i + d_i * h`` instead, the loop's
    stage state; both run the same `body`.  The factory's generated text
    is its attribute ``source``.
    """
    def unpack(names, seq):
        return f"{''.join(f'{x}, ' for x in names)}= {seq}"

    src = [f"def factory({', '.join(consts)}):"]
    src += [f"    {unpack([f'{c}{i}' for i in range(n)], c)}" for c, n in consts.items()]
    entries = [(f"field({args})", [])]
    if state:
        ys, ds = ([f"_{a}{i}" for i in range(len(state))] for a in "yd")
        entries = [(f"field({args}, _v)", [unpack(state, "_v")]),
                   (f"stage({args}, _y, _d, _h)", [unpack(ys, "_y"), unpack(ds, "_d")]
                    + [f"{x} = {y} + {d} * _h" for x, y, d in zip(state, ys, ds)])]
    for head, prologue in entries:
        src.append(f"    def {head}:")
        src += [f"        {line}" for line in prologue + body]
    if state:
        src.append("    field.stage = stage")
    src.append("    return field")
    text = "\n".join(src)
    namespace = {"math": math}
    exec(compile(text, "<field>", "exec"), namespace)
    factory = namespace["factory"]
    factory.source = text
    return factory


def _dop853(fun, y0: np.ndarray, t0: float, t_bound: float, rtol: float,
            atol: float, stop=None):
    """DOP853 from (t0, y0) forward to t_bound: (dense output, nfev, stopped).

    `fun` is a field of ``_field_factory``: ``fun(t, v)`` and its
    ``fun.stage(t, y, d, h)``.  A t_bound not beyond t0 raises
    ``ValueError``.  The dense output holds the accepted step ends, their
    states and each step's seven coefficient rows; nfev counts the calls
    of ``fun`` and ``fun.stage``; stopped tells whether ``stop`` ended the
    run, at the last step end, before t_bound.  Exceptions of ``fun`` and
    ``stop`` propagate.
    """
    if not t_bound > t0:
        raise ValueError(f"t_bound = {t_bound!r} must exceed t0 = {t0!r}")
    stage = fun.stage
    n = y0.size
    # rows: the stages, f at the step end, then the dense output's extra
    # stages; each stage reads the rows before it through a transposed view
    K = np.empty((STAGES + 1 + len(A_EXTRA), n))
    main = [(s, K[:s].T, A[s, :s], c) for s, c in zip(range(1, STAGES), C[1:].tolist())]
    extra = [(s, K[:s].T, a[:s], c)
             for s, a, c in zip(range(STAGES + 1, K.shape[0]), A_EXTRA, C_EXTRA.tolist())]
    K_B, K_E = K[:STAGES].T, K[:STAGES + 1].T

    t, y = t0, y0
    yl = y0.tolist()
    fl = fun(t0, yl)
    h_abs = _initial_step(fun, t0, y0, np.array(fl), t_bound, rtol, atol)
    nfev = 2
    ts, ys, Fs = [t0], [y0], []
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        K[0] = fl
        while True:
            if not h_abs >= min_step:   # a NaN step size, too, ends the run
                raise ValueError(TOO_SMALL_STEP)
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = h_abs = float(t_new - t)

            for s, KT, a, c in main:
                K[s] = stage(t + c * h, yl, np.dot(KT, a).tolist(), h)
            y_new = y + h * np.dot(K_B, B)
            yl_new = y_new.tolist()
            fl_new = K[STAGES] = fun(t + h, yl_new)
            nfev += STAGES

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
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

        # the step's interpolant (Dop853DenseOutput): its first three rows
        # elementwise on floats, the rest from the extra stages
        for s, KT, a, c in extra:
            K[s] = stage(t + c * h, yl, np.dot(KT, a).tolist(), h)
        nfev += len(extra)
        F = np.empty((3 + len(D), n))
        delta_y = [b - a for a, b in zip(yl, yl_new)]
        F[0] = delta_y
        F[1] = [h * f - e for f, e in zip(fl, delta_y)]
        F[2] = [2 * e - h * (g + f) for e, f, g in zip(delta_y, fl, fl_new)]
        F[3:] = h * np.dot(D, K)
        Fs.append(F)

        t, y, yl, fl = t_new, y_new, yl_new, fl_new
        ts.append(t)
        ys.append(y)
        stopped = stop is not None and stop(t, y)
        if stopped or t >= t_bound:
            return Dop853Dense(np.array(ts), np.vstack(ys), np.array(Fs)), nfev, stopped
