"""First-order phase-space system: the vector field and its Jacobian.

A state is the packed vector [X, Y] of R^2r, a plain (2r,) array, with
independent variable s.  The flow is

    X_i' = X_i (sum_j X_j^2 - 1) + Y_i^2 / sqrt(d_i)
    Y_i' = Y_i (sum_j X_j^2 - X_i / sqrt(d_i))

The scalar L = sum(X^2 + Y^2) - 1 satisfies L' = 2 L sum(X^2) along the
flow, and H = sum(sqrt(d_i) X_i) marks the Ricci-flat subspace H = 1.

The critical point (X_1, Y_1) = (beta, beta_hat) is hyperbolic, with
spectrum beta^2 - 1 (r times), beta^2 (r - 1 times) and 2 beta^2; the
unstable direction of 2 beta^2 is `unstable_eigenvector_fast`.  The
spectrum and the identity for L' are claims that `verify.run_suite`
checks (`spectrum`, `lyapunov_identity`) from `rhs` and `rhs_jacobian`.

With 2r ≤ 6 components numpy's per-call overhead would outweigh the
arithmetic, so both are straight-line Python on floats, one kernel each
per r, compiled on first use by `_field_factory` and cached.  That is
the package's one compiler of generated code: the tail's field
(``manifold.remainder_field``) and the oracle's field and Jacobian
(``oracle.t_field``, ``oracle.t_jacobian``) are built by it too, the
fields as row-stack kernels (`_rows_body`) that the stepper calls
through `_stacked`.  Python floats are IEEE doubles and round as
numpy's elementwise operations do, so each kernel computes the values
of the textbook numpy expressions, bit for bit, inf and NaN included.  Powers are written
``x * x``, since ``x ** 2`` raises ``OverflowError`` where numpy gives
inf; every division is by ``sqrt(d_i) > 0``.  sqrt(d) is an argument of
every call, never part of the source.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import ProblemSpec, constants


def _field_factory(consts: dict, args: str, body: list):
    """Compile a straight-line kernel and return its factory.

    ``factory(*seqs)`` takes one sequence per key of `consts`, in order:
    the one for key c holds consts[c] numbers, which it unpacks into the
    locals c0, c1, ....  It returns ``field(<args>)``, whose body is the
    source lines `body`; the field reads those locals as closure
    variables, and ``math`` as its one global.  No number of the caller's
    enters the source text, so the field computes on the caller's own
    doubles, and the source, hence the compiled factory, depends only on
    the shape of `consts` and on `body`: callers compile once per number
    of factors and cache.  With no constants, ``factory()`` returns a
    kernel that takes all its numbers as arguments.  The factory's
    generated text is its attribute ``source``.
    """
    src = [f"def factory({', '.join(consts)}):"]
    src += [f"    {''.join(f'{c}{i}, ' for i in range(n))}= {c}" for c, n in consts.items()]
    src.append(f"    def field({args}):")
    src += [f"        {line}" for line in body]
    src.append("    return field")
    text = "\n".join(src)
    namespace = {"math": math}
    exec(compile(text, "<field>", "exec"), namespace)
    factory = namespace["factory"]
    factory.source = text
    return factory


def _rows_body(state: list, body: list, values: list) -> list:
    """The body of a row-stack kernel on ``rows``, a list of states: each
    row is unpacked into the names `state`, runs the lines `body` and
    appends the expressions `values`, and all of them return as one flat
    list.  Each row so gets the values of that row alone."""
    return (["out = []", f"for {''.join(f'{x}, ' for x in state)}in rows:"]
            + [f"    {line}" for line in body]
            + [f"    out += ({''.join(f'{v}, ' for v in values)})", "return out"])


def _stacked(kernel):
    """``fun(y)`` of a row-stack kernel, as the stepper calls it: the
    kernel on the rows of one state (n,) or of a stack (k, n), returned as
    an array of y's shape.  The kernel is its attribute ``kernel``."""
    def fun(y: np.ndarray) -> np.ndarray:
        return np.array(kernel(y.reshape(-1, y.shape[-1]).tolist())).reshape(y.shape)
    fun.kernel = kernel
    return fun


@lru_cache(maxsize=None)
def _field_kernel(r: int):
    """``field(rows, sd)``: the flow at each packed state of `rows`, lists
    of 2r floats, as one flat list; compiled once per r."""
    X, Y = [f"x{i}" for i in range(r)], [f"y{i}" for i in range(r)]
    values = [f"x{i} * a + y{i} * y{i} / sd{i}" for i in range(r)] + [
        f"y{i} * (sx2 - x{i} / sd{i})" for i in range(r)]
    body = [f"sx2 = {' + '.join(f'{x} * {x}' for x in X)}",   # left to right
            "a = sx2 - 1.0"]
    return _field_factory({}, "rows, sd", [f"{''.join(f'sd{i}, ' for i in range(r))}= sd"]
                          + _rows_body(X + Y, body, values))()


@lru_cache(maxsize=None)
def _jacobian_kernel(r: int):
    """(``jac(v, sx2, sd)``, slots): the entries of the Jacobian at the
    packed state v that are not identically zero, row by row, and their
    indices in the flattened (2r, 2r) matrix; compiled once per r."""
    v = [f"x{i}" for i in range(r)] + [f"y{i}" for i in range(r)]
    entries, slots = [], []
    for i, vi in enumerate(v):
        k = i % r   # the column r + k of row i's one entry in the right half
        entries += [f"{vi} * x{j} * 2.0" + (" + a" if i == j else "")
                    + (f" - y{j} / sd{j}" if i == r + j else "") for j in range(r)]
        entries.append(f"2.0 * y{k} / sd{k}" if i < r else f"sx2 - x{k} / sd{k}")
        slots += [2 * r * i + j for j in [*range(r), r + k]]
    body = [f"{''.join(f'{x}, ' for x in v)}= v", f"{''.join(f'sd{i}, ' for i in range(r))}= sd",
            "a = sx2 - 1.0", f"return [{', '.join(entries)}]"]
    return _field_factory({}, "v, sx2, sd", body)(), np.array(slots)


def rhs(y: np.ndarray, sqrt_d: np.ndarray) -> np.ndarray:
    """Vector field on the packed state [X, Y]; hot path for the integrator.

    `y` is one state of shape (n,) = (2r,) or a stack of states of shape
    (k, n), such as the (7, n) stages of one Radau step or the up to 201
    samples of ``verify``'s ``lyapunov_identity``; the result has the
    shape of `y`, and any other shape raises ``ValueError``.

    Every shape takes the one path: one ``tolist`` of the (k, n) rows, the
    r-factor kernel's straight-line body on each row, with ``sum_j X_j^2``
    summed left to right, and one ``np.array`` back.  Each row so gets the
    values of the module docstring's expressions evaluated in numpy on
    that row alone, bit for bit.  No BLAS dot is involved: its summation
    order is not fixed, and on some inputs it differs from the
    left-to-right sum in the last bit.
    """
    sd = sqrt_d.tolist()
    n = 2 * len(sd)
    if y.ndim not in (1, 2) or y.shape[-1] != n:
        raise ValueError(f"phase.rhs takes a state ({n},) or a stack (k, {n}), "
                         f"not an array of shape {y.shape}")
    return np.array(_field_kernel(len(sd))(y.reshape(-1, n).tolist(), sd)).reshape(y.shape)


def rhs_jacobian(y: np.ndarray, sqrt_d: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of `rhs` at one packed state (n,) = (2r,); any
    other shape raises ``ValueError``.

    The left half is 2 y X^T, each entry ``(y_i X_j) * 2.0``; the four
    diagonal blocks' diagonals add ``|X|^2 - 1`` (X rows, X columns) and
    ``-Y_i / sqrt(d_i)`` (Y rows, X columns), and set ``2 Y_i /
    sqrt(d_i)`` (X rows, Y columns) and ``|X|^2 - X_i / sqrt(d_i)`` (Y
    rows, Y columns); every other entry is 0.  The kernel computes the
    entries that are not 0 with the operations written here, in this
    order, on floats.  |X|^2 is numpy's BLAS dot of X with itself, whose
    summation order is not fixed: a sum left to right would differ from
    it in the last bit on some states, and move every Newton iterate.  It
    is taken as ``np.vdot(X, X)``, the same dot as ``X @ X``, bit for bit,
    without the floating-point check after it, which warns where |X|^2
    overflows (|X_i| above about 1e154): the Jacobian is then inf there,
    silently, as ``rhs`` is.
    """
    sd = sqrt_d.tolist()
    n = 2 * len(sd)
    if y.shape != (n,):
        raise ValueError(f"phase.rhs_jacobian takes a state ({n},), "
                         f"not an array of shape {y.shape}")
    jac, slots = _jacobian_kernel(len(sd))
    X = y[:len(sd)]
    J = np.zeros(n * n)
    J[slots] = jac(y.tolist(), float(np.vdot(X, X)), sd)
    return J.reshape(n, n)


def unstable_eigenvector_fast(spec: ProblemSpec) -> np.ndarray:
    """Closed-form eigenvector for eigenvalue 2 beta^2: (2 beta, beta_hat)
    in the (X_1, Y_1) plane, packed as a 2r-vector."""
    c = constants(spec)
    v = np.zeros(2 * spec.r)
    v[0] = 2.0 * c.beta
    v[spec.r] = c.beta_hat
    return v
