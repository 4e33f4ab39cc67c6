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
"""

from __future__ import annotations

import numpy as np

from .model import ProblemSpec, constants


def _field(v: list, sd: list) -> list:
    """The vector field at one packed state, on Python floats."""
    r = len(sd)
    X = v[:r]
    Y = v[r:]
    sx2 = 0.0
    for x in X:   # left to right, as numpy reduces fewer than eight terms
        sx2 += x * x
    a = sx2 - 1.0
    return ([x * a + y * y / s for x, y, s in zip(X, Y, sd)]
            + [y * (sx2 - x / s) for x, y, s in zip(X, Y, sd)])


def rhs(y: np.ndarray, sqrt_d: np.ndarray) -> np.ndarray:
    """Vector field on the packed state [X, Y]; hot path for the integrator.

    `y` is one state of shape (n,) = (2r,) or a stack of states of shape
    (k, n), such as the (7, n) stages of one Radau step; the result has
    the shape of `y`, and any other shape raises ``ValueError``.

    With n ≤ 6, numpy's per-call overhead would outweigh the arithmetic,
    so one state is evaluated on Python floats: one ``tolist``, the
    textbook expressions of the module docstring entry by entry, one
    ``np.array`` back.  Python floats are IEEE doubles and round as
    numpy's elementwise operations do, and ``sum_j X_j^2`` is summed left
    to right, as numpy's ``add.reduce`` sums so few terms; so the values
    are bit for bit those of the expressions evaluated in numpy, inf and
    NaN included.  No BLAS dot is involved: its summation order is not
    fixed, and on some inputs it differs from the left-to-right sum in the
    last bit.  Powers are written ``x * x``, since ``x ** 2`` raises
    ``OverflowError`` where numpy gives inf; every division is by
    ``sqrt(d_i) > 0``.  A stack, such as the stepper's seven stages or the
    up to 200 samples of ``verify``'s ``lyapunov_identity``, goes through
    those numpy expressions, with the same left-to-right sum, and so each
    row gets the values of that row alone, bit for bit.
    """
    sd = sqrt_d.tolist()
    if y.ndim not in (1, 2) or y.shape[-1] != 2 * len(sd):
        raise ValueError(
            f"phase.rhs takes a state ({2 * len(sd)},) or a stack "
            f"(k, {2 * len(sd)}), not an array of shape {y.shape}"
        )
    if y.ndim == 1:
        return np.array(_field(y.tolist(), sd))
    r = len(sd)
    X, Y = y[:, :r], y[:, r:]
    with np.errstate(all="ignore"):   # inf and NaN come through as on floats
        sx2 = X[:, 0] * X[:, 0]
        for j in range(1, r):
            sx2 = sx2 + X[:, j] * X[:, j]
        sx2 = sx2[:, None]
        return np.concatenate([X * (sx2 - 1.0) + Y * Y / sqrt_d, Y * (sx2 - X / sqrt_d)],
                              axis=1)


def rhs_jacobian(y: np.ndarray, sqrt_d: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of `rhs` at a packed state.

    The left half is 2 y X^T, filled as one outer product and doubled in
    place; the four diagonal blocks' diagonals are written through strided
    views of the flat matrix.  Each entry is the textbook one,
    ``2 X_i X_j + delta_ij (|X|^2 - 1)`` and so on, computed with the same
    operations in the same order.
    """
    r = sqrt_d.size
    n = 2 * r
    X = y[:r]
    Y = y[r:]
    sx2 = X @ X
    J = np.zeros((n, n))
    left = J[:, :r]
    np.multiply.outer(y, X, out=left)
    left *= 2.0
    flat = J.reshape(-1)   # a view; the diagonals step by n + 1
    flat[:r * n:n + 1] += sx2 - 1.0            # X rows, X columns
    flat[r:r * n:n + 1] = 2.0 * Y / sqrt_d      # X rows, Y columns
    flat[r * n::n + 1] -= Y / sqrt_d            # Y rows, X columns
    flat[r * n + r::n + 1] = sx2 - X / sqrt_d   # Y rows, Y columns
    return J


def unstable_eigenvector_fast(spec: ProblemSpec) -> np.ndarray:
    """Closed-form eigenvector for eigenvalue 2 beta^2: (2 beta, beta_hat)
    in the (X_1, Y_1) plane, packed as a 2r-vector."""
    c = constants(spec)
    v = np.zeros(2 * spec.r)
    v[0] = 2.0 * c.beta
    v[spec.r] = c.beta_hat
    return v

