"""The slow manifold at the origin, on which a soliton trajectory ends.

At the origin of the phase flow the X directions contract at rate 1 and
the Y directions are neutral, so the tail of a soliton trajectory lies
on a centre manifold X = h(w), with w = Y^2 componentwise (Carr,
*Applications of Centre Manifold Theory*, Springer 1981).  The pair
(X, w) obeys the closed polynomial system

    X_i' = X_i (|X|^2 - 1) + w_i / sqrt(d_i)
    w_j' = 2 w_j (|X|^2 - X_j / sqrt(d_j))

and the invariance of the graph X = h(w) reads

    h = w / sqrt(d) + h |h|^2 - Dh(w) w'.

w' has no term below degree 2, so the degree-k part of the right-hand
side involves only the parts of h below degree k: fixed-point iteration
from h = w / sqrt(d) fixes one more degree per pass.  The Taylor
coefficients are unique, although centre manifolds need not be.
``graph`` builds h to degree ``DEGREE`` = 4, once per ``dims``; the
flow leaves the stiff system at w of about 1e-4, where the truncation
term w^5 is below 1e-20.

On the graph the flow is the r-dimensional system in w alone.  In
tau = log s and z = s w it reads

    dz_j/dtau = z_j (1 - 2 z_j / d_j + 2 s (|h|^2 - g_j / sqrt(d_j)))

with g = h - w / sqrt(d), the graph's terms of degree 2 and more, so
that s |h|^2 and s g are O(1/s).  As s grows, z tends to the fixed
point d/2, which is the 1/s decay of |Y|^2 along the tail.  The system
is not stiff: its linearisation there has the eigenvalue -1 in tau, and
an explicit method's steps grow as z settles.

In u = 1/z the same flow reads

    du_j/dtau = -u_j + 2 / d_j - c_j u_j,   c_j = 2 s (|h|^2 - g_j / sqrt(d_j)),

linear but for c = O(1/s).  Without c it has the closed form U_j(tau) =
2/d_j + (u_j(tau0) - 2/d_j) e^-(tau - tau0), the logistic relaxation of z
towards d/2, and the flow integrates only the relative remainder q = u/U
- 1 about it (an integrating-factor method: Lawson, SIAM J. Numer. Anal.
4 (1967) 372-380):

    dq_j/dtau = -(2/d_j) / U_j q_j - c_j (1 + q_j),   q(tau0) = 0.

U carries the decay of u exactly, however large u is at the switch, and
q is relative by construction, so one tolerance serves every component.
``remainder_field`` is that field as a row-stack kernel on Python floats
(``phase._rows_body``), with tau carried as the last state (dtau/dtau =
1), so that the system is autonomous for the Radau stepper;
``remainder_jacobian`` is its Jacobian in q but for c, diag(-(2/d) / U).
The field's sums, each g_j and |h|^2, run left to right in a fixed order
on every Python version; ``sum()`` would not, since from Python 3.12 it
adds floats with compensated (Neumaier) summation and rounds differently.

Polynomials are coefficient arrays over the monomials of a ``Ring``:
truncated multivariate polynomials, whose sum is the sum of the arrays
and whose product, partial derivatives and values are the ring's.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .phase import _field_factory, _rows_body, _stacked

# the degree to which the graph h is built
DEGREE = 4


class Ring:
    """Polynomials in r variables truncated at total degree N.

    A polynomial is its coefficient array over the monomials of degree at
    most N in graded order: the constant, then w_1 .. w_r, then the
    monomials of degree 2, and so on.  Leading axes hold several
    polynomials, such as the r components of a graph, and every operation
    broadcasts over them.  ``mul`` drops the terms above degree N.
    """

    def __init__(self, r: int, degree: int) -> None:
        # each monomial as the sorted tuple of its variables' indices;
        # upto[k] monomials have degree at most k
        monomials, upto = [()], [1]
        for k in range(1, degree + 1):
            monomials += combinations_with_replacement(range(r), k)
            upto.append(len(monomials))
        index = {m: a for a, m in enumerate(monomials)}
        self.r, self.degree, self.size = r, degree, len(monomials)
        self.exponents = np.array([[m.count(j) for j in range(r)] for m in monomials],
                                  dtype=int).reshape(-1, r)
        # each monomial of degree >= 1 is a monomial before it times one
        # variable: (index of that monomial, variable)
        self.chain = [(index[m[:-1]], m[-1]) for m in monomials[1:]]
        # products: the pairs (a, b) of monomials whose product c has degree
        # at most N, grouped by c; every c is 1 * c, so no group is empty
        pairs = sorted((index[tuple(sorted(a + b))], i, j)
                       for i, a in enumerate(monomials)
                       for j, b in enumerate(monomials[:upto[degree - len(a)]]))
        c, self._a, self._b = np.array(pairs).T
        self._groups = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        # d/dw_j takes monomial a with a j in it to the monomial without
        # one of them, times their count: (source, target, factor) per j
        self._deriv = []
        for j in range(r):
            src = [a for a, m in enumerate(monomials) if j in m]
            dst = [index[_without(monomials[a], j)] for a in src]
            self._deriv.append((np.array(src, dtype=int), np.array(dst, dtype=int),
                                self.exponents[src, j].astype(float)))

    def variables(self) -> np.ndarray:
        """w_1 .. w_r: an (r, size) stack."""
        v = np.zeros((self.r, self.size))
        v[:, 1:1 + self.r] = np.eye(self.r)
        return v

    def mul(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The product p q, truncated at degree N."""
        return np.add.reduceat(p[..., self._a] * q[..., self._b], self._groups, axis=-1)

    def deriv(self, p: np.ndarray, j: int) -> np.ndarray:
        """The partial derivative of p in w_j."""
        src, dst, factor = self._deriv[j]
        out = np.zeros_like(p)
        out[..., dst] = p[..., src] * factor
        return out

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """All partial derivatives: axis -2 is the variable."""
        return np.stack([self.deriv(p, j) for j in range(self.r)], axis=-2)

    def monomials(self, w: np.ndarray) -> np.ndarray:
        """Every monomial's value at the points w (..., r): shape (..., size)."""
        w = np.asarray(w, dtype=float)
        m = np.empty(w.shape[:-1] + (self.size,))
        m[..., 0] = 1.0
        for k, (parent, var) in enumerate(self.chain, start=1):
            m[..., k] = m[..., parent] * w[..., var]
        return m

    def evaluate(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The values of the polynomials p (..., size) at the points w
        (..., r): shape w.shape[:-1] + p.shape[:-1]."""
        m = self.monomials(w)
        return (m @ p.reshape(-1, self.size).T).reshape(m.shape[:-1] + p.shape[:-1])


def _without(monomial: tuple, j: int) -> tuple:
    i = monomial.index(j)
    return monomial[:i] + monomial[i + 1:]


@lru_cache(maxsize=None)
def ring(r: int) -> Ring:
    """The ring the graphs in r variables live in, built once per r."""
    return Ring(r, DEGREE)


@lru_cache(maxsize=None)
def graph(dims: tuple) -> np.ndarray:
    """The coefficients of h, a read-only (r, size) stack of ``ring(r)``,
    built once per tuple of factor dimensions."""
    r = len(dims)
    R = ring(r)
    sqrt_d = np.sqrt(np.array(dims, dtype=float))[:, None]
    w = R.variables()
    linear = w / sqrt_d
    h = linear
    for _ in range(DEGREE - 1):   # each pass fixes one more degree
        sq = R.mul(h, h).sum(axis=0)
        w_dot = 2.0 * R.mul(w, sq - h / sqrt_d)
        h = linear + R.mul(h, sq) - R.mul(R.jacobian(h), w_dot).sum(axis=-2)
    h.setflags(write=False)   # every caller shares the cached array
    return h


def on_graph(dims: tuple, w: np.ndarray) -> np.ndarray:
    """X = h(w) at the points w (..., r)."""
    return ring(len(dims)).evaluate(graph(dims), w)


def offset(dims: tuple, X: np.ndarray, Y: np.ndarray) -> float:
    """The largest |X - h(Y^2)| over the components of states (..., r)."""
    return float(np.abs(X - on_graph(dims, Y * Y)).max())


def _graph_lines(r: int):
    """The body lines that set, from the locals w0 .. w{r-1}, each g_j (the
    graph's terms of degree 2 and more) and x_j = h_j, then hh = |h|^2,
    with the graph's coefficients c and sqrt(d) as closure variables; and
    the number of coefficients per component.  Each g_j, and hh, is one
    sum left to right from 0.0, every term kept."""
    names = [f"w{j}" for j in range(r)]   # monomial k >= 1 is names[k - 1]
    lines = []
    for parent, var in ring(r).chain[r:]:   # the monomials of degree >= 2
        names.append(f"m{len(names) + 1}")
        lines.append(f"{names[-1]} = {names[parent - 1]} * w{var}")
    high = names[r:]
    n = len(high)
    lines += [" + ".join([f"g{j} = 0.0"] + [f"c{j * n + k} * {m}" for k, m in enumerate(high)])
              for j in range(r)]
    lines += [f"x{j} = w{j} / sd{j} + g{j}" for j in range(r)]
    lines.append(" + ".join(["hh = 0.0"] + [f"x{j} * x{j}" for j in range(r)]))
    return lines, n


@lru_cache(maxsize=None)
def _remainder_factory(r: int):
    """The factory of ``remainder_field``'s kernels in r variables,
    compiled once per r: it takes 2/d, u(tau0) - 2/d, tau0, sqrt(d) and
    the graph's coefficients of degree 2 and more, row by row."""
    graph_lines, n = _graph_lines(r)
    body = ["e = math.exp(t0 - tau)", "inv_s = math.exp(-tau)"]
    body += [f"U{j} = b{j} + a{j} * e" for j in range(r)]
    body += [f"p{j} = 1.0 + q{j}" for j in range(r)]
    body += [f"w{j} = inv_s / (U{j} * p{j})" for j in range(r)] + graph_lines
    values = [f"-b{j} / U{j} * q{j} - 2.0 * (hh - g{j} / sd{j}) / inv_s * p{j}"
              for j in range(r)] + ["1.0"]
    return _field_factory({"b": r, "a": r, "t": 1, "sd": r, "c": r * n}, "rows",
                          _rows_body([f"q{j}" for j in range(r)] + ["tau"], body, values))


def relaxation(dims: tuple, u0: list) -> tuple:
    """The fixed point 2/d of u = 1/z and the relaxation's amplitude
    u0 - 2/d, as lists of floats: U(tau) = 2/d + (u0 - 2/d) e^-(tau -
    tau0)."""
    b = [2.0 / float(x) for x in dims]
    return b, [u - bj for u, bj in zip(u0, b)]


def remainder_field(dims: tuple, u0: list, tau0: float):
    """d/dtau of the state [q, tau], with q = u/U - 1 the relative
    remainder of u = 1/z about its logistic relaxation U from u0 at tau0
    (``relaxation``), as ``fun(y)`` on one state (r + 1,) or a stack of
    them (k, r + 1), returning an array of the same shape.

    In u the flow on the graph reads du/dtau = -u + 2/d - c u, with c_j =
    2 s (|h|^2 - g_j / sqrt(d_j)) = O(1/s), and U solves it with c = 0.  So
    dq/dtau = -(2/d) / U q - c (1 + q), with u = U (1 + q) and w = e^-tau /
    u; the last entry, dtau/dtau, is 1.

    The kernel is straight-line code, with 2/d, u0 - 2/d, tau0, sqrt(d)
    and the graph's coefficients bound as closure variables.  g = h - w /
    sqrt(d) is summed from the graph's terms of degree 2 and more, so that
    s g carries no cancellation; each g_j, and |h|^2, is one sum left to
    right from 0.0, every term kept.
    """
    b, a = relaxation(dims, u0)
    sd = [math.sqrt(float(x)) for x in dims]
    return _stacked(_remainder_factory(len(dims))(
        b, a, [tau0], sd, graph(dims)[:, 1 + len(dims):].ravel().tolist()))


def remainder_jacobian(dims: tuple, u0: list, tau0: float):
    """``jac(y)`` of ``remainder_field`` on one state [q, tau]: its
    Jacobian in q but for the O(1/s) term c, diag(-(2/d) / U(tau)), with
    a zero row and column for tau."""
    b, a = map(np.array, relaxation(dims, u0))
    r = b.size

    def jac(y: np.ndarray) -> np.ndarray:
        J = np.zeros((r + 1, r + 1))
        J.flat[:r * (r + 2):r + 2] = -b / (b + a * math.exp(tau0 - y[-1]))
        return J

    return jac
