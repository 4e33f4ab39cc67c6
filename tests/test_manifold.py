"""The slow manifold: truncated polynomials, the graph h and the tail's
remainder field, against the direct reduced field of the tail."""

import itertools
import math
import time

import numpy as np
import pytest

from solitonforge import manifold, phase

from conftest import reference_graph_terms, reference_reduced_field

DIMS = {1: (2.0,), 2: (2.0, 3.0), 3: (2.0, 2.0, 3.0)}


def _random(ring, rng, shape=()):
    return rng.standard_normal(shape + (ring.size,))


def _as_dict(ring, p):
    """A polynomial as {exponent tuple: coefficient}."""
    return {tuple(e): c for e, c in zip(ring.exponents.tolist(), p.tolist())}


def _expand_product(ring, p, q):
    """p q by direct expansion over pairs of terms, truncated."""
    out = dict.fromkeys(map(tuple, ring.exponents.tolist()), 0.0)
    for (a, ca), (b, cb) in itertools.product(_as_dict(ring, p).items(),
                                              _as_dict(ring, q).items()):
        e = tuple(i + j for i, j in zip(a, b))
        if sum(e) <= ring.degree:
            out[e] += ca * cb
    return np.array([out[tuple(e)] for e in ring.exponents.tolist()])


def _expand_value(ring, p, w):
    return sum(c * math.prod(x ** k for x, k in zip(w, e))
               for e, c in _as_dict(ring, p).items())


class TestRing:
    def test_univariate_against_numpy_polynomial(self):
        """At r = 1 the ring is numpy's power series truncated at degree N."""
        P = np.polynomial.polynomial
        ring = manifold.Ring(1, 4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, q = _random(ring, rng), _random(ring, rng)
            assert np.allclose(ring.mul(p, q), P.polymul(p, q)[:5], rtol=1e-14, atol=1e-14)
            assert np.allclose(ring.deriv(p, 0)[:4], P.polyder(p), rtol=1e-15, atol=0)
            assert ring.deriv(p, 0)[4] == 0.0
            w = rng.uniform(-2, 2, 7)
            assert np.allclose(ring.evaluate(p, w[:, None]), P.polyval(w, p),
                               rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("r", [2, 3])
    def test_multivariate_against_direct_expansion(self, r):
        ring = manifold.Ring(r, 4)
        assert ring.size == math.comb(r + 4, 4)
        rng = np.random.default_rng(r)
        for _ in range(5):
            p, q = _random(ring, rng), _random(ring, rng)
            assert np.allclose(ring.mul(p, q), _expand_product(ring, p, q),
                               rtol=1e-13, atol=1e-13)
            for j in range(r):
                expected = dict.fromkeys(map(tuple, ring.exponents.tolist()), 0.0)
                for e, c in _as_dict(ring, p).items():
                    if e[j]:
                        lower = e[:j] + (e[j] - 1,) + e[j + 1:]
                        expected[lower] += e[j] * c
                got = _as_dict(ring, ring.deriv(p, j))
                assert got == pytest.approx(expected, rel=1e-15, abs=0)
            w = rng.uniform(-1, 1, (6, r))
            values = ring.evaluate(p, w)
            assert values == pytest.approx([_expand_value(ring, p, x) for x in w],
                                           rel=1e-12, abs=1e-12)
            # a stack of polynomials broadcasts
            stack = np.stack([p, q])
            assert np.array_equal(ring.mul(stack, q), np.stack([ring.mul(p, q),
                                                                ring.mul(q, q)]))
            assert ring.evaluate(stack, w).shape == (6, 2)


class TestGraph:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_invariance_equation(self, r):
        """h = w / sqrt(d) + h |h|^2 - Dh w' through degree 4, with
        w'_j = 2 w_j (|h|^2 - h_j / sqrt(d_j))."""
        dims = DIMS[r]
        ring = manifold.ring(r)
        h = manifold.graph(dims)
        sqrt_d = np.sqrt(dims)[:, None]
        w = ring.variables()
        sq = ring.mul(h, h).sum(axis=0)
        w_dot = 2.0 * ring.mul(w, sq - h / sqrt_d)
        rhs = w / sqrt_d + ring.mul(h, sq) - ring.mul(ring.jacobian(h), w_dot).sum(axis=-2)
        assert np.abs(h - rhs).max() <= 1e-12 * np.abs(h).max()

    def test_univariate_closed_form(self):
        """For r = 1 the degree-2 coefficient is 2 / (d sqrt(d))."""
        for d in (2.0, 5.0, 9.0):
            h = manifold.graph((d,))[0]
            assert h[1] == pytest.approx(1 / math.sqrt(d), rel=1e-15, abs=0.0)
            assert h[2] == pytest.approx(2 / (d * math.sqrt(d)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_the_phase_field_is_tangent_to_the_graph(self, r):
        """At a state (h(w), sqrt(w)) the phase field's X part equals
        Dh(w) w', up to the truncation term of order w^5: a tenth of the
        size leaves at most a 1/50000 of the residual."""
        dims = DIMS[r]
        ring = manifold.ring(r)
        h = manifold.graph(dims)
        sqrt_d = np.sqrt(dims)
        residual = []
        for size in (1e-2, 1e-3):
            w = size * np.linspace(1.0, 1.5, r)
            X = manifold.on_graph(dims, w)
            f = phase.rhs(np.concatenate([X, np.sqrt(w)]), sqrt_d)
            w_dot = 2.0 * np.sqrt(w) * f[r:]
            along = ring.evaluate(ring.jacobian(h), w) @ w_dot
            residual.append(np.abs(f[:r] - along).max())
        assert residual[0] <= 1e-8
        assert residual[1] <= 2e-5 * residual[0]

    def test_built_once_per_dims_and_fast(self):
        """One graph per dims, cached; at r = 3 a build takes at most 1 ms
        (best of twenty builds, the ring already built; measured 0.4 ms)."""
        dims = (2.0, 4.0, 7.0)
        manifold.ring(3)
        best = math.inf
        for _ in range(20):
            manifold.graph.cache_clear()
            start = time.perf_counter()
            h = manifold.graph(dims)
            best = min(best, time.perf_counter() - start)
        assert manifold.graph(dims) is h
        assert manifold.graph.cache_info().misses == 1
        assert best <= 1e-3

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_reduced_field_fixed_point(self, r):
        """dz/dtau vanishes at z = d/2 as s grows: the correction is
        O(1/s), and the rest cancels exactly."""
        dims = DIMS[r]
        field = reference_reduced_field(dims)
        z = [d / 2 for d in dims]
        for tau in (20.0, 40.0):
            assert max(abs(v) for v in field(tau, z)) <= 20 * math.exp(-tau)
        assert max(abs(v) for v in field(300.0, z)) <= 1e-120
        # away from it the leading term z (1 - 2 z / d) drives z back
        assert all(v < 0 for v in field(40.0, [d for d in dims]))
        assert all(v > 0 for v in field(40.0, [d / 4 for d in dims]))

    def test_reduced_field_matches_the_graph_flow(self):
        """dz/dtau = z + s^2 w' with w' the flow on the graph, evaluated
        through the ring."""
        dims = DIMS[3]
        ring = manifold.ring(3)
        h = manifold.graph(dims)
        field = reference_reduced_field(dims)
        sqrt_d = np.sqrt(dims)
        tau = math.log(3e4)
        z = np.array([0.9, 1.1, 1.4])
        w = z / math.exp(tau)
        X = ring.evaluate(h, w)
        w_dot = 2.0 * w * (X @ X - X / sqrt_d)
        expected = z + math.exp(tau) ** 2 * w_dot
        assert field(tau, z.tolist()) == pytest.approx(expected.tolist(), rel=1e-9, abs=0.0)


def _reference_remainder_field(dims, u0, tau0):
    """The relative remainder's field on lists, one loop per operation, in
    the order of ``remainder_field``'s straight-line kernels, which must
    match it bit for bit: ``field(tau, q)`` returns dq/dtau."""
    terms, sd = reference_graph_terms(dims)
    b = [2.0 / float(x) for x in dims]
    a = [u - bj for u, bj in zip(u0, b)]

    def field(tau, q):
        e = math.exp(tau0 - tau)
        inv_s = math.exp(-tau)
        U = [bj + aj * e for bj, aj in zip(b, a)]
        p = [1.0 + qj for qj in q]
        g, hh = terms([inv_s / (Uj * pj) for Uj, pj in zip(U, p)])
        return [-bj / Uj * qj - 2.0 * (hh - gj / sj) / inv_s * pj
                for bj, Uj, qj, gj, sj, pj in zip(b, U, q, g, sd, p)]

    return field


class TestRemainderField:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_is_the_reduced_field_about_the_relaxation(self, r):
        """With u = U (1 + q) and z = 1/u, dq/dtau = (du/dtau) / U - u
        (dU/dtau) / U^2 = -u^2 (dz/dtau) / U - u (2/d - U) / U^2, the
        reduced field's derivative less the relaxation's, to roundoff in
        the terms of that difference and of dz/dtau, whose own terms
        u z (1 + 2 z / d) / U add up to about |u / U|; and dtau/dtau = 1."""
        dims = DIMS[r]
        rng = np.random.default_rng(80 + r)
        reduced = reference_reduced_field(dims)
        for _ in range(100):
            tau0 = rng.uniform(math.log(1e4), math.log(1e5))
            u0 = 2.0 / np.array(dims) * 10.0 ** rng.uniform(-1, 3, r)
            field = manifold.remainder_field(dims, u0.tolist(), tau0)
            b, a = map(np.array, manifold.relaxation(dims, u0.tolist()))
            tau = tau0 + rng.uniform(0.0, 20.0)
            U = b + a * math.exp(tau0 - tau)
            q = rng.uniform(-0.5, 0.5, r) * 10.0 ** rng.uniform(-12, 0)
            u = U * (1.0 + q)
            z_dot = np.array(reduced(tau, (1.0 / u).tolist()))
            first, second = -u * u * z_dot / U, -u * (b - U) / (U * U)
            got = field(np.append(q, tau))
            assert got[-1] == 1.0
            terms = np.abs(u / U) * (1.0 + np.abs(b / U)) + np.abs(first) + np.abs(second)
            assert np.all(np.abs(got[:-1] - (first + second)) <= 1e-13 * terms)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_the_loop_form_exactly(self, r):
        """For tau0 at the switch (s from 1e4 to 1e5) and tau from there to
        log 1e16, with u0 = 1/z0 and U (1 + q) = u = 1/z, z0 and z over four
        decades around the fixed point d/2 or within 1e-16 to 1e-1 of it,
        where the graph's terms decide the result's last bits, the
        generated kernel returns the reference's doubles, bit for bit, for
        a stack of states as for each alone."""
        rng = np.random.default_rng(60 + r)

        def z(half):
            if rng.random() < 0.5:
                return half * 10.0 ** rng.uniform(-3, 1, r)
            return half * (1.0 + rng.choice([-1.0, 1.0], r) * 10.0 ** rng.uniform(-16, -1, r))

        for _ in range(5):
            dims = tuple(rng.integers(2, 10, r).astype(float).tolist())
            half, b = np.array(dims) / 2, 2.0 / np.array(dims)
            for _ in range(40):
                tau0 = rng.uniform(math.log(1e4), math.log(1e5))
                u0 = (1.0 / z(half)).tolist()
                field = manifold.remainder_field(dims, u0, tau0)
                reference = _reference_remainder_field(dims, u0, tau0)
                rows = []
                for _ in range(5):
                    tau = rng.uniform(tau0, math.log(1e16))
                    U = b + (np.array(u0) - b) * math.exp(tau0 - tau)
                    rows.append((1.0 / z(half) / U - 1.0).tolist() + [tau])
                expected = [reference(row[-1], row[:-1]) + [1.0] for row in rows]
                assert field.kernel(rows) == sum(expected, [])
                assert field(np.array(rows)).tolist() == expected

    def test_compiled_once_per_r_without_the_constants(self):
        """The kernels of one r share one compiled factory whatever dims, u0
        and tau0, and their code holds no number but the algorithm's own
        0.0, 1.0 and 2.0."""
        manifold._remainder_factory.cache_clear()
        fields = [manifold.remainder_field(dims, u0, tau0) for dims, u0, tau0 in
                  [((2.0, 3.0), [1.0, 300.0], 9.0), ((4.0, 5.0), [0.5, 0.4], 10.5),
                   ((2.0, 2.0, 3.0), [1.0, 250.0, 260.0], 9.2)]]
        assert manifold._remainder_factory.cache_info().misses == 2
        assert fields[0].kernel.__code__ is fields[1].kernel.__code__
        for field in fields:
            assert set(field.kernel.__code__.co_consts) <= {None, 0.0, 1.0, 2.0}

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_jacobian_is_the_linear_term(self, r):
        """remainder_jacobian is diag(-(2/d) / U(tau)) with a zero tau row
        and column; it differs from the field's central-difference
        Jacobian in q only by the O(1/s) term c (measured: at most about
        20/s over z from a tenth of d/2 to ten times it)."""
        rng = np.random.default_rng(90 + r)
        for _ in range(50):
            dims = tuple(rng.integers(2, 10, r).astype(float).tolist())
            tau0 = rng.uniform(math.log(1e4), math.log(1e5))
            u0 = (2.0 / np.array(dims) * 10.0 ** rng.uniform(-1, 1, r)).tolist()
            field = manifold.remainder_field(dims, u0, tau0)
            y = np.append(rng.uniform(-0.1, 0.1, r), tau0 + rng.uniform(0.0, 25.0))
            J = manifold.remainder_jacobian(dims, u0, tau0)(y)
            b, a = map(np.array, manifold.relaxation(dims, u0))
            assert np.array_equal(J, np.diag(np.append(-b / (b + a * math.exp(tau0 - y[-1])),
                                                      0.0)))
            fd = np.empty((r, r))
            for j in range(r):
                e = np.zeros(r + 1)
                e[j] = 1e-6
                fd[:, j] = (field(y + e) - field(y - e))[:r] / 2e-6
            assert np.abs(J[:r, :r] - fd).max() <= 100.0 * math.exp(-y[-1]) + 1e-8
