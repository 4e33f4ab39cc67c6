"""Shared pipeline fixtures.

Full integrations are expensive relative to the rest of the suite, so each
named configuration is solved once per session and shared across test
modules via the `pipeline` factory fixture.
"""

import math

import pytest

import solitonforge as sf
from solitonforge import cli, manifold

# name -> (dims, lambdas, seed_coeffs, mode)
CASES = {
    "d2": ((2,), (1.0,), None, sf.Mode.SOLITON),
    "d3": ((3,), (2.0,), None, sf.Mode.SOLITON),
    "d4": ((4,), (3.0,), None, sf.Mode.SOLITON),
    "d9": ((9,), (8.0,), None, sf.Mode.SOLITON),
    "d2_3": ((2, 3), (1.0, 2.0), (-1e-6, 1e-6), sf.Mode.SOLITON),
    "d3_5": ((3, 5), (2.0, 4.0), (-1e-6, 1e-6), sf.Mode.SOLITON),
    "d2_2_3": ((2, 2, 3), (1.0, 1.0, 2.0), (-1e-6, 1e-6, 1e-6), sf.Mode.SOLITON),
    "rf_d2_3": ((2, 3), (1.0, 2.0), (0.0, 1e-4), sf.Mode.RICCI_FLAT),
    "rf_d2_2_3": ((2, 2, 3), (1.0, 1.0, 2.0), (0.0, 1e-4, 5e-5), sf.Mode.RICCI_FLAT),
}

SOLITON_CASES = [k for k, v in CASES.items() if v[3] is sf.Mode.SOLITON]
MULTI_FACTOR_CASES = [k for k in SOLITON_CASES if len(CASES[k][0]) > 1]
RICCI_FLAT_CASES = [k for k, v in CASES.items() if v[3] is sf.Mode.RICCI_FLAT]


def make_spec(name: str) -> sf.ProblemSpec:
    dims, lams, coeffs, mode = CASES[name]
    return sf.ProblemSpec(
        factors=tuple(sf.FactorSpec(d, l) for d, l in zip(dims, lams)),
        seed_coeffs=coeffs,
        mode=mode,
    )


@pytest.fixture(scope="session")
def pipeline():
    """Factory returning the `cli.Request` of a named configuration.  Its
    trajectory, profile and curvature are computed on the first call, so
    that they exist before any test replaces a layer; later stages are
    computed on first read."""
    cache: dict[str, cli.Request] = {}

    def get(name: str) -> cli.Request:
        if name not in cache:
            cache[name] = cli.Request(make_spec(name))
            cache[name].curv
        return cache[name]

    return get


def reference_graph_terms(dims):
    """The graph's terms on lists, one loop per operation, in the order of
    ``manifold._graph_lines``: ``terms(w)`` returns g, the graph's terms
    of degree 2 and more, and |h|^2, each one sum left to right from 0.0
    with every term kept; and sqrt(d)."""
    r = len(dims)
    first = 1 + r
    chain = manifold.ring(r).chain[first - 1:]
    rows = manifold.graph(dims)[:, first:].tolist()
    sd = [math.sqrt(float(x)) for x in dims]

    def terms(w):
        m = [1.0] + w
        for parent, var in chain:
            m.append(m[parent] * w[var])
        g = []
        for row in rows:
            gj = 0.0
            for c, mk in zip(row, m[first:]):
                gj += c * mk
            g.append(gj)
        hh = 0.0
        for wj, sj, gj in zip(w, sd, g):
            x = wj / sj + gj
            hh += x * x
        return g, hh

    return terms, sd


def reference_reduced_field(dims):
    """dz/dtau of the flow on the slow manifold in tau = log s and z = s w,
    z_j (1 - 2 z_j / d_j + 2 s (|h|^2 - g_j / sqrt(d_j))), as ``field(tau,
    z)`` on lists: the direct form of the tail that the package integrates
    as a relative remainder (``manifold.remainder_field``)."""
    terms, sd = reference_graph_terms(dims)
    d = [float(x) for x in dims]

    def field(tau, z):
        inv_s = math.exp(-tau)
        g, hh = terms([inv_s * v for v in z])
        return [v * (1.0 - 2.0 * v / dj + 2.0 * (hh - gj / sj) / inv_s)
                for v, dj, sj, gj in zip(z, d, sd, g)]

    return field
