"""Shared pipeline fixtures.

Full integrations are expensive relative to the rest of the suite, so each
named configuration is solved once per session and shared across test
modules via the `pipeline` factory fixture.
"""

from types import SimpleNamespace

import pytest

import solitonforge as sf
from solitonforge import geometry

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
    """Factory returning the solved pipeline for a named configuration."""
    cache: dict[str, SimpleNamespace] = {}

    def get(name: str) -> SimpleNamespace:
        if name not in cache:
            spec = make_spec(name)
            traj = sf.run(spec)
            profile = sf.build_profile(traj, spec)
            curv = geometry.sectional_curvatures(profile, spec)
            cache[name] = SimpleNamespace(
                spec=spec, traj=traj, profile=profile, curv=curv
            )
        return cache[name]

    return get


def with_stage(fun):
    """A plain field ``fun(t, v)`` given the stage entry that the DOP853
    loop calls: ``fun.stage(t, y, d, h)`` is fun at the state y + d h,
    formed entry by entry."""
    fun.stage = lambda t, y, d, h: fun(t, [u + e * h for u, e in zip(y, d)])
    return fun
