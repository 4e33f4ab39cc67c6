"""Domain types, validation, and closed-form constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solitonforge as sf
from solitonforge import phase
from solitonforge.errors import (
    BadNormalization,
    BadSeedSign,
    DimensionTooSmall,
    NonNegativeGauge,
    ValidationError,
)


def spec_r1(d1=2, **kw):
    return sf.ProblemSpec(factors=(sf.FactorSpec(d1, d1 - 1.0),), **kw)


# strategy for valid specs: d_1 >= 2 with lambda_1 = d_1 - 1; free factors after
valid_specs = st.builds(
    lambda d1, extras, mode: sf.ProblemSpec(
        factors=(sf.FactorSpec(d1, d1 - 1.0),)
        + tuple(sf.FactorSpec(d, lam) for d, lam in extras),
        mode=mode,
    ),
    st.integers(min_value=2, max_value=9),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=9),
            st.floats(min_value=0.1, max_value=10.0),
        ),
        max_size=3,
    ),
    st.sampled_from([sf.Mode.SOLITON, sf.Mode.RICCI_FLAT]),
)


class TestConstants:
    def test_d1_2(self):
        c = sf.constants(spec_r1(2))
        assert c.beta == pytest.approx(0.7071068, abs=1e-7)
        assert c.beta_hat == pytest.approx(0.7071068, abs=1e-7)

    def test_d1_4(self):
        c = sf.constants(spec_r1(4))
        assert c.beta == pytest.approx(0.5, abs=1e-12)
        assert c.beta_hat == pytest.approx(0.8660254, abs=1e-7)

    def test_total_dim(self):
        spec = sf.ProblemSpec(
            factors=(sf.FactorSpec(2, 1.0), sf.FactorSpec(3, 2.0)),
            seed_coeffs=(-1e-4, 1e-4),
        )
        assert spec.dims.sum() == 5   # n = sum d_i, the total dimension

    @given(valid_specs)
    @settings(max_examples=50, deadline=None)
    def test_beta_relation(self, spec):
        c = sf.constants(spec)
        assert 0.0 < c.beta < 1.0
        assert c.beta**2 + c.beta_hat**2 == pytest.approx(1.0, abs=1e-15)


class TestCriticalPoint:
    def test_d1_2_values(self):
        y = sf.critical_point(spec_r1(2))
        assert y.shape == (2,)   # [X_1, Y_1]
        assert y[0] == pytest.approx(0.7071068, abs=1e-7)
        assert y[1] == pytest.approx(0.7071068, abs=1e-7)

    @given(valid_specs)
    @settings(max_examples=50, deadline=None)
    def test_fixed_point_property(self, spec):
        y = sf.critical_point(spec)
        assert abs(y @ y - 1.0) <= 1e-15   # L
        f = phase.rhs(y, np.sqrt(spec.dims))
        assert np.abs(f[:spec.r]).max() <= 1e-14
        assert np.abs(f[spec.r:]).max() <= 1e-14

    @given(valid_specs)
    @settings(max_examples=50, deadline=None)
    def test_hamiltonian_is_one(self, spec):
        y = sf.critical_point(spec)
        # H = sum sqrt(d_i) X_i, as the flow computes traj.H
        assert y[:spec.r] @ np.sqrt(spec.dims) == pytest.approx(1.0, abs=1e-14)


class TestValidation:
    def test_minimal_soliton_accepted(self):
        spec = sf.ProblemSpec(
            factors=(sf.FactorSpec(2, 1.0),), seed_coeffs=(-1e-6,)
        )
        assert sf.validate_spec(spec) is spec

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            sf.validate_spec(sf.ProblemSpec(factors=(sf.FactorSpec(1, 0.5),)))

    def test_bad_normalization(self):
        with pytest.raises(BadNormalization):
            sf.validate_spec(sf.ProblemSpec(factors=(sf.FactorSpec(3, 1.0),)))

    def test_nonnegative_gauge(self):
        with pytest.raises(NonNegativeGauge):
            sf.validate_spec(spec_r1(2, gauge_C=1.0))

    def test_bad_seed_sign_eps0(self):
        with pytest.raises(BadSeedSign):
            sf.validate_spec(spec_r1(2, seed_coeffs=(1e-4,)))

    def test_bad_seed_sign_eps_i(self):
        spec = sf.ProblemSpec(
            factors=(sf.FactorSpec(2, 1.0), sf.FactorSpec(3, 2.0)),
            seed_coeffs=(-1e-4, -1e-4),
        )
        with pytest.raises(BadSeedSign):
            sf.validate_spec(spec)

    def test_seed_coeff_length(self):
        spec = sf.ProblemSpec(
            factors=(sf.FactorSpec(2, 1.0), sf.FactorSpec(3, 2.0)),
            seed_coeffs=(-1e-4,),
        )
        with pytest.raises(ValidationError):
            sf.validate_spec(spec)

    @pytest.mark.parametrize("origin_tol", [0.0, -1e-8, math.nan, math.inf])
    def test_origin_tol_must_be_finite_and_positive(self, origin_tol):
        """An origin_tol that is not > 0 would never stop a run at the
        origin, and an infinite one would stop it at once."""
        spec = sf.ProblemSpec(factors=(sf.FactorSpec(2, 1.0),), origin_tol=origin_tol)
        with pytest.raises(ValidationError, match="origin_tol"):
            sf.validate_spec(spec)

    def test_factor_requires_positive_lambda(self):
        with pytest.raises(ValidationError):
            sf.FactorSpec(3, -1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_factor_rejects_non_finite_lambda(self, lam):
        """An infinite Einstein constant is > 0, but the run would fail
        late in build_profile, naming no key."""
        with pytest.raises(ValidationError, match="Einstein constant must be finite"):
            sf.FactorSpec(3, lam)

    @pytest.mark.parametrize("controls, key", [
        ({"rtol": 1e-20}, "rtol"),
        ({"rtol": 0.0}, "rtol"),
        ({"rtol": math.nan}, "rtol"),
        ({"atol": 0.0}, "atol"),
        ({"atol": -1e-10}, "atol"),
        ({"atol": math.nan}, "atol"),
        ({"rtol": math.inf}, "rtol"),
        ({"atol": math.inf}, "atol"),
    ])
    def test_step_controls_reject_bad_tolerances(self, controls, key):
        """StepControls owns the tolerance rules for every caller: an rtol
        below 100 machine epsilons, an atol that is not > 0, or either
        one infinite is a ValidationError naming the key.  An infinite
        tolerance would pass every error test, and the run would fail
        later on an invariant, naming no key."""
        with pytest.raises(ValidationError, match=key):
            sf.StepControls(**controls)

    def test_step_controls_accept_the_rtol_floor(self):
        floor = 100 * np.finfo(float).eps
        assert sf.StepControls(rtol=floor, atol=1e-300).rtol == floor

    def test_default_seed_coeffs(self):
        spec = sf.ProblemSpec(
            factors=(sf.FactorSpec(2, 1.0), sf.FactorSpec(3, 2.0))
        )
        assert spec.seed_coeffs == (-1e-4, 1e-4)
        rf = sf.ProblemSpec(
            factors=(sf.FactorSpec(2, 1.0), sf.FactorSpec(3, 2.0)),
            mode=sf.Mode.RICCI_FLAT,
        )
        assert rf.seed_coeffs[0] == 0.0
