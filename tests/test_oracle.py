"""Independent second-order (t-space) cross-validation of the pipeline."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import solitonforge as sf
from solitonforge import oracle
from solitonforge.errors import (
    BlowUp,
    OutOfRange,
    StepLimitExceeded,
    ValidationError,
)

from conftest import CASES, SOLITON_CASES, make_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_oracle(case, spec=None):
    """A fresh oracle run of a pipeline case over oracle.window, with the
    case's spec or with `spec`."""
    t0, t_end = oracle.window(case.profile)
    return oracle.integrate_second_order(oracle.init_from_profile(case.profile, t0),
                                         spec or case.spec, t_end)


class TestInit:
    def test_sample_point_exact(self, pipeline):
        prof = pipeline("d2_3").profile
        k = len(prof.t) // 2
        state = oracle.init_from_profile(prof, float(prof.t[k]))
        assert state.t == prof.t[k]
        assert np.array_equal(state.g, prof.g[k])
        assert np.array_equal(state.g_dot, prof.g_dot[k])
        assert state.u_dot == prof.u_dot[k]

    def test_between_samples_starts_at_the_next_sample(self, pipeline):
        """A t0 between two samples starts the oracle at the later one,
        with that sample's own values."""
        prof = pipeline("d2").profile
        k = len(prof.t) // 3
        t_mid = 0.5 * (prof.t[k] + prof.t[k + 1])
        state = oracle.init_from_profile(prof, float(t_mid))
        assert state.t == prof.t[k + 1]
        assert np.array_equal(state.g, prof.g[k + 1])
        assert np.array_equal(state.g_dot, prof.g_dot[k + 1])
        assert state.u_dot == prof.u_dot[k + 1]

    def test_t_zero_out_of_range(self, pipeline):
        with pytest.raises(OutOfRange):
            oracle.init_from_profile(pipeline("d2").profile, 0.0)


class TestConservation:
    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_drift_and_value(self, pipeline, name):
        case = pipeline(name)
        run = run_oracle(case)
        assert run.conservation_drift() <= 1e-8
        # the conserved quantity equals the gauge constant C
        assert run.conservation[0] == pytest.approx(case.spec.gauge_C, abs=1e-8)


    @staticmethod
    def _per_sample(y, spec):
        """The conserved quantity of one state as numpy expressions, with
        a BLAS dot for tr L."""
        r = spec.r
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        tr_L = spec.dims @ rel
        return float((spec.dims * spec.lambdas / g**2).sum()
                     + (spec.dims * rel**2).sum() - (ud - tr_L) ** 2)

    @staticmethod
    def _term_scale(y, spec):
        """The size of the terms the quantity is summed from, as in
        TestField: the ulp to measure a change of summation order in."""
        r = spec.r
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        return float((spec.dims * spec.lambdas / g**2).sum()
                     + (spec.dims * rel**2).sum()
                     + (abs(ud) + spec.dims @ np.abs(rel)) ** 2)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_per_sample_form_to_4_ulp(self, pipeline, name):
        """The one vectorised pass over the samples sums tr L left to right
        where the per-sample form calls BLAS, so each sample's value, and
        the drift, agree with it to 4 ulps of the terms summed."""
        case = pipeline(name)
        run = run_oracle(case)
        states = np.column_stack([run.g, run.g_dot, run.u_dot])
        expected = np.array([self._per_sample(y, case.spec) for y in states])
        ulp = np.spacing([self._term_scale(y, case.spec) for y in states])
        assert run.conservation.shape == expected.shape
        assert np.all(np.abs(run.conservation - expected) <= 4 * ulp)
        drift = np.abs(expected - expected[0]).max()
        assert abs(run.conservation_drift() - drift) <= 4 * (ulp[0] + ulp.max())


class TestCrossValidation:
    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_agreement_over_the_window(self, pipeline, name):
        case = pipeline(name)
        run = run_oracle(case)
        devs = oracle.compare_profiles(case.profile, run)
        assert max(devs.values()) <= 1e-6

    def test_profile_vs_itself(self, pipeline):
        """Degenerate sanity case: an oracle run re-sampled on its own grid."""
        case = pipeline("d2")
        run = run_oracle(case)
        devs = oracle.compare_profiles(case.profile, run)
        assert min(devs.values()) >= 0.0

    def test_corrupted_lambda_detected(self, pipeline):
        """Integrating the oracle with a wrong Einstein constant must break
        the agreement: detector sensitivity of the cross-validation."""
        case = pipeline("d2_3")
        bad_factors = (
            case.spec.factors[0],
            sf.FactorSpec(case.spec.factors[1].dim,
                          case.spec.factors[1].einstein_const * 1.01),
        )
        bad_spec = dataclasses.replace(case.spec, factors=bad_factors)
        devs = oracle.compare_profiles(case.profile, run_oracle(case, bad_spec))
        assert max(devs.values()) >= 1e-3

    def test_ricci_flat_u_dot_stays_zero(self, pipeline):
        case = pipeline("rf_d2_3")
        run = run_oracle(case)
        assert np.abs(run.u_dot).max() <= 1e-8


def _start(spec, **fields):
    """A valid start of the t-space system for `spec`, with fields replaced."""
    r = spec.r
    state = oracle.SecondOrderState(t=1.0, g=np.linspace(0.5, 1.0, r),
                                    g_dot=np.linspace(1.0, 0.5, r), u_dot=-0.3)
    return dataclasses.replace(state, **fields)


class TestStartState:
    """A start the t-space system is not defined at is rejected before
    anything is integrated, with the field named."""

    @pytest.mark.parametrize("field, value", [
        ("g", np.array([0.0, 1.0])),
        ("g", np.array([-0.5, 1.0])),
        ("g", np.array([0.5, np.nan])),
        ("g", np.array([0.5, np.inf])),
        ("g_dot", np.array([np.nan, 0.5])),
        ("g_dot", np.array([1.0, -np.inf])),
        ("u_dot", np.nan),
        ("u_dot", np.inf),
    ])
    def test_bad_start_rejected(self, field, value):
        spec = make_spec("d2_3")
        state = _start(spec, **{field: value})
        with pytest.raises(ValidationError, match=rf"\b{field} must be finite"):
            oracle.integrate_second_order(state, spec, 2.0)

    @pytest.mark.parametrize("t_end", [1.0, 0.9, np.nan, np.inf, -np.inf])
    def test_window_without_length_is_out_of_range(self, monkeypatch, t_end):
        """The run goes forward from the start at t = 1: a t_end at the
        start, before it, or not finite is OutOfRange, raised before the
        field is called."""
        monkeypatch.setattr(oracle, "t_field",
                            lambda d, lam: lambda t, v: pytest.fail("t_field called"))
        spec = make_spec("d2_3")
        with pytest.raises(OutOfRange, match="oracle window"):
            oracle.integrate_second_order(_start(spec), spec, t_end)

    def test_g_squared_underflowing_to_zero_is_a_blow_up(self):
        """g_1 = 1e-200 is a valid start, but g_1^2 is 0 in doubles, so the
        field divides by zero on its first evaluation."""
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array([1e-200, 1.0]))
        with pytest.raises(BlowUp, match="reached 0"):
            oracle.integrate_second_order(state, spec, 2.0)


class TestIndependence:
    """The oracle's Radau run against scipy's explicit DOP853 on the same
    system: an independent method, for the cross-check that the package's
    Radau stepper serves both the flow and the oracle."""

    # d2, d9, d2_3 and d2_2_3 are the specs of bryant_d2, r1_d9, r2_d2_3
    # and r3_d2_2_3
    @pytest.mark.parametrize("name", ["d2", "d9", "d2_3", "d2_2_3"])
    def test_matches_solve_ivp(self, pipeline, name):
        """On the window of cmd_oracle, each component of the oracle's run
        agrees on the profile's grid with solve_ivp's DOP853 at rtol 1e-13
        to 1e-10 of its largest magnitude there (measured: at most 7.8e-12,
        on d2_2_3)."""
        from scipy.integrate import solve_ivp

        case = pipeline(name)
        prof, spec = case.profile, case.spec
        t0, t_end = oracle.window(prof)   # as cmd_oracle
        state = oracle.init_from_profile(prof, t0)
        run = oracle.integrate_second_order(state, spec, t_end)
        field = oracle.t_field(spec.dims.tolist(), spec.lambdas.tolist())
        ref = solve_ivp(lambda t, y: field(y), (state.t, t_end), state.as_vector(),
                        method="DOP853", rtol=1e-13, atol=1e-30, dense_output=True)
        assert ref.success
        t = prof.t[(prof.t >= state.t) & (prof.t <= t_end)]
        assert t.size > 10
        expected = ref.sol(t)
        scale = np.abs(expected).max(axis=1, keepdims=True)
        assert np.all(np.abs(run.dense(t) - expected) <= 1e-10 * scale)

    @pytest.mark.parametrize("g, g_dot", [
        ([0.5, 1.0], [-3.0, 0.5]),     # g_1 falls through 1e-12
        ([1e-13, 1.0], [-3.0, 0.5]),   # g_1 starts in (0, 1e-12] and falls
        ([5e-13, 1.0], [1.0, 0.5]),    # g_1 starts in (0, 1e-12] and rises
    ])
    def test_collapse_is_a_step_limit(self, g, g_dot):
        """Near g_1 = 0 the field is singular, and the step size falls
        below the spacing of floats at t before a step ends with g_1 <= 0:
        the oracle ends in StepLimitExceeded, not BlowUp."""
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array(g), g_dot=np.array(g_dot))
        with pytest.raises(StepLimitExceeded, match="less than spacing"):
            oracle.integrate_second_order(state, spec, 10.0)

    @pytest.mark.parametrize("g1", [
        0.5,     # falls through 0
        1e-12,   # starts at 1e-12
        5e-13,   # starts below 1e-12
    ])
    def test_collapse_event_at_a_step_end(self, monkeypatch, g1):
        """With a field in which g_1 falls at unit speed, and its exact
        Jacobian 0, a step end with g_1 <= 0 is a BlowUp, wherever in (0,
        1) g_1 starts: the step-end test stops the run there."""
        falling = lambda y: np.where(np.arange(y.shape[-1]) == 0, -1.0, 0.0) + 0.0 * y
        monkeypatch.setattr(oracle, "t_field", lambda d, lam: falling)
        monkeypatch.setattr(oracle, "t_jacobian",
                            lambda d, lam: lambda y: np.zeros((y.size, y.size)))
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array([g1, 1.0]))
        with pytest.raises(BlowUp, match=r"left \(0, inf\) before t = 2$"):
            oracle.integrate_second_order(state, spec, 2.0)

    def test_non_finite_field_at_the_start_is_a_blow_up(self):
        """g_1 = 1e-160 is a valid start, but lambda_1 / g_1^2 overflows and
        the field is not finite there, so the initial step size is 0; the
        first step's Jacobian divides by g_1^3, which underflows to 0, and
        the run ends in BlowUp."""
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array([1e-160, 1.0]))
        with pytest.raises(BlowUp, match="reached 0"):
            oracle.integrate_second_order(state, spec, 2.0)


class TestField:
    @staticmethod
    def _numpy_field(y, d, lam):
        """The t-space field as numpy expressions, with BLAS dots."""
        r = d.size
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        tr_L = d @ rel
        gdd_over_g = lam / g**2 - tr_L * rel + ud * rel + rel**2
        u_dd = d @ gdd_over_g
        return np.concatenate([gd, gdd_over_g * g, [u_dd]])

    @staticmethod
    def _term_scale(y, d, lam):
        """Per entry, the size of the terms it is summed from: the ulp
        to measure a change of summation order in, since the sum itself
        may cancel to far below its terms."""
        r = d.size
        g, gd, ud = y[:r], y[r:2 * r], y[-1]
        rel = gd / g
        tr_abs = d @ np.abs(rel)
        q = lam / g**2 + tr_abs * np.abs(rel) + abs(ud) * np.abs(rel) + rel**2
        return np.concatenate([np.abs(gd), q * g, [d @ q]])

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_numpy_form_to_4_ulp(self, r):
        """t_field sums its two dot products left to right where numpy
        calls BLAS, so the two agree to a few ulps of the terms summed."""
        rng = np.random.default_rng(20 + r)
        for _ in range(500):
            d = rng.integers(2, 10, r).astype(float)
            lam = d - 1.0 + rng.uniform(-0.5, 0.5, r)
            g = 10.0 ** rng.uniform(-3, 3, r)
            gd = rng.uniform(-1, 1, r) * 10.0 ** rng.uniform(-3, 3, r)
            y = np.concatenate([g, gd, [rng.uniform(-5, 5)]])
            got = oracle.t_field(d.tolist(), lam.tolist())(y)
            expected = self._numpy_field(y, d, lam)
            ulp = np.spacing(self._term_scale(y, d, lam))
            assert np.all(np.abs(got - expected) <= 4 * ulp)
            # the g' entries are copied, not computed
            assert np.array_equal(got[:r], gd)


def _reference_t_field(v, d, lam):
    """The t-space field on lists, one loop per operation: the form that
    ``t_field``'s straight-line kernels must match bit for bit."""
    r = len(d)
    g, gd, ud = v[:r], v[r:2 * r], v[-1]
    rel = [b / a for a, b in zip(g, gd)]
    tr_L = 0.0
    for di, q in zip(d, rel):
        tr_L += di * q
    gdd_over_g = [l / (a * a) - tr_L * q + ud * q + q * q
                  for l, a, q in zip(lam, g, rel)]
    u_dd = 0.0
    for di, q in zip(d, gdd_over_g):
        u_dd += di * q
    return gd + [q * a for q, a in zip(gdd_over_g, g)] + [u_dd]


class TestKernel:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_the_loop_form_exactly(self, r):
        """On states whose entries span six decades, the generated kernel
        returns the reference's doubles, bit for bit."""
        rng = np.random.default_rng(40 + r)
        for _ in range(300):
            d = rng.integers(2, 10, r).astype(float).tolist()
            lam = (np.array(d) - 1.0 + rng.uniform(-0.5, 0.5, r)).tolist()
            g = 10.0 ** rng.uniform(-3, 3, r)
            gd = rng.choice([-1.0, 1.0], r) * 10.0 ** rng.uniform(-3, 3, r)
            v = np.concatenate([g, gd, [rng.uniform(-5, 5)]]).tolist()
            assert oracle.t_field(d, lam).kernel([v]) == _reference_t_field(v, d, lam)

    @pytest.mark.parametrize("g1", [0.0, 1e-200])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_zero_or_underflowing_g_divides_by_zero(self, r, g1):
        """A g_i of 0, or one whose square underflows, raises
        ZeroDivisionError in the kernel as in the reference."""
        d, lam = [2.0] * r, [1.0] * r
        for i in range(r):
            v = [1.0] * r + [0.5] * r + [-0.3]
            v[i] = g1
            with pytest.raises(ZeroDivisionError):
                _reference_t_field(v, d, lam)
            with pytest.raises(ZeroDivisionError):
                oracle.t_field(d, lam).kernel([v])

    def test_one_kernel_per_run(self, monkeypatch):
        built = []
        t_field = oracle.t_field

        def counting(d, lam):
            built.append((d, lam))
            return t_field(d, lam)

        monkeypatch.setattr(oracle, "t_field", counting)
        spec = make_spec("d2_3")
        oracle.integrate_second_order(_start(spec), spec, 2.0)
        assert built == [(spec.dims.tolist(), spec.lambdas.tolist())]

    def test_compiled_once_per_r_without_the_constants(self):
        """The kernels of one r share one compiled factory, and their code
        holds no number but the algorithm's own 0.0."""
        oracle._t_factory.cache_clear()
        fields = [oracle.t_field(d, lam) for d, lam in
                  [([2.0, 3.0], [1.0, 2.0]), ([4.0, 5.0], [3.0, 4.0]), ([2.0], [1.0])]]
        assert oracle._t_factory.cache_info().misses == 2
        assert fields[0].kernel.__code__ is fields[1].kernel.__code__
        for field in fields:
            assert set(field.kernel.__code__.co_consts) <= {None, 0.0}

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_jacobian_matches_central_differences(self, r):
        """t_jacobian is the Jacobian of t_field: on states whose entries
        span two decades it agrees with central differences to 1e-7 of
        its largest entry, and is built once per r without numbers of the
        caller's in its code."""
        rng = np.random.default_rng(50 + r)
        for _ in range(50):
            d = rng.integers(2, 10, r).astype(float)
            lam = d - 1.0 + rng.uniform(-0.5, 0.5, r)
            y = np.concatenate([10.0 ** rng.uniform(-1, 1, r), rng.uniform(-1, 1, r),
                                [rng.uniform(-2, 2)]])
            field = oracle.t_field(d.tolist(), lam.tolist())
            J = oracle.t_jacobian(d.tolist(), lam.tolist())(y)
            n = y.size
            fd = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1e-6 * max(1.0, abs(y[j]))
                fd[:, j] = (field(y + e) - field(y - e)) / (2 * e[j])
            assert np.abs(J - fd).max() <= 1e-7 * np.abs(J).max()
        oracle._t_jacobian_factory.cache_clear()
        oracle.t_jacobian([2.0, 3.0], [1.0, 2.0])
        oracle.t_jacobian([4.0, 5.0], [3.0, 4.0])
        assert oracle._t_jacobian_factory.cache_info().misses == 1
        kernel = oracle._t_jacobian_factory(2)([4.0, 5.0], [3.0, 4.0])
        assert set(kernel.__code__.co_consts) <= {None, 0.0, 1.0, 2.0, -2.0}

    @pytest.mark.parametrize("g1", [0.0, 1e-120])
    def test_jacobian_of_a_zero_or_underflowing_g_divides_by_zero(self, g1):
        """A g_i of 0, or one whose cube underflows, raises
        ZeroDivisionError in the Jacobian."""
        v = np.array([g1, 1.0, 0.5, 0.5, -0.3])
        with pytest.raises(ZeroDivisionError):
            oracle.t_jacobian([2.0, 3.0], [1.0, 2.0])(v)
