"""Independent second-order (t-space) cross-validation of the pipeline."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import solitonforge as sf
from solitonforge import oracle
from solitonforge.errors import BlowUp, OutOfRange, ValidationError

from conftest import CASES, SOLITON_CASES, make_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_oracle(case, decades=1.0):
    prof = case.profile
    t0 = 10.0 * float(prof.t[0])
    state = oracle.init_from_profile(prof, t0)
    t_end = min(t0 * 10.0**decades, float(prof.t[-1]))
    return oracle.integrate_second_order(state, case.spec, t_end)


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

    def test_oracle_run_loads_no_scipy_interpolate(self, tmp_path):
        """An `oracle` run starts at a sample and so interpolates nothing:
        it loads scipy.integrate for the integration, and not
        scipy.interpolate."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys\n"
            "import solitonforge.cli\n"
            "code = solitonforge.cli.main(sys.argv[1:])\n"
            "print('scipy.integrate' in sys.modules, "
            "'scipy.interpolate' in sys.modules, code)\n"
        )
        config = os.path.join(CONFIG_DIR, "bryant_d2.json")
        proc = subprocess.run(
            [sys.executable, "-c", code, "oracle", "--config", config,
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True False 0"


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
    def test_agreement_over_a_decade(self, pipeline, name):
        case = pipeline(name)
        run = run_oracle(case, decades=1.0)
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
        prof = case.profile
        t0 = 10.0 * float(prof.t[0])
        state = oracle.init_from_profile(prof, t0)
        run = oracle.integrate_second_order(state, bad_spec, t0 * 10.0)
        devs = oracle.compare_profiles(prof, run)
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

    def test_g_squared_underflowing_to_zero_is_a_blow_up(self):
        """g_1 = 1e-200 is a valid start, but g_1^2 is 0 in doubles, so the
        field divides by zero on its first evaluation."""
        spec = make_spec("d2_3")
        state = _start(spec, g=np.array([1e-200, 1.0]))
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
            got = np.array(oracle.t_field(y.tolist(), d.tolist(), lam.tolist()))
            expected = self._numpy_field(y, d, lam)
            ulp = np.spacing(self._term_scale(y, d, lam))
            assert np.all(np.abs(got - expected) <= 4 * ulp)
            # the g' entries are copied, not computed
            assert np.array_equal(got[:r], gd)
