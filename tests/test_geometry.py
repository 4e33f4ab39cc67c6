"""Curvature of the reconstructed metrics: signs, identities, asymptotics."""

import dataclasses

import numpy as np
import pytest

from solitonforge import geometry, verify
from solitonforge.errors import InsufficientTail

from conftest import RICCI_FLAT_CASES, SOLITON_CASES


class TestRicciComponents:
    @pytest.mark.parametrize("name", RICCI_FLAT_CASES)
    def test_ricci_flat_components_vanish(self, pipeline, name):
        case = pipeline(name)
        ric_tt, ric_factor = geometry.ricci_components(case.profile, case.spec)
        assert np.abs(ric_tt).max() <= 1e-6
        assert np.abs(ric_factor).max() <= 1e-6

    def test_tt_identity(self, pipeline):
        """Steady normal-direction equation: ric_tt = -u_ddot."""
        case = pipeline("d2_3")
        ric_tt, _ = geometry.ricci_components(case.profile, case.spec)
        assert np.abs(ric_tt + case.profile.u_ddot).max() <= 1e-6

    def test_ss_identity(self, pipeline):
        """Steady factor-direction equation: ric_factor_i = -u_dot g_i'/g_i."""
        case = pipeline("d2_3")
        prof = case.profile
        _, ric_factor = geometry.ricci_components(prof, case.spec)
        expected = -prof.u_dot[:, None] * prof.g_dot / prof.g
        assert np.abs(ric_factor - expected).max() <= 1e-6

    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_nonnegative_ricci(self, pipeline, name):
        assert pipeline(name).curv.min_ricci() >= -1e-8


class TestSolitonResidual:
    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_residual_small(self, pipeline, name):
        case = pipeline(name)
        assert geometry.sectional_curvatures(
            case.profile, case.spec).soliton_residual_max <= 1e-6

    def test_ricci_flat_residual(self, pipeline):
        case = pipeline("rf_d2_3")
        assert geometry.sectional_curvatures(
            case.profile, case.spec).soliton_residual_max <= 1e-6

    def test_fault_injection_detects_corruption(self, pipeline):
        """Corrupting g_ddot_1 by 1e-3 must push the residual above 1e-4."""
        case = pipeline("d2")
        prof = dataclasses.replace(case.profile, g_ddot=case.profile.g_ddot.copy())
        prof.g_ddot[:, 0] += 1e-3
        assert geometry.sectional_curvatures(prof, case.spec).soliton_residual_max >= 1e-4


class TestScalarCurvature:
    def test_two_routes_agree(self, pipeline):
        """Trace of the Ricci tensor vs -(u_ddot + tr L u_dot), the trace of
        the steady equation: the report's gap, and verify's
        scalar_two_routes check on it."""
        for name in ("d2", "d2_3", "d2_2_3"):
            case = pipeline(name)
            R1 = case.curv.scalar_R
            prof = case.profile
            R2 = -(prof.u_ddot + prof.tr_L() * prof.u_dot)
            scale = np.abs(R1).max()
            assert np.abs(R1 - R2).max() <= 1e-6 * scale
            assert case.curv.scalar_R_gap == np.abs(R1 - R2).max()
            a = geometry.asymptotics(prof, case.curv)
            [check] = [c for c in verify.tail_checks(a, case.curv, case.spec)
                       if c.name == "scalar_two_routes"]
            assert check.passed and check.tolerance == 1e-6


class TestSectional:
    def test_r1_all_positive(self, pipeline):
        """Bryant-type r = 1: every reported sectional family is positive
        (down to the tail resolution floor)."""
        curv = pipeline("d2").curv
        for arr in (curv.sectional_mixed_t, curv.sectional_within):
            assert arr.min() >= -1e-8
        # strictly positive where the values are numerically resolvable
        mid = slice(0, len(curv.t) // 2)
        assert curv.sectional_mixed_t[mid].min() > 0
        assert curv.sectional_within[mid].min() > 0

    @pytest.mark.parametrize("name", ("d2_3", "d2_2_3"))
    def test_cross_negative_for_r_ge_2(self, pipeline, name):
        """Products with r >= 2 always have 2-planes of negative curvature
        at large t (mixed-factor planes)."""
        curv = pipeline(name).curv
        large_t = curv.t >= 100.0 * curv.t[0]
        off_diag = curv.sectional_cross[large_t]
        r = off_diag.shape[1]
        mask = ~np.eye(r, dtype=bool)
        assert off_diag[:, mask].max() < 0

    def test_cross_symmetric_zero_diagonal(self, pipeline):
        curv = pipeline("d2_3").curv
        assert np.abs(curv.sectional_cross - curv.sectional_cross.transpose(0, 2, 1)).max() == 0
        assert np.abs(curv.sectional_cross[:, 0, 0]).max() == 0


class TestAsymptotics:
    @pytest.mark.parametrize("name", SOLITON_CASES)
    def test_paraboloid_limits(self, pipeline, name):
        case = pipeline(name)
        a = geometry.asymptotics(case.profile, case.curv)
        lam = case.spec.lambdas
        root_c = np.sqrt(-case.spec.gauge_C)
        assert a.g_gdot_limit == pytest.approx(lam / root_c, abs=1e-3)
        assert a.g_sq_over_t_limit == pytest.approx(2 * lam / root_c, rel=1e-2)
        [check] = [c for c in verify.tail_checks(a, case.curv, case.spec)
                   if c.name == "g_sq_exponent"]
        assert check.passed and check.tolerance == 0.05
        assert check.measured == np.abs(a.g_sq_exponent - 1.0).max()

    def test_curvature_decay_slopes(self, pipeline):
        for name in ("d2", "d2_3"):
            a = geometry.asymptotics(pipeline(name).profile, pipeline(name).curv)
            assert a.curvature_slope == pytest.approx(-1.0, abs=0.1)
            assert a.scalar_slope == pytest.approx(-1.0, abs=0.1)

    def test_scalar_ratio_unbounded(self, pipeline):
        a = geometry.asymptotics(pipeline("d2").profile, pipeline("d2").curv)
        assert np.all(np.diff(a.R_t2_ladder) > 0)
        assert a.R_t2_ladder[-1] / a.R_t2_ladder[0] > 10.0

    def test_insufficient_tail(self, pipeline):
        prof = pipeline("d2").profile
        n = np.searchsorted(prof.t, prof.t[0] * 100.0)
        fields = {
            f.name: getattr(prof, f.name)
            for f in dataclasses.fields(prof)
        }
        for key, val in fields.items():
            if isinstance(val, np.ndarray):
                fields[key] = val[:n]
        truncated = type(prof)(**fields)
        with pytest.raises(InsufficientTail):
            geometry.asymptotics(truncated, pipeline("d2").curv)
