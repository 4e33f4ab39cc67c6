"""Vector field, invariants, and linearization of the phase system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solitonforge as sf
from solitonforge import phase, verify

SPEC_R1_D2 = sf.ProblemSpec(factors=(sf.FactorSpec(2, 1.0),))
SPEC_D2_3 = sf.ProblemSpec(
    factors=(sf.FactorSpec(2, 1.0), sf.FactorSpec(3, 2.0)),
    seed_coeffs=(-1e-4, 1e-4),
)


def point(X, Y, s=0.0):
    return phase.PhasePoint(s=s, X=np.asarray(X, float), Y=np.asarray(Y, float))


def field(p, spec):
    """(dX, dY) of phase.rhs at a phase point."""
    d = phase.rhs(p.as_vector(), np.sqrt(spec.dims))
    return d[:spec.r], d[spec.r:]


def hamiltonian(p, spec):
    """H = sum sqrt(d_i) X_i, as the flow computes traj.H."""
    return float(p.X @ np.sqrt(spec.dims))


def identity_residual(p, spec):
    """|L' - 2 L sum X^2| with L' taken along phase.rhs."""
    dX, dY = field(p, spec)
    dL = 2.0 * (p.X @ dX + p.Y @ dY)
    return float(abs(dL - 2.0 * phase.lyapunov(p) * (p.X @ p.X)))


def jacobian_at_critical_point(spec):
    return phase.rhs_jacobian(sf.critical_point(spec).as_vector(), np.sqrt(spec.dims))


def closed_form_spectrum(spec):
    """beta^2 - 1 (r times), beta^2 (r - 1 times) and 2 beta^2, sorted."""
    b2 = sf.constants(spec).beta ** 2
    return np.sort([b2 - 1.0] * spec.r + [b2] * (spec.r - 1) + [2.0 * b2])


# bounded random states for the algebraic identities
states_r2 = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
)


class TestVectorField:
    def test_critical_point_is_fixed(self):
        p = sf.critical_point(SPEC_D2_3)
        dX, dY = field(p, SPEC_D2_3)
        assert np.abs(dX).max() <= 1e-15
        assert np.abs(dY).max() <= 1e-15

    def test_r1_frozen_value(self):
        dX, dY = field(point([0.0], [1.0]), SPEC_R1_D2)
        assert dX[0] == pytest.approx(0.7071068, abs=1e-7)
        assert dY[0] == pytest.approx(0.0, abs=1e-15)

    def test_r2_frozen_values(self):
        dX, dY = field(point([0.2, 0.1], [0.6, 0.3]), SPEC_D2_3)
        assert dX == pytest.approx([0.0645584, -0.0430385], abs=1e-7)
        assert dY == pytest.approx([-0.0548528, -0.0023205], abs=1e-7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="phase.rhs takes"):
            field(point([0.2], [0.6]), SPEC_D2_3)

    @given(states_r2)
    @settings(max_examples=100, deadline=None)
    def test_y_sign_equivariance(self, XY):
        """Negating any Y_i maps solutions to solutions: dX is even in Y_i
        and dY_i flips sign with Y_i."""
        X, Y = map(np.array, XY)
        dX, dY = field(point(X, Y), SPEC_D2_3)
        for i in range(2):
            Yf = Y.copy()
            Yf[i] = -Yf[i]
            dXf, dYf = field(point(X, Yf), SPEC_D2_3)
            assert dXf == pytest.approx(dX, abs=1e-14)
            expected = dY.copy()
            expected[i] = -expected[i]
            assert dYf == pytest.approx(expected, abs=1e-14)


    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_stack_of_states_matches_one_at_a_time(self, r):
        """A (5, 2r) stack, the form in which the Radau stages are
        evaluated, gives each row's own field, bit for bit."""
        rng = np.random.default_rng(r)
        sqrt_d = np.sqrt(rng.integers(2, 10, r).astype(float))
        stack = rng.uniform(-1.0, 1.0, (5, 2 * r))
        fields = phase.rhs(stack, sqrt_d)
        assert fields.shape == stack.shape
        for field, y in zip(fields, stack):
            assert np.array_equal(field, phase.rhs(y, sqrt_d))


class TestTextbookFormulas:
    """phase.rhs and phase.rhs_jacobian against the module docstring's
    formulas written out entry by entry, bit for bit."""

    @staticmethod
    def _field(y, sqrt_d):
        r = sqrt_d.size
        X, Y = y[:r], y[r:]
        sx2 = sum(X[j] * X[j] for j in range(r))   # left to right
        dX = [X[i] * (sx2 - 1.0) + Y[i] * Y[i] / sqrt_d[i] for i in range(r)]
        dY = [Y[i] * (sx2 - X[i] / sqrt_d[i]) for i in range(r)]
        return np.array(dX + dY)

    @staticmethod
    def _jacobian(y, sqrt_d):
        r = sqrt_d.size
        X, Y = y[:r], y[r:]
        sx2 = X @ X   # the BLAS dot, whose summation order numpy does not fix
        J = np.zeros((2 * r, 2 * r))
        for i in range(r):
            for j in range(r):
                J[i, j] = 2.0 * (X[i] * X[j])
                J[r + i, j] = 2.0 * (Y[i] * X[j])
            J[i, i] += sx2 - 1.0
            J[r + i, i] -= Y[i] / sqrt_d[i]
            J[i, r + i] = 2.0 * Y[i] / sqrt_d[i]
            J[r + i, r + i] = sx2 - X[i] / sqrt_d[i]
        return J

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_single_states_and_stacks(self, r):
        rng = np.random.default_rng(10 + r)
        for _ in range(50):
            sqrt_d = np.sqrt(rng.integers(2, 10, r).astype(float))
            scale = 10.0 ** rng.uniform(-8, 1)
            y = scale * rng.uniform(-1.0, 1.0, 2 * r)
            assert np.array_equal(phase.rhs(y, sqrt_d), self._field(y, sqrt_d))
            assert np.array_equal(phase.rhs_jacobian(y, sqrt_d), self._jacobian(y, sqrt_d))
            stack = scale * rng.uniform(-1.0, 1.0, (3, 2 * r))
            expected = np.array([self._field(row, sqrt_d) for row in stack])
            assert np.array_equal(phase.rhs(stack, sqrt_d), expected)

    @staticmethod
    def _numpy_field(y, sqrt_d):
        """The module docstring's formulas as numpy expressions on a state
        or a stack, with IEEE results and no warnings for inf and NaN."""
        r = sqrt_d.size
        X, Y = y[..., :r], y[..., r:]
        with np.errstate(all="ignore"):
            sx2 = np.add.reduce(X * X, axis=-1, keepdims=True)
            return np.concatenate(
                [X * (sx2 - 1.0) + Y * Y / sqrt_d, Y * (sx2 - X / sqrt_d)], axis=-1
            )

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_ieee_special_entries(self, r):
        """Zeros of both signs, infinities, NaN, squares that overflow and
        subnormals give numpy's values bit for bit, NaN in the same places,
        in both shapes; nothing raises."""
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200,
                   5e-324, -2.5e-310, 1e-160, 0.5, -1.5]
        rng = np.random.default_rng(30 + r)
        for _ in range(200):
            sqrt_d = np.sqrt(rng.integers(2, 10, r).astype(float))
            for shape in ((2 * r,), (3, 2 * r)):
                y = rng.choice(special, shape)
                got = phase.rhs(y, sqrt_d)
                expected = self._numpy_field(y, sqrt_d)
                assert got.shape == expected.shape
                nan = np.isnan(expected)
                assert np.array_equal(np.isnan(got), nan)
                assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))

    @pytest.mark.parametrize("shape", [(2, 3, 4), (), (5,), (3, 3)])
    def test_other_shapes_raise(self, shape):
        """A state (n,) or a stack (k, n) with n = 2r; anything else raises."""
        with pytest.raises(ValueError, match="phase.rhs takes"):
            phase.rhs(np.zeros(shape), np.sqrt([2.0, 3.0]))


class TestScalars:
    def test_lyapunov_values(self):
        assert phase.lyapunov(sf.critical_point(SPEC_D2_3)) == pytest.approx(0.0, abs=1e-15)
        assert phase.lyapunov(point([0.0, 0.0], [0.0, 0.0])) == -1.0
        assert phase.lyapunov(point([0.2, 0.1], [0.6, 0.3])) == pytest.approx(-0.5, abs=1e-15)

    def test_hamiltonian_values(self):
        assert hamiltonian(sf.critical_point(SPEC_D2_3), SPEC_D2_3) == pytest.approx(1.0, abs=1e-15)
        assert hamiltonian(point([0.0, 0.0], [0.0, 0.0]), SPEC_D2_3) == 0.0
        assert hamiltonian(point([0.2, 0.1], [0.6, 0.3]), SPEC_D2_3) == pytest.approx(0.4560477, abs=1e-7)

    def test_identity_at_frozen_point(self):
        res = identity_residual(point([0.2, 0.1], [0.6, 0.3]), SPEC_D2_3)
        assert res <= 1e-12

    @given(states_r2)
    @settings(max_examples=200, deadline=None)
    def test_identity_everywhere(self, XY):
        X, Y = XY
        p = point(X, Y)
        res = identity_residual(p, SPEC_D2_3)
        assert res <= 1e-12 * (1.0 + abs(phase.lyapunov(p)))


class TestLinearization:
    def test_block_structure_d2(self):
        J = jacobian_at_critical_point(SPEC_R1_D2)
        b = 1.0 / np.sqrt(2.0)
        bh = np.sqrt(1.0 - b * b)
        expected = np.array([[3 * b * b - 1.0, 2 * b * bh], [b * bh, 0.0]])
        assert J == pytest.approx(expected, abs=1e-15)

    def test_offblock_diagonal_entries(self):
        J = jacobian_at_critical_point(SPEC_D2_3)
        b2 = 0.5
        # X_2 row: diagonal beta^2 - 1; Y_2 row: diagonal beta^2
        assert J[1, 1] == pytest.approx(b2 - 1.0, abs=1e-15)
        assert J[3, 3] == pytest.approx(b2, abs=1e-15)

    def test_eigenvalue_multiset_d2_r2(self, pipeline):
        """The closed form that verify's spectrum check holds the
        numerical eigenvalues to, on the d = (2, 3) run."""
        case = pipeline("d2_3")
        report = verify.run_suite(case.traj, case.profile, case.curv, case.spec)
        [check] = [c for c in report.checks if c.name == "spectrum"]
        assert check.details["closed_form"] == pytest.approx([-0.5, -0.5, 0.5, 1.0], abs=1e-15)
        assert check.details["eigenvalues"] == pytest.approx([-0.5, -0.5, 0.5, 1.0], abs=1e-10)

    def test_unstable_eigenvector(self):
        J = jacobian_at_critical_point(SPEC_R1_D2)
        v = phase.unstable_eigenvector_fast(SPEC_R1_D2)
        assert v == pytest.approx([1.4142136, 0.7071068], abs=1e-7)
        # eigenvector for eigenvalue 2 beta^2 = 1
        assert J @ v == pytest.approx(1.0 * v, abs=1e-12)

    def test_stable_block_eigenvector_d2(self):
        J = jacobian_at_critical_point(SPEC_R1_D2)
        v = np.array([1.0, -1.0])
        assert J @ v == pytest.approx(-0.5 * v, abs=1e-12)

    def test_closed_form_matches_numerical_eigensolve(self):
        for spec in (SPEC_R1_D2, SPEC_D2_3):
            numeric = np.sort(np.linalg.eigvals(jacobian_at_critical_point(spec)).real)
            assert numeric == pytest.approx(closed_form_spectrum(spec), abs=1e-10)

    def test_jacobian_matches_finite_differences(self):
        spec = SPEC_D2_3
        y0 = np.array([0.3, -0.2, 0.5, 0.4])
        J = phase.rhs_jacobian(y0, np.sqrt(spec.dims))
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            col = (phase.rhs(y0 + e, np.sqrt(spec.dims))
                   - phase.rhs(y0 - e, np.sqrt(spec.dims))) / (2 * h)
            assert col == pytest.approx(J[:, j], rel=1e-6, abs=1e-8)
