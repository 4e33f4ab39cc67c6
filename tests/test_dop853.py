"""The shared DOP853 step loop: its tableau, its stop test and the stage
entries of its generated fields.  The loop's identity with scipy's
solve_ivp is checked through the oracle, in tests/test_oracle.py."""

import math

import numpy as np
import pytest

from solitonforge import dop853, manifold, oracle

from conftest import with_stage


def test_tableau_is_scipys():
    """Every coefficient array is scipy's DOP853 one, bit for bit."""
    from scipy.integrate import DOP853

    assert dop853.STAGES == DOP853.n_stages
    for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
        ours, theirs = getattr(dop853, name), getattr(DOP853, name)
        assert ours.shape == theirs.shape, name
        assert np.array_equal(ours, theirs), name


def _decay(calls):
    """y' = -y with t passed through, counting the calls."""
    def fun(t, v):
        calls.append(t)
        return [-x for x in v]
    return with_stage(fun)


def test_counts_calls_and_reaches_the_bound():
    calls = []
    dense, nfev, stopped = dop853._dop853(_decay(calls), np.array([1.0, 2.0]), 0.0, 5.0,
                                          1e-10, 1e-10)
    assert not stopped and dense.ts[-1] == 5.0
    # f at the start and the initial step's probe, twelve evaluations per
    # attempted step and three more per accepted one for the interpolant
    assert nfev == len(calls)
    steps = dense.ts.size - 1
    attempts, rest = divmod(nfev - 2 - 3 * steps, 12)
    assert rest == 0 and attempts >= steps
    exact = np.exp(-np.array([0.5, 2.5, 5.0]))[:, None] * [1.0, 2.0]
    assert np.abs(dense([0.5, 2.5, 5.0]).T - exact).max() <= 1e-9
    # the stage abscissae lie in the steps they belong to
    assert min(calls) == 0.0 and max(calls) <= 5.0


def test_stop_test_ends_the_run_at_a_step_end():
    """The stop test sees every accepted step end; a true answer ends the
    run there, before the bound."""
    seen = []

    def stop(t, y):
        seen.append((t, y[0]))
        return y[0] < 0.5

    dense, _, stopped = dop853._dop853(_decay([]), np.array([1.0]), 0.0, 10.0,
                                       1e-8, 1e-8, stop)
    assert stopped
    assert [t for t, _ in seen] == dense.ts[1:].tolist()
    assert seen[-1][1] < 0.5 <= seen[-2][1]
    assert dense.ts[-1] < 10.0 and dense.ts[-1] > math.log(2.0)


def test_step_size_collapse_raises():
    """A field that is NaN off the start makes the error norm NaN, so the
    step size falls without end: the loop raises TOO_SMALL_STEP."""
    def fun(t, v):
        return [-1.0] if t == 0.0 else [math.nan]

    with pytest.raises(ValueError, match=dop853.TOO_SMALL_STEP):
        dop853._dop853(with_stage(fun), np.array([1.0]), 0.0, 1.0, 1e-8, 1e-8)


@pytest.mark.parametrize("t_bound", [1.0, 0.5, math.nan])
def test_bound_not_beyond_the_start_raises(t_bound):
    """Runs go forward only: a bound at the start, before it or NaN raises
    ValueError before the field is called."""
    calls = []
    with pytest.raises(ValueError, match="must exceed t0"):
        dop853._dop853(_decay(calls), np.array([1.0]), 1.0, t_bound, 1e-8, 1e-8)
    assert calls == []


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e-300]


def _fields(r, rng):
    """The loop's two generated fields on r factors, each with its state
    size and abscissa: the oracle's t-space field, and the tail's
    remainder field on the slow manifold."""
    dims = tuple(rng.integers(2, 10, r).astype(float).tolist())
    u0 = (2.0 / np.array(dims) * 10.0 ** rng.uniform(-1, 3, r)).tolist()
    return [(oracle.t_field(list(dims), [x - 1.0 for x in dims]), 2 * r + 1, 1.0),
            (manifold.remainder_field(dims, u0, 9.0), r, 20.0)]


def _outcome(fun, *args):
    """The result as an array, or the type of the exception raised."""
    try:
        return np.array(fun(*args))
    except ArithmeticError as exc:
        return type(exc)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stage_is_the_field_at_the_stage_state(r):
    """stage(t, y, d, h) is field(t, [u + e * h for u, e in zip(y, d)]), bit
    for bit, on entries over nine decades and on -0.0, infinities, NaN and
    subnormals; where the field raises (a division by an exact zero), the
    stage raises the same."""
    rng = np.random.default_rng(70 + r)
    for field, n, t in _fields(r, rng):
        # the stage adds no number to the code
        assert set(field.stage.__code__.co_consts) == set(field.__code__.co_consts)
        for _ in range(300):
            y, d = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4, 5, n) for _ in "yd")
            h = float(10.0 ** rng.uniform(-4, 0))
            if rng.random() < 0.5:
                special = rng.random((2, n)) < 0.3
                y[special[0]] = rng.choice(SPECIAL, special[0].sum())
                d[special[1]] = rng.choice(SPECIAL, special[1].sum())
            y, d = y.tolist(), d.tolist()
            expected = _outcome(field, t, [u + e * h for u, e in zip(y, d)])
            got = _outcome(field.stage, t, y, d, h)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("factory", [oracle._t_factory, manifold._remainder_factory])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stage_runs_the_fields_body(factory, r):
    """In the generated source the stage entry sets each component to
    y_i + d_i h and then runs the field's body lines, unchanged."""
    lines = factory(r).source.splitlines()
    f = next(i for i, x in enumerate(lines) if x.startswith("    def field("))
    s = next(i for i, x in enumerate(lines) if x.startswith("    def stage("))
    body = lines[f + 2:s]   # after the field's unpacking of its state
    stage = lines[s + 1:lines.index("    field.stage = stage")]
    n = len(stage) - len(body) - 2
    assert n == (2 * r + 1 if factory is oracle._t_factory else r)
    assert stage[2 + n:] == body
    assert [x.split(" = ", 1)[1] for x in stage[2:2 + n]] == [
        f"_y{i} + _d{i} * _h" for i in range(n)]
