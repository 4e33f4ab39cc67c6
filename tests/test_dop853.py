"""The shared DOP853 step loop: its tableau and its stop test.  The loop's
identity with scipy's solve_ivp is checked through the oracle, in
tests/test_oracle.py."""

import math

import numpy as np
import pytest

from solitonforge import dop853


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
    return fun


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
        dop853._dop853(fun, np.array([1.0]), 0.0, 1.0, 1e-8, 1e-8)


@pytest.mark.parametrize("t_bound", [1.0, 0.5, math.nan])
def test_bound_not_beyond_the_start_raises(t_bound):
    """Runs go forward only: a bound at the start, before it or NaN raises
    ValueError before the field is called."""
    calls = []
    with pytest.raises(ValueError, match="must exceed t0"):
        dop853._dop853(_decay(calls), np.array([1.0]), 1.0, t_bound, 1e-8, 1e-8)
    assert calls == []
