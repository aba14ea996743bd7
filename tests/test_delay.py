import hashlib
import math
import warnings

import numpy as np
import pytest

from recurlab.catalog import build_forcing, scalar_interp
from recurlab.delay import (
    DelayRhsSpec,
    HistorySegment,
    integrate_dde,
    precompactness_proxy,
)
from recurlab.errors import LagOutOfRangeError, NonFiniteValueError
from recurlab.flows import IVP, RhsSpec, integrate
from recurlab.signal import SampledSignal, Window

from helpers import history_from_function


def test_first_interval_is_linear():
    # u' = -u(t-1) with unit history: u = 1 - t on [0, 1]
    rhs = DelayRhsSpec(lags=(-1.0,), params={"weights": [-1.0]})
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 1.0), 1.0, dt=0.01)
    assert np.max(np.abs(u.values[:, 0] - (1 - u.times()))) <= 1e-8


def test_zero_functional_keeps_initial_value():
    rhs = DelayRhsSpec(lags=(-1.0,), params={"weights": [0.0]})
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 0.7), 5.0, dt=0.01)
    assert np.max(np.abs(u.values - 0.7)) == 0.0


def test_zero_lag_reduces_to_ode():
    rhs = DelayRhsSpec(lags=(0.0,), params={"weights": [-1.0]})
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 1.0), 10.0, dt=0.01)
    assert np.max(np.abs(u.values[:, 0] - np.exp(-u.times()))) <= 1e-6


def test_zero_lag_agrees_with_flows_integrator():
    # forced variant within 10x the ODE integrator tolerance
    f = build_forcing("sin", 0.0, 40.0, 0.001)
    rhs_d = DelayRhsSpec(lags=(0.0,), params={"weights": [-1.0]}, forcing=f)
    u = integrate_dde(rhs_d, HistorySegment.constant(1.0, 0.0), 30.0, dt=0.005)
    rhs_o = RhsSpec("catalog:linear_decay", forcing=f)
    ref = integrate(IVP(rhs_o, (0.0,), Window(0, 30.0), 1e-10, 1e-12, out_dt=0.005))
    n = min(len(u), len(ref))
    assert np.max(np.abs(u.values[:n] - ref.values[:n])) <= 1e-6


def test_lag_outside_delay_interval_rejected():
    rhs = DelayRhsSpec(lags=(-2.0,), params={"weights": [-1.0]})
    with pytest.raises(LagOutOfRangeError):
        integrate_dde(rhs, HistorySegment.constant(1.0, 1.0), 1.0)


def test_delayed_oscillator_bounded_proxy():
    f = build_forcing("sin", 0.0, 60.0, 0.002)
    rhs = DelayRhsSpec(lags=(0.0,), params={"weights": [-1.0]}, forcing=f)
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 0.0), 50.0, dt=0.01)
    ok, ev = precompactness_proxy(u)
    assert ok
    assert ev["range_bound"] < 2.0


def test_growth_fails_proxy():
    rhs = DelayRhsSpec(lags=(0.0,), params={"weights": [1.0]})
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 1.0), 15.0, dt=0.01)
    ok, ev = precompactness_proxy(u)
    assert not ok
    assert ev["growth_ratio"] > 100


def test_constant_trajectory_proxy_true():
    rhs = DelayRhsSpec(lags=(-1.0,), params={"weights": [0.0]})
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 2.0), 10.0)
    ok, _ = precompactness_proxy(u)
    assert ok


def test_contracting_delay_equation_with_rap_forcing_is_rap():
    # u' = -2 u(t) + 0.5 u(t-1) + sin(t + ln(1+t)): the Lipschitz gap makes
    # the equation contracting, and the solution inherits the forcing's
    # remote almost periodicity (asserted on this instance, not in general)
    from recurlab.recurrence import TauSpec, Thresholds, classify
    from recurlab.signal import Window

    f = build_forcing("rap_sin_log", 0.0, 3200.0, 0.005)
    rhs = DelayRhsSpec(lags=(0.0, -1.0), params={"weights": [-2.0, 0.5]}, forcing=f)
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 0.0), 3000.0, dt=0.01)
    ok, _ = precompactness_proxy(u)
    assert ok
    tail = u.restrict(Window(50.0, u.t_end))
    th = Thresholds(epsilon_grid=(0.1,),
                    tau_candidates=TauSpec(lo=2 * np.pi, hi=100 * np.pi,
                                           step=2 * np.pi, refine=True))
    flags = classify(tail, th).flags
    assert flags["rap"] is True
    assert flags["ap"] is False


def test_two_lag_linear_combination():
    # u' = -u(t) + 0.25 u(t-1): contraction; compare against a dense-grid rerun
    rhs = DelayRhsSpec(lags=(0.0, -1.0), params={"weights": [-1.0, 0.25]})
    init = history_from_function(1.0, lambda t: 1 + 0.3 * t)
    coarse = integrate_dde(rhs, init, 8.0, dt=0.01)
    fine = integrate_dde(rhs, init, 8.0, dt=0.002)
    n = min(len(coarse), len(fine.resample(coarse.dt)))
    assert np.max(np.abs(coarse.values[:n, 0] - fine.resample(coarse.dt).values[:n, 0])) < 1e-7


# ---------------------------------------------------------------------------
# the chunked method of steps against independent references
# ---------------------------------------------------------------------------

def _hermite(y0, y1, d0, d1, s, h):
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * d0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * d1)


def _rk4_step_by_step(rhs, init, horizon, dt):
    """Deliberately naive reference: one RK4 step per loop iteration.

    Every stage evaluates the functional on freshly interpolated lag
    values; the chunked integrator must agree with it up to rounding.
    """
    r = init.r
    N = max(100, int(round(r / dt)))
    h = r / N
    n_steps = int(np.ceil(horizon / h - 1e-9))
    d = init.dim
    weights = rhs.weights(r)
    lag_idx = [int(round(-th / h)) for th in rhs.lags]
    u = np.empty((N + 1 + n_steps, d))
    du = np.empty_like(u)
    u[:N + 1] = init.samples.values.real
    ghist = np.gradient(u[:N + 1], h, axis=0)
    du[:N + 1] = ghist

    def lagged_at(pos, state):
        vals = []
        for m in lag_idx:
            if m == 0:
                vals.append(state)
                continue
            p = pos - m
            k = int(np.floor(p + 1e-12))
            s = p - k
            if s < 1e-12:
                vals.append(u[k])
            elif k + 1 <= N:
                vals.append(_hermite(u[k], u[k + 1], ghist[k], ghist[k + 1], s, h))
            else:
                vals.append(_hermite(u[k], u[k + 1], du[k], du[k + 1], s, h))
        return vals

    forcing = scalar_interp(rhs.forcing) if rhs.forcing is not None else None

    def f(t, pos, state):
        out = sum(w * v for w, v in zip(weights, lagged_at(pos, state)))
        if forcing is not None:
            out = out + np.eye(d)[0] * forcing(t)
        return out

    for i in range(n_steps):
        gi, t, y = N + i, i * h, u[N + i]
        k1 = f(t, gi, y)
        du[gi] = k1
        k2 = f(t + h / 2, gi + 0.5, y + h / 2 * k1)
        k3 = f(t + h / 2, gi + 0.5, y + h / 2 * k2)
        k4 = f(t + h, gi + 1.0, y + h * k3)
        u[gi + 1] = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u[N:]


def test_unit_delay_matches_its_piecewise_polynomial():
    # u' = -u(t-1), u = 1 on [-1, 0]: on [k-1, k] the solution is a degree-k
    # polynomial, u(t) = 1 + sum_{k=1}^{ceil t} (-1)^k (t-k+1)^k / k!. The
    # lagged pieces have degree <= 3 on [0, 4], so Hermite history and
    # RK4 (Simpson's rule here) are exact up to rounding.
    rhs = DelayRhsSpec(lags=(-1.0,), params={"weights": [-1.0]})
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 1.0), 4.0, dt=0.01)
    ts = u.times()
    exact = np.array([1.0 + sum((-1) ** k * (t - k + 1) ** k / math.factorial(k)
                                for k in range(1, math.ceil(t - 1e-9) + 1)) for t in ts])
    assert np.max(np.abs(u.values[:, 0] - exact)) <= 1e-12


def test_chunked_steps_match_the_step_by_step_reference():
    # two nonzero lags of different lengths (chunks of 37 steps, shorter
    # than r), a zero lag, a forcing and a two-dimensional state
    f = build_forcing("rap_sin_log", 0.0, 10.0, 0.005)
    rhs = DelayRhsSpec(lags=(0.0, -0.37, -1.0), params={"weights": [-1.5, 0.4, -0.3]},
                       forcing=f)
    init = history_from_function(
        1.0, lambda t: np.column_stack([1 + 0.3 * t, np.cos(2 * t)]), dt=0.01)
    u = integrate_dde(rhs, init, 5.0, dt=0.01)
    ref = _rk4_step_by_step(rhs, init, 5.0, 0.01)
    assert u.values.shape == ref.shape == (501, 2)
    assert np.max(np.abs(u.values - ref)) <= 1e-13


@pytest.mark.parametrize("a", [40.0, 1e5])   # past the 1e12 guard; overflow to inf
def test_blow_up_raises_without_runtime_warnings(a):
    rhs = DelayRhsSpec(lags=(0.0, -1.0), params={"weights": [a, 5.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError):
            integrate_dde(rhs, HistorySegment.constant(1.0, 1.0), 100.0, dt=0.01)


# ---------------------------------------------------------------------------
# the history read onto the grid -r + i h
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dt", [0.01, 0.005, 0.003])
@pytest.mark.parametrize("t0", [-0.996, -1.004])
def test_an_off_phase_history_fills_the_grid_at_its_own_times(t0, dt):
    # u(theta) = theta on 101 samples that start within a step of -1; with
    # u' = u(t - 1) the solution on [0, 1] is t^2/2 - t, which Hermite
    # history and RK4 (Simpson's rule here) give exactly when the buffer
    # holds u(-1 + i h)
    init = HistorySegment(1.0, SampledSignal(t0=t0, dt=0.01, values=t0 + 0.01 * np.arange(101)))
    rhs = DelayRhsSpec(lags=(-1.0,), params={"weights": [1.0]})
    u = integrate_dde(rhs, init, 1.0, dt=dt)
    ts = u.times()
    assert abs(u.values[0, 0]) <= 1e-15
    assert np.max(np.abs(u.values[:, 0] - (ts * ts / 2 - ts))) <= 1e-13


def test_an_on_grid_history_keeps_its_bits():
    # the benchmark's dde case: a constant history on the buffer's own grid
    # is copied, so the solution has the bits it had before the history read
    # changed (sha256 of the solution's bytes then)
    f = build_forcing("rap_sin_log", 0.0, 16.0, 0.005)
    rhs = DelayRhsSpec(lags=(0.0, -1.0), params={"weights": [-2.0, 0.5]}, forcing=f)
    u = integrate_dde(rhs, HistorySegment.constant(1.0, 0.3), 6.0, dt=0.01)
    assert u.values.shape == (601, 1) and u.values[0, 0] == 0.3
    assert hashlib.sha256(u.values.tobytes()).hexdigest() == \
        "c209cc699dc607c615eaadb738a80cea3e107bda2d5457491561b67f13f0bfdf"
