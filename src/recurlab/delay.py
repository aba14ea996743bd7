"""Finite-delay functional differential equations by the method of steps.

u'(t) = f(t, u_t) with u_t(theta) = u(t + theta), theta in [-r, 0], for
functionals reading finitely many point lags. The grid step is snapped to
r/N (N >= 100) so lag lookups land on grid nodes exactly; stage values at
half-steps come from cubic Hermite interpolation of the stored history,
keeping the fixed-step RK4 at its full order.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LagOutOfRangeError, NonFiniteValueError, SampleBeforeDelayError
from .signal import SampledSignal


@dataclass(frozen=True)
class HistorySegment:
    """State of a delay equation: samples over relative time [-r, 0]."""

    r: float
    samples: SampledSignal

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("delay r must be positive")
        tol = self.samples.dt + 1e-9  # segments cut from foreign grids may miss by < one step
        if abs(self.samples.t0 + self.r) > tol or abs(self.samples.t_end) > tol:
            raise ValueError("history samples must cover [-r, 0]")

    @property
    def dim(self):
        return self.samples.dim

    @staticmethod
    def constant(r, value, dt=None):
        value = np.atleast_1d(np.asarray(value, dtype=float))
        dt = dt or r / 100
        n = int(round(r / dt)) + 1
        vals = np.tile(value, (n, 1))
        return HistorySegment(r, SampledSignal(t0=-r, dt=r / (n - 1), values=vals))

    @staticmethod
    def from_function(r, fn, dt=None):
        dt = dt or r / 100
        sig = SampledSignal.from_function(fn, -r, 0.0, dt)
        return HistorySegment(r, sig)


@dataclass(frozen=True)
class DelayRhsSpec:
    """Linear functional over finitely many point lags in [-r, 0].

    u' = sum_j weights[j] * u(t + lags[j]) + forcing(t) on the first
    component.
    """

    lags: tuple
    params: dict = field(default_factory=dict)
    forcing: SampledSignal = None

    def build(self, r):
        for th in self.lags:
            if th < -r - 1e-12 or th > 1e-12:
                raise LagOutOfRangeError(f"lag {th} outside [-{r}, 0]")
        weights = np.asarray(self.params.get("weights", [-1.0] * len(self.lags)), dtype=float)
        if len(weights) != len(self.lags):
            raise ConfigError("weights must match lags", key="weights")
        forcing = self.forcing

        def f(t, lagged):
            out = np.tensordot(weights, lagged, axes=(0, 0))
            if forcing is not None:
                out = out.copy()
                out[0] += forcing.value_at(t)[0].real
            return out

        return f


def _hermite(y0, y1, d0, d1, s, h):
    # cubic Hermite on one grid cell, s in [0, 1]
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * d0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * d1)


def integrate_dde(rhs: DelayRhsSpec, init: HistorySegment, horizon: float,
                  dt: float = None) -> SampledSignal:
    """Method of steps with fixed-step RK4 on a grid dividing r exactly.

    Lags are snapped to the nearest grid node; a zero lag reads the running
    RK4 stage state directly (the equation degenerates to an ODE there).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    r = init.r
    dt_req = dt or r / 100
    N = max(100, int(round(r / dt_req)))
    h = r / N
    n_steps = int(np.ceil(horizon / h - 1e-9))
    d = init.dim

    f = rhs.build(r)
    lag_idx = np.array([int(round(-th / h)) for th in rhs.lags], dtype=np.int64)
    zero_lags = lag_idx == 0

    # history buffer: index i holds u(-r + i h); derivative buffer alongside
    n_total = N + 1 + n_steps
    u = np.empty((n_total, d))
    du = np.empty((n_total, d))
    if abs(init.samples.dt - h) <= 1e-12 and len(init.samples) == N + 1:
        u[:N + 1] = init.samples.values.real
    else:
        hist = init.samples.resample(h)
        if len(hist) == N + 1:
            u[:N + 1] = hist.values.real
        else:
            ts = -r + h * np.arange(N + 1)
            u[:N + 1] = np.array([init.samples.value_at(t).real for t in ts])
    # derivative data for cells inside the initial history; kept separate
    # because the joint at t=0 carries two one-sided derivatives
    ghist = np.gradient(u[:N + 1], h, axis=0)
    du[:N + 1] = ghist

    def lagged_at(pos, stage_state):
        # pos: fractional grid index of current stage time
        vals = np.empty((len(lag_idx), d))
        for j, m in enumerate(lag_idx):
            if zero_lags[j]:
                vals[j] = stage_state
                continue
            p = pos - m
            k = int(np.floor(p + 1e-12))
            s = p - k
            if s < 1e-12:
                vals[j] = u[k]
            elif k + 1 <= N:
                vals[j] = _hermite(u[k], u[k + 1], ghist[k], ghist[k + 1], s, h)
            else:
                vals[j] = _hermite(u[k], u[k + 1], du[k], du[k + 1], s, h)
        return vals

    def eval_f(t, pos, stage_state):
        v = np.asarray(f(t, lagged_at(pos, stage_state)), dtype=float)
        if not np.all(np.isfinite(v)) or np.max(np.abs(stage_state)) > 1e12:
            raise NonFiniteValueError(f"delay integration blew up at t={t}")
        return v

    for i in range(n_steps):
        gi = N + i            # grid index of current time
        t = i * h
        y = u[gi]
        k1 = eval_f(t, gi, y)
        du[gi] = k1
        k2 = eval_f(t + h / 2, gi + 0.5, y + h / 2 * k1)
        k3 = eval_f(t + h / 2, gi + 0.5, y + h / 2 * k2)
        k4 = eval_f(t + h, gi + 1.0, y + h * k3)
        u[gi + 1] = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        du[gi + 1] = eval_f(t + h, gi + 1.0, u[gi + 1])

    return SampledSignal(t0=0.0, dt=h, values=u[N:], label="dde")


def precompactness_proxy(u: SampledSignal, range_cap: float = 1e6,
                         growth_factor: float = 2.0):
    """Boundedness + equicontinuity certificate behind segment precompactness.

    Verdict is heuristic: the range must stay under range_cap AND show no
    doubling between the first and second half of the horizon, and the
    difference-quotient bound must be finite. Always returns a verdict with
    the numeric evidence.
    """
    mags = np.sqrt(np.sum((u.values * u.values.conj()).real, axis=1))
    half = len(u) // 2
    m1 = float(np.max(mags[:half])) if half else 0.0
    m2 = float(np.max(mags[half:]))
    deriv = float(np.max(np.abs(np.diff(u.values, axis=0))) / u.dt) if len(u) > 1 else 0.0
    growing = m2 > growth_factor * max(m1, 1e-12) and m2 > 1e-6
    ok = (m2 <= range_cap) and (not growing) and np.isfinite(deriv)
    return ok, {"range_bound": max(m1, m2), "derivative_bound": deriv,
                "growth_ratio": m2 / max(m1, 1e-12)}


def segment_trajectory(u: SampledSignal, r: float, sample_times):
    """The segment-space trajectory t -> u_t, each rebased to [-r, 0].

    Segments are sampled by interpolation at a common theta grid so that
    segments taken at different absolute times stay phase-aligned.
    """
    n_theta = max(2, int(round(r / u.dt)))
    thetas = np.linspace(-r, 0.0, n_theta + 1)
    out = []
    for t in sample_times:
        if t < u.t0 + r - 1e-9:
            raise SampleBeforeDelayError(f"sample time {t} precedes t0 + r")
        vals = np.array([u.value_at(t + th) for th in thetas])
        seg = SampledSignal(t0=-r, dt=r / n_theta, values=vals, label=u.label)
        out.append(HistorySegment(r, seg))
    return out
