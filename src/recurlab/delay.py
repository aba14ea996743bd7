"""Finite-delay functional differential equations by the method of steps.

u'(t) = f(t, u_t) with u_t(theta) = u(t + theta), theta in [-r, 0], for
functionals reading finitely many point lags. The grid step is snapped to
r/N (N >= 100) so lag lookups land on grid nodes exactly; stage values at
half-steps come from cubic Hermite interpolation of the stored history,
keeping the fixed-step RK4 at its full order.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LagOutOfRangeError, NonFiniteValueError
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
    def constant(r, value):
        """The history u = value on [-r, 0], sampled at 101 points."""
        vals = np.tile(np.atleast_1d(np.asarray(value, dtype=float)), (101, 1))
        return HistorySegment(r, SampledSignal(t0=-r, dt=r / 100, values=vals))


@dataclass(frozen=True)
class DelayRhsSpec:
    """Linear functional over finitely many point lags in [-r, 0].

    u' = sum_j weights[j] * u(t + lags[j]) + forcing(t) on the first
    component.
    """

    lags: tuple
    params: dict = field(default_factory=dict)
    forcing: SampledSignal = None

    def weights(self, r):
        """The lag weights, checked against the lags and the delay r."""
        for th in self.lags:
            if th < -r - 1e-12 or th > 1e-12:
                raise LagOutOfRangeError(f"lag {th} outside [-{r}, 0]")
        weights = np.asarray(self.params.get("weights", [-1.0] * len(self.lags)), dtype=float)
        if len(weights) != len(self.lags):
            raise ConfigError("weights must match lags", key="weights")
        return weights


def _hermite_mid(y0, y1, d0, d1, h):
    # cubic Hermite at the middle of a grid cell of width h
    return 0.5 * y0 + 0.125 * h * d0 + 0.5 * y1 - 0.125 * h * d1


def _rk4_stages(a, h, y, c1, c2, c4):
    """RK4 stage states and derivatives of u' = a u + c, with the lag and
    forcing terms c at the node (c1), the half step (c2) and the next node
    (c4) already known."""
    k1 = a * y + c1
    s2 = y + h / 2 * k1
    k2 = a * s2 + c2
    s3 = y + h / 2 * k2
    k3 = a * s3 + c2
    s4 = y + h * k3
    k4 = a * s4 + c4
    return (s2, s3, s4), (k1, k2, k3, k4)


#: overflow guard: integration aborts when a stage state exceeds this
OVERFLOW_LIMIT = 1e12


def integrate_dde(rhs: DelayRhsSpec, init: HistorySegment, horizon: float,
                  dt: float = None) -> SampledSignal:
    """Method of steps with fixed-step RK4 on a grid dividing r exactly
    (Bellen & Zennaro, Numerical Methods for Delay Differential Equations, 2003).

    Lags are snapped to the nearest grid node, so every nonzero lag is at
    least one step m >= 1. The steps run in chunks of the shortest nonzero
    lag (the whole horizon when every lag is zero): inside a chunk every
    lag term reads history that is already known, at the nodes and, by
    cubic Hermite interpolation, at the half steps. A cell inside the
    initial history takes ``np.gradient`` derivatives; the cell starting at
    t = 0 takes the right derivative there. The zero-lag weight a then
    makes each RK4 step affine, u[n+1] = R(a h) u[n] + c[n] with
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and a chunk's recurrence is
    solved by a doubling prefix scan (Hillis & Steele, CACM 1986). The
    result matches a step-by-step RK4 up to rounding. NonFiniteValueError
    is raised when a stage state exceeds 1e12 or a stage derivative is not
    finite, checked chunk by chunk.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    r = init.r
    dt_req = dt or r / 100
    N = max(100, int(round(r / dt_req)))
    h = r / N
    n_steps = int(np.ceil(horizon / h - 1e-9))
    d = init.dim

    weights = rhs.weights(r)
    lag_idx = [int(round(-th / h)) for th in rhs.lags]
    a = sum(w for w, m in zip(weights, lag_idx) if m == 0)
    lagged = [(w, m) for w, m in zip(weights, lag_idx) if m > 0]
    chunk = min((m for _, m in lagged), default=n_steps)
    z = a * h
    R = 1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24

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
            u[:N + 1] = init.samples.value_at(-r + h * np.arange(N + 1)).real
    # derivative data for cells inside the initial history; du[N] is then
    # replaced by the right derivative: the joint at t=0 has two one-sided ones
    ghist = np.gradient(u[:N + 1], h, axis=0)
    du[:N + 1] = ghist

    def forced(c, ts):
        if rhs.forcing is not None:
            c[:, 0] += rhs.forcing.value_at(ts)[:, 0].real
        return c

    def node_terms(lo, n):
        # sum of the lag terms at grid nodes lo .. lo+n-1
        c = np.zeros((n, d))
        for w, m in lagged:
            c += w * u[lo - m:lo - m + n]
        return c

    def mid_terms(lo, n):
        # the same half a step later, from cubic Hermite on the lagged cells
        c = np.zeros((n, d))
        for w, m in lagged:
            k = lo - m
            d1 = du[k + 1:k + 1 + n]
            if k < N < k + 1 + n:   # the cell ending at t=0 keeps the history's gradient
                d1 = d1.copy()
                d1[N - k - 1] = ghist[N]
            c += w * _hermite_mid(u[k:k + n], u[k + 1:k + 1 + n], du[k:k + n], d1, h)
        return c

    for s in range(0, n_steps, chunk):
        n = min(chunk, n_steps - s)
        lo = N + s
        t = np.arange(s, s + n) * h
        with np.errstate(over="ignore", invalid="ignore"):
            c1 = forced(node_terms(lo, n), t)
            du[lo] = a * u[lo] + c1[0]
            c2 = forced(mid_terms(lo, n), t + h / 2)
            c4 = forced(node_terms(lo + 1, n), t + h)
            # the affine part c[n] of each step is RK4 from a zero state
            _, (p1, p2, p3, p4) = _rk4_stages(a, h, 0.0, c1, c2, c4)
            out = h / 6 * (p1 + 2 * p2 + 2 * p3 + p4)
            step = 1
            while step < n:
                out[step:] += R ** step * out[:-step]
                step *= 2
            out += R ** np.arange(1, n + 1)[:, None] * u[lo]
            u[lo + 1:lo + 1 + n] = out
            # the stages themselves, for the derivative history and the guard
            y = u[lo:lo + n]
            states, ks = _rk4_stages(a, h, y, c1, c2, c4)
        du[lo:lo + n] = ks[0]
        ok = (np.all(np.abs(np.stack((y, out) + states)) <= OVERFLOW_LIMIT, axis=(0, 2))
              & np.all(np.isfinite(np.stack(ks)), axis=(0, 2)))
        if not np.all(ok):
            raise NonFiniteValueError(f"delay integration blew up at t={t[np.argmin(ok)]}")

    return SampledSignal(t0=0.0, dt=h, values=u[N:], label="dde")


def precompactness_proxy(u: SampledSignal):
    """Boundedness + equicontinuity certificate behind segment precompactness.

    Verdict is heuristic: the range must stay under 1e6 AND show no
    doubling between the first and second half of the horizon, and the
    difference-quotient bound must be finite. Always returns a verdict with
    the numeric evidence.
    """
    mags = np.sqrt(np.sum((u.values * u.values.conj()).real, axis=1))
    half = len(u) // 2
    m1 = float(np.max(mags[:half])) if half else 0.0
    m2 = float(np.max(mags[half:]))
    deriv = float(np.max(np.abs(np.diff(u.values, axis=0))) / u.dt) if len(u) > 1 else 0.0
    growing = m2 > 2.0 * max(m1, 1e-12) and m2 > 1e-6
    ok = (m2 <= 1e6) and (not growing) and np.isfinite(deriv)
    return ok, {"range_bound": max(m1, m2), "derivative_bound": deriv,
                "growth_ratio": m2 / max(m1, 1e-12)}
