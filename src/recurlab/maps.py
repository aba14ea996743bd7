"""Discrete-time nonautonomous systems u(t+1) = f(t, u(t)) on dt=1 grids.

Iteration is exact (no integration error) and bit-identical on re-runs.
The recurrence classifiers accept the resulting signals unchanged; only
the candidate translations are restricted to integers.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from . import catalog as _catalog
from .errors import NonFiniteValueError
from .signal import SampledSignal, check_shift, fiber_clusters

#: overflow guard: iteration aborts when any |u| exceeds this
OVERFLOW_LIMIT = 1e12


@dataclass(frozen=True)
class MapSpec:
    """Update rule: catalog id or expression tree, with integer-grid forcing."""

    kind: str
    params: dict = field(default_factory=dict)
    expr: tuple = None
    forcing: SampledSignal = None

    def build(self):
        return _catalog.build_field(self.kind, _catalog.MAP_CATALOG, "map",
                                    self.params, self.expr, self.forcing)


def iterate(m: MapSpec, u0, n_steps: int) -> SampledSignal:
    """Exact iteration for n_steps: the one-member case of :func:`_iterate_family`."""
    return _iterate_family(m, [u0], [0.0], n_steps)[0]


def _iterate_family(m: MapSpec, u0s, offsets, n_steps: int):
    """Orbits of u(t+1) = g(t + offsets[k], u(t)), u(0) = u0s[k], one per member.

    The K states are one (K, d) stack, so each step is one call of the map
    (with a scalar time when all offsets agree). The map reads its forcing
    at t + offsets[k] for t = 0, ..., n_steps - 1, so a forcing that does
    not cover them raises WindowOutOfDomainError before the first step.
    Iteration aborts when any member leaves the finite range below
    OVERFLOW_LIMIT. The orbits' label carries the map id.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    g = m.build()
    u = np.asarray(u0s, dtype=float).reshape(len(u0s), -1)
    offsets = np.asarray(offsets, dtype=float)
    _catalog.check_forcing_reads(m.forcing, offsets.min(), n_steps - 1 + offsets.max())
    if np.all(offsets == offsets[0]):   # one shared time: the map gets a scalar t
        offsets = float(offsets[0])
    out = np.empty((n_steps + 1,) + u.shape)
    out[0] = u
    for t in range(n_steps):
        u = np.asarray(g(float(t) + offsets, u), dtype=float)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > OVERFLOW_LIMIT:
            raise NonFiniteValueError(f"iterate blew up at step {t + 1}")
        out[t + 1] = u
    return [SampledSignal(t0=0.0, dt=1.0, values=out[:, k], label=f"map:{m.kind}")
            for k in range(len(u))]


def asymptotic_period(seg: SampledSignal, tol: float) -> int:
    """Least integer p <= n/2 with sup |u(t+p) - u(t)| < tol on the segment, or 0."""
    v = seg.values
    for p in range(1, len(seg) // 2 + 1):  # p <= n/2 < n keeps the overlap non-empty
        if _kernels.sup_diff_rows(v[p:], v[:-p]) < tol:
            return p
    return 0


@dataclass
class DiscreteFiberReport:
    per_shift: dict
    m: int
    constant: bool
    periods: dict

    def to_dict(self):
        return {
            "per_shift": {str(k): v for k, v in self.per_shift.items()},
            "m": self.m,
            "constant": self.constant,
            "periods": {str(k): v for k, v in self.periods.items()},
        }


def discrete_fiber_count(m: MapSpec, shifts, x0_set, n_steps: int, burn_in: int,
                         cluster_tol: float) -> DiscreteFiberReport:
    """Fiber counts per integer base shift plus asymptotic periods.

    The orbit for shift h iterates the hull element g(t + h, u); all
    (shift, x0) orbits are one stacked iteration, clustered per shift in
    the given order. For each representative the least period p with
    translate-by-p distance below cluster_tol is recorded (0 = none found).
    A negative shift raises ValueError, with a forcing or without one.
    """
    if burn_in >= n_steps:
        raise ValueError("burn-in must be smaller than n_steps")
    shifts = [int(h) for h in shifts]
    for h in shifts:
        check_shift(m.forcing, float(h))
    hs = [h for h in shifts for _ in x0_set]
    orbits = _iterate_family(m, [x0 for _ in shifts for x0 in x0_set], hs, n_steps)
    leaders, mm, constant = fiber_clusters(zip(hs, orbits), float(burn_in), cluster_tol)
    periods = {h: [asymptotic_period(l, cluster_tol) for l in ls] for h, ls in leaders.items()}
    return DiscreteFiberReport({h: len(ls) for h, ls in leaders.items()}, mm, constant, periods)
