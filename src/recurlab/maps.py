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
from .signal import SampledSignal, Window, fiber_consensus, leader_clusters, translate

#: overflow guard: iteration aborts when any |u| exceeds this
OVERFLOW_LIMIT = 1e12


@dataclass(frozen=True)
class MapSpec:
    """Update rule: catalog id or expression tree, with integer-grid forcing."""

    kind: str
    dim: int = 1
    params: dict = field(default_factory=dict)
    expr: tuple = None
    forcing: SampledSignal = None

    def build(self):
        return _catalog.build_field(self.kind, _catalog.MAP_CATALOG, "map",
                                    self.params, self.expr, self.forcing)

    def shifted(self, h: int):
        if self.forcing is None:
            return self
        return MapSpec(self.kind, self.dim, self.params, self.expr,
                       translate(self.forcing, float(h)))


def iterate(m: MapSpec, u0, n_steps: int) -> SampledSignal:
    """Exact iteration for n_steps; the label carries the map id."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    g = m.build()
    u = np.atleast_1d(np.asarray(u0, dtype=float))
    out = np.empty((n_steps + 1, len(u)))
    out[0] = u
    for t in range(n_steps):
        u = np.atleast_1d(np.asarray(g(float(t), u), dtype=float))
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > OVERFLOW_LIMIT:
            raise NonFiniteValueError(f"iterate blew up at step {t + 1}")
        out[t + 1] = u
    return SampledSignal(t0=0.0, dt=1.0, values=out, label=f"map:{m.kind}")


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

    Clusters the trailing orbit segments started from x0_set under the
    shifted forcing; for each representative the least period p with
    translate-by-p distance below cluster_tol is recorded (0 = none found).
    """
    if burn_in >= n_steps:
        raise ValueError("burn-in must be smaller than n_steps")
    per_shift = {}
    periods = {}
    for h in shifts:
        mh = m.shifted(int(h))
        segs = []
        for x0 in x0_set:
            sol = iterate(mh, x0, n_steps)
            segs.append(sol.restrict(Window(float(burn_in), float(n_steps))))
        w = segs[0].domain
        leaders = [segs[cl[0]] for cl in leader_clusters(segs, w, cluster_tol)]
        per_shift[int(h)] = len(leaders)
        periods[int(h)] = [asymptotic_period(l, cluster_tol) for l in leaders]
    mm, constant = fiber_consensus(per_shift)
    return DiscreteFiberReport(per_shift, mm, constant, periods)
