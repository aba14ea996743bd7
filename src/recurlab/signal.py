"""Uniform-grid sampled signals and the sup/tail distances built on them.

A :class:`SampledSignal` carries a trajectory on a uniform time grid with
values in R^d or C^d. Signals are immutable; every derived signal is a new
value, so classifier runs are replayable. All "for all t" quantifiers in
the classifiers become "for all grid points in a declared Window".
"""

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DimMismatchError,
    EmptyDomainError,
    WindowOutOfDomainError,
)

#: relative tolerance for treating times as grid-aligned
GRID_RTOL = 1e-9


@dataclass(frozen=True)
class Window:
    """Closed time interval [a, b] used to restrict quantifiers."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a <= self.b):
            raise ValueError(f"window requires a <= b, got [{self.a}, {self.b}]")

    @property
    def length(self):
        return self.b - self.a


@dataclass(frozen=True)
class SampledSignal:
    """Trajectory on a uniform grid: values[i] is the sample at t0 + i*dt.

    values has shape (n, d); complex dtype is allowed. NaN/inf are rejected
    at construction, never at use sites.
    """

    t0: float
    dt: float
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        v = np.asarray(self.values)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValueError("values must be a non-empty (n, d) array")
        if not np.iscomplexobj(v):
            v = v.astype(np.float64, copy=False)
        else:
            v = v.astype(np.complex128, copy=False)
        if not np.all(np.isfinite(v.view(np.float64) if v.dtype == np.complex128 else v)):
            raise ValueError("signal values must be finite (no NaN/inf)")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    # -- derived geometry ---------------------------------------------------

    def __len__(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def t_end(self):
        return self.t0 + self.dt * (len(self) - 1)

    @property
    def domain(self):
        return Window(self.t0, self.t_end)

    @property
    def span(self):
        return self.dt * (len(self) - 1)

    def times(self):
        return self.t0 + self.dt * np.arange(len(self))

    def is_complex(self):
        return np.iscomplexobj(self.values)

    # -- indexing helpers ---------------------------------------------------

    def _index_of(self, t, round_up=False):
        pos = (t - self.t0) / self.dt
        near = round(pos)
        if abs(pos - near) <= GRID_RTOL * max(1.0, abs(pos)):
            return int(near)
        return int(np.ceil(pos)) if round_up else int(np.floor(pos))

    def window_slice(self, w: Window):
        """Grid index range [i0, i1] covering the grid points inside w."""
        tol = GRID_RTOL * max(1.0, abs(w.a), abs(w.b))
        if w.a < self.t0 - self.dt * 1e-6 - tol or w.b > self.t_end + self.dt * 1e-6 + tol:
            raise WindowOutOfDomainError(
                f"window [{w.a}, {w.b}] outside domain [{self.t0}, {self.t_end}]"
            )
        i0 = self._index_of(w.a, round_up=True)
        i1 = self._index_of(w.b, round_up=False)
        i0 = max(i0, 0)
        i1 = min(i1, len(self) - 1)
        if i1 < i0:
            raise WindowOutOfDomainError(f"window [{w.a}, {w.b}] contains no grid point")
        return i0, i1

    def restrict(self, w: Window, label=None):
        """New signal holding the grid points inside w."""
        i0, i1 = self.window_slice(w)
        return SampledSignal(
            t0=self.t0 + i0 * self.dt,
            dt=self.dt,
            values=self.values[i0:i1 + 1],
            label=self.label if label is None else label,
        )

    def value_at(self, t):
        """Linear interpolation between neighbouring grid points."""
        pos = (t - self.t0) / self.dt
        if pos < -GRID_RTOL or pos > len(self) - 1 + GRID_RTOL:
            raise WindowOutOfDomainError(f"t={t} outside domain [{self.t0}, {self.t_end}]")
        k = int(np.clip(np.floor(pos), 0, len(self) - 2)) if len(self) > 1 else 0
        fr = pos - k
        if len(self) == 1:
            return self.values[0]
        return (1.0 - fr) * self.values[k] + fr * self.values[k + 1]

    def rebase(self, new_t0):
        """Same samples, re-anchored at new_t0 (pure relabeling of time)."""
        return SampledSignal(t0=new_t0, dt=self.dt, values=self.values, label=self.label)

    def resample(self, new_dt, label=None):
        """Linear-interpolation resample onto a coarser/finer uniform grid."""
        n_new = int(np.floor(self.span / new_dt + GRID_RTOL)) + 1
        ts = self.t0 + new_dt * np.arange(n_new)
        pos = (ts - self.t0) / self.dt
        k = np.clip(np.floor(pos).astype(np.int64), 0, len(self) - 2) if len(self) > 1 else np.zeros(n_new, np.int64)
        fr = (pos - k)[:, None]
        vals = (1.0 - fr) * self.values[k] + fr * self.values[np.minimum(k + 1, len(self) - 1)]
        return SampledSignal(t0=self.t0, dt=new_dt, values=vals,
                             label=self.label if label is None else label)

    @staticmethod
    def from_function(fn, t0, t1, dt, label="", dim=None):
        """Sample a vectorized callable fn(t_array) on [t0, t1]."""
        n = int(np.floor((t1 - t0) / dt + GRID_RTOL)) + 1
        ts = t0 + dt * np.arange(n)
        vals = np.asarray(fn(ts))
        if vals.ndim == 1:
            vals = vals[:, None]
        if dim is not None and vals.shape[1] != dim:
            raise DimMismatchError(f"function produced dim {vals.shape[1]}, expected {dim}")
        return SampledSignal(t0=t0, dt=dt, values=vals, label=label)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def shift_offset(n, dt, h):
    """(k, fr, m) for shifting n samples of step dt by h = (k + fr) dt.

    fr is 0 when h is a grid multiple within GRID_RTOL (the one snap rule);
    m is the length of :func:`shift_values`: the grid points t with t + h
    in the span.
    """
    pos = h / dt
    k = int(np.floor(pos))
    fr = pos - k
    if abs(fr) <= GRID_RTOL or abs(fr - 1.0) <= GRID_RTOL:
        k, fr = round(pos), 0.0
    return k, fr, max(0, n - k - (fr > 0))


def shift_values(v, dt, h, last=None):
    """Samples of t -> v(t + h) on v's own grid phase, for h >= 0.

    ``v`` holds samples on a grid of step dt (flat or (n, d)). When h is a
    grid multiple within GRID_RTOL the result is the view v[k:]; otherwise
    neighbouring samples are blended linearly. Past the span the result is
    empty. With ``last`` only the final ``last`` samples of that result are
    formed (all of it when it is shorter), with the same bits.
    """
    k, fr, m = shift_offset(len(v), dt, h)
    i = 0 if last is None else max(0, m - last)
    if fr == 0:
        return v[k + i:]
    return (1.0 - fr) * v[k + i:k + m] + fr * v[k + 1 + i:k + 1 + m]


def translate(s: SampledSignal, h: float) -> SampledSignal:
    """The h-translation t -> s(t + h) on the surviving domain.

    h >= 0 (one-sided semigroup convention); h need not be a grid multiple,
    off-grid values come from linear interpolation between neighbours. The
    result keeps the original grid phase and start time.
    """
    if h < 0:
        raise ValueError("translation requires h >= 0")
    if h == 0:
        return s
    vals = shift_values(s.values, s.dt, h)
    if len(vals) == 0:
        raise EmptyDomainError(f"translation by h={h} exceeds span {s.span}")
    return SampledSignal(t0=s.t0, dt=s.dt, values=vals, label=s.label)


def _aligned_values(s1: SampledSignal, s2: SampledSignal, w: Window):
    """Value arrays of both signals on the grid points of s1 inside w.

    If s2 shares s1's grid phase the result is a pair of views; otherwise
    s2 is linearly interpolated onto s1's grid points.
    """
    if s1.dim != s2.dim:
        raise DimMismatchError(f"dim {s1.dim} vs {s2.dim}")
    i0, i1 = s1.window_slice(w)
    s2.window_slice(w)  # validates w against s2's domain too
    a = s1.values[i0:i1 + 1]
    same_step = abs(s1.dt - s2.dt) <= GRID_RTOL * s1.dt
    off = (s1.t0 - s2.t0) / s2.dt
    aligned = same_step and abs(off - round(off)) <= 1e-6
    if aligned:
        j0 = round((s1.t0 + i0 * s1.dt - s2.t0) / s2.dt)
        b = s2.values[j0:j0 + (i1 - i0 + 1)]
    else:
        ts = s1.t0 + s1.dt * np.arange(i0, i1 + 1)
        pos = (ts - s2.t0) / s2.dt
        k = np.clip(np.floor(pos).astype(np.int64), 0, len(s2) - 2) if len(s2) > 1 else np.zeros(len(ts), np.int64)
        frv = (pos - k)[:, None]
        b = (1.0 - frv) * s2.values[k] + frv * s2.values[np.minimum(k + 1, len(s2) - 1)]
    return a, b


def sup_distance(s1: SampledSignal, s2: SampledSignal, w: Window) -> float:
    """max over grid points of w of the Euclidean norm of s1 - s2."""
    a, b = _aligned_values(s1, s2, w)
    if a.shape[1] == 1:
        return _kernels.sup_diff(a[:, 0], b[:, 0])
    return _kernels.sup_diff_rows(a, b)


def leader_clusters(members, w: Window, tol: float):
    """First-fit leader clustering of signals, in the given order.

    A member joins the first cluster whose leader (its first member) lies
    within sup distance tol of it on w, else it leads a new cluster.
    Returns the clusters as lists of member indices.
    """
    clusters = []
    for i, m in enumerate(members):
        for cl in clusters:
            if sup_distance(m, members[cl[0]], w) < tol:
                cl.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def fiber_consensus(per_shift):
    """(m, constant): the cluster count shared by every shift, else the modal count."""
    counts = sorted(set(per_shift.values()))
    if len(counts) == 1:
        return counts[0], True
    return int(np.argmax(np.bincount(list(per_shift.values())))), False


def common_domain(s1: SampledSignal, s2: SampledSignal) -> Window:
    a = max(s1.t0, s2.t0)
    b = min(s1.t_end, s2.t_end)
    if b < a:
        raise WindowOutOfDomainError("signals share no common domain")
    return Window(a, b)


def tail_sup_distance(s1: SampledSignal, s2: SampledSignal, L: float) -> float:
    """sup distance over [L, end of the common domain]."""
    dom = common_domain(s1, s2)
    if L > dom.b:
        raise WindowOutOfDomainError(f"L={L} beyond common domain end {dom.b}")
    return sup_distance(s1, s2, Window(max(L, dom.a), dom.b))


def d_infinity_estimate(s1: SampledSignal, s2: SampledSignal, tail_fraction: float) -> float:
    """Finite-horizon limsup proxy: sup distance over the final tail_fraction.

    This is a monotone surrogate for the true limsup at infinity; it never
    exceeds the full-window sup distance.
    """
    if not (0 < tail_fraction <= 1):
        raise ValueError("tail_fraction must lie in (0, 1]")
    dom = common_domain(s1, s2)
    if dom.length <= 0:
        raise WindowOutOfDomainError("common domain is degenerate")
    a = dom.b - tail_fraction * dom.length
    return sup_distance(s1, s2, Window(a, dom.b))


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def _sidecar_path(path):
    import pathlib

    p = pathlib.Path(path)
    return p.with_suffix(".json")


def write_signal_csv(s: SampledSignal, path) -> None:
    """Write `t,v0[,v1,...]` CSV plus the sidecar JSON descriptor.

    Complex components are stored as re,im column pairs; the sidecar
    records {dim, complex, label} so the pairing is unambiguous on load.
    """
    ts = s.times()
    if s.is_complex():
        cols = np.empty((len(s), 2 * s.dim))
        cols[:, 0::2] = s.values.real
        cols[:, 1::2] = s.values.imag
        header = ",".join(f"v{j}_re,v{j}_im" for j in range(s.dim))
    else:
        cols = s.values
        header = ",".join(f"v{j}" for j in range(s.dim))
    data = np.column_stack([ts, cols])
    np.savetxt(path, data, delimiter=",", header="t," + header, comments="", fmt="%.17g")
    descriptor = {"dim": s.dim, "complex": bool(s.is_complex()), "label": s.label}
    with open(_sidecar_path(path), "w") as fh:
        json.dump(descriptor, fh, indent=1)
        fh.write("\n")


def read_signal_csv(path) -> SampledSignal:
    """Load a signal CSV, enforcing uniform spacing (jitter <= 1e-9 relative)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ts = data[:, 0]
    if len(ts) < 2:
        raise ValueError("signal CSV must contain at least two samples")
    diffs = np.diff(ts)
    if np.any(diffs <= 0):
        raise ValueError("signal CSV times must be strictly increasing")
    dt = float(np.median(diffs))
    if np.max(np.abs(diffs - dt)) > 1e-9 * max(1.0, abs(dt)):
        raise ValueError("signal CSV grid spacing jitter exceeds 1e-9")
    try:
        with open(_sidecar_path(path)) as fh:
            descriptor = json.load(fh)
    except FileNotFoundError:
        descriptor = {"dim": data.shape[1] - 1, "complex": False, "label": ""}
    if descriptor.get("complex", False):
        dim = descriptor["dim"]
        raw = data[:, 1:1 + 2 * dim]
        vals = raw[:, 0::2] + 1j * raw[:, 1::2]
    else:
        vals = data[:, 1:]
    return SampledSignal(t0=float(ts[0]), dt=dt, values=vals,
                         label=descriptor.get("label", ""))
