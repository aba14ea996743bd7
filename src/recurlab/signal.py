"""Uniform-grid sampled signals and the sup distance built on them.

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

    def restrict(self, w: Window):
        """New signal holding the grid points inside w."""
        i0, i1 = self.window_slice(w)
        return SampledSignal(t0=self.t0 + i0 * self.dt, dt=self.dt,
                             values=self.values[i0:i1 + 1], label=self.label)

    def resample(self, new_dt):
        """Linear-interpolation resample onto a coarser/finer uniform grid."""
        ts = self.t0 + new_dt * np.arange(SampledSignal.grid_len(0.0, self.span, new_dt))
        vals = blend(self.values, (ts - self.t0) / self.dt)
        return SampledSignal(t0=self.t0, dt=new_dt, values=vals, label=self.label)

    @staticmethod
    def grid_len(t0, t1, dt):
        """Number of grid points t0 + k dt in [t0, t1], the last within GRID_RTOL."""
        return int(np.floor((t1 - t0) / dt + GRID_RTOL)) + 1

    @staticmethod
    def from_function(fn, t0, t1, dt, label=""):
        """Sample a vectorized callable fn(t_array) on [t0, t1]."""
        ts = t0 + dt * np.arange(SampledSignal.grid_len(t0, t1, dt))
        return SampledSignal(t0=t0, dt=dt, values=np.asarray(fn(ts)), label=label)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def blend(v, pos):
    """Linear blend of v[k] and v[k + 1], k = floor(pos) held to the end
    cells, at the finite fractional indices ``pos`` (an array): the one
    gathered off-grid read of samples. A pos past either end extrapolates
    from its end cell; one sample is constant. v is flat or (n, d)."""
    top = len(v) - 2
    if top < 0:
        return np.broadcast_to(v[0], pos.shape + v.shape[1:])
    k = np.minimum(np.maximum(pos.astype(np.intp), 0), top)   # truncation: floor for pos >= 0
    fr = pos - k
    if v.ndim > 1:
        fr = fr[..., None]
    return (1.0 - fr) * v[k] + fr * v[k + 1]


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


def shift_values(v, dt, h, last=None, stride=1):
    """Samples of t -> v(t + h) on v's own grid phase, for h >= 0.

    ``v`` holds samples on a grid of step dt (flat or (n, d)). When h is a
    grid multiple within GRID_RTOL the result is a view of v; otherwise
    neighbouring slices are blended. Past the span it is empty. ``last``
    forms only its final ``last`` samples (all when it is shorter) and
    ``stride`` only its samples 0, stride, 2 stride, ..., with the same bits.
    """
    k, fr, m = shift_offset(len(v), dt, h)
    i = 0 if last is None else max(0, m - last)
    if fr == 0:
        return v[k + i:k + m:stride]
    return (1.0 - fr) * v[k + i:k + m:stride] + fr * v[k + 1 + i:k + 1 + m:stride]


def check_shift(s, h: float) -> None:
    """Raise as :func:`translate` does for h < 0 or, when s is a signal, h past its span."""
    if h < 0:
        raise ValueError("translation requires h >= 0")
    if s is not None and shift_offset(len(s), s.dt, h)[2] == 0:
        raise EmptyDomainError(f"translation by h={h} exceeds span {s.span}")


def translate(s: SampledSignal, h: float) -> SampledSignal:
    """The h-translation t -> s(t + h) on the surviving domain.

    h >= 0 (one-sided semigroup convention); h need not be a grid multiple,
    off-grid values come from linear interpolation between neighbours. The
    result keeps the original grid phase and start time.
    """
    check_shift(s, h)
    if h == 0:
        return s
    return SampledSignal(t0=s.t0, dt=s.dt, values=shift_values(s.values, s.dt, h),
                         label=s.label)


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
        b = blend(s2.values, (ts - s2.t0) / s2.dt)
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


def fiber_clusters(runs, burn_in: float, tol: float):
    """(leaders, m, constant) of (shift, solution) pairs grouped by shift.

    Each group's solutions are restricted to [burn_in, end] and
    leader-clustered within tol; ``leaders`` maps each shift, in order of
    first appearance, to its leader segments. m is the leader count shared
    by every shift (constant=True), else the modal count, the least on ties.
    """
    groups = {}
    for h, sol in runs:
        if burn_in >= sol.t_end:
            raise ValueError(f"burn-in {burn_in} swallows the whole horizon {sol.t_end}")
        groups.setdefault(h, []).append(sol.restrict(Window(burn_in, sol.t_end)))
    leaders = {h: [segs[cl[0]] for cl in leader_clusters(segs, segs[0].domain, tol)]
               for h, segs in groups.items()}
    counts = [len(ls) for ls in leaders.values()]
    return leaders, int(np.argmax(np.bincount(counts))), len(set(counts)) == 1


# ---------------------------------------------------------------------------
# file interchange: `.npy` artifacts and CSV
# ---------------------------------------------------------------------------

def _sidecar_path(path):
    import pathlib

    p = pathlib.Path(path)
    return p.with_suffix(".json")


def _is_npy(path):
    return str(path).endswith(".npy")


def write_signal(s: SampledSignal, path):
    """Write s in the format its suffix names, `.npy` else CSV; returns the
    paths written, the file and its sidecar.

    A `.npy` file holds only the C-contiguous (n, d) values array, float64 or
    complex128, written by `np.save` without pickle; its sidecar JSON
    (`foo.npy` -> `foo.json`) records {dim, complex, label, t0, dt}, the
    grid in json's exact float repr, so `t0 + dt * arange(n)` rebuilds the
    times bit for bit. Two writes of one signal give identical bytes.
    Any other suffix goes to :func:`write_signal_csv`.
    """
    if _is_npy(path):
        np.save(path, s.values, allow_pickle=False)
        _write_sidecar(s, path)
    else:
        write_signal_csv(s, path)
    return [path, _sidecar_path(path)]


def read_signal(path) -> SampledSignal:
    """Load a signal written by :func:`write_signal`: `.npy` with its
    sidecar, else a CSV through :func:`read_signal_csv`.

    A `.npy` file without its sidecar is a FileNotFoundError naming the
    sidecar; a sidecar that :func:`_read_sidecar` refuses, or an array
    whose shape or dtype disagrees with the sidecar's `dim` and `complex`,
    is a ValueError.
    """
    if not _is_npy(path):
        return read_signal_csv(path)
    descriptor = _read_sidecar(path)
    vals = np.load(path, allow_pickle=False)
    want = np.complex128 if descriptor["complex"] else np.float64
    if vals.dtype != want or vals.ndim != 2 or vals.shape[1] != descriptor["dim"]:
        raise ValueError(f"signal file {path} holds a {vals.dtype} array of shape "
                         f"{vals.shape}; its sidecar {_sidecar_path(path)} declares dim "
                         f"{descriptor['dim']}, complex {descriptor['complex']}")
    return SampledSignal(t0=descriptor["t0"], dt=descriptor["dt"], values=vals,
                         label=descriptor.get("label", ""))


def _read_sidecar(path):
    """The sidecar descriptor of signal file ``path``, a dict.

    A `.npy` sidecar must hold dim, complex, t0 and dt, and its absence is
    a FileNotFoundError naming it; a CSV may have none (the result is {}),
    and its sidecar needs dim only when complex is true. A sidecar that is
    not a JSON object, lacks a key its format needs, or holds a complex
    that is not a boolean, a t0 or dt that is not a finite number, or a
    label that is not a string, is a ValueError. A dim of any type is
    checked against the data by the reader.
    """
    side = _sidecar_path(path)
    try:
        with open(side) as fh:
            descriptor = json.load(fh)
    except FileNotFoundError:
        if _is_npy(path):
            raise FileNotFoundError(f"signal file {path} has no sidecar {side}") from None
        return {}
    if not isinstance(descriptor, dict):
        raise ValueError(f"sidecar {side} of signal file {path} is not a JSON object")
    if _is_npy(path):
        needs = {"dim", "complex", "t0", "dt"}
    else:
        needs = {"dim"} if descriptor.get("complex", False) else set()
    missing = sorted(needs - set(descriptor))
    if missing:
        raise ValueError(f"sidecar {side} of signal file {path} lacks {', '.join(missing)}")
    for key, ok, want in _SIDECAR_VALUES:
        if key in descriptor and not ok(descriptor[key]):
            raise ValueError(f"sidecar {side} of signal file {path} has {key} "
                             f"{descriptor[key]!r}, not {want}")
    return descriptor


def _finite_number(x):
    return type(x) in (int, float) and np.isfinite(x)


#: (key, test, what the test wants) for each sidecar value read as more than data
_SIDECAR_VALUES = (("complex", lambda x: type(x) is bool, "a boolean"),
                   ("t0", _finite_number, "a finite number"),
                   ("dt", _finite_number, "a finite number"),
                   ("label", lambda x: type(x) is str, "a string"))


def _write_sidecar(s, path):
    descriptor = {"dim": s.dim, "complex": bool(s.is_complex()), "label": s.label,
                  "t0": float(s.t0), "dt": float(s.dt)}
    with open(_sidecar_path(path), "w") as fh:
        json.dump(descriptor, fh, indent=1)
        fh.write("\n")


def write_signal_csv(s: SampledSignal, path) -> None:
    """Write `t,v0[,v1,...]` CSV plus the sidecar JSON descriptor.

    Every value is formatted `%.17g` (round-trips a double exactly),
    separated by `,`, and every line, the header's too, ends in `\n`.
    Complex components are stored as re,im column pairs. The sidecar is
    the one a `.npy` file gets, {dim, complex, label, t0, dt}: the pairing
    is unambiguous on load and the grid reads back bit for bit.
    """
    if s.is_complex():
        header = ",".join(f"v{j}_re,v{j}_im" for j in range(s.dim))
    else:
        header = ",".join(f"v{j}" for j in range(s.dim))
    # a complex (n, d) array viewed as doubles is its (n, 2d) re,im pairs
    data = np.column_stack([s.times(), s.values.view(np.float64)])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="t," + header, comments="")
    _write_sidecar(s, path)


def read_signal_csv(path) -> SampledSignal:
    """Load a signal CSV on the grid its sidecar records, else on t0 = t[0]
    and dt = (t[-1] - t[0]) / (n - 1); the `t` column must start at t0
    and step by dt (jitter <= 1e-9 relative). A sidecar's dim must match
    the value columns (re,im pairs when complex); a sidecar
    :func:`_read_sidecar` refuses is a ValueError."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ts = data[:, 0]
    if len(ts) < 2:
        raise ValueError("signal CSV must contain at least two samples")
    diffs = np.diff(ts)
    if np.any(diffs <= 0):
        raise ValueError("signal CSV times must be strictly increasing")
    descriptor = _read_sidecar(path)
    t0 = float(descriptor.get("t0", ts[0]))
    dt = float(descriptor.get("dt", (ts[-1] - ts[0]) / (len(ts) - 1)))
    tol = 1e-9 * max(1.0, abs(dt))
    if abs(ts[0] - t0) > tol or np.max(np.abs(diffs - dt)) > tol:
        raise ValueError(f"signal CSV times stray from the grid t0 {t0}, dt {dt}: "
                         "jitter exceeds 1e-9")
    is_complex = descriptor.get("complex", False)
    n_cols = data.shape[1] - 1
    if "dim" in descriptor and n_cols / (2 if is_complex else 1) != descriptor["dim"]:
        raise ValueError(f"signal CSV {path} has {n_cols} value columns; its sidecar "
                         f"declares dim {descriptor['dim']}, complex {is_complex}")
    if is_complex:
        # re,im pairs reinterpreted in place: `re + 1j * im` would drop the sign of a zero
        vals = np.ascontiguousarray(data[:, 1:]).view(np.complex128)
    else:
        vals = data[:, 1:]
    return SampledSignal(t0=t0, dt=dt, values=vals, label=descriptor.get("label", ""))
