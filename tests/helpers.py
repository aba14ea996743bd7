"""Constructors and formulas that the tests share and no config reaches."""

import numpy as np

from recurlab.algebra import PolyPath
from recurlab.delay import HistorySegment
from recurlab.recurrence import _best_alignment
from recurlab.signal import SampledSignal


def poly_path(fns, t0, t1, dt, label=""):
    """The monic polynomial with coefficients a_k = fns[k-1](t), sampled
    as complex signals labelled a1..an on [t0, t1]."""
    sigs = tuple(
        SampledSignal.from_function(lambda ts, f=f: np.asarray(f(ts), dtype=complex),
                                    t0, t1, dt, label=f"a{k + 1}")
        for k, f in enumerate(fns)
    )
    return PolyPath(sigs, label=label)


def history_from_function(r, fn, dt=None):
    """The delay history fn(theta) on [-r, 0], sampled at step dt (r/100 by default)."""
    return HistorySegment(r, SampledSignal.from_function(fn, -r, 0.0, dt or r / 100))


def contraction_modulus(t, r, kappa, alpha):
    """kappa-aware decay modulus omega_kappa(t, r) of Condition (H); omega(0, r) = r.

    omega_kappa(t, r) = (r^(2-alpha) + kappa (alpha-2) t)^(1/(2-alpha)),
    from d/dt |D|^2 <= -2 kappa |D|^alpha; flows.attraction_time inverts it.
    """
    t = np.asarray(t, dtype=float)
    if r == 0:
        return np.zeros_like(t)
    return (r ** (2.0 - alpha) + kappa * (alpha - 2.0) * t) ** (1.0 / (2.0 - alpha))


def tail_residual(s, members, eps, tail_len, slack):
    """min over members m and offsets k of sup_i |m[k + i] - tail[i]|, where
    tail is the final tail_len of s and k dt runs up to slack, all on the
    grid of s: the residual of s = p + r with p slid over the family. Exact
    below eps; otherwise a value >= eps attained at some offset."""
    n_tail = int(np.floor(tail_len / s.dt))
    tail = s.values[len(s) - n_tail:, 0]
    offsets = np.arange(0, int(np.floor(slack / s.dt)) + 1, dtype=np.int64)
    best = np.inf
    for m in members:
        offs = offsets[offsets <= len(m) - n_tail]
        best = min(best, float(_best_alignment(m.values[:, 0], tail, offs, eps)[0]))
    return best
