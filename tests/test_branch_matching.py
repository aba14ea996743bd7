"""Nearest-root branch continuation against the assignment matchers it replaced.

`track_branches` continues each root as its nearest root one grid point on.
Before that, up to degree 6 it took the permutation of least summed squared
distance, and above degree 6 it called scipy's `linear_sum_assignment` once
per step. Both matchers and the step guard they ran under are kept here,
as they were, so that the nearest-root rule can be checked bit for bit on
random paths: smooth ones, near-colliding pairs, real roots that cross, and
coarse steps.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from recurlab.algebra import (
    COLLISION_ABS_D,
    PolyPath,
    _compose_branches,
    _pairwise_separation,
    discriminant_from_roots,
    roots_grid,
    track_branches,
)
from recurlab.errors import BranchCollisionError
from recurlab.signal import SampledSignal


def match_small_degree(raw, perms):
    """Branch matrix by per-step optimal assignment raw[k-1] -> raw[k], vectorized.

    The (N-1, n!) squared-distance cost table is computed in one pass and its
    argmin picks each step's permutation; ties keep the lexicographically first.
    """
    perms_arr = np.array(perms, dtype=np.intp)
    costs = np.empty((raw.shape[0] - 1, len(perms)))
    prev = raw[:-1]
    cur = raw[1:]
    for pi, pm in enumerate(perms_arr):
        costs[:, pi] = np.sum(np.abs(cur[:, pm] - prev) ** 2, axis=1)
    return _compose_branches(raw, perms_arr[np.argmin(costs, axis=1)])


def match_by_assignment(raw):
    """Branch matrix by `linear_sum_assignment` on the absolute distances, step by step."""
    N, n = raw.shape
    steps = [linear_sum_assignment(np.abs(raw[k][None, :] - raw[k - 1][:, None]))[1]
             for k in range(1, N)]
    return _compose_branches(raw, np.array(steps, dtype=np.intp).reshape(N - 1, n))


def reference_track_branches(p):
    """(branch matrix, discriminant, separation), or the collision interval."""
    n = p.degree
    raw = roots_grid(p)
    N = raw.shape[0]
    if n <= 6:
        tracked = match_small_degree(raw, list(itertools.permutations(range(n))))
    else:
        tracked = match_by_assignment(raw)
    disc = discriminant_from_roots(tracked)
    sep = _pairwise_separation(tracked)
    if n >= 2:
        motion = np.abs(np.diff(tracked, axis=0)).max(axis=1)
        scale = (1.0 + np.max(np.abs(p.coef_matrix()))) ** (n * (n - 1))
        bad = np.zeros(N, dtype=bool)
        bad[:N - 1] |= motion >= 0.5 * sep[:N - 1]
        bad |= np.abs(disc) < COLLISION_ABS_D * scale
        if bad.any():
            ts = p.times()
            first = int(np.argmax(bad))
            last = first
            while last + 1 < N and bad[min(last + 1, N - 1)]:
                last += 1
            return float(ts[first]), float(ts[min(last + 1, N - 1)])
    return tracked, disc, sep


def poly_from_roots(roots, dt):
    """The monic path whose roots at grid point k are roots[k]."""
    coef = np.zeros((roots.shape[0], roots.shape[1] + 1), dtype=complex)
    coef[:, 0] = 1.0
    for r in roots.T:
        coef[:, 1:] -= r[:, None] * coef[:, :-1]
    return PolyPath(tuple(SampledSignal(t0=0.0, dt=dt, values=c, label=f"a{k + 1}")
                          for k, c in enumerate(coef[:, 1:].T)))


def random_roots(rng, kind, n, N=160):
    """(N, n) root paths of one kind, and their grid step.

    The roots sit near radius rho with rho^n = 1/(n-1), where the
    discriminant floor leaves the most room, so high degrees can be tracked.
    """
    rho = (1.0 / max(n - 1, 1)) ** (1.0 / n)
    dt = 0.05 if kind != "coarse" else rng.uniform(0.3, 1.5)
    t = dt * np.arange(N)[:, None]
    if kind == "cross":
        # real roots on lines; the first two cross at tc
        x, v = rho * rng.uniform(-1, 1, n), rng.uniform(-0.3, 0.3, n)
        tc = rng.uniform(0.2, 0.8) * t[-1, 0]
        x[:2], v[1:2] = x[0], -v[0]
        return (x + v * (t - np.where(np.arange(n) < 2, tc, 0.0))).astype(complex), dt
    base = rho * np.exp(2j * np.pi * (np.arange(n) / n + rng.uniform()))
    wobble = rng.uniform(0, 0.15, n) * rho * np.exp(1j * (rng.uniform(0.2, 2.0, n) * t
                                                          + rng.uniform(0, 2 * np.pi, n)))
    if kind == "coarse":
        # the spin per step swells and fades: up to 0.8 of the root spacing
        spin = rng.uniform(0.1, 0.8) * (2 * np.pi / n) * (1 + np.cos(0.3 * t)) / 2
        return base * np.exp(1j * np.cumsum(spin, axis=0)) + wobble, dt
    roots = base + wobble
    if kind == "near" and n >= 2:
        # the second root passes the first at least d0 away, at tc
        d0 = 10 ** rng.uniform(-4, -0.5) * rho
        tc = rng.uniform(0.2, 0.8) * t[-1, 0]
        roots[:, 1] = roots[:, 0] + (d0 + 0.05 * (t[:, 0] - tc) ** 2) * np.exp(
            2j * np.pi * rng.uniform())
    return roots, dt


#: outcomes each kind must show over its seeds, so that no kind passes vacuously
KIND_OUTCOMES = {"smooth": {"tracked"}, "near": {"tracked", "refused"},
                 "cross": {"refused"}, "coarse": {"tracked", "refused"}}


@pytest.mark.parametrize("kind", list(KIND_OUTCOMES))
def test_nearest_roots_agree_with_the_assignment_matchers(kind):
    seen = set()
    for n in range(1, 9):
        for seed in range(12):
            rng = np.random.default_rng([list(KIND_OUTCOMES).index(kind), n, seed])
            p = poly_from_roots(*random_roots(rng, kind, n))
            ref = reference_track_branches(p)
            try:
                rb = track_branches(p)
            except BranchCollisionError as exc:
                seen.add("refused")
                assert exc.interval == ref, (n, seed)
                continue
            seen.add("tracked" if n > 1 else "degree one")
            tracked, disc, sep = ref
            assert np.array_equal(rb.branch_matrix(), tracked), (n, seed)
            assert np.array_equal(rb.discriminant.values[:, 0], disc), (n, seed)
            assert np.array_equal(rb.separation, sep), (n, seed)
    assert KIND_OUTCOMES[kind] <= seen
