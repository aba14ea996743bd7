"""The translation scans' shortcuts against the naive code they replaced.

Each reference below is the earlier, straightforward implementation, kept
here so that the shortcut can be checked bit for bit: the least tail start
from a reversed cumulative max, the alignment search that sorts every
bound, and scans and refinement on exact sups only.
"""

import contextlib

import numpy as np
from hypothesis import given, settings, strategies as st

from recurlab import _kernels
from recurlab.recurrence import (
    _PROBE_STRIDE,
    HullSample,
    TauSpec,
    TranslationEntry,
    _best_alignment,
    _candidates,
    _joint_sup,
    _least_start,
    _local_refine,
    _scan,
    _strided_shift,
    _tail_diff,
    equi_ap_test,
    remotely_tau_periodic_test,
    translation_set_global,
)
from recurlab.signal import GRID_RTOL, SampledSignal, shift_values


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# least tail start: two reads of d against the reversed cumulative max
# ---------------------------------------------------------------------------

def reference_least_start(d, eps):
    """(least index with tail sup < eps, that tail's sup) from the tail profile."""
    prof = np.maximum.accumulate(d[::-1])[::-1]
    idx = int(np.count_nonzero(prof >= eps))
    return idx, (float(prof[idx]) if idx < len(d) else None)


def _least_start_and_sup(d, eps):
    idx = _least_start(d, eps)
    return idx, (float(np.max(d[idx:])) if idx < len(d) else None)


@given(st.integers(0, 10_000), st.integers(1, 400),
       st.sampled_from(["mixed", "below", "above", "at_eps"]))
@settings(max_examples=200, deadline=None)
def test_least_start_matches_the_reversed_cummax(seed, n, kind):
    rng = np.random.default_rng(seed)
    eps_grid = np.sort(rng.uniform(0.01, 1.0, size=4))
    if kind == "below":
        d = rng.uniform(0.0, 0.999, size=n) * eps_grid[0]
    elif kind == "above":
        d = eps_grid[-1] + rng.uniform(0.0, 1.0, size=n)
    elif kind == "at_eps":
        d = rng.choice(eps_grid, size=n)
    else:
        # values exactly at each eps, between them, zeros and a few large ones
        pool = np.concatenate([eps_grid, 0.5 * eps_grid, [0.0, 2.0, np.nextafter(eps_grid[0], 0)]])
        d = rng.choice(pool, size=n)
    for eps in np.concatenate([eps_grid, [np.min(d), np.max(d), np.max(d) * 2]]):
        if eps <= 0:
            continue
        got, want = _least_start_and_sup(d, eps), reference_least_start(d, eps)
        assert got == want
        if kind == "below" and eps >= eps_grid[0]:
            assert got[0] == 0
        if kind == "above" and eps <= eps_grid[-1]:
            assert got[0] == n


def reference_least_tails(s, tau, eps_grid, min_tail):
    """The least L per eps of remotely_tau_periodic_test, read off the tail profile."""
    base = s.values[:, 0]
    tail_steps = max(1, int(np.ceil(min_tail / s.dt)))
    d = _tail_diff(base, s.dt, tau)
    if len(d) <= tail_steps or np.max(d[len(d) - 1 - tail_steps:]) >= max(eps_grid):
        return [None] * len(eps_grid)
    prof = np.maximum.accumulate(d[::-1])[::-1]
    i_max = len(prof) - 1 - tail_steps
    idx = [int(np.count_nonzero(prof >= eps)) for eps in eps_grid]
    return [s.t0 + i * s.dt if i <= i_max else None for i in idx]


@given(st.integers(0, 10_000), st.integers(1, 300), st.booleans(),
       st.lists(st.floats(min_value=0.005, max_value=1.5), min_size=1, max_size=4, unique=True))
@settings(max_examples=60, deadline=None)
def test_least_tails_match_the_tail_profile(seed, k, on_grid, eps_grid):
    rng = np.random.default_rng(seed)
    c, a = rng.uniform([0.0, 0.0], [1.0, 0.6])
    s = SampledSignal.from_function(
        lambda t: np.sin(t + c * np.log1p(t)) + a * np.exp(-t / 8) * np.cos(2.3 * t),
        0.0, 60.0, 0.05)
    tau = (k + (0.0 if on_grid else rng.uniform(0.05, 0.95))) * s.dt
    eps_grid = sorted(eps_grid)
    ok, table = remotely_tau_periodic_test(s, tau, eps_grid)
    min_tail = max(tau, 10 * s.dt, 0.02 * s.span)
    assert list(table.values()) == reference_least_tails(s, tau, eps_grid, min_tail)
    assert ok == all(L is not None for L in table.values())


# ---------------------------------------------------------------------------
# the strided probe of refinement
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000), st.integers(0, 260), st.sampled_from(
    ["grid", "near_grid", "off_grid"]), st.sampled_from([1, 2, 7, _PROBE_STRIDE]))
@settings(max_examples=150, deadline=None)
def test_strided_probe_samples_equal_the_full_shift(seed, k, where, stride):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 260))
    v = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    dt = 0.05
    frac = {"grid": 0.0, "near_grid": 0.5 * GRID_RTOL, "off_grid": rng.uniform(0.01, 0.99)}[where]
    tau = (k + frac) * dt
    full = shift_values(v, dt, tau)
    got = _strided_shift(v, dt, tau, stride)
    assert np.array_equal(_bits(got), _bits(full[::stride]))


# ---------------------------------------------------------------------------
# scans that stop at their bar against scans on exact sups
# ---------------------------------------------------------------------------

def reference_joint_sup(flats, dt, cap):
    """The joint sup as every candidate got it before: exact until an array
    reaches ``cap``, and blind to refinement's bar."""
    def joint_sup(tau, bar=np.inf):
        worst = 0.0
        for v in flats:
            sh = shift_values(v, dt, tau)
            if len(sh) < 2:
                return np.inf
            val = float(np.max(np.abs(sh - v[:len(sh)])))
            if val > worst:
                worst = val
                if worst >= cap:
                    return worst
        return worst
    return joint_sup


def reference_joint_set(flats, dt, t0, span, eps, cands, value=None):
    def entry(tau, v, refined):
        return TranslationEntry(float(tau), v < eps, t0, float(v), refined)

    taus = _candidates(cands, span, ValueError)
    return _scan(taus, cands, eps, value or reference_joint_sup(flats, dt, 2.2 * eps), entry)


def _entries(ts):
    return [(_bits(e.tau), e.accepted, _bits(e.L), _bits(e.tail_sup), e.refined)
            for e in ts.entries]


def assert_same_entries(got, want, flats, dt, eps):
    """Every entry of ``got`` equals that of ``want`` (on exact sups) bit for
    bit, except a tail_sup where the worst direct sup reaches 2.2 eps: there
    it lies in [2.2 eps, that sup] and is |d| at some grid point."""
    assert len(got.entries) == len(want.entries)
    for g, w in zip(got.entries, want.entries):
        assert (_bits(g.tau), g.accepted, _bits(g.L), g.refined) == \
            (_bits(w.tau), w.accepted, _bits(w.L), w.refined)
        if w.tail_sup < 2.2 * eps:
            assert _bits(g.tail_sup) == _bits(w.tail_sup)
            continue
        shifted = [shift_values(v, dt, g.tau) for v in flats]
        ds = [np.abs(sh - v[:len(sh)]) for sh, v in zip(shifted, flats)]
        assert 2.2 * eps <= g.tail_sup <= max(float(np.max(d)) for d in ds)
        assert any(np.any(d == g.tail_sup) for d in ds)


def _signal(seed, t1=200.0, dt=0.05):
    rng = np.random.default_rng(seed)
    c, a, w, t0 = rng.uniform([0.0, 0.0, 1.2, 0.0], [1.0, 0.5, 2.5, 5.0])
    return SampledSignal.from_function(
        lambda t: np.sin(t + c * np.log1p(t)) + a * np.sin(w * t + c * np.log1p(w * t)),
        t0, t0 + t1, dt)


@given(st.integers(0, 10_000), st.floats(min_value=0.02, max_value=0.4),
       st.sampled_from([np.pi / 2, np.pi, 2 * np.pi]))
@settings(max_examples=40, deadline=None)
def test_global_and_joint_sets_equal_refinement_on_exact_sups(seed, eps, step):
    s = _signal(seed)
    cands = TauSpec(lo=step * 0.97, hi=50.0, step=step, refine=True)
    flats = [s.values[:, 0]]
    want = reference_joint_set(flats, s.dt, s.t0, s.span, eps, cands)
    assert_same_entries(translation_set_global(s, eps, cands), want, flats, s.dt, eps)

    other = _signal(seed + 1)
    members = [s, SampledSignal(s.t0, s.dt, other.values[:len(s)])]
    hull = HullSample(members, np.zeros(2), s.domain)
    flats = [m.values[:, 0] for m in members]
    want = reference_joint_set(flats, s.dt, hull.window.a, hull.window.length, eps, cands)
    assert_same_entries(equi_ap_test(hull, eps, cands)[1], want, flats, s.dt, eps)


@given(st.integers(0, 10_000), st.floats(min_value=0.5, max_value=30.0),
       st.floats(min_value=1.0, max_value=1.99), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_local_refine_on_the_capped_objective_equals_the_exact_one(seed, tau0, ratio, n_members):
    s = _signal(seed, t1=120.0)
    flats = [s.values[:, 0], _signal(seed + 1, t1=120.0).values[:len(s), 0]][:n_members]
    # eps makes tau0 a near miss, as the scan refines it: eps <= v(tau0) < 2 eps
    eps = reference_joint_sup(flats, s.dt, np.inf)(tau0) / ratio
    cap = 2.2 * eps
    exact = reference_joint_sup(flats, s.dt, cap)
    for step in (0.3, 1.0, np.pi / 2):
        got = _local_refine(lambda tau, bar: _joint_sup(flats, s.dt, tau, min(cap, bar)),
                            tau0, step, eps)
        want = _local_refine(exact, tau0, step, eps)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])


@contextlib.contextmanager
def counted_exact_sups(calls):
    """Count the calls of the exact-sup kernel."""
    orig = _kernels.sup_diff_capped
    _kernels.sup_diff_capped = lambda a, b, cap: calls.append(1) or orig(a, b, cap)
    try:
        yield
    finally:
        _kernels.sup_diff_capped = orig


def test_refinement_probe_spares_exact_sups_and_keeps_every_entry():
    s = SampledSignal.from_function(np.sin, 0.0, 400.0, 0.05)
    cands = TauSpec(lo=1.0, hi=100.0, step=1.0)
    n_exact = []
    with counted_exact_sups(n_exact):
        ts = translation_set_global(s, 0.1, cands)
    flats = [s.values[:, 0]]
    ref_sup = reference_joint_sup(flats, s.dt, 0.22)
    n_ref = []

    def counted(tau, bar):
        n_ref.append(1)
        return ref_sup(tau)

    want = reference_joint_set(flats, s.dt, s.t0, s.span, 0.1, cands, counted)
    assert_same_entries(ts, want, flats, s.dt, 0.1)
    assert any(e.refined for e in ts.entries)
    assert len(n_exact) < len(n_ref)


def test_global_scan_takes_fewer_exact_sups_than_it_has_candidates():
    # a drifting sine: few candidates come near a translation, and the
    # strided probe rules out most of the rest before any exact sup
    s = SampledSignal.from_function(lambda t: np.sin(t + np.log1p(t)), 100.0, 500.0, 0.05)
    cands = TauSpec(lo=1.0, hi=100.0, step=1.0)
    n_exact = []
    with counted_exact_sups(n_exact):
        ts = translation_set_global(s, 0.1, cands)
    assert len(n_exact) < len(cands.candidates())
    assert any(e.accepted for e in ts.entries)


# ---------------------------------------------------------------------------
# the alignment search that sorts live offsets only
# ---------------------------------------------------------------------------

def reference_best_alignment(src, tgt, offsets, cap):
    """_best_alignment as it sorted every bound."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if len(offsets) == 0:
        return np.inf, -1
    nt = len(tgt)
    bound = _kernels.sliding_rms(src, tgt, int(offsets.max()) + 1)[offsets]
    live = np.flatnonzero(bound < cap)
    if len(live):
        probe = np.arange(0, nt, max(1, nt // 256), dtype=np.int64)
        on_probe = _kernels.min_sliding_probe(src, tgt[probe], offsets[live], probe)
        bound[live] = np.maximum(bound[live], on_probe)
    order = np.argsort(bound, kind="stable")
    bound = bound[order]
    best, best_k = np.inf, -1
    i, size = 0, 16
    while i < len(order):
        bar = min(best, cap)
        if i and bound[i] >= bar:
            break
        n = max(1, int(np.searchsorted(bound[i:i + size], bar)))
        v, k = _kernels.min_sliding_sup(src, tgt, np.sort(offsets[order[i:i + n]]))
        if v < best or (v == best and k < best_k):
            best, best_k = v, k
        i += n
        size *= 2
    return best, best_k


@contextlib.contextmanager
def recorded_visits(visits):
    """Record the offset chunks that the exact-sup kernel is asked for."""
    orig = _kernels.min_sliding_sup

    def record(src, tgt, offsets):
        visits.append(np.asarray(offsets).tolist())
        return orig(src, tgt, offsets)

    _kernels.min_sliding_sup = record
    try:
        yield
    finally:
        _kernels.min_sliding_sup = orig


def _both_alignments(src, tgt, offsets, cap):
    visits = {"new": [], "ref": []}
    with recorded_visits(visits["new"]):
        got = _best_alignment(src, tgt, offsets, cap)
    with recorded_visits(visits["ref"]):
        want = reference_best_alignment(src, tgt, offsets, cap)
    assert _bits(got[0]) == _bits(want[0]) and got[1] == want[1]
    assert visits["new"] == visits["ref"]  # same offsets, same order, same chunks
    return got, visits["new"]


@given(st.sampled_from(["smooth", "periodic", "zeros", "needle"]), st.integers(0, 10_000),
       st.integers(8, 900), st.floats(min_value=0.05, max_value=0.9),
       st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0, np.inf]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_live_only_alignment_equals_the_full_sort(kind, seed, n, frac, cap_rel, subset):
    rng = np.random.default_rng(seed)
    nt = max(1, int(frac * n))
    t = 0.05 * np.arange(n)
    if kind == "smooth":
        src = np.convolve(rng.normal(size=n), np.ones(9) / 9, mode="same")
    elif kind == "periodic":
        # exactly periodic, 20 samples: offsets k and k + 20 tie in bound and sup
        src = np.resize(np.sin(2 * np.pi * np.arange(20) / 20), n)
    elif kind == "zeros":
        src = np.zeros(n)  # with the exact target below, every bound and sup ties at 0
    else:
        src = np.sin(1.3 * t)
    k0 = int(rng.integers(0, n - nt + 1))
    tgt = src[k0:k0 + nt] + (0.0 if kind in ("periodic", "zeros") else 0.01 * rng.normal(size=nt))
    if kind == "needle":
        tgt[rng.integers(0, nt)] += 2.0
    offsets = np.arange(0, n - nt + 1, dtype=np.int64)
    if subset:
        offsets = offsets[rng.random(len(offsets)) < 0.6] if len(offsets) > 1 else offsets
    cap = cap_rel * max(float(np.ptp(src)), 1e-3)
    (value, k), visits = _both_alignments(src, tgt, offsets, cap)
    if len(offsets):
        assert value == float(np.max(np.abs(src[k:k + nt] - tgt)))


def test_no_live_offset_visits_the_first_least_bound_only():
    src = np.sin(0.3 * np.arange(400))
    tgt = src[50:150] + 5.0  # every sup is about 5
    offsets = np.arange(0, 301, dtype=np.int64)
    (value, k), visits = _both_alignments(src, tgt, offsets, 1.0)
    bound = _kernels.sliding_rms(src, tgt, 301)
    assert visits == [[int(np.argmin(bound))]] and k == visits[0][0]
    assert value >= 1.0 and value == float(np.max(np.abs(src[k:k + 100] - tgt)))


def test_probe_that_kills_every_live_offset_falls_back_to_the_argmin():
    # a spike in one target column: the RMS bound stays low everywhere, but the
    # probe through that column lifts every live bound past the cap
    src = np.zeros(600)
    tgt = np.zeros(256)
    tgt[128] = 3.0
    offsets = np.arange(0, 345, dtype=np.int64)
    (value, k), visits = _both_alignments(src, tgt, offsets, 1.0)
    assert len(visits) == 1 and len(visits[0]) == 1 and value == 3.0


def test_capped_and_exact_alignments_agree_on_a_drifting_signal():
    v = _signal(3, t1=300.0).values[:, 0]
    for cap in (0.0, 0.01, 0.1, 1.0, np.inf):
        _both_alignments(v[500:3500], v[-1200:], np.arange(0, 1801, dtype=np.int64), cap)
