"""Property-based checks of the module invariants."""

import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from recurlab import _kernels
from recurlab.algebra import _compose_branches, _nearest_steps, _prefix_compose, \
    discriminant_signal, root_bound_check, roots_grid, track_branches
from recurlab.catalog import check_forcing_reads, scalar_interp
from recurlab.errors import EmptyDomainError, WindowOutOfDomainError
from recurlab.flows import attraction_time
from recurlab.maps import MapSpec, iterate
from recurlab.recurrence import _best_alignment
from recurlab.signal import (
    GRID_RTOL,
    SampledSignal,
    Window,
    _aligned_values,
    read_signal,
    read_signal_csv,
    shift_offset,
    shift_values,
    sup_distance,
    translate,
    write_signal,
    write_signal_csv,
)

from helpers import contraction_modulus, poly_path

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def random_signal(seed, n=600, dt=0.05, smooth=True):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n)
    if smooth:
        k = np.exp(-0.5 * (np.arange(-20, 21) / 5.0) ** 2)
        vals = np.convolve(vals, k / k.sum(), mode="same")
    return SampledSignal(t0=0.0, dt=dt, values=vals)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sup_distance_symmetry_and_triangle(seed_a, seed_b):
    a = random_signal(seed_a)
    b = random_signal(seed_b)
    c = random_signal(seed_a + seed_b + 1)
    w = Window(0, a.t_end)
    dab = sup_distance(a, b, w)
    assert dab == sup_distance(b, a, w)
    assert dab <= sup_distance(a, c, w) + sup_distance(c, b, w) + 1e-12
    assert sup_distance(a, a, w) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_tail_sup_monotone_in_L(seed):
    # sup |s| over the tail [L, end] cannot grow as L moves right
    s = random_signal(seed)
    z = SampledSignal(t0=0.0, dt=s.dt, values=np.zeros(len(s)))
    Ls = np.linspace(0, s.t_end * 0.9, 9)
    vals = [sup_distance(s, z, Window(L, s.t_end)) for L in Ls]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


@given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_translate_composition(a, b):
    s = SampledSignal.from_function(lambda t: np.sin(1.7 * t) + 0.3 * np.cos(0.4 * t),
                                    0.0, 40.0, 0.01)
    lhs = translate(translate(s, a), b)
    rhs = translate(s, a + b)
    end = min(lhs.t_end, rhs.t_end)
    if end <= 0.5:
        return
    # interpolation tolerance dt^2 |s''| / 8 with |s''| <= 1.7^2 + 0.3*0.4^2
    tol = 2 * (0.01 ** 2) * 2.94 / 8 + 1e-12
    assert sup_distance(lhs, rhs, Window(0, end)) <= tol


@given(st.integers(0, 10_000), st.integers(0, 640), st.floats(min_value=0.0, max_value=1.0),
       st.booleans(), st.integers(0, 700))
@settings(max_examples=80, deadline=None)
@example(seed=0, k=0, frac=1e-10, on_grid=False, last=0)  # tau inside the snap tolerance
def test_scan_shift_is_translate_bit_for_bit(seed, k, frac, on_grid, last):
    s = random_signal(seed)
    tau = (k + (0.0 if on_grid else frac)) * s.dt
    sh = shift_values(s.values[:, 0], s.dt, tau)
    # the tail read is the matching slice of the full shift, bit for bit
    tail = shift_values(s.values[:, 0], s.dt, tau, last=last)
    assert tail.tobytes() == sh[max(0, len(sh) - last):].tobytes()
    assert len(sh) == shift_offset(len(s), s.dt, tau)[2]
    try:
        tr = translate(s, tau)
    except EmptyDomainError:
        assert len(sh) == 0 and len(tail) == 0  # past the span: the scan sees an empty shift
        return
    assert sh.shape == (len(tr),)
    assert sh.tobytes() == tr.values[:, 0].tobytes()
    # the forcing reader interpolates exactly; the shift snaps tau within
    # GRID_RTOL of the grid
    pos = tau / s.dt
    snapped = round(pos) * s.dt if abs(pos - round(pos)) <= GRID_RTOL else tau
    ts = s.t0 + s.dt * np.arange(0, len(sh), 37)
    read = scalar_interp(s)
    expected = [read(t + snapped) for t in ts.tolist()]
    assert np.allclose(sh[::37], expected, rtol=0, atol=1e-12)


def reference_blend(v, pos):
    """Reference: the clip/floor/blend that `resample` and `_aligned_values` wrote out."""
    k = np.clip(np.floor(pos).astype(np.int64), 0, len(v) - 2) if len(v) > 1 \
        else np.zeros(len(pos), np.int64)
    fr = (pos - k)[:, None]
    return (1.0 - fr) * v[k] + fr * v[np.minimum(k + 1, len(v) - 1)]


@given(st.integers(0, 10_000), st.integers(2, 80), st.booleans(), st.integers(1, 2),
       st.sampled_from([0.3, 0.7, 1.3, 2.9]))
@settings(max_examples=80, deadline=None)
def test_one_blend_keeps_the_interpolation_bits(seed, n, cplx, d, ratio):
    # resample, the off-grid branch of _aligned_values and the forcing
    # reader, column by column and at array and scalar times, share one
    # blend; for two or more samples it must repeat the reference bit for bit
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n, d)) + (1j * rng.normal(size=(n, d)) if cplx else 0.0)
    s = SampledSignal(t0=rng.uniform(-5, 5), dt=rng.uniform(0.01, 2.0), values=vals)
    r = s.resample(ratio * s.dt)  # coarsening can reach a hair past the end
    ts = s.t0 + r.dt * np.arange(len(r))
    pos = (ts - s.t0) / s.dt
    assert r.values.tobytes() == reference_blend(s.values, pos).tobytes()
    inside = pos <= n - 1
    want = reference_blend(s.values, pos[inside]).real
    for j in range(d):
        read = scalar_interp(s, j)
        assert read(ts[inside]).tobytes() == np.ascontiguousarray(want[:, j]).tobytes()
        assert np.array([read(t) for t in ts[inside].tolist()]).tobytes() == \
            np.ascontiguousarray(want[:, j]).tobytes()
    t1 = s.t0 + rng.uniform(0.1, 0.9) * s.dt
    m = int(np.ceil((s.t_end - t1) / (ratio * s.dt))) + 1
    s1 = SampledSignal(t0=t1, dt=ratio * s.dt, values=np.zeros((m, d)))
    w = Window(t1, s.t_end)
    a, b = _aligned_values(s1, s, w)
    i0, i1 = s1.window_slice(w)
    ts1 = s1.t0 + s1.dt * np.arange(i0, i1 + 1)
    assert b.tobytes() == reference_blend(s.values, (ts1 - s.t0) / s.dt).tobytes()


def test_one_sample_signal_aligns_as_its_sample():
    # a one-sample s2 meets s1's grid point a hair before its time: the
    # blend returns the sample itself, and so does the forcing reader within
    # the GRID_RTOL slack that check_forcing_reads allows past the last sample
    v = 0.1 + 0.7j
    s2 = SampledSignal(t0=1.0, dt=0.3, values=[[v]])
    s1 = SampledSignal(t0=1.0 - 1e-7, dt=0.1, values=[[0j], [0j]])
    a, b = _aligned_values(s1, s2, Window(1.0 - 1e-7, 1.0))
    assert a.shape == b.shape == (1, 1) and b[0, 0] == v
    check_forcing_reads(s2, 1.0, 1.0 + 1e-10)
    assert scalar_interp(s2)(np.array([1.0, 1.0 + 1e-10])).tolist() == [v.real, v.real]
    assert scalar_interp(s2)(1.0) == v.real
    with pytest.raises(WindowOutOfDomainError):
        check_forcing_reads(s2, 1.0, 1.0 + 1e-6)


def alignment_case(kind, seed, n, nt, exact):
    """(src, tgt) where tgt is a window of src, noisy unless exact."""
    rng = np.random.default_rng(seed)
    t = 0.05 * np.arange(n)
    w = rng.uniform(0.2, 3.0)
    if kind == "zeros":
        src = np.zeros(n)
    elif kind == "constant":
        src = np.full(n, rng.uniform(-5, 5))
    elif kind == "real":
        src = random_signal(seed, n=n).values[:, 0]
    elif kind == "complex":
        src = np.exp(1j * w * t) + 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    elif kind in ("mean_1e6", "needle"):
        src = (1e6 if kind == "mean_1e6" else 0.0) + np.sin(w * t)
    else:  # exp_tail: normal, subnormal and zero values
        src = np.exp(-(700.0 + 60.0 * np.arange(n) / n))
    k0 = int(rng.integers(0, n - nt + 1))
    tgt = src[k0:k0 + nt].copy()
    amp = alignment_scale(src)
    if not exact:
        tgt = tgt + 0.02 * amp * rng.normal(size=nt)
    if kind == "needle":
        # a spike at one column: offsets near k0 get a low bound but a high sup
        tgt[rng.integers(0, nt)] += 3.0
    return src, tgt


def alignment_scale(src):
    return max(float(np.max(np.abs(src - np.mean(src)))), 1e-300)


@given(st.sampled_from(["real", "complex", "zeros", "constant", "mean_1e6", "exp_tail", "needle"]),
       st.integers(0, 10_000), st.integers(2, 1200), st.floats(min_value=0.02, max_value=0.98),
       st.booleans(), st.sampled_from([0.0, 1e-3, 0.05, 0.5, np.inf]))
@settings(max_examples=150, deadline=None)
def test_capped_alignment_matches_exhaustive_scan(kind, seed, n, frac, exact, cap_rel):
    nt = max(1, int(frac * n))
    src, tgt = alignment_case(kind, seed, n, nt, exact)
    offsets = np.arange(0, n - nt + 1, dtype=np.int64)
    sups = np.array([np.max(np.abs(src[k:k + nt] - tgt)) for k in offsets])
    # the FFT bound is admissible at every offset
    assert np.all(_kernels.sliding_rms(src, tgt, len(offsets)) <= sups)
    cap = cap_rel * alignment_scale(src)
    value, k = _best_alignment(src, tgt, offsets, cap)
    assert sups[k] == value
    if sups.min() < cap:
        assert value == sups.min()
    else:
        assert value >= cap and value >= sups.min()


@given(st.floats(min_value=0.01, max_value=3.0),
       st.floats(min_value=2.1, max_value=6.0),
       st.floats(min_value=0.05, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_contraction_modulus_properties(kappa, alpha, r):
    # omega(0, r) = r and omega decreases in t
    assert contraction_modulus(0.0, r, kappa, alpha) == pytest.approx(r, rel=1e-9)
    ts = np.linspace(0, 20, 9)
    vals = contraction_modulus(ts, r, kappa, alpha)
    assert np.all(np.diff(vals) <= 1e-12)


@given(st.floats(min_value=0.01, max_value=3.0),
       st.floats(min_value=2.1, max_value=6.0),
       st.floats(min_value=0.2, max_value=10.0),
       st.floats(min_value=0.01, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_attraction_time_inverts_modulus(kappa, alpha, delta0, frac):
    eps = delta0 * frac
    L = attraction_time(delta0, eps, kappa, alpha)
    assert L >= 0
    assert contraction_modulus(L, delta0, kappa, alpha) == pytest.approx(eps, rel=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_iterate_rerun_bit_identical(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(-0.9, 0.9))
    m = MapSpec("catalog:affine", params={"a": a})
    u0 = float(rng.uniform(-2, 2))
    s1 = iterate(m, u0, 64)
    s2 = iterate(m, u0, 64)
    assert np.array_equal(s1.values, s2.values)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_root_bound_for_constant_polynomials(coeff_pairs):
    coeffs = [complex(re, im) for re, im in coeff_pairs]
    p = poly_path(
        [lambda t, c=c: np.full_like(t, c, dtype=complex) for c in coeffs],
        0.0, 1.0, 0.5)
    roots = roots_grid(p)[0]
    bound = 1.0 + max(abs(c) for c in coeffs)
    assert np.all(np.abs(roots) <= bound + 1e-6 * bound)


@given(st.tuples(finite, finite), st.tuples(finite, finite))
@example(a1p=(0.0, 2.225e-309), a2p=(0.0, 0.0))  # subnormal p' at the root 0
@settings(max_examples=60, deadline=None)
def test_quadratic_discriminant_closed_form(a1p, a2p):
    a1 = complex(*a1p)
    a2 = complex(*a2p)
    p = poly_path(
        [lambda t: np.full_like(t, a1, dtype=complex),
         lambda t: np.full_like(t, a2, dtype=complex)], 0.0, 1.0, 0.5)
    d = discriminant_signal(p).values[0, 0]
    expected = -(a1 ** 2 - 4 * a2)
    scale = max(1.0, abs(expected))
    assert abs(d - expected) <= 1e-8 * scale


@given(st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_branch_tracking_deterministic(seed):
    rng = np.random.default_rng(seed)
    w = float(rng.uniform(0.3, 2.0))
    p = poly_path(
        [lambda t: 0 * t,
         lambda t: -(3 + np.sin(w * t)).astype(complex)], 0.0, 60.0, 0.01)
    rb1 = track_branches(p)
    rb2 = track_branches(p)
    assert np.array_equal(rb1.branch_matrix(), rb2.branch_matrix())
    ok, _ = root_bound_check(rb1, p)
    assert ok


CSV_EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-300, 1.0, -3.0,
                            2.0 ** 53])


def csv_values(rng, shape):
    """Edge values, integers and doubles of every magnitude, mixed per entry."""
    pool = np.stack([
        rng.choice(CSV_EDGE_VALUES, size=shape),
        rng.integers(-10 ** 6, 10 ** 6, size=shape).astype(float),
        rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape),
    ])
    return np.take_along_axis(pool, rng.integers(0, 3, size=(1,) + shape), axis=0)[0]


def edge_signal(seed, cplx, d, n, grid):
    vals = csv_values(np.random.default_rng(seed), (n, d, 2) if cplx else (n, d))
    if cplx:
        vals = np.ascontiguousarray(vals).view(np.complex128)[..., 0]
    return SampledSignal(t0=grid[0], dt=grid[1], values=vals, label="edge")


SIGNAL_GRIDS = [(0.0, 0.01), (-2.5, 0.5), (1000.0, 1.0), (0.1, 0.003), (-123.456, 1e-3)]


@given(st.integers(0, 10_000), st.booleans(), st.integers(1, 3),
       st.sampled_from([2, 3, 17, 4097]), st.sampled_from(SIGNAL_GRIDS))
@settings(max_examples=40, deadline=None)
def test_signal_csv_round_trips_bit_for_bit(seed, cplx, d, n, grid):
    # n >= 2: a CSV grid needs two samples to load
    s = edge_signal(seed, cplx, d, n, grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sig.csv"
        write_signal_csv(s, path)
        back = read_signal_csv(path)
    assert back.t0 == s.t0 and back.dt == s.dt and back.label == "edge"
    assert back.values.dtype == s.values.dtype
    assert back.values.tobytes() == s.values.tobytes()  # bit for bit, zero signs included


@given(st.integers(0, 10_000), st.booleans(), st.integers(1, 3),
       st.sampled_from([1, 2, 3, 17, 4097]), st.sampled_from(SIGNAL_GRIDS))
@settings(max_examples=40, deadline=None)
def test_npy_signal_round_trips_bit_for_bit_with_identical_bytes(seed, cplx, d, n, grid):
    s = edge_signal(seed, cplx, d, n, grid)
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp) / "a" / "sig.npy", Path(tmp) / "b" / "sig.npy"
        first.parent.mkdir()
        again.parent.mkdir()
        written = write_signal(s, first)
        write_signal(s, again)
        assert written == [first, first.with_suffix(".json")]
        for p in written:  # the digest contract: one signal, one set of bytes
            assert p.read_bytes() == (again.parent / p.name).read_bytes()
        back = read_signal(first)
    assert back.t0 == s.t0 and back.dt == s.dt and back.label == "edge"
    assert back.values.dtype == s.values.dtype and back.values.shape == (n, d)
    assert back.values.tobytes() == s.values.tobytes()  # bit for bit, zero signs included
    assert back.times().tobytes() == s.times().tobytes()


@given(st.integers(0, 10_000), st.booleans(), st.integers(1, 3),
       st.sampled_from([1, 2, 17, 4097]), st.sampled_from(SIGNAL_GRIDS))
@settings(max_examples=40, deadline=None)
def test_csv_and_npy_carry_the_same_numbers(seed, cplx, d, n, grid):
    # the CSV matrix, t column included, rebuilt from the .npy and its sidecar alone
    s = edge_signal(seed, cplx, d, n, grid)
    with tempfile.TemporaryDirectory() as tmp:
        csv, npy = Path(tmp) / "sig.csv", Path(tmp) / "sig_npy.npy"
        write_signal_csv(s, csv)
        write_signal(s, npy)
        matrix = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        sidecar = json.loads(npy.with_suffix(".json").read_text())
        vals = np.load(npy)
    rebuilt = np.column_stack([sidecar["t0"] + sidecar["dt"] * np.arange(len(vals)),
                               vals.view(np.float64)])
    assert matrix.shape == rebuilt.shape
    assert matrix.tobytes() == rebuilt.tobytes()


def compose_loop(q):
    """Reference: compose the index maps row after row."""
    out = q.copy()
    for k in range(1, len(out)):
        out[k] = out[k][out[k - 1]]
    return out


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 4, 7]),
       st.sampled_from(sorted({1, 2, 3} | {2 ** k + e for k in range(1, 11) for e in (-1, 1)})))
@settings(max_examples=80, deadline=None)
def test_prefix_compose_matches_sequential_loop(seed, n, N):
    rng = np.random.default_rng(seed)
    q = rng.permuted(np.tile(np.arange(n, dtype=np.intp), (N, 1)), axis=1)
    assert np.array_equal(_prefix_compose(q.copy()), compose_loop(q))


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 5]), st.integers(1, 600),
       st.sampled_from([0.0, 0.01, 0.3, 1.0]))
@settings(max_examples=80, deadline=None)
def test_sparse_composition_equals_the_full_scan(seed, n, N, moved_frac):
    # all identity (0), sparse, and all moved (1 for n > 1) step tables
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
    steps = np.tile(np.arange(n, dtype=np.intp), (N - 1, 1))
    moved = rng.uniform(size=N - 1) < moved_frac
    shifts = rng.integers(1, max(n, 2), size=int(moved.sum()))
    steps[moved] = (np.arange(n)[None, :] + shifts[:, None]) % n
    full = np.vstack([np.lexsort((raw[0].imag.round(12), raw[0].real.round(12))), steps])
    expected = np.take_along_axis(raw, _prefix_compose(full), axis=1)
    assert np.array_equal(_compose_branches(raw, steps), expected)


def test_nearest_root_branches_undo_shuffled_roots():
    # roots of x^3 - e^(0.03it) reshuffled at every step: each branch must stay on its root
    base = np.exp(2j * np.pi * np.arange(3) / 3)
    roots = base[None, :] * np.exp(0.01j * np.arange(50))[:, None]
    perms = list(itertools.permutations(range(3)))
    shuffle = np.array(perms)[np.random.default_rng(3).integers(0, 6, 50)]
    shuffled = np.take_along_axis(roots, shuffle, axis=1)
    tracked = _compose_branches(shuffled, _nearest_steps(shuffled)[0])
    assert np.array_equal(tracked, roots[:, np.lexsort((base.imag.round(12), base.real.round(12)))])
