"""Property-based checks of the module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recurlab.algebra import PolyPath, discriminant_signal, root_bound_check, roots_at, \
    track_branches
from recurlab.errors import EmptyDomainError
from recurlab.flows import attraction_time, contraction_modulus
from recurlab.maps import MapSpec, iterate
from recurlab.signal import (
    SampledSignal,
    Window,
    d_infinity_estimate,
    shift_values,
    sup_distance,
    tail_sup_distance,
    translate,
)

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
    s = random_signal(seed)
    z = SampledSignal(t0=0.0, dt=s.dt, values=np.zeros(len(s)))
    Ls = np.linspace(0, s.t_end * 0.9, 9)
    vals = [tail_sup_distance(s, z, L) for L in Ls]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


@given(st.integers(0, 10_000), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_d_infinity_below_full_sup(seed, rho):
    a = random_signal(seed)
    b = random_signal(seed + 1)
    assert d_infinity_estimate(a, b, rho) <= sup_distance(a, b, Window(0, a.t_end)) + 1e-15


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
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_scan_shift_is_translate_bit_for_bit(seed, k, frac, on_grid):
    s = random_signal(seed)
    tau = (k + (0.0 if on_grid else frac)) * s.dt
    sh = shift_values(s.values[:, 0], s.dt, tau)
    try:
        tr = translate(s, tau)
    except EmptyDomainError:
        assert len(sh) == 0  # past the span: the scan sees an empty shift
        return
    assert sh.shape == (len(tr),)
    assert sh.tobytes() == tr.values[:, 0].tobytes()
    ts = s.t0 + s.dt * np.arange(0, len(sh), 37)
    expected = [s.value_at(t + tau)[0] for t in ts]
    assert np.allclose(sh[::37], expected, rtol=0, atol=1e-12)


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
    p = PolyPath.from_functions(
        [lambda t, c=c: np.full_like(t, c, dtype=complex) for c in coeffs],
        0.0, 1.0, 0.5)
    roots = roots_at(p, 0.0)
    bound = 1.0 + max(abs(c) for c in coeffs)
    assert np.all(np.abs(roots) <= bound + 1e-6 * bound)


@given(st.tuples(finite, finite), st.tuples(finite, finite))
@settings(max_examples=60, deadline=None)
def test_quadratic_discriminant_closed_form(a1p, a2p):
    a1 = complex(*a1p)
    a2 = complex(*a2p)
    p = PolyPath.from_functions(
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
    p = PolyPath.from_functions(
        [lambda t: 0 * t,
         lambda t: -(3 + np.sin(w * t)).astype(complex)], 0.0, 60.0, 0.01)
    rb1 = track_branches(p)
    rb2 = track_branches(p)
    assert np.array_equal(rb1.branch_matrix(), rb2.branch_matrix())
    ok, _ = root_bound_check(rb1, p)
    assert ok
