import warnings

import numpy as np
import pytest

from recurlab.algebra import (
    PolyPath,
    RESIDUAL_RTOL,
    classify_branches,
    discriminant_signal,
    root_bound_check,
    roots_at,
    roots_grid,
    separation_certificate,
    track_branches,
    zhikov_pipeline,
)
from recurlab.errors import BranchCollisionError
from recurlab.recurrence import TauSpec, Thresholds
from recurlab.signal import SampledSignal

ROOT2 = np.sqrt(2.0)


def const_poly(coeffs, t1=1.0, dt=0.5):
    return PolyPath.from_functions(
        [lambda t, c=c: np.full_like(t, c, dtype=complex) for c in coeffs], 0.0, t1, dt)


# ---------------------------------------------------------------------------
# point solves
# ---------------------------------------------------------------------------

def test_roots_of_x2_plus_1():
    r = np.sort_complex(roots_at(const_poly([0.0, 1.0]), 0.0))
    assert np.allclose(r, [-1j, 1j], atol=1e-12)


def test_roots_of_factorable_quadratic():
    r = np.sort(roots_at(const_poly([-3.0, 2.0]), 0.0).real)
    assert np.allclose(r, [1.0, 2.0], atol=1e-12)


def test_cube_roots_of_unity_pairwise_distance():
    r = roots_at(const_poly([0.0, 0.0, -1.0]), 0.0)
    dists = [abs(r[i] - r[j]) for i in range(3) for j in range(i + 1, 3)]
    assert np.allclose(dists, np.sqrt(3), atol=1e-10)


def test_roots_match_numpy_reference():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        mine = np.sort_complex(roots_at(const_poly(list(a)), 0.0))
        ref = np.sort_complex(np.roots(np.concatenate([[1.0 + 0j], a])))
        scale = (1 + np.max(np.abs(a))) ** n
        assert np.max(np.abs(mine - ref)) <= 1e-7 * scale


def test_subnormal_aberth_step_raises_no_warning():
    # x + (7 + 2.2250738585072014e-308j): the final Aberth correction is
    # subnormal, and clamping it must not divide by it
    c = complex(7.0, 2.2250738585072014e-308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = roots_at(const_poly([c]), 0.0)
    assert np.allclose(r, [-c], rtol=0, atol=1e-12)


def test_residual_tolerance_met_on_grid():
    p = PolyPath.from_functions(
        [lambda t: np.exp(1j * t), lambda t: (np.sin(t) - 2).astype(complex)],
        0.0, 50.0, 0.01)
    roots = roots_grid(p)
    coefs = p.coef_matrix()
    horner = np.ones_like(roots)
    for j in range(2):
        horner = horner * roots + coefs[:, j][:, None]
    bound = RESIDUAL_RTOL * (1 + np.max(np.abs(coefs), axis=1)) ** 2
    assert np.all(np.abs(horner) <= bound[:, None])


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------

def test_discriminant_of_x2_minus_1():
    d = discriminant_signal(const_poly([0.0, -1.0]))
    assert d.values[0, 0] == pytest.approx(-4.0)


def test_discriminant_double_root_is_zero():
    d = discriminant_signal(const_poly([0.0, 0.0]))
    assert abs(d.values[0, 0]) < 1e-10


def test_discriminant_quadratic_closed_form_cross_check():
    # product form vs -(a1^2 - 4 a2) along a whole path
    p = PolyPath.from_functions(
        [lambda t: (0.3 * np.sin(t)).astype(complex),
         lambda t: -(2 + np.cos(ROOT2 * t)).astype(complex)], 0.0, 100.0, 0.01)
    d = discriminant_signal(p).values[:, 0]
    a = p.coef_matrix()
    closed = -(a[:, 0] ** 2 - 4 * a[:, 1])
    assert np.max(np.abs(d - closed)) <= 1e-10 * np.max(np.abs(closed))


def test_discriminant_sign_convention_vandermonde():
    # D = (-1)^(n(n-1)/2) * (prod_{i<j} (li - lj))^2 for a cubic
    p = const_poly([0.0, -1.0, 0.5])
    roots = roots_at(p, 0.0)
    vand = 1.0
    for i in range(3):
        for j in range(i + 1, 3):
            vand *= (roots[i] - roots[j])
    expected = (-1) ** 3 * vand ** 2
    got = discriminant_signal(p).values[0, 0]
    assert got == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# branch tracking
# ---------------------------------------------------------------------------

def test_constant_coefficients_give_constant_branches():
    p = const_poly([0.0, -4.0], t1=10.0, dt=0.01)
    rb = track_branches(p)
    for b in rb.branches:
        assert np.max(np.abs(b.values - b.values[0])) < 1e-12
    starts = sorted(b.values[0, 0].real for b in rb.branches)
    assert np.allclose(starts, [-2.0, 2.0])


def test_branch_order_canonical():
    p = PolyPath.from_functions(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t)).astype(complex)], 0.0, 50.0, 0.01)
    rb1 = track_branches(p)
    rb2 = track_branches(p)
    assert np.array_equal(rb1.branch_matrix(), rb2.branch_matrix())
    r0 = [b.values[0, 0] for b in rb1.branches]
    assert r0[0].real <= r0[1].real  # sorted by real part at t0


def test_separated_quadratic_branches():
    p = PolyPath.from_functions(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t) + np.sin(ROOT2 * t))],
        0.0, 400.0, 0.005)
    rb = track_branches(p)
    assert rb.residual_max <= 1e-10
    assert rb.separation_min >= 2.0 - 1e-6
    assert np.min(np.abs(rb.discriminant.values)) >= 4.0 - 1e-6
    # explicit square-root branch oracle
    ts = rb.branches[0].times()
    f = 3 + np.sin(ts) + np.sin(ROOT2 * ts)
    got = np.sort(rb.branch_matrix().real, axis=1)
    expected = np.column_stack([-np.sqrt(f), np.sqrt(f)])
    assert np.max(np.abs(got - expected)) < 1e-10


def test_vieta_reconstruction():
    p = PolyPath.from_functions(
        [lambda t: np.exp(1j * 0.3 * t), lambda t: (np.cos(t) - 3).astype(complex),
         lambda t: (0.5 * np.sin(t)).astype(complex)], 0.0, 30.0, 0.01)
    rb = track_branches(p)
    bm = rb.branch_matrix()
    # expand prod (x - lambda_i) by iterative convolution, compare coefficients
    coef = np.zeros((len(bm), 4), dtype=complex)
    coef[:, 0] = 1.0
    deg = 0
    for i in range(3):
        nxt = np.zeros_like(coef)
        nxt[:, :deg + 1] = coef[:, :deg + 1]
        nxt[:, 1:deg + 2] -= bm[:, i][:, None] * coef[:, :deg + 1]
        coef = nxt
        deg += 1
    a = p.coef_matrix()
    assert np.max(np.abs(coef[:, 1:] - a)) <= 3 * 1e-10 * (1 + np.max(np.abs(a))) ** 3


def test_branch_collision_on_double_root_path():
    p = PolyPath.from_functions(
        [lambda t: 0 * t, lambda t: -t.astype(complex)], -1.0, 1.0, 0.002)
    with pytest.raises(BranchCollisionError) as exc:
        track_branches(p)
    lo, hi = exc.value.interval
    assert lo <= 0.0 <= hi


def test_root_bound_examples():
    p = PolyPath.from_functions(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t) + np.sin(ROOT2 * t))],
        0.0, 400.0, 0.005)
    rb = track_branches(p)
    ok, excess = root_bound_check(rb, p)
    assert ok and excess < 0
    assert np.max(np.abs(rb.branch_matrix())) <= np.sqrt(5) + 1e-9
    # x^2 + 1: |roots| = 1 <= 2
    p2 = const_poly([0.0, 1.0], t1=2.0, dt=0.1)
    ok2, _ = root_bound_check(track_branches(p2), p2)
    assert ok2


def test_separation_certificate_pass_and_fail():
    p = PolyPath.from_functions(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t) + np.sin(ROOT2 * t))],
        0.0, 400.0, 0.005)
    rb = track_branches(p)
    ok, _, sep, inf_d = separation_certificate(rb, 2.0)
    assert ok and sep >= 2.0 and inf_d >= 4.0 - 1e-6
    bad, argmin_t, _, _ = separation_certificate(rb, 2.5)
    assert not bad
    # the argmin sits near a low point of the forcing
    f_at = 3 + np.sin(argmin_t) + np.sin(ROOT2 * argmin_t)
    assert 2 * np.sqrt(f_at) < 2.2


# ---------------------------------------------------------------------------
# zhikov pipeline
# ---------------------------------------------------------------------------

def _th(eps, hi):
    return Thresholds(epsilon_grid=(eps,),
                      tau_candidates=TauSpec(lo=2 * np.pi, hi=hi, step=2 * np.pi))


def test_zhikov_trivial_constant():
    f = SampledSignal.from_function(lambda t: np.ones_like(t, dtype=complex),
                                    0.0, 400.0, 0.01, label="one")
    report, rb = zhikov_pipeline(f, with_decay=False, th=_th(0.25, 80.0), classify_dt=0.05)
    assert report["inf_abs_p"] == pytest.approx(1.0)
    assert report["dd_separation_holds"]
    assert rb is not None
    vals = sorted(b.values[0, 0].real for b in rb.branches)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-10)
    assert all(flags["remotely_stationary"] for flags in report["branches"])


def test_zhikov_pure_decay_long_window_refuses_degenerate_tail():
    f = SampledSignal.from_function(lambda t: np.exp(-t).astype(complex),
                                    0.0, 400.0, 0.01, label="decay")
    report, rb = zhikov_pipeline(f, with_decay=True, th=_th(0.25, 80.0), classify_dt=0.05)
    # p = 2 e^-t touches zero at the far end: treated as a near-collision
    assert report["inf_abs_p"] <= 1e-6
    assert not report["dd_separation_holds"]
    assert report["collisions"]  # tracking refuses the degenerate tail


def test_zhikov_pure_decay_trackable_window():
    # on a window where |D| = 8 e^-t stays above the collision floor the
    # branches +-sqrt(2) e^(-t/2) are tracked and decay to zero; the
    # remotely-stationary verdict follows
    f = SampledSignal.from_function(lambda t: np.exp(-t).astype(complex),
                                    0.0, 14.0, 0.0025, label="decay")
    th = Thresholds(epsilon_grid=(0.25,),
                    tau_candidates=TauSpec(lo=0.5, hi=3.0, step=0.5, refine=False),
                    stationary_taus=(0.5, 1.0, 2.0))
    report, rb = zhikov_pipeline(f, with_decay=True, th=th, classify_dt=0.0025)
    assert rb is not None
    assert not report["collisions"]
    starts = sorted(b.values[0, 0].real for b in rb.branches)
    assert np.allclose(starts, [-np.sqrt(2), np.sqrt(2)], atol=1e-8)
    ends = [abs(b.values[-1, 0]) for b in rb.branches]
    assert max(ends) < 2 * np.exp(-14 / 2) + 1e-6
    assert all(flags["remotely_stationary"] for flags in report["branches"])


def test_polypath_manifest_roundtrip(tmp_path):
    p = PolyPath.from_functions(
        [lambda t: np.exp(1j * 0.2 * t), lambda t: -(2 + np.cos(t)).astype(complex)],
        0.0, 20.0, 0.01, label="pair")
    mpath = tmp_path / "poly.json"
    p.write_manifest(mpath)
    back = PolyPath.from_manifest(mpath)
    assert back.degree == 2
    assert back.label == "pair"
    for a, b in zip(p.coeffs, back.coeffs):
        assert np.allclose(a.values, b.values)
        assert b.dt == pytest.approx(a.dt)


def test_hull_coherence_discriminant_floor():
    # shifting all coefficients by the same h preserves the |D| floor
    # observed on the unshifted tail (the hull inherits the separation)
    from recurlab.signal import translate

    p = PolyPath.from_functions(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t) + np.sin(ROOT2 * t))],
        0.0, 800.0, 0.01)
    rb = track_branches(p)
    gamma = float(np.min(np.abs(rb.discriminant.values)))
    assert gamma >= 4.0 - 1e-6
    for h in (100.0, 250.0, 397.3):
        shifted = PolyPath(tuple(translate(c, h) for c in p.coeffs))
        rb_h = track_branches(shifted)
        floor_h = float(np.min(np.abs(rb_h.discriminant.values)))
        assert floor_h >= gamma - 1e-6


def test_classify_branches_downsampling_consistency():
    p = PolyPath.from_functions(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t) + np.sin(ROOT2 * t))],
        0.0, 600.0, 0.005)
    rb = track_branches(p)
    th = _th(0.1, 140.0)
    fine = classify_branches(rb, th)
    coarse = classify_branches(rb, th, classify_dt=0.02)
    assert [r.flags["ap"] for r in fine] == [r.flags["ap"] for r in coarse]
