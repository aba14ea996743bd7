import warnings

import numpy as np
import pytest

from recurlab import _kernels
from recurlab.algebra import (
    PolyPath,
    RESIDUAL_RTOL,
    classify_branches,
    discriminant_signal,
    root_bound_check,
    roots_grid,
    roots_report,
    separation_certificate,
    track_branches,
    zhikov_pipeline,
)
from recurlab.errors import BranchCollisionError, NonConvergenceError
from recurlab.recurrence import TauSpec, Thresholds
from recurlab.signal import SampledSignal

from helpers import poly_path

ROOT2 = np.sqrt(2.0)


def const_poly(coeffs, t1=1.0, dt=0.5):
    return poly_path(
        [lambda t, c=c: np.full_like(t, c, dtype=complex) for c in coeffs], 0.0, t1, dt)


# ---------------------------------------------------------------------------
# point solves
# ---------------------------------------------------------------------------

def test_roots_of_x2_plus_1():
    r = np.sort_complex(roots_grid(const_poly([0.0, 1.0]))[0])
    assert np.allclose(r, [-1j, 1j], atol=1e-12)


def test_roots_of_factorable_quadratic():
    r = np.sort(roots_grid(const_poly([-3.0, 2.0]))[0].real)
    assert np.allclose(r, [1.0, 2.0], atol=1e-12)


def test_cube_roots_of_unity_pairwise_distance():
    r = roots_grid(const_poly([0.0, 0.0, -1.0]))[0]
    dists = [abs(r[i] - r[j]) for i in range(3) for j in range(i + 1, 3)]
    assert np.allclose(dists, np.sqrt(3), atol=1e-10)


def test_roots_match_numpy_reference():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        mine = np.sort_complex(roots_grid(const_poly(list(a)))[0])
        ref = np.sort_complex(np.roots(np.concatenate([[1.0 + 0j], a])))
        scale = (1 + np.max(np.abs(a))) ** n
        assert np.max(np.abs(mine - ref)) <= 1e-7 * scale
    # np.roots is itself a companion-eigenvalue solver, so also check known
    # roots: magnitudes 1e-2..1e2 mixed in one polynomial, one pair 1e-6 apart
    from scipy.optimize import linear_sum_assignment

    for _ in range(120):
        n = int(rng.integers(2, 9))
        known = 10.0 ** rng.uniform(-2, 2, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
        known[1] = known[0] * (1 + 1e-6 * np.exp(2j * np.pi * rng.uniform()))
        got = roots_grid(const_poly(list(np.poly(known)[1:])))[0]
        dist = np.abs(got[:, None] - known[None, :])
        gi, ki = linear_sum_assignment(dist)
        # a residual of RESIDUAL_RTOL times the size of the polynomial's
        # terms at root k, sum_j |e_j| |r_k|^(n-j) <= prod_i (|r_k| + |r_i|),
        # moves root k by at most that over |P'(r_k)| = prod_{i!=k} |r_k - r_i|
        # to first order; the same bound covers the rounding of np.poly
        terms = np.abs(known)[:, None] + np.abs(known)[None, :]
        gaps = np.abs(known[:, None] - known[None, :])
        np.fill_diagonal(gaps, 1.0)
        tol = RESIDUAL_RTOL * np.prod(terms / gaps, axis=1)
        assert np.all(dist[gi, ki] <= tol[ki])


def test_subnormal_aberth_step_raises_no_warning():
    # x + (7 + 2.2250738585072014e-308j): the coefficient, the root and the
    # Newton step carry a subnormal imaginary part, which no guard may
    # divide by
    c = complex(7.0, 2.2250738585072014e-308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = roots_grid(const_poly([c]))[0]
    assert np.allclose(r, [-c], rtol=0, atol=1e-12)


@pytest.mark.parametrize("coeffs", [
    [2.225e-309j, 0.0],          # closed form: the root 0 has a subnormal p'
    [0.0, 2.225e-309, 0.0],      # real companion, same at the root 0
    [0.0, 2.225e-309j, 0.0],     # complex companion
])
def test_subnormal_derivative_at_a_root_raises_no_warning(coeffs):
    # a Newton step p / p' at a root where p' is subnormal overflows inside
    # the complex division; the polish must not divide there at all
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = roots_grid(const_poly(coeffs))[0]
    assert np.all(np.isfinite(r))
    assert np.min(np.abs(r)) == 0.0


#: (a_1, a_2, exact roots) of quadratics whose b^2 or 4c leaves the float
#: range or whose small root sits far below the large one. The eigvals
#: solver this replaced gave -1.0e-166 + 1e-150j for the small root of the
#: second; without the power-of-two scaling, the closed form gives NaN
#: roots for the first and the last
EXTREME_QUADRATICS = [
    (1e200, 1.0, [-1e200, -1e-200]),
    (1e-200, 1e-300, [-5e-201 - 1e-150j, -5e-201 + 1e-150j]),
    (0.0, 1e300, [-1e150j, 1e150j]),
    (3e160j, -2e300, [-3e160j + 2e300 / 3e160 * 1j, -2e300 / 3e160 * 1j]),
]


@pytest.mark.parametrize("a1, a2, exact", EXTREME_QUADRATICS)
def test_closed_form_quadratic_at_extreme_scales(a1, a2, exact):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = roots_grid(const_poly([a1, a2]))[0]
    got = got[np.lexsort((got.real, got.imag))]
    exact = np.array(exact, dtype=complex)
    exact = exact[np.lexsort((exact.real, exact.imag))]
    # each part to a few ulps of itself: a small real part under a large
    # imaginary one must not drown in the modulus
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(exact)) <= 1e-15 * np.abs(part(exact)))


@pytest.mark.parametrize("coeffs", [[np.inf], [1.0, np.nan], [0.0, 1.0, np.inf]])
def test_non_finite_coefficients_raise_for_every_degree(coeffs):
    with pytest.raises(np.linalg.LinAlgError):
        _kernels.aberth_grid(np.array([coeffs], dtype=complex))


def test_real_quartic_gives_exact_conjugate_pairs_and_matches_the_complex_path():
    # x^4 - (5 + f) x^2 + (4 + f) (roots +-1, +-sqrt(4 + f)) and random real
    # quartics; one extra complex row sends the same rows down the complex
    # companion path
    rng = np.random.default_rng(5)
    f = 0.9 * np.sin(np.linspace(0.0, 20.0, 500))
    rows = np.vstack([np.column_stack([0 * f, -(5 + f), 0 * f, 4 + f]),
                      rng.normal(size=(500, 4))])
    real = _kernels.aberth_grid(rows)
    cplx = _kernels.aberth_grid(np.vstack([rows, [[1j, 0.0, 0.0, 1.0]]]))[:-1]
    assert np.array_equal(np.sort_complex(real), np.sort_complex(real.conj()))
    assert not np.any(real[:500].imag)
    res = np.abs(_kernels.horner(rows.astype(complex), real)[0])
    gate = RESIDUAL_RTOL * (1.0 + np.max(np.abs(rows), axis=1)) ** 4
    assert np.all(res <= gate[:, None])
    dist = np.abs(real[:, :, None] - cplx[:, None, :]).min(axis=2)
    assert np.max(dist) <= RESIDUAL_RTOL


def test_gate_that_overflows_refuses():
    # x^3 + 1e200 x^2 - 1e200 x + 3: the residual and its scale both
    # overflow, so the gate ratio is NaN and cannot certify the roots
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonConvergenceError):
            roots_grid(const_poly([1e200, -1e200, 3.0]))


def test_residual_tolerance_met_on_grid():
    p = poly_path(
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
    p = poly_path(
        [lambda t: (0.3 * np.sin(t)).astype(complex),
         lambda t: -(2 + np.cos(ROOT2 * t)).astype(complex)], 0.0, 100.0, 0.01)
    d = discriminant_signal(p).values[:, 0]
    a = p.coef_matrix()
    closed = -(a[:, 0] ** 2 - 4 * a[:, 1])
    assert np.max(np.abs(d - closed)) <= 1e-10 * np.max(np.abs(closed))


def test_discriminant_sign_convention_vandermonde():
    # D = (-1)^(n(n-1)/2) * (prod_{i<j} (li - lj))^2 for a cubic
    p = const_poly([0.0, -1.0, 0.5])
    roots = roots_grid(p)[0]
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
    p = poly_path(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t)).astype(complex)], 0.0, 50.0, 0.01)
    rb1 = track_branches(p)
    rb2 = track_branches(p)
    assert np.array_equal(rb1.branch_matrix(), rb2.branch_matrix())
    r0 = [b.values[0, 0] for b in rb1.branches]
    assert r0[0].real <= r0[1].real  # sorted by real part at t0


def test_separated_quadratic_branches():
    p = poly_path(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t) + np.sin(ROOT2 * t))],
        0.0, 400.0, 0.005)
    rb = track_branches(p)
    assert rb.residual_max <= 1e-10
    assert rb.separation.min() >= 2.0 - 1e-6
    assert np.min(np.abs(rb.discriminant.values)) >= 4.0 - 1e-6
    # explicit square-root branch oracle
    ts = rb.branches[0].times()
    f = 3 + np.sin(ts) + np.sin(ROOT2 * ts)
    got = np.sort(rb.branch_matrix().real, axis=1)
    expected = np.column_stack([-np.sqrt(f), np.sqrt(f)])
    assert np.max(np.abs(got - expected)) < 1e-10


def test_vieta_reconstruction():
    p = poly_path(
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


def test_degree_seven_branches_by_assignment():
    # x^7 - f(t), f = 0.5 + 0.125 sin t: branch k is f^(1/7) w_k for a
    # fixed seventh root of unity w_k; every root moves far less than half
    # the separation, so nearest-root continuation is the optimal assignment
    p = poly_path(
        [lambda t: 0 * t] * 6 + [lambda t: -(0.5 + 0.125 * np.sin(t)).astype(complex)],
        0.0, 20.0, 0.01)
    rb = track_branches(p)
    bm = rb.branch_matrix()
    f = 0.5 + 0.125 * np.sin(rb.branches[0].times())
    unit = np.exp(2j * np.pi * np.arange(7) / 7)
    order = np.lexsort((unit.imag.round(9), unit.real.round(9)))
    expected = f[:, None] ** (1 / 7) * unit[order][None, :]
    assert np.max(np.abs(bm - expected)) < 1e-12
    motion = np.max(np.abs(np.diff(bm, axis=0)))
    assert motion < 1e-3 < 0.5 * rb.separation.min()
    assert rb.residual_max <= RESIDUAL_RTOL * (1 + 0.625) ** 7


def test_branch_collision_on_double_root_path():
    p = poly_path(
        [lambda t: 0 * t, lambda t: -t.astype(complex)], -1.0, 1.0, 0.002)
    with pytest.raises(BranchCollisionError) as exc:
        track_branches(p)
    lo, hi = exc.value.interval
    assert lo <= 0.0 <= hi


def test_root_bound_examples():
    p = poly_path(
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
    p = poly_path(
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
                    tau_candidates=TauSpec(lo=0.5, hi=3.0, step=0.5, refine=False))
    report, rb = zhikov_pipeline(f, with_decay=True, th=th, classify_dt=0.0025)
    assert rb is not None
    assert not report["collisions"]
    starts = sorted(b.values[0, 0].real for b in rb.branches)
    assert np.allclose(starts, [-np.sqrt(2), np.sqrt(2)], atol=1e-8)
    ends = [abs(b.values[-1, 0]) for b in rb.branches]
    assert max(ends) < 2 * np.exp(-14 / 2) + 1e-6
    assert all(flags["remotely_stationary"] for flags in report["branches"])


def test_hull_coherence_discriminant_floor():
    # shifting all coefficients by the same h preserves the |D| floor
    # observed on the unshifted tail (the hull inherits the separation)
    from recurlab.signal import translate

    p = poly_path(
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
    p = poly_path(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t) + np.sin(ROOT2 * t))],
        0.0, 600.0, 0.005)
    rb = track_branches(p)
    th = _th(0.1, 140.0)
    fine = classify_branches(rb, th)
    coarse = classify_branches(rb, th, classify_dt=0.02)
    assert [r.flags["ap"] for r in fine] == [r.flags["ap"] for r in coarse]


def test_separation_ok_is_reported_only_against_a_positive_claim():
    # x^2 - (4 + 0.5 sin t): roots +-sqrt(4 + 0.5 sin t), separation >= 2 sqrt(3.5)
    p = poly_path([lambda t: np.zeros_like(t, dtype=complex),
                                 lambda t: -(4.0 + 0.5 * np.sin(t)) + 0j], 0.0, 20.0, 0.01)
    bare, _ = roots_report(p)
    assert "separation_ok" not in bare and bare["separation_min"] > 3.7
    for claim, ok in ((1.0, True), (3.7, True), (4.0, False)):
        report, _ = roots_report(p, claim)
        assert report["separation_ok"] is ok
        # the claim adds the verdict and changes nothing else, key order included
        assert [k for k in report if k != "separation_ok"] == list(bare)
        assert {k: v for k, v in report.items() if k != "separation_ok"} == bare
    assert "separation_ok" not in roots_report(p, 0.0)[0]
