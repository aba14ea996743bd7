"""Acceptance suite: one test per criterion, each printing a pass line.

Every numeric target is pinned here at its stated tolerance; the heavy
shared artifacts (long signals, integrations) are module-scoped fixtures.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time

import numpy as np
import pytest

from recurlab.algebra import classify_branches, root_bound_check, separation_certificate, \
    track_branches, zhikov_pipeline
from recurlab.catalog import build_forcing
from recurlab.errors import BranchCollisionError
from recurlab.flows import (
    IVP,
    ConditionHParams,
    RhsSpec,
    attraction_time,
    condition_h_margin,
    fiber_count,
    hull_solutions,
    integrate,
    uniform_stability_probe,
)
from recurlab.recurrence import (
    TauSpec,
    Thresholds,
    classify,
    equi_ap_test,
    minimality_test,
    omega_limit_sample,
    translation_set_remote,
)
from recurlab.signal import SampledSignal, Window

from helpers import contraction_modulus, poly_path, tail_residual

TWO_PI = 2 * np.pi
ROOT2 = np.sqrt(2.0)


def announce(criterion, text):
    print(f"\n[criterion {criterion}] PASS: {text}")


@pytest.fixture(scope="module")
def drifting_sine():
    return SampledSignal.from_function(lambda t: np.sin(t + np.log1p(t)),
                                       0.0, 4000.0, 0.005, label="sin(t+ln(1+t))")


# ---------------------------------------------------------------------------
# criterion 1: RAP detection on the drifting sine
# ---------------------------------------------------------------------------

def test_criterion_1_rap_detection(drifting_sine):
    s = drifting_sine
    eps = 0.05
    cands = TauSpec(lo=TWO_PI, hi=50 * TWO_PI, step=TWO_PI, refine=True)

    start = time.monotonic()
    ts = translation_set_remote(s, eps, cands)
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"translation scan took {elapsed:.1f}s"

    # every 2*pi k accepted (within the refinement window for large k, where
    # the 4000-long domain cannot host the tail of the exact translation),
    # with L below the per-k oracle bound 2*pi*k/eps
    for k in range(1, 51):
        target = TWO_PI * k
        hits = [e for e in ts.entries if e.accepted and abs(e.tau - target) <= 0.35]
        assert hits, f"no accepted translation near 2*pi*{k}"
        assert min(e.L for e in hits) <= TWO_PI * k / eps + 5.0
    # k = 1 accepted exactly, with the analytic bound L <= 126
    exact = [e for e in ts.entries if e.accepted and abs(e.tau - TWO_PI) < 1e-9]
    assert exact and exact[0].L <= 126.0
    assert ts.max_gap <= 7.0
    assert ts.relatively_dense()

    # ap = false, aap = false at the same epsilon
    th = Thresholds(epsilon_grid=(eps,), tau_candidates=cands)
    flags = classify(s, th).flags
    assert flags["rap"] is True
    assert flags["ap"] is False
    assert flags["aap"] is False

    # brute-force oracle: over its final 3/4, slid by up to 40, the signal
    # stays >= 0.5 away from every one of 60 phase-shifted sines
    members = [SampledSignal.from_function(lambda t, c=c: np.sin(t + c), 0.0, 4000.0, 0.005)
               for c in np.linspace(0, TWO_PI, 60, endpoint=False)]
    residual = tail_residual(s, members, eps, min(0.75 * s.span, 4000.0 - 40.0), 40.0)
    assert residual >= 0.5

    announce(1, f"all 50 translations accepted, L1={exact[0].L:.1f} <= 126, "
                f"max_gap={ts.max_gap:.2f} <= 7, aap residual {residual:.3f} >= 0.5, "
                f"scan {elapsed:.1f}s <= 30s")


# ---------------------------------------------------------------------------
# criterion 2: omega-limit structure of the flagship forcing
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def heq1_forcing_long():
    return build_forcing("heq1_forcing", 0.0, 24000.0, 0.02)


def test_criterion_2_omega_structure(heq1_forcing_long):
    s = heq1_forcing_long
    shifts = 20000.0 + 0.5025 * np.arange(200)   # 200 shifts beyond h = 1000

    # (a) every representative is close to sin(t+c1) + sin(sqrt2 t + c2)
    hull_fit = omega_limit_sample(s, shifts, window_len=20.0, cluster_tol=0.02)
    worst_fit = 0.0
    for m in hull_fit.members:
        ts = m.times()
        basis = np.column_stack([np.sin(ts), np.cos(ts), np.sin(ROOT2 * ts), np.cos(ROOT2 * ts)])
        coef, *_ = np.linalg.lstsq(basis, m.values[:, 0], rcond=None)
        c1 = np.arctan2(coef[1], coef[0])
        c2 = np.arctan2(coef[3], coef[2])
        model = np.sin(ts + c1) + np.sin(ROOT2 * ts + c2)
        worst_fit = max(worst_fit, float(np.max(np.abs(model - m.values[:, 0]))))
    assert worst_fit <= 0.05

    # (b) equi-almost-periodicity and minimality of the sampled hull
    hull_big = omega_limit_sample(s, shifts, window_len=1850.0, cluster_tol=0.02)
    eq_flag, eq_ts = equi_ap_test(hull_big, 0.1,
                                  TauSpec(lo=TWO_PI, hi=460.0, step=TWO_PI, refine=True))
    assert eq_flag
    mn_flag, mn_ev = minimality_test(hull_big, 0.1, n_probes=3, slide_span=1270.0)
    assert mn_flag

    announce(2, f"{len(hull_fit.members)} members, worst 2-phase fit {worst_fit:.4f} <= 0.05, "
                f"equi-AP max_gap {eq_ts.max_gap:.0f}, minimality worst {mn_ev['worst']:.3f}")


# ---------------------------------------------------------------------------
# criterion 3: Condition (H) and the contraction bound
# ---------------------------------------------------------------------------

def test_criterion_3_condition_h_and_contraction():
    start = time.monotonic()
    p = ConditionHParams(kappa=0.5, alpha=3.0, sample_box=((-10.0,), (10.0,)),
                         n_pairs=10000)
    margin = condition_h_margin(RhsSpec("catalog:norm_decay"), p, [0.0])
    assert margin >= 0.0

    forcing = build_forcing("sin", 0.0, 120.0, 0.002)
    rhs = RhsSpec("catalog:heq1", forcing=forcing)
    s1 = integrate(IVP(rhs, (0.0,), Window(0, 100.0), 1e-10, 1e-12, out_dt=0.01))
    s2 = integrate(IVP(rhs, (2.0,), Window(0, 100.0), 1e-10, 1e-12, out_dt=0.01))
    dist = np.abs(s1.values[:, 0] - s2.values[:, 0])
    ts = s1.dt * np.arange(len(s1))
    bound = (0.5 + ts / 2.0) ** (-1.0)   # omega_kappa(t, 2) at kappa=1/2, alpha=3
    violation = float(np.max(dist - bound))
    assert violation <= 1e-6
    assert np.allclose(bound, contraction_modulus(ts, 2.0, 0.5, 3.0))
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"criterion 3 took {elapsed:.1f}s"

    announce(3, f"margin {margin:.2e} >= 0 on 10^4 pairs, bound violation "
                f"{violation:.2e} <= 1e-6, {elapsed:.1f}s <= 10s")


# ---------------------------------------------------------------------------
# criterion 4: Amerio conclusion for the flagship equation
# ---------------------------------------------------------------------------

def test_criterion_4_amerio_flagship():
    start = time.monotonic()
    forcing = build_forcing("heq1_forcing", 0.0, 7000.0, 0.01)
    rhs = RhsSpec("catalog:heq1", forcing=forcing)
    sol = integrate(IVP(rhs, (0.0,), Window(0.0, 6500.0), 1e-6, 1e-9, out_dt=0.02))
    tail = sol.restrict(Window(200.0, sol.t_end))

    th = Thresholds(epsilon_grid=(0.1,),
                    tau_candidates=TauSpec(lo=TWO_PI, hi=250 * TWO_PI, step=TWO_PI,
                                           refine=True))
    flags = classify(tail, th).flags
    assert flags["rap"] is True
    assert flags["aap"] is False

    runs = hull_solutions(rhs, shifts=np.arange(10) * 50.0,
                          x0_set=[(-1.0,), (0.0,), (1.0,)], horizon=300.0,
                          rel_tol=1e-6, abs_tol=1e-9, out_dt=0.05)
    fr = fiber_count(runs, burn_in=200.0, cluster_tol=0.05)
    assert fr.m == 1 and fr.constant
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 4 took {elapsed:.1f}s"

    announce(4, f"solution rap=T aap=F, fiber m=1 across 10 shifts, {elapsed:.1f}s <= 60s")


# ---------------------------------------------------------------------------
# criterion 5: attraction-time formula
# ---------------------------------------------------------------------------

def test_criterion_5_attraction_time():
    bound = attraction_time(1.0, 0.1, 0.5, 3.0)
    assert bound == pytest.approx(18.0)

    forcing = build_forcing("sin", 0.0, 120.0, 0.002)
    rhs = RhsSpec("catalog:heq1", forcing=forcing)
    ref = integrate(IVP(rhs, (0.0,), Window(0.0, 110.0), 1e-9, 1e-11, out_dt=0.01))
    probe = uniform_stability_probe(
        rhs, ref, delta_grid=[0.05, 0.1, 0.5, 1.0], eps_grid=[0.1],
        restart_times=[0.0, 10.0, 25.0, 50.0], horizon=40.0,
        rel_tol=1e-9, abs_tol=1e-11,
        h_params=ConditionHParams(0.5, 3.0, ((-3.0,), (3.0,)), 1000))
    observed = probe["attraction"][0.1]
    assert observed <= bound * 1.1
    assert probe["bound"][0.1] == pytest.approx(18.0)
    # uniform stability: perturbations below eps never leave the eps-tube
    assert probe["stability"][0.1] >= 0.1

    announce(5, f"observed re-entry {observed:.2f}s <= 18 * 1.1 (closed form 18)")


# ---------------------------------------------------------------------------
# criterion 6: corOM1 experiments
# ---------------------------------------------------------------------------

def test_criterion_6a_remotely_stationary_forcing():
    from scipy.integrate import quad

    forcing = build_forcing("remotely_stationary", 0.0, 140.0, 0.002, {"c": 0.5})
    rhs = RhsSpec("catalog:linear_decay", forcing=forcing)
    sol = integrate(IVP(rhs, (1.5,), Window(0.0, 120.0), 1e-10, 1e-12, out_dt=0.01))
    ts = sol.times()

    # the explicit linear solution oracle: x(t) = 0.5 + e^-t + I(t) with
    # I(t) = int_0^t e^(s-t)/(1+s) ds, evaluated by quadrature
    for t_chk in (10.0, 30.0, 60.0, 120.0):
        I, _ = quad(lambda u, T=t_chk: np.exp(u - T) / (1 + u), 0.0, t_chk, limit=500)
        oracle = 0.5 + np.exp(-t_chk) + I
        k = round(t_chk / sol.dt)
        assert abs(sol.values[k, 0] - oracle) <= 1e-7

    # the solution locks onto the drifting equilibrium 0.5 + 1/(1+t); the
    # exact oracle gap is 0.0105 at t=10 and crosses 0.01 just before t=11
    # (the stated 0.01-at-10 used the leading term 1/(1+t)^2 only)
    target = 0.5 + 1.0 / (1.0 + ts)
    gap10 = float(np.max(np.abs(sol.values[ts >= 10.0, 0] - target[ts >= 10.0])))
    gap11 = float(np.max(np.abs(sol.values[ts >= 11.0, 0] - target[ts >= 11.0])))
    assert gap10 <= 0.011
    assert gap11 <= 0.01
    # and converges to the limit stationary value 0.5 itself
    late = ts >= 105.0
    assert float(np.max(np.abs(sol.values[late, 0] - 0.5))) <= 0.01

    th = Thresholds(epsilon_grid=(0.05,),
                    tau_candidates=TauSpec(lo=0.5, hi=25.0, step=0.5, refine=False))
    flags = classify(sol.restrict(Window(10.0, 120.0)), th).flags
    assert flags["remotely_stationary"] is True

    announce("6a", f"matches the explicit oracle to 1e-7; "
                   f"|x - (0.5 + 1/(1+t))| = {gap10:.4f} from t=10 (<= 0.01 from t=11), "
                   f"|x - 0.5| <= 0.01 at the horizon end, remotely stationary")


def test_criterion_6b_discrete_periodic_forcing():
    from recurlab.maps import MapSpec, discrete_fiber_count

    f = build_forcing("alternating", 0.0, 130.0, 1.0)
    m = MapSpec("catalog:affine", params={"a": 0.5}, forcing=f)
    rep = discrete_fiber_count(m, [0, 1], [np.array([0.0]), np.array([1.0]), np.array([-2.0])],
                               n_steps=60, burn_in=40, cluster_tol=1e-6)
    assert rep.m == 1 and rep.constant
    periods = [p for ps in rep.periods.values() for p in ps]
    # asymptotic period divides m * tau = 1 * 2
    assert all(p in (1, 2) for p in periods)
    assert 2 % max(periods) == 0

    announce("6b", f"m=1 per shift, asymptotic periods {sorted(set(periods))} divide 2")


# ---------------------------------------------------------------------------
# criterion 7: algebraic branch theorems
# ---------------------------------------------------------------------------

def test_criterion_7_branch_theorems():
    start = time.monotonic()
    # AP coefficients, separated discriminant
    p_ap = poly_path(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t) + np.sin(ROOT2 * t))],
        0.0, 2000.0, 0.005, label="separated")
    rb = track_branches(p_ap)
    assert rb.residual_max <= 1e-10
    assert rb.separation.min() >= 2.0 - 1e-6
    assert float(np.min(np.abs(rb.discriminant.values))) >= 4.0 - 1e-6
    ok_bound, _ = root_bound_check(rb, p_ap)
    assert ok_bound
    max_root = float(np.max(np.abs(rb.branch_matrix())))
    assert max_root <= np.sqrt(5) + 1e-6
    assert max_root >= np.sqrt(5) - 0.01   # the sup sqrt(5) is approached on the window
    ok_sep, _, _, _ = separation_certificate(rb, 2.0)
    assert ok_sep

    th_ap = Thresholds(epsilon_grid=(0.05,),
                       tau_candidates=TauSpec(lo=TWO_PI, hi=500.0, step=TWO_PI, refine=True))
    reports = classify_branches(rb, th_ap)
    assert all(r.flags["ap"] for r in reports)

    # RAP coefficients: branches remotely almost periodic, not asymptotically
    p_rap = poly_path(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t + np.log1p(t)))],
        0.0, 4000.0, 0.005, label="rap")
    rb2 = track_branches(p_rap)
    th_rap = Thresholds(epsilon_grid=(0.05,),
                        tau_candidates=TauSpec(lo=TWO_PI, hi=50 * TWO_PI, step=TWO_PI,
                                               refine=True))
    reports2 = classify_branches(rb2, th_rap)
    assert all(r.flags["rap"] for r in reports2)
    assert all(not r.flags["aap"] for r in reports2)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 7 took {elapsed:.1f}s"

    announce(7, f"residual {rb.residual_max:.1e}, separation {rb.separation.min():.4f} >= 2, "
                f"|D| >= 4, max|root| = {max_root:.5f} ~ sqrt(5), AP branches ap=T, "
                f"RAP branches rap=T aap=F, {elapsed:.1f}s <= 60s")


# ---------------------------------------------------------------------------
# criterion 8: failure-mode fidelity
# ---------------------------------------------------------------------------

def test_criterion_8_failure_modes():
    # forced double root: the tracker reports the interval around t = 0
    p = poly_path(
        [lambda t: 0 * t, lambda t: -t.astype(complex)], -1.0, 1.0, 0.002)
    with pytest.raises(BranchCollisionError) as exc:
        track_branches(p)
    lo, hi = exc.value.interval
    assert lo <= 0.0 <= hi

    # Zhikov-type surrogate: the discriminant-separation hypothesis fails
    # (inf |p| ~ 0) while the branch still classifies almost periodic; the
    # full Zhikov failure is NOT claimed, only the hypothesis violation
    f = build_forcing("zhikov_surrogate", 0.0, 4000.0, 0.002)
    fc = SampledSignal(t0=f.t0, dt=f.dt, values=f.values[:, 0].astype(complex))
    th = Thresholds(epsilon_grid=(0.25,),
                    tau_candidates=TauSpec(lo=TWO_PI, hi=754.0, step=TWO_PI, refine=True))
    report, rb = zhikov_pipeline(fc, with_decay=True, th=th, dd_threshold=0.2)
    assert report["inf_abs_p"] <= 0.05
    assert report["dd_separation_holds"] is False
    assert rb is not None, "surrogate branches must remain trackable"
    assert report["branches"][0]["ap"] is True

    announce(8, f"collision interval [{lo:.3f}, {hi:.3f}] contains 0; "
                f"inf|p| = {report['inf_abs_p']:.2e} <= 0.05 with branch still AP "
                f"at eps 0.25 (hypothesis failure flagged, no counterexample claimed)")


# ---------------------------------------------------------------------------
# criterion 9: cross-module coherence
# ---------------------------------------------------------------------------

def _suite_signals():
    mk = SampledSignal.from_function
    return [
        mk(np.sin, 0.0, 4000.0, 0.005, label="sin"),
        mk(lambda t: np.sin(t + np.log1p(t)), 0.0, 4000.0, 0.005, label="drift"),
        mk(lambda t: np.exp(-t), 0.0, 4000.0, 0.005, label="decay"),
        mk(lambda t: np.full_like(t, 0.7), 0.0, 4000.0, 0.005, label="const"),
        mk(lambda t: 0.5 + 1.0 / (1.0 + t), 0.0, 4000.0, 0.005, label="stationary"),
        mk(lambda t: np.sin(0.002 * t * t), 0.0, 4000.0, 0.005, label="chirp"),
        mk(lambda t: np.sin(t) + np.exp(-t), 0.0, 4000.0, 0.005, label="sin+decay"),
    ]


def test_criterion_9_cross_module_coherence():
    th = Thresholds(epsilon_grid=(0.2,),
                    tau_candidates=TauSpec(lo=TWO_PI, hi=100 * np.pi, step=TWO_PI,
                                           refine=True))
    eq_cands = TauSpec(lo=TWO_PI, hi=250.0, step=TWO_PI, refine=True)
    checked = []
    for s in _suite_signals():
        flags = classify(s, th).flags
        # flag lattice monotonicity
        assert not flags["ap"] or flags["aap"], s.label
        assert not flags["aap"] or flags["rap"], s.label
        if flags["remotely_stationary"] or flags["remotely_tau_periodic"]:
            assert flags["rap"], s.label

        # lemma-level equivalence: rap + Lagrange proxy <=> equi-AP omega sample
        hull = omega_limit_sample(s, 2000.0 + np.arange(0, 100, 2.0),
                                  window_len=1000.0, cluster_tol=0.1)
        eq_flag, _ = equi_ap_test(hull, 0.2, eq_cands)
        lhs = flags["rap"] and flags["lagrange_stable_proxy"]
        assert lhs == eq_flag, f"{s.label}: rap+lagrange={lhs} but equi-AP={eq_flag}"

        checked.append(s.label)

    # cocycle semigroup identity on the catalog fields, within 5x the
    # integrator's achieved accuracy
    forcing = build_forcing("sin", 0.0, 40.0, 0.002)
    tau, t_more = 5.0, 10.0
    for kind in ("catalog:heq1", "catalog:linear_decay", "catalog:norm_decay",
                 "catalog:zero"):
        rhs = RhsSpec(kind, forcing=forcing if kind != "catalog:norm_decay" else None)
        full = integrate(IVP(rhs, (1.0,), Window(0, tau + t_more), 1e-8, 1e-10, out_dt=0.01))
        ref = integrate(IVP(rhs, (1.0,), Window(0, tau + t_more), 1e-12, 1e-14, out_dt=0.01))
        achieved = max(float(np.max(np.abs(full.values - ref.values))),
                       1e-8 * float(np.max(np.abs(full.values))) + 1e-10)
        first = integrate(IVP(rhs, (1.0,), Window(0, tau), 1e-8, 1e-10, out_dt=0.01))
        second = hull_solutions(rhs, [tau], [tuple(first.values[-1].real)], t_more,
                                1e-8, 1e-10, out_dt=0.01)[0].sol
        k = round(tau / 0.01)
        defect = float(np.max(np.abs(full.values[k:k + len(second)] - second.values)))
        assert defect <= 5 * achieved, f"{kind}: defect {defect:.2e} > 5x {achieved:.2e}"

    announce(9, f"monotone flags + lRAP1 equivalence on {checked}; "
                f"cocycle identity within 5x achieved tolerance on 4 catalog fields")
