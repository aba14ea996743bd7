import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recurlab.errors import DomainTooShortError, EmptyDomainError, WindowTooShortError
from recurlab.recurrence import (
    TauSpec,
    Thresholds,
    _least_tails,
    classify,
    equi_ap_test,
    minimality_test,
    omega_limit_sample,
    remotely_stationary_test,
    remotely_tau_periodic_test,
    translation_set_global,
    translation_set_remote,
)
from recurlab.signal import SampledSignal, Window, sup_distance, translate

from helpers import tail_residual

TWO_PI = 2 * np.pi


def drifting_sine(t1=4000.0, dt=0.005):
    return SampledSignal.from_function(lambda t: np.sin(t + np.log1p(t)), 0.0, t1, dt,
                                       label="sin(t+ln(1+t))")


def brute_force_tail_sup(s, tau, L):
    """Independent oracle: direct tail scan with no tail-profile machinery."""
    sh = translate(s, tau)
    m = min(len(sh), len(s))
    i0 = int(np.ceil(L / s.dt))
    return float(np.max(np.abs(sh.values[i0:m, 0] - s.values[i0:m, 0])))


# ---------------------------------------------------------------------------
# global translation sets
# ---------------------------------------------------------------------------

def test_global_set_of_sine_accepts_periods():
    s = SampledSignal.from_function(np.sin, 0.0, 400.0, 0.005)
    cands = TauSpec(lo=np.pi / 2, hi=20 * np.pi, step=np.pi / 2, refine=False)
    ts = translation_set_global(s, 0.05, cands)
    accepted = ts.accepted_taus()
    # oracle: |sin(t+tau)-sin t| attains 2|sin(tau/2)|
    expected = [tau for tau in cands.candidates() if 2 * abs(np.sin(tau / 2)) < 0.05]
    assert np.allclose(sorted(accepted), sorted(expected))
    assert ts.relatively_dense()


def test_global_set_constant_accepts_everything():
    s = SampledSignal(t0=0, dt=0.01, values=np.full(40001, 1.7))
    cands = TauSpec(lo=1.0, hi=100.0, step=1.0, refine=False)
    ts = translation_set_global(s, 0.05, cands)
    assert len(ts.accepted_taus()) == 100
    assert ts.max_gap == pytest.approx(1.0)


def test_global_eps_exceeding_diameter_accepts_everything():
    s = SampledSignal.from_function(np.sin, 0.0, 400.0, 0.01)
    cands = TauSpec(lo=np.pi / 2, hi=40.0, step=np.pi / 2, refine=False)
    ts = translation_set_global(s, 3.0, cands)
    assert all(e.accepted for e in ts.entries)


def test_global_window_too_short():
    s = SampledSignal.from_function(np.sin, 0.0, 100.0, 0.01)
    with pytest.raises(WindowTooShortError):
        translation_set_global(s, 0.1, TauSpec(lo=30, hi=90, step=30))


def test_eps_monotonicity_of_accepted_sets():
    s = SampledSignal.from_function(lambda t: np.sin(t) + 0.3 * np.sin(np.sqrt(5) * t),
                                    0.0, 800.0, 0.01)
    cands = TauSpec(lo=np.pi / 4, hi=200.0, step=np.pi / 4, refine=False)
    small = translation_set_global(s, 0.1, cands)
    big = translation_set_global(s, 0.3, cands)
    accepted_small = set(np.round(small.accepted_taus(), 9))
    accepted_big = set(np.round(big.accepted_taus(), 9))
    assert accepted_small <= accepted_big


# ---------------------------------------------------------------------------
# remote translation sets
# ---------------------------------------------------------------------------

def test_remote_drifting_sine_tau_2pi():
    s = drifting_sine()
    cands = TauSpec(lo=TWO_PI, hi=TWO_PI, step=TWO_PI, refine=False)
    ts = translation_set_remote(s, 0.05, cands)
    [entry] = [e for e in ts.entries if e.accepted]
    # analytic bound: |difference| <= 2 pi / (1+t) < 0.05 for t > 124.7
    assert entry.L <= 126.0
    # oracle: the found L really works and slightly earlier LL does not
    assert brute_force_tail_sup(s, TWO_PI, entry.L) < 0.05
    assert brute_force_tail_sup(s, TWO_PI, max(0.0, entry.L - 5)) >= 0.05


def test_remote_drifting_sine_rejects_pi():
    s = drifting_sine(t1=1000.0)
    cands = TauSpec(lo=np.pi, hi=np.pi, step=np.pi, refine=False)
    ts = translation_set_remote(s, 0.05, cands)
    assert not ts.entries[0].accepted
    # brute-force: the tail sup stays ~2 for the antiphase translation
    assert brute_force_tail_sup(s, np.pi, 900.0) > 1.5


def test_remote_large_eps_accepts_at_domain_start():
    s = SampledSignal.from_function(np.sin, 0.0, 400.0, 0.01)
    cands = TauSpec(lo=1.0, hi=20.0, step=1.0, refine=False)
    ts = translation_set_remote(s, 2.5, cands)
    assert all(e.accepted for e in ts.entries)
    assert all(e.L == s.t0 for e in ts.entries)


def test_remote_domain_too_short():
    s = SampledSignal.from_function(np.sin, 0.0, 50.0, 0.01)
    with pytest.raises(DomainTooShortError):
        translation_set_remote(s, 0.1, TauSpec(lo=20.0, hi=40.0, step=20.0))


def test_global_acceptance_implies_remote_acceptance():
    s = SampledSignal.from_function(np.sin, 0.0, 400.0, 0.005)
    cands = TauSpec(lo=TWO_PI, hi=10 * TWO_PI, step=TWO_PI, refine=False)
    g = translation_set_global(s, 0.05, cands)
    r = translation_set_remote(s, 0.05, cands)
    g_acc = {round(e.tau, 9) for e in g.entries if e.accepted}
    r_acc = {round(e.tau, 9) for e in r.entries if e.accepted}
    assert g_acc <= r_acc
    for e in r.entries:
        if e.accepted and round(e.tau, 9) in g_acc:
            assert e.L == s.t0  # global acceptance means the tail starts at the window start


# ---------------------------------------------------------------------------
# remote tau-periodicity / stationarity
# ---------------------------------------------------------------------------

def test_remotely_tau_periodic_drifting_sine():
    s = drifting_sine()
    ok, table = remotely_tau_periodic_test(s, TWO_PI, (0.2, 0.1, 0.05))
    assert ok
    # oracle bound: L(eps) <= 2 pi / eps
    for eps, L in table.items():
        assert L is not None and L <= TWO_PI / eps + 1


def test_not_remotely_pi_periodic():
    s = SampledSignal.from_function(np.sin, 0.0, 1000.0, 0.01)
    ok, table = remotely_tau_periodic_test(s, np.pi, (0.1,))
    assert not ok
    assert table[0.1] is None


def test_remotely_stationary_decaying_drift():
    s = SampledSignal.from_function(lambda t: 0.8 + 1.0 / (1.0 + t), 0.0, 2000.0, 0.01)
    ok, _ = remotely_stationary_test(s, (0.1, 0.05), taus=(0.5, 1.0, 2.0, 5.0))
    assert ok
    s2 = SampledSignal.from_function(np.sin, 0.0, 2000.0, 0.01)
    ok2, witness = remotely_stationary_test(s2, (0.1,), taus=(0.5, np.pi, 5.0))
    assert not ok2
    assert witness[np.pi] is False


# ---------------------------------------------------------------------------
# omega hulls
# ---------------------------------------------------------------------------

def test_omega_sample_of_sine_lies_on_phase_family():
    s = SampledSignal.from_function(np.sin, 0.0, 300.0, 0.005)
    shifts = 100.0 + np.arange(0, TWO_PI, 0.1)
    hull = omega_limit_sample(s, shifts, window_len=30.0, cluster_tol=0.05)
    # every representative is sin(t + c) for some phase c (2-parameter fit oracle)
    for m, h in zip(hull.members, hull.shifts):
        ts = m.times()
        coef, *_ = np.linalg.lstsq(
            np.column_stack([np.sin(ts), np.cos(ts)]), m.values[:, 0], rcond=None)
        c = np.arctan2(coef[1], coef[0])
        model = np.sin(ts + c)
        assert np.max(np.abs(model - m.values[:, 0])) < 0.05


def test_omega_sample_of_decay_is_single_cluster():
    s = SampledSignal.from_function(lambda t: np.exp(-t), 0.0, 200.0, 0.01)
    hull = omega_limit_sample(s, 50.0 + np.arange(0, 100, 5.0), 40.0, cluster_tol=0.01)
    assert len(hull.members) == 1
    assert np.max(np.abs(hull.members[0].values)) < 1e-9


def _pairwise_sup_max(hull):
    ms = hull.members
    return max(sup_distance(a, b, hull.window) for i, a in enumerate(ms) for b in ms[i + 1:])


def test_max_pairwise_of_a_real_hull_is_the_pairwise_sup_max_bit_for_bit(monkeypatch):
    from recurlab import catalog, recurrence

    s = catalog.build_forcing("heq1_forcing", 19000.0, 19600.0, 0.1)
    hull = omega_limit_sample(s, 100.0 + 0.5025 * np.arange(12), window_len=400.0,
                              cluster_tol=0.02)
    assert len(hull.members) == 12
    want = _pairwise_sup_max(hull)
    calls = []
    monkeypatch.setattr(recurrence, "sup_distance", lambda *a: calls.append(a))
    assert hull.max_pairwise() == want   # the range identity: no pairwise sup
    assert calls == []


def test_max_pairwise_of_a_complex_hull_takes_the_pairwise_sups(monkeypatch):
    from recurlab import recurrence
    from recurlab.recurrence import HullSample

    members = [SampledSignal.from_function(lambda t, c=c: np.exp(1j * (t + c)), 0.0, 50.0, 0.01)
               for c in (0.0, 0.4, 2.0, 3.0)]
    hull = HullSample(members, np.zeros(4), Window(0.0, 50.0))
    calls = []

    def counted(*args):
        calls.append(args)
        return sup_distance(*args)

    monkeypatch.setattr(recurrence, "sup_distance", counted)
    assert hull.max_pairwise() == _pairwise_sup_max(hull)
    assert len(calls) == 6
    assert hull.max_pairwise() == pytest.approx(2 * np.sin(1.5), abs=1e-4)
    assert HullSample(members[:1], np.zeros(1), Window(0.0, 50.0)).max_pairwise() == 0.0


def test_equi_ap_of_sine_hull():
    s = SampledSignal.from_function(np.sin, 0.0, 1500.0, 0.005)
    shifts = 100.0 + np.arange(0, TWO_PI, 0.2)
    hull = omega_limit_sample(s, shifts, window_len=1000.0, cluster_tol=0.05)
    flag, ts = equi_ap_test(hull, 0.1, TauSpec(lo=TWO_PI, hi=250.0, step=TWO_PI))
    assert flag
    assert ts.max_gap == pytest.approx(TWO_PI, abs=0.2)


def test_equi_ap_joint_two_frequencies():
    # members with incommensurate frequencies still share a relatively dense
    # joint set even at eps = 0.01: the simultaneous approximations sit at
    # the sqrt(3) convergent denominators 209, 571, 780, ...
    from recurlab.recurrence import HullSample

    W = 26000.0
    base = SampledSignal.from_function(np.sin, 0.0, W, 0.02)
    other = SampledSignal.from_function(lambda t: np.sin(np.sqrt(3) * t), 0.0, W, 0.02)
    hull = HullSample([base, other], np.array([0.0, 0.0]), Window(0.0, W))
    flag, ts = equi_ap_test(hull, 0.01, TauSpec(lo=TWO_PI, hi=6400.0, step=TWO_PI,
                                                refine=True))
    assert flag
    reps = np.round(ts.representatives() / TWO_PI).astype(int)
    # brute-force joint-scan oracle: these are exactly the denominators with
    # 2 sin(pi * dist(sqrt(3) p, Z)) < 0.01 in range
    expected = [p for p in range(1, 1019)
                if 2 * np.sin(np.pi * abs(np.sqrt(3) * p - round(np.sqrt(3) * p))) < 0.01]
    for p in expected:
        assert np.min(np.abs(reps - p)) == 0, f"missing joint period 2*pi*{p}"


def test_minimality_positive_for_rotation():
    s = SampledSignal.from_function(np.sin, 0.0, 400.0, 0.005)
    shifts = 100.0 + np.arange(0, TWO_PI, 0.15)
    hull = omega_limit_sample(s, shifts, window_len=60.0, cluster_tol=0.05)
    flag, _ = minimality_test(hull, 0.1, n_probes=4)
    assert flag


def test_minimality_negative_for_distinct_constants():
    # omega-sample of sin(ln(1+t)) at far-apart shifts: distinct near-constants
    s = SampledSignal.from_function(lambda t: np.sin(np.log1p(t)), 0.0, 9000.0, 0.05)
    hull = omega_limit_sample(s, [3000.0, 8000.0], window_len=800.0, cluster_tol=0.05)
    assert len(hull.members) == 2
    flag, ev = minimality_test(hull, 0.1, n_probes=2)
    assert not flag


def test_minimality_singleton_hull():
    s = SampledSignal.from_function(lambda t: np.exp(-t), 0.0, 100.0, 0.01)
    hull = omega_limit_sample(s, [60.0], window_len=20.0, cluster_tol=0.05)
    flag, _ = minimality_test(hull, 0.1)
    assert flag


def test_capped_alignment_stops_early_on_a_saturating_chirp(monkeypatch):
    # every offset's sup lies in [1.9998, 2]; the FFT bound certifies all of
    # them above the cap, so an exhaustive exact scan must not happen
    from recurlab import _kernels
    from recurlab.recurrence import _disjoint_window_aap_residual

    s = SampledSignal.from_function(lambda t: np.sin(0.002 * t * t), 0.0, 4000.0, 0.005)
    exact = _kernels.min_sliding_sup
    evaluated = []

    def counting(src, target, offsets):
        evaluated.append(len(offsets))
        return exact(src, target, offsets)

    monkeypatch.setattr(_kernels, "min_sliding_sup", counting)
    residual, _ = _disjoint_window_aap_residual(s, 0.05)
    assert sum(evaluated) <= 64
    assert residual >= 0.05


# ---------------------------------------------------------------------------
# AAP residual (the oracle of acceptance criterion 1)
# ---------------------------------------------------------------------------

def _sin_family(t1, dt, n_phases=40):
    return [SampledSignal.from_function(lambda t, c=c: np.sin(t + c), 0.0, t1, dt)
            for c in np.linspace(0, TWO_PI, n_phases, endpoint=False)]


def test_aap_residual_of_sin_plus_decay_is_small():
    # s = sin + exp(-t): its tail on [200, 400] is a phase-shifted sine up to e^-200
    s = SampledSignal.from_function(lambda t: np.sin(t) + np.exp(-t), 0.0, 400.0, 0.005)
    assert tail_residual(s, _sin_family(400.0, 0.005), 0.05, 200.0, 40.0) < 0.01


def test_aap_residual_of_the_zero_signal_against_itself_is_zero():
    z = SampledSignal(t0=0.0, dt=0.01, values=np.zeros(40001))
    assert tail_residual(z, [z], 0.05, 200.0, 40.0) == 0.0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_domain_too_short():
    s = SampledSignal.from_function(np.sin, 0.0, 5.0, 0.01)
    th = Thresholds(epsilon_grid=(0.1,),
                    tau_candidates=TauSpec(lo=TWO_PI, hi=40.0, step=TWO_PI))
    with pytest.raises(DomainTooShortError):
        classify(s, th)


@pytest.fixture(scope="module")
def th():
    return Thresholds(epsilon_grid=(0.05,),
                      tau_candidates=TauSpec(lo=TWO_PI, hi=100 * np.pi, step=TWO_PI))


def test_classify_pure_sine(th):
    r = classify(SampledSignal.from_function(np.sin, 0, 4000.0, 0.005), th)
    assert r.flags["ap"] and r.flags["aap"] and r.flags["rap"]


def test_classify_drifting_sine(th):
    r = classify(drifting_sine(), th)
    f = r.flags
    assert not f["ap"] and not f["aap"]
    assert f["rap"] and f["lagrange_stable_proxy"]


def test_classify_decay_is_remotely_stationary(th):
    r = classify(SampledSignal.from_function(lambda t: np.exp(-t), 0, 4000.0, 0.005), th)
    f = r.flags
    assert not f["ap"]
    assert f["aap"] and f["rap"] and f["remotely_stationary"]


def test_classify_flag_monotonicity_everywhere(th):
    signals = [
        SampledSignal.from_function(np.sin, 0, 4000.0, 0.005),
        drifting_sine(),
        SampledSignal.from_function(lambda t: np.exp(-t), 0, 4000.0, 0.005),
        SampledSignal.from_function(lambda t: 0.5 + 1 / (1 + t), 0, 4000.0, 0.005),
        SampledSignal.from_function(lambda t: np.sin(0.002 * t * t), 0, 4000.0, 0.005),
        SampledSignal.from_function(lambda t: np.sin(t) + np.exp(-t), 0, 4000.0, 0.005),
    ]
    for s in signals:
        f = classify(s, th).flags
        assert not f["ap"] or f["aap"], s.label
        assert not f["aap"] or f["rap"], s.label
        if f["remotely_stationary"] or f["remotely_tau_periodic"]:
            assert f["rap"], s.label


def test_classify_report_json_roundtrip(th):
    import json

    r = classify(SampledSignal.from_function(np.sin, 0, 2000.0, 0.01), th)
    d = r.to_dict()
    assert list(d.keys()) == ["flags", "evidence", "thresholds", "window"]
    text = json.dumps(d, default=float)
    assert json.loads(text)["flags"]["ap"] is True


def test_remote_tau_periodicity_passes_to_hull_members():
    # if the motion is remotely tau-periodic, every omega-limit point is
    # tau-periodic: each sampled hull member satisfies the translation bound
    s = drifting_sine()
    eps = 0.1
    ok, _ = remotely_tau_periodic_test(s, TWO_PI, (eps,))
    assert ok
    hull = omega_limit_sample(s, 3000.0 + np.arange(0, 60, 3.0),
                              window_len=400.0, cluster_tol=0.2)
    for m in hull.members:
        shifted = translate(m, TWO_PI)
        w = Window(m.t0, shifted.t_end)
        assert sup_distance(shifted, m, w) < eps


def assert_least_tail_exact(s, tau, eps, min_tail):
    """The least tail threshold L with sup |s(t+tau)-s(t)| < eps for t >= L
    is exact at grid resolution, against a direct scan.

    Returns the grid index of L, or None when no admissible L exists: the
    latest one leaves a tail of min_tail, and it fails too.
    """
    L = _least_tails(s, tau, (eps,), min_tail)[0]
    try:
        sh = translate(s, tau).values[:, 0]
    except EmptyDomainError:
        assert L is None
        return None
    d = np.abs(sh - s.values[:len(sh), 0])
    i_max = len(d) - 1 - max(1, int(np.ceil(min_tail / s.dt)))
    if i_max < 0 or np.max(d[i_max:]) >= eps:
        assert L is None
        return None
    assert L is not None
    i = round((L - s.t0) / s.dt)
    assert L == s.t0 + i * s.dt and 0 <= i <= i_max
    assert np.max(d[i:]) < eps
    assert i == 0 or np.max(d[i - 1:]) >= eps  # from L - dt the tail fails
    return i


@given(st.integers(0, 10_000), st.one_of(st.integers(115, 137), st.integers(0, 700)),
       st.floats(min_value=0.0, max_value=1.0), st.booleans(),
       st.floats(min_value=0.005, max_value=1.0), st.floats(min_value=0.01, max_value=8.0))
@settings(max_examples=80, deadline=None)
def test_least_tail_threshold_matches_brute_force(seed, k, frac, on_grid, eps, min_tail):
    # a slowly drifting sine plus a decaying ripple; tau clusters around the
    # period 2*pi (k ~ 126 steps) and also runs past the span
    a, c = np.random.default_rng(seed).uniform(0.0, [1.0, 0.3])
    s = SampledSignal.from_function(
        lambda t: np.sin(t + c * np.log1p(t)) + a * np.exp(-t / 5) * np.cos(3.1 * t),
        0.0, 30.0, 0.05)
    tau = (k + (0.0 if on_grid else frac)) * s.dt
    assert_least_tail_exact(s, tau, eps, min_tail)


def test_least_tail_threshold_on_the_drifting_sine():
    i = assert_least_tail_exact(drifting_sine(t1=2000.0), TWO_PI, 0.1, TWO_PI)
    assert i is not None and i > 0


# ---------------------------------------------------------------------------
# the three translation sets against a direct oracle
# ---------------------------------------------------------------------------

def _direct_d(s, tau):
    """|s(t+tau) - s(t)| on the grid points where s(t+tau) is sampled."""
    sh = translate(s, tau).values[:, 0]
    return np.abs(sh - s.values[:len(sh), 0])


def _assert_tail_sup(tail_sup, ds, eps):
    """A global or joint tail_sup against the members' differences ``ds``:
    the exact worst sup below 2.2 eps; past it, a value in [2.2 eps, worst
    sup] that is |d| at some grid point of some member."""
    sup = max(float(np.max(d)) for d in ds)
    if sup < 2.2 * eps:
        assert tail_sup == sup
    else:
        assert 2.2 * eps <= tail_sup <= sup
        assert any(np.any(d == tail_sup) for d in ds)


@given(st.integers(0, 10_000), st.floats(min_value=0.02, max_value=0.3), st.booleans(),
       st.sampled_from([np.pi / 2, np.pi, TWO_PI]))
@settings(max_examples=25, deadline=None)
def test_translation_sets_match_a_direct_oracle(seed, eps, refine, step):
    from recurlab.recurrence import MIN_TAIL_SPAN_FRACTION, HullSample

    rng = np.random.default_rng(seed)
    c, a, w, t0 = rng.uniform([0.0, 0.0, 1.2, 0.0], [1.0, 0.5, 2.5, 5.0])
    s = SampledSignal.from_function(
        lambda t: np.sin(t + c * np.log1p(t)) + a * np.sin(w * t + c * np.log1p(w * t)),
        t0, t0 + 200.0, 0.05)
    cands = TauSpec(lo=step * rng.uniform(0.9, 1.1), hi=50.0, step=step, refine=refine)

    for e in translation_set_global(s, eps, cands).entries:
        d = _direct_d(s, e.tau)
        sup = float(np.max(d))
        assert e.accepted == (sup < eps) and e.L == s.t0
        _assert_tail_sup(e.tail_sup, [d], eps)
        assert not e.refined or (e.accepted and e.tau > 0)

    tail_steps = max(1, int(np.ceil(max(step, MIN_TAIL_SPAN_FRACTION * s.span) / s.dt)))
    for e in translation_set_remote(s, eps, cands).entries:
        d = _direct_d(s, e.tau)
        i_max = len(d) - 1 - tail_steps
        if not e.accepted:
            assert e.tail_sup == float(np.max(d[i_max:])) >= eps
            assert not e.refined
            continue
        assert e.tau > 0
        i = round((e.L - s.t0) / s.dt)
        assert e.L == s.t0 + i * s.dt and 0 <= i <= i_max
        assert e.tail_sup == float(np.max(d[i:])) < eps
        assert i == 0 or np.max(d[i - 1:]) >= eps  # from L - dt the tail fails

    members = [SampledSignal.from_function(np.sin, t0, t0 + 200.0, 0.05),
               SampledSignal.from_function(lambda t: np.sin(t) + a * np.sin(w * t),
                                           t0, t0 + 200.0, 0.05)]
    hull = HullSample(members, np.zeros(2), members[0].domain)
    _, joint = equi_ap_test(hull, eps, cands)
    for e in joint.entries:
        ds = [_direct_d(m, e.tau) for m in members]
        assert e.accepted == all(np.max(d) < eps for d in ds) and e.L == hull.window.a
        _assert_tail_sup(e.tail_sup, ds, eps)
        assert not e.refined or (e.accepted and e.tau > 0)
