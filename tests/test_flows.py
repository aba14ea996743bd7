import math
import warnings

import numpy as np
import pytest

from recurlab import flows
from recurlab.catalog import RHS_CATALOG, build_forcing
from recurlab.errors import (
    BadOrderError,
    NonFiniteRhsError,
    RecurlabError,
    StepSizeUnderflowError,
    WindowOutOfDomainError,
)
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
from recurlab.signal import SampledSignal, Window

from helpers import contraction_modulus


@pytest.fixture(scope="module")
def sin_forcing():
    return build_forcing("sin", 0.0, 80.0, 0.002)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_linear_decay():
    sol = integrate(IVP(RhsSpec("catalog:linear_decay"), (1.0,), Window(0, 10),
                        1e-10, 1e-12))
    assert abs(sol.values[-1, 0] - np.exp(-10)) <= 1e-7


def test_integrate_zero_field_is_constant():
    sol = integrate(IVP(RhsSpec("catalog:zero"), (0.7,), Window(0, 5)))
    assert np.max(np.abs(sol.values - 0.7)) == 0.0


def test_integrate_norm_decay_closed_form():
    # x' = -|x| x from 1 solves x(t) = 1/(1+t)
    sol = integrate(IVP(RhsSpec("catalog:norm_decay"), (1.0,), Window(0, 9),
                        1e-10, 1e-12))
    assert abs(sol.values[-1, 0] - 0.1) <= 1e-6


def test_integrate_rejects_nonfinite_rhs():
    rhs = RhsSpec("expr", expr=(["ln", ["x", 0]],))
    with pytest.raises(NonFiniteRhsError):
        integrate(IVP(rhs, (-1.0,), Window(0, 1)))


def test_integrate_deterministic(sin_forcing):
    rhs = RhsSpec("catalog:heq1", forcing=sin_forcing)
    a = integrate(IVP(rhs, (0.3,), Window(0, 20), out_dt=0.01))
    b = integrate(IVP(rhs, (0.3,), Window(0, 20), out_dt=0.01))
    assert np.array_equal(a.values, b.values)


#: one-component states at the edges of the double range: signed zeros,
#: subnormals, squares that underflow or overflow, infinities and NaN
ONE_COMPONENT_STATES = [0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e-200, 1.3e154, -1.4e154, 1e300,
                        math.inf, -math.inf, math.nan]
#: every catalog rhs with its default params, and linear_decay with an int
#: rate (as YAML gives `rate: 2`) and a float one
ONE_COMPONENT_RHS = ([(rid, {}) for rid in RHS_CATALOG]
                     + [("linear_decay", {"rate": 2}), ("linear_decay", {"rate": 0.7})])


def _same_bits(a, b):
    # a NaN counts equal to any NaN; otherwise every bit, the sign of zero too
    a, b = np.float64(a), np.float64(b)
    return bool(np.isnan(a) and np.isnan(b)) or a.view(np.int64) == b.view(np.int64)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("rid, params", ONE_COMPONENT_RHS, ids=[
    rid + "".join(f"_{key}={v!r}" for key, v in params.items())
    for rid, params in ONE_COMPONENT_RHS])
def test_one_component_form_is_the_numpy_form_bit_for_bit(rid, params, forced):
    forcing = build_forcing("heq1_forcing", 0.0, 10.0, 0.01) if forced else None
    f = RHS_CATALOG[rid]["builder"](params, forcing)
    one = RHS_CATALOG[rid]["one"](params, forcing)
    # the first sample; a grid point, which t/dt = 776.99... puts a hair
    # below its node; a mid-cell time; a time 0.31 into its cell; the last
    # sample. At 7.77 and 2.5031 the blend a + fr (b - a) rounds differently
    # from scalar_interp's
    times = [0.0, 7.77, 0.375, 2.5031, 10.0] if forced else [0.0, 1.0]
    for t in times:
        for x in ONE_COMPONENT_STATES:
            got = one(t, x)
            assert type(got) is float
            with np.errstate(over="ignore"):
                # one (1,) state at a scalar t, and a (1, 1) stack at one time
                # per state, which reads the forcing's array branch
                plain = f(t, np.array([x]))
                stacked = f(np.array([t]), np.array([[x]]))
            assert plain.shape == (1,) and stacked.shape == (1, 1)
            assert _same_bits(got, plain[0]), (t, x, got, plain[0])
            assert _same_bits(got, stacked[0, 0]), (t, x, got, stacked[0, 0])


#: solves on the forcing sin on [0, 80]: (run, whether it reads past t = 80)
FORCING_READS = {
    "main_span": (lambda f: integrate(IVP(RhsSpec("catalog:heq1", forcing=f), (0.0,),
                                          Window(0, 81))), True),
    "hull_shift_plus_horizon": (lambda f: hull_solutions(
        RhsSpec("catalog:heq1", forcing=f), [0.0, 50.0], [(0.0,)], 31.0), True),
    "hull_to_the_end": (lambda f: hull_solutions(
        RhsSpec("catalog:heq1", forcing=f), [0.0, 50.0], [(0.0,)], 30.0), False),
    "stability_restart_plus_horizon": (lambda f: uniform_stability_probe(
        RhsSpec("catalog:heq1", forcing=f),
        integrate(IVP(RhsSpec("catalog:heq1", forcing=f), (0.0,), Window(0, 60), out_dt=0.1)),
        [0.1], [0.5], [0.0, 50.0], 31.0), True),
}


@pytest.mark.parametrize("case", list(FORCING_READS))
def test_solves_refuse_to_read_the_forcing_past_its_span(case, sin_forcing):
    run, past = FORCING_READS[case]
    if past:
        with pytest.raises(WindowOutOfDomainError, match=r"spans \[0.0, 80.0\]"):
            run(sin_forcing)
    else:
        run(sin_forcing)


#: linear_decay, x' = -x + forcing, written as an expression
LINEAR_DECAY_EXPR = (["+", ["neg", ["x", 0]], ["forcing"]],)


def test_an_expression_field_reads_the_forcing_as_the_catalog_field_does():
    # one forcing reader serves both fields, so their solves agree bit for
    # bit: one state, and a hull family of 3 shifts x 2 states stacked (one
    # forcing time per member)
    f = build_forcing("rap_sin_log", 0.0, 60.0, 0.01)
    specs = (RhsSpec("catalog:linear_decay", forcing=f),
             RhsSpec("expr", expr=LINEAR_DECAY_EXPR, forcing=f))
    cat, ex = (integrate(IVP(rhs, (0.3,), Window(0, 40), out_dt=0.05)) for rhs in specs)
    assert cat.values.tobytes() == ex.values.tobytes()
    cat, ex = ([run.sol.values.tobytes() for run in hull_solutions(
        rhs, [0.0, 3.7, 11.2], [(0.3,), (-1.0,)], 40.0, out_dt=0.05)] for rhs in specs)
    assert len(cat) == 6 and cat == ex


def test_an_expression_field_reads_the_real_part_of_a_complex_forcing():
    forcing = SampledSignal(t0=0.0, dt=0.5, values=[[1 + 2j, 5j], [3 - 1j, 1 + 1j],
                                                    [-2 + 0.5j, 0j]])
    f = RhsSpec("expr", expr=(["forcing"], ["forcing", 1]), forcing=forcing).build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no ComplexWarning from a discarded imaginary part
        assert f(0.25, np.zeros(2)).tolist() == [2.0, 0.5]
        assert f(np.array([0.25, 0.75]), np.zeros((2, 2))).tolist() == [[2.0, 0.5], [0.5, 0.5]]


# ---------------------------------------------------------------------------
# the in-house RK45 against scipy's
# ---------------------------------------------------------------------------

def _scipy_rk45(fun, t_span, y0, **kwargs):
    from scipy.integrate import solve_ivp

    return solve_ivp(fun, t_span, y0, method="RK45", dense_output=True, **kwargs)


def _solves_with(monkeypatch, solver, run):
    """run() with flows.solve_ivp bound to ``solver``: its result (or the
    RecurlabError it raised) and, per solve, [field calls, status, message,
    nfev, accepted step ends]."""
    solves = []

    def recording(fun, *args, **kwargs):
        rec = [0]
        solves.append(rec)

        def counted(t, y):
            rec[0] += 1
            return fun(t, y)

        r = solver(counted, *args, **kwargs)
        rec += [r.status, r.message, r.nfev, r.t.tolist()]
        return r

    monkeypatch.setattr(flows, "solve_ivp", recording)
    try:
        return run(), solves
    except RecurlabError as exc:
        return exc, solves


def _linear(rate):
    return RhsSpec("expr", expr=(["*", ["const", -rate], ["x", 0]],))


#: runs through flows whose one solve must match scipy's RK45
RK45_CASES = {
    "heq1_k1": lambda f: [integrate(IVP(RhsSpec("catalog:heq1", forcing=f), (0.3,),
                                        Window(0, 40), 1e-6, 1e-9, out_dt=0.01))],
    "hull_k9": lambda f: [r.sol for r in hull_solutions(
        RhsSpec("catalog:heq1", forcing=f), [0.0, 5.0, 10.0], [(-1.0,), (0.0,), (1.0,)],
        10.0, 1e-6, 1e-9, out_dt=0.05)],
    "rejected_steps": lambda f: [integrate(IVP(_linear(50.0), (1.0,), Window(0, 10),
                                               1e-4, 1e-6))],
    "blow_up": lambda f: integrate(IVP(RhsSpec("expr", expr=(["*", ["x", 0], ["x", 0]],)),
                                       (1.0,), Window(0, 2))),
    "non_finite": lambda f: integrate(IVP(
        RhsSpec("expr", expr=(["ln", ["-", ["const", 1.0], ["t"]]],)), (0.5,), Window(0, 2))),
    # the member shifted by 0.5 reads ln of a negative number first
    "non_finite_k2": lambda f: hull_solutions(
        RhsSpec("expr", expr=(["ln", ["-", ["const", 1.0], ["t"]]],)), [0.0, 0.5], [(0.5,)],
        2.0),
    # heq1 on a forcing with one NaN sample, which its one-component form reads
    "non_finite_forcing": lambda f: integrate(IVP(
        RhsSpec("catalog:heq1", forcing=_forcing_with_a_nan(1.0)), (0.3,), Window(0, 2))),
    # 20,001 dense samples over 2,000 steps: handing np.dot each step's power
    # block as a strided slice instead of a C-contiguous copy changes one of
    # them here (t = 72.58) by 6.9e-18
    "dense_long": lambda f: [integrate(IVP(
        RhsSpec("catalog:heq1", forcing=build_forcing("heq1_forcing", 0.0, 400.0, 0.01)),
        (0.0,), Window(0, 400), 1e-6, 1e-9, out_dt=0.02))],
}


@pytest.mark.parametrize("case", list(RK45_CASES))
def test_solve_ivp_is_scipy_rk45_bit_for_bit(case, monkeypatch, sin_forcing):
    def run():
        return RK45_CASES[case](sin_forcing)

    ours, our_solves = _solves_with(monkeypatch, flows.solve_ivp, run)
    theirs, their_solves = _solves_with(monkeypatch, _scipy_rk45, run)
    # same field calls, status, message, nfev and step ends
    assert len(our_solves) == 1 and our_solves == their_solves
    if case == "blow_up":
        assert isinstance(ours, StepSizeUnderflowError) and type(theirs) is type(ours)
        assert str(ours) == str(theirs) == flows.TOO_SMALL_STEP
    elif case.startswith("non_finite"):
        # the message names the time of the first non-finite value
        assert isinstance(ours, NonFiniteRhsError) and type(theirs) is type(ours)
        assert str(ours) == str(theirs) and str(ours) != "rhs non-finite at t=0.0"
    else:
        assert all(np.array_equal(a.values, b.values) for a, b in zip(ours, theirs))
        calls, status, _, nfev, ends = our_solves[0]
        assert status == 0 and calls == nfev
        if case == "rejected_steps":
            # two calls to start, six per attempted step
            assert (nfev - 2) // 6 > len(ends) - 1


def _forcing_with_a_nan(t_nan):
    # SampledSignal refuses NaN samples, so plant one after construction; the
    # field reads it at every t within one grid step (0.1) of t_nan
    forcing = build_forcing("sin", 0.0, 80.0, 0.1)
    values = forcing.values.copy()
    values[forcing._index_of(t_nan), 0] = np.nan
    object.__setattr__(forcing, "values", values)
    return forcing


#: single-state solves of catalog fields, which run their one-component form
NUMPY_FIELD_SOLVES = {
    "heq1_flagship": lambda: IVP(
        RhsSpec("catalog:heq1", forcing=build_forcing("heq1_forcing", 0.0, 400.0, 0.01)),
        (0.0,), Window(0, 400), 1e-6, 1e-9, out_dt=0.02),
    "linear_decay_sin": lambda: IVP(
        RhsSpec("catalog:linear_decay", {"rate": 2},
                forcing=build_forcing("sin", 0.0, 80.0, 0.002)),
        (1.0,), Window(0, 80), out_dt=0.01),
    "heq1_nan_forcing": lambda: IVP(
        RhsSpec("catalog:heq1", forcing=_forcing_with_a_nan(10.0)), (0.3,), Window(0, 40)),
}


@pytest.mark.parametrize("case", list(NUMPY_FIELD_SOLVES))
def test_integrate_is_the_numpy_field_solve(case, monkeypatch):
    # integrate's solve against solve_ivp on the numpy form of the field:
    # the same step ends, nfev, dense coefficients and dense values, or the
    # same NonFiniteRhsError
    ivp = NUMPY_FIELD_SOLVES[case]()
    f = ivp.rhs.build()

    def numpy_field(t, y):
        v = f(t, y)
        if not np.isfinite(v).all():
            raise NonFiniteRhsError(f"rhs non-finite at t={t}")
        return v

    solve_ivp = flows.solve_ivp
    ours = []

    def recording(*args, **kwargs):
        ours.append(solve_ivp(*args, **kwargs))
        return ours[-1]

    monkeypatch.setattr(flows, "solve_ivp", recording)
    span = (ivp.t_span.a, ivp.t_span.b)
    if case == "heq1_nan_forcing":
        with pytest.raises(NonFiniteRhsError) as theirs:
            solve_ivp(numpy_field, span, np.array(ivp.x0), ivp.rel_tol, ivp.abs_tol)
        with pytest.raises(NonFiniteRhsError) as got:
            integrate(ivp)
        assert str(got.value) == str(theirs.value)
        assert abs(float(str(got.value).split("t=")[1]) - 10.0) < 0.1
        return
    sol = integrate(ivp)
    theirs = solve_ivp(numpy_field, span, np.array(ivp.x0), ivp.rel_tol, ivp.abs_tol)
    (ours,) = ours
    assert ours.status == theirs.status == 0 and ours.nfev == theirs.nfev
    assert ours.t.tobytes() == theirs.t.tobytes()
    assert len(ours.steps) == len(theirs.steps)
    assert all(y.tobytes() == yt.tobytes() and q.tobytes() == qt.tobytes()
               for (y, q), (yt, qt) in zip(ours.steps, theirs.steps))
    ts = np.minimum(sol.times(), ivp.t_span.b)
    assert sol.values.tobytes() == theirs.sol(ts).T.tobytes()


def test_a_single_state_whose_square_overflows_is_non_finite():
    # x * x overflows at x0 = 1e155: the field value is -inf at the first
    # call, and the solve ends in NonFiniteRhsError with no RuntimeWarning
    with pytest.raises(NonFiniteRhsError, match=r"t=0\.0$"):
        integrate(IVP(RhsSpec("catalog:heq1"), (1e155,), Window(0, 1)))


def test_field_guard_passes_finite_members_whose_sum_overflows(monkeypatch):
    # two members near 1e308: each field value is finite, their sum is inf
    first_values = []

    def first_call_only(fun, t_span, y0, rtol, atol):
        first_values.append(fun(t_span[0], y0))
        return solve_ivp(lambda t, y: -y, t_span, np.zeros_like(y0), rtol, atol)

    solve_ivp = flows.solve_ivp
    monkeypatch.setattr(flows, "solve_ivp", first_call_only)
    hull_solutions(RhsSpec("catalog:linear_decay"), [0.0], [(-1e308,), (-1.5e308,)], 1.0)
    values = first_values[0].tolist()
    assert values == [1e308, 1.5e308] and sum(values) == float("inf")


def test_solve_ivp_raises_a_tiny_rtol_with_a_warning():
    grid = np.linspace(0.0, 1.0, 101)
    sols = []
    for solver in (flows.solve_ivp, _scipy_rk45):
        with pytest.warns(UserWarning, match="rtol"):
            sols.append(solver(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                               rtol=1e-16, atol=1e-12))
    ours, theirs = sols
    assert ours.nfev == theirs.nfev and np.array_equal(ours.sol(grid), theirs.sol(grid))


# ---------------------------------------------------------------------------
# Condition (H)
# ---------------------------------------------------------------------------

def test_condition_h_holds_for_norm_decay():
    p = ConditionHParams(kappa=0.5, alpha=3.0, sample_box=((-10.0,), (10.0,)),
                         n_pairs=2000)
    assert condition_h_margin(RhsSpec("catalog:norm_decay"), p, [0.0]) >= 0.0


def test_condition_h_vector_case():
    p = ConditionHParams(kappa=0.5, alpha=3.0,
                         sample_box=((-5.0, -5.0), (5.0, 5.0)), n_pairs=2000)
    assert condition_h_margin(RhsSpec("catalog:norm_decay"), p, [0.0]) >= 0.0


def test_condition_h_linear_scale_dependence():
    # -r^2 <= -r^3/2 iff r <= 2: on a small box the linear field passes,
    # on |x| <= 10 the pair separation reaches 20 and the margin goes negative
    small = ConditionHParams(kappa=0.5, alpha=3.0, sample_box=((-0.1,), (0.1,)),
                             n_pairs=2000)
    big = ConditionHParams(kappa=0.5, alpha=3.0, sample_box=((-10.0,), (10.0,)),
                           n_pairs=2000)
    rhs = RhsSpec("catalog:linear_decay")
    assert condition_h_margin(rhs, small, [0.0]) >= 0.0
    assert condition_h_margin(rhs, big, [0.0]) < 0.0


def test_condition_h_fails_for_zero_field():
    p = ConditionHParams(kappa=0.5, alpha=3.0, sample_box=((-1.0,), (1.0,)),
                         n_pairs=2000)
    assert condition_h_margin(RhsSpec("catalog:zero"), p, [0.0]) < 0.0


def test_condition_h_params_validation():
    with pytest.raises(ValueError):
        ConditionHParams(kappa=0.5, alpha=2.0, sample_box=((-1.0,), (1.0,)))
    with pytest.raises(ValueError):
        ConditionHParams(kappa=-1.0, alpha=3.0, sample_box=((-1.0,), (1.0,)))


#: heq1, x' = -|x| x + forcing, written as an expression
HEQ1_EXPR = (["+", ["*", ["neg", ["norm"]], ["x", 0]], ["forcing"]],)


@pytest.mark.parametrize("kind, expr", [("catalog:heq1", None), ("expr", HEQ1_EXPR)])
def test_condition_h_refuses_sample_times_past_its_forcing(kind, expr):
    # the catalog field would extrapolate the forcing, which cancels in the
    # margin, and report 0.0 for t = 1e6; both forms refuse before sampling
    rhs = RhsSpec(kind, expr=expr, forcing=build_forcing("sin", 0.0, 10.0, 0.01))
    p = ConditionHParams(kappa=0.5, alpha=3.0, sample_box=((-10.0,), (10.0,)), n_pairs=2000)
    assert condition_h_margin(rhs, p, [0.0, 10.0]) >= 0.0
    with pytest.raises(WindowOutOfDomainError,
                       match=r"on \[1000000.0, 1000000.0\], but the forcing spans \[0.0, 10.0\]"):
        condition_h_margin(rhs, p, [1e6])


# ---------------------------------------------------------------------------
# contraction bound and attraction time
# ---------------------------------------------------------------------------

def test_contraction_modulus_initial_value():
    for r in (0.0, 0.5, 2.0):
        assert contraction_modulus(0.0, r, 0.5, 3.0) == pytest.approx(r)
    # at kappa = 1 it is the kappa-free form r (1 + (alpha-2) t r^(alpha-2))^(1/(2-alpha))
    ts = np.linspace(0, 10, 11)
    r, alpha = 1.5, 3.0
    assert np.allclose(contraction_modulus(ts, r, 1.0, alpha),
                       r * (1 + (alpha - 2) * ts * r ** (alpha - 2)) ** (1 / (2 - alpha)))


def test_attraction_time_closed_forms():
    assert attraction_time(1.0, 0.1, 1.0, 3.0) == pytest.approx(9.0)
    assert attraction_time(1.0, 0.1, 0.5, 3.0) == pytest.approx(18.0)
    # boundary: eps -> delta0 sends L -> 0
    assert attraction_time(1.0, 0.999999, 0.5, 3.0) == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(BadOrderError):
        attraction_time(1.0, 1.0, 0.5, 3.0)


def test_attraction_time_solves_modulus_equation():
    for kappa, alpha, d0, eps in [(0.5, 3.0, 1.0, 0.1), (2.0, 4.0, 2.0, 0.3)]:
        L = attraction_time(d0, eps, kappa, alpha)
        assert contraction_modulus(L, d0, kappa, alpha) == pytest.approx(eps, rel=1e-12)


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def test_separation_linear_decay(sin_forcing):
    rhs = RhsSpec("catalog:linear_decay", forcing=sin_forcing)
    a = integrate(IVP(rhs, (0.0,), Window(0, 10), 1e-10, 1e-12, out_dt=0.005))
    b = integrate(IVP(rhs, (1.0,), Window(0, 10), 1e-10, 1e-12, out_dt=0.005))
    # the least distance over [0, 10] is the final one, e^-10
    assert np.min(np.abs(a.values - b.values)) == pytest.approx(np.exp(-10), abs=1e-7)


# ---------------------------------------------------------------------------
# hull families and fibers
# ---------------------------------------------------------------------------

def test_hull_shift_zero_reproduces_integrate(sin_forcing):
    rhs = RhsSpec("catalog:linear_decay", forcing=sin_forcing)
    runs = hull_solutions(rhs, [0.0], [(0.5,)], 10.0, out_dt=0.01)
    direct = integrate(IVP(rhs, (0.5,), Window(0, 10.0), out_dt=0.01))
    assert np.array_equal(runs[0].sol.values, direct.values)


def test_hull_autonomous_shift_invariance():
    rhs = RhsSpec("catalog:norm_decay")
    runs = hull_solutions(rhs, [0.0, 3.0, 7.0], [(1.0,)], 5.0, out_dt=0.01)
    for run in runs[1:]:
        assert np.allclose(run.sol.values, runs[0].sol.values, atol=1e-9)


def test_cocycle_semigroup_identity(sin_forcing):
    # integrating to tau and restarting on the tau-translated field matches the
    # straight run within 5x the integrator's achieved accuracy (measured
    # against a tighter-tolerance reference; adaptive runs cannot agree more
    # closely than their own global error)
    rhs = RhsSpec("catalog:linear_decay", forcing=sin_forcing)
    tau, t = 5.0, 10.0
    rel, abs_ = 1e-8, 1e-10
    full = integrate(IVP(rhs, (1.0,), Window(0, tau + t), rel, abs_, out_dt=0.01))
    ref = integrate(IVP(rhs, (1.0,), Window(0, tau + t), 1e-12, 1e-14, out_dt=0.01))
    achieved = max(np.max(np.abs(full.values - ref.values)),
                   rel * np.max(np.abs(full.values)) + abs_)
    first = integrate(IVP(rhs, (1.0,), Window(0, tau), rel, abs_, out_dt=0.01))
    mid = tuple(first.values[-1].real)
    second = hull_solutions(rhs, [tau], [mid], t, rel, abs_, out_dt=0.01)[0].sol
    k = round(tau / 0.01)
    defect = np.max(np.abs(full.values[k:k + len(second)] - second.values))
    assert defect <= 5 * achieved


def test_fiber_count_linear_contraction(sin_forcing):
    rhs = RhsSpec("catalog:linear_decay", forcing=sin_forcing)
    runs = hull_solutions(rhs, [0.0, 5.0, 10.0], [(-2.0,), (0.0,), (2.0,)], 40.0,
                          out_dt=0.01)
    rep = fiber_count(runs, burn_in=20.0, cluster_tol=0.01)
    assert rep.m == 1 and rep.constant
    # all trajectories converge to the explicit AP solution (sin t - cos t)/2
    seg = rep.representatives[0.0][0]
    ts = seg.times()
    assert np.max(np.abs(seg.values[:, 0] - (np.sin(ts) - np.cos(ts)) / 2)) < 1e-6


def test_fiber_count_zero_field_counts_initial_conditions():
    rhs = RhsSpec("catalog:zero")
    runs = hull_solutions(rhs, [0.0], [(0.0,), (1.0,)], 10.0, out_dt=0.01)
    rep = fiber_count(runs, burn_in=2.0, cluster_tol=0.5)
    assert rep.per_shift[0.0] == 2
    a, b = rep.representatives[0.0]
    assert np.min(np.abs(a.values - b.values)) == pytest.approx(1.0)


def test_condition_h_certificate_implies_contraction_for_all_pairs(sin_forcing):
    # Lemma-level coherence: the sampled margin is nonnegative, so every
    # initial-condition pair obeys the kappa-aware bound
    p = ConditionHParams(kappa=0.5, alpha=3.0, sample_box=((-3.0,), (3.0,)), n_pairs=2000)
    assert condition_h_margin(RhsSpec("catalog:norm_decay"), p, [0.0]) >= 0.0
    # |x1(t) - x2(t)| <= omega_kappa(t, |x1(0) - x2(0)|) on the whole grid, up
    # to 1e-6 of integrator error
    rhs = RhsSpec("catalog:heq1", forcing=sin_forcing)
    sols = {x0: integrate(IVP(rhs, (x0,), Window(0, 60), 1e-10, 1e-12, out_dt=0.01))
            for x0 in (-3.0, -1.0, 0.0, 0.5, 2.0, 3.0)}
    pairs = [(-3.0, 3.0), (-1.0, 0.5), (0.5, 3.0), (0.0, 2.0)]
    for a, b in pairs:
        dist = np.abs(sols[a].values[:, 0] - sols[b].values[:, 0])
        viol = np.max(dist - contraction_modulus(sols[a].times(), dist[0], 0.5, 3.0))
        assert viol <= 1e-6, f"pair {a},{b} violates by {viol}"


def test_default_burn_in_from_condition_h():
    from recurlab.flows import default_burn_in

    p = ConditionHParams(kappa=0.5, alpha=3.0, sample_box=((-1.0,), (1.0,)))
    # attraction_time(diameter 2, cluster_tol 0.05) at kappa=1/2, alpha=3
    assert default_burn_in(p, 0.05) == pytest.approx(attraction_time(2.0, 0.05, 0.5, 3.0))


def test_fiber_count_stable_under_tolerance_refinement():
    rhs = RhsSpec("catalog:zero")
    runs = hull_solutions(rhs, [0.0, 1.0], [(0.0,), (1.0,)], 10.0, out_dt=0.01)
    coarse = fiber_count(runs, burn_in=2.0, cluster_tol=0.5)
    fine = fiber_count(runs, burn_in=2.0, cluster_tol=0.25)
    assert coarse.m == fine.m == 2


def test_boundedness_of_forced_norm_decay():
    # |x| stays below max(|x0|, 1 + sup|b|) for x' = -|x|x + b(t)
    f = build_forcing("heq1_forcing", 0.0, 60.0, 0.002)
    rhs = RhsSpec("catalog:heq1", forcing=f)
    bound = max(0.5, 1.0 + float(np.max(np.abs(f.values))))
    sol = integrate(IVP(rhs, (0.5,), Window(0, 50), out_dt=0.01))
    assert np.max(np.abs(sol.values)) <= bound + 1e-9


def test_zero_field_stable_but_not_attracting():
    rhs = RhsSpec("catalog:zero")
    ref = integrate(IVP(rhs, (0.0,), Window(0, 30), out_dt=0.01))
    probe = uniform_stability_probe(rhs, ref, delta_grid=[0.05, 0.1, 0.5],
                                    eps_grid=[0.1], restart_times=[0.0, 5.0],
                                    horizon=10.0)
    # uniformly stable: delta(eps) = eps; not attracting: no finite re-entry
    assert probe["stability"][0.1] == pytest.approx(0.1)
    assert np.isinf(probe["attraction"][0.1])


def test_uniform_stability_linear_decay(sin_forcing):
    rhs = RhsSpec("catalog:linear_decay", forcing=sin_forcing)
    ref = integrate(IVP(rhs, (0.0,), Window(0, 70), 1e-10, 1e-12, out_dt=0.005))
    probe = uniform_stability_probe(rhs, ref, delta_grid=[0.05, 0.1, 1.0],
                                    eps_grid=[0.1], restart_times=[0.0, 10.0, 30.0],
                                    horizon=20.0, rel_tol=1e-10, abs_tol=1e-12)
    # linear contraction: delta(eps) = eps and L(eps) = ln(delta0/eps)
    assert probe["stability"][0.1] == pytest.approx(0.1)
    assert probe["attraction"][0.1] == pytest.approx(np.log(10), rel=0.1)


# ---------------------------------------------------------------------------
# stacked families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["catalog:linear_decay", "catalog:norm_decay"])
def test_stacked_members_stay_within_their_solo_error(kind, sin_forcing):
    # six members in one solve at rtol/sqrt(6): each stays within twice the
    # error its own run achieves against a reference 10^4 times tighter
    # (heq1 is left out: with the kinks of its tabulated forcing, solo and
    # stacked runs alike miss the tolerance by up to about 20x, so neither
    # bounds the other)
    rhs = RhsSpec(kind, forcing=sin_forcing if kind == "catalog:linear_decay" else None)
    rel, abs_ = 1e-6, 1e-9
    runs = hull_solutions(rhs, [0.0, 3.0, 7.5], [(-1.0,), (2.0,)], 10.0,
                          rel_tol=rel, abs_tol=abs_, out_dt=0.01)
    assert [(r.shift, r.x0) for r in runs] == [(h, (x,)) for h in (0.0, 3.0, 7.5)
                                               for x in (-1.0, 2.0)]
    for run in runs:
        solo = hull_solutions(rhs, [run.shift], [run.x0], 10.0, rel, abs_, out_dt=0.01)[0].sol
        ref = hull_solutions(rhs, [run.shift], [run.x0], 10.0, 1e-10, 1e-13,
                             out_dt=0.01)[0].sol
        achieved = max(np.max(np.abs(solo.values - ref.values)),
                       rel * np.max(np.abs(solo.values)) + abs_)
        assert np.max(np.abs(run.sol.values - solo.values)) <= 2 * achieved


def _count_solves(monkeypatch):
    calls = []
    real = flows.solve_ivp

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "solve_ivp", counting)
    return calls


def test_hull_family_is_one_solve(monkeypatch, sin_forcing):
    calls = _count_solves(monkeypatch)
    rhs = RhsSpec("catalog:heq1", forcing=sin_forcing)
    runs = hull_solutions(rhs, [0.0, 5.0, 10.0], [(-1.0,), (0.0,), (1.0,)], 10.0,
                          rel_tol=1e-6, abs_tol=1e-9, out_dt=0.05)
    assert len(runs) == 9
    assert calls == [9]


def test_stability_probe_is_one_solve(monkeypatch, sin_forcing):
    rhs = RhsSpec("catalog:heq1", forcing=sin_forcing)
    ref = integrate(IVP(rhs, (0.0,), Window(0, 60), 1e-6, 1e-9, out_dt=0.01))
    calls = _count_solves(monkeypatch)
    probe = uniform_stability_probe(rhs, ref, delta_grid=[0.1, 0.5], eps_grid=[0.2],
                                    restart_times=[0.0, 10.0, 20.0], horizon=20.0,
                                    rel_tol=1e-6, abs_tol=1e-9)
    assert calls == [6]
    assert probe["stability"][0.2] == pytest.approx(0.1)


@pytest.mark.parametrize("kappa", [0.5, 0.3])
def test_condition_h_margin_matches_a_per_pair_loop_bit_for_bit(kappa, sin_forcing):
    # the per-pair reference evaluates the field on one state at a time. On
    # heq1 at kappa = 1/2 the reversed box corners (x1 = -x2 = -10) tie the
    # inequality at 0.0; at kappa = 0.3 the worst pair is a random one
    rhs = RhsSpec("catalog:heq1", forcing=sin_forcing)
    p = ConditionHParams(kappa=kappa, alpha=3.0, sample_box=((-10.0,), (10.0,)),
                         n_pairs=2000)
    f = rhs.build()
    rng = np.random.default_rng(0)
    x1s = np.vstack([rng.uniform(-10.0, 10.0, size=(2000, 1)), [[-10.0], [10.0]] * 2])
    x2s = np.vstack([rng.uniform(-10.0, 10.0, size=(2000, 1)), [[0.0], [0.0], [10.0], [-10.0]]])
    worst = np.inf
    for t in (0.0, 1.0):
        for x1, x2 in zip(x1s, x2s):
            delta = x1 - x2
            nd = np.linalg.norm(delta)
            if nd == 0.0:
                continue
            df = f(t, x1) - f(t, x2)
            worst = min(worst, -p.kappa * nd ** p.alpha - float(np.real(np.dot(delta, df))))
    got = condition_h_margin(rhs, p, [0.0, 1.0])
    assert got == worst
    assert (got == 0.0) == (kappa == 0.5)
