import numpy as np
import pytest

from recurlab import maps
from recurlab.catalog import build_forcing
from recurlab.errors import EmptyDomainError, NonFiniteValueError, WindowOutOfDomainError
from recurlab.flows import IVP, RhsSpec, hull_solutions, integrate
from recurlab.maps import MapSpec, asymptotic_period, discrete_fiber_count, iterate
from recurlab.recurrence import TauSpec, translation_set_remote
from recurlab.signal import SampledSignal, Window, translate


def test_iterate_halving():
    sol = iterate(MapSpec("catalog:affine", params={"a": 0.5}), 1.0, 30)
    assert np.array_equal(sol.values[:, 0], 0.5 ** np.arange(31))
    assert sol.dt == 1.0


def test_iterate_increment():
    m = MapSpec("expr", expr=(["+", ["x", 0], ["const", 1.0]],))
    sol = iterate(m, 2.0, 10)
    assert np.array_equal(sol.values[:, 0], 2.0 + np.arange(11))


def test_iterate_forced_sum_oracle():
    # u(t+1) = u/2 + sin t: u(50) equals the direct convolution sum exactly
    f = build_forcing("sin", 0.0, 60.0, 1.0)
    sol = iterate(MapSpec("catalog:affine", params={"a": 0.5}, forcing=f), 0.0, 50)
    acc = 0.0
    for k in range(50):
        acc = 0.5 * acc + np.sin(k)
    assert abs(sol.values[50, 0] - acc) <= 1e-12


def test_iterate_bit_identical_reruns():
    f = build_forcing("two_tone", 0.0, 200.0, 1.0)
    m = MapSpec("catalog:affine", params={"a": 0.7}, forcing=f)
    a = iterate(m, 0.1, 150)
    b = iterate(m, 0.1, 150)
    assert np.array_equal(a.values, b.values)


def test_iterate_overflow_guard():
    m = MapSpec("expr", expr=(["*", ["x", 0], ["const", 10.0]],))
    with pytest.raises(NonFiniteValueError):
        iterate(m, 1.0, 100)


def test_iterate_requires_steps():
    with pytest.raises(ValueError):
        iterate(MapSpec("catalog:negate"), 1.0, 0)


def test_asymptotic_period_detection():
    per = SampledSignal(t0=0.0, dt=1.0, values=np.array([1.0, -1.0] * 20))
    assert asymptotic_period(per, 1e-9) == 2
    const = SampledSignal(t0=0.0, dt=1.0, values=np.ones(40))
    assert asymptotic_period(const, 1e-9) == 1


def test_negate_map_period_two():
    sol = iterate(MapSpec("catalog:negate"), 1.0, 20)
    assert asymptotic_period(sol, 1e-12) == 2
    assert np.array_equal(sol.values[:4, 0], [1.0, -1.0, 1.0, -1.0])


def test_remotely_stationary_forcing_gives_fixed_point():
    # u(t+1) = u/2 + c + 1/(1+t): the fiber point is the fixed point 2c
    c = 0.4
    f = build_forcing("remotely_stationary", 0.0, 700.0, 1.0, {"c": c})
    m = MapSpec("catalog:affine", params={"a": 0.5}, forcing=f)
    rep = discrete_fiber_count(m, [0, 3], [np.array([0.0]), np.array([5.0])],
                               n_steps=600, burn_in=500, cluster_tol=0.02)
    assert rep.m == 1 and rep.constant
    assert all(p == [1] for p in rep.periods.values())
    sol = iterate(m, 0.0, 600)
    assert abs(sol.values[-1, 0] - 2 * c) < 0.01


def test_two_periodic_forcing_period_divides_two():
    f = build_forcing("alternating", 0.0, 130.0, 1.0)
    m = MapSpec("catalog:affine", params={"a": 0.5}, forcing=f)
    rep = discrete_fiber_count(m, [0, 1], [np.array([0.0]), np.array([1.0]), np.array([-2.0])],
                               n_steps=60, burn_in=40, cluster_tol=1e-6)
    assert rep.m == 1 and rep.constant
    for periods in rep.periods.values():
        assert periods[0] in (1, 2)
    # the limit orbit is {-2/3, 2/3}
    sol = iterate(m, 0.0, 60)
    tail = np.sort(np.unique(np.round(sol.values[-10:, 0], 6)))
    assert np.allclose(tail, [-2.0 / 3.0, 2.0 / 3.0], atol=1e-5)


def test_discrete_drifting_sine_is_rap_with_integer_translations():
    # no 2*pi multiple is an integer, yet the integer translation set of
    # sin(n + ln(1+n)) is relatively dense (three-distance clustering of
    # near-multiples of 2*pi)
    n = np.arange(0, 20001)
    s = SampledSignal(t0=0.0, dt=1.0, values=np.sin(n + np.log1p(n)), label="disc")
    ts = translation_set_remote(s, 0.3, TauSpec(lo=1.0, hi=2000.0, step=1.0, refine=False))
    assert ts.relatively_dense()
    accepted = set(ts.accepted_taus().astype(int))
    # 44 ~ 7 * 2*pi is the classic near-period
    assert 44 in accepted


# ---------------------------------------------------------------------------
# hull translates: member k reads the system at t + h_k
# ---------------------------------------------------------------------------

def _time_shifted_sine(h):
    # x -> -x + sin(t + h) as an expression tree; h = 0 keeps the ["t"] node bare
    t = ["t"] if h == 0 else ["+", ["t"], ["const", h]]
    return ["+", ["*", ["const", -1.0], ["x", 0]], ["sin", t]]


def test_hull_translate_shifts_the_time_nodes_of_maps_and_flows(monkeypatch):
    # the translate g^h(t, u) = g(t + h, u) must move ["t"] nodes too, not
    # only the forcing: u -> 0.5 u + sin t with h = 3 drifts 2.63 away from
    # the true translate in 40 steps when only the forcing moves
    h, n = 3, 40
    m = MapSpec("expr", expr=(["+", ["*", ["const", 0.5], ["x", 0]], ["sin", ["t"]]],))
    orbits = []
    clusters = maps.fiber_clusters

    def record(runs, burn_in, tol):
        runs = list(runs)
        orbits.extend(runs)
        return clusters(runs, burn_in, tol)

    monkeypatch.setattr(maps, "fiber_clusters", record)
    discrete_fiber_count(m, [0, h], [np.array([0.2])], n_steps=n, burn_in=30,
                         cluster_tol=1e-6)
    assert [k for k, _ in orbits] == [0, h]
    written = MapSpec("expr", expr=(["+", ["*", ["const", 0.5], ["x", 0]],
                                     ["sin", ["+", ["t"], ["const", float(h)]]]],))
    assert np.array_equal(orbits[1][1].values, iterate(written, 0.2, n).values)
    assert np.array_equal(orbits[0][1].values, iterate(m, 0.2, n).values)

    # flows: a hull member is the solo run of the written-out f(t + h, x)
    rhs = RhsSpec("expr", expr=(_time_shifted_sine(0),))
    member = hull_solutions(rhs, [2.5], [(0.3,)], 10.0, out_dt=0.01)[0].sol
    solo = integrate(IVP(RhsSpec("expr", expr=(_time_shifted_sine(2.5),)), (0.3,),
                         Window(0.0, 10.0), out_dt=0.01))
    assert np.array_equal(member.values, solo.values)


@pytest.mark.parametrize("fid", ["alternating", "heq1_forcing"])
def test_stacked_iteration_equals_per_member_iterate(fid):
    # K members in one loop give the solo orbits bit for bit: offset 0 is
    # iterate itself, offset h is iterate under the h-translated forcing
    f = build_forcing(fid, 0.0, 130.0, 1.0)
    m = MapSpec("catalog:affine", params={"a": 0.5}, forcing=f)
    x0s = [np.array([0.0]), np.array([1.0]), np.array([-2.0])]
    for hs in ([0, 0, 0], [0, 1, 7]):
        orbits = maps._iterate_family(m, x0s, hs, 60)
        for h, x0, orbit in zip(hs, x0s, orbits):
            solo = iterate(MapSpec("catalog:affine", params={"a": 0.5},
                                   forcing=translate(f, float(h))), x0, 60)
            assert np.array_equal(orbit.values, solo.values)
            assert orbit.label == solo.label


def test_discrete_fiber_count_refuses_shifts_outside_the_forcing():
    m = MapSpec("catalog:affine", forcing=build_forcing("alternating", 0.0, 30.0, 1.0))
    with pytest.raises(ValueError):
        discrete_fiber_count(m, [-1], [np.array([0.0])], n_steps=10, burn_in=5, cluster_tol=0.1)
    with pytest.raises(EmptyDomainError):
        discrete_fiber_count(m, [31], [np.array([0.0])], n_steps=10, burn_in=5, cluster_tol=0.1)


def test_iteration_refuses_to_read_the_forcing_past_its_span():
    # the map reads its forcing at t + h for t = 0, ..., n_steps - 1
    m = MapSpec("catalog:affine", forcing=build_forcing("alternating", 0.0, 30.0, 1.0))
    assert len(iterate(m, [0.0], 31)) == 32
    with pytest.raises(WindowOutOfDomainError, match=r"\[0.0, 31.0\]"):
        iterate(m, [0.0], 32)
    discrete_fiber_count(m, [0, 10], [np.array([0.0])], n_steps=21, burn_in=5, cluster_tol=0.1)
    with pytest.raises(WindowOutOfDomainError, match=r"\[0.0, 31.0\]"):
        discrete_fiber_count(m, [0, 10], [np.array([0.0])], n_steps=22, burn_in=5,
                             cluster_tol=0.1)


def test_an_expression_map_reads_the_forcing_as_the_catalog_map_does():
    # u -> 0.5 u + forcing(t) as affine and as an expression, on a forcing
    # grid the integer times fall between: one orbit, and a stacked family
    # whose members read the forcing at their own shifted times
    f = build_forcing("rap_sin_log", 0.0, 50.0, 0.3)
    specs = (MapSpec("catalog:affine", forcing=f),
             MapSpec("expr", expr=(["+", ["*", ["const", 0.5], ["x", 0]], ["forcing"]],),
                     forcing=f))
    cat, ex = (iterate(m, [0.7], 40).values for m in specs)
    assert cat.tobytes() == ex.tobytes()
    cat, ex = ([o.values.tobytes() for o in maps._iterate_family(
        m, [[0.7], [-1.0], [0.7], [2.0]], [0.0, 0.0, 1.5, 4.2], 40)] for m in specs)
    assert cat == ex


def test_negative_shift_is_refused_without_a_forcing():
    # hulls are built from h >= 0, as translate requires; a system whose
    # time dependence sits in ["t"] nodes has no forcing to check it against
    m = MapSpec("expr", expr=(["+", ["*", ["const", 0.5], ["x", 0]], ["sin", ["t"]]],))
    with pytest.raises(ValueError):
        discrete_fiber_count(m, [0, -3], [np.array([0.2])], n_steps=10, burn_in=5,
                             cluster_tol=0.1)
    rhs = RhsSpec("expr", expr=(_time_shifted_sine(0),))
    with pytest.raises(ValueError):
        hull_solutions(rhs, [0.0, -3.0], [(0.3,)], 5.0, out_dt=0.01)
