import json

import numpy as np
import pytest

from recurlab.errors import EmptyDomainError, WindowOutOfDomainError
from recurlab.signal import (
    SampledSignal,
    Window,
    d_infinity_estimate,
    read_signal,
    read_signal_csv,
    sup_distance,
    tail_sup_distance,
    translate,
    write_signal,
    write_signal_csv,
)


@pytest.fixture(scope="module")
def sin_signal():
    return SampledSignal.from_function(np.sin, 0.0, 100.0, 0.001, label="sin")


def test_construction_rejects_nonfinite():
    with pytest.raises(ValueError):
        SampledSignal(t0=0.0, dt=0.1, values=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        SampledSignal(t0=0.0, dt=0.1, values=np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        SampledSignal(t0=0.0, dt=-0.1, values=np.array([1.0]))
    with pytest.raises(ValueError):
        SampledSignal(t0=0.0, dt=0.1, values=np.zeros((0, 1)))


def test_domain_is_derived():
    s = SampledSignal(t0=2.0, dt=0.5, values=np.arange(5.0))
    assert s.domain.a == 2.0
    assert s.domain.b == pytest.approx(4.0)
    assert s.span == pytest.approx(2.0)


def test_translate_identity(sin_signal):
    assert translate(sin_signal, 0.0) is sin_signal


def test_translate_two_pi_periodicity(sin_signal):
    shifted = translate(sin_signal, 2 * np.pi)
    assert sup_distance(shifted, sin_signal, Window(0, 50)) <= 1e-5


def test_translate_exhausts_domain():
    s = SampledSignal.from_function(np.sin, 0.0, 10.0, 0.01)
    with pytest.raises(EmptyDomainError):
        translate(s, 11.0)


def test_translate_composition(sin_signal):
    a, b = 1.3, 2.41
    lhs = translate(translate(sin_signal, a), b)
    rhs = translate(sin_signal, a + b)
    w = Window(0, 50)
    # within 2x interpolation tolerance
    assert sup_distance(lhs, rhs, w) <= 2 * (0.001 ** 2) / 8 * 1.1 + 1e-12


def test_sup_distance_identity(sin_signal):
    assert sup_distance(sin_signal, sin_signal, Window(0, 100)) == 0.0


def test_sup_distance_antiphase():
    s = SampledSignal.from_function(np.sin, 0.0, 20.0, 0.001)
    sh = translate(s, np.pi)
    assert sup_distance(sh, s, Window(0, 2 * np.pi)) == pytest.approx(2.0, abs=1e-5)


def test_sup_distance_constants():
    a = SampledSignal(t0=0, dt=1.0, values=np.full(10, 3.0))
    b = SampledSignal(t0=0, dt=1.0, values=np.full(10, 1.0))
    assert sup_distance(a, b, Window(0, 9)) == 2.0


def test_sup_distance_window_validation(sin_signal):
    with pytest.raises(WindowOutOfDomainError):
        sup_distance(sin_signal, sin_signal, Window(0, 200.0))


def test_tail_sup_exponential():
    e = SampledSignal.from_function(lambda t: np.exp(-t), 0, 20, 0.001)
    z = SampledSignal.from_function(lambda t: 0 * t, 0, 20, 0.001)
    assert tail_sup_distance(e, z, 10.0) == pytest.approx(np.exp(-10), abs=1e-6)


def test_tail_sup_identical_any_L(sin_signal):
    for L in (0.0, 17.3, 60.0):
        assert tail_sup_distance(sin_signal, sin_signal, L) == 0.0


def test_tail_sup_sin_vs_zero():
    s = SampledSignal.from_function(np.sin, 0, 50, 0.001)
    z = SampledSignal.from_function(lambda t: 0 * t, 0, 50, 0.001)
    # any tail of length >= 2*pi sees the full amplitude
    assert tail_sup_distance(s, z, 11.0) == pytest.approx(1.0, abs=1e-5)


def test_tail_sup_nonincreasing_in_L():
    s = SampledSignal.from_function(lambda t: np.exp(-0.3 * t) * np.sin(3 * t), 0, 40, 0.005)
    z = SampledSignal.from_function(lambda t: 0 * t, 0, 40, 0.005)
    values = [tail_sup_distance(s, z, L) for L in np.linspace(0, 30, 13)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_d_infinity_examples():
    s1 = SampledSignal.from_function(np.sin, 0, 100, 0.001)
    s2 = SampledSignal.from_function(lambda t: np.sin(t) + np.exp(-t), 0, 100, 0.001)
    assert d_infinity_estimate(s1, s1, 0.25) == 0.0
    assert d_infinity_estimate(s1, s2, 0.25) == pytest.approx(np.exp(-75), abs=1e-6)
    c = SampledSignal.from_function(np.cos, 0, 100, 0.001)
    assert d_infinity_estimate(s1, c, 0.25) == pytest.approx(np.sqrt(2), abs=1e-3)


def test_d_infinity_bounded_by_full_sup():
    s1 = SampledSignal.from_function(lambda t: np.sin(t) + 0.4 * np.exp(-t), 0, 60, 0.002)
    s2 = SampledSignal.from_function(np.sin, 0, 60, 0.002)
    full = sup_distance(s1, s2, Window(0, 60))
    for rho in (0.1, 0.5, 1.0):
        assert d_infinity_estimate(s1, s2, rho) <= full + 1e-15


def test_complex_signals_supported():
    s = SampledSignal.from_function(lambda t: np.exp(1j * t), 0, 20, 0.001)
    sh = translate(s, 2 * np.pi)
    assert sup_distance(sh, s, Window(0, 10)) <= 1e-5


def test_csv_roundtrip_real(tmp_path):
    s = SampledSignal.from_function(lambda t: np.column_stack([np.sin(t), np.cos(t)]),
                                    0, 5, 0.01, label="pair")
    path = tmp_path / "sig.csv"
    write_signal_csv(s, path)
    back = read_signal_csv(path)
    assert back.dim == 2
    assert back.label == "pair"
    assert np.allclose(back.values, s.values)
    assert back.dt == pytest.approx(s.dt)


def test_csv_roundtrip_complex(tmp_path):
    s = SampledSignal.from_function(lambda t: np.exp(1j * t), 0, 3, 0.01, label="spiral")
    path = tmp_path / "c.csv"
    write_signal_csv(s, path)
    descriptor = json.loads((tmp_path / "c.json").read_text())
    assert descriptor == {"dim": 1, "complex": True, "label": "spiral", "t0": 0.0, "dt": 0.01}
    back = read_signal_csv(path)
    assert back.is_complex()
    assert np.allclose(back.values, s.values)


def test_csv_rejects_jittered_grid(tmp_path):
    path = tmp_path / "bad.csv"
    t = np.array([0.0, 0.1, 0.2004, 0.3])
    np.savetxt(path, np.column_stack([t, np.ones(4)]), delimiter=",",
               header="t,v0", comments="")
    with pytest.raises(ValueError, match="jitter"):
        read_signal_csv(path)


def test_npy_signal_keeps_its_grid_in_the_sidecar(tmp_path):
    s = SampledSignal.from_function(lambda t: np.exp(1j * t), 0.1, 3, 0.003, label="spiral")
    path = tmp_path / "c.npy"
    write_signal(s, path)
    descriptor = json.loads((tmp_path / "c.json").read_text())
    assert descriptor == {"dim": 1, "complex": True, "label": "spiral", "t0": 0.1, "dt": 0.003}
    assert np.load(path).dtype == np.complex128
    back = read_signal(path)
    assert back.is_complex() and back.label == "spiral"
    assert np.array_equal(back.values, s.values)


def test_read_signal_takes_a_csv_by_its_suffix(tmp_path):
    s = SampledSignal.from_function(np.sin, 0, 5, 0.01, label="csv")
    write_signal(s, tmp_path / "sig.csv")
    back = read_signal(tmp_path / "sig.csv")
    assert back.label == "csv" and np.array_equal(back.values, s.values)


def test_csv_and_npy_of_one_signal_share_one_sidecar(tmp_path):
    # a.csv and a.npy both write a.json: either write leaves the other readable,
    # and both read back on the writer's grid, bit for bit
    s = SampledSignal.from_function(lambda t: np.sin(t) + 0.5 * np.sin(np.sqrt(2) * t),
                                    0.0, 300.0, 0.01, label="two_tone")
    write_signal(s, tmp_path / "a.npy")
    write_signal(s, tmp_path / "a.csv")
    for name in ("a.npy", "a.csv"):
        back = read_signal(tmp_path / name)
        assert back.t0 == s.t0 and back.dt == s.dt and back.label == "two_tone"
        assert back.times().tobytes() == s.times().tobytes()
        assert back.values.tobytes() == s.values.tobytes()


def test_csv_without_a_sidecar_reads_on_its_endpoint_grid(tmp_path):
    path = tmp_path / "bare.csv"
    t = 0.02 * np.arange(100001)
    np.savetxt(path, np.column_stack([t, np.sin(t)]), delimiter=",", header="t,v0",
               comments="", fmt="%.17g")
    back = read_signal_csv(path)
    # the median spacing of this column is 0.01999999999998181
    assert back.t0 == 0.0 and back.dt == (t[-1] - t[0]) / (len(t) - 1) == 0.02
    assert back.t_end == t[-1]


@pytest.mark.parametrize("t0, dt", [(0.5, 0.01), (0.0, 0.02)], ids=["t0", "dt"])
def test_csv_off_its_sidecar_grid_is_refused(t0, dt, tmp_path):
    write_signal_csv(SampledSignal.from_function(np.sin, 0.0, 1.0, 0.01), tmp_path / "a.csv")
    # the .npy of another grid rewrites the shared sidecar
    write_signal(SampledSignal(t0=t0, dt=dt, values=np.zeros(101)), tmp_path / "a.npy")
    with pytest.raises(ValueError, match="jitter"):
        read_signal_csv(tmp_path / "a.csv")


def test_npy_signal_without_its_sidecar_names_it(tmp_path):
    path = tmp_path / "lone.npy"
    np.save(path, np.zeros((4, 1)))
    with pytest.raises(FileNotFoundError, match="no sidecar .*lone.json"):
        read_signal(path)


@pytest.mark.parametrize("descriptor, match", [
    ({"dim": 2, "complex": False, "t0": 0.0, "dt": 0.1}, "shape"),
    ({"dim": 1, "complex": True, "t0": 0.0, "dt": 0.1}, "complex True"),
    ({"dim": 1, "complex": False, "t0": 0.0}, "lacks dt"),
], ids=["dim", "dtype", "no_grid"])
def test_npy_signal_that_disagrees_with_its_sidecar_is_refused(descriptor, match, tmp_path):
    path = tmp_path / "sig.npy"
    np.save(path, np.zeros((4, 1)))
    (tmp_path / "sig.json").write_text(json.dumps(descriptor))
    with pytest.raises(ValueError, match=match):
        read_signal(path)
