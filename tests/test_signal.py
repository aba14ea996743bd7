import json

import numpy as np
import pytest

from recurlab.errors import EmptyDomainError, WindowOutOfDomainError
from recurlab.signal import (
    SampledSignal,
    Window,
    read_signal,
    read_signal_csv,
    sup_distance,
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


def tail_sup(a, b, L):
    """sup over t >= L of |a(t) - b(t)|, on the common grid of a and b."""
    return sup_distance(a, b, Window(L, min(a.t_end, b.t_end)))


def test_tail_sup_exponential():
    e = SampledSignal.from_function(lambda t: np.exp(-t), 0, 20, 0.001)
    z = SampledSignal.from_function(lambda t: 0 * t, 0, 20, 0.001)
    assert tail_sup(e, z, 10.0) == pytest.approx(np.exp(-10), abs=1e-6)


def test_tail_sup_identical_any_L(sin_signal):
    for L in (0.0, 17.3, 60.0):
        assert tail_sup(sin_signal, sin_signal, L) == 0.0


def test_tail_sup_sin_vs_zero():
    s = SampledSignal.from_function(np.sin, 0, 50, 0.001)
    z = SampledSignal.from_function(lambda t: 0 * t, 0, 50, 0.001)
    # any tail of length >= 2*pi sees the full amplitude
    assert tail_sup(s, z, 11.0) == pytest.approx(1.0, abs=1e-5)


def test_tail_sup_nonincreasing_in_L():
    s = SampledSignal.from_function(lambda t: np.exp(-0.3 * t) * np.sin(3 * t), 0, 40, 0.005)
    z = SampledSignal.from_function(lambda t: 0 * t, 0, 40, 0.005)
    values = [tail_sup(s, z, L) for L in np.linspace(0, 30, 13)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


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


@pytest.mark.parametrize("name, sidecar, match", [
    ("sig.npy", 1.5, "not a JSON object"),
    ("sig.npy", [1, 2], "not a JSON object"),
    ("sig.csv", [1, 2], "not a JSON object"),
    ("sig.csv", {"complex": True, "t0": 0, "dt": 0.1}, "lacks dim"),
], ids=["npy_number", "npy_list", "csv_list", "csv_complex_no_dim"])
def test_a_malformed_sidecar_is_a_value_error_naming_it(name, sidecar, match, tmp_path):
    s = SampledSignal.from_function(lambda t: np.exp(1j * t), 0.0, 1.0, 0.1)
    write_signal(s, tmp_path / name)
    (tmp_path / "sig.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match=f"sidecar .*sig.json .*{match}"):
        read_signal(tmp_path / name)


@pytest.mark.parametrize("fn, dim, is_complex", [
    (lambda t: np.exp(1j * t), 2, True),
    (lambda t: np.exp(1j * t), None, True),
    (lambda t: np.column_stack([np.sin(t), np.cos(t)]), 1, False),
], ids=["complex", "complex_null", "real"])
def test_a_csv_whose_sidecar_dim_misses_its_columns_is_refused(fn, dim, is_complex, tmp_path):
    # .npy and CSV alike: the sidecar's dim must match the data it describes
    write_signal(SampledSignal.from_function(fn, 0.0, 1.0, 0.1), tmp_path / "sig.csv")
    (tmp_path / "sig.json").write_text(json.dumps({"dim": dim, "complex": is_complex}))
    want = f"2 value columns; its sidecar declares dim {dim}, complex {is_complex}"
    with pytest.raises(ValueError, match=want):
        read_signal(tmp_path / "sig.csv")


@pytest.mark.parametrize("name, key, value, want", [
    ("sig.npy", "dt", "x", "a finite number"),
    ("sig.npy", "t0", None, "a finite number"),
    ("sig.npy", "complex", "yes", "a boolean"),
    ("sig.npy", "label", 3, "a string"),
    ("sig.csv", "dt", [1], "a finite number"),
    ("sig.csv", "t0", float("nan"), "a finite number"),
    ("sig.csv", "complex", 1, "a boolean"),
], ids=["npy_dt_str", "npy_t0_null", "npy_complex_str", "npy_label_int",
        "csv_dt_list", "csv_t0_nan", "csv_complex_int"])
def test_a_sidecar_value_of_the_wrong_type_is_a_value_error_naming_it(name, key, value,
                                                                      want, tmp_path):
    write_signal(SampledSignal.from_function(lambda t: np.exp(1j * t), 0.0, 1.0, 0.1),
                 tmp_path / name)
    side = tmp_path / "sig.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), key: value}))
    with pytest.raises(ValueError, match=f"sidecar .*sig.json .* has {key} .*, not {want}$"):
        read_signal(tmp_path / name)
