import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from recurlab.cli import check_assertions, load_config, main, run_config
from recurlab.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, cfg, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def small_map_cfg(outdir="out/m"):
    return {
        "schema": 1,
        "kind": "map",
        "seed": 0,
        "output_dir": outdir,
        "map": "affine",
        "params": {"a": 0.5},
        "forcing": {"forcing": "alternating", "t0": 0.0, "t1": 130.0, "dt": 1.0},
        "x0": [0.0],
        "n_steps": 60,
        "assertions": [{"path": "final_state.0", "op": "approx",
                        "value": -2.0 / 3.0, "tol": 1e-6}],
    }


def test_missing_rhs_names_the_key(tmp_path):
    cfg = {"schema": 1, "kind": "ode", "x0": [0.0], "span": 1.0}
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.key == "rhs"


def test_bad_schema_rejected(tmp_path):
    path = write_cfg(tmp_path, {"schema": 99, "kind": "map"})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.key == "schema"


def test_unknown_kind_rejected(tmp_path):
    path = write_cfg(tmp_path, {"schema": 1, "kind": "simulate"})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.key == "kind"


def test_run_writes_artifacts_and_manifest(tmp_path):
    path = write_cfg(tmp_path, small_map_cfg())
    code, manifest = run_config(path, output_root=tmp_path)
    assert code == 0
    outdir = tmp_path / "out/m"
    assert (outdir / "report.json").exists()
    assert (outdir / "orbit.npy").exists()
    assert manifest["passed"]
    for art in manifest["artifacts"]:
        assert (outdir / art["path"]).exists()
    # the sidecar carries the time grid, so the digests cover it
    assert [a["path"] for a in manifest["artifacts"]] == ["report.json", "orbit.npy", "orbit.json"]


def test_run_determinism_identical_digests(tmp_path):
    path = write_cfg(tmp_path, small_map_cfg())
    _, m1 = run_config(path, output_root=tmp_path / "r1")
    _, m2 = run_config(path, output_root=tmp_path / "r2")
    assert [a["sha256"] for a in m1["artifacts"]] == [a["sha256"] for a in m2["artifacts"]]


def test_failing_assertion_exits_one(tmp_path):
    cfg = small_map_cfg()
    cfg["assertions"] = [{"path": "final_state.0", "op": "ge", "value": 100.0}]
    path = write_cfg(tmp_path, cfg)
    code, manifest = run_config(path, output_root=tmp_path)
    assert code == 1
    failures = json.loads((tmp_path / "out/m/failures.json").read_text())
    assert failures[0]["got"] == pytest.approx(-2.0 / 3.0)


def test_main_exit_codes(tmp_path, capsys):
    path = write_cfg(tmp_path, small_map_cfg(outdir="out/x"))
    assert main(["run", str(path), "--output-root", str(tmp_path)]) == 0
    bad = write_cfg(tmp_path, {"schema": 1, "kind": "ode"}, name="bad.yaml")
    assert main(["run", str(bad), "--output-root", str(tmp_path)]) == 2
    assert main(["validate", str(path)]) == 0


def test_catalog_lists_flagship_equation(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "heq1" in out
    assert "heq1_forcing" in out
    assert out.strip()  # nonempty


def test_assertion_path_with_dotted_keys():
    report = {"evidence": {"rap": {"0.05": {"dense": True}}}, "xs": [{"v": 3}]}
    assert check_assertions(report, [
        {"path": "evidence.rap.0.05.dense", "op": "is", "value": True},
        {"path": "xs.0.v", "op": "eq", "value": 3},
    ]) == []


def test_bad_assertion_paths_and_ops_are_failures_not_crashes(tmp_path):
    # a list index out of range or not an integer, and an op that cannot
    # compare (ge on the null separation of one root), each become a failure
    # with its error; the run still writes its manifest and exits 1
    cfg = {
        "schema": 1, "kind": "roots", "seed": 0, "output_dir": "out/linear",
        "span": 20.0, "dt": 0.01, "coefficients": [{"forcing": "sin", "offset": 2.0}],
        "classify": {"classify_dt": 0.05,
                     "thresholds": {"epsilon_grid": [0.2],
                                    "tau": {"lo": 1.0, "hi": 5.0, "step": 1.0}}},
        "assertions": [{"path": "branches.3.ap", "op": "is", "value": True},
                       {"path": "branches.x.ap", "op": "is", "value": True},
                       {"path": "separation_min", "op": "ge", "value": 0.5},
                       {"path": "degree", "op": "eq", "value": 1}],
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["run", str(path), "--output-root", str(tmp_path)]) == 1
    out = tmp_path / "out/linear"
    assert json.loads((out / "manifest.json").read_text())["passed"] is False
    failures = json.loads((out / "failures.json").read_text())
    assert [f["assertion"]["path"] for f in failures] == [
        "branches.3.ap", "branches.x.ap", "separation_min"]
    assert "no list index '3' in a list of 1" in failures[0]["error"]
    assert "no list index 'x'" in failures[1]["error"]
    assert failures[2]["got"] is None and failures[2]["error"].startswith("op 'ge': ")


def _threshold_blocks(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "thresholds":
                yield value
            yield from _threshold_blocks(value)
    elif isinstance(node, list):
        for value in node:
            yield from _threshold_blocks(value)


def test_shipped_configs_validate():
    from recurlab.cli import _build_thresholds

    configs = sorted(CONFIG_DIR.glob("*.yaml"))
    assert configs, "expected shipped configs"
    n_blocks = 0
    for path in configs:
        cfg = load_config(path)
        for block in _threshold_blocks(cfg):
            _build_thresholds(block)
            n_blocks += 1
    assert n_blocks


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_config_loads_to_the_same_dict_under_both_yaml_loaders(path):
    text = path.read_text()
    want = yaml.load(text, yaml.SafeLoader)
    assert yaml.load(text, yaml.CSafeLoader) == want
    assert load_config(path) == want


@pytest.mark.parametrize("command", ["validate", "run"])
def test_malformed_yaml_exits_two(command, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("schema: 1\nkind: [classify\n")
    argv = [command, str(path)] + (["--output-root", str(tmp_path)] if command == "run" else [])
    assert main(argv) == 2
    assert "config does not parse" in capsys.readouterr().err


def small_classify_cfg(**thresholds):
    return {
        "schema": 1, "kind": "classify", "seed": 0, "output_dir": "out/c",
        "signal": {"forcing": "sin", "t0": 0.0, "t1": 200.0, "dt": 0.01},
        "thresholds": {"epsilon_grid": [0.2],
                       "tau": {"lo": 1.0, "hi": 40.0, "step": 1.0}, **thresholds},
    }


def small_omega_cfg(tau, **equi_ap):
    return {
        "schema": 1, "kind": "omega", "seed": 0, "output_dir": "out/o",
        "signal": {"forcing": "sin", "t0": 0.0, "t1": 300.0, "dt": 0.05},
        "shifts": {"start": 100.0, "step": 1.0, "n": 3},
        "window_len": 100.0, "cluster_tol": 0.05,
        "equi_ap": {"eps": 0.1, "tau": tau, **equi_ap},
    }


@pytest.mark.parametrize("cfg, key", [
    (small_classify_cfg(cluster_tol=0.05), "cluster_tol"),
    (small_classify_cfg(tail_fraction=0.5), "tail_fraction"),
    (small_classify_cfg(tau={"hi": 40.0, "explicit": [6.28]}), "explicit"),
    (small_omega_cfg({"hi": 20.0, "explicit": [6.28]}), "explicit"),
    # retired keys: the classifier constants are fixed
    (small_classify_cfg(gap_bound_factor=3.0), "gap_bound_factor"),
    (small_classify_cfg(stationary_taus=[0.5, 1.0]), "stationary_taus"),
    (small_classify_cfg(range_bound=1e6), "range_bound"),
    (small_classify_cfg(equicontinuity_bound=50.0), "equicontinuity_bound"),
    (small_omega_cfg({"hi": 20.0}, gap_bound_factor=3.0), "gap_bound_factor"),
])
def test_unknown_threshold_keys_exit_two_naming_the_key(cfg, key, tmp_path, capsys):
    path = write_cfg(tmp_path, cfg)
    assert main(["run", str(path), "--output-root", str(tmp_path)]) == 2
    assert repr(key) in capsys.readouterr().err


def small_dde_cfg():
    return {"schema": 1, "kind": "dde", "seed": 0, "output_dir": "out/d", "r": 1.0,
            "lags": [-1.0], "init": {"value": 1.0}, "horizon": 2.0}


#: (shipped config or builder, path of a nested block) for every block kind
#: that a runner reads
NESTED_BLOCKS = [
    ("classify_rap_sin_log", ("thresholds",)),
    ("classify_rap_sin_log", ("thresholds", "tau")),
    ("ode_condition_h", ("tolerances",)),
    ("ode_condition_h", ("condition_h",)),
    ("ode_heq1_amerio", ("fiber",)),
    ("ode_heq1_amerio", ("classify",)),
    ("ode_heq1_amerio", ("classify", "thresholds", "tau")),
    ("ode_attraction", ("stability",)),
    ("map_corom1_periodic", ("fiber",)),
    ("roots_rap_quadratic", ("classify",)),
    ("roots_rap_quadratic", ("classify", "thresholds")),
    ("zhikov_surrogate", ("thresholds",)),
    ("omega_heq1_forcing", ("shifts",)),
    ("omega_heq1_forcing", ("equi_ap",)),
    ("omega_heq1_forcing", ("equi_ap", "tau")),
    ("omega_heq1_forcing", ("minimality",)),
    (small_dde_cfg, ("init",)),
    ("classify_rap_sin_log", ("signal",)),
    ("omega_heq1_forcing", ("signal",)),
    ("zhikov_surrogate", ("signal",)),
    ("ode_condition_h", ("forcing",)),
    ("map_corom1_periodic", ("forcing",)),
    ("roots_rap_quadratic", ("coefficients", 1)),
    ("roots_collision", ("coefficients", 1)),
]


@pytest.mark.parametrize("source, block", NESTED_BLOCKS,
                         ids=[f"{getattr(c, '__name__', c)}:{'.'.join(map(str, b))}"
                              for c, b in NESTED_BLOCKS])
def test_misspelt_key_in_any_block_exits_two_from_validate_and_run(source, block, tmp_path,
                                                                   capsys):
    if callable(source):
        cfg = source()
    else:
        cfg = yaml.safe_load((CONFIG_DIR / f"{source}.yaml").read_text())
    node = cfg
    for name in block:
        node = node[name]
    node["gap_bound_facter"] = 1.0
    path = write_cfg(tmp_path, cfg)
    for command in (["validate", str(path)], ["run", str(path), "--output-root", str(tmp_path)]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "'gap_bound_facter'" in err and f"`{'.'.join(map(str, block))}`" in err
    assert not (tmp_path / cfg.get("output_dir", "exp")).exists()


#: (shipped config or builder, top-level key its kind does not read); dim,
#: forcing_file, init_file, restrict and max_step are retired keys
TOP_LEVEL_KEYS = [
    ("ode_condition_h", "tolerence"),
    ("ode_condition_h", "dim"),
    ("ode_condition_h", "forcing_file"),
    (small_dde_cfg, "init_file"),
    ("map_corom1_periodic", "dim"),
    ("omega_heq1_forcing", "thresholds"),
    ("classify_rap_sin_log", "restrict"),
    ("ode_condition_h", "max_step"),
]


@pytest.mark.parametrize("source, key", TOP_LEVEL_KEYS,
                         ids=[f"{getattr(c, '__name__', c)}:{k}" for c, k in TOP_LEVEL_KEYS])
def test_unknown_top_level_key_exits_two_from_validate_and_run(source, key, tmp_path, capsys):
    if callable(source):
        cfg = source()
    else:
        cfg = yaml.safe_load((CONFIG_DIR / f"{source}.yaml").read_text())
    cfg[key] = 1
    path = write_cfg(tmp_path, cfg)
    for command in (["validate", str(path)], ["run", str(path), "--output-root", str(tmp_path)]):
        assert main(command) == 2
        assert f"config error ({key}): unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / cfg.get("output_dir", "exp")).exists()


def test_misplaced_signal_key_exits_two(tmp_path, capsys):
    # amplitude is no key of a signal spec: it must not be dropped silently
    cfg = {"schema": 1, "kind": "classify", "seed": 0, "output_dir": "out/misplaced",
           "signal": {"forcing": "heq1_forcing", "t0": 0.0, "t1": 200.0, "dt": 0.05,
                      "amplitude": 3.0},
           "thresholds": {"epsilon_grid": [0.1]}}
    path = write_cfg(tmp_path, cfg)
    for command in (["validate", str(path)], ["run", str(path), "--output-root", str(tmp_path)]):
        assert main(command) == 2
        assert "config error (amplitude): unknown key 'amplitude' in `signal`" in \
            capsys.readouterr().err
    assert not (tmp_path / "out" / "misplaced").exists()


def test_coefficients_must_be_a_list_of_mappings(tmp_path):
    base = {"schema": 1, "kind": "roots", "seed": 0, "span": 1.0, "dt": 0.1}
    for coefficients in ({"forcing": "sin"}, ["sin"]):
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, {**base, "coefficients": coefficients}))
        assert exc.value.key == "coefficients"


def test_block_that_is_not_a_mapping_is_refused(tmp_path):
    cfg = small_dde_cfg()
    cfg["init"] = 1.0
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, cfg))
    assert exc.value.key == "init"


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_perfbench_configs_load(size, tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", CONFIG_DIR.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    n = 0
    for workload in workloads.SIZES[size]:
        for case in workloads.generate(workload, 1, tmp_path / workload, size=size):
            assert load_config(case.path)["kind"]
            n += 1
    assert n == 10


#: (shipped config, path of a key its runner needs)
REQUIRED_KEYS = [
    ("omega_heq1_forcing", ("shifts", "n")),
    ("omega_heq1_forcing", ("equi_ap", "tau", "hi")),
    ("ode_heq1_amerio", ("fiber", "horizon")),
    ("ode_condition_h", ("condition_h", "kappa")),
    ("map_corom1_periodic", ("fiber", "cluster_tol")),
    ("roots_rap_quadratic", ("classify", "thresholds")),
    ("roots_rap_quadratic", ("coefficients",)),
    ("classify_rap_sin_log", ("thresholds", "epsilon_grid")),
]


@pytest.mark.parametrize("source, path", REQUIRED_KEYS,
                         ids=[f"{c}:{'.'.join(p)}" for c, p in REQUIRED_KEYS])
def test_missing_required_key_exits_two_from_validate_and_run(source, path, tmp_path, capsys):
    cfg = yaml.safe_load((CONFIG_DIR / f"{source}.yaml").read_text())
    node = cfg
    for name in path[:-1]:
        node = node[name]
    del node[path[-1]]
    cfg_path = write_cfg(tmp_path, cfg)
    for command in (["validate", str(cfg_path)],
                    ["run", str(cfg_path), "--output-root", str(tmp_path)]):
        assert main(command) == 2
        assert f"config error ({path[-1]}): missing key {path[-1]!r}" in capsys.readouterr().err
    assert not (tmp_path / cfg["output_dir"]).exists()


def small_ode_cfg(**blocks):
    return {"schema": 1, "kind": "ode", "seed": 0, "output_dir": "out/coupled", "rhs": "heq1",
            "forcing": {"forcing": "sin", "t0": 0.0, "t1": 4.0, "dt": 0.01},
            "x0": [0.0], "span": 2.0, **blocks}


STABILITY = {"delta_grid": [0.1], "eps_grid": [0.5], "restart_times": [0.0], "horizon": 1.0}
FIBER = {"shifts": [0.0], "x0_set": [[0.0], [1.0]], "horizon": 1.0, "cluster_tol": 0.1}
CONDITION_H = {"kappa": 0.5, "alpha": 3.0, "box_lo": [-1.0], "box_hi": [1.0]}

#: (blocks of a small ode config, the key that the coupled rule misses)
COUPLED_KEYS = [
    ({"stability": {**STABILITY, "kappa": 0.5}}, "alpha"),
    ({"stability": {**STABILITY, "alpha": 3.0}}, "kappa"),
    ({"fiber": FIBER}, "burn_in"),
]


@pytest.mark.parametrize("blocks, key", COUPLED_KEYS, ids=["kappa_only", "alpha_only",
                                                           "fiber_without_burn_in"])
def test_coupled_ode_key_exits_two_from_validate_and_run(blocks, key, tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, small_ode_cfg(**blocks))
    for command in (["validate", str(cfg_path)],
                    ["run", str(cfg_path), "--output-root", str(tmp_path)]):
        assert main(command) == 2
        assert f"config error ({key}): missing key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("span, reads", [(300.0, "[0.0, 300.0]"), (100.0, "[0.0, 190.0]")],
                         ids=["main_span", "fiber_shift_plus_horizon"])
def test_ode_reading_past_its_forcing_exits_two_naming_the_span(span, reads, tmp_path, capsys):
    # scalar_interp would extrapolate the forcing's end cells into a ramp
    fiber = {"shifts": [0.0, 90.0], "x0_set": [[0.0]], "horizon": 100.0, "burn_in": 60.0,
             "cluster_tol": 0.05}
    cfg = {**small_ode_cfg(fiber=fiber), "span": span,
           "forcing": {"forcing": "rap_sin_log", "t0": 0.0, "t1": 100.0, "dt": 0.01}}
    assert main(["run", str(write_cfg(tmp_path, cfg)), "--output-root", str(tmp_path)]) == 2
    assert f"reads the forcing on {reads}, but the forcing spans [0.0, 100.0]" in \
        capsys.readouterr().err


@pytest.mark.parametrize("blocks", [
    {"stability": {**STABILITY, "kappa": 0.5, "alpha": 3.0}},
    {"stability": STABILITY},
    {"fiber": FIBER, "condition_h": CONDITION_H},
    {"fiber": {**FIBER, "burn_in": 0.5}},
], ids=["kappa_and_alpha", "neither", "burn_in_from_condition_h", "burn_in"])
def test_coupled_ode_keys_in_full_validate(blocks, tmp_path):
    assert load_config(write_cfg(tmp_path, small_ode_cfg(**blocks)))["kind"] == "ode"


def test_roots_without_coefficients_names_the_key(tmp_path):
    cfg = {"schema": 1, "kind": "roots", "seed": 0, "span": 1.0, "dt": 0.1, "alpha_claim": 1.0}
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, cfg))
    assert exc.value.key == "coefficients"
    assert str(exc.value) == "missing key 'coefficients' in the config"


@pytest.mark.parametrize("name", ["classify_rap_sin_log", "map_corom1_periodic",
                                  "ode_attraction", "ode_condition_h",
                                  "ode_corom1_stationary", "ode_heq1_amerio",
                                  "roots_collision", "roots_rap_quadratic",
                                  "roots_separated_quadratic", "zhikov_surrogate"])
def test_fast_shipped_config_runs_and_passes_its_assertions(name, tmp_path):
    path = CONFIG_DIR / f"{name}.yaml"
    code, manifest = run_config(path, output_root=tmp_path)
    assert code == 0 and manifest["passed"]
    cfg = load_config(path)
    if not cfg.get("write_translation_set"):
        return
    # the CSV comes from classify's own remote scan; it must equal a fresh one
    from recurlab.cli import _build_signal, _build_thresholds
    from recurlab.recurrence import translation_set_remote

    s = _build_signal(cfg["signal"])
    th = _build_thresholds(cfg["thresholds"])
    fresh = tmp_path / "fresh_translation_set.csv"
    cands = th.tau_candidates.clipped(s.span / 4)
    translation_set_remote(s, th.epsilon_grid[0], cands).write_csv(fresh)
    written = tmp_path / cfg["output_dir"] / "translation_set.csv"
    assert written.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("suffix", [".npy", ".csv"])
def test_roots_from_coefficient_files(suffix, tmp_path):
    # signal files written by write_signal are coefficients of the next run:
    # on the config's grid they give the report of the config that samples them
    import numpy as np

    from recurlab.signal import write_signal

    from helpers import poly_path

    p = poly_path(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t)).astype(complex)], 0.0, 100.0, 0.01)
    for k, c in enumerate(p.coeffs):
        write_signal(c, tmp_path / f"a{k + 1}{suffix}")
    base = {"schema": 1, "kind": "roots", "seed": 0, "span": 100.0, "dt": 0.01,
            "label": "fromfile", "alpha_claim": 2.0,
            "assertions": [{"path": "separation_ok", "op": "is", "value": True},
                           {"path": "degree", "op": "eq", "value": 2}]}
    cfgs = {"files": [{"file": str(tmp_path / f"a{k}{suffix}")} for k in (1, 2)],
            "sampled": [{"forcing": "zero"}, {"forcing": "sin", "scale": -1.0, "offset": -3.0}]}
    reports = {}
    for name, coefficients in cfgs.items():
        cfg = {**base, "output_dir": f"out/{name}", "coefficients": coefficients}
        code, _ = run_config(write_cfg(tmp_path, cfg, name=f"{name}.yaml"), output_root=tmp_path)
        assert code == 0
        reports[name] = (tmp_path / "out" / name / "report.json").read_bytes()
    assert reports["files"] == reports["sampled"]


def test_classify_runs_the_same_from_a_csv_and_an_npy_signal(tmp_path):
    # both formats read back on the writer's grid, so one signal gives one report
    import numpy as np

    from recurlab.signal import SampledSignal, write_signal

    s = SampledSignal.from_function(lambda t: np.sin(t) + 0.5 * np.sin(np.sqrt(2) * t),
                                    0.0, 300.0, 0.01)
    reports = []
    for suffix in (".npy", ".csv"):
        name = f"s_{suffix[1:]}"
        write_signal(s, tmp_path / f"{name}{suffix}")
        cfg = {**small_classify_cfg(), "output_dir": f"out/{name}",
               "signal": {"file": str(tmp_path / f"{name}{suffix}")}}
        code, _ = run_config(write_cfg(tmp_path, cfg, name=f"{name}.yaml"), output_root=tmp_path)
        assert code == 0
        reports.append((tmp_path / "out" / name / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["window"] == [0.0, 300.0]
    # the fixed classifier constants are recorded beside the config's thresholds
    fixed = ("gap_bound_factor", "stationary_taus", "range_bound", "equicontinuity_bound")
    assert {k: json.loads(reports[0])["thresholds"][k] for k in fixed} == {
        "gap_bound_factor": 3.0, "stationary_taus": [0.5 * k for k in range(1, 11)],
        "range_bound": 1e6, "equicontinuity_bound": 50.0}


def roots_with(coefficient, **grid):
    """A roots config whose a_2 is ``coefficient``, on [0, 100] in steps of 0.01 over ``grid``."""
    return {"schema": 1, "kind": "roots", "seed": 0, "output_dir": "out/r", "span": 100.0,
            "dt": 0.01, **grid, "coefficients": [{"forcing": "zero"}, coefficient]}


#: a config builder for each kind of `file:` input, given its spec
FILE_INPUTS = {
    "classify_signal": lambda spec: {**small_classify_cfg(), "signal": spec},
    "dde_init": lambda spec: {**small_dde_cfg(), "init": spec},
    "roots_coefficient": roots_with,
}


@pytest.mark.parametrize("name", ["missing_csv.csv", "missing.npy", "no_sidecar.npy",
                                  "empty.npy", "garbled.csv", "list_sidecar.csv",
                                  "null_t0_sidecar.npy"])
@pytest.mark.parametrize("kind", FILE_INPUTS)
def test_unreadable_input_file_exits_two_naming_it(kind, name, tmp_path, capsys):
    import numpy as np

    from recurlab.signal import SampledSignal, write_signal

    bad = tmp_path / name
    if name == "no_sidecar.npy":
        np.save(bad, np.zeros((3, 1)))
    elif name == "empty.npy":
        write_signal(SampledSignal.from_function(np.sin, 0.0, 1.0, 0.5), bad)
        bad.write_bytes(b"")
    elif name == "garbled.csv":
        bad.write_text("t,v0\n0,x\n1,y\n")
    elif name == "list_sidecar.csv":
        write_signal(SampledSignal.from_function(np.sin, 0.0, 1.0, 0.5), bad)
        bad.with_suffix(".json").write_text("[1, 2]")
    elif name == "null_t0_sidecar.npy":
        write_signal(SampledSignal.from_function(np.sin, 0.0, 1.0, 0.5), bad)
        side = bad.with_suffix(".json")
        side.write_text(json.dumps({**json.loads(side.read_text()), "t0": None}))
    path = write_cfg(tmp_path, FILE_INPUTS[kind]({"file": str(bad)}))
    assert main(["validate", str(path)]) == 0  # validate opens no input file
    capsys.readouterr()
    assert main(["run", str(path), "--output-root", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error (file): cannot read input file {bad}: ")


@pytest.mark.parametrize("source", ["expr", "file"])
def test_scale_and_offset_map_a_coefficient_source(source, tmp_path):
    import numpy as np

    from recurlab.cli import _coeff_signal
    from recurlab.signal import SampledSignal, write_signal

    a = SampledSignal.from_function(np.cos, 0.0, 2.0, 0.01)
    write_signal(a, tmp_path / "a.npy")
    spec = {"expr": ["cos", ["t"]]} if source == "expr" else {"file": str(tmp_path / "a.npy")}
    s = _coeff_signal({**spec, "scale": 100.0, "offset": 5.0}, 0.0, 2.0, 0.01)
    assert np.array_equal(s.values[:, 0], 100.0 * a.values[:, 0] + 5.0)


def test_params_reach_an_expr_coefficient():
    import numpy as np

    from recurlab.cli import _coeff_signal

    s = _coeff_signal({"expr": ["*", ["param", "c"], ["t"]], "params": {"c": 2.5}},
                      0.0, 1.0, 0.1)
    assert np.array_equal(s.values[:, 0], 2.5 * s.times())


@pytest.mark.parametrize("grid, dim", [
    ({"dt": 0.02}, 1), ({"t0": 1.0}, 1), ({"span": 50.0}, 1),
    ({"t0": 3.0, "span": 7.0, "dt": 0.5}, 1), ({}, 2),
], ids=["dt", "t0", "span", "all_three", "two_columns"])
def test_coefficient_file_off_the_config_grid_exits_two_naming_it(grid, dim, tmp_path, capsys):
    import numpy as np

    from recurlab.signal import SampledSignal, write_signal

    f = tmp_path / "a2.npy"
    write_signal(SampledSignal.from_function(lambda t: np.tile(np.cos(t)[:, None], dim),
                                             0.0, 100.0, 0.01), f)
    path = write_cfg(tmp_path, roots_with({"file": str(f)}, **grid))
    assert main(["run", str(path), "--output-root", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error (coefficients): coefficient file {f} holds ")


def test_dde_weights_default_to_minus_one_per_lag(tmp_path):
    reports = []
    for name, weights in (("default", {}), ("explicit", {"weights": [-1, -1]})):
        cfg = {**small_dde_cfg(), "lags": [0.0, -1.0], "output_dir": f"out/{name}", **weights}
        code, _ = run_config(write_cfg(tmp_path, cfg, name=f"{name}.yaml"), output_root=tmp_path)
        assert code == 0
        reports.append((tmp_path / "out" / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("weights", [[-1.0], [-1.0, -1.0, -1.0], -1.0])
def test_dde_weights_of_another_length_than_lags_exit_two(weights, tmp_path, capsys):
    path = write_cfg(tmp_path, {**small_dde_cfg(), "lags": [0.0, -1.0], "weights": weights})
    for command in (["validate", str(path)], ["run", str(path), "--output-root", str(tmp_path)]):
        assert main(command) == 2
        assert capsys.readouterr().err.startswith("config error (weights): `weights` ")
    assert not (tmp_path / "out" / "d").exists()


def test_readme_lists_each_kinds_top_level_keys():
    # the README's per-kind key table must follow the schema
    import re

    from recurlab.cli import _COMMON, _CONFIG_KEYS

    text = (CONFIG_DIR.parent / "README.md").read_text()
    intro, table = text.split("Each kind accepts these top-level keys")[1].split("\n\n")[:2]
    assert re.findall(r"`(\w+)`", intro) == list(_COMMON)
    listed = {}
    for row in table.splitlines()[2:]:
        kind, keys = (cell.strip() for cell in row.strip("|").split("|"))
        assert kind not in listed
        listed[kind] = sorted(re.findall(r"`(\w+)`", keys.split(";")[0]))
    assert listed == {kind: sorted(set(keys) - set(_COMMON)) for kind, keys in _CONFIG_KEYS.items()}


def test_readme_lists_the_keys_of_thresholds_and_each_nested_block():
    # the README's thresholds list and nested-block table must follow the
    # schema, so a retired key cannot stay in them
    import re

    from recurlab.cli import _CONFIG_KEYS, _SIGNAL, _THRESHOLDS

    text = (CONFIG_DIR.parent / "README.md").read_text()
    bullets = text.split("A `thresholds` block")[1].split("\n\n")[1]
    assert re.findall(r"^- `(\w+)`", bullets, flags=re.M) == list(_THRESHOLDS)
    table = text.split("| block | kinds | keys |")[1].split("\n\n")[0]
    listed = {}
    for row in table.strip().splitlines()[1:]:
        block, kinds, keys = (cell.strip() for cell in row.strip("|").split("|"))
        for kind in kinds.split(", "):
            listed[kind, block.strip("`")] = sorted(re.findall(r"`(\w+)`", keys))
    # signal specs and roots coefficients have their own paragraphs
    assert listed == {(kind, name): sorted(sub) for kind, keys in _CONFIG_KEYS.items()
                      for name, sub in keys.items()
                      if isinstance(sub, dict) and sub is not _SIGNAL and sub is not _THRESHOLDS}


#: x^7 - (0.5 + 0.125 sin t), seven separated branches
DEGREE_SEVEN_CFG = {
    "schema": 1, "kind": "roots", "seed": 0, "output_dir": "out/degree7", "span": 20.0,
    "dt": 0.01, "label": "degree7",
    "coefficients": [{"forcing": "zero"}] * 6 + [{"forcing": "sin", "scale": -0.125,
                                                   "offset": -0.5}],
    "assertions": [{"path": "degree", "op": "eq", "value": 7},
                   {"path": "collisions", "op": "eq", "value": []}],
}


def test_runs_leave_scipy_unimported(tmp_path):
    # ODE solves use flows' own RK45 and branches continue by nearest root;
    # an ode (with a hull family and a stability probe), a dde, a map and a
    # degree-7 roots run must not import scipy
    cfgs = [small_ode_cfg(stability={**STABILITY, "kappa": 0.5, "alpha": 3.0},
                          fiber={**FIBER, "burn_in": 0.5}),
            small_dde_cfg(), small_map_cfg(), DEGREE_SEVEN_CFG]
    paths = [str(write_cfg(tmp_path, cfg, name=f"{cfg['kind']}.yaml")) for cfg in cfgs]
    script = ("import sys\n"
              "from recurlab.cli import run_config\n"
              f"codes = [run_config(p, {str(tmp_path)!r})[0] for p in {paths!r}]\n"
              "assert codes == [0, 0, 0, 0], codes\n"
              "assert 'scipy' not in sys.modules\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=300)
    assert done.returncode == 0, done.stderr


def test_zhikov_is_the_roots_report_of_x2_minus_p(tmp_path):
    # kind zhikov is x^2 - p run through the roots report: with p the same
    # signal, the branches and every shared report key agree
    import numpy as np

    from recurlab.signal import read_signal

    grid = {"t0": 0.0, "t1": 100.0, "dt": 0.01}
    thresholds = {"epsilon_grid": [0.25],
                  "tau": {"lo": 6.283185307179586, "hi": 25.0, "step": 6.283185307179586}}
    zhikov = {"schema": 1, "kind": "zhikov", "seed": 0, "output_dir": "out/zhikov",
              "signal": {"forcing": "zhikov_surrogate", **grid}, "with_decay": False,
              "classify_dt": 0.05, "thresholds": thresholds}
    roots = {"schema": 1, "kind": "roots", "seed": 0, "output_dir": "out/roots",
             "t0": grid["t0"], "span": grid["t1"], "dt": grid["dt"],
             "coefficients": [{"forcing": "zero"},
                              {"forcing": "zhikov_surrogate", "scale": -1.0}],
             "classify": {"classify_dt": 0.05, "thresholds": thresholds}}
    reports = {}
    for cfg in (zhikov, roots):
        code, _ = run_config(write_cfg(tmp_path, cfg, name=f"{cfg['kind']}.yaml"),
                             output_root=tmp_path)
        assert code == 0
        reports[cfg["kind"]] = json.loads((tmp_path / cfg["output_dir"] / "report.json").read_text())
    zr, rr = reports["zhikov"], reports["roots"]
    shared = set(zr) & set(rr)
    assert {"inf_abs_D", "separation_min", "residual_max", "branches"} <= shared
    assert {k: zr[k] for k in shared} == {k: rr[k] for k in shared}
    assert not zr["collisions"] and zr["degree"] == 2
    assert "separation_ok" not in zr  # no claim, so no verdict
    for i in range(2):
        z = read_signal(tmp_path / "out/zhikov" / f"branch{i}.npy")
        r = read_signal(tmp_path / "out/roots" / f"branch{i}.npy")
        assert np.array_equal(z.values, r.values)


@pytest.mark.parametrize("tree", [["neg", ["t"]], ["const", 2.5],
                                  ["+", ["sin", ["t"]], ["*", ["const", 0.3], ["exp", ["t"]]]]])
def test_expr_coefficient_is_the_pointwise_evaluation(tree):
    # one call on the time array, constants broadcast, equals a per-point loop bit for bit
    import numpy as np

    from recurlab.catalog import eval_expr
    from recurlab.cli import _coeff_signal

    s = _coeff_signal({"expr": tree}, -1.0, 1.0, 0.002)
    pointwise = np.array([eval_expr(tree, float(t), np.zeros(1)) for t in s.times()],
                         dtype=complex)
    assert s.values[:, 0].tobytes() == pointwise.tobytes()


def test_degree_one_roots_report_is_strict_json(tmp_path):
    # one root has no pair: the separation claim holds vacuously, and the
    # report must not carry Infinity or a made-up argmin time
    cfg = {
        "schema": 1, "kind": "roots", "seed": 0, "output_dir": "out/linear",
        "span": 20.0, "dt": 0.01, "alpha_claim": 1.0,
        "coefficients": [{"forcing": "sin", "offset": 2.0}],
    }
    code, _ = run_config(write_cfg(tmp_path, cfg, name="linear.yaml"), output_root=tmp_path)
    assert code == 0

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    text = (tmp_path / "out/linear/report.json").read_text()
    report = json.loads(text, parse_constant=refuse)
    assert report["degree"] == 1
    assert report["separation_min"] is None
    assert report["separation_argmin_t"] is None
    assert report["separation_ok"] is True


def test_catalog_ids_roundtrip_through_run(tmp_path):
    # every catalog id is runnable with a miniature config, no ConfigError
    from recurlab.catalog import FORCING_CATALOG, MAP_CATALOG, RHS_CATALOG

    for rid in RHS_CATALOG:
        cfg = {
            "schema": 1, "kind": "ode", "seed": 0, "output_dir": f"out/rhs_{rid}",
            "rhs": rid, "x0": [0.5], "span": 2.0, "out_dt": 0.01,
            "forcing": {"forcing": "sin", "t0": 0.0, "t1": 5.0, "dt": 0.01},
        }
        code, _ = run_config(write_cfg(tmp_path, cfg, name=f"r_{rid}.yaml"),
                             output_root=tmp_path)
        assert code == 0
    for mid in MAP_CATALOG:
        cfg = {
            "schema": 1, "kind": "map", "seed": 0, "output_dir": f"out/map_{mid}",
            "map": mid, "x0": [0.5], "n_steps": 5,
            "forcing": {"forcing": "sin", "t0": 0.0, "t1": 10.0, "dt": 1.0},
        }
        code, _ = run_config(write_cfg(tmp_path, cfg, name=f"m_{mid}.yaml"),
                             output_root=tmp_path)
        assert code == 0
    for fid in FORCING_CATALOG:
        cfg = {
            "schema": 1, "kind": "classify", "seed": 0, "output_dir": f"out/f_{fid}",
            "signal": {"forcing": fid, "t0": 0.0, "t1": 200.0, "dt": 0.01},
            "thresholds": {"epsilon_grid": [0.2],
                           "tau": {"lo": 1.0, "hi": 40.0, "step": 1.0}},
        }
        code, _ = run_config(write_cfg(tmp_path, cfg, name=f"f_{fid}.yaml"),
                             output_root=tmp_path)
        assert code == 0
