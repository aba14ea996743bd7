import json
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
    assert (outdir / "orbit.csv").exists()
    assert manifest["passed"]
    for art in manifest["artifacts"]:
        assert (outdir / art["path"]).exists()


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


def test_shipped_configs_validate():
    configs = sorted(CONFIG_DIR.glob("*.yaml"))
    assert configs, "expected shipped configs"
    for path in configs:
        load_config(path)


@pytest.mark.parametrize("name", ["classify_rap_sin_log", "map_corom1_periodic",
                                  "ode_corom1_stationary", "roots_collision"])
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


def test_roots_from_manifest(tmp_path):
    import numpy as np

    from recurlab.algebra import PolyPath

    p = PolyPath.from_functions(
        [lambda t: 0 * t, lambda t: -(3 + np.sin(t)).astype(complex)],
        0.0, 100.0, 0.01, label="fromfile")
    p.write_manifest(tmp_path / "poly.json")
    cfg = {
        "schema": 1, "kind": "roots", "seed": 0, "output_dir": "out/manifest",
        "manifest": str(tmp_path / "poly.json"),
        "alpha_claim": 2.0,
        "assertions": [{"path": "separation_ok", "op": "is", "value": True},
                       {"path": "degree", "op": "eq", "value": 2}],
    }
    code, _ = run_config(write_cfg(tmp_path, cfg, name="roots.yaml"),
                         output_root=tmp_path)
    assert code == 0


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
