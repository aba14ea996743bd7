"""The names and config keys the perfbench harness relies on still exist.

perfbench wraps recurlab functions by name and writes configs that go
through ``cli.load_config``. A refactor that renames a wrapped function
silently drops that layer's metrics from a traced run, so these checks
keep the contract visible in the unit suite. perfbench is only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from recurlab import _kernels
from recurlab.cli import load_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load("tracer")
workloads = _load("workloads")


def _wrapped_layers():
    """Layers named by BENCHMARK.json per-layer metrics plus every traced name."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]
                if not m["name"].startswith("trace.")}
    return sorted(declared | set(tracer.COUNTS) | set(tracer.PROBES))


@pytest.mark.parametrize("layer", _wrapped_layers())
def test_wrapped_layer_resolves_to_a_callable(layer):
    assert callable(tracer.lookup(layer)), f"{layer} is gone; its per-layer metrics would vanish"


def test_backend_name_is_reported():
    assert isinstance(_kernels.backend_name(), str)


@pytest.mark.parametrize("workload", sorted(workloads.SIZES["tiny"]))
def test_generated_workload_configs_load(workload, tmp_path):
    cases = workloads.generate(workload, 1, tmp_path, size="tiny")
    assert cases
    for case in cases:
        cfg = load_config(case.path)
        assert cfg["kind"]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("workload", sorted(workloads.SIZES["tiny"]))
def test_generated_workload_configs_load_to_the_same_dict_under_both_yaml_loaders(workload,
                                                                                 tmp_path):
    for case in workloads.generate(workload, 1, tmp_path, size="tiny"):
        text = Path(case.path).read_text()
        want = yaml.load(text, yaml.SafeLoader)
        assert yaml.load(text, yaml.CSafeLoader) == want
        assert load_config(case.path) == want
