"""Smoke test of the benchmark harness at the tiny size.

    python3 -m pytest -q perfbench/tests

Checks that every metric named in BENCHMARK.json is printed with its
unit, that a traced run reports every per-layer metric whose function
exists, and that a new seed changes the inputs but no assertion's outcome.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, seed=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    return result["metrics"]


def _present_layers():
    return {name for name in tracer.COUNTS if tracer.lookup(name) is not None}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    metrics = _run(workload, trace=0)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_present_layer(workload):
    metrics = _run(workload, trace=1)
    present = _present_layers()
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]
            if m["name"].startswith("trace.") or m["name"].rsplit(".", 1)[0] in present}
    assert {k: v["unit"] for k, v in metrics.items()} == want


def _outcomes(cases, out_root):
    from recurlab.cli import check_assertions, load_config, run_config

    outcomes = {}
    for case in cases:
        code, _ = run_config(case.path, out_root)
        report = json.loads((out_root / case.name / "report.json").read_text())
        assertions = load_config(case.path).get("assertions", [])
        failed = {f["assertion"]["path"] for f in check_assertions(report, assertions)}
        outcomes[case.name] = (code, [a["path"] not in failed for a in assertions])
    return outcomes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_but_no_assertion_outcome(workload, tmp_path):
    runs = {}
    for seed in (1, 2):
        cases = workloads.generate(workload, seed, tmp_path / f"in{seed}", size="tiny")
        texts = [c.path.read_text().replace(str(c.path.parent), "") for c in cases]
        runs[seed] = (texts, _outcomes(cases, tmp_path / f"out{seed}"))
    assert runs[1][0] != runs[2][0]
    assert runs[1][1] == runs[2][1]
    assert all(code == 0 and all(passed) for code, passed in runs[1][1].values())
