"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == spans.LAYER_METRICS


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted_with_units(name):
    result = run.measure(name, 5, 0, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        key: unit for key, unit, _ in run.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_layer_metrics_emitted_with_units(name):
    result = run.measure(name, 5, 0, trace=True, size="tiny")
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        key: unit for key, unit, _ in spans.LAYER_METRICS
    }
    assert metrics["error_rate"]["value"] == 0
    assert all(v["value"] >= 0 for k, v in metrics.items() if k.endswith(".self_s"))


def test_spans_nest_and_self_times_fit_the_wall_time():
    wl = workloads.WORKLOADS["simulate-n1e5"]
    tracer = spans.Tracer()
    with tracer.installed(spans.boundary_points()):
        start = time.perf_counter()
        for step in wl.steps(wl.inputs(3, "tiny")):
            step()
        wall = time.perf_counter() - start
    assert not tracer.absent
    recorded = tracer.spans
    assert recorded and all(sp is not None for sp in recorded)
    for sp in recorded:
        assert sp.self_time >= -1e-12
        if sp.parent >= 0:
            parent = recorded[sp.parent]
            assert parent.start <= sp.start <= sp.end <= parent.end
    parents = {sp.name: recorded[sp.parent].name for sp in recorded if sp.parent >= 0}
    assert parents["montecarlo.simulate"] == "cli.main"
    assert parents["protocol.run_trial"] == "montecarlo.simulate"
    assert parents["channel.slots"] == "protocol.run_trial"
    assert parents["protocol.index_build"] == "protocol.run_trial"
    assert sum(sp.self_time for sp in recorded) <= wall
    assert spans.pass_metrics(recorded, wall, wall)["montecarlo.trials"] == 3 * 2


def test_originals_restored_and_missing_boundary_reported_absent():
    import bpecsim.montecarlo

    original = bpecsim.montecarlo.run_trial
    owner = types.SimpleNamespace()
    tracer = spans.Tracer()
    with tracer.installed([(owner, "gone", "protocol.gone", None), *spans.boundary_points()]):
        assert bpecsim.montecarlo.run_trial is not original
    assert bpecsim.montecarlo.run_trial is original
    assert tracer.absent == ["protocol.gone (gone)"]


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_digest_counts_as_errors(name, monkeypatch):
    monkeypatch.setitem(workloads.DIGESTS, name, {"full": "0" * 64, "tiny": "0" * 64})
    result = run.measure(name, workloads.PINNED_SEED, 0, trace=True, size="tiny")
    assert not result["correct"]
    assert result["metrics"]["error_rate"]["value"] > 0


def test_sweep_row_check_rejects_an_outer_sum_above_a_bound():
    assert workloads.row_ok("0.5,0.4,0.4,0.5,0.6,0.3,0.3,0.2")
    assert not workloads.row_ok("0.5,0.45,0.4,0.5,0.6,0.3,0.3,0.2")
    assert not workloads.row_ok("0.5,0.4,0.4,0.5,0.6,0.41,0.3,0.2")


def test_simulate_check_rejects_a_mean_below_its_floor():
    wl = workloads.WORKLOADS["simulate-n1e5"]
    argv = next(a for a in wl.inputs(3, "tiny") if "intra" in a)
    report = json.loads(workloads.call_cli(argv))
    assert wl.report_ok(report, argv)
    report["mean_sum_rate"] *= 0.97
    assert not wl.report_ok(report, argv)


def test_cpu_time_counts_children_that_were_waited_for():
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3:\n    pass"

    def step():
        subprocess.run([sys.executable, "-c", burn], check=True)
        return 1, "", 0

    wl = types.SimpleNamespace(steps=lambda inputs: [step])
    assert run.run_pass(wl, None, run.Speed()).cpu >= 0.3


def test_command_prints_the_result_object_last():
    # the full-size sweep: --seconds 0 still times the minimum number of passes
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep-eta", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert "error_rate" in proc.stdout


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-eta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
