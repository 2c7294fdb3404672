"""Checks on the benchmark itself.  The file name keeps it out of the
repository's own test run, because it runs full workloads (about a minute):

    python3 -m pytest perfbench/tests/check_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from probe import SpeedProbe  # noqa: E402

run.import_checkout_quadmean()


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload", ["local", "real"])
def test_tracer_is_transparent(workload, tmp_path):
    import quadmean.orbits

    original = quadmean.orbits.orbit_size
    w = run.WORKLOADS[workload](0, tmp_path)
    plain = run.call_cli(w.argv())
    tally = run.Tally()
    with SpeedProbe() as probe:
        traced, metrics = run.traced_call(w, tally, tmp_path / "spans.json", probe)
    assert plain.rc == traced.rc == 0
    assert json.loads(traced.stdout)["items"] == json.loads(plain.stdout)["items"]
    assert tally.failed == 0
    assert quadmean.orbits.orbit_size is original
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_s"}
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert spans and all(
        {"id", "parent", "trace", "name", "start", "end"} <= set(s) for s in spans
    )


def test_per_layer_table_matches_benchmark_json():
    assert _declared("per_layer") == {k: u for k, (u, _) in layers.PER_LAYER.items()}
    assert _declared("end_to_end") == run.END_TO_END_UNITS


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "real", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
