"""Smoke test of the benchmark at its shortest run length (one pass).

    python3 -m pytest -q perfbench/test_smoke.py      # about a minute

Checks that every metric BENCHMARK.json names is printed with its unit, that
an operation which fails is counted, and that the benchmark refuses to run
without the orbitlab sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(text: str) -> dict:
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _assert_metrics(result: dict, specs: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


def test_spec_matches_the_metric_tables():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_failing_operation_is_counted(monkeypatch, capsys):
    """A verify of a build directory that does not exist exits 2; it must
    show up as one failed operation and make the run incorrect."""
    operations = workloads.operations

    def with_failing_op(name, inputs, workdir, seed, rec):
        ops = operations(name, inputs, workdir, seed, rec)
        return ops + [workloads.cli_verify(rec, workdir / "missing", "fan",
                                           seed)]

    monkeypatch.setattr(workloads, "operations", with_failing_op)
    assert run.main(["--workload", "mini", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = _last_json(capsys.readouterr().out)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["attempted"] == 11      # 10 mini operations + the failing one
    assert result["failed"] == 1
    assert result["correct"] is False
    for m in result["metrics"].values():
        assert m["value"] > 0


def test_traced_run_prints_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mini", "--seed",
         "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["basis.assemble.rational.self_s"]["value"] > 0
    assert result["metrics"]["cli.verify.reassemble.s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mini", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
