"""The benchmark's own test, at tiny scale (a few seconds per workload).

Run from the repository root::

    python3 -m pytest perfbench/test_run.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def bench_env() -> dict:
    env = dict(os.environ)
    for name in bench.PINNED_ENV:
        env.pop(name, None)
    return env


def test_spec_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    done = invoke(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", trace, "--scale", "tiny", env=bench_env(),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
    assert info["seed"] == 5 and info["nproc"] >= 1 and info["python"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_wrong_expected_answer_counts_as_failed(workload, monkeypatch):
    real_oracle = bench.oracle

    def wrong_oracle(loaded, queries, all_results):
        expected = real_oracle(loaded, queries, all_results)
        first = queries[0]
        expected[first] = expected[first][1:]
        return expected

    monkeypatch.setattr(bench, "oracle", wrong_oracle)
    for name in bench.PINNED_ENV:
        monkeypatch.delenv(name, raising=False)
    result = bench.run(workload, seed=5, seconds=1.0, trace=False, scale=bench.TINY)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert result["metrics"]["ok_ops_frac"]["value"] < 1.0


@pytest.mark.parametrize("name", bench.PINNED_ENV)
def test_refuses_settings_that_change_the_program(name):
    env = bench_env()
    env[name] = "1"
    done = invoke(
        "--workload", "topk-z8", "--seed", "1", "--seconds", "1",
        "--scale", "tiny", env=env,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert name in done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__"))
    done = invoke(
        "--workload", "topk-z8", "--seed", "1", "--seconds", "1",
        cwd=tmp_path, env=bench_env(),
    )
    assert done.returncode != 0
    assert done.stdout == ""
