"""The benchmark's own tests: tiny inputs through the real code path.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


def tiny(workload: str, trace: int = 0, *extra: str) -> tuple[int, dict]:
    code, lines = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--tiny", *extra,
    )
    return code, json.loads(lines[-1])


def assert_metrics(result: dict, expected: dict[str, str]) -> None:
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_smoke(workload: str, trace: int) -> None:
    code, result = tiny(workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    if trace:
        assert_metrics(result, {n: u for n, (u, _) in PER_LAYER.items()})
    else:
        assert_metrics(result, END_TO_END)
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_deterministic_metrics_repeat_across_invocations() -> None:
    first = tiny("rf_resyn-large")[1]["metrics"]
    second = tiny("rf_resyn-large")[1]["metrics"]
    for name in ("ands_after", "levels_after", "modeled_s"):
        assert first[name] == second[name], name


def test_corrupted_output_is_a_failed_operation() -> None:
    code, result = tiny("b-xl", 0, "--corrupt-po")
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_checkout_without_sources_fails_without_a_result(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    code, lines = bench(
        "--workload", "b-xl", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_matches_the_code() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == PER_LAYER
