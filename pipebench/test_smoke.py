"""Smoke test of the pipeline benchmark.

Runs every workload at minimal length with a fixed seed, untraced and
traced, from the root of the checkout::

    python3 -m pytest pipebench/test_smoke.py -q

and asserts that every metric named in BENCHMARK.json is emitted with
its unit, that the traced run's span forest is closed, and that the
seeded inputs are byte-identical for one seed.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from spans import closed_problems  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)

SEED = 5


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_emits_every_layer_metric_with_closed_spans(
        workload, tmp_path):
    spans_path = tmp_path / "spans.json"
    result = run(workload, 1, "--spans-out", str(spans_path))
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    spans = json.loads(spans_path.read_text())
    assert spans, "the traced run recorded no spans"
    assert closed_problems(spans) == []
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["session"]


def test_same_seed_gives_byte_identical_inputs():
    first = json.dumps(gen.describe(SEED, rounds=3), sort_keys=True)
    second = json.dumps(gen.describe(SEED, rounds=3), sort_keys=True)
    assert first == second
    assert first != json.dumps(gen.describe(SEED + 1, rounds=3),
                               sort_keys=True)
    cli = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--seed",
         str(SEED), "--rounds", "3"],
        capture_output=True, text=True, check=True).stdout
    assert json.loads(cli) == json.loads(first)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "cli-oneshot", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
