"""Smoke tests of the benchmark itself: every workload at document scale
0.05 with a few hundred requests, untraced and traced.

    python3 -m pytest perfbench -q

Each run must pass its output checks, fail no operation, and print every
metric BENCHMARK.json names, with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): run_bench(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_passes_checks_and_emits_every_metric(results, workload, trace):
    proc = results[(workload, trace)]
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    detail, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["checks_failed"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    stamp = detail["stamp"]
    for key in ("revision", "nproc", "python", "numpy", "REPRO_NO_NUMPY",
                "loadavg_before", "loadavg_after"):
        assert key in stamp
    assert detail["backends"] and all(detail["backends"].values())
    assert detail["fingerprint"]["queries_sha1"]
    for entry in detail["per_op"].values():
        assert entry["failed"] == 0 and entry["failed_share"] == 0.0


def test_same_seed_same_inputs(results):
    again = run_bench("live", 0)
    assert again.returncode == 0
    first, _ = parse(results[("live", 0)])
    second, _ = parse(again)
    assert first["fingerprint"] == second["fingerprint"]


def test_traced_build_layers_cover_the_build(results):
    for workload in ("build-sparse", "build-dense"):
        _, result = parse(results[(workload, 1)])
        assert result["metrics"]["build.coverage"]["value"] >= 0.95


def test_workloads_land_on_both_sides_of_the_kernel_choice(results):
    sparse, _ = parse(results[("build-sparse", 0)])
    dense, _ = parse(results[("build-dense", 0)])
    assert all(b in (["numpy"], ["arrays"]) for b in sparse["backends"].values())
    assert all(b == ["dicts"] for b in dense["backends"].values())


def test_live_misses_the_cache_more_than_serve(results):
    _, serve = parse(results[("serve", 1)])
    _, live = parse(results[("live", 1)])
    hit = "core.qcache.hit_ratio"
    assert live["metrics"][hit]["value"] < serve["metrics"][hit]["value"]
    assert serve["metrics"][hit]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("build-sparse", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
