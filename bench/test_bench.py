"""Tests of the benchmark itself:  python3 -m pytest bench -q

They check that the seeded relabelling keeps every expected value, that a
wrong expected value is caught, that tracing changes no result and that
traced counts repeat exactly.  About a minute and a half on two cores.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_in_process(name: str, seed: int, tmp_path):
    setup, run, check, _digest = workloads.WORKLOADS[name]
    inputs = setup(random.Random(seed), str(tmp_path))
    results, times = run(inputs)
    assert times and all(t > 0 for t in times.values())
    return inputs, results, check(inputs, results)


@pytest.mark.parametrize("name", ["nielsen", "fiber", "growth"])
@pytest.mark.parametrize("seed", [11, 12])
def test_relabelled_inputs_keep_every_expected_value(name, seed, tmp_path):
    _inputs, _results, rows = run_in_process(name, seed, tmp_path)
    assert rows and all(ok for _job, ok, _detail in rows), [
        r for r in rows if not r[1]
    ]


def test_seeds_give_different_inputs(tmp_path):
    def inputs(seed):
        paths = workloads.fiber_setup(random.Random(seed), str(tmp_path))
        return {k: open(p, encoding="utf-8").read() for k, p in paths.items()}

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


@pytest.fixture(scope="module")
def growth_run(tmp_path_factory):
    return run_in_process("growth", 5, tmp_path_factory.mktemp("growth"))


def test_wrong_expected_value_is_a_failed_job(growth_run, monkeypatch):
    inputs, results, _rows = growth_run
    monkeypatch.setitem(
        workloads.GROWTH_PROJECTIONS, ("deg7-pair-2", 4), (1, 4, False)
    )
    rows = workloads.growth_check(inputs, results)
    failed = [job for job, ok, _ in rows if not ok]
    assert len(failed) == len(workloads.GROWTH_DEGREES)
    assert all(job[:2] == ("deg7-pair-2", 4) for job in failed)


def test_tuple_outside_the_nielsen_class_is_caught():
    spec = workloads.nielsen_setup(random.Random(1), "")["deg7-class-2.4.7"]
    a, b, c = spec.class_reps
    assert workloads.nielsen_tuple_problems(spec, [(a, b, b * c)], 168) == [
        "product is not one"
    ]


def test_wrong_fiber_component_is_a_failed_job(tmp_path, monkeypatch):
    paths = workloads.fiber_setup(random.Random(3), str(tmp_path))
    paths = {"deg7-pair-1#0": paths["deg7-pair-1#0"]}
    results, _times = workloads.fiber_run(paths)
    monkeypatch.setattr(
        workloads, "FIBER_PAIRS", {"deg7-pair-1": (7, [(21, 0), (28, 0)])}
    )
    rows = workloads.fiber_check(paths, results)
    assert [ok for _job, ok, _ in rows] == [False]


def worker(tmp_path, *flags):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", "growth", "--seed", "4", "--pass-index", "0",
        "--spawned-at", repr(time.monotonic()), "--tmpdir", str(tmp_path), *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_tracing_changes_no_result_and_counts_repeat(tmp_path):
    plain = worker(tmp_path, "--reference")
    traced = [worker(tmp_path, "--trace") for _ in range(2)]
    assert plain["failures"] == [] and plain["jobs"] == 115
    assert 0 < plain["speed"] < 2 and 0 < plain["setup_speed"] < 2
    assert "speed" not in traced[0]
    assert {t["digest"] for t in traced} == {plain["digest"]}
    counts = [
        {
            name: value
            for name, value in tracing.layer_metrics(t["trace"]).items()
            if not name.endswith("_s")
        }
        for t in traced
    ]
    assert counts[0] == counts[1]
    assert counts[0]["fiberprod.pairs_built"] == 115


def test_manifest_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.manifest()


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "growth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
