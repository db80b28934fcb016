"""The benchmark keeps the contract ``BENCHMARK.json`` states.

Runs it in ``--smoke`` mode (tiny tables, a fraction of a second per pass)
and checks names, units, output checks and the closing ledger.  Asserts
nothing about speed.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def script(name: str, *args: str) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, os.path.join(HERE, name), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def result_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("e2e") / "smoke.json")
    done = script("run.py", "--smoke", "--seed", "3", "--out", path)
    assert done.returncode == 0, done.stdout + done.stderr
    return path


@pytest.fixture(scope="module")
def run(result_path):
    with open(result_path) as handle:
        (only,) = json.load(handle)["runs"]
    return only


def test_benchmark_json_is_well_formed(bench):
    assert bench["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(bench["workloads"]) <= 8
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for spec in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(spec["unit"])
        assert spec["better"] in ("higher", "lower")
    assert all(0 < spec["bound"] <= 0.25 for spec in bench["end_to_end"])
    setup = {s["name"]: s for s in bench["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_named_workload_and_metric_is_reported(bench, run):
    assert set(run["workloads"]) == {w["name"] for w in bench["workloads"]}
    for workload in run["workloads"].values():
        for key in ("end_to_end", "per_layer"):
            assert set(workload[key]) == {s["name"] for s in bench[key]}
            for spec in bench[key]:
                assert workload[key][spec["name"]]["unit"] == spec["unit"]


def test_output_checks_pass_and_nothing_failed(run):
    assert run["correct"], run["checks"]
    assert all(run["checks"].values()), run["checks"]
    for name, workload in run["workloads"].items():
        assert workload["failed"] == 0 and workload["attempted"] >= 1, name
        for part in workload["detail"].values():
            assert all(part["checks"].values()), (name, part["checks"])


def test_ledger_closes(run):
    for name, workload in run["workloads"].items():
        layers = workload["per_layer"]
        assert layers["runtime.unattributed_share"]["value"] < 0.05, name
        casting = layers["core.casting_share"]["value"]
        assert (casting == 0.0) == (name == "emb_baseline")


def test_host_fingerprint_is_recorded(run):
    for key in ("nproc", "python", "numpy", "blas", "thread_env", "numba",
                "loadavg_start", "seed", "git_commit"):
        assert key in run["meta"]
    detail = run["workloads"]["emb_uniform"]["detail"]["per_layer"]
    assert detail["backend"]["name"] == "auto"
    assert set(detail["dtypes"]) == {"dense", "labels", "pooled", "sparse_grad"}


def test_single_workload_form_ends_with_the_result_line(bench):
    done = script("run.py", "--workload", "emb_skew", "--seed", "1",
                  "--seconds", "0.1", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {s["name"] for s in bench["end_to_end"]}


def test_a_pass_in_its_own_process_reports_what_the_run_merges():
    done = script("run.py", "--pass", "trainer", "--workload", "mlp_heavy",
                  "--seed", "2", "--seconds", "0.1", "--mode", "casted",
                  "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert set(report) == {"setup_s", "warmup", "timed", "peak_rss_mb",
                           "backend"}
    assert len(report["timed"]["step_ms"]) == report["timed"]["requested"]


def test_compare_accepts_a_run_against_itself_and_flags_a_regression(
        result_path, run, tmp_path):
    same = script("compare.py", result_path, result_path)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout

    slower = copy.deepcopy(run)
    slower["workloads"]["mlp_heavy"]["end_to_end"]["step_ms_min"]["value"] *= 2
    slower_path = str(tmp_path / "slower.json")
    with open(slower_path, "w") as handle:
        json.dump({"runs": [slower]}, handle)
    regressed = script("compare.py", result_path, "--", slower_path)
    assert regressed.returncode == 1
    assert regressed.stdout.count("  worse") == 1
