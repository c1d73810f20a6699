"""Smoke tests of the benchmark: each workload at tiny size through the
correctness gate, clean and with one output corrupted on purpose, plus
the per-layer derivation on hand-made spans."""

import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import spans
import worker

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_gate_passes_clean_and_catches_corruption(workload, tmp_path):
    clean, corrupted = worker.smoke(workload, ROOT, tmp_path)
    assert clean.attempted > 0
    assert clean.failed == 0, clean.errors
    assert corrupted.failed == 1, corrupted.errors


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    make = jobs.GENERATORS[workload]
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_full_grid_list_covers_every_parameter_and_policy():
    job_list = jobs.grid_jobs(0)
    params = {ax[0] for job in job_list for ax in job["axes"]}
    assert params == set(jobs.PARAMS)
    assert {job["policy"] for job in job_list} == set(jobs.POLICIES)
    assert sum(1 for job in job_list if job["masked_fraction"]) == 7


def test_self_time_subtracts_direct_children():
    s = [[0, None, "j", "cli.run", 0, 100, None],
         [1, 0, "j", "model.validate", 10, 30, None],
         [2, 1, "j", "steady_state.transmissions", 12, 20, None],
         [3, 0, "j", "config.parse_config", 40, 50, None]]
    assert spans.self_times(s) == [70, 12, 8, 10]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"),
                           "--workload", "queries", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
