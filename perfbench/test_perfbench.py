"""Self-tests of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from chio.failure_enum import count_failures, enumerate_failures, failure_count_formula
from chio.measures import DyadicProb

from perfbench import layers, reference, run, workloads
from perfbench.spans import OFF, Tracer
from perfbench.workloads import Checks

ROOT = Path(__file__).resolve().parent.parent


def tiny_inputs(workload: str, seed: int) -> dict:
    if workload == "events":
        return workloads.generate_events(seed, sets_per_k=2, averaged=10)
    if workload == "failures":
        return workloads.generate_failures(seed, ((4, 4), (4, 5)), (4, 4), spot_checks=20)
    if workload == "census":
        return workloads.generate_census(seed, fixed=3, dims=(4, 4))
    return workloads.GENERATE[workload](seed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(workload):
    def encoded(seed: int) -> bytes:
        return json.dumps(workloads.GENERATE[workload](seed), sort_keys=True).encode()

    assert encoded(7) == encoded(7)
    assert encoded(7) != encoded(8)
    assert tiny_inputs(workload, 7) == tiny_inputs(workload, 7)


def run_tiny(workload: str, tmp_path, tracer=OFF, tick=reference.no_tick) -> dict:
    inputs = tiny_inputs(workload, 3)
    expected = workloads.PREPARE[workload](inputs)
    return workloads.RUN[workload](inputs, expected, tracer, 1, str(tmp_path), tick)


@pytest.mark.parametrize("workload", ["events", "failures", "census"])
def test_tiny_workloads_pass_their_checks(workload, tmp_path):
    tracer = Tracer()
    checks = run_tiny(workload, tmp_path, tracer)["checks"]
    assert checks.attempted > 0 and checks.failed == 0, checks.messages
    assert tracer.spans and all(s["end"] >= s["start"] for s in tracer.spans)
    assert list(tmp_path.iterdir()) == []


def test_meter_scales_work_by_the_reference_speed(tmp_path, monkeypatch):
    monkeypatch.setattr(reference, "MIN_STRETCH_S", 0.0)
    meter = reference.Meter(reference.PYTHON)
    meter.start()
    checks = run_tiny("events", tmp_path, tick=meter.tick)["checks"]
    meter.stop()
    assert checks.failed == 0
    assert meter.blocks > 1 and meter.work_s > 0 and meter.ref_s > 0
    assert meter.normalised_s() == pytest.approx(
        meter.work_s * reference.PYTHON.nominal_s * meter.blocks / meter.ref_s)


def test_corrupted_event_value_fails():
    zero, half = DyadicProb.zero(), DyadicProb.pow_half(1)
    good = Checks()
    workloads.check_event_values(good, 4, [half, zero], [half, zero], [half, half], [1, 0], [8, 0])
    assert good.failed == 0
    bad = Checks()
    off_by_one = DyadicProb.pow_half(2)
    workloads.check_event_values(bad, 4, [half, zero], [off_by_one, zero], [half, half], [1, 0], [8, 0])
    assert bad.failed / bad.attempted > 0


def test_corrupted_failure_counts_fail():
    want = failure_count_formula(4, 4)
    report = count_failures(4, 4, workers=1)
    good = Checks()
    workloads.check_count_report(good, report, want, "count")
    assert good.attempted > 0 and good.failed == 0
    report.by_ratio[0] += 1
    bad = Checks()
    workloads.check_count_report(bad, report, want, "count")
    assert bad.failed == 1

    records = list(enumerate_failures(4, 4))
    groups = [Counter(r.ratio for r in records), Counter(r.value for r in records),
              Counter(r.isotype for r in records)]
    good = Checks()
    workloads.check_record_groups(good, len(records), *groups, want)
    assert good.failed == 0
    groups[1][DyadicProb.zero()] -= 1
    bad = Checks()
    workloads.check_record_groups(bad, len(records) - 1, *groups, want)
    assert bad.failed == 2

    bad = Checks()
    workloads.check_spot_records(bad, [replace(records[0], ratio=records[0].ratio + 1)])
    assert bad.failed == 1


def test_corrupted_census_fails(tmp_path):
    inputs = tiny_inputs("census", 5)
    dims = tuple(inputs["dims"])
    filters = {(i, j): sign for i, j, sign in inputs["fixed"]}
    from chio.census_oracle import CensusConfig, run_census

    first = run_census(CensusConfig(dims=dims, worker_count=1, filters=filters),
                       aggregates=workloads.RANK_AGGREGATES)
    binary = workloads.prepare_census(inputs)["binary"]
    good = Checks()
    workloads.check_census(good, dims, len(filters), binary, first, first, first.visited, first.visited)
    assert good.attempted > 0 and good.failed == 0, good.messages
    first.rank_pm[0] += 1
    bad = Checks()
    workloads.check_census(bad, dims, len(filters), binary, first, first, first.visited, first.visited)
    assert bad.failed > 0


def test_resume_merges_the_tail_and_a_corrupted_checkpoint_fails(tmp_path):
    from chio.census_oracle import CensusConfig, run_census, save_checkpoint

    inputs = tiny_inputs("census", 5)
    dims = tuple(inputs["dims"])
    filters = {(i, j): sign for i, j, sign in inputs["fixed"]}
    binary = workloads.prepare_census(inputs)["binary"]
    cfg = CensusConfig(dims=dims, worker_count=1, filters=filters, chunk_size=1 << 10,
                       checkpoint_path=str(tmp_path / "slice.ckpt"))
    first = run_census(cfg, aggregates=workloads.RANK_AGGREGATES)
    head, tail_visited, next_chunk = workloads.resume_point(cfg, first)
    assert next_chunk == 56 and tail_visited == first.visited // 8
    for corrupt, failed in ((False, 0), (True, 1)):
        head.rank_pm[0] += corrupt
        save_checkpoint(cfg.checkpoint_path, cfg, head, next_chunk)
        resumed = run_census(cfg, aggregates=workloads.RANK_AGGREGATES, resume=True)
        checks = Checks()
        workloads.check_census(checks, dims, len(filters), binary, first, resumed,
                               first.visited, first.visited)
        assert checks.failed == failed, checks.messages


@pytest.mark.parametrize("seed", range(20))
def test_census_forest_is_acyclic_and_inside_one_chunk(seed):
    inputs = workloads.generate_census(seed)
    s, t = inputs["dims"]
    parent = {}

    def root(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    assert len(inputs["fixed"]) == workloads.CENSUS_FIXED
    for i, j, sign in inputs["fixed"]:
        assert sign in (-1, 1) and i <= workloads.CENSUS_ROWS and (i - 1) * t + (j - 1) < 18
        a, b = root(("r", i)), root(("c", j))
        assert a != b
        parent[a] = b


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.METRICS
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {"norm_wall_s", "peak_rss_mb", "setup_s"}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "events", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
