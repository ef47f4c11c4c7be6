"""Tests of the benchmark itself. Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.core.scheduler import JobResult  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = 0.04


def _shape(inputs):
    return [(job.arrival_s,
             [(t.name, t.work, t.inputs,
               tuple(o.size_bytes for o in t.outputs))
              for t in job.dag.tasks],
             [(d.name, d.size_bytes, site) for d, site in job.external_inputs])
            for job in inputs.jobs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    a = workloads.build(name, 7, 1, SMOKE_SCALE)
    b = workloads.build(name, 7, 1, SMOKE_SCALE)
    c = workloads.build(name, 8, 1, SMOKE_SCALE)
    assert _shape(a) == _shape(b)
    assert a.options.keys() == b.options.keys()
    assert _shape(a) != _shape(c)


@pytest.fixture(scope="module")
def stream_run():
    inputs = workloads.build("stream", 3, 0, SMOKE_SCALE)
    return inputs, inputs.run()


def test_checks_accept_a_real_run(stream_run):
    inputs, result = stream_run
    assert checks.check_result(inputs.jobs, result) == []


def test_checks_reject_a_dropped_task_record(stream_run):
    inputs, result = stream_run
    records = dict(result.records)
    records.pop(sorted(records)[0])
    problems = checks.check_result(inputs.jobs, replace(result,
                                                        records=records))
    assert any("no record" in p for p in problems)


def test_checks_reject_out_of_order_lifecycle(stream_run):
    inputs, result = stream_run
    name = sorted(result.records)[0]
    rec = result.records[name]
    bad = replace(rec, exec_started=rec.exec_finished + 1.0)
    records = {**result.records, name: bad}
    problems = checks.check_result(inputs.jobs, replace(result,
                                                        records=records))
    assert any("out of order" in p for p in problems)


def test_checks_reject_a_wrong_job_finish(stream_run):
    inputs, result = stream_run
    jobs = list(result.jobs)
    jobs[0] = replace(jobs[0], finished_s=jobs[0].finished_s + 5.0)
    problems = checks.check_result(inputs.jobs, replace(result, jobs=jobs))
    assert any("spans" in p for p in problems)


def test_digest_sees_a_moved_task(stream_run):
    _inputs, result = stream_run
    name = sorted(result.records)[0]
    rec = result.records[name]
    moved = {**result.records,
             name: replace(rec, exec_finished=rec.exec_finished + 1e-9)}
    assert checks.sim_digest(moved) != checks.sim_digest(result.records)
    assert checks.sim_digest(dict(result.records)) == \
        checks.sim_digest(result.records)


def test_tail_leaves_ten_jobs_beyond():
    assert checks.tail(range(1, 1001)) == (99.0, 990, 10)
    assert checks.tail(range(1, 1000)) == (95.0, 950, 49)
    pct, _value, beyond = checks.tail(range(30))
    assert pct == 50.0 and beyond >= 1


def test_backlog_check_fires_on_growing_response():
    def jobs(responses):
        return [JobResult(f"j{i}", float(i), float(i) + r, 1)
                for i, r in enumerate(responses)]
    flat = jobs([10.0 + (i % 7) for i in range(400)])
    growing = jobs([10.0 + i * 0.5 for i in range(400)])
    assert checks.check_backlog([flat], 0.25) == []
    assert checks.check_backlog([growing], 0.25)
    assert checks.check_backlog([growing[:50]], 0.25) == []   # too small


def test_metric_names_and_spec():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} \
        in SPEC["end_to_end"]


def _smoke(name: str, trace: int, tmp_path) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "11", "--seconds", "1", "--trace", str(trace),
         "--scale", str(SMOKE_SCALE), "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run(name, tmp_path):
    doc = _smoke(name, 0, tmp_path)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_traced_run(name, tmp_path):
    from repro.observe import validate_chrome_trace

    doc = _smoke(name, 1, tmp_path)
    assert doc["correct"] and doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for key, value in doc["metrics"].items():
        assert value["unit"] == units[key]
    trace = json.loads((tmp_path / f"trace-{name}-s11.json").read_text())
    assert validate_chrome_trace(trace) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
