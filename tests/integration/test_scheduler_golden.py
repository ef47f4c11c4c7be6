"""Golden digests of two scheduler runs that exercise every attempt path.

Each case runs a small stream through the scheduler and hashes what the
run produced: the placement-decision stream, every ``TaskRecord`` field,
``ResilienceStats``, interruptions, wasted execution time, per-site busy
time, job finish times, and the tracer's span stream (which fixes the
order of every interrupt, retry and hedge). A refactor of the
scheduler's bookkeeping must reproduce every digest exactly; a change
that is meant to move simulated results must re-record them and say why.

The second class checks that the cases really reach the paths the
digests are meant to pin: hedges won and lost, attempt timeouts,
transient faults, staging failures, and an outage that interrupts more
than one attempt at once.

Re-record with::

    PYTHONPATH=src python -m tests.integration.test_scheduler_golden
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from functools import cache

import numpy as np
import pytest

from repro.continuum import geo_random_continuum, science_grid
from repro.controlplane import ControlPlaneConfig
from repro.core import ContinuumScheduler, GreedyEFTStrategy
from repro.core.scheduler import StreamJob, _Run
from repro.core.strategies import RoundRobinStrategy
from repro.datafabric import Dataset
from repro.faults import ChaosCampaign
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.observe.tracer import Tracer
from repro.resilience import ResiliencePolicy
from repro.utils.rng import RngRegistry
from repro.workflow import TaskSpec, WorkflowDAG
from repro.workloads import layered_random_dag

GOLDEN = {
    "chaos_stream": {
        "decisions": "40e380a6a5ac51ae",
        "records": "1865631b68c049e8",
        "resilience": "199f04707391a38f",
        "totals": "3899056b208f31c2",
        "jobs": "a4e48c449a71a6ef",
        "trace": "1f648c77da0a3f75",
    },
    "control_partitions": {
        "decisions": "9c9e36f3bf6d40c0",
        "records": "a1c6e4194f27b2bb",
        "resilience": "bba3fa7822a092cb",
        "totals": "140cc7d30303ed8c",
        "jobs": "b5853b7bba98fe9f",
        "trace": "41ef0b4e1a3f1141",
    },
}


def _arrivals(rng, n: int, rate: float) -> list[float]:
    return [float(t) for t in np.cumsum(rng.exponential(1.0 / rate, size=n))]


def _chaos_stream():
    """Layered 8-task jobs on an 8-site continuum under the ``high``
    chaos preset, the full resilience policy and corrupted transfers
    that are not retried below the scheduler (each one fails staging).
    Its outages hit tasks that were retried or hedged, so the digests
    fix the order in which an outage interrupts its victims."""
    topo = geo_random_continuum(8, seed=2)
    rng = RngRegistry(3).stream("golden")
    edge = [s.name for s in topo.sites if s.tier.is_peripheral]
    jobs = []
    for i, t in enumerate(_arrivals(rng, 20, 0.3)):
        dag, externals = layered_random_dag(8, seed=3 + i, name=f"g{i}")
        placed = tuple((d, edge[int(rng.integers(len(edge)))])
                       for d in externals)
        jobs.append(StreamJob(t, dag, placed))
    plan = ChaosCampaign.preset(
        "high", seed=2, horizon_s=jobs[-1].arrival_s + 1000.0).build(topo)
    sched = ContinuumScheduler(topo, seed=3, transfer_failure_prob=0.05,
                               transfer_max_attempts=1)
    return sched, jobs, GreedyEFTStrategy(), dict(
        failures=plan.outages, chaos=plan.task_chaos,
        resilience=ResiliencePolicy.full(seed=3))


def _calibration(name: str, ref: Dataset) -> WorkflowDAG:
    dag = WorkflowDAG(name)
    gate = None
    for w in range(2):
        outs = []
        for t in range(3):
            out = Dataset(f"{name}-w{w}t{t}", 1e6)
            inputs = (ref.name,) if gate is None else (ref.name, gate)
            dag.add_task(TaskSpec(f"{name}-w{w}-t{t}", work=2.0,
                                  inputs=inputs, outputs=(out,)))
            outs.append(out)
        sync = Dataset(f"{name}-gate{w}", 1e5)
        dag.add_task(TaskSpec(f"{name}-sync{w}", work=1.0,
                              inputs=tuple(o.name for o in outs),
                              outputs=(sync,)))
        gate = sync.name
    return dag


def _control_partitions():
    """Calibration fan-outs reading one shared reference through quorum
    reads on a 5-site control plane that loses its leader, then a
    minority, mid-stream."""
    topo = science_grid()
    rng = RngRegistry(5).stream("golden")
    ref = Dataset("ref", 5e7)
    jobs = [StreamJob(t, _calibration(f"c{i}", ref), ((ref, "beamline-edge"),))
            for i, t in enumerate(_arrivals(rng, 8, 0.1))]
    partitions = PartitionSchedule()
    partitions.add(PartitionWindow(10.0, 40.0, "leader"))
    partitions.add(PartitionWindow(50.0, 80.0, "minority", (0, 1)))
    return ContinuumScheduler(topo, seed=5), jobs, RoundRobinStrategy(), dict(
        control=ControlPlaneConfig.for_lag(2.0, n_sites=5,
                                           read_mode="quorum"),
        partitions=partitions)


CASES = {"chaos_stream": _chaos_stream,
         "control_partitions": _control_partitions}


@cache
def _execute(case: str):
    """Run ``case`` the way ``run_stream`` does, keeping the run state:
    the decision stream and per-site busy time are not on the
    ``StreamResult``."""
    sched, jobs, strategy, options = CASES[case]()
    tracer = Tracer()
    run = _Run(sched, sorted(jobs, key=lambda j: j.arrival_s), strategy,
               tracer=tracer, **options)
    run.execute()
    return run, run.stream_result(), tracer


def _hash(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _digests(case: str) -> dict[str, str]:
    run, result, tracer = _execute(case)
    return {
        "decisions": _hash(d._astuple() for d in run.decisions),
        "records": _hash((name, dataclasses.astuple(rec))
                         for name, rec in result.records.items()),
        "resilience": _hash([dataclasses.astuple(result.resilience)]),
        "totals": _hash([result.interruptions, result.wasted_exec_s,
                         sorted(run.site_busy.items()), result.energy_j,
                         result.compute_usd, result.bytes_moved]),
        "jobs": _hash((j.name, j.arrival_s, j.finished_s)
                      for j in result.jobs),
        "trace": _hash((s.name, s.category, s.begin_s, s.end_s, s.status,
                        sorted(s.attrs.items(), key=lambda kv: kv[0]))
                       for s in tracer.spans),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_digests_match_golden(case):
    assert _digests(case) == GOLDEN[case]


class TestCoverage:
    """The golden cases reach every attempt path the digests pin."""

    def _interrupts(self, prefix: str):
        return [s for case in CASES for s in _execute(case)[2].spans
                if s.name == "interrupted"
                and str(s.attrs["cause"]).startswith(prefix)]

    def _stats(self):
        return [_execute(case)[1].resilience for case in CASES]

    def test_hedges_won_and_lost(self):
        assert sum(s.hedges_won for s in self._stats()) > 0
        assert sum(s.hedges_lost for s in self._stats()) > 0

    def test_attempt_timeouts(self):
        assert sum(s.timeouts for s in self._stats()) > 0
        assert self._interrupts("timeout@")

    def test_transient_faults(self):
        assert sum(s.transient_faults for s in self._stats()) > 0

    def test_staging_failures(self):
        assert self._interrupts("staging@")

    def test_outage_interrupts_several_attempts_at_once(self):
        hits = Counter((s.begin_s, s.attrs["cause"])
                       for s in self._interrupts("outage@"))
        assert max(hits.values(), default=0) >= 2

    def test_partitions_cost_read_availability(self):
        control = _execute("control_partitions")[1].control
        assert control.reads > 0
        assert control.unavailable_events >= 1


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": {{')
        for key, value in _digests(name).items():
            print(f'        "{key}": "{value}",')
        print("    },")
