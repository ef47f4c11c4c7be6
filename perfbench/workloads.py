"""Seeded workload generators for the end-to-end continuum benchmark.

Each workload is a Poisson stream of workflow jobs driven through
``ContinuumScheduler.run_stream``. A benchmark run splits its workload
into ``SIZES[name]["parts"]`` sub-streams, each with its own derived
seed: the host clock is read once per sub-stream, and the simulated
statistics pool every job of every sub-stream, which averages out the
run-to-run regimes one long stream settles into.

``build(name, seed, part)`` returns everything one ``run_stream`` call
needs. The same ``(name, seed, part)`` always gives the same inputs, and
every call returns fresh objects, because strategies and run state are
single-use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.continuum import Tier, geo_random_continuum, zoo_topology
from repro.controlplane import ControlPlaneConfig
from repro.core import ContinuumScheduler, GreedyEFTStrategy
from repro.core.scheduler import StreamJob
from repro.core.strategies import RoundRobinStrategy
from repro.datafabric import Dataset
from repro.faults import ChaosCampaign
from repro.resilience import ResiliencePolicy
from repro.utils.rng import RngRegistry
from repro.workflow import TaskSpec, WorkflowDAG
from repro.workloads import layered_random_dag, zipf_dataset_stream

MB = 1e6
# The continuum (topology, data pool, and the fault campaign or partition
# schedule of each sub-stream) is fixed; ``--seed`` varies the traffic
# that runs on it. Simulated response times depend far more on the
# topology than on the traffic, so drawing a new continuum per seed
# would swamp every comparison.
CONTINUUM_SEED = 0

# Jobs per sub-stream and offered load (jobs per simulated second). Every
# rate sits well below the knee of its workload, so response times stay
# flat over the run (the backlog check enforces this).
SIZES = {
    "stream": dict(parts=4, jobs=250, rate=0.5),
    "data_chaos": dict(parts=16, jobs=60, rate=0.2),
    "control": dict(parts=16, jobs=50, rate=0.2),
}
WORKLOADS = tuple(SIZES)


@dataclass
class Inputs:
    """One ``run_stream`` call: the scheduler, its jobs and options."""

    scheduler: ContinuumScheduler
    jobs: list[StreamJob]
    strategy: object
    options: dict = field(default_factory=dict)

    @property
    def n_tasks(self) -> int:
        return sum(len(job.dag) for job in self.jobs)

    def run(self, **extra):
        return self.scheduler.run_stream(self.jobs, self.strategy,
                                         **self.options, **extra)


def _arrivals(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """``n`` Poisson arrival times (exactly ``n``, unlike a horizon cut)."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def _peripheral(topology) -> list[str]:
    return [s.name for s in topology.sites if s.tier.is_peripheral]


def _stream(seed: int, part: int, jobs: int, rate: float) -> Inputs:
    """Independent 10-task jobs with small private inputs, no faults."""
    topo = geo_random_continuum(24, seed=CONTINUUM_SEED)
    rng = RngRegistry(seed).stream(f"perfbench:stream:{part}")
    edge = _peripheral(topo)
    out = []
    for i, t in enumerate(_arrivals(rng, jobs, rate)):
        dag, externals = layered_random_dag(
            10, data_range=(10e3, 100e3), seed=seed, name=f"s{part}j{i}")
        placed = tuple((d, edge[int(rng.integers(len(edge)))])
                       for d in externals)
        out.append(StreamJob(float(t), dag, placed))
    return Inputs(ContinuumScheduler(topo, seed=seed),
                  out, GreedyEFTStrategy())


def _data_chaos(seed: int, part: int, jobs: int, rate: float) -> Inputs:
    """8-task jobs whose sources read Zipf-popular 100-500 MB datasets
    from a shared pool, under a medium chaos campaign."""
    topo = geo_random_continuum(24, bandwidth_scale=0.2,
                                seed=CONTINUUM_SEED)
    edge = _peripheral(topo)
    sizes = RngRegistry(CONTINUUM_SEED).stream("perfbench:pool")
    pool = [Dataset(f"pool{k}", float(sizes.uniform(100 * MB, 500 * MB)))
            for k in range(32)]
    rng = RngRegistry(seed).stream(f"perfbench:data_chaos:{part}")
    home = [edge[k % len(edge)] for k in range(len(pool))]
    arrivals = _arrivals(rng, jobs, rate)
    out = []
    for i, t in enumerate(arrivals):
        dag, externals = layered_random_dag(8, seed=seed,
                                            name=f"d{part}j{i}")
        picks = zipf_dataset_stream(len(pool), len(externals), alpha=1.1,
                                    rng=rng)
        swap = {d.name: pool[k].name for d, k in zip(externals, picks)}
        shared = WorkflowDAG(dag.name)
        for task in dag.tasks:
            shared.add_task(replace(
                task, inputs=tuple(swap.get(n, n) for n in task.inputs)))
        used = sorted(set(picks))
        out.append(StreamJob(float(t), shared,
                             tuple((pool[k], home[k]) for k in used)))
    horizon = float(arrivals[-1]) + 1_000.0
    plan = ChaosCampaign.preset("medium", seed=CONTINUUM_SEED + part,
                                horizon_s=horizon).build(topo)
    sched = ContinuumScheduler(
        topo, seed=seed,
        transfer_failure_prob=plan.transfer_failure_prob,
        transfer_max_attempts=10)
    return Inputs(sched, out, GreedyEFTStrategy(),
                  dict(failures=plan.outages, chaos=plan.task_chaos,
                       resilience=ResiliencePolicy.full(max_attempts=100,
                                                        seed=seed),
                       task_retries=100))


def _calibration_job(name: str, refs: list[Dataset], rng) -> WorkflowDAG:
    """Two serialized waves of four tasks, each re-reading a shared
    reference frame (the E16 calibration fan-out shape)."""
    dag = WorkflowDAG(name)
    gate = None
    for w in range(2):
        outs = []
        for t in range(4):
            ref = refs[int(rng.integers(len(refs)))]
            out = Dataset(f"{name}-w{w}t{t}", 1 * MB)
            inputs = (ref.name,) if gate is None else (ref.name, gate)
            dag.add_task(TaskSpec(f"{name}-w{w}-t{t}", work=2.0,
                                  inputs=inputs, outputs=(out,)))
            outs.append(out)
        sync = Dataset(f"{name}-gate{w}", 0.1 * MB)
        dag.add_task(TaskSpec(f"{name}-sync{w}", work=1.0,
                              inputs=tuple(o.name for o in outs),
                              outputs=(sync,)))
        gate = sync.name
    return dag


def _control(seed: int, part: int, jobs: int, rate: float) -> Inputs:
    """Calibration fan-outs on the multi-region zoo, every metadata read
    a quorum read, under a seeded control-plane partition schedule."""
    topo = zoo_topology("multi-region", n_regions=3, seed=CONTINUUM_SEED)
    rng = RngRegistry(seed).stream(f"perfbench:control:{part}")
    edges = [s.name for s in topo.sites_by_tier(Tier.EDGE)]
    refs = [Dataset(f"ref{k}", 80 * MB) for k in range(6)]
    home = {r.name: edges[k % len(edges)] for k, r in enumerate(refs)}
    arrivals = _arrivals(rng, jobs, rate)
    out = []
    for i, t in enumerate(arrivals):
        dag = _calibration_job(f"c{part}j{i}", refs, rng)
        used = sorted(dag.external_inputs())
        out.append(StreamJob(float(t), dag,
                             tuple((r, home[r.name]) for r in refs
                                   if r.name in used)))
    campaign = ChaosCampaign(seed=CONTINUUM_SEED + part,
                             horizon_s=float(arrivals[-1]) + 600.0,
                             partition_rate_per_s=1 / 200.0,
                             partition_mean_duration_s=30.0)
    plan = campaign.build(topo, n_control_sites=5)
    return Inputs(ContinuumScheduler(topo, seed=seed),
                  out, RoundRobinStrategy(),
                  dict(control=ControlPlaneConfig.for_lag(
                           0.5, n_sites=5, read_mode="quorum"),
                       partitions=plan.partitions))


_BUILDERS = {"stream": _stream, "data_chaos": _data_chaos,
             "control": _control}


def build(name: str, seed: int, part: int, scale: float = 1.0) -> Inputs:
    """Inputs of sub-stream ``part`` of workload ``name`` for ``seed``.

    ``scale`` shrinks the job count (smoke tests); the benchmark uses 1.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    size = SIZES[name]
    jobs = max(2, int(round(size["jobs"] * scale)))
    return _BUILDERS[name](seed * 1000 + part, part, jobs, size["rate"])
