"""Substrate microbenchmarks: the hot paths under the experiments.

Unlike the E-series wrappers (one-shot experiment regeneration), these
are classic repeated-timing benchmarks of the kernels everything else
amortizes: event-queue churn, process context switches, the max-min
allocator, DAG construction/analysis, and placement-estimate evaluation.
Regressions here surface as E3 slowdowns later — this file catches them
at the source.
"""

import numpy as np

from repro.continuum import geo_random_continuum
from repro.core.context import SchedulingContext
from repro.datafabric import Dataset, ReplicaCatalog
from repro.netsim.fairness import max_min_fair_rates, weighted_max_min_rates
from repro.simcore import Simulator, Timeout
from repro.simcore.event import EventQueue
from repro.workflow import TaskSpec
from repro.workloads import layered_random_dag


def test_event_queue_push_pop(benchmark):
    def churn():
        q = EventQueue()
        for i in range(2000):
            q.push(float(i % 97), lambda: None)
        while q:
            q.pop()

    benchmark(churn)


def test_simulator_event_dispatch(benchmark):
    def run():
        sim = Simulator()
        for i in range(2000):
            sim.schedule(float(i), lambda: None)
        sim.run()
        return sim.event_count

    assert benchmark(run) == 2000


def test_process_context_switches(benchmark):
    def run():
        sim = Simulator()

        def ticker(n):
            for _ in range(n):
                yield Timeout(1.0)

        for _ in range(20):
            sim.process(ticker(100))
        sim.run()
        return sim.event_count

    benchmark(run)


def test_maxmin_allocator_100_flows(benchmark):
    rng = np.random.default_rng(0)
    caps = rng.uniform(1e6, 1e9, size=40)
    flows = [
        list(rng.choice(40, size=rng.integers(1, 5), replace=False))
        for _ in range(100)
    ]
    rates = benchmark(max_min_fair_rates, caps, flows)
    assert len(rates) == 100


def test_weighted_maxmin_allocator_100_flows(benchmark):
    rng = np.random.default_rng(0)
    caps = rng.uniform(1e6, 1e9, size=40)
    flows = [
        list(rng.choice(40, size=rng.integers(1, 5), replace=False))
        for _ in range(100)
    ]
    weights = rng.uniform(0.1, 3.0, size=100)
    rates = benchmark(weighted_max_min_rates, caps, flows, weights)
    assert len(rates) == 100


def test_dag_construction_500_tasks(benchmark):
    def build():
        dag, _ = layered_random_dag(500, n_levels=6, seed=1)
        return dag

    dag = benchmark(build)
    assert len(dag) == 500


def test_dag_critical_path_500_tasks(benchmark):
    dag, _ = layered_random_dag(500, n_levels=6, seed=1)
    length, path = benchmark(dag.critical_path)
    assert length > 0 and path


def test_placement_estimates_20_sites(benchmark):
    topo = geo_random_continuum(20, seed=2)
    catalog = ReplicaCatalog()
    catalog.register(Dataset("d", 1e8))
    catalog.add_replica("d", topo.site_names[0])
    ctx = SchedulingContext(topo, catalog)
    task = TaskSpec("t", 10.0, inputs=("d",))

    def evaluate_all():
        return [ctx.estimate_finish(task, site)[1] for site in ctx.candidates]

    finishes = benchmark(evaluate_all)
    assert len(finishes) == 20


def _churn_network(n_flows, bursty, n_sites=30, seed=7):
    """Drive a FlowNetwork through ``n_flows`` overlapping transfers.

    ``bursty=False`` staggers arrivals (every arrival/departure triggers
    a reallocation over all concurrent flows); ``bursty=True`` releases
    them in same-instant groups of 8 (the ``AllOf`` staging shape that
    same-timestamp coalescing collapses to one solve per group).
    """
    from repro.netsim import FlowNetwork

    topo = geo_random_continuum(n_sites, seed=seed)
    names = topo.site_names
    rng = np.random.default_rng(42)
    pairs = []
    while len(pairs) < n_flows:
        a, b = rng.choice(len(names), size=2, replace=False)
        pairs.append((names[a], names[b]))
    for a, b in pairs:  # warm routes: measure the solver, not Dijkstra
        topo.path_info(a, b)

    def run():
        sim = Simulator()
        net = FlowNetwork(sim, topo)
        for i, (a, b) in enumerate(pairs):
            start = 0.001 * (i // 8) if bursty else 0.001 * i
            sim.schedule(start, lambda a=a, b=b: net.transfer(a, b, 5e7))
        sim.run()
        assert net.active_flow_count == 0
        return net

    return run


def test_reallocate_200_concurrent_flows(benchmark):
    """Flow-arrival churn: every stagger step re-solves fairness over up
    to 200 concurrent flows against the persistent incidence matrix."""
    net = benchmark(_churn_network(200, bursty=False))
    assert net.flows_completed == 200


def test_reallocate_200_flows_bursty_arrivals(benchmark):
    """Same churn with same-instant arrival bursts: coalescing must
    collapse each burst to one deferred solve."""
    net = benchmark(_churn_network(200, bursty=True))
    assert net.flows_completed == 200


def test_estimate_batch_100_sites(benchmark):
    topo = geo_random_continuum(100, seed=2)
    catalog = ReplicaCatalog()
    for i in range(4):
        catalog.register(Dataset(f"d{i}", 1e8))
        catalog.add_replica(f"d{i}", topo.site_names[i])
    ctx = SchedulingContext(topo, catalog)
    task = TaskSpec("t", 10.0, inputs=("d0", "d1", "d2", "d3"))
    sites = ctx.candidates

    finishes = benchmark(
        lambda: ctx.estimate_finish_batch(task, sites)[1]
    )
    assert len(finishes) == 100


def test_estimate_scalar_100_sites(benchmark):
    """Scalar baseline for the batch benchmark above — the per-site
    Python loop estimate_batch replaces in strategy ranking."""
    topo = geo_random_continuum(100, seed=2)
    catalog = ReplicaCatalog()
    for i in range(4):
        catalog.register(Dataset(f"d{i}", 1e8))
        catalog.add_replica(f"d{i}", topo.site_names[i])
    ctx = SchedulingContext(topo, catalog)
    task = TaskSpec("t", 10.0, inputs=("d0", "d1", "d2", "d3"))

    def evaluate_all():
        return [ctx.estimate_finish(task, site)[1] for site in ctx.candidates]

    finishes = benchmark(evaluate_all)
    assert len(finishes) == 100
