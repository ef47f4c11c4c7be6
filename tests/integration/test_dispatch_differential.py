"""Wave dispatch vs the frozen scalar oracle: bit-identical, always.

The wave engine (memoized cost rows + incrementally-maintained
availability) is a pure re-plumbing of the scalar placement loop — it
must emit the *identical* ``PlacementDecision`` stream, not merely an
equally-good one. These differentials run every strategy in the
catalog through both engines on random workloads, with churn, breaker
vetoes, hedging, and control-plane partitions layered on, and demand
equality of the full decision stream, the per-task records, and the
scalar result metrics.

The scalar engine is the frozen oracle in ``tests/oracles/dispatch.py``,
injected with ``scalar_oracle()``, which also disables the cost model's
row memo. The two sides share no cached arithmetic: any drift in the
memo's invalidation or the in-place availability updates shows up here
as a decision mismatch. ``TestScalarOracle`` guards that independence.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.continuum import geo_random_continuum, science_grid
from repro.controlplane import ControlPlaneConfig
from repro.core import ContinuumScheduler, CostModel
from repro.core.strategies import (
    AdaptiveUCBStrategy,
    CostAwareStrategy,
    DataGravityStrategy,
    EnergyAwareStrategy,
    GreedyEFTStrategy,
    HEFTStrategy,
    LatencyAwareStrategy,
    MaxMinStrategy,
    MinMinStrategy,
    MultiObjectiveStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    TierStrategy,
)
from repro.errors import SchedulingError
from repro.faults import OutageSchedule, SiteOutage, TaskChaos
from repro.faults.partitions import PartitionSchedule, PartitionWindow
from repro.resilience import ResiliencePolicy
from repro.workloads import layered_random_dag
from tests.oracles.dispatch import scalar_dispatch, scalar_oracle

# every strategy shape in the repo: fixed, random (RNG-stream
# sensitive), round-robin (call-order sensitive), data-aware, batch
# list schedulers (prioritize-order sensitive), EFT/HEFT, the aware
# trio, the weighted combiner, and the learning bandit (feedback-order
# sensitive)
STRATEGIES = {
    "tier-cloud": lambda: TierStrategy("cloud"),
    "random": RandomStrategy,
    "round-robin": RoundRobinStrategy,
    "gravity": DataGravityStrategy,
    "min-min": MinMinStrategy,
    "max-min": MaxMinStrategy,
    "greedy-eft": GreedyEFTStrategy,
    "heft": HEFTStrategy,
    "latency": LatencyAwareStrategy,
    "energy": EnergyAwareStrategy,
    "cost": CostAwareStrategy,
    "multi": lambda: MultiObjectiveStrategy(
        {"time": 0.6, "usd": 0.2, "energy": 0.2}),
    "adaptive": AdaptiveUCBStrategy,
}

FAULT_FLAVORS = ("none", "outage", "resilient-churn", "hedge")

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_one(n_tasks, n_sites, seed, strategy_name, flavor):
    topo = geo_random_continuum(n_sites, seed=seed)
    dag, externals = layered_random_dag(n_tasks, n_levels=3, seed=seed)
    names = topo.site_names
    placed = [(d, names[i % len(names)]) for i, d in enumerate(externals)]

    kwargs = {}
    if flavor == "outage":
        kwargs["failures"] = (
            OutageSchedule()
            .add(SiteOutage(names[0], 0.5, 4.0))
            .add(SiteOutage(names[seed % len(names)], 2.0, 3.0))
        )
        kwargs["task_retries"] = 5
    elif flavor == "resilient-churn":
        # outages + the full policy: backoff retries, circuit breakers
        # (vetoes), budgets — the veto set seen by _dispatch now varies
        kwargs["failures"] = OutageSchedule().add(
            SiteOutage(names[0], 0.2, 6.0))
        kwargs["chaos"] = TaskChaos(
            seed=7,
            degraded_fail_prob=0.7,
            degraded={names[-1]: ((0.0, 50.0),)},
        )
        kwargs["resilience"] = ResiliencePolicy.full(seed=3)
    elif flavor == "hedge":
        # stragglers on one site so the hedging path (scalar in both
        # modes, interleaved with wave dispatch) actually fires
        kwargs["chaos"] = TaskChaos(
            seed=11,
            degraded_straggler_prob=1.0,
            straggler_factor=6.0,
            degraded={names[0]: ((0.0, 100.0),)},
        )
        kwargs["resilience"] = ResiliencePolicy.full(seed=5)

    sched = ContinuumScheduler(topo, seed=seed)
    return sched.run(dag, STRATEGIES[strategy_name](),
                     external_inputs=placed, **kwargs)


def run_both(params):
    """Run scalar then wave; both must succeed or both must fail."""
    try:
        with scalar_oracle():
            scalar = _run_one(*params)
    except SchedulingError as exc:
        with pytest.raises(SchedulingError) as caught:
            _run_one(*params)
        assert str(caught.value) == str(exc)
        return None, None
    wave = _run_one(*params)
    return scalar, wave


def assert_identical(scalar, wave):
    if scalar is None:
        return
    assert scalar.decisions == wave.decisions
    assert scalar.makespan == wave.makespan
    assert scalar.bytes_moved == wave.bytes_moved
    assert scalar.energy_j == wave.energy_j
    assert scalar.total_usd == wave.total_usd
    assert {n: (r.site, r.exec_finished, r.attempts)
            for n, r in scalar.records.items()} == \
        {n: (r.site, r.exec_finished, r.attempts)
         for n, r in wave.records.items()}


@st.composite
def scenario(draw):
    return (
        draw(st.integers(3, 20)),                       # tasks
        draw(st.integers(2, 10)),                       # sites
        draw(st.integers(0, 10_000)),                   # seed
        draw(st.sampled_from(sorted(STRATEGIES))),      # strategy
        draw(st.sampled_from(FAULT_FLAVORS)),           # fault flavor
    )


class TestWaveScalarDifferential:
    @SETTINGS
    @given(scenario())
    def test_decision_streams_bit_identical(self, params):
        scalar, wave = run_both(params)
        assert_identical(scalar, wave)

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    def test_every_strategy_under_churn(self, strategy_name):
        """Deterministic sweep: each strategy once, with outages, so a
        per-strategy regression names itself even if hypothesis
        happens not to draw it."""
        params = (16, 8, 42, strategy_name, "resilient-churn")
        scalar, wave = run_both(params)
        assert_identical(scalar, wave)

    def test_pinned_tasks_do_not_desync_rng(self):
        """Pinned tasks skip select_site in both engines — the wave
        generator must not consume RandomStrategy's RNG stream for
        them, or every later draw shifts."""
        from repro.datafabric import Dataset
        from repro.workflow import TaskSpec, WorkflowDAG

        topo = geo_random_continuum(6, seed=9)
        names = topo.site_names
        dag = WorkflowDAG("pinned-mix")
        for i in range(12):
            pinned = names[i % 3] if i % 3 == 0 else None
            dag.add_task(TaskSpec(f"t{i}", work=2.0 + i % 4,
                                  outputs=(Dataset(f"o{i}", 1e5),),
                                  pinned_site=pinned))
        def run():
            return ContinuumScheduler(topo, seed=5).run(dag, RandomStrategy())

        with scalar_oracle():
            scalar = run()
        assert scalar.decisions == run().decisions

    def test_partitioned_control_plane_identical(self):
        """Stale reads through a partitioned replicated catalog: the
        memo keys on the *view's* version, so staleness must be
        identically visible to both engines."""
        from repro.datafabric import Dataset
        from repro.workflow import TaskSpec, WorkflowDAG

        topo = science_grid()
        dag = WorkflowDAG("part-diff")
        ref = Dataset("ref", 5e7)
        prev = None
        for w in range(4):
            out = Dataset(f"o{w}", 1e6)
            dag.add_task(TaskSpec(
                f"t{w}", work=2.0,
                inputs=("ref",) if prev is None else ("ref", prev),
                outputs=(out,)))
            prev = out.name
        schedule = PartitionSchedule().add(
            PartitionWindow(1.0, 30.0, "minority", (0, 1)))
        def run():
            control = ControlPlaneConfig.for_lag(
                2.0, n_sites=5, read_mode="stale")
            return ContinuumScheduler(topo, seed=7).run(
                dag, RoundRobinStrategy(),
                external_inputs=[(ref, "beamline-edge")],
                control=control, partitions=schedule)

        with scalar_oracle():
            scalar = run()
        wave = run()
        assert scalar.decisions == wave.decisions
        assert scalar.makespan == wave.makespan
        assert scalar.control.reads == wave.control.reads
        assert scalar.control.misplacements == wave.control.misplacements


def _fanout_run():
    """Twenty tasks sharing one input signature: a single ready wave
    in which the row memo can serve every task after the first."""
    from repro.datafabric import Dataset
    from repro.workflow import TaskSpec, WorkflowDAG

    topo = geo_random_continuum(6, seed=2)
    dag = WorkflowDAG("fanout")
    dag.add_task(TaskSpec("src", work=1.0, outputs=(Dataset("d", 1e7),)))
    for i in range(20):
        dag.add_task(TaskSpec(f"t{i}", work=3.0, inputs=("d",)))
    return ContinuumScheduler(topo, seed=1).run(dag, GreedyEFTStrategy())


def _memo_hits(monkeypatch, run):
    """``run()``'s result plus its ``estimate_batch`` calls and cost-row
    memo hits. A hit hands back the arrays an earlier call built."""
    estimate_batch = CostModel.estimate_batch
    rows, tally = [], {"calls": 0, "hits": 0}

    def spy(self, task, sites):
        batch = estimate_batch(self, task, sites)
        tally["calls"] += 1
        tally["hits"] += any(row is batch.stage_time_s for row in rows)
        rows.append(batch.stage_time_s)
        return batch

    with monkeypatch.context() as patch:
        patch.setattr(CostModel, "estimate_batch", spy)
        return run(), tally


class TestScalarOracle:
    def test_oracle_shares_no_memoized_rows(self, monkeypatch):
        """The injected oracle must compute every cost row afresh, or
        the differential would compare the wave path with itself."""
        with scalar_oracle():
            scalar, scalar_tally = _memo_hits(monkeypatch, _fanout_run)
        wave, wave_tally = _memo_hits(monkeypatch, _fanout_run)
        assert scalar.decisions == wave.decisions
        assert scalar_tally["calls"] > 0 and scalar_tally["hits"] == 0
        assert wave_tally["calls"] > 0 and wave_tally["hits"] > 0

    def test_oracle_selects_engine_inside_block_only(self):
        from repro.core import context, scheduler

        before = scheduler.wave_dispatch, context.CostModel
        with pytest.raises(RuntimeError):
            with scalar_oracle():
                assert scheduler.wave_dispatch is scalar_dispatch
                raise RuntimeError
        assert (scheduler.wave_dispatch, context.CostModel) == before

    def test_dispatch_keyword_removed(self):
        topo = geo_random_continuum(4, seed=1)
        with pytest.raises(TypeError):
            ContinuumScheduler(topo, dispatch="wave")
