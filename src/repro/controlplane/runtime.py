"""Per-run bundle: plane + session + mirrored catalog + catalog view.

The scheduler owns one :class:`ControlRuntime` when a run opts into the
replicated control plane (``control=ControlPlaneConfig(...)``). It
wires the catalog mirror, the client session, and the planner-facing
view together so the scheduler touches one object instead of four.
"""

from __future__ import annotations

from repro.continuum.topology import Topology
from repro.controlplane.cluster import ControlPlane, ControlPlaneConfig
from repro.controlplane.session import ControlPlaneSession, ControlPlaneStats
from repro.controlplane.view import (
    MirroredCatalog, ReplicatedCatalogView,
)
from repro.faults.partitions import PartitionSchedule
from repro.utils.rng import RngRegistry


class ControlRuntime:
    """Everything one scheduled run needs from the control plane."""

    def __init__(self, config: ControlPlaneConfig, topology: Topology,
                 *, rngs: RngRegistry | None = None):
        self.config = config
        self.plane = ControlPlane(config, rngs=rngs)
        self.stats = ControlPlaneStats()
        self.session = ControlPlaneSession(self.plane, stats=self.stats)
        self.catalog = MirroredCatalog(self.plane)
        self.view = ReplicatedCatalogView(self.session, self.catalog, topology)

    def bind_clock(self, clock) -> None:
        self.catalog.bind_clock(clock)

    def emit_metrics(self, registry) -> None:
        """Re-emit the run's control-plane activity through a metrics
        registry (no-op when disabled): read-path counters labeled by
        consistency mode, election/commit activity, and the commit /
        read latency distributions as histograms."""
        if not registry.enabled:
            return
        s = self.stats
        reads = registry.counter(
            "controlplane_reads_total",
            "Metadata reads by consistency mode actually served",
            ("mode",))
        reads.labels(mode="quorum").inc(s.quorum_reads)
        reads.labels(mode="lease").inc(s.lease_reads)
        reads.labels(mode="stale").inc(s.stale_reads)
        for name, help_, value in (
            ("controlplane_degraded_reads_total",
             "Quorum/lease demands served stale during partitions",
             s.degraded_reads),
            ("controlplane_failover_reads_total",
             "Stale reads re-pointed to a fresher node", s.failover_reads),
            ("controlplane_staleness_violations_total",
             "Reads where even the freshest node exceeded the bound",
             s.staleness_violations),
            ("controlplane_unavailable_events_total",
             "Leaderless windows a read had to wait out",
             s.unavailable_events),
            ("controlplane_unavailable_seconds_total",
             "Simulated seconds spent waiting out leaderless windows",
             s.unavailable_s),
            ("controlplane_misplacements_total",
             "Placements where the view disagreed with physical truth",
             s.misplacements),
            ("controlplane_wasted_bytes_total",
             "Bytes pulled from a strictly worse source", s.wasted_bytes),
            ("controlplane_phantom_sources_total",
             "View offered a replica that wasn't there", s.phantom_sources),
            ("controlplane_fallback_reads_total",
             "View empty, authoritative answer used", s.fallback_reads),
            ("controlplane_elections_total",
             "Leader elections started across the cluster",
             self.plane.elections_started),
            ("controlplane_leader_changes_total",
             "Distinct terms led across the cluster",
             self.plane.leader_changes),
            ("controlplane_commits_total",
             "Replicated log commits", len(self.plane.commit_latencies)),
        ):
            registry.counter(name, help_).inc(value)
        read_h = registry.histogram(
            "controlplane_read_latency_seconds",
            "Metadata read latency distribution",
            start=1e-4, factor=2.0, count=30)
        for lat in s.read_latencies:
            read_h.observe(lat)
        commit_h = registry.histogram(
            "controlplane_commit_latency_seconds",
            "Replicated log commit latency distribution",
            start=1e-4, factor=2.0, count=30)
        for lat in self.plane.commit_latencies:
            commit_h.observe(lat)

    def placement_read(self, now: float) -> float:
        return self.session.placement_read(now)

    def arm_partitions(self, sim, schedule: PartitionSchedule) -> None:
        """Schedule every window's split and heal on the simulator; the
        plane resolves leader-style islands at fire time."""
        schedule.validate_against(self.config.n_sites)
        for window in schedule.windows:
            def begin(w=window):
                self.plane.begin_partition(w, sim.now)

            def end():
                self.plane.end_partition(sim.now)

            sim.schedule_at(window.start_s, begin)
            sim.schedule_at(window.end_s, end)
