"""Golden digests of the control plane's consensus outcomes.

Two runs are hashed: the scheduler golden's ``control_partitions`` case
(quorum reads on a 5-site plane that loses its leader, then a minority)
and a plane-only run that drives ``submit``/``advance`` directly
through a leader partition and a minority partition with
``snapshot_threshold=8``. Each digest covers what the plane decided:
messages sent and dropped, writes acked and failed, every ticket's
index, term, leader, ack time and failed flag, commit latencies,
elections and terms led, each node's term, commit index and log base,
and the applied-state fingerprints.

Any change to the plane's host-side machinery (queue, timers, commit
rule, ticket settling, message classes) must reproduce both digests
exactly. A change that is meant to move consensus results must
re-record them and say why.

The coverage class checks that the plane-only run reaches the paths the
digest is meant to pin: all six message types delivered, a conflicting
suffix truncated and a snapshot installed.

Re-record with::

    PYTHONPATH=src python -m tests.controlplane.test_plane_golden
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import contextmanager
from functools import cache

from repro.controlplane import Command, ControlPlane, ControlPlaneConfig
from repro.controlplane.log import ReplicatedLog
from repro.controlplane.node import RaftNode
from repro.core.scheduler import _Run
from repro.faults.partitions import PartitionWindow
from repro.utils.rng import RngRegistry
from tests.integration.test_scheduler_golden import CASES

GOLDEN = {
    "control_partitions": "b16cf074327dd240",
    "plane_only": "1dacab55b91dd151",
}


@contextmanager
def _patched(cls, name, wrap):
    original = getattr(cls, name)
    setattr(cls, name, wrap(original))
    try:
        yield
    finally:
        setattr(cls, name, original)


def _recording_submit(tickets):
    def wrap(submit):
        def recorded(self, *args, **kwargs):
            ticket = submit(self, *args, **kwargs)
            tickets.append(ticket)
            return ticket
        return recorded
    return wrap


def _counting(counts, key):
    def wrap(method):
        def counted(self, *args, **kwargs):
            counts[key(args)] += 1
            return method(self, *args, **kwargs)
        return counted
    return wrap


def _mutation(i: int) -> Command:
    """Commands that apply whichever subset of them commits."""
    if i % 2 == 0:
        return Command("register", (f"d{i}", 100.0 * (i + 1), "generic"))
    return Command("endpoint_down" if i % 4 == 1 else "endpoint_up",
                   (f"s{i % 3}",))


def _scheduler_case():
    sched, jobs, strategy, options = CASES["control_partitions"]()
    tickets = []
    with _patched(ControlPlane, "submit", _recording_submit(tickets)):
        run = _Run(sched, sorted(jobs, key=lambda j: j.arrival_s), strategy,
                   **options)
        run.execute()
    return run.control.plane, tickets


def _plane_only():
    """A few steady writes; a leader partition whose old leader keeps
    taking writes it can never commit (the majority stays below the
    compaction threshold, so the stale suffix is truncated on heal);
    then a minority partition long enough for the majority to compact
    past the island's logs (healed by snapshot installation)."""
    config = ControlPlaneConfig(
        n_sites=5, replication_lag_s=0.05, heartbeat_interval_s=0.5,
        election_timeout_s=(3.0, 6.0), snapshot_threshold=8)
    plane = ControlPlane(config, RngRegistry(9))
    tickets = []
    t, i = 0.0, 0
    for _ in range(3):
        tickets.append(plane.submit(_mutation(i), t))
        t, i = t + 0.5, i + 1
    old = plane.leader_id()
    plane.begin_partition(PartitionWindow(t, t + 20.0, "leader"), t)
    for _ in range(4):
        tickets.append(plane.submit(_mutation(i), t, target=old))
        t, i = t + 0.25, i + 1
    t += 10.0
    for _ in range(2):
        tickets.append(plane.submit(_mutation(i), t))
        t, i = t + 1.0, i + 1
    plane.end_partition(t + 7.0)
    t += 8.0
    for _ in range(10):
        tickets.append(plane.submit(_mutation(i), t))
        t, i = t + 0.5, i + 1
    plane.begin_partition(
        PartitionWindow(t, t + 30.0, "minority", (1, 2)), t)
    for _ in range(24):
        tickets.append(plane.submit(_mutation(i), t))
        t, i = t + 1.0, i + 1
    plane.end_partition(t + 6.0)
    plane.advance(t + 40.0)
    return plane, tickets


RUNS = {"control_partitions": _scheduler_case, "plane_only": _plane_only}


@cache
def _execute(name: str):
    return RUNS[name]()


def _digest(plane: ControlPlane, tickets) -> str:
    h = hashlib.sha256()
    for row in (
        (plane.messages_sent, plane.messages_dropped),
        (plane.writes_submitted, plane.writes_acked, plane.writes_failed),
        [(tk.index, tk.term, tk.leader, tk.acked_at, tk.failed)
         for tk in tickets],
        plane.commit_latencies,
        (plane.elections_started, [n.terms_led for n in plane.nodes]),
        [(n.term, n.commit_index, n.log.base_index) for n in plane.nodes],
        plane.fingerprints(),
    ):
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _digests() -> dict[str, str]:
    return {name: _digest(*_execute(name)) for name in RUNS}


def test_digests_match_golden():
    assert _digests() == GOLDEN


@cache
def _observed_plane_only():
    delivered, repairs = Counter(), Counter()
    with _patched(RaftNode, "on_message",
                  _counting(delivered, lambda a: type(a[0]).__name__)), \
            _patched(ReplicatedLog, "truncate_from",
                     _counting(repairs, lambda a: "truncate")), \
            _patched(ReplicatedLog, "install",
                     _counting(repairs, lambda a: "install")):
        plane, _tickets = _plane_only()
    return delivered, repairs, plane


class TestPlaneOnlyCoverage:
    """The plane-only run reaches every path its digest pins."""

    def test_delivers_all_six_message_types(self):
        delivered = _observed_plane_only()[0]
        assert set(delivered) == {
            "RequestVote", "VoteReply", "AppendEntries", "AppendReply",
            "InstallSnapshot", "SnapshotReply"}

    def test_truncates_a_conflicting_suffix(self):
        assert _observed_plane_only()[1]["truncate"] > 0

    def test_installs_a_snapshot(self):
        assert _observed_plane_only()[1]["install"] > 0

    def test_acks_and_fails_writes_and_drops_messages(self):
        plane = _observed_plane_only()[2]
        assert plane.writes_acked > 0 and plane.writes_failed > 0
        assert plane.messages_dropped > 0
        assert plane.converged()


if __name__ == "__main__":
    for name, value in _digests().items():
        print(f'    "{name}": "{value}",')
