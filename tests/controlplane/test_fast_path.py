"""The control plane's cheap-per-message rules against what they replaced.

- The O(peers) commit rule picks the same commit index as the frozen
  per-index scan (:mod:`tests.oracles.commit`) on random term-monotone
  logs, match indexes, compaction bases and quorum sizes.
- ``ReplicatedLog.last_index``/``last_term`` attributes stay equal to
  the log's tail under random append, truncate, compact and install.
- Election timeouts drawn from one ``random()`` equal
  ``Generator.uniform`` on the same stream, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.log import NOOP, ReplicatedLog, Snapshot
from repro.controlplane.node import RaftNode, quorum_commit_index
from tests.oracles.commit import scan_commit_index


def _log(terms, base):
    log = ReplicatedLog()
    for term in terms:
        log.append(term, NOOP)
    if base:
        log.compact(Snapshot(base, log.term_at(base), {}))
    return log


@st.composite
def leaders(draw):
    """A leader's log (terms never decrease along it), its term, commit
    index, compaction base, cluster size and peers' match indexes."""
    steps = draw(st.lists(st.integers(0, 2), max_size=30))
    terms, term = [], draw(st.integers(0, 2))
    for step in steps:
        term += step
        terms.append(term)
    last = len(terms)
    base = draw(st.integers(0, last))
    n = draw(st.integers(1, 7))
    leader_term = (terms[-1] if terms else 0) + draw(st.integers(0, 2))
    commit = draw(st.integers(0, last))
    match = {p: draw(st.integers(0, last)) for p in range(1, n)}
    return _log(terms, base), leader_term, commit, match, n


@settings(max_examples=400, deadline=None)
@given(leaders())
def test_commit_rule_matches_per_index_scan(leader):
    log, term, commit, match, n = leader
    quorum = n // 2 + 1
    peers = tuple(range(1, n))
    assert quorum_commit_index(log, term, commit, match.values(), quorum) \
        == scan_commit_index(log, term, commit, match, peers, quorum)


def _tail(log):
    entries = log.entries_from(log.base_index + 1)
    if entries:
        return entries[-1].index, entries[-1].term
    return log.base_index, log.base_term


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["append", "truncate", "compact",
                                           "install"]),
                          st.integers(0, 40)), max_size=40))
def test_log_shape_attributes_track_the_tail(ops):
    log, term = ReplicatedLog(), 0
    for op, k in ops:
        if op == "append":
            term += k % 2
            log.append(term, NOOP)
        elif op == "truncate" and log.last_index > log.base_index:
            log.truncate_from(log.base_index + 1 + k % len(log))
        elif op == "compact" and log.last_index > log.base_index:
            index = log.base_index + 1 + k % len(log)
            log.compact(Snapshot(index, log.term_at(index), {}))
        elif op == "install":
            term = max(term, k % 5)
            log.install(Snapshot(log.last_index + k, term, {}))
        assert (log.last_index, log.last_term) == _tail(log)


def test_timeout_draws_equal_generator_uniform():
    for seed, bounds in ((0, (3.0, 6.0)), (7, (1.5, 3.0)), (11, (0.3, 7.9))):
        node = RaftNode(0, 5, election_rng=np.random.default_rng(seed),
                        heartbeat_interval_s=0.1, election_timeout_s=bounds,
                        snapshot_threshold=8)
        ref = np.random.default_rng(seed)
        ref.uniform(*bounds)  # the draw made in the constructor
        for now in np.linspace(0.0, 1e4, 500):
            assert node._draw_timeout(float(now)) == \
                float(now) + float(ref.uniform(*bounds))
