"""Commit-rule oracle: the leader's per-index commit scan.

The scan :meth:`repro.controlplane.node.RaftNode._advance_commit` ran
before it became :func:`repro.controlplane.node.quorum_commit_index`,
kept verbatim except that the node's fields are arguments. It walks down
from the last index, stops at the first entry not from the current term
and commits the first index a quorum holds.

Do not optimise this: its value is staying what shipped.
"""

from __future__ import annotations


def scan_commit_index(log, term, commit_index, match_index, peers, quorum):
    for idx in range(log.last_index, commit_index, -1):
        if log.term_at(idx) != term:
            break
        replicated = 1 + sum(
            1 for p in peers if match_index.get(p, 0) >= idx)
        if replicated >= quorum:
            return idx
    return commit_index
