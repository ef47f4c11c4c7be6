"""Replicated-log primitives: commands, entries, snapshots.

The control plane replicates *metadata mutations* — replica add/drop
and endpoint liveness — as a leader-ordered log. Commands are plain
data (op name + positional args) so entries hash, compare, and copy
trivially; the applied state machine lives in
:mod:`repro.controlplane.state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ControlPlaneError

#: Operations a log entry may carry. ``noop`` is appended by a freshly
#: elected leader so entries from earlier terms become committable
#: (Raft §5.4.2); it does not touch catalog state.
COMMAND_OPS = (
    "noop",
    "register",
    "add_replica",
    "drop_replica",
    "endpoint_up",
    "endpoint_down",
)


@dataclass(frozen=True)
class Command:
    """One metadata mutation, as plain data.

    ``args`` by op:
      - ``noop``: ``()``
      - ``register``: ``(name, size_bytes, kind)``
      - ``add_replica``: ``(name, site, created_at)``
      - ``drop_replica``: ``(name, site)``
      - ``endpoint_up`` / ``endpoint_down``: ``(site,)``
    """

    op: str
    args: tuple = ()

    def __post_init__(self):
        if self.op not in COMMAND_OPS:
            raise ControlPlaneError(f"unknown command op {self.op!r}")


NOOP = Command("noop")


class LogEntry(NamedTuple):
    """One replicated command at its 1-based ``index``, proposed in
    ``term``."""

    index: int
    term: int
    command: Command


@dataclass(frozen=True)
class Snapshot:
    """A compacted prefix: the state-machine image at ``last_index``."""

    last_index: int
    last_term: int
    state: dict  # ControlState.to_snapshot() document


class ReplicatedLog:
    """One node's log: a snapshot base plus the live entry suffix.

    Indices are 1-based as in the Raft paper; index 0 is the empty-log
    sentinel with term 0. After compaction, entries at or below
    ``base_index`` exist only inside the snapshot. ``last_index`` and
    ``last_term`` are plain attributes kept current by every mutation
    (consensus reads them on every message).
    """

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []
        self.base_index = 0
        self.base_term = 0
        self.last_index = 0
        self.last_term = 0
        self.snapshot: Snapshot | None = None

    # -- shape -------------------------------------------------------------------
    def _sync_tail(self) -> None:
        if self._entries:
            self.last_index, self.last_term = self._entries[-1][:2]
        else:
            self.last_index, self.last_term = self.base_index, self.base_term

    def __len__(self) -> int:
        return len(self._entries)

    def term_at(self, index: int) -> int | None:
        """Term of ``index``, ``None`` when the entry is unknown (past
        the end, or compacted away below the snapshot base)."""
        if index == self.base_index:
            return self.base_term
        if index < self.base_index or index > self.last_index:
            return None
        return self._entries[index - self.base_index - 1].term

    def entry(self, index: int) -> LogEntry:
        if index <= self.base_index or index > self.last_index:
            raise ControlPlaneError(f"log entry {index} not available")
        return self._entries[index - self.base_index - 1]

    # -- mutation -----------------------------------------------------------------
    def append(self, term: int, command: Command) -> LogEntry:
        self.last_index += 1
        self.last_term = term
        entry = LogEntry(self.last_index, term, command)
        self._entries.append(entry)
        return entry

    def entries_from(self, index: int) -> tuple[LogEntry, ...]:
        """Entries at ``index`` and beyond (empty when up to date).
        Raises when ``index`` has been compacted away — the caller must
        fall back to snapshot installation."""
        if index <= self.base_index:
            raise ControlPlaneError(
                f"entries from {index} compacted (base {self.base_index})"
            )
        return tuple(self._entries[index - self.base_index - 1:])

    def truncate_from(self, index: int) -> None:
        """Drop ``index`` and everything after it (conflict repair)."""
        if index <= self.base_index:
            raise ControlPlaneError(
                f"cannot truncate into compacted prefix at {index}"
            )
        del self._entries[index - self.base_index - 1:]
        self._sync_tail()

    def compact(self, snapshot: Snapshot) -> None:
        """Discard entries covered by ``snapshot``, keeping the suffix."""
        if snapshot.last_index <= self.base_index:
            return
        keep = snapshot.last_index - self.base_index
        self._entries = self._entries[keep:]
        self.base_index = snapshot.last_index
        self.base_term = snapshot.last_term
        self.snapshot = snapshot
        self._sync_tail()

    def install(self, snapshot: Snapshot) -> None:
        """Replace the whole log with ``snapshot`` (follower catch-up
        when the leader has compacted past our tail)."""
        self._entries = []
        self.base_index = snapshot.last_index
        self.base_term = snapshot.last_term
        self.snapshot = snapshot
        self._sync_tail()
