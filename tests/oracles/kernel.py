"""Event-kernel oracles: the heap queue and the frozen seed kernel.

Two generations of the kernel the default :class:`CalendarQueue`
replaced, kept for the differential tests and ``bench_kernel.py``:

- :class:`HeapEventQueue` — the binary-heap queue (allocation-free
  compare, lazy-cancel compaction, free list, same-instant lane). It
  shares the production :class:`~repro.simcore.event.Event` type and
  queue base, so ``Simulator(queue=HeapEventQueue())`` runs any
  simulation on it.
- :class:`RefSimulator` over :class:`RefEventQueue` — the seed kernel,
  verbatim semantics: tuple-allocating ``__lt__``, peek+pop double
  traversal in ``run``, no compaction, no free list, no same-instant
  lane.

Do not optimise either: their value is staying what shipped.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.simcore.event import Event, _QueueBase, _should_reclaim
from repro.simcore.process import Process


class HeapEventQueue(_QueueBase):
    """Binary heap + same-instant lane (the pre-calendar kernel).

    Cancelled events stay in the heap until popped or compacted away;
    this keeps ``cancel`` O(1) while compaction bounds the transient
    growth from timeouts that rarely fire.
    """

    __slots__ = ("_heap", "_dead")

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[Event] = []
        self._dead = 0          # cancelled events still sitting in the heap

    # -- scheduling ----------------------------------------------------------
    def push(self, time: float, callback: Callable, args: tuple = ()) -> Event:
        """Create and enqueue an event; returns it (for cancellation)."""
        event = Event(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def push_pooled(self, time: float, callback: Callable, args: tuple) -> None:
        """Heap-enqueue a kernel-internal event."""
        heapq.heappush(self._heap, self._make_pooled(time, callback, args))

    def push_back(self, event: Event) -> None:
        """Reinsert a popped-but-undispatched event."""
        heapq.heappush(self._heap, event)

    # -- dequeue -------------------------------------------------------------
    def _pop_or_none(self) -> Event | None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        ready = self._ready
        if ready:
            if not heap or not (heap[0] < ready[0]):
                return ready.popleft()
            return heapq.heappop(heap)
        if heap:
            return heapq.heappop(heap)
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event, or None when empty."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if self._ready:
            ready_time = self._ready[0].time
            if heap and heap[0].time < ready_time:
                return heap[0].time
            return ready_time
        return heap[0].time if heap else None

    # -- lifecycle -----------------------------------------------------------
    def note_cancelled(self) -> None:
        """Bookkeeping hook: caller cancelled an event it got from push.

        Triggers heap compaction per :func:`_should_reclaim` — the heap
        is rebuilt from live events only. Ordering is untouched: pop
        order is the total order (time, seq) regardless of the heap's
        internal arrangement.
        """
        self.cancellations += 1
        self._dead += 1
        heap = self._heap
        if _should_reclaim(self._dead, len(heap) - self._dead):
            self._heap = [event for event in heap if not event.cancelled]
            heapq.heapify(self._heap)
            self._dead = 0
            self.compactions += 1

    # -- introspection -------------------------------------------------------
    @property
    def heap_size(self) -> int:
        """Raw heap entries, live + cancelled (compaction bounds this)."""
        return len(self._heap)

    def __len__(self) -> int:
        return len(self._heap) - self._dead + len(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready) or len(self._heap) > self._dead


# ---------------------------------------------------------------------------
# Frozen reference kernel (the seed implementation, verbatim semantics).
# ---------------------------------------------------------------------------

class RefEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "pooled")

    def __init__(self, time, seq, callback, args=()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.pooled = False     # compat with Simulator.cancel bookkeeping

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class RefEventQueue:
    """Binary heap with lazy cancellation — no compaction, no pooling."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._live = 0

    def push(self, time, callback, args=()):
        event = RefEvent(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                self._live -= 1
                return event
        raise RuntimeError("pop from empty event queue")

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def note_cancelled(self):
        self._live -= 1

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0


class RefSimulator:
    """The seed event loop: peek_time + pop per iteration, all events
    through the heap. Exposes the same internal surface the process
    machinery uses (``_immediate``, ``_wakeup``, ``_queue``)."""

    def __init__(self, start_time=0.0):
        self._queue = RefEventQueue()
        self._now = float(start_time)
        self._processes_started = 0
        self.event_count = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, callback, *args):
        return self._queue.push(self._now + delay, callback, args)

    def cancel(self, event):
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    def _immediate(self, callback, arg):
        self._queue.push(self._now, callback, (arg,))

    def _wakeup(self, delay, callback, args):
        self._queue.push(self._now + delay, callback, args)

    def process(self, gen, name=""):
        proc = Process(gen, name=name)
        proc._bind(self)
        self._processes_started += 1
        return proc

    def step(self):
        if not self._queue:
            return False
        event = self._queue.pop()
        self._now = event.time
        self.event_count += 1
        event.callback(*event.args)
        return True

    def run(self, until=None):
        while self._queue:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self._now = max(self._now, until)
                break
            self.step()
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now
