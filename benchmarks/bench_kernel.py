"""Event-kernel microbenchmarks across the kernel's three generations.

Three kernels are timed against each other:

- the frozen **seed** kernel (``RefSimulator``: tuple-allocating
  ``__lt__``, peek+pop double traversal in ``run``, no compaction, no
  free list, no same-instant lane);
- the **heap** kernel (``HeapEventQueue``, the first fast path:
  allocation-free compare, lazy-cancel compaction, free list, ready
  lane);
- the **calendar** kernel (``CalendarQueue``, the default: bucketed
  O(1) insert, far-future list, adaptive window).

The simulator-level workloads compare the default kernel against the
seed; the million-event queue-level workloads compare the calendar
queue against the heap queue directly, so the measured gap is pure
scheduler data-structure work with no process-machinery dilution.

Run as a script to refresh the machine-readable perf trajectory::

    PYTHONPATH=src python benchmarks/bench_kernel.py --out BENCH_kernel.json

Every workload cross-checks determinism: both kernels must fire the
same number of events and finish at the same simulated clock. GC is
disabled inside the timed regions (a 2M-object churn otherwise spends
a large, run-to-run-variable fraction of its time in gen-2 collections
— noise, not kernel signal).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.observe.recorder import MetricsRecorder
from repro.simcore import Simulator, Timeout
from repro.simcore.event import CalendarQueue

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles.kernel import (  # noqa: E402  (repo root on path)
    HeapEventQueue,
    RefSimulator,
)


# ---------------------------------------------------------------------------
# Workloads — each drives one kernel through a hot-path-heavy scenario
# and returns (event_count, final_clock) for the determinism cross-check.
# ---------------------------------------------------------------------------

def timeout_watchdog_churn(sim_cls):
    """The resilience-layer pattern: every attempt arms a long watchdog
    timeout, almost every attempt beats it, so the heap fills with
    lazily-cancelled events while live traffic keeps flowing."""
    sim = sim_cls()

    def attempt_loop(n):
        for i in range(n):
            watchdog = sim.schedule(300.0, lambda: None)
            yield Timeout(0.5)
            if i % 25 != 0:     # 96% of attempts beat their watchdog
                sim.cancel(watchdog)

    for _ in range(40):
        sim.process(attempt_loop(500))
    sim.run()
    return sim.event_count, sim.now


def process_wakeup_storm(sim_cls):
    """Context-switch-heavy: many short-timeout processes, the
    subscribe/fire/resume cycle dominates (same-instant lane traffic)."""
    sim = sim_cls()

    def ticker(n):
        for _ in range(n):
            yield Timeout(1.0)

    for _ in range(100):
        sim.process(ticker(200))
    sim.run()
    return sim.event_count, sim.now


def zero_delay_cascade(sim_cls):
    """Same-instant chains (signal fan-out shape): zero-delay timeouts
    that the ready lane keeps out of the heap entirely."""
    sim = sim_cls()

    def chain(n):
        for _ in range(n):
            yield Timeout(0.0)
        yield Timeout(1.0)

    for _ in range(50):
        sim.process(chain(300))
    sim.run()
    return sim.event_count, sim.now


def run_until_slices(sim_cls):
    """Time-sliced driving (the scheduler's probe/step shape): the seed
    loop pays peek_time + pop per event, the fast path pays one pop."""
    sim = sim_cls()
    for i in range(8000):
        sim.schedule(float(i) * 0.25, lambda: None)
    for t in range(2001):
        sim.run(until=float(t))
    return sim.event_count, sim.now


def queue_watchdog_churn(queue_cls, chains: int, iters: int):
    """Queue-level watchdog churn at production scale.

    The same pattern as :func:`timeout_watchdog_churn`, but driving the
    queue surface directly (push / pop / cancel) with a thin driver, so
    the measurement is the scheduler data structure itself: ``chains``
    concurrent attempt-loops, each step arming a far-future watchdog
    that is cancelled 96% of the time. The pending population stays at
    ~2x ``chains`` — at 20k chains a binary heap pays ~15 Python-level
    comparisons per operation while the calendar queue classifies with
    one multiply.
    """
    q = queue_cls()
    state: dict = {}
    push = q.push
    pop = q._pop_or_none
    note_cancelled = q.note_cancelled
    for c in range(chains):
        push(0.5 * (c % 10) / 10, None, (c, 0))
    pops = 0
    last_t = 0.0
    while True:
        e = pop()
        if e is None:
            break
        pops += 1
        args = e.args
        if args:
            c, k = args
            wd = state.pop(c, None)
            if wd is not None and k % 25:
                wd.cancelled = True
                note_cancelled()
            if k < iters:
                t = e.time
                state[c] = push(t + 300.0, None)
                push(t + 0.5, None, (c, k + 1))
        last_t = e.time
    return pops, last_t


# Simulator-level workloads: default kernel vs the frozen seed kernel.
WORKLOADS = [
    ("timeout_watchdog_churn", timeout_watchdog_churn),
    ("process_wakeup_storm", process_wakeup_storm),
    ("zero_delay_cascade", zero_delay_cascade),
    ("run_until_slices", run_until_slices),
]

# Queue-level workloads at million-event scale: calendar queue vs the
# PR-4 heap queue. (The seed kernel is omitted here — with no
# compaction its heap retains every cancelled watchdog and the run
# degenerates to minutes.)
MILLION_WORKLOADS = [
    # ~1.06M pops, pending population ~40k at peak
    ("timeout_watchdog_churn_1m",
     lambda queue_cls: queue_watchdog_churn(queue_cls, 20000, 50)),
]


def _best_of(fn, arg, repeat):
    best, result = float("inf"), None
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = fn(arg)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best, result


def _compare(name, workload, baseline_arg, optimized_arg, baseline, reps):
    base_s, base_obs = _best_of(workload, baseline_arg, reps)
    opt_s, opt_obs = _best_of(workload, optimized_arg, reps)
    if base_obs != opt_obs:
        raise AssertionError(
            f"{name}: kernels diverged — baseline observed {base_obs}, "
            f"optimized {opt_obs}"
        )
    events = opt_obs[0]
    return {
        "name": name,
        "baseline": baseline,
        "events": events,
        "reference_s": round(base_s, 6),
        "optimized_s": round(opt_s, 6),
        "speedup": round(base_s / opt_s, 3),
        "optimized_events_per_s": round(events / opt_s),
    }


def metrics_overhead_guard(repeat: int = 5,
                           threshold: float = 0.10) -> dict:
    """Time the watchdog-churn workload bare vs with an attached
    :class:`MetricsRecorder` (the exact probe set the continuum
    scheduler installs). The recorder costs one attribute compare per
    dispatched event; this guard pins that at < ``threshold`` relative
    overhead so instrumentation can never quietly tax the kernel."""

    def drive(metered: bool):
        sim = Simulator()
        if metered:
            rec = MetricsRecorder(interval_s=1.0)
            rec.add_probe("kernel_queue_depth", sim._queue.__len__)
            rec.add_probe("kernel_events_dispatched",
                          lambda: sim.event_count)
            sim.attach_recorder(rec)

        def attempt_loop(n):
            for i in range(n):
                watchdog = sim.schedule(300.0, lambda: None)
                yield Timeout(0.5)
                if i % 25 != 0:
                    sim.cancel(watchdog)

        for _ in range(40):
            sim.process(attempt_loop(500))
        sim.run()
        return sim.event_count, sim.now

    # Interleave bare/metered repetitions so CPU frequency drift and
    # cache warm-up hit both sides equally; compare the best of each.
    bare_s = metered_s = float("inf")
    bare_obs = metered_obs = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            bare_obs = drive(False)
            bare_s = min(bare_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            metered_obs = drive(True)
            metered_s = min(metered_s, time.perf_counter() - t0)
    finally:
        gc.enable()
    if bare_obs != metered_obs:
        raise AssertionError(
            f"metrics guard: recorder changed the simulation — bare "
            f"observed {bare_obs}, metered {metered_obs}")
    overhead = metered_s / bare_s - 1.0
    return {
        "name": "metrics_overhead_watchdog_churn",
        "events": bare_obs[0],
        "bare_s": round(bare_s, 6),
        "metered_s": round(metered_s, 6),
        "overhead": round(overhead, 4),
        "threshold": threshold,
        "ok": overhead < threshold,
    }


def run_benchmarks(repeat: int = 5, quick: bool = False) -> dict:
    rows = []
    reps = max(1, repeat // 2) if quick else repeat
    for name, workload in WORKLOADS:
        def sim_workload(sim_cls, workload=workload):
            return workload(sim_cls)
        rows.append(_compare(name, sim_workload, RefSimulator, Simulator,
                             "seed-kernel", reps))
    million_reps = 1 if quick else max(2, repeat // 2)
    for name, workload in MILLION_WORKLOADS:
        rows.append(_compare(name, workload, HeapEventQueue, CalendarQueue,
                             "heap-pr4", million_reps))
    return {
        "schema": "repro-bench-kernel/2",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": repeat,
        "benchmarks": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_kernel")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI smoke)")
    parser.add_argument("--metrics-guard", action="store_true",
                        help="only run the metrics-overhead guard; "
                             "exit 1 if attaching a recorder slows the "
                             "kernel past the threshold")
    parser.add_argument("--metrics-threshold", type=float, default=0.10,
                        metavar="FRAC",
                        help="max tolerated relative overhead "
                             "(default 0.10)")
    args = parser.parse_args(argv)
    if args.metrics_guard:
        row = metrics_overhead_guard(repeat=args.repeat,
                                     threshold=args.metrics_threshold)
        print(f"{row['name']:<34} bare {row['bare_s']:.4f}s  "
              f"metered {row['metered_s']:.4f}s  "
              f"overhead {row['overhead']:+.1%} "
              f"(threshold {row['threshold']:.0%}) "
              f"{'OK' if row['ok'] else 'FAIL'}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(row, handle, indent=2)
                handle.write("\n")
        return 0 if row["ok"] else 1
    report = run_benchmarks(repeat=args.repeat, quick=args.quick)
    for row in report["benchmarks"]:
        print(f"{row['name']:<26} vs {row['baseline']:<11} "
              f"ref {row['reference_s']:.4f}s  "
              f"opt {row['optimized_s']:.4f}s  "
              f"speedup {row['speedup']:.2f}x  "
              f"({row['optimized_events_per_s']:,.0f} events/s)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
