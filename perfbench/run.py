#!/usr/bin/env python3
"""End-to-end continuum benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: host throughput of
``ContinuumScheduler.run_stream``, set-up time, peak memory, and the
simulated response times. ``--trace 1`` runs sub-stream 0 once more under
the layer instruments (entry-point spans and counts, ``cProfile`` self
time by module) and prints the per-layer metrics instead. Either way the
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Everything runs in this one process on one thread; set-up time alone is
measured in fresh child processes, because imports happen once per
process. The workloads, metrics and checks are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: Spans written to the Chrome trace (a prefix in begin order, so every
#: exported span's parent is exported too).
CHROME_SPANS = 20_000

UNITS = {
    "tasks_per_s": ("tasks/s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "failed_frac": ("fraction", "-"),
    "sim_response_p50_s": ("s", "simulated"),
    "sim_response_tail_s": ("s", "simulated"),
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every sub-stream (smoke tests only)")
    ap.add_argument("--out-dir", default=str(HERE / "out"),
                    help="where the result file and Chrome trace go")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not 0 < args.scale <= 1:
        ap.error("--scale must be in (0, 1]")
    return args


def _bounds() -> dict[str, float]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def environment(args, sizes: dict) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "sizes": sizes,
    }


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the point where it
    would call ``run_stream``: imports, topology, workload generation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--scale",
           str(args.scale), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


class Bench:
    """Tallies tasks, problems and digests across every run."""

    def __init__(self, args, workloads, checks):
        self.args = args
        self.workloads = workloads
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.samples: dict[str, list[float]] = {}
        self.notes: dict[str, str] = {}

    def run(self, part: int, profile=None, **options):
        """Build and run sub-stream ``part``, profiling only the
        ``run_stream`` call when given a profiler; returns
        ``(inputs, result, host_seconds)`` or ``None`` if it failed."""
        inputs = self.workloads.build(self.args.workload, self.args.seed, part,
                              self.args.scale)
        n = inputs.n_tasks
        self.attempted += n
        gc.collect()
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = inputs.run(**options)
        except Exception as exc:  # noqa: BLE001 - a failed run is a result
            self.failed += n
            self.problems.append(f"part {part}: run_stream raised "
                                 f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if profile is not None:
                profile.disable()
        elapsed = time.perf_counter() - t0
        problems = self.checks.check_result(inputs.jobs, result)
        if self.args.workload == "control":
            problems += self.checks.check_control(result)
        digest = self.checks.sim_digest(result.records)
        first = self.digests.setdefault(part, digest)
        if digest != first:
            problems.append(f"sim_digest {digest} differs from the "
                            f"earlier run's {first}")
        if problems:
            self.failed += n
            self.problems += [f"part {part}: {p}" for p in problems]
            return None
        self.failed += n - len(result.records)
        return inputs, result, elapsed


def timed(bench: Bench, parts: int, bound: float) -> dict:
    """Whole passes over every sub-stream until ``--seconds`` is spent.

    Every sub-stream runs equally often, so the throughput mixes them in
    the same proportions on every run; the simulated statistics come
    from the first pass (later passes must repeat it exactly)."""
    deadline = time.perf_counter() + bench.args.seconds
    tasks, seconds, rates, jobs_by_part = 0, 0.0, [], []
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for part in range(parts):
            out = bench.run(part)
            if out is None:
                return {}
            _inputs, result, elapsed = out
            tasks += len(result.records)
            seconds += elapsed
            rates.append(len(result.records) / elapsed)
            if passes == 0:
                jobs_by_part.append(result.jobs)
        passes += 1
    bench.samples["tasks_per_s"] = rates
    bench.problems += bench.checks.check_backlog(jobs_by_part, bound)
    responses = [j.response_time for jobs in jobs_by_part for j in jobs]
    pct, tail_s, beyond = bench.checks.tail(responses)
    bench.notes.update({
        "tasks_per_s": f"{tasks} tasks in {seconds:.2f} s over {passes} "
                       f"passes of {parts} calls; per call "
                       f"{min(rates):.1f}..{max(rates):.1f}",
        "sim_response_p50_s": f"{len(responses)} jobs",
        "sim_response_tail_s": f"p{pct:g}, {beyond} of {len(responses)} "
                               f"jobs beyond",
    })
    return {"tasks_per_s": tasks / seconds,
            "sim_response_p50_s": statistics.median(responses),
            "sim_response_tail_s": tail_s}


def traced(bench: Bench, layers) -> dict:
    """Untraced runs of sub-stream 0, then one run under the layer
    instruments; returns the per-layer metrics."""
    from repro.observe import (MetricsRegistry, to_chrome_trace,
                               validate_chrome_trace)

    args = bench.args
    deadline = time.perf_counter() + args.seconds / 2
    plain = []
    while len(plain) < 2 or time.perf_counter() < deadline:
        out = bench.run(0)
        if out is None:
            return {}
        plain.append(out[2])
    registry = MetricsRegistry()
    profile = cProfile.Profile()
    with layers.EntryPoints() as entry:
        out = bench.run(0, profile=profile, metrics=registry)
    if out is None:
        return {}
    _inputs, result, elapsed = out

    times = layers.self_times(pstats.Stats(profile).stats)
    times.pop("trace", None)
    total = sum(times.values())
    share = {lyr: times.get(lyr, 0.0) / total for lyr in layers.LAYERS}
    host_s = statistics.median(plain)
    self_s = {lyr: share[lyr] * host_s for lyr in layers.LAYERS}

    tasks = len(result.records)
    recs = list(result.records.values())
    calls = entry.calls

    def counter(name: str) -> float:
        fam = registry.get(name)
        return float(fam.value) if fam is not None else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    events = counter("sim_events_dispatched_total")
    flows = counter("netsim_flows_started_total")
    solves = counter("netsim_rate_solves_total")
    commits = counter("controlplane_commits_total")
    stages = calls["TransferService.stage"]
    res, ctl = result.resilience, result.control
    m = {f"{lyr}.self_share": (share[lyr], "fraction")
         for lyr in layers.LAYERS}
    m.update({
        "simcore.events_per_task": (ratio(events, tasks), "events/task"),
        "simcore.self_us_per_event": (
            ratio(self_s["simcore"] * 1e6, events), "us/event"),
        "scheduler.self_us_per_task": (
            ratio(self_s["scheduler"] * 1e6, tasks), "us/task"),
        "scheduler.attempts_per_task": (
            ratio(res.attempts_total, tasks), "attempts/task"),
        "scheduler.sim_queue_wait_mean_s": (
            ratio(sum(r.queue_time for r in recs), tasks), "s"),
        "cost.estimate_batch_per_task": (
            ratio(calls["CostModel.estimate_batch"], tasks), "calls/task"),
        "cost.row_builds_per_task": (
            ratio(entry.row_builds, tasks), "rows/task"),
        "context.reserve_per_task": (
            ratio(calls["SchedulingContext.reserve"], tasks), "calls/task"),
        "netsim.flows_per_task": (ratio(flows, tasks), "flows/task"),
        "netsim.rate_solves_per_flow": (ratio(solves, flows), "solves/flow"),
        "netsim.self_us_per_solve": (
            ratio(self_s["netsim"] * 1e6, solves), "us/solve"),
        "datafabric.stage_per_task": (ratio(stages, tasks), "calls/task"),
        "datafabric.wire_per_stage": (
            ratio(calls["FlowNetwork.transfer"], stages), "flows/stage"),
        "datafabric.sim_stage_mean_s": (
            ratio(sum(r.stage_time for r in recs), tasks), "s"),
        "resilience.retries": (float(res.retries), "count"),
        "resilience.hedges_launched": (float(res.hedges_launched), "count"),
        "resilience.breaker_trips": (float(res.breaker_trips), "count"),
        "controlplane.messages_per_commit": (
            ratio(entry.messages, commits), "messages/commit"),
        "controlplane.commits": (commits, "count"),
        "controlplane.reads": (float(ctl.reads if ctl else 0), "count"),
        "controlplane.self_ms_per_commit": (
            ratio(self_s["controlplane"] * 1e3, commits), "ms/commit"),
        "controlplane.sim_read_p99_s": (
            ctl.read_latency_p99() if ctl else 0.0, "s"),
        "trace.overhead": (ratio(tasks / elapsed, tasks / host_s), "ratio"),
    })

    print(f"\nlayer report ({args.workload}, sub-stream 0, {tasks} tasks; "
          f"self time under cProfile, host clock)")
    print(f"{'layer':<13}{'self_share':>11}{'amdahl_max':>12}  "
          f"entry-point calls")
    for lyr in sorted(layers.LAYERS, key=lambda x: -share[x]):
        bound = 1.0 / (1.0 - share[lyr]) if share[lyr] < 1 else float("inf")
        own = ", ".join(f"{k}={v}" for k, v in sorted(calls.items())
                        if layers.layer_of_label(k) == lyr)
        print(f"{lyr:<13}{share[lyr]:>11.3f}{bound:>11.2f}x  {own}")
    print("amdahl_max = 1/(1-self_share): the end-to-end speed-up if the "
          "layer's self time fell to zero")

    spans = entry.spans(CHROME_SPANS)
    doc = to_chrome_trace(spans)
    n_events = validate_chrome_trace(doc)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
    path.write_text(json.dumps(doc))
    print(f"chrome trace: {path} ({n_events} events from {len(spans)} of "
          f"{entry.span_count} spans; validated)")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"repro resolves to {repro.__file__}")
        import checks
        import layers
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed, 0, args.scale)
        print("ready", flush=True)
        return 0

    size = workloads.SIZES[args.workload]
    parts = size["parts"]
    bounds = _bounds()
    env = environment(args, dict(size))
    bench = Bench(args, workloads, checks)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics = traced(bench, layers)
    else:
        setup = bench.samples["setup_s"] = measure_setup(args)
        values = timed(bench, parts, bounds["sim_response_tail_s"])
        if values:
            values["setup_s"] = statistics.median(setup)
            values["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics = {k: (v, UNITS[k][0]) for k, v in values.items()}
        # failed_frac is 0 by design, so the JSON carries it as
        # failed/attempted rather than as a metric
        values["failed_frac"] = bench.failed / max(bench.attempted, 1)
        bench.notes["setup_s"] = (f"median of {len(setup)} fresh processes, "
                                  f"range {min(setup):.3f}..{max(setup):.3f}")
        bench.notes["failed_frac"] = (f"{bench.failed} of {bench.attempted} "
                                      f"tasks; JSON 'failed'/'attempted'")
        print(f"\n{'metric':<22}{'value':>14}  {'unit':<9}{'clock':<10}note")
        for name, (unit, clock) in UNITS.items():
            print(f"{name:<22}{values.get(name, float('nan')):>14.4f}  "
                  f"{unit:<9}{clock:<10}{bench.notes.get(name, '')}")

    print("sim_digest: " + " ".join(f"part{k}={v}"
                                    for k, v in sorted(bench.digests.items())))
    correct = not bench.problems and bool(metrics)
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'ok' if correct else 'FAILED'}")

    doc = {"correct": correct, "attempted": bench.attempted,
           "failed": bench.failed,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps({**doc, "environment": env,
                              "notes": bench.notes,
                              "samples": bench.samples,
                              "sim_digest": bench.digests,
                              "problems": bench.problems}, indent=1))
    if not metrics:
        print("perfbench: no run completed; no metrics to report",
              file=sys.stderr)
        return 1
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
