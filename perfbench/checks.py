"""Output checks, response statistics and the simulation digest.

Every check returns a list of human-readable problems; an empty list
means the run's outputs are correct. The checks read only the generated
inputs and the :class:`~repro.core.scheduler.StreamResult`, so a test can
tamper with a result and see them fire.
"""

from __future__ import annotations

import hashlib
import math

#: Percentiles the tail statistic may report, highest first: the usual
#: reporting percentiles, so runs of different sizes stay comparable.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
#: Jobs that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10
#: Jobs each half of a run needs before the backlog check applies.
BACKLOG_MIN_JOBS = 100

_LIFECYCLE = ("ready_at", "stage_started", "stage_finished",
              "exec_started", "exec_finished")


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, jobs_beyond)`` for the highest percentile of
    :data:`TAIL_LADDER` that leaves at least :data:`TAIL_MIN_BEYOND`
    values beyond it (nearest-rank). Falls back to the median when there
    are too few values for any rung."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no values")
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50.0, ordered[rank - 1], n - rank


def sim_digest(records) -> str:
    """Hash of the (task, site, exec start, exec finish) stream in task
    order; equal digests mean the same simulated schedule, bit for bit."""
    h = hashlib.sha256()
    for name in sorted(records):
        r = records[name]
        h.update(f"{name}|{r.site}|{r.exec_started.hex()}|"
                 f"{r.exec_finished.hex()}\n".encode())
    return h.hexdigest()[:16]


def check_result(jobs, result) -> list[str]:
    """Every submitted task completes exactly once, lifecycles are in
    order, and each job's result matches its tasks."""
    problems: list[str] = []
    submitted: dict[str, int] = {}
    for idx, job in enumerate(jobs):
        for name in job.dag.task_names:
            submitted[name] = idx
    records = result.records
    missing = [n for n in submitted if n not in records]
    extra = [n for n in records if n not in submitted]
    if missing:
        problems.append(f"{len(missing)} submitted tasks have no record "
                        f"(first: {sorted(missing)[0]})")
    if extra:
        problems.append(f"{len(extra)} records for tasks never submitted "
                        f"(first: {sorted(extra)[0]})")
    finish = [0.0] * len(jobs)
    for name, rec in records.items():
        if rec.task != name:
            problems.append(f"record under {name!r} names task {rec.task!r}")
            continue
        idx = submitted.get(name)
        if idx is None:
            continue
        stamps = [jobs[idx].arrival_s] + [getattr(rec, f) for f in _LIFECYCLE]
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            problems.append(f"task {name!r} lifecycle out of order: "
                            f"arrival {stamps[0]!r}, " + ", ".join(
                                f"{f} {s!r}"
                                for f, s in zip(_LIFECYCLE, stamps[1:])))
        finish[idx] = max(finish[idx], rec.exec_finished)
    if len(result.jobs) != len(jobs):
        problems.append(f"{len(result.jobs)} job results for "
                        f"{len(jobs)} submitted jobs")
    else:
        for job, res, done in zip(jobs, result.jobs, finish):
            if res.task_count != len(job.dag):
                problems.append(f"job {res.name!r} reports {res.task_count} "
                                f"tasks, submitted {len(job.dag)}")
            if res.arrival_s != job.arrival_s or res.finished_s != done:
                problems.append(f"job {res.name!r} spans "
                                f"{res.arrival_s!r}..{res.finished_s!r}, "
                                f"its tasks {job.arrival_s!r}..{done!r}")
    return problems


def check_backlog(parts, bound: float) -> list[str]:
    """No growing backlog: over every sub-stream, the response tail of
    the later half of jobs (by arrival) stays within ``bound`` of the
    earlier half's. ``parts`` holds one job-result list per sub-stream.
    Runs with fewer than :data:`BACKLOG_MIN_JOBS` jobs per half are too
    small to judge and pass."""
    early, late = [], []
    for jobs in parts:
        ordered = sorted(jobs, key=lambda j: j.arrival_s)
        half = len(ordered) // 2
        early += [j.response_time for j in ordered[:half]]
        late += [j.response_time for j in ordered[half:]]
    if len(early) < BACKLOG_MIN_JOBS:
        return []
    _, first, _ = tail(early)
    pct, second, _ = tail(late)
    if second > first * (1.0 + bound):
        return [f"growing backlog: p{pct:g} response of the later half "
                f"{second:.3f} s exceeds the earlier half's {first:.3f} s "
                f"by more than {bound:.0%}"]
    return []


def check_control(result) -> list[str]:
    """Quorum reads are linearizable, so no placement may act on a stale
    view of the replica catalog."""
    if result.control is None:
        return ["run has no control-plane statistics"]
    if result.control.misplacements:
        return [f"{result.control.misplacements} control-plane "
                f"misplacements under quorum reads"]
    return []
