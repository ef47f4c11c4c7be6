"""Frozen scalar dispatch: the wave path's correctness oracle.

This is the task-at-a-time placement loop exactly as it stood before
wave-batched dispatch. It lives with the tests, not in the library:
:func:`scalar_oracle` injects it into every scheduler run inside the
block, together with a cost model whose row memo is disabled, so its
estimates are recomputed from scratch for every task. The differential
tests then compare the wave path's memoized decision stream against
genuinely independent arithmetic, and ``python -m tests.oracles``
renders whole experiment tables on this path for the CI diff.

Do not "improve" this loop. Its entire value is staying byte-for-byte
what shipped: any divergence between it and the wave path is a wave
bug by definition.
"""

from __future__ import annotations

import contextlib
import functools

from repro.core import context, scheduler
from repro.core.cost import CostModel
from repro.core.placement import PlacementDecision
from repro.errors import SchedulingError


def scalar_dispatch(run, batch, vetoed) -> None:
    """Place one ready batch task-at-a-time (pre-wave semantics).

    ``run`` is the scheduler's ``_Run``; the caller has already set the
    context clock, installed the breaker veto set, and confirmed at
    least one candidate is up. Held tasks go back on ``run.ready``.
    """
    for task in run.strategy.prioritize(batch, run.ctx):
        if task.pinned_site and run.ctx.is_down(task.pinned_site):
            # pinned to a dark site: hold until it recovers
            # (pins override breaker vetoes — there is no choice)
            run.ready.append(task)
            continue
        try:
            site_name = task.pinned_site or run.strategy.select_site(
                task, run.ctx
            )
        except SchedulingError:
            if run.failures is not None or vetoed:
                # transiently unplaceable (e.g. the strategy's whole
                # tier is dark or vetoed): hold until recovery
                run.ready.append(task)
                continue
            raise
        if site_name not in run.resources:
            raise SchedulingError(
                f"strategy chose non-candidate site {site_name!r} "
                f"for task {task.name!r}"
            )
        est, est_finish = run.ctx.estimate_finish(
            task, run.ctx.site(site_name)
        )
        run.ctx.reserve(site_name, est_finish)
        decision = PlacementDecision(
            task=task.name, site=site_name, decided_at=run.sim.now,
            est_stage_s=est.stage_time_s, est_exec_s=est.exec_time_s,
            est_finish=est_finish,
        )
        run.decisions.append(decision)
        if run._m_decisions is not None:
            run._m_decisions.labels(
                site=site_name, strategy=run.strategy.name).inc()
        run._start_attempt(task, site_name, decision)


@contextlib.contextmanager
def scalar_oracle():
    """Run every scheduler run started inside the block on the oracle.

    Swaps :func:`scalar_dispatch` in for the scheduler's
    ``wave_dispatch`` and makes each ``SchedulingContext`` created in the
    block build its cost model with ``memo_rows=False``. Both are
    restored on exit, also when the block raises.
    """
    saved = scheduler.wave_dispatch, context.CostModel
    scheduler.wave_dispatch = scalar_dispatch
    context.CostModel = functools.partial(CostModel, memo_rows=False)
    try:
        yield
    finally:
        scheduler.wave_dispatch, context.CostModel = saved
