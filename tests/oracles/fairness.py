"""Fair-share oracles: frozen pure-Python progressive filling.

Scalar references for the vectorized solvers in
:mod:`repro.netsim.fairness`, shared by the differential tests and
``benchmarks/bench_fairness.py``. They implement the same progressive
filling with per-flow loops — the implementation shape the vectorized
solvers replaced — and mirror their arithmetic step for step (one
``count * level`` product and one subtraction per link per level), so
agreement is tight (1e-9); only summation order inside numpy's matvecs
differs.

Do not optimise these: their value is staying what shipped.
"""

from __future__ import annotations

import math


def scalar_max_min(caps, flow_links):
    n_links = len(caps)
    n_flows = len(flow_links)
    rates = [0.0] * n_flows
    active = [True] * n_flows
    n_active = n_flows
    link_flows = [[] for _ in range(n_links)]
    for f, links in enumerate(flow_links):
        for l in links:
            link_flows[l].append(f)
        if not links:
            rates[f] = math.inf
            active[f] = False
            n_active -= 1
    remaining = [float(c) for c in caps]
    while n_active > 0:
        best_l, best_share = -1, math.inf
        for l in range(n_links):
            cnt = 0
            for f in link_flows[l]:
                if active[f]:
                    cnt += 1
            if cnt:
                share = remaining[l] / cnt
                if share < best_share:
                    best_share, best_l = share, l
        newly = [f for f in link_flows[best_l] if active[f]]
        for f in newly:
            rates[f] = best_share
            active[f] = False
        n_active -= len(newly)
        newly_set = set(newly)
        for l in range(n_links):
            cnt = 0
            for f in link_flows[l]:
                if f in newly_set:
                    cnt += 1
            if cnt:
                remaining[l] = max(remaining[l] - cnt * best_share, 0.0)
    return rates


def scalar_weighted_max_min(caps, flow_links, weights):
    n_links = len(caps)
    n_flows = len(flow_links)
    rates = [0.0] * n_flows
    active = [True] * n_flows
    n_active = n_flows
    link_flows = [[] for _ in range(n_links)]
    for f, links in enumerate(flow_links):
        for l in links:
            link_flows[l].append(f)
        if not links:
            rates[f] = math.inf
            active[f] = False
            n_active -= 1
    remaining = [float(c) for c in caps]
    while n_active > 0:
        best_l, best_level = -1, math.inf
        for l in range(n_links):
            wload = 0.0
            for f in link_flows[l]:
                if active[f]:
                    wload += weights[f]
            if wload > 0.0:
                level = remaining[l] / wload
                if level < best_level:
                    best_level, best_l = level, l
        if best_l < 0:
            break
        newly = [f for f in link_flows[best_l] if active[f]]
        for f in newly:
            rates[f] = best_level * weights[f]
            active[f] = False
        n_active -= len(newly)
        newly_set = set(newly)
        for l in range(n_links):
            drained = 0.0
            for f in link_flows[l]:
                if f in newly_set:
                    drained += rates[f]
            remaining[l] = max(remaining[l] - drained, 0.0)
    return rates


def scalar_equal_share(caps, flow_links):
    n_links = len(caps)
    counts = [0] * n_links
    for links in flow_links:
        for l in links:
            counts[l] += 1
    per_link = [
        caps[l] / counts[l] if counts[l] else math.inf
        for l in range(n_links)
    ]
    return [
        min((per_link[l] for l in links), default=math.inf)
        for links in flow_links
    ]
