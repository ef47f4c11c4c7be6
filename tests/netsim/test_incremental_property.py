"""Property test: the persistent incidence matrix is indistinguishable
from a freshly rebuilt one.

:class:`FlowNetwork` maintains its link x flow matrix incrementally
(columns added on transfer, shift-removed on drain). Across randomized
start/finish/brownout sequences, at settled instants the matrix must be
*bit-identical* to one rebuilt from scratch with ``_incidence``, and the
live rates must be bit-identical to a fresh allocator solve — not merely
close: the incremental path is an optimization, never an approximation.
"""

import numpy as np
import pytest

from repro.continuum import geo_random_continuum
from repro.netsim.fairness import (
    _incidence,
    max_min_fair_rates,
    weighted_max_min_rates,
)
from repro.netsim.network import FlowNetwork
from repro.simcore import Simulator


def _rebuilt_incidence(net: FlowNetwork) -> np.ndarray:
    """The incidence matrix built from scratch, in column order."""
    flow_links = []
    for fid in net._col_flow:
        path = net._active[fid].path
        flow_links.append([
            net._link_index[frozenset((a, b))]
            for a, b in zip(path.hops, path.hops[1:])
        ])
    return _incidence(len(net._capacities), flow_links)


def _check_settled_state(net: FlowNetwork, checked: list) -> None:
    if net._solve_pending:
        return  # mid-burst: rates are recomputed later this instant
    n = net._n_active
    if n == 0:
        return
    fresh_A = _rebuilt_incidence(net)
    incremental_A = net._A[:, :n]
    assert np.array_equal(incremental_A, fresh_A)

    w = net._col_w[:n]
    if np.any(w != 1.0):
        fresh_rates = weighted_max_min_rates(net._capacity_arr, fresh_A, w)
    else:
        fresh_rates = max_min_fair_rates(net._capacity_arr, fresh_A)
    # bit-identical, not approx: same allocator, same matrix, same order
    assert np.array_equal(fresh_rates, net._col_rates[:n])
    checked.append(n)


@pytest.mark.parametrize("seed", range(8))
def test_incremental_matrix_matches_rebuild(seed):
    rng = np.random.default_rng(seed)
    topo = geo_random_continuum(8, seed=seed)
    names = topo.site_names
    sim = Simulator()
    net = FlowNetwork(sim, topo)

    for _ in range(40):
        a, b = rng.choice(len(names), size=2, replace=False)
        start = float(rng.uniform(0.0, 5.0))
        size = float(rng.uniform(1e6, 5e7))
        weight = float(rng.choice([0.5, 1.0, 2.0]))
        sim.schedule(
            start,
            lambda a=names[a], b=names[b], s=size, w=weight:
                net.transfer(a, b, s, weight=w),
        )

    links = topo.links()
    for _ in range(6):
        a, b, link = links[int(rng.integers(len(links)))]
        when = float(rng.uniform(0.0, 6.0))
        factor = float(rng.uniform(0.2, 1.0))
        sim.schedule(
            when,
            lambda a=a, b=b, bw=link.bandwidth_Bps * factor:
                net.set_link_bandwidth(a, b, bw),
        )

    checked = []
    for t in np.linspace(0.25, 8.0, 32):
        sim.schedule(float(t), _check_settled_state, net, checked)
    sim.run()

    assert checked, "no checkpoint observed active flows"
    assert net.active_flow_count == 0
    assert net.flows_started == net.flows_completed == 40
