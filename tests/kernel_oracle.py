"""Reference propagation: the interval-major parcel walk, one tuple at a time.

The oracle that the package's link-major kernel, ``assignment._propagate``,
is checked against.  Intervals are visited in order and, within one, links
in topological order; every parcel ``(r, k, mass, a, b)`` enters its link
uniformly over ``[a, b)`` and moves on, shifted by the link time and cut at
interval boundaries.  ``oracle_load`` and ``oracle_pieces`` drive it the way
``load_network`` and ``assignment_matrix`` drive the package's kernel.
"""

from __future__ import annotations

import numpy as np

from odchain.assignment import _link_order
from odchain.network import bpr_travel_time


def _propagate(grid, order, routes, sources, link_time):
    n_h = grid.n_intervals
    start, step, end = grid.start, grid.interval_minutes, grid.end
    edges = [float(start + h * step) for h in range(n_h + 1)]  # as grid.bounds
    succ = [dict(zip(route, route[1:])) for route in routes]
    pending = {lid: [[] for _ in range(n_h)] for lid in order}
    spill = dict.fromkeys(order, 0.0)
    for r, k, mass in sources:
        pending[routes[r][0]][k].append((r, k, mass, edges[k], edges[k + 1]))

    for h in range(n_h):
        for lid in order:
            parcels = pending[lid][h]
            tt = link_time(lid, h, parcels)
            if not parcels:
                continue
            for r, k, mass, a, b in parcels:
                nxt = succ[r].get(lid)
                if nxt is None:
                    continue
                width = b - a
                t, t_end = a + tt, b + tt
                into = pending[nxt]
                while t < t_end:
                    hp = int((t - start) // step) if t < end else n_h
                    if hp >= n_h:
                        spill[nxt] += mass * (t_end - t) / width
                        break
                    edge = edges[hp + 1]
                    t_next = edge if edge < t_end else t_end
                    into[hp].append((r, k, mass * (t_next - t) / width, t, t_next))
                    t = t_next
            parcels.clear()
    return spill


def oracle_load(net, demand, frozen_link_tt=None):
    """``(link_inflow, link_tt, spillover)`` as ``load_network`` gives them."""
    grid = demand.grid
    n_h = grid.n_intervals
    order = _link_order(net)
    link_inflow = {lid: np.zeros(n_h) for lid in order}
    link_tt = {lid: np.zeros(n_h) for lid in order}
    hours = grid.interval_minutes / 60.0

    def link_time(lid, h, parcels):
        # an explicit running sum: the order the built-in sum() used on
        # Python 3.10 and 3.11, whatever the interpreter running the tests
        inflow = 0
        for p in parcels:
            inflow += p[2]
        link_inflow[lid][h] = inflow
        if frozen_link_tt is not None:
            tt = float(frozen_link_tt[lid][h])
        else:
            tt = bpr_travel_time(net.links[lid], inflow / hours)
        link_tt[lid][h] = tt
        return tt

    ois, ks = np.nonzero(demand.matrix > 0.0)
    sources = zip(ois.tolist(), ks.tolist(), demand.matrix[ois, ks].tolist())
    routes = [net.paths[od].links for od in demand.od_index]
    spill = _propagate(grid, order, routes, sources, link_time)
    for ch in net.detectors:
        if ch not in link_inflow:
            link_inflow[ch] = np.zeros(n_h)
            link_tt[ch] = np.array(
                [bpr_travel_time(net.links[ch], 0.0)] * n_h
            ) if frozen_link_tt is None else np.asarray(frozen_link_tt[ch], dtype=float)
            spill.setdefault(ch, 0.0)
    return link_inflow, link_tt, spill


def oracle_pieces(net, grid, link_tt, channels, od_index):
    """The dense ``(H, H, C, OD)`` assignment pieces under frozen ``link_tt``."""
    n_h = grid.n_intervals
    chan_pos = {ch: c for c, ch in enumerate(channels)}
    pieces = np.zeros((n_h, n_h, len(channels), len(od_index)))
    routes = []
    for od in od_index:
        seq = net.paths[od].links
        crossed = [i for i, lid in enumerate(seq) if lid in chan_pos]
        routes.append(seq[: crossed[-1] + 1] if crossed else ())

    def link_time(lid, h, parcels):
        c = chan_pos.get(lid)
        if c is not None:
            for oi, k, mass, _, _ in parcels:
                pieces[k, h, c, oi] += mass
        return float(link_tt[lid][h])

    sources = ((oi, k, 1.0) for oi, route in enumerate(routes) if route for k in range(n_h))
    _propagate(grid, _link_order(net), routes, sources, link_time)
    return pieces
