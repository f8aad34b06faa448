"""Quasi-dynamic network loading and its linearization.

Demand departs uniformly within each interval, follows the fixed path of its
OD pair, and enters each successive link after the accumulated upstream travel
times.  A link's travel time in an interval is the BPR time of the flow
entering it during that interval, so no equilibrium iteration is performed.
Detector channel counts are arrivals at (entries to) the detector link per
interval.

One propagation kernel moves demand parcels, tagged with their OD and
departure interval, through the links for both the loader and its
linearization.  It is link-major: links are visited once each, in a
topological order of the routes' feeding relation, and each is handled for
the whole day at once with numpy.  That is exact because a link's time in an
interval depends only on its own inflow then, and travel times are
nonnegative, so parcels only move forward in time: once every upstream link
is done, all of a link's parcels are known.  Each link's parcels are kept in
chronological order, so every sum accumulates as an interval-by-interval
pass would.  A link passes its parcels on as pieces: each window, shifted by
the link time, is cut at the next interval edge, and one index over all
pieces, sorted by next link where routes fan out, gathers every column once
and hands each next link a slice.  A pass holds in flight only the parcels
waiting at the links still to visit and those of the link it visits.  So the
link order puts a source link, where trips only start, just before its first
consumer rather than at the start of the pass, and its pieces wait through
few visits.  A link sums its parcels in the order the pass visits their
senders, its departures first, sorted stably by interval.  A first link's
departures are built from the demand when its turn comes, in chronological
order, so none waits through the pass and a link where trips only start
needs no sort.  A parcel carries one sort key that holds both its entry
interval and the one at its previous link, so it is five columns, 32 bytes.
A link frees each array after its last reader: it replaces its columns by
their sorted gathers one at a time, turns the key into the entry interval in
place, writes its shifted windows' ends once into one table, from which both
ends of every piece are read through one index built in place, writes the
windows' widths over their ends, and scales the mass in place.  The link
order and each route layout, with the tables the kernel walks, depend on the
network alone, so each is built once per network (``Network.plans``).
A load keeps the links' times and the channels' counts, not every link's
inflow.  ``probe_travel_times`` walks its door-to-door probes from those
times, every OD together, one route position at a time; generation's share
pass is its one reader.

Only ``load_network`` moves every parcel over its whole route: generation
needs every link's times and the door-to-door probe times.  The passes that
need counts only, the linearization and ``detector_counts``, cut each route
after its last channel or its last link whose load shifts a count, whichever
comes later (``_route_plan``).  Beyond that, parcels move no count.

With travel times frozen, the loading is exactly linear in demand.  The
assignment matrix is one pass of that kernel with a unit departure in every
(OD, interval) cell, at the link times a load already holds, collecting the
channel crossings as per-interval linear pieces.  A departure in interval k
is counted in intervals k..k+L only, with L small, so the pieces are stored
as a band of L + 1 lags per departure interval.  A channel counts
only the ODs whose route crosses it, so the band holds only those
(channel, OD) pairs, listed once per route layout.  The kernel visits each
channel once, and its crossings are summed there into the channel's block
of pairs, so no crossing outlives its visit.  The readers expand what they
need: the interval filter each step's lag-summed matrix, the cumulative
mapping each leg's matrix, and ``AssignmentMatrix.pieces`` the dense view.
The cumulative mapping combines the band with departure profiles to map leg
deviations onto cumulative count deviations up to a measurement horizon; it
keeps one matrix per leg.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .network import OD, Network, TimeGrid, bpr_travel_time, read_only_view

_LOAD_CALLS = 0


def load_call_count() -> int:
    """Number of ``load_network`` calls since import (purity instrument).

    Only ``load_network`` counts.  ``assignment_matrix`` reads the link times
    of a load already made and loads nothing, and ``detector_counts`` loads a
    demand for its counts alone, so neither is counted.
    """
    return _LOAD_CALLS


@dataclass(frozen=True)
class DynamicDemand:
    """OD departures per interval: matrix of shape (n_od, n_intervals).

    ``matrix`` is a read-only view of the array given; a float array is not
    copied."""

    od_index: tuple[OD, ...]
    grid: TimeGrid
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = read_only_view(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape != (len(self.od_index), self.grid.n_intervals):
            raise ConfigurationError(
                f"demand matrix {m.shape} does not match "
                f"({len(self.od_index)}, {self.grid.n_intervals})"
            )
        if (m < 0).any():
            raise ValueError("negative demand cells")


@dataclass(frozen=True)
class LinkFlowSeries:
    """Detector channel counts per interval, shape (n_channels, n_intervals).

    ``counts`` is a read-only view of the array given; a float array is not
    copied."""

    channels: tuple[str, ...]
    grid: TimeGrid
    counts: np.ndarray

    def __post_init__(self) -> None:
        y = read_only_view(self.counts)
        object.__setattr__(self, "counts", y)
        if y.shape != (len(self.channels), self.grid.n_intervals):
            raise ConfigurationError(
                f"count matrix {y.shape} does not match "
                f"({len(self.channels)}, {self.grid.n_intervals})"
            )

    def cumulative(self) -> np.ndarray:
        """Running totals along the horizon; nondecreasing for nonnegative counts."""
        return np.cumsum(self.counts, axis=1)


@dataclass(frozen=True)
class LoadResult:
    """Everything one loading produces.

    ``counts`` holds the detector channels' inflows per interval.
    ``spillover`` holds mass that would have entered a link after the
    horizon end and was dropped from the per-interval series.  ``link_tt``
    and ``spillover`` hold every link that some path of the network uses and
    every detector channel, whether or not a route of the demand visits it.
    ``probe_travel_times`` walks the door-to-door times from ``link_tt``.

    A holder that reads a load's link times no more keeps a copy with
    ``link_tt`` ``None``, its times released (``replace(load,
    link_tt=None)``): the true day's final load once its pass returns, and
    ``run_experiment``'s history once the band is built.  Such a load has no
    probe times.
    """

    counts: LinkFlowSeries
    link_tt: dict[str, np.ndarray] | None
    spillover: dict[str, float]

    def spilled(self) -> float:
        return float(sum(self.spillover.values()))


def _link_order(net: Network) -> list[str]:
    """Topological order of used links under same-interval feeding, built
    once per network (``Network.plans``): the order in which a pass visits
    its links and sums their parcels.

    An edge l -> m exists when some path traverses m immediately after l.
    A cycle would make the single forward pass ill-defined.  A source, a
    link that no link feeds, comes just before its first consumer, after
    the other sources of that consumer, so its pieces wait through few
    visits; a source that feeds nothing keeps its place.
    """
    if "link order" not in net.plans:
        net.plans["link order"] = _feeding_order(net)
    return net.plans["link order"]


def _feeding_order(net: Network) -> list[str]:
    # every used link, in the order the paths first reach it
    succs: dict[str, set[str]] = {}
    for od in sorted(net.paths):
        seq = net.paths[od].links
        for lid in seq:
            succs.setdefault(lid, set())
        for a, b in zip(seq, seq[1:]):
            succs[a].add(b)
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(lid: str) -> None:
        mark = state.get(lid, 0)
        if mark == 1:
            raise ConfigurationError(
                "fixed paths feed links cyclically within an interval; "
                "the one-pass loader cannot order them"
            )
        if mark == 2:
            return
        state[lid] = 1
        for nxt in sorted(succs[lid]):
            visit(nxt)
        state[lid] = 2
        order.append(lid)

    # A depth-first postorder keeps a link's feeders close to it, so few
    # pieces wait at once: Kahn's order (``graphlib``), with sources moved
    # as below, raises toy-3's experiment heap peak under tracemalloc from
    # 675,463 B to 1,023,997 B (seed 20260825, Python 3.11).
    for lid in succs:
        visit(lid)
    del visit  # the recursive closure is a reference cycle; break it now
    order.reverse()
    at = {lid: i for i, lid in enumerate(order)}
    fed = {b for nxt in succs.values() for b in nxt}

    def turn(lid: str) -> int:
        # a source just before its first consumer, after that consumer's
        # other sources in this order; every other link at its own place
        if lid in fed or not succs[lid]:
            return 2 * at[lid] + 1
        return 2 * min(at[b] for b in succs[lid])

    return sorted(order, key=turn)


@dataclass(frozen=True, eq=False)
class _Routes:
    """One route layout and the kernel's tables: ``order`` holds the links
    in the order ``_propagate`` visits them and sums their senders' pieces
    (``_link_order``), ``succ[i, r]`` the position in ``order`` of the link
    after ``order[i]`` on ``routes[r]`` (-1 where the trip ends),
    ``first[r]`` that of its first link (-1 for an empty route) and
    ``fanout[i]`` the positions ``order[i]`` feeds, ascending.  ``by_first``
    lists the routes ordered by ``first`` and then index; the routes that
    start at ``order[i]`` are ``by_first[first_start[i] : first_start[i + 1]]``.

    ``channel`` maps each detector channel to its row in ``net.detectors``.
    ``pairs`` lists the (channel, OD) pairs whose route crosses the channel,
    as (channel rows, OD columns) ordered by channel and then OD; channel
    ``c``'s pairs are ``pairs[:, pair_start[c] : pair_start[c + 1]]``."""

    routes: tuple[tuple[str, ...], ...]
    order: tuple[str, ...]
    succ: np.ndarray
    first: np.ndarray
    fanout: tuple[tuple[int, ...], ...]
    by_first: np.ndarray
    first_start: np.ndarray
    channel: dict[str, int]
    pairs: np.ndarray
    pair_start: np.ndarray


def _route_plan(net: Network, od_index: tuple[OD, ...], *, cut: bool) -> _Routes:
    """The routes of ``od_index``, whole or cut, built once per network, OD
    index and ``cut`` (``Network.plans``) and shared.

    Whole routes are what ``load_network`` moves: ``order`` is ``_link_order``
    and then every detector channel that no route visits, so each of them
    gets its inflow and time, with no parcels.

    Cut routes are what the passes that need counts only move.  A channel's
    count is its inflow.  That depends on the times of the links before it
    on the routes entering it, and a BPR time on everything that enters its
    link.  So a link *matters* when a channel or a link that matters lies
    after it on some route of ``od_index``; it is enough to look at the next
    link of each route, in reverse link order.  A route ends at its last
    channel or its last link that matters, whichever comes later.  Every
    parcel that would enter a channel or a link that matters still does,
    from the same links in the same order, so the counts are the same to the
    bit.  An empty route departs nothing, and ``order`` holds only the links
    the cut routes visit.
    """
    key = ("routes", od_index, cut)
    if key not in net.plans:
        net.plans[key] = _build_plan(net, od_index, cut)
    return net.plans[key]


def _build_plan(net: Network, od_index: tuple[OD, ...], cut: bool) -> _Routes:
    chan_pos: dict[str, int] = {}
    for c, ch in enumerate(net.detectors):
        if ch not in net.links:
            raise ConfigurationError(f"unknown detector channel {ch!r}")
        if ch in chan_pos:
            raise ConfigurationError(f"detector channel {ch!r} is listed twice")
        chan_pos[ch] = c
    routes = [net.path_of(od).links for od in od_index]
    crossed = sorted({(chan_pos[lid], r) for r, route in enumerate(routes)
                      for lid in route if lid in chan_pos})
    pairs = np.array(crossed, dtype=np.intp).reshape(-1, 2).T
    pair_start = np.searchsorted(pairs[0], np.arange(len(chan_pos) + 1))
    order = _link_order(net)
    if cut:
        kept = set(net.detectors)
        succs: dict[str, set[str]] = {}
        for route in routes:
            for a, b in zip(route, route[1:]):
                succs.setdefault(a, set()).add(b)
        for lid in reversed(order):
            if not kept.isdisjoint(succs.get(lid, ())):
                kept.add(lid)
        routes = [route[: max((j + 1 for j, lid in enumerate(route) if lid in kept), default=0)]
                  for route in routes]
        visited = {lid for route in routes for lid in route}
        order = [lid for lid in order if lid in visited]
    else:
        order = order + [ch for ch in net.detectors if ch not in order]
    at = {lid: i for i, lid in enumerate(order)}
    succ = np.full((len(order), len(routes)), -1, dtype=np.int32)
    for r, route in enumerate(routes):
        for a, b in zip(route, route[1:]):
            succ[at[a], r] = at[b]
    first = np.array([at[route[0]] if route else -1 for route in routes], dtype=np.int32)
    by_first = np.argsort(first, kind="stable")
    first_start = np.searchsorted(first[by_first], np.arange(len(order) + 1))
    fanout = tuple(tuple(sorted(set(row.tolist()) - {-1})) for row in succ)
    for table in (succ, first, by_first, first_start, pairs, pair_start):
        table.setflags(write=False)
    return _Routes(routes=tuple(routes), order=tuple(order), succ=succ, first=first,
                   fanout=fanout, by_first=by_first, first_start=first_start,
                   channel=chan_pos, pairs=pairs, pair_start=pair_start)


def _propagate(
    grid: TimeGrid,
    plan: _Routes,
    matrix: np.ndarray,
    link_time: Callable[[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> dict[str, float]:
    """Move departure parcels along fixed routes, one link at a time over the day.

    Every cell ``(r, k)`` of the ``(routes, intervals)`` demand ``matrix``
    with ``matrix[r, k] > 0`` whose route is not empty departs that mass
    uniformly over interval ``k`` onto the first link of ``plan.routes[r]``.
    A first link's departures are read off ``matrix`` when its turn comes, in
    (interval, route) order, which is chronological, from the rows of the
    routes that start there (``plan.by_first``), so no other first link's
    departures exist meanwhile.
    A parcel enters its link uniformly over a window ``[a, b)`` within one
    interval ``h`` and carries its cell ``r * n_intervals + k``, its mass
    and its sort key (below).

    Links are visited in ``plan.order``, each for every interval at once.
    This is exact: a link's time in an interval depends only on its inflow
    during that interval, link times are nonnegative so parcels only move
    forward in time, and the order is a topological order of the feeding
    relation, the same in every interval.  It visits a source link, where
    trips only start, just before its first consumer, so the source's pieces
    wait through few visits (``_link_order``).  When a link's turn comes,
    every upstream link has been processed for the whole day, so all the
    parcels that will ever enter it are known.  ``link_time(lid, inflow, h,
    cell, mass)`` gets the inflow per interval and the parcels' entry
    intervals, cells and masses, and returns the link's travel time in every
    interval.
    Each parcel then moves on to the next link of its route, its window
    shifted by the link time and cut at interval boundaries; a piece
    entering after the horizon end is spilled.

    A link's parcels are kept in chronological order: by entry interval,
    then by the interval in which they entered the previous link (departures
    first), then by the order in which the pass visited that link, and their
    order there.  Each sender's batch waits in the inbox in the order it was
    sent, and a visit joins its departures and then its batches before its
    stable sort.  Inflows, the callback's sums and the spillover therefore
    accumulate in the order of an interval-by-interval pass over ``order``.
    Returns, per link of ``order`` in that order, the mass that would have
    entered it after the horizon end.

    A parcel carries its entry interval ``h`` and the previous link's
    ``prev`` (-1 for a departure) as one sort key ``h * (n_h + 1) + prev +
    1``, in ``0..n_h * (n_h + 2)`` (``_key_dtype``), built when it leaves
    the previous link; a visit sorts by it and takes ``h = key // (n_h +
    1)``, in place.  So a parcel in flight is five columns, 32 bytes.

    A visit frees each array after its last reader, so the parcels in flight
    and the visited link's columns are all that it holds beyond the entry:
    the sorted gathers replace the columns one at a time, the key becomes
    ``h`` in place, the windows' widths are written over their ends ``b``
    (a fresh array, or a slice of one that no other link's slice overlaps,
    which nothing reads after this visit; so is the key), the piece index
    is built in place from the pieces, and the mass is scaled in place.
    """
    n_h = grid.n_intervals
    key_dtype = _key_dtype(n_h)
    # interval edges as grid.bounds gives them; nothing is cut past the end
    edges = np.append(grid.start + grid.interval_minutes * np.arange(n_h + 1.0), np.inf)
    order, succ, fanout = plan.order, plan.succ, plan.fanout
    # a multi-consumer link sorts its pieces by their next link's position in
    # ``order``, cast to the narrowest unsigned type that holds every
    # position: numpy sorts 8- and 16-bit integers stably by radix, to the
    # permutation a stable sort of the positions themselves gives
    next_dtype = (np.uint8 if len(order) <= 1 << 8
                  else np.uint16 if len(order) <= 1 << 16 else succ.dtype)

    # per link, the batches of parcels waiting to enter it, in their
    # senders' order: (cell, sort key, a, b, mass)
    inbox: list[list[tuple[np.ndarray, ...]]] = [[] for _ in order]
    spill = dict.fromkeys(order, 0.0)
    nothing = (np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))
    for i, lid in enumerate(order):
        batches, inbox[i] = inbox[i], []
        rows = plan.by_first[plan.first_start[i]: plan.first_start[i + 1]]
        if rows.size:
            # (interval, route) order: chronological, so a link where trips
            # only start needs no sort
            k, r = np.nonzero(matrix[rows].T > 0.0)
            if k.size:
                # the departures join first, keyed k * (n_h + 1) + (-1) + 1
                r = rows[r]
                batches.insert(0, ((r * n_h + k).astype(np.int32), k.astype(key_dtype) * (n_h + 1),
                                   edges[k], edges[k + 1], matrix[r, k]))
            del r, k
        if not batches:
            link_time(lid, np.zeros(n_h), *nothing)
            continue
        cell, key, a, b, mass = (
            np.concatenate(col) if len(batches) > 1 else col[0] for col in zip(*batches)
        )
        del batches
        if (key[1:] < key[:-1]).any():
            perm = np.argsort(key, kind="stable")
            # one column at a time, each old one freed as its gather replaces it
            cell = cell[perm]
            key = key[perm]
            a = a[perm]
            b = b[perm]
            mass = mass[perm]
            del perm
        # the entry intervals, written over the key: a fresh array, or a
        # slice of one that no other link's slice overlaps
        h = np.floor_divide(key, n_h + 1, out=key)
        del key
        sums = np.bincount(h, weights=mass, minlength=n_h + 1)
        spill[lid] = float(sums[n_h])
        n_in = int(np.searchsorted(h, n_h))  # spilled pieces sort last
        if n_in < h.size:
            cell, h, a, b, mass = cell[:n_in], h[:n_in], a[:n_in], b[:n_in], mass[:n_in]
        tt = link_time(lid, sums[:n_h].copy(), h, cell, mass)

        if not fanout[i]:
            del cell, h, a, b, mass
            continue
        # Shift every window by the link time and cut it at the next edge.
        # A window lies inside one interval: departures span one, and every
        # piece is cut at the edges.  Shifted, with each end rounded, it
        # cannot reach past a second edge, because rounding is monotone and
        # the edges are exact.  So window j gives piece 2j up to the edge and
        # piece 2j + 1 past it, each kept if not empty and the trip goes on;
        # a piece past the horizon end (edge ``inf``) is not cut further.
        # Row j of ``bounds`` is [sa, min(edge, sb), sb], so the piece's
        # ends are its entries 3j + past and 3j + past + 1: a piece past the
        # edge is kept only if edge < sb, and then begins at the edge.
        bounds = np.empty((h.size, 3))
        shift = tt[h]
        np.add(a, shift, out=bounds[:, 0])
        np.add(b, shift, out=bounds[:, 2])
        del shift
        # the widths, written over b: it is a fresh array, or a slice of
        # one that no other link's slice overlaps, and nothing reads it after
        width = np.subtract(b, a, out=b)
        del a, b
        start = _interval_index(bounds[:, 0] - grid.start, grid.interval_minutes, n_h)
        np.minimum(edges[start + 1], bounds[:, 2], out=bounds[:, 1])
        nxt = succ[i][cell // n_h]
        go = nxt >= 0
        keep = np.empty((nxt.size, 2), dtype=bool)
        np.logical_and(bounds[:, 0] < bounds[:, 2], go, out=keep[:, 0])
        np.logical_and(bounds[:, 1] < bounds[:, 2], go, out=keep[:, 1])
        pieces = np.flatnonzero(keep)
        del go, keep
        if len(fanout[i]) > 1:
            pieces = pieces[np.argsort(nxt[pieces >> 1].astype(next_dtype), kind="stable")]
        rows, past = pieces >> 1, (pieces & 1).astype(bool)
        at = np.add(pieces, rows, out=pieces)  # piece 2j + past starts at 3j + past
        del pieces
        piece_a = bounds.ravel()[at]
        at += 1
        piece_b = bounds.ravel()[at]
        del bounds, at
        width = width[rows]
        span = piece_b - piece_a
        moved = mass[rows]
        del mass
        # mass * span / width in place, rounded as that expression is
        np.multiply(moved, span, out=moved)
        np.divide(moved, width, out=moved)
        del span, width
        # each piece's key at the next link: its entry interval there, then h
        key = start[rows].astype(key_dtype, copy=False)
        key += past
        key *= n_h + 1
        key += h[rows]
        key += 1
        out = (cell[rows], key, piece_a, piece_b, moved)
        # free this link's parcels before the next link gathers its own
        del cell, h, start, past, key, piece_a, piece_b, moved
        if len(fanout[i]) == 1:
            inbox[fanout[i][0]].append(out)
        else:
            ends = np.searchsorted(nxt[rows], fanout[i], side="right")
            for n, lo, hi in zip(fanout[i], [0, *ends[:-1].tolist()], ends.tolist()):
                inbox[n].append(tuple(col[lo:hi] for col in out))
        del rows, nxt, out
    return spill


def _key_dtype(n_h: int) -> type:
    """The narrowest integer type of ``_propagate``'s sort keys on a grid of
    ``n_h`` intervals: int32 while their largest, ``n_h * (n_h + 2)``, fits
    it, int64 past that (from 46,340 intervals)."""
    return np.int32 if n_h * (n_h + 2) <= np.iinfo(np.int32).max else np.int64


def _interval_index(offset: np.ndarray, interval_minutes: int, last: int) -> np.ndarray:
    """``np.floor_divide(offset, interval_minutes)`` clipped to ``0..last``, as
    integers, to the bit, at a fraction of a float ``floor_divide``'s cost.

    ``floor`` of the rounded quotient is exact for an integer interval
    length: below an edge ``n * interval_minutes``, which is exact, an offset
    lies at least one unit in its last place short of it, so its quotient
    lies more than half a unit short of ``n`` and cannot round up to it.
    """
    return np.floor(offset / interval_minutes).clip(0, last).astype(np.int32)


def load_network(
    net: Network,
    demand: DynamicDemand,
    *,
    frozen_link_tt: dict[str, np.ndarray] | None = None,
) -> LoadResult:
    """Load the demand onto the network in one forward pass over the links.

    With ``frozen_link_tt`` the BPR feedback is bypassed and the given
    per-link per-interval times are used instead, which makes the loading an
    exactly linear map of the demand.

    Raises:
        ConfigurationError: if demand ODs lack paths, a detector channel is
            no link of the network or is listed twice, or the path set feeds
            links cyclically within an interval.
        ValueError: via :class:`DynamicDemand` on negative demand.
    """
    global _LOAD_CALLS
    _LOAD_CALLS += 1

    grid = demand.grid
    n_h = grid.n_intervals
    plan = _route_plan(net, demand.od_index, cut=False)
    counts = np.zeros((len(net.detectors), n_h))
    link_tt: dict[str, np.ndarray] = {}
    hours = grid.interval_minutes / 60.0

    def link_time(lid: str, inflow: np.ndarray, *_) -> np.ndarray:
        c = plan.channel.get(lid)
        if c is not None:
            counts[c] = inflow
        if frozen_link_tt is not None:
            tt = np.array(frozen_link_tt[lid][:n_h], dtype=float)
        else:
            tt = bpr_travel_time(net.links[lid], inflow / hours)
        link_tt[lid] = tt
        return tt

    spill = _propagate(grid, plan, demand.matrix, link_time)
    return LoadResult(counts=LinkFlowSeries(channels=net.detectors, grid=grid, counts=counts),
                      link_tt=link_tt, spillover=spill)


def detector_counts(net: Network, demand: DynamicDemand) -> LinkFlowSeries:
    """The ``counts`` of ``load_network(net, demand)``, to the bit, and nothing else.

    Parcels move along the routes cut after the last link a count depends on
    (``_route_plan``), and no probe times are taken, so it is the cheaper
    call wherever only counts are read.  It is not counted by
    ``load_call_count``.

    Raises:
        ConfigurationError: if demand ODs lack paths, a detector channel is
            no link of the network or is listed twice, or the path set feeds
            links cyclically within an interval.
    """
    grid = demand.grid
    hours = grid.interval_minutes / 60.0
    plan = _route_plan(net, demand.od_index, cut=True)
    counts = np.zeros((len(net.detectors), grid.n_intervals))

    def link_time(lid: str, inflow: np.ndarray, *_) -> np.ndarray:
        c = plan.channel.get(lid)
        if c is not None:
            counts[c] = inflow
        return bpr_travel_time(net.links[lid], inflow / hours)

    _propagate(grid, plan, demand.matrix, link_time)
    return LinkFlowSeries(channels=net.detectors, grid=grid, counts=counts)


def probe_travel_times(net: Network, od_index: tuple[OD, ...], load: LoadResult) -> np.ndarray:
    """Door-to-door times, ``(OD, intervals)``, of probes of ``od_index``
    departing at every interval midpoint, at ``load``'s link times.

    A probe entering a link before the grid uses interval 0's time, after it
    the last interval's.  All ODs walk their whole routes together, one route
    position at a time, each from ``plan.first`` along ``plan.succ``; a route
    that has ended adds zero, so each row sums as its own walk would.

    Raises:
        ValueError: if ``load``'s link times were released.
    """
    if load.link_tt is None:
        raise ValueError("the load's link times were released; it has no probe times")
    plan = _route_plan(net, od_index, cut=False)
    grid = load.counts.grid
    n_h = grid.n_intervals
    t0 = grid.midpoint(np.arange(n_h))
    # one row per link, and a zero row, at -1, that walks the ended routes in place
    table = np.zeros((len(plan.order) + 1, n_h))
    for j, lid in enumerate(plan.order):
        table[j] = load.link_tt[lid]
    ods = np.arange(len(plan.routes))
    at = plan.first
    t = np.tile(t0, (ods.size, 1))
    for _ in range(max(map(len, plan.routes), default=0)):
        hi = _interval_index(t - grid.start, grid.interval_minutes, n_h - 1)
        t = t + table[at[:, None], hi]
        # an ended route reads succ[-1], the last link's row: the last link of
        # a topological order feeds none, so the route stays at -1
        at = plan.succ[at, ods]
    return t - t0


@dataclass(frozen=True)
class AssignmentMatrix:
    """Linear pieces H stored by lag over the crossed (channel, OD) pairs.

    ``pairs`` is ``(2, P)``: channel rows and OD columns of the P pairs whose
    route crosses the channel, ordered by channel and then OD.
    ``band[k, l, p]`` is the fraction of OD ``pairs[1, p]``'s interval-``k``
    departures crossing channel ``pairs[0, p]`` during interval ``k + l``,
    under the frozen travel times the matrix was built from; every other
    (channel, OD) pair is zero.  The band's width ``L + 1`` covers every lag a
    crossing takes; entries past the horizon end count in no interval.
    ``band`` and ``pairs`` are read-only views of the arrays given, which are
    not copied where they are float and ``intp`` arrays."""

    od_index: tuple[OD, ...]
    channels: tuple[str, ...]
    grid: TimeGrid
    band: np.ndarray
    pairs: np.ndarray

    def __post_init__(self) -> None:
        b = read_only_view(self.band)
        pairs = read_only_view(self.pairs, dtype=np.intp)
        object.__setattr__(self, "band", b)
        object.__setattr__(self, "pairs", pairs)
        n_h, n_ch, n_od = self.grid.n_intervals, len(self.channels), len(self.od_index)
        if pairs.ndim != 2 or pairs.shape[0] != 2:
            raise ConfigurationError(f"assignment pairs {pairs.shape} are not (2, P)")
        n_pairs = pairs.shape[1]
        if b.shape[:1] + b.shape[2:] != (n_h, n_pairs) or not 1 <= b.shape[1] <= n_h:
            raise ConfigurationError(
                f"assignment band {b.shape} is not ({n_h}, 1..{n_h}, {n_pairs})")
        c, i = pairs
        if n_pairs and (min(c.min(), i.min()) < 0 or c.max() >= n_ch or i.max() >= n_od
                        or (np.diff(c * n_od + i) <= 0).any()):
            raise ConfigurationError(
                f"assignment pairs are not distinct (channel, OD) cells of "
                f"({n_ch}, {n_od}) ordered by channel and then OD")
        # written so that a NaN, which fails every comparison, fails it too
        if not (b.min(initial=0.0) >= -1e-12 and b.max(initial=0.0) <= 1.0 + 1e-12):
            raise ValueError("assignment fractions outside [0, 1]")
        if b.sum(axis=1).max(initial=0.0) > 1.0 + 1e-9:
            raise ValueError("assignment fractions of one departure exceed 1 over the horizon")

    @property
    def pieces(self) -> np.ndarray:
        """The dense ``(H, H, C, OD)`` view ``pieces[k, h] = band[k, h - k]``, built on demand."""
        n_h = self.grid.n_intervals
        c, i = self.pairs
        dense = np.zeros((n_h, n_h, len(self.channels), len(self.od_index)))
        for l in range(self.band.shape[1]):
            k = np.arange(n_h - l)[:, None]
            dense[k, k + l, c, i] = self.band[: n_h - l, l]
        return dense

    def lag_rows(self, stop: int, weights: np.ndarray) -> np.ndarray:
        """The pieces counted in each interval ``h < stop``, each scaled by
        the weights of the interval it reads and summed, at the pairs: the
        ``(stop, P)`` array whose row ``h`` holds, at pair ``p``, the entry of
        ``Σ_l pieces[h - l, h] · diag(weights[:, h - l])`` for
        ``l = 0..min(L, h)``; ``pair_matrix`` of the row is that matrix.

        ``weights`` is ``(OD, intervals)``, with a column for every interval
        before ``stop``.  Each row adds its lags' band rows ``band[h - l, l]``
        in order from lag 0, one lag at a time over every interval.

        Raises:
            IndexError: if ``stop`` lies outside ``0..H``.
        """
        n_h, width, _ = self.band.shape
        if not 0 <= stop <= n_h:
            raise IndexError(f"stop {stop} outside 0..{n_h}")
        i = self.pairs[1]
        rows = self.band[:stop, 0] * weights[i, :stop].T
        for lag in range(1, min(width, stop)):
            rows[lag:] += self.band[: stop - lag, lag] * weights[i, : stop - lag].T
        return rows

    @functools.cached_property
    def pair_matrix(self) -> Callable[[np.ndarray], np.ndarray]:
        """``pair_matrix(values)`` is the ``(C, OD)`` matrix holding
        ``values`` at the P pairs and zero at every other (channel, OD) cell.
        The scatter holds the pairs' flat index and not the band, so a reader
        may keep it once the band is freed."""
        c, i = self.pairs
        shape = (len(self.channels), len(self.od_index))
        flat = c * shape[1] + i

        def scatter(values: np.ndarray) -> np.ndarray:
            matrix = np.zeros(shape)
            matrix.ravel()[flat] = values
            return matrix

        return scatter

    def predict_counts(self, demand_matrix: np.ndarray) -> np.ndarray:
        """Counts implied by the frozen linearization, sum_k H[k -> h] x_k:
        the channel sums of ``lag_rows(H, demand_matrix)``.

        Raises:
            ConfigurationError: if ``demand_matrix`` is not (n_od, n_intervals).
        """
        x = np.asarray(demand_matrix, dtype=float)
        n_h, n_ch, n_od = self.grid.n_intervals, len(self.channels), len(self.od_index)
        if x.shape != (n_od, n_h):
            raise ConfigurationError(
                f"demand matrix {x.shape} is not (n_od, n_intervals) = ({n_od}, {n_h})")
        counts = np.zeros((n_ch, n_h))
        np.add.at(counts, self.pairs[0], self.lag_rows(n_h, x).T)
        return counts


def assignment_matrix(net: Network, od_index: tuple[OD, ...], load: LoadResult) -> AssignmentMatrix:
    """Linearize the loader at the link times of ``load``.

    One unit departure per (OD of ``od_index``, interval of ``load``'s grid)
    moves through the links at the times ``load.link_tt``, and every channel
    crossing is collected; with the same travel times, ``load_network``
    reproduces ``predict_counts`` up to float roundoff.  No BPR time is
    computed.  The band is as wide as the longest lag of a crossing.  The
    routes are cut after their last channel or last link whose load moves a
    count (``_route_plan``); cells whose cut route is empty depart nothing.

    The band holds the (channel, OD) pairs of the route layout
    (``_route_plan``).  The kernel visits each channel once, with all of its
    crossings in the order they come.  They are summed at once, with
    ``np.bincount`` over (departure interval, lag, OD), into the channel's
    block over its pairs: the same additions from 0.0, in the same order, as
    adding every crossing into the band one by one.  The band is allocated
    once the pass is done, when its width is known, and each block is
    written into its channel's slice of pairs and freed, so the band never
    sits beside a whole second copy of itself.

    Raises:
        ConfigurationError: if an OD of ``od_index`` lacks a path or a
            detector channel is no link of the network or is listed twice.
    """
    grid = load.counts.grid
    n_h = grid.n_intervals
    plan = _route_plan(net, od_index, cut=True)
    # per channel, its block over its pairs, (H, lags, pairs)
    blocks: dict[int, np.ndarray] = {}

    def link_time(lid: str, inflow: np.ndarray, h: np.ndarray, cell: np.ndarray,
                  mass: np.ndarray) -> np.ndarray:
        c = plan.channel.get(lid)
        if c is not None:
            ods = plan.pairs[1, plan.pair_start[c]: plan.pair_start[c + 1]]
            oi, k = np.divmod(cell.astype(np.intp), n_h)
            lag = h - k
            width = int(lag.max(initial=0)) + 1
            # summed in the order the crossings came
            block = np.bincount((k * width + lag) * ods.size + np.searchsorted(ods, oi),
                                weights=mass, minlength=n_h * width * ods.size)
            blocks[c] = block.reshape(n_h, width, ods.size)
        return load.link_tt[lid]

    # a view, no array: a unit departure from every cell
    _propagate(grid, plan, np.broadcast_to(1.0, (len(od_index), n_h)), link_time)
    band = np.zeros((n_h, max((b.shape[1] for b in blocks.values()), default=1),
                     plan.pairs.shape[1]))
    while blocks:
        # each block is freed as the band takes it
        c, block = blocks.popitem()
        band[:, : block.shape[1], plan.pair_start[c]: plan.pair_start[c + 1]] = block
        del block
    return AssignmentMatrix(od_index=od_index, channels=net.detectors, grid=grid,
                            band=band, pairs=plan.pairs)


@dataclass(frozen=True)
class CumulativeMapping:
    """Per-leg linear maps from leg deviations to cumulative count deviations.

    ``matrix(leg)`` is the (n_channels, n_od) matrix that sends a leg OD
    deviation to the induced cumulative detector-count deviation up to the
    horizon.  It is the sum over departure intervals ``k <= horizon`` of the
    leg's piece ``k``: the horizon-summed assignment piece for departure
    interval ``k`` times the diagonal of the leg's interval-``k`` departure
    shares.  Only the sums are kept, in ``matrices``.  A mapping can also be
    built from the per-interval ``pieces[leg]``, shape (horizon + 1,
    n_channels, n_od), which are summed over axis 0, as
    ``cumulative_mapping`` sums its own, and not kept.  ``matrices`` holds
    read-only views, in a dict of the mapping's own; given float matrices
    are not copied.
    """

    horizon: int
    od_index: tuple[OD, ...]
    channels: tuple[str, ...]
    pieces: InitVar[dict[str, np.ndarray] | None] = None
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self, pieces: dict[str, np.ndarray] | None) -> None:
        matrices = self.matrices
        if pieces is not None:
            if matrices:
                raise ConfigurationError("a cumulative mapping takes pieces or matrices, not both")
            matrices = {leg: np.asarray(p, dtype=float).sum(axis=0) for leg, p in pieces.items()}
        object.__setattr__(self, "matrices", {
            leg: read_only_view(m) for leg, m in matrices.items()})

    def matrix(self, leg: str) -> np.ndarray:
        try:
            return self.matrices[leg]
        except KeyError:
            raise ConfigurationError(f"no cumulative mapping for leg {leg!r}") from None


def cumulative_mapping(
    assignment: AssignmentMatrix, profiles: dict[str, np.ndarray], horizon: int
) -> CumulativeMapping:
    """Combine assignment pieces with departure profiles up to ``horizon``.

    ``profiles[leg]`` is the leg's dense (n_od, n_intervals) matrix of
    interval shares, zero off its member ODs.  ``profiles`` may be any
    mapping; one that builds each matrix on access, as
    ``GeneratedSide.profiles`` does from the legs' member rows, has one
    built at a time.
    The assignment piece of departure interval ``k`` is summed over the lags
    ``l <= horizon - k`` of its band, counted up to the horizon: over the
    L + 1 lags, all intervals at once, adding lag after lag from zero as a
    per-interval sum over the lag axis does.  Each leg's matrix then sums
    over ``k`` that piece times the leg's interval-``k`` shares, interval
    after interval.  All of it runs over the band's (channel, OD) pairs; the
    products are formed one leg at a time, in one buffer, and ``pair_matrix``
    scatters each leg's sums into its (n_channels, n_od) matrix.

    Raises:
        ConfigurationError: if the horizon lies outside the grid or a profile
            has the wrong shape.
    """
    n_h = assignment.grid.n_intervals
    if not 0 <= horizon < n_h:
        raise ConfigurationError(f"cumulative horizon {horizon} outside grid of {n_h}")
    n_od = len(assignment.od_index)
    band = assignment.band
    h_sum = np.zeros((horizon + 1, band.shape[2]))
    for lag in range(min(band.shape[1], horizon + 1)):
        h_sum[: horizon + 1 - lag] += band[: horizon + 1 - lag, lag]
    matrices: dict[str, np.ndarray] = {}
    products = np.empty_like(h_sum)
    for leg, prof in profiles.items():
        prof = np.asarray(prof, dtype=float)
        if prof.shape != (n_od, n_h):
            raise ConfigurationError(f"profile for leg {leg!r} has shape {prof.shape}")
        np.multiply(h_sum, prof[assignment.pairs[1], : horizon + 1].T, out=products)
        del prof  # a mapping that builds each profile on access then holds one at a time
        # a running sum adds interval after interval for any number of pairs;
        # ``sum(axis=0)`` over one pair would add pairwise
        matrices[leg] = assignment.pair_matrix(np.cumsum(products, axis=0, out=products)[-1])
    return CumulativeMapping(
        horizon=horizon,
        od_index=assignment.od_index,
        channels=assignment.channels,
        matrices=matrices,
    )
