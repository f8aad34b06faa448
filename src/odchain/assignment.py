"""Quasi-dynamic network loading and its linearization.

Demand departs uniformly within each interval, follows the fixed path of its
OD pair, and enters each successive link after the accumulated upstream travel
times.  A link's travel time in an interval is the BPR time of the flow
entering it during that interval; links are processed in one forward pass in
a topological order of the "feeds within the same interval" relation, so no
equilibrium iteration is performed.  Detector channel counts are arrivals at
(entries to) the detector link per interval.

One propagation kernel moves demand parcels, tagged with their OD and
departure interval, through the links for both the loader and its
linearization.  With travel times frozen, the loading is exactly linear in
demand.  The assignment matrix is one frozen-time pass of that kernel with a
unit departure in every (OD, interval) cell, collecting the channel
crossings as per-interval linear pieces; the cumulative mapping combines
those pieces with departure profiles to map leg deviations onto cumulative
count deviations up to a measurement horizon.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigurationError
from .network import OD, Network, TimeGrid, bpr_travel_time, od_label

logger = logging.getLogger(__name__)

_LOAD_CALLS = 0


def load_call_count() -> int:
    """Number of network loadings performed since import (purity instrument)."""
    return _LOAD_CALLS


@dataclass(frozen=True)
class DynamicDemand:
    """OD departures per interval: matrix of shape (n_od, n_intervals)."""

    od_index: tuple[OD, ...]
    grid: TimeGrid
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.shape != (len(self.od_index), self.grid.n_intervals):
            raise ConfigurationError(
                f"demand matrix {m.shape} does not match "
                f"({len(self.od_index)}, {self.grid.n_intervals})"
            )
        if (m < 0).any():
            raise ValueError("negative demand cells")

    @property
    def total(self) -> float:
        return float(self.matrix.sum())


@dataclass(frozen=True)
class LinkFlowSeries:
    """Detector channel counts per interval, shape (n_channels, n_intervals)."""

    channels: tuple[str, ...]
    grid: TimeGrid
    counts: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.counts, dtype=float)
        y.setflags(write=False)
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

    ``tt_od[i, h]`` is the door-to-door travel time of a probe departing at
    the midpoint of interval ``h``; beyond-horizon link entries reuse the last
    interval's link time.  ``spillover`` holds mass that would have entered a
    link after the horizon end and was dropped from the per-interval series.
    """

    counts: LinkFlowSeries
    tt_od: np.ndarray
    link_tt: dict[str, np.ndarray]
    link_inflow: dict[str, np.ndarray]
    spillover: dict[str, float]

    def spilled(self) -> float:
        return float(sum(self.spillover.values()))


def _used_links(net: Network) -> list[str]:
    seen: list[str] = []
    for od in sorted(net.paths):
        for lid in net.paths[od].links:
            if lid not in seen:
                seen.append(lid)
    return seen


def _link_order(net: Network) -> list[str]:
    """Topological order of used links under same-interval feeding.

    An edge l -> m exists when some path traverses m immediately after l.
    A cycle would make the single forward pass ill-defined.
    """
    used = _used_links(net)
    succs: dict[str, set[str]] = {lid: set() for lid in used}
    for od in sorted(net.paths):
        seq = net.paths[od].links
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

    for lid in used:
        visit(lid)
    order.reverse()
    return order


def _propagate(
    grid: TimeGrid,
    order: list[str],
    routes: list[tuple[str, ...]],
    sources: Iterable[tuple[int, int, float]],
    link_time: Callable[[str, int, list[tuple[int, int, float, float, float]]], float],
) -> dict[str, float]:
    """Move departure parcels along fixed routes in one interval-major pass.

    ``sources`` yields ``(r, k, mass)``: ``mass`` departs uniformly over
    interval ``k`` onto the first link of ``routes[r]``.  A parcel
    ``(r, k, mass, a, b)`` enters its link uniformly over ``[a, b)``, which
    lies within one interval.  Intervals are visited in order and, within
    one, links in ``order``; ``link_time(lid, h, parcels)`` sees every parcel
    entering ``lid`` during ``h`` and returns the link's travel time there.
    Each parcel then moves on to the next link of its route, cut at interval
    boundaries.  Returns, per link, the mass that would have entered it after
    the horizon end.
    """
    n_h = grid.n_intervals
    start, step, end = grid.start, grid.interval_minutes, grid.end
    edges = [float(start + h * step) for h in range(n_h + 1)]  # as grid.bounds
    succ = [dict(zip(route, route[1:])) for route in routes]
    pending: dict[str, list[list[tuple[int, int, float, float, float]]]] = {
        lid: [[] for _ in range(n_h)] for lid in order
    }
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
                    continue  # trip completed
                # link times are nonnegative, so the shifted window starts
                # inside or past the horizon; being at most one interval
                # wide, it covers at most two intervals up to roundoff
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


def load_network(
    net: Network,
    demand: DynamicDemand,
    *,
    frozen_link_tt: dict[str, np.ndarray] | None = None,
) -> LoadResult:
    """Load the demand onto the network in one chronological forward pass.

    With ``frozen_link_tt`` the BPR feedback is bypassed and the given
    per-link per-interval times are used instead, which makes the loading an
    exactly linear map of the demand.

    Raises:
        ConfigurationError: if demand ODs lack paths or the path set feeds
            links cyclically within an interval.
        ValueError: via :class:`DynamicDemand` on negative demand.
    """
    global _LOAD_CALLS
    _LOAD_CALLS += 1

    grid = demand.grid
    n_h = grid.n_intervals
    for od in demand.od_index:
        net.path_of(od)
    order = _link_order(net)
    link_inflow = {lid: np.zeros(n_h) for lid in order}
    link_tt = {lid: np.zeros(n_h) for lid in order}
    hours = grid.interval_minutes / 60.0

    def link_time(lid: str, h: int, parcels: list) -> float:
        inflow = sum([p[2] for p in parcels])
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

    counts = extract_detector_counts(link_inflow, net.detectors, grid)
    tt_od = _probe_travel_times(net, demand.od_index, grid, link_tt)
    return LoadResult(
        counts=counts, tt_od=tt_od, link_tt=link_tt, link_inflow=link_inflow, spillover=spill
    )


def _probe_travel_times(
    net: Network, od_index: tuple[OD, ...], grid: TimeGrid, link_tt: dict[str, np.ndarray]
) -> np.ndarray:
    """Door-to-door times of probes departing at every interval midpoint.

    A probe entering a link before the grid uses interval 0's time, after it
    the last interval's.
    """
    n_h = grid.n_intervals
    lo = grid.start + np.arange(n_h) * grid.interval_minutes
    t0 = 0.5 * (lo.astype(float) + (lo + grid.interval_minutes).astype(float))
    tt = np.zeros((len(od_index), n_h))
    for oi, od in enumerate(od_index):
        t = t0
        for lid in net.paths[od].links:
            hi = np.floor_divide(t - grid.start, grid.interval_minutes).clip(0, n_h - 1)
            t = t + link_tt[lid][hi.astype(np.intp)]
        tt[oi] = t - t0
    return tt


def extract_detector_counts(
    flows: dict[str, np.ndarray] | LoadResult, detectors: tuple[str, ...], grid: TimeGrid
) -> LinkFlowSeries:
    """Pick the detector channels out of per-link flow series.

    Raises:
        ConfigurationError: for detector ids absent from the flow series.
    """
    if isinstance(flows, LoadResult):
        flows = flows.link_inflow
    counts = np.zeros((len(detectors), grid.n_intervals))
    for c, ch in enumerate(detectors):
        if ch not in flows:
            raise ConfigurationError(f"unknown detector channel {ch!r}")
        counts[c] = flows[ch]
    return LinkFlowSeries(channels=tuple(detectors), grid=grid, counts=counts)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Linear pieces H with ``pieces[k, h, c, i]`` = fraction of OD ``i``'s
    interval-``k`` departures crossing channel ``c`` during interval ``h``,
    under the frozen travel times the matrix was built from."""

    od_index: tuple[OD, ...]
    channels: tuple[str, ...]
    grid: TimeGrid
    pieces: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.pieces, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "pieces", p)
        n_h = self.grid.n_intervals
        expected = (n_h, n_h, len(self.channels), len(self.od_index))
        if p.shape != expected:
            raise ConfigurationError(f"assignment pieces {p.shape} do not match {expected}")
        if (p < -1e-12).any() or (p > 1.0 + 1e-12).any():
            raise ValueError("assignment fractions outside [0, 1]")
        if (p.sum(axis=1) > 1.0 + 1e-9).any():
            raise ValueError("assignment fractions of one departure exceed 1 over the horizon")

    def piece(self, k: int, h: int) -> np.ndarray:
        return self.pieces[k, h]

    def predict_counts(self, demand_matrix: np.ndarray) -> np.ndarray:
        """Counts implied by the frozen linearization: sum_k H[k -> h] x_k."""
        return np.einsum("khci,ik->ch", self.pieces, np.asarray(demand_matrix, dtype=float))


def assignment_matrix(net: Network, load: LoadResult, od_index: tuple[OD, ...]) -> AssignmentMatrix:
    """Linearize the loader around the travel times of ``load``.

    One unit departure per (OD, interval) moves through the frozen times,
    whether or not the cell carries demand, and every channel crossing is
    collected; with those same times, ``load_network`` reproduces
    ``predict_counts`` up to float roundoff.
    """
    grid = load.counts.grid
    channels = load.counts.channels
    n_h = grid.n_intervals
    chan_pos = {ch: c for c, ch in enumerate(channels)}
    pieces = np.zeros((n_h, n_h, len(channels), len(od_index)))
    # a route ends at its last channel: nothing further on is recorded
    routes: list[tuple[str, ...]] = []
    for od in od_index:
        seq = net.paths[od].links
        crossed = [i for i, lid in enumerate(seq) if lid in chan_pos]
        routes.append(seq[: crossed[-1] + 1] if crossed else ())
    link_tt = load.link_tt

    def link_time(lid: str, h: int, parcels: list) -> float:
        c = chan_pos.get(lid)
        if c is not None:
            for oi, k, mass, _, _ in parcels:
                pieces[k, h, c, oi] += mass
        return float(link_tt[lid][h])

    sources = ((oi, k, 1.0) for oi, route in enumerate(routes) if route for k in range(n_h))
    _propagate(grid, _link_order(net), routes, sources, link_time)
    return AssignmentMatrix(od_index=od_index, channels=channels, grid=grid, pieces=pieces)


@dataclass(frozen=True)
class CumulativeMapping:
    """Per-leg linear maps from leg deviations to cumulative count deviations.

    ``pieces[leg][k]`` is the (n_channels, n_od) product of the horizon-summed
    assignment piece for departure interval ``k`` with the diagonal of the
    leg's interval-``k`` departure shares; ``matrix(leg)`` sums the pieces, so
    it sends a leg OD deviation to the induced cumulative detector-count
    deviation up to the horizon.
    """

    horizon: int
    od_index: tuple[OD, ...]
    channels: tuple[str, ...]
    pieces: dict[str, np.ndarray]

    def legs(self) -> tuple[str, ...]:
        return tuple(self.pieces)

    def matrix(self, leg: str) -> np.ndarray:
        try:
            return self.pieces[leg].sum(axis=0)
        except KeyError:
            raise ConfigurationError(f"no cumulative mapping for leg {leg!r}") from None


def cumulative_mapping(
    assignment: AssignmentMatrix, profiles: dict[str, np.ndarray], horizon: int
) -> CumulativeMapping:
    """Combine assignment pieces with departure profiles up to ``horizon``.

    ``profiles[leg]`` is the (n_od, n_intervals) matrix of interval shares.

    Raises:
        ConfigurationError: if the horizon lies outside the grid or a profile
            has the wrong shape.
    """
    n_h = assignment.grid.n_intervals
    if not 0 <= horizon < n_h:
        raise ConfigurationError(f"cumulative horizon {horizon} outside grid of {n_h}")
    n_od = len(assignment.od_index)
    out: dict[str, np.ndarray] = {}
    for leg, prof in profiles.items():
        prof = np.asarray(prof, dtype=float)
        if prof.shape != (n_od, n_h):
            raise ConfigurationError(f"profile for leg {leg!r} has shape {prof.shape}")
        pieces = np.zeros((horizon + 1, len(assignment.channels), n_od))
        for k in range(horizon + 1):
            h_sum = assignment.pieces[k, k : horizon + 1].sum(axis=0)
            pieces[k] = h_sum * prof[:, k][None, :]
        out[leg] = pieces
    return CumulativeMapping(
        horizon=horizon,
        od_index=assignment.od_index,
        channels=assignment.channels,
        pieces=out,
    )


def dump_assignment_csv(assignment: AssignmentMatrix, path) -> None:
    """Write the nonzero assignment pieces as rows (k, h, link, od, value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "h", "link", "od", "value"])
        ks, hs, cs, ois = np.nonzero(assignment.pieces)
        for k, h, c, oi in zip(ks, hs, cs, ois):
            writer.writerow(
                [k, h, assignment.channels[c], od_label(assignment.od_index[oi]),
                 f"{assignment.pieces[k, h, c, oi]:.12g}"]
            )


def dump_link_flows_csv(result: LoadResult, path) -> None:
    """Write the loaded per-link inflow series as rows (h, link, value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "link", "value"])
        for lid in sorted(result.link_inflow):
            series = result.link_inflow[lid]
            for h in range(len(series)):
                if series[h] != 0.0:
                    writer.writerow([h, lid, f"{series[h]:.12g}"])
