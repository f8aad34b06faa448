"""The link-major propagation kernel against the interval-major oracle.

``load_network``, ``detector_counts`` and ``assignment_matrix`` must give
what the one-parcel-at-a-time walk in ``kernel_oracle`` gives, to the bit:
the kernel keeps every link's parcels in the oracle's summation order.  That
holds for the load, at BPR or given times, for ``assignment_matrix``'s
pass at the BPR load's times, and for the count-only load.  The last two move parcels only as far as a count
depends on them (``_route_plan``'s cut routes), while the oracle walks every
route to its end.  A load keeps the channels' inflows alone, as its counts;
every link's inflow is read as the kernel passes it to ``link_time``
(``recorded_inflows``).  Kernel and oracle visit the links in one order,
``_link_order``, in which a source link comes just before its first
consumer; a cut plan's order is that order with the links its routes leave
out taken out.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from banding import linearize
from kernel_oracle import oracle_load, oracle_pieces
from ladder import _corridor_mapping, _grid, _toy
from odchain.assignment import (
    DynamicDemand, _interval_index, _key_dtype, _route_plan, assignment_matrix,
    detector_counts, load_network,
)
from odchain.scenario import scenario_from_mapping
from recorded_inflows import load_with_inflows
from odchain.network import (
    Link, Network, Path, TimeGrid, Zone, build_toy_network,
)


def assert_same_as_oracle(net, demand, frozen=None):
    """Returns the load and the inflows its kernel pass computed."""
    load, flows = load_with_inflows(net, demand, frozen)
    inflow, tt, spill = oracle_load(net, demand, frozen)
    # the kernel visits the oracle's links, each once, in the oracle's order
    plan = _route_plan(net, demand.od_index, cut=False)
    assert list(inflow) == list(flows) == list(plan.order)
    for lid in inflow:
        assert np.array_equal(flows[lid], inflow[lid]), lid
        assert np.array_equal(load.link_tt[lid], tt[lid]), lid
    assert load.spillover == spill
    channels = load.counts.channels
    n_h = demand.grid.n_intervals
    assert np.array_equal(load.counts.counts, channel_rows(inflow, channels, n_h))
    # the linearization at the BPR load's times
    bpr = load if frozen is None else load_network(net, demand)
    pieces = oracle_pieces(net, demand.grid, bpr.link_tt, channels, demand.od_index)
    assert np.array_equal(assignment_matrix(net, demand.od_index, bpr).pieces, pieces)
    # the count-only load: the oracle's channel inflows at BPR times
    bpr_inflow = inflow if frozen is None else oracle_load(net, demand)[0]
    counts = detector_counts(net, demand)
    assert counts.channels == channels
    assert np.array_equal(counts.counts, channel_rows(bpr_inflow, channels, n_h))
    return load, flows


def channel_rows(inflow, channels, n_h):
    """The channels' inflow series as one (channels, intervals) array."""
    return np.array([inflow[ch] for ch in channels]).reshape(len(channels), n_h)


def _link(lid, free_flow_time=5.0, capacity=300.0, alpha=0.15, beta=4.0):
    return Link(id=lid, label=lid, from_node="n", to_node="m", free_flow_time=free_flow_time,
                capacity=capacity, bpr_alpha=alpha, bpr_beta=beta)


def _network(links, routes, detectors):
    """``routes[i]`` is the path of OD ``(o{i}, d{i})``; node ids are not checked."""
    zones = {f"{end}{i}": Zone(f"{end}{i}") for i in range(len(routes)) for end in "od"}
    paths = {(f"o{i}", f"d{i}"): Path((f"o{i}", f"d{i}"), tuple(r)) for i, r in enumerate(routes)}
    return Network(zones=zones, links={l.id: l for l in links}, paths=paths,
                   detectors=tuple(detectors))


@st.composite
def cases(draw):
    """A small network with an acyclic path set, a grid, demand and link times."""
    step = draw(st.integers(3, 15))
    n_links = draw(st.integers(2, 6))
    # whole and half multiples of the interval among the free-flow times:
    # with ``bpr_alpha`` 0 they are the link times the linearization sees
    free_flow = st.one_of(st.sampled_from([float(step), 2.0 * step, 0.5 * step]),
                          st.floats(0.5, 40.0))
    links = [
        _link(f"L{j}", draw(free_flow), draw(st.floats(30.0, 3000.0)),
              draw(st.sampled_from([0.0, 0.15, 1.0])), draw(st.sampled_from([1.0, 2.5, 4.0])))
        for j in range(n_links)
    ]
    # every path follows one random order of the links, so feeding is acyclic
    rank = draw(st.permutations(range(n_links)))
    routes = []
    for _ in range(draw(st.integers(1, 4))):
        chosen = draw(st.sets(st.integers(0, n_links - 1), min_size=1))
        routes.append([f"L{j}" for j in sorted(chosen, key=rank.index)])
    detectors = draw(st.sets(st.sampled_from([l.id for l in links]), min_size=1))
    n_h = draw(st.integers(1, 10))
    start = draw(st.sampled_from([0, 7, 420]))
    grid = TimeGrid(start=start, interval_minutes=step, n_intervals=n_h)
    cell = st.one_of(st.just(0.0), st.sampled_from([1.0, 37.5, 400.0]), st.floats(0.0, 2500.0))
    matrix = np.array(draw(st.lists(st.lists(cell, min_size=n_h, max_size=n_h),
                                    min_size=len(routes), max_size=len(routes))))
    od_index = tuple((f"o{i}", f"d{i}") for i in range(len(routes)))
    demand = DynamicDemand(od_index=od_index, grid=grid, matrix=matrix)
    frozen = None
    if draw(st.booleans()):
        # zero, whole multiples of the interval, past the horizon, or anything
        time = st.one_of(
            st.sampled_from([0.0, float(step), 2.0 * step, 0.5 * step, float(step * (n_h + 1))]),
            st.floats(0.0, step * (n_h + 1.5)),
        )
        frozen = {l.id: np.array(draw(st.lists(time, min_size=n_h, max_size=n_h))) for l in links}
    return _network(links, routes, sorted(detectors)), demand, frozen


# 150 examples, or the active profile's count where it is larger (the CI
# profile in conftest.py)
@settings(max_examples=max(150, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_kernel_matches_oracle(case):
    assert_same_as_oracle(*case)


TOY = build_toy_network()


def toy_demand(grid, fill):
    matrix = np.zeros((len(TOY.od_index), grid.n_intervals))
    fill(matrix)
    return DynamicDemand(od_index=TOY.od_index, grid=grid, matrix=matrix)


class TestEdgeShapes:
    def test_one_interval_grid(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=1)
        load, _ = assert_same_as_oracle(TOY, toy_demand(grid, lambda m: m.fill(800.0)))
        assert load.spilled() > 0.0  # nothing after the first link fits the horizon

    def test_one_interval_grid_frozen_times(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=1)
        frozen = {lid: np.array([3.0]) for lid in TOY.links}
        assert_same_as_oracle(TOY, toy_demand(grid, lambda m: m.fill(800.0)), frozen)

    def test_route_of_a_single_detector_link(self):
        net = _network([_link("d"), _link("e")], [["d"], ["e", "d"]], ["d"])
        grid = TimeGrid(start=0, interval_minutes=5, n_intervals=6)
        matrix = np.array([[100.0, 0, 50.0, 0, 0, 10.0], [0, 20.0, 0, 0, 0, 5.0]])
        demand = DynamicDemand(od_index=net.od_index, grid=grid, matrix=matrix)
        _, inflow = assert_same_as_oracle(net, demand)
        assert inflow["d"][0] == 100.0

    def test_od_with_all_zero_demand(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=8)

        def fill(m):
            m[:, 2:5] = 300.0
            m[TOY.od_index.index(("1", "3"))] = 0.0

        demand = toy_demand(grid, fill)
        assert_same_as_oracle(TOY, demand)
        pieces = linearize(TOY, demand).pieces
        # zero demand is still linearized
        assert pieces[:, :, :, TOY.od_index.index(("1", "3"))].sum() > 0.0

    def test_channel_link_no_route_crosses(self):
        net = _network([_link("a"), _link("b"), _link("x")], [["a", "b"], ["b"]], ["b", "x"])
        grid = TimeGrid(start=0, interval_minutes=10, n_intervals=5)
        demand = DynamicDemand(od_index=net.od_index, grid=grid, matrix=np.full((2, 5), 120.0))
        load, inflow = assert_same_as_oracle(net, demand)
        assert not inflow["x"].any()
        assert np.array_equal(load.link_tt["x"], np.full(5, 5.0))
        # the whole-route plan visits x after the link order, with no parcels
        assert _route_plan(net, net.od_index, cut=False).order == ("a", "b", "x")

    def test_no_demand_at_all(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=4)
        load, _ = assert_same_as_oracle(TOY, toy_demand(grid, lambda m: None))
        assert load.spilled() == 0.0


def congested(lid):
    return _link(lid, free_flow_time=4.0, capacity=2400.0, alpha=0.5, beta=2.0)


class TestCutRoutes:
    """Count-only passes cut each route after the last link a count depends on."""

    GRID = TimeGrid(start=0, interval_minutes=5, n_intervals=8)

    def demand(self, net, matrix):
        return DynamicDemand(od_index=net.od_index, grid=self.GRID, matrix=np.asarray(matrix))

    @staticmethod
    def cut(net):
        return _route_plan(net, net.od_index, cut=True)

    def assert_load_moves_counts(self, net, matrix, od):
        """Dropping OD ``od``'s demand changes the counts, so its route must stay."""
        without = np.array(matrix, dtype=float)
        without[od] = 0.0
        counts = detector_counts(net, self.demand(net, matrix)).counts
        assert counts.any()
        assert not np.array_equal(counts, detector_counts(net, self.demand(net, without)).counts)

    def test_toy_keeps_the_links_before_its_channels(self):
        plan = self.cut(TOY)
        cut = dict(zip(TOY.od_index, plan.routes))
        assert sorted(plan.order) == ["1a", "2a", "3b", "4a", "4b", "5b"]
        assert cut[("1", "3")] == ("1a", "4a")
        assert cut[("3", "5")] == ("3b",)  # 3b feeds channel 4b on 3->1
        assert cut[("5", "1")] == cut[("5", "2")] == ()
        assert plan.first[TOY.od_index.index(("5", "1"))] == -1

    def test_link_shared_by_a_channel_route_and_a_channel_free_route(self):
        net = _network([congested("a"), _link("b"), _link("c")], [["a", "b"], ["a", "c"]], ["b"])
        matrix = [[0, 200.0, 120.0, 0, 80.0, 0, 0, 0], [150.0, 300.0, 0, 90.0, 0, 0, 0, 0]]
        assert_same_as_oracle(net, self.demand(net, matrix))
        assert self.cut(net).routes == (("a", "b"), ("a",))
        self.assert_load_moves_counts(net, matrix, 1)

    def test_chain_of_shared_links(self):
        # q -> p loads p, which delays p -> x's parcels into x, which delays
        # x -> d's parcels into the channel d: no channel lies after p on a
        # route, yet its load moves d's count
        links = [congested("q"), congested("p"), congested("x"), _link("d")]
        net = _network(links, [["q", "p"], ["p", "x"], ["x", "d"]], ["d"])
        matrix = [[300.0, 300.0, 0, 0, 0, 0, 0, 0], [200.0, 200.0, 200.0, 0, 0, 0, 0, 0],
                  [0, 200.0, 200.0, 200.0, 0, 0, 0, 0]]
        assert_same_as_oracle(net, self.demand(net, matrix))
        assert self.cut(net).routes == (("q", "p"), ("p", "x"), ("x", "d"))
        self.assert_load_moves_counts(net, matrix, 0)

    def test_route_with_no_channel_and_no_link_that_matters(self):
        matrix = np.full((2, 8), 100.0)
        # route (c) crosses no channel and c feeds none: it departs nothing
        net = _network([_link("a"), _link("b"), _link("c")], [["a", "b"], ["c"]], ["b"])
        assert_same_as_oracle(net, self.demand(net, matrix))
        plan = self.cut(net)
        assert (plan.routes, plan.order) == ((("a", "b"), ()), ("a", "b"))
        # nothing after channel a matters: a -> b stops at a
        net = _network([_link("a"), _link("b"), _link("c")], [["a", "b"], ["c", "a"]], ["a"])
        assert_same_as_oracle(net, self.demand(net, matrix))
        assert self.cut(net).routes == (("a",), ("c", "a"))

    def test_a_three_way_fan_out_to_a_sink(self):
        """The 3 x 3 grid's cut plan sends ``E1_0a``'s parcels on to
        ``V0b``, ``V1a`` and the sink ``E1_1a``: each next link gets its
        pieces in the order a stable sort by next link gives, and the
        sink's batch carries no window."""
        net = scenario_from_mapping(_grid(0, n=3)).network
        plan = self.cut(net)
        fanout = plan.fanout[plan.order.index("E1_0a")]
        assert [plan.order[n] for n in fanout] == ["V0b", "V1a", "E1_1a"]
        assert plan.fanout[plan.order.index("E1_1a")] == ()
        grid = TimeGrid(start=0, interval_minutes=5, n_intervals=24)
        matrix = np.random.default_rng(5).uniform(0.0, 200.0, (len(net.od_index), 24))
        assert_same_as_oracle(net, DynamicDemand(od_index=net.od_index, grid=grid, matrix=matrix))

    def test_network_without_detectors(self):
        net = _network([_link("a"), _link("b")], [["a", "b"], ["b"]], [])
        demand = self.demand(net, np.full((2, 8), 100.0))
        assert_same_as_oracle(net, demand)
        plan = self.cut(net)
        assert (plan.routes, plan.order) == (((), ()), ())
        assert detector_counts(net, demand).counts.shape == (0, 8)
        asg = linearize(net, demand)
        assert (asg.band.shape, asg.pairs.shape) == ((8, 1, 0), (2, 0))


class TestLinkOrder:
    """A pass visits its plan's links in one order (``_link_order``): a
    topological order of the feeding relation in which a source link, where
    trips only start, comes just before its first consumer."""

    NETWORKS = {
        "toy-15": _toy,
        "toy-3": functools.partial(_toy, interval_minutes=3),
        "corridor-6": functools.partial(_corridor_mapping, 6),
        "grid": functools.partial(_grid, 0, n=3),
    }

    @staticmethod
    def plans(name):
        net = scenario_from_mapping(TestLinkOrder.NETWORKS[name]()).network
        return [_route_plan(net, net.od_index, cut=cut) for cut in (False, True)]

    @pytest.mark.parametrize("name", NETWORKS)
    def test_a_topological_order_of_every_link_once(self, name):
        for plan in self.plans(name):
            assert len(set(plan.order)) == len(plan.order)
            assert {lid for route in plan.routes for lid in route} <= set(plan.order)
            turn = {lid: t for t, lid in enumerate(plan.order)}
            for route in plan.routes:
                assert all(turn[a] < turn[b] for a, b in zip(route, route[1:])), route

    @pytest.mark.parametrize("name", NETWORKS)
    def test_a_source_just_before_its_first_consumer(self, name):
        for plan in self.plans(name):
            fed = {n for nxt in plan.fanout for n in nxt}
            for i, nxt in enumerate(plan.fanout):
                if i in fed or not nxt:
                    continue
                # only other sources of the first consumer come between them
                between = range(i + 1, nxt[0])
                assert all(j not in fed and nxt[0] in plan.fanout[j] for j in between), (
                    plan.order[i])

    def test_toy_orders(self):
        whole, cut = (_route_plan(TOY, TOY.od_index, cut=cut) for cut in (False, True))
        # 8a feeds 2b and 1b, 5b and 3b feed 7a and 4b, 2a and 1a feed 4a
        assert whole.order == (
            "5b", "3b", "7a", "4b", "8a", "2b", "1b", "2a", "1a", "4a", "5a", "3a")
        assert cut.order == ("5b", "3b", "4b", "2a", "1a", "4a")


class TestLongGrid:
    """A parcel's sort key ``h * (n_h + 1) + prev + 1`` reaches
    ``n_h * (n_h + 2)``, past int32 from 46,340 intervals on.  A wrapped key
    would sort late parcels first, so the kernel keys in int64 there."""

    def test_key_width(self):
        assert _key_dtype(46_339) == np.int32
        assert 46_339 * 46_341 <= np.iinfo(np.int32).max < 46_340 * 46_342
        assert _key_dtype(46_340) == np.int64

    def test_sparse_demand_past_the_int32_keys(self):
        """Departures join parcels from the link before at the channel, at
        the day's start and in its last intervals, whose keys need int64:
        the load's inflows, times and spill, and the count-only load, are
        the oracle's to the bit."""
        n_h = 46_341
        net = _network([_link("a", 1.5, 600.0), _link("d", 2.0, 600.0)], [["a", "d"], ["d"]],
                       ["d"])
        grid = TimeGrid(start=0, interval_minutes=1, n_intervals=n_h)
        matrix = np.zeros((2, n_h))
        matrix[:, :3] = [[40.0, 70.0, 25.0], [30.0, 0.0, 55.0]]
        matrix[0, n_h - 9:] = np.linspace(35.0, 90.0, 9)
        matrix[1, n_h - 5:] = np.linspace(60.0, 20.0, 5)
        demand = DynamicDemand(od_index=net.od_index, grid=grid, matrix=matrix)
        load, flows = load_with_inflows(net, demand)
        inflow, tt, spill = oracle_load(net, demand)
        assert list(flows) == list(inflow)
        for lid in inflow:
            assert np.array_equal(flows[lid], inflow[lid]), lid
            assert np.array_equal(load.link_tt[lid], tt[lid]), lid
        assert load.spillover == spill
        # parcels enter the channel in the last interval, keyed past int32
        assert inflow["d"][-1] > 0.0 and load.spilled() > 0.0
        assert np.array_equal(detector_counts(net, demand).counts, load.counts.counts)


class TestIntervalIndex:
    """``_interval_index`` against the float ``np.floor_divide`` it replaces,
    clipped as the kernel and the probes clip it."""

    GRIDS = [(0, 15, 96), (0, 3, 480), (360, 5, 288), (17, 7, 40), (0, 1, 1440)]

    @staticmethod
    def assert_same(offset, interval_minutes, last):
        offset = np.asarray(offset, dtype=float)
        expected = np.floor_divide(offset, interval_minutes).clip(0, last).astype(np.int32)
        assert np.array_equal(_interval_index(offset, interval_minutes, last), expected)

    def test_edges_and_their_neighbours(self):
        for start, step, n_h in self.GRIDS:
            edges = start + step * np.arange(n_h + 1.0)  # as the kernel builds them
            near = [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
            for _ in range(3):
                near += [np.nextafter(near[-2], -np.inf), np.nextafter(near[-1], np.inf)]
            for t in near:
                # the kernel's cut, and the parent's: the window start capped at the end
                self.assert_same(t - start, step, n_h)
                self.assert_same(np.minimum(t, start + step * n_h) - start, step, n_h)

    def test_shifted_windows(self):
        """Window ends shifted by link times, as the kernel cuts them."""
        rng = np.random.default_rng(11)
        for start, step, n_h in self.GRIDS:
            edges = start + step * np.arange(n_h + 1.0)
            k = rng.integers(0, n_h, 20000)
            lo = edges[k] + rng.uniform(0.0, 1.0, k.size) * step
            for shift in (rng.uniform(0.0, 3.0 * step, k.size), rng.exponential(step, k.size),
                          np.round(rng.uniform(0.0, 5.0, k.size)) * step):
                capped = np.minimum(lo + shift, start + step * n_h) - start
                self.assert_same(lo + shift - start, step, n_h)
                assert np.array_equal(_interval_index(lo + shift - start, step, n_h),
                                      _interval_index(capped, step, n_h))

    def test_probe_offsets_before_and_far_past_the_grid(self):
        offsets = np.concatenate([-np.logspace(-12, 4, 200), np.logspace(-12, 300, 400), [0.0]])
        for step in (1, 3, 7, 15, 60):
            self.assert_same(offsets, step, 95)

    def test_below_far_edges(self):
        """Just below an edge ``n * interval_minutes`` the quotient never
        rounds up to ``n``, however large ``n``."""
        for step in (1, 3, 7, 15, 60, 119):
            for first in (1, 10**6, 2 * 10**9):
                edge = np.arange(first, first + 5000, dtype=float) * step
                below = np.nextafter(edge, -np.inf)
                self.assert_same(below, step, first + 5000)
                self.assert_same(edge, step, first + 5000)
