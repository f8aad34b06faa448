"""The link-major propagation kernel against the interval-major oracle.

``load_network``, ``detector_counts`` and ``assignment_matrix`` must give
what the one-parcel-at-a-time walk in ``kernel_oracle`` gives, to the bit:
the kernel keeps every link's parcels in the oracle's summation order.  That
holds for both of ``assignment_matrix``'s passes, at given times and the one
that loads the demand and linearizes at its BPR times together, and for the
count-only load.  The last two move parcels only as far as a count depends on
them, while the oracle's load walks every route to its end.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from kernel_oracle import oracle_load, oracle_pieces
from odchain.assignment import (
    DynamicDemand, _cut_routes, assignment_matrix, detector_counts, load_network,
)
from odchain.network import (
    Link, Network, Path, TimeGrid, Zone, build_toy_network,
)


def assert_same_as_oracle(net, demand, frozen=None):
    load = load_network(net, demand, frozen_link_tt=frozen)
    inflow, tt, spill = oracle_load(net, demand, frozen)
    assert list(load.link_inflow) == list(inflow)
    for lid in inflow:
        assert np.array_equal(load.link_inflow[lid], inflow[lid]), lid
        assert np.array_equal(load.link_tt[lid], tt[lid]), lid
    assert load.spillover == spill
    channels = load.counts.channels
    n_h = demand.grid.n_intervals
    assert np.array_equal(load.counts.counts, channel_rows(inflow, channels, n_h))
    pieces = oracle_pieces(net, demand.grid, load.link_tt, channels, demand.od_index)
    frozen_pieces = assignment_matrix(net, demand, frozen_link_tt=load.link_tt).pieces
    assert np.array_equal(frozen_pieces, pieces)
    # one pass that loads demand with BPR times and linearizes at them
    bpr = load if frozen is None else load_network(net, demand)
    pieces = oracle_pieces(net, demand.grid, bpr.link_tt, channels, demand.od_index)
    assert np.array_equal(assignment_matrix(net, demand).pieces, pieces)
    # the count-only load: the oracle's channel inflows at BPR times
    bpr_inflow = inflow if frozen is None else oracle_load(net, demand)[0]
    counts = detector_counts(net, demand)
    assert counts.channels == channels
    assert np.array_equal(counts.counts, channel_rows(bpr_inflow, channels, n_h))
    return load


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
    n_links = draw(st.integers(2, 6))
    links = [
        _link(f"L{j}", draw(st.floats(0.5, 40.0)), draw(st.floats(30.0, 3000.0)),
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
    step = draw(st.integers(3, 15))
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
        load = assert_same_as_oracle(TOY, toy_demand(grid, lambda m: m.fill(800.0)))
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
        load = assert_same_as_oracle(net, demand)
        assert load.link_inflow["d"][0] == 100.0

    def test_od_with_all_zero_demand(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=8)

        def fill(m):
            m[:, 2:5] = 300.0
            m[TOY.od_index.index(("1", "3"))] = 0.0

        demand = toy_demand(grid, fill)
        load = assert_same_as_oracle(TOY, demand)
        pieces = assignment_matrix(TOY, demand, frozen_link_tt=load.link_tt).pieces
        # zero demand is still linearized
        assert pieces[:, :, :, TOY.od_index.index(("1", "3"))].sum() > 0.0

    def test_channel_link_no_route_crosses(self):
        net = _network([_link("a"), _link("b"), _link("x")], [["a", "b"], ["b"]], ["b", "x"])
        grid = TimeGrid(start=0, interval_minutes=10, n_intervals=5)
        demand = DynamicDemand(od_index=net.od_index, grid=grid, matrix=np.full((2, 5), 120.0))
        load = assert_same_as_oracle(net, demand)
        assert not load.link_inflow["x"].any()
        assert np.array_equal(load.link_tt["x"], np.full(5, 5.0))

    def test_no_demand_at_all(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=4)
        load = assert_same_as_oracle(TOY, toy_demand(grid, lambda m: None))
        assert load.spilled() == 0.0


def congested(lid):
    return _link(lid, free_flow_time=4.0, capacity=2400.0, alpha=0.5, beta=2.0)


class TestCutRoutes:
    """Count-only passes cut each route after the last link a count depends on."""

    GRID = TimeGrid(start=0, interval_minutes=5, n_intervals=8)

    def demand(self, net, matrix):
        return DynamicDemand(od_index=net.od_index, grid=self.GRID, matrix=np.asarray(matrix))

    def assert_load_moves_counts(self, net, matrix, od):
        """Dropping OD ``od``'s demand changes the counts, so its route must stay."""
        without = np.array(matrix, dtype=float)
        without[od] = 0.0
        counts = detector_counts(net, self.demand(net, matrix)).counts
        assert counts.any()
        assert not np.array_equal(counts, detector_counts(net, self.demand(net, without)).counts)

    def test_toy_keeps_the_links_before_its_channels(self):
        routes, order = _cut_routes(TOY, TOY.od_index, frozen=False)
        cut = dict(zip(TOY.od_index, routes))
        assert sorted(order) == ["1a", "2a", "3b", "4a", "4b", "5b"]
        assert cut[("1", "3")] == ("1a", "4a")
        assert cut[("3", "5")] == ("3b",)  # 3b feeds channel 4b on 3->1
        assert cut[("5", "1")] == cut[("5", "2")] == ()
        frozen_routes, _ = _cut_routes(TOY, TOY.od_index, frozen=True)
        assert frozen_routes[TOY.od_index.index(("3", "5"))] == ()

    def test_link_shared_by_a_channel_route_and_a_channel_free_route(self):
        net = _network([congested("a"), _link("b"), _link("c")], [["a", "b"], ["a", "c"]], ["b"])
        matrix = [[0, 200.0, 120.0, 0, 80.0, 0, 0, 0], [150.0, 300.0, 0, 90.0, 0, 0, 0, 0]]
        assert_same_as_oracle(net, self.demand(net, matrix))
        assert _cut_routes(net, net.od_index, frozen=False)[0] == [("a", "b"), ("a",)]
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
        routes, _ = _cut_routes(net, net.od_index, frozen=False)
        assert routes == [("q", "p"), ("p", "x"), ("x", "d")]
        self.assert_load_moves_counts(net, matrix, 0)

    def test_route_with_no_channel_and_no_link_that_matters(self):
        matrix = np.full((2, 8), 100.0)
        # route (c) crosses no channel and c feeds none: it departs nothing
        net = _network([_link("a"), _link("b"), _link("c")], [["a", "b"], ["c"]], ["b"])
        assert_same_as_oracle(net, self.demand(net, matrix))
        assert _cut_routes(net, net.od_index, frozen=False) == ([("a", "b"), ()], ["a", "b"])
        # nothing after channel a matters: a -> b stops at a
        net = _network([_link("a"), _link("b"), _link("c")], [["a", "b"], ["c", "a"]], ["a"])
        assert_same_as_oracle(net, self.demand(net, matrix))
        assert _cut_routes(net, net.od_index, frozen=False)[0] == [("a",), ("c", "a")]

    def test_network_without_detectors(self):
        net = _network([_link("a"), _link("b")], [["a", "b"], ["b"]], [])
        demand = self.demand(net, np.full((2, 8), 100.0))
        assert_same_as_oracle(net, demand)
        assert _cut_routes(net, net.od_index, frozen=False) == ([(), ()], [])
        assert detector_counts(net, demand).counts.shape == (0, 8)
        assert assignment_matrix(net, demand).band.shape == (8, 1, 0, 2)
