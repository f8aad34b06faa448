import dataclasses
import importlib
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from banding import dense_band, from_dense, linearize, route_crossings
from odchain import assignment as assignment_mod
from odchain.assignment import (
    AssignmentMatrix,
    CumulativeMapping,
    DynamicDemand,
    LinkFlowSeries,
    assignment_matrix,
    cumulative_mapping,
    detector_counts,
    load_network,
    load_call_count,
    probe_travel_times,
)
from odchain.errors import ConfigurationError
from odchain.experiment import generate_truth_and_history
from odchain.network import (
    Link, Network, Path, TimeGrid, Zone, build_toy_network)
from odchain.scenario import scenario_from_mapping
from recorded_inflows import load_with_inflows

TOY = build_toy_network()


def toy_demand(grid, cells):
    """Demand over the toy OD index with the given {(od, h): mass} cells."""
    m = np.zeros((len(TOY.od_index), grid.n_intervals))
    pos = {od: i for i, od in enumerate(TOY.od_index)}
    for (od, h), mass in cells.items():
        m[pos[od], h] = mass
    return DynamicDemand(od_index=TOY.od_index, grid=grid, matrix=m)


def linearize_at_toy_times(net, demand):
    """``assignment_matrix`` on ``net`` at the times of loading ``demand`` on
    the plain toy, so that the linearization's own checks of ``net`` run."""
    return assignment_matrix(net, demand.od_index, load_network(TOY, demand))


def index_at(grid, minute):
    """Interval of ``grid`` containing ``minute``: -1 before the grid, its
    interval count beyond it."""
    if minute < grid.start:
        return -1
    if minute >= grid.end:
        return grid.n_intervals
    return int((minute - grid.start) // grid.interval_minutes)


def frozen_tts(grid, overrides=None):
    tts = {lid: np.full(grid.n_intervals, 7.5) for lid in TOY.links}
    for lid, v in (overrides or {}).items():
        tts[lid] = np.full(grid.n_intervals, float(v))
    return tts


class TestContainers:
    def test_demand_shape_checked(self):
        grid = TimeGrid(n_intervals=4)
        with pytest.raises(ConfigurationError):
            DynamicDemand(od_index=TOY.od_index, grid=grid, matrix=np.zeros((2, 4)))

    def test_demand_rejects_negative(self):
        grid = TimeGrid(n_intervals=4)
        m = np.zeros((len(TOY.od_index), 4))
        m[0, 0] = -1.0
        with pytest.raises(ValueError):
            DynamicDemand(od_index=TOY.od_index, grid=grid, matrix=m)

    def test_demand_views_the_callers_matrix(self):
        """The demand holds a read-only view, not a copy, and leaves the
        caller's array writable."""
        m = np.zeros((len(TOY.od_index), 4))
        demand = DynamicDemand(od_index=TOY.od_index, grid=TimeGrid(n_intervals=4), matrix=m)
        m[0, 0] = 1.0
        assert demand.matrix[0, 0] == 1.0 and np.shares_memory(demand.matrix, m)
        assert not demand.matrix.flags.writeable

    def test_counts_view_the_callers_array(self):
        y = np.zeros((1, 4))
        series = LinkFlowSeries(channels=("4a",), grid=TimeGrid(n_intervals=4), counts=y)
        y[0, 0] = 1.0
        assert series.counts[0, 0] == 1.0 and np.shares_memory(series.counts, y)
        assert not series.counts.flags.writeable

    def test_assignment_views_the_callers_band_and_pairs(self):
        band, pairs = np.zeros((2, 1, 1)), np.zeros((2, 1), dtype=np.intp)
        asg = AssignmentMatrix(od_index=(("1", "3"),), channels=("4a",),
                               grid=TimeGrid(n_intervals=2), band=band, pairs=pairs)
        band[0, 0, 0] = 0.5
        assert asg.band[0, 0, 0] == 0.5 and np.shares_memory(asg.band, band)
        assert np.shares_memory(asg.pairs, pairs) and pairs.flags.writeable
        assert not (asg.band.flags.writeable or asg.pairs.flags.writeable)

    def test_mapping_views_the_callers_matrices(self):
        given = {"leg": np.zeros((1, 1))}
        mapping = CumulativeMapping(horizon=0, od_index=(("1", "3"),), channels=("4a",),
                                    matrices=given)
        given["leg"][0, 0] = 2.0
        assert mapping.matrix("leg")[0, 0] == 2.0
        assert np.shares_memory(mapping.matrix("leg"), given["leg"])
        assert not mapping.matrix("leg").flags.writeable

    def test_cumulative_is_nondecreasing(self):
        grid = TimeGrid(n_intervals=4)
        series = LinkFlowSeries(channels=("4a",), grid=grid,
                                counts=np.array([[1.0, 0.0, 2.0, 0.5]]))
        cumulative = series.cumulative()
        assert (np.diff(cumulative, axis=1) >= 0.0).all()
        assert cumulative[0, -1] == pytest.approx(3.5)

    @pytest.mark.parametrize("call", [load_network, detector_counts, linearize_at_toy_times],
                             ids=["load_network", "detector_counts", "assignment_matrix"])
    def test_unknown_detector_channel_rejected(self, call):
        """A channel that is no link fails every pass the same way, not as a
        bare ``KeyError`` or as a channel that silently counts nothing."""
        net = dataclasses.replace(build_toy_network(), detectors=("4a", "9z"))
        grid = TimeGrid(n_intervals=4)
        with pytest.raises(ConfigurationError, match="unknown detector channel '9z'"):
            call(net, toy_demand(grid, {(("1", "3"), 0): 100.0}))

    @pytest.mark.parametrize("call", [load_network, detector_counts, linearize_at_toy_times],
                             ids=["load_network", "detector_counts", "assignment_matrix"])
    def test_duplicated_detector_channel_rejected(self, call):
        """A channel listed twice fails every pass, not only the passes that
        would fill one of its rows and leave the other empty."""
        net = dataclasses.replace(build_toy_network(), detectors=("4a", "4b", "4a"))
        grid = TimeGrid(n_intervals=4)
        with pytest.raises(ConfigurationError, match="detector channel '4a' is listed twice"):
            call(net, toy_demand(grid, {(("1", "3"), 0): 100.0}))


class TestLoader:
    def test_interval_and_a_half_crossing_splits_evenly(self):
        """A parcel shifted by 1.5 intervals straddles two intervals 50/50."""
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=6)
        demand = toy_demand(grid, {(("1", "3"), 0): 100.0})
        _, inflow = load_with_inflows(TOY, demand, frozen_tts(grid, {"1a": 22.5}))
        assert inflow["4a"][1] == pytest.approx(50.0, abs=1e-12)
        assert inflow["4a"][2] == pytest.approx(50.0, abs=1e-12)
        # downstream the two halves merge back into one interval
        assert inflow["3a"][2] == pytest.approx(100.0, abs=1e-12)

    def test_whole_interval_times_shift_parcels_exactly(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=6)
        demand = toy_demand(grid, {(("1", "3"), 0): 100.0})
        _, inflow = load_with_inflows(TOY, demand, frozen_tts(grid, {"1a": 15.0, "4a": 15.0}))
        assert inflow["1a"][0] == 100.0
        assert inflow["4a"][1] == 100.0
        assert inflow["3a"][2] == 100.0

    def test_beyond_horizon_mass_is_spilled(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=4)
        demand = toy_demand(grid, {(("1", "3"), 3): 100.0})
        load, inflow = load_with_inflows(TOY, demand, frozen_tts(grid, {"1a": 22.5}))
        assert load.spilled() == pytest.approx(100.0, abs=1e-12)
        assert load.spillover["4a"] == pytest.approx(100.0, abs=1e-12)
        assert inflow["4a"].sum() == 0.0

    def test_conservation_when_everything_arrives(self):
        """Without spillover every used link sees exactly the demand routed
        over it."""
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=16)
        demand = toy_demand(grid, {
            (("1", "3"), 2): 300.0, (("1", "3"), 3): 500.0, (("1", "3"), 4): 200.0,
            (("2", "4"), 3): 400.0, (("2", "4"), 4): 300.0,
            (("1", "4"), 2): 200.0, (("1", "4"), 3): 300.0,
            (("3", "5"), 5): 250.0, (("3", "5"), 6): 150.0,
        })
        load, inflow = load_with_inflows(TOY, demand)
        assert load.spilled() == 0.0
        pos = {od: i for i, od in enumerate(TOY.od_index)}
        for lid, series in inflow.items():
            expected = sum(
                demand.matrix[pos[od]].sum()
                for od in TOY.od_index if lid in TOY.paths[od].links
            )
            assert abs(series.sum() - expected) <= 1e-9 * max(expected, 1.0)

    def test_matches_brute_force_vehicles(self):
        """Walk individually sampled vehicles through the loader's own link
        times; the parcel splits must agree up to the sampling resolution."""
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=12)
        demand = toy_demand(grid, {
            (("1", "3"), 2): 300.0, (("1", "3"), 3): 1200.0, (("1", "3"), 4): 900.0,
            (("2", "4"), 3): 800.0, (("2", "4"), 4): 1100.0,
            (("1", "4"), 2): 200.0, (("1", "4"), 3): 700.0,
            (("3", "5"), 5): 400.0, (("3", "5"), 6): 500.0,
        })
        load, loaded = load_with_inflows(TOY, demand)
        k = 2000
        inflow = {lid: np.zeros(grid.n_intervals) for lid in loaded}
        pos = {od: i for i, od in enumerate(TOY.od_index)}
        for od in TOY.od_index:
            seq = TOY.paths[od].links
            for h in range(grid.n_intervals):
                mass = demand.matrix[pos[od], h]
                if mass == 0.0:
                    continue
                a, b = grid.bounds(h)
                unit = mass / k
                for j in range(k):
                    t = a + (j + 0.5) * (b - a) / k
                    for lid in seq:
                        hi = index_at(grid, t)
                        if hi >= grid.n_intervals:
                            break
                        inflow[lid][hi] += unit
                        t += load.link_tt[lid][hi]
        for lid in loaded:
            assert np.abs(inflow[lid] - loaded[lid]).max() <= 0.5

    def test_probe_times_match_scalar_walk(self):
        """Probes walk link by link, reading each link's time in the interval
        they enter it, clamped to the grid."""
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=8)
        tts = {lid: 3.0 + np.arange(grid.n_intervals) % 5 * 4.1 for lid in TOY.links}
        tts["4a"] = np.full(grid.n_intervals, 52.5)  # late probes leave the grid
        load = load_network(TOY, toy_demand(grid, {(("1", "3"), 2): 100.0}),
                            frozen_link_tt=tts)
        tt_od = probe_travel_times(TOY, TOY.od_index, load)
        for oi, od in enumerate(TOY.od_index):
            for h in range(grid.n_intervals):
                t = t0 = grid.midpoint(h)
                for lid in TOY.paths[od].links:
                    t += float(tts[lid][min(max(index_at(grid, t), 0), grid.n_intervals - 1)])
                assert tt_od[oi, h] == t - t0

    def test_congestion_raises_travel_times(self):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=8)
        light = load_network(TOY, toy_demand(grid, {(("1", "3"), 1): 10.0}))
        heavy = load_network(TOY, toy_demand(grid, {(("1", "3"), 1): 3000.0}))
        assert heavy.link_tt["1a"][1] > light.link_tt["1a"][1]
        oi = TOY.od_index.index(("1", "3"))
        assert probe_travel_times(TOY, TOY.od_index, heavy)[oi, 1] > \
            probe_travel_times(TOY, TOY.od_index, light)[oi, 1]

    def test_missing_path_rejected(self):
        grid = TimeGrid(n_intervals=2)
        demand = DynamicDemand(od_index=(("1", "99"),), grid=grid, matrix=np.zeros((1, 2)))
        with pytest.raises(ConfigurationError):
            load_network(TOY, demand)

    def test_cyclic_same_interval_feeding_rejected(self):
        zones = {"a": Zone(id="a"), "b": Zone(id="b", kind="work")}
        links = {
            "f": Link(id="f", label="f", from_node="a", to_node="b",
                      free_flow_time=1.0, capacity=100.0),
            "g": Link(id="g", label="g", from_node="b", to_node="a",
                      free_flow_time=1.0, capacity=100.0),
        }
        paths = {("a", "b"): Path(od=("a", "b"), links=("f", "g", "f"))}
        net = Network(zones=zones, links=links, paths=paths, detectors=("f",))
        grid = TimeGrid(n_intervals=2)
        demand = DynamicDemand(od_index=(("a", "b"),), grid=grid,
                               matrix=np.array([[1.0, 0.0]]))
        with pytest.raises(ConfigurationError):
            load_network(net, demand)

    def test_a_whole_route_load_frees_what_it_no_longer_reads(self, toy_cfg):
        """One ``load_network`` of the 3-minute toy's history peaks at most
        2 % above the 520,159 bytes over its entry measured on Python 3.11
        once each link visit freed every array after its last reader; an
        array kept one link too long, such as a stale loop variable, adds
        more than that."""
        cfg = dataclasses.replace(toy_cfg, grid=dataclasses.replace(
            toy_cfg.grid, interval_minutes=3, n_intervals=480))
        demand = generate_truth_and_history(cfg).history.demand
        load_network(cfg.network, demand)  # the route plan is built once per network
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            load_network(cfg.network, demand)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 520_159 * 1.02

    def test_call_counter_increments(self):
        grid = TimeGrid(n_intervals=2)
        before = load_call_count()
        load_network(TOY, toy_demand(grid, {}))
        assert load_call_count() == before + 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=4, max_size=4),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_frozen_times_make_loading_linear(self, xs, ys, a, b):
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=4)
        tts = frozen_tts(grid, {"1a": 10.0, "4a": 17.0})
        def counts(values):
            demand = toy_demand(grid, {(("1", "3"), h): v for h, v in enumerate(values)})
            return load_network(TOY, demand, frozen_link_tt=tts).counts.counts
        lhs = counts([a * x + b * y for x, y in zip(xs, ys)])
        rhs = a * counts(xs) + b * counts(ys)
        assert np.abs(lhs - rhs).max() <= 1e-9


class TestAssignmentMatrix:
    def test_fraction_bounds_checked(self):
        grid = TimeGrid(n_intervals=2)
        pieces = np.zeros((2, 2, 1, 1))
        pieces[0, 0, 0, 0] = -0.1
        with pytest.raises(ValueError):
            from_dense((("1", "3"),), ("4a",), grid, pieces)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_fractions_rejected(self, value):
        """A NaN fails every comparison, so the range check is written to
        fail on it too."""
        band = np.full((2, 1, 1), value)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            AssignmentMatrix(od_index=(("1", "3"),), channels=("4a",),
                             grid=TimeGrid(n_intervals=2), band=band, pairs=np.zeros((2, 1)))

    def test_departure_mass_cannot_exceed_one(self):
        grid = TimeGrid(n_intervals=2)
        pieces = np.zeros((2, 2, 1, 1))
        pieces[0, 0, 0, 0] = 0.7
        pieces[0, 1, 0, 0] = 0.6
        with pytest.raises(ValueError):
            from_dense((("1", "3"),), ("4a",), grid, pieces)

    def test_band_shape_checked(self):
        grid = TimeGrid(n_intervals=2)
        for shape in [(2, 1, 2), (2, 0, 1), (2, 3, 1), (2, 2), (2, 1, 1, 1)]:
            with pytest.raises(ConfigurationError, match="assignment band"):
                AssignmentMatrix(od_index=(("1", "3"),), channels=("4a",), grid=grid,
                                 band=np.zeros(shape), pairs=[[0], [0]])

    @pytest.mark.parametrize("pairs", [
        [[0, 0, 1]], [[0, 1], [0, 0], [0, 0]],  # not (2, P)
        [[0, 2], [0, 0]], [[0, 0], [0, 3]], [[0, -1], [0, 0]],  # outside (2, 3)
        [[0, 0], [1, 1]], [[1, 0], [0, 0]], [[0, 0], [2, 1]],  # repeated or out of order
    ])
    def test_pairs_checked(self, pairs):
        od_index = (("1", "3"), ("1", "4"), ("2", "4"))
        with pytest.raises(ConfigurationError, match="assignment pairs"):
            AssignmentMatrix(od_index=od_index, channels=("4a", "4b"),
                             grid=TimeGrid(n_intervals=2),
                             band=np.zeros((2, 1, np.shape(pairs)[-1])), pairs=pairs)

    def test_predict_counts_shape_checked(self, toy_artifacts):
        asg = toy_artifacts.assignment
        n_od, n_h = len(asg.od_index), asg.grid.n_intervals
        for shape in [(n_od, n_h + 5), (n_od, n_h - 1), (n_od + 1, n_h), (n_od * n_h,)]:
            with pytest.raises(ConfigurationError, match=rf"\({n_od}, {n_h}\)"):
                asg.predict_counts(np.ones(shape))

    def test_prediction_matches_frozen_load(self, toy_artifacts):
        hist = toy_artifacts.history
        predicted = toy_artifacts.assignment.predict_counts(hist.demand.matrix)
        refrozen = load_network(
            toy_artifacts.config.network, hist.demand, frozen_link_tt=hist.load.link_tt
        )
        assert np.abs(predicted - refrozen.counts.counts).max() <= 1e-9

    def test_cells_without_demand_are_linearized(self):
        """Pieces depend on the link times only: a cell without demand gets
        the pieces it would get with demand, and they match a unit load at
        the same times.  With ``bpr_alpha`` 0 every link keeps its free-flow
        time, whatever the demand."""
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=8)
        fixed = {"1a": 22.5, "4a": 10.0}
        net = dataclasses.replace(TOY, links={
            lid: dataclasses.replace(link, bpr_alpha=0.0, free_flow_time=fixed.get(lid, 7.5))
            for lid, link in TOY.links.items()})
        a = linearize(net, toy_demand(grid, {(("1", "3"), 2): 100.0})).pieces
        b = linearize(net, toy_demand(grid, {(("2", "4"), 5): 40.0})).pieces
        oi = TOY.od_index.index(("1", "3"))
        assert b[2, :, :, oi].sum() > 0.0
        assert np.array_equal(a, b)
        unit = toy_demand(grid, {(("1", "3"), 2): 1.0})
        tts = frozen_tts(grid, fixed)
        assert np.array_equal(b[2, :, :, oi].T,
                              load_network(TOY, unit, frozen_link_tt=tts).counts.counts)
        # at congested times too: the unit load at the times of loading the demand
        demand = toy_demand(grid, {(("1", "3"), 1): 3000.0, (("2", "4"), 2): 2000.0})
        c = linearize(TOY, demand).pieces
        tts = load_network(TOY, demand).link_tt
        assert tts["1a"][1] > TOY.links["1a"].free_flow_time
        assert np.array_equal(c[2, :, :, oi].T,
                              load_network(TOY, unit, frozen_link_tt=tts).counts.counts)

    @pytest.mark.parametrize("n", [2, 40, 49, 96])
    def test_prefix_of_the_day_is_exact(self, toy_artifacts, n):
        """Loading and linearizing the first n intervals alone reproduces the
        full day's times, inflows and pieces on them, bit for bit; the full
        day (n = 96) is the generated linearization itself."""
        net = toy_artifacts.config.network
        full = toy_artifacts.history.load
        demand = toy_artifacts.history.demand
        grid = dataclasses.replace(demand.grid, n_intervals=n)
        head = DynamicDemand(od_index=demand.od_index, grid=grid, matrix=demand.matrix[:, :n])
        prefix, prefix_inflow = load_with_inflows(net, head)
        # the generated load keeps no inflows: load its demand again
        again, full_inflow = load_with_inflows(net, demand)
        assert list(prefix_inflow) == list(full_inflow) == list(full.link_tt)
        for lid in full.link_tt:
            assert np.array_equal(again.link_tt[lid], full.link_tt[lid])
            assert np.array_equal(prefix.link_tt[lid], full.link_tt[lid][:n])
            assert np.array_equal(prefix_inflow[lid], full_inflow[lid][:n])
        pieces = assignment_matrix(net, head.od_index, prefix).pieces
        assert np.array_equal(pieces, toy_artifacts.assignment.pieces[:n, :n])

    def test_congested_morning_produces_lagged_pieces(self, toy_artifacts):
        pieces = toy_artifacts.assignment.pieces
        off_diagonal = sum(
            pieces[k, h].sum()
            for k in range(pieces.shape[0])
            for h in range(k + 1, pieces.shape[1])
        )
        assert off_diagonal > 0.1


def add_at_band(net, demand):
    """The band of ``linearize(net, demand)`` as each channel visit's
    crossings, all added with one ``np.add.at`` in visit order: the same
    additions from 0.0 that the per-channel sums make."""
    grid = demand.grid
    n_h = grid.n_intervals
    chan_pos = {ch: c for c, ch in enumerate(net.detectors)}
    link_tt = load_network(net, demand).link_tt
    crossings = [(*[np.empty(0, np.intp)] * 4, np.empty(0))]

    def link_time(lid, inflow, h, cell, mass):
        if lid in chan_pos:
            oi, k = np.divmod(cell, n_h)
            crossings.append((k, h - k, np.full(k.size, chan_pos[lid]), oi, mass))
        return link_tt[lid]

    plan = assignment_mod._route_plan(net, demand.od_index, cut=True)
    assignment_mod._propagate(grid, plan, np.ones(demand.matrix.shape), link_time)
    k, lag, c, oi, mass = (np.concatenate(col) for col in zip(*crossings))
    band = np.zeros((n_h, int(lag.max(initial=0)) + 1, len(net.detectors),
                     len(demand.od_index)))
    np.add.at(band, (k, lag, c, oi), mass)
    return band


class TestBandSums:
    """Each channel's crossings are summed on their own, in the order they
    come, over the ODs that cross it: the band is the ``np.add.at`` of every
    crossing, to the bit, and that dense band is zero off its pairs."""

    CONGESTED = {(("1", "3"), 1): 3000.0, (("1", "4"), 1): 1500.0,
                 (("2", "4"), 2): 2000.0, (("3", "5"), 3): 900.0}

    @staticmethod
    def assert_add_at(asg, net, demand):
        dense = add_at_band(net, demand)
        assert dense_band(asg).tobytes() == dense.tobytes()
        assert asg.band.tobytes() == dense[:, :, asg.pairs[0], asg.pairs[1]].tobytes()

    def test_a_channel_no_route_crosses(self):
        net = dataclasses.replace(TOY, detectors=("4a", "6a", "4b"))
        demand = toy_demand(TimeGrid(n_intervals=12), self.CONGESTED)
        asg = linearize(net, demand)
        self.assert_add_at(asg, net, demand)
        assert set(asg.pairs[0].tolist()) == {0, 2} and asg.band.any()

    def test_one_interval_grid(self):
        demand = toy_demand(TimeGrid(n_intervals=1), {(od, 0): mass for (od, _), mass
                                                       in self.CONGESTED.items()})
        asg = linearize(TOY, demand)
        assert asg.band.shape == (1, 1, route_crossings(TOY, TOY.od_index))
        assert asg.band.any()
        self.assert_add_at(asg, TOY, demand)

    def test_toy_at_three_minutes(self, toy_cfg):
        grid = dataclasses.replace(toy_cfg.grid, interval_minutes=3, n_intervals=480)
        art = generate_truth_and_history(dataclasses.replace(toy_cfg, grid=grid))
        assert art.assignment.band.shape[1] == 5
        self.assert_add_at(art.assignment, toy_cfg.network, art.history.demand)


class RowsRead(np.ndarray):
    """A view of an array that adds to ``log`` the rows each index reads,
    and every row when a ufunc reads the whole array."""

    def __new__(cls, a, log):
        view = np.asarray(a).view(cls)
        view.log = log
        return view

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __getitem__(self, index):
        rows = index[0] if isinstance(index, tuple) else index
        self.log.update(np.arange(self.shape[0])[rows].ravel().tolist())
        return np.asarray(super().__getitem__(index))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.log.update(range(self.shape[0]))
        inputs = [np.asarray(x) if isinstance(x, RowsRead) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestHandOver:
    """A pass builds a first link's departures when that link's turn comes,
    from the demand rows of the routes that start there, and hands them over
    to that link's batch.  By its first callback it has read no row of a
    route that starts at another link, and has computed nothing over the
    whole demand, so no other first link's departures exist."""

    @pytest.mark.parametrize("call", [
        lambda demand, _: load_network(TOY, demand),
        lambda demand, _: detector_counts(TOY, demand),
        lambda demand, load: assignment_matrix(TOY, demand.od_index, load),
    ], ids=["load", "counts", "linearization"])
    def test_departures_are_dead_by_the_first_callback(self, monkeypatch, call):
        real = assignment_mod._propagate
        read, at_first_callback, plans = set(), [], []

        def propagate(grid, plan, matrix, link_time):
            def watched(*args):
                if not at_first_callback:
                    at_first_callback.append(set(read))
                return link_time(*args)

            plans.append(plan)
            return real(grid, plan, RowsRead(matrix, read), watched)

        demand = toy_demand(TimeGrid(n_intervals=12), TestBandSums.CONGESTED)
        load = load_network(TOY, demand)  # the linearization's times, loaded beforehand
        monkeypatch.setattr(assignment_mod, "_propagate", propagate)
        call(demand, load)
        (plan,) = plans
        first_link = set(np.flatnonzero(plan.first == 0).tolist())  # order[0] is visited first
        assert at_first_callback[0] <= first_link
        # routes that start at other links departed, later in the pass
        assert read - first_link


class TestBandWidth:
    """The band holds lags 0..L, L the longest lag of any crossing in the data."""

    @staticmethod
    def _lags(asg):
        width = asg.band.shape[1]
        assert asg.band[:, width - 1].any()  # the last lag is taken
        return width - 1

    @pytest.mark.parametrize("minutes, lags", [(15, 1), (5, 3), (3, 4)])
    def test_toy(self, toy_cfg, minutes, lags):
        grid = dataclasses.replace(toy_cfg.grid, interval_minutes=minutes,
                                   n_intervals=24 * 60 // minutes)
        asg = generate_truth_and_history(dataclasses.replace(toy_cfg, grid=grid)).assignment
        assert self._lags(asg) == lags
        n_pairs = route_crossings(toy_cfg.network, asg.od_index)
        assert asg.band.shape == (grid.n_intervals, lags + 1, n_pairs)
        assert asg.band.nbytes == grid.n_intervals * (lags + 1) * n_pairs * 8

    def test_benchmark_corridor(self, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "odbench"))
        workloads = importlib.import_module("workloads")
        cfg = scenario_from_mapping(workloads.corridor_mapping(6))
        asg = generate_truth_and_history(cfg).assignment
        assert self._lags(asg) == 2


class TestPairs:
    """The band holds the (channel, OD) pairs whose route crosses the
    channel, ordered by channel and then OD, and nothing else."""

    @staticmethod
    def _assert_crossed_pairs(net, asg):
        crossed = [(c, i) for c, ch in enumerate(net.detectors)
                   for i, od in enumerate(asg.od_index) if ch in net.path_of(od).links]
        assert list(zip(*asg.pairs.tolist())) == crossed
        n_h, width = asg.band.shape[:2]
        assert asg.band.nbytes == n_h * width * len(crossed) * 8

    def test_toy(self, toy_artifacts):
        self._assert_crossed_pairs(toy_artifacts.config.network, toy_artifacts.assignment)

    def test_small_corridor(self, monkeypatch):
        """On an N-pair corridor trunk link k is crossed by (k + 1)(N - k)
        ODs each way."""
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "odbench"))
        workloads = importlib.import_module("workloads")
        n = 3
        cfg = scenario_from_mapping(workloads.corridor_mapping(n))
        asg = generate_truth_and_history(cfg).assignment
        self._assert_crossed_pairs(cfg.network, asg)
        assert asg.pairs.shape[1] == 2 * sum((k + 1) * (n - k) for k in range(n)) == 20

    def test_dense_view_is_zero_off_the_pairs(self, toy_artifacts):
        asg = toy_artifacts.assignment
        off = np.ones((len(asg.channels), len(asg.od_index)), dtype=bool)
        off[asg.pairs[0], asg.pairs[1]] = False
        pieces = asg.pieces
        assert off.any() and not pieces[:, :, off].any()
        assert pieces.sum() == pytest.approx(asg.band.sum(), rel=1e-12)

    @pytest.mark.parametrize("h", [0, 1, 50, 95])
    def test_counted_at_reads_the_dense_view(self, toy_artifacts, h):
        """Row h of ``lag_rows``, scattered by ``pair_matrix``, is, bit for
        bit, the dense pieces counted at h, each scaled by random
        non-negative weights of the interval it reads and added from lag 0,
        whether the rows stop after h or run to the grid's end: at the toy's
        band width 2, at width 1 (lag 0 alone, here a non-contiguous slice
        of the band) and at the grid's full width, wider than h + 1 below
        the last interval."""
        asg = toy_artifacts.assignment
        n_h = asg.grid.n_intervals
        rng = np.random.default_rng(h)
        full = rng.uniform(0.0, 1.0 / n_h, (n_h, n_h, asg.pairs.shape[1]))
        weights = rng.uniform(0.0, 100.0, (len(asg.od_index), n_h))
        for band in (asg.band, asg.band[:, :1], full):
            matrix = dataclasses.replace(asg, band=band)
            pieces = matrix.pieces
            expected = pieces[h, h] * weights[:, h]
            for lag in range(1, min(band.shape[1], h + 1)):
                expected += pieces[h - lag, h] * weights[:, h - lag]
            cut, whole = matrix.lag_rows(h + 1, weights), matrix.lag_rows(n_h, weights)
            assert cut.shape == (h + 1, asg.pairs.shape[1])
            assert np.array_equal(matrix.pair_matrix(cut[h]), expected)
            assert np.array_equal(whole[h], cut[h])

    @pytest.mark.parametrize("workload", ["toy-15", "toy-3", "corridor"])
    def test_rows_do_not_depend_on_where_they_stop(self, toy_cfg, workload, monkeypatch):
        """Row h of ``lag_rows(stop, w)`` is row h of ``lag_rows(H, w)``,
        byte for byte, for every stop in 0..H and every h < stop, on the
        generated band weighted by the history: rows read up to a cutoff are
        those that the rows of the whole day begin with."""
        if workload == "corridor":
            monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "odbench"))
            cfg = scenario_from_mapping(importlib.import_module("workloads").corridor_mapping(6))
        elif workload == "toy-3":
            cfg = dataclasses.replace(toy_cfg, grid=dataclasses.replace(
                toy_cfg.grid, interval_minutes=3, n_intervals=480))
        else:
            cfg = toy_cfg
        artifacts = generate_truth_and_history(cfg)
        asg, weights = artifacts.assignment, artifacts.history.demand.matrix
        n_h = asg.grid.n_intervals
        whole = asg.lag_rows(n_h, weights)
        for stop in range(n_h + 1):
            assert asg.lag_rows(stop, weights).tobytes() == whole[:stop].tobytes(), stop

    def test_no_rows_before_the_first_interval(self, toy_artifacts):
        asg = toy_artifacts.assignment
        weights = np.ones((len(asg.od_index), asg.grid.n_intervals))
        assert asg.lag_rows(0, weights).shape == (0, asg.pairs.shape[1])

    @pytest.mark.parametrize("offset", [-1, 0, 5], ids=["-1", "H", "H+5"])
    def test_counted_at_rejects_an_interval_off_the_grid(self, toy_artifacts, offset):
        """Rows that stop below 0, or past the row of the last interval,
        are refused: numpy would read a negative stop from the day's end and
        clip one past the band's last row."""
        asg = toy_artifacts.assignment
        n_h = asg.grid.n_intervals
        stop = -1 if offset < 0 else n_h + 1 + offset
        weights = np.ones((len(asg.od_index), n_h + 6))
        with pytest.raises(IndexError, match=rf"stop {stop} outside 0\.\.{n_h}$"):
            asg.lag_rows(stop, weights)


class TestCumulativeMapping:
    def _identity_assignment(self):
        grid = TimeGrid(n_intervals=2)
        pieces = np.zeros((2, 2, 1, 1))
        pieces[0, 0, 0, 0] = 1.0
        pieces[1, 1, 0, 0] = 1.0
        return from_dense((("1", "3"),), ("4a",), grid, pieces)

    def test_uniform_two_interval_profile(self):
        """Identity crossings with a half/half profile: covering h of the two
        intervals maps a leg deviation to deviation * h / 2 cumulative counts."""
        asg = self._identity_assignment()
        profile = {"leg": np.array([[0.5, 0.5]])}
        one = cumulative_mapping(asg, profile, horizon=0)
        two = cumulative_mapping(asg, profile, horizon=1)
        assert one.matrix("leg") @ np.array([10.0]) == pytest.approx(5.0)
        assert two.matrix("leg") @ np.array([10.0]) == pytest.approx(10.0)

    def test_horizon_outside_grid(self):
        asg = self._identity_assignment()
        with pytest.raises(ConfigurationError):
            cumulative_mapping(asg, {"leg": np.array([[0.5, 0.5]])}, horizon=2)

    def test_profile_shape_checked(self):
        asg = self._identity_assignment()
        with pytest.raises(ConfigurationError):
            cumulative_mapping(asg, {"leg": np.array([[0.5, 0.5, 0.0]])}, horizon=1)

    def test_unknown_leg(self):
        asg = self._identity_assignment()
        mapping = cumulative_mapping(asg, {"leg": np.array([[0.5, 0.5]])}, horizon=1)
        with pytest.raises(ConfigurationError):
            mapping.matrix("nope")

    @staticmethod
    def _per_interval(band, profiles, horizon):
        """The mapping interval by interval: each departure interval's lags
        summed up to the horizon, times that interval's shares."""
        out = {}
        for leg, prof in profiles.items():
            pieces = np.zeros((horizon + 1, *band.shape[2:]))
            for k in range(horizon + 1):
                pieces[k] = band[k, : horizon + 1 - k].sum(axis=0) * prof[:, k][None, :]
            out[leg] = pieces
        return out

    @staticmethod
    def _random_assignment(rng, n_h, lags, channels, n_od, pairs, zero_share=0.0):
        band = rng.uniform(0.0, 1.0 / (lags + 1), size=(n_h, lags + 1, len(pairs[0])))
        band[rng.random(band.shape) < zero_share] = 0.0
        return AssignmentMatrix(od_index=tuple((str(i), "x") for i in range(n_od)),
                                channels=channels, grid=TimeGrid(n_intervals=n_h),
                                band=band, pairs=pairs)

    def _assert_per_interval_sums(self, horizon, pairs):
        rng = np.random.default_rng(horizon)
        n_h, n_od = 10, 4
        asg = self._random_assignment(rng, n_h, 3, ("a", "b"), n_od, pairs, zero_share=0.3)
        profiles = {leg: rng.dirichlet(np.ones(n_h), size=n_od) for leg in ("out", "back")}
        mapping = cumulative_mapping(asg, profiles, horizon)
        expected = self._per_interval(dense_band(asg), profiles, horizon)
        for leg in profiles:
            assert mapping.matrix(leg).tobytes() == expected[leg].sum(axis=0).tobytes()

    @pytest.mark.parametrize("horizon", [1, 3, 7, 9], ids=["below-L", "at-L", "above-L", "last"])
    def test_equals_per_interval_sums_bit_for_bit(self, horizon):
        self._assert_per_interval_sums(horizon, [[0, 0, 0, 1, 1], [0, 1, 3, 1, 2]])

    @pytest.mark.parametrize("horizon", [7, 9])
    def test_one_pair_sums_interval_after_interval(self, horizon):
        """A sum over the intervals of one pair alone would add pairwise."""
        self._assert_per_interval_sums(horizon, [[1], [2]])

    @pytest.mark.parametrize("horizon", [0, 3, 9])
    def test_built_from_pieces_equals_the_band_mapping(self, horizon):
        """A mapping given per-interval pieces keeps the same matrices as
        ``cumulative_mapping`` on the band they come from."""
        rng = np.random.default_rng(100 + horizon)
        n_h, n_od = 10, 5
        pairs = np.nonzero(np.ones((3, n_od)))
        asg = self._random_assignment(rng, n_h, 2, ("a", "b", "c"), n_od, pairs)
        profiles = {leg: rng.dirichlet(np.ones(n_h), size=n_od) for leg in ("out", "back")}
        mapping = cumulative_mapping(asg, profiles, horizon)
        built = CumulativeMapping(horizon=horizon, od_index=asg.od_index, channels=asg.channels,
                                  pieces=self._per_interval(dense_band(asg), profiles, horizon))
        assert sorted(built.matrices) == sorted(mapping.matrices) == ["back", "out"]
        for leg in profiles:
            assert built.matrix(leg).tobytes() == mapping.matrix(leg).tobytes()
            assert not built.matrix(leg).flags.writeable

    def test_pieces_or_matrices_not_both(self):
        with pytest.raises(ConfigurationError, match="not both"):
            CumulativeMapping(horizon=0, od_index=(("a", "b"),), channels=("c",),
                              pieces={"leg": np.ones((1, 1, 1))},
                              matrices={"leg": np.ones((1, 1))})

    def test_matches_brute_double_sum(self, toy_artifacts):
        cfg = toy_artifacts.config
        profiles = toy_artifacts.history.profiles()
        horizon = cfg.cutoff_index - 1
        mapping = cumulative_mapping(toy_artifacts.assignment, profiles, horizon)
        pieces = toy_artifacts.assignment.pieces
        leg = "hw_direct"
        brute = np.zeros_like(mapping.matrix(leg))
        for k in range(horizon + 1):
            for h in range(k, horizon + 1):
                brute += pieces[k, h] * profiles[leg][:, k][None, :]
        assert np.abs(mapping.matrix(leg) - brute).max() <= 1e-12
