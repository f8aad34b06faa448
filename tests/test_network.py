import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from odchain.errors import ConfigurationError
from odchain.network import (
    Link,
    Network,
    Path,
    TimeGrid,
    Zone,
    bpr_travel_time,
    build_toy_network,
    od_label,
    validate_network,
)


def test_od_label():
    assert od_label(("1", "3")) == "1-3"


class TestTimeGrid:
    def test_defaults_cover_a_day(self):
        grid = TimeGrid()
        assert grid.end == 1440
        assert grid.bounds(0) == (0.0, 15.0)
        assert grid.bounds(95) == (1425.0, 1440.0)

    def test_midpoint(self):
        assert TimeGrid().midpoint(0) == 7.5

    def test_bounds_and_midpoints_of_an_array_of_intervals(self):
        grid = TimeGrid(start=420, interval_minutes=5, n_intervals=6)
        lo, hi = grid.bounds(np.arange(6))
        assert [(a, b) for a, b in zip(lo.tolist(), hi.tolist())] == [grid.bounds(h) for h in range(6)]
        assert grid.midpoint(np.arange(6)).tolist() == [grid.midpoint(h) for h in range(6)]
        with pytest.raises(IndexError):
            grid.midpoint(np.array([0, 6]))
        with pytest.raises(IndexError):
            grid.bounds(-1)

    def test_bounds_out_of_range(self):
        with pytest.raises(IndexError):
            TimeGrid(n_intervals=4).bounds(4)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(n_intervals=0)
        with pytest.raises(ConfigurationError):
            TimeGrid(interval_minutes=0)

    @pytest.mark.parametrize("field, value", [
        ("interval_minutes", 0.1), ("start", 2.5), ("n_intervals", 4.5),
        ("start", float("nan")), ("interval_minutes", float("inf")), ("start", "0"),
    ])
    def test_rejects_a_grid_not_in_whole_minutes(self, field, value):
        """The kernel's interval index is exact on whole-minute edges only."""
        with pytest.raises(ConfigurationError, match=f"time grid {field} must be a whole number"):
            TimeGrid(**{field: value})

    def test_whole_floats_are_whole_minutes(self):
        assert TimeGrid(start=450.0, interval_minutes=15.0, n_intervals=4.0).end == 510.0


class TestLink:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigurationError):
            Link(id="1a", label="1", from_node="1", to_node="6", free_flow_time=0.0, capacity=100.0)
        with pytest.raises(ConfigurationError):
            Link(id="1a", label="1", from_node="1", to_node="6", free_flow_time=1.0, capacity=0.0)
        with pytest.raises(ConfigurationError):
            Link(
                id="1a", label="1", from_node="1", to_node="6",
                free_flow_time=1.0, capacity=100.0, bpr_beta=0.5,
            )


class TestBpr:
    def test_zero_flow_is_free_flow(self):
        link = Link(id="x", label="x", from_node="a", to_node="b",
                    free_flow_time=10.0, capacity=1000.0)
        assert bpr_travel_time(link, 0.0) == 10.0

    def test_at_capacity(self):
        # 10 * (1 + 0.15 * 1**4) = 11.5
        link = Link(id="x", label="x", from_node="a", to_node="b",
                    free_flow_time=10.0, capacity=1000.0)
        assert bpr_travel_time(link, 1000.0) == pytest.approx(11.5, abs=1e-12)

    def test_double_capacity(self):
        # 10 * (1 + 0.15 * 2**4) = 34.0
        link = Link(id="x", label="x", from_node="a", to_node="b",
                    free_flow_time=10.0, capacity=1000.0)
        assert bpr_travel_time(link, 2000.0) == pytest.approx(34.0, abs=1e-12)

    def test_negative_flow_rejected(self):
        link = Link(id="x", label="x", from_node="a", to_node="b",
                    free_flow_time=10.0, capacity=1000.0)
        with pytest.raises(ValueError):
            bpr_travel_time(link, -1.0)

    def test_negative_flow_in_an_array_rejected(self):
        link = Link(id="x", label="x", from_node="a", to_node="b",
                    free_flow_time=10.0, capacity=1000.0)
        with pytest.raises(ValueError, match="negative flow -2.0"):
            bpr_travel_time(link, np.array([1.0, -2.0]))

    def test_array_of_flows_matches_the_scalar_formula_to_the_bit(self):
        """Elementwise Python arithmetic, whose power numpy's may not match."""
        link = Link(id="x", label="x", from_node="a", to_node="b",
                    free_flow_time=7.0, capacity=700.0, bpr_alpha=0.15, bpr_beta=4.0)
        flows = np.random.default_rng(3).uniform(0.0, 3000.0, 500)
        times = bpr_travel_time(link, flows)
        assert times.shape == (500,)
        assert times.tolist() == [7.0 * (1.0 + 0.15 * (f / 700.0) ** 4.0) for f in flows.tolist()]

    def test_power_matches_python_pow_bit_for_bit(self):
        """The loop this function used to run, Python's ``**`` per element,
        over random ratios and exponents."""
        rng = np.random.default_rng(12)
        for beta in [1.0, 2.0, 4.0, 5.5, *rng.uniform(1.0, 12.0, 12).tolist()]:
            link = Link(id="x", label="x", from_node="a", to_node="b", free_flow_time=9.0,
                        capacity=1234.5, bpr_alpha=0.15, bpr_beta=beta)
            flows = np.concatenate([rng.uniform(0.0, 4000.0, 4000),
                                    rng.exponential(800.0, 4000), [0.0, 1234.5]])
            ratio = flows / link.capacity
            power = np.array([v ** link.bpr_beta for v in ratio.tolist()])
            expected = link.free_flow_time * (1.0 + link.bpr_alpha * power)
            assert bpr_travel_time(link, flows).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("flow", [1e300, np.inf, np.nan])
    def test_non_finite_time_names_link_and_flow(self, flow):
        link = Link(id="9b", label="9", from_node="a", to_node="b",
                    free_flow_time=10.0, capacity=100.0, bpr_beta=400.0)
        with pytest.raises(ValueError, match=rf"link '9b': .* not finite at flow {re.escape(repr(flow))} veh/h"):
            bpr_travel_time(link, np.array([5.0, flow, 7.0]))
        with pytest.raises(ValueError, match="link '9b'"):
            bpr_travel_time(link, flow)

    def test_overflowing_power_is_an_error_not_inf(self):
        """Python's ``**`` raised ``OverflowError`` here; the time must not
        come back as ``inf``."""
        link = Link(id="x", label="x", from_node="a", to_node="b",
                    free_flow_time=10.0, capacity=100.0, bpr_beta=400.0)
        with pytest.raises(OverflowError):
            (1000.0 / 100.0) ** 400.0
        with pytest.raises(ValueError, match="not finite at flow 1000.0"):
            bpr_travel_time(link, np.array([10.0, 1000.0]))

    @given(st.floats(min_value=0.0, max_value=1e5), st.floats(min_value=0.0, max_value=1e5))
    def test_monotone_in_flow(self, v1, v2):
        link = Link(id="x", label="x", from_node="a", to_node="b",
                    free_flow_time=10.0, capacity=4000.0)
        lo, hi = sorted((v1, v2))
        assert bpr_travel_time(link, lo) <= bpr_travel_time(link, hi)


class TestToyNetwork:
    def test_shape(self):
        net = build_toy_network()
        assert len(net.zones) == 5
        assert len(net.links) == 16  # eight roads, two directions each
        assert len(net.paths) == 12
        assert net.detectors == ("4a", "4b")
        assert validate_network(net) == []

    def test_zone_kinds(self):
        net = build_toy_network()
        kinds = {zid: z.kind for zid, z in net.zones.items()}
        assert kinds == {
            "1": "residential", "2": "residential",
            "3": "work", "4": "work", "5": "leisure",
        }

    def test_commute_paths_cross_the_detector(self):
        net = build_toy_network()
        for od in [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")]:
            assert "4a" in net.paths[od].links
        for od in [("3", "1"), ("3", "2"), ("4", "1"), ("4", "2")]:
            assert "4b" in net.paths[od].links

    def test_leisure_paths_avoid_the_detector(self):
        net = build_toy_network()
        for od in [("3", "5"), ("4", "5"), ("5", "1"), ("5", "2")]:
            links = net.paths[od].links
            assert "4a" not in links and "4b" not in links

    def test_scalar_override(self):
        net = build_toy_network({"capacity": 9000.0})
        assert all(ln.capacity == 9000.0 for ln in net.links.values())

    def test_per_label_override(self):
        net = build_toy_network({"capacity": {"4": 11000.0}})
        assert net.links["4a"].capacity == 11000.0
        assert net.links["4b"].capacity == 11000.0
        assert net.links["1a"].capacity != 11000.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            build_toy_network({"speed_limit": 50})


class TestValidateNetwork:
    def _base(self):
        zones = {"a": Zone(id="a"), "b": Zone(id="b", kind="work")}
        links = {
            "1a": Link(id="1a", label="1", from_node="a", to_node="b",
                       free_flow_time=5.0, capacity=1000.0),
        }
        paths = {("a", "b"): Path(od=("a", "b"), links=("1a",))}
        return zones, links, paths

    def test_clean(self):
        zones, links, paths = self._base()
        net = Network(zones=zones, links=links, paths=paths, detectors=("1a",))
        assert validate_network(net) == []

    def test_unknown_detector(self):
        zones, links, paths = self._base()
        net = Network(zones=zones, links=links, paths=paths, detectors=("9z",))
        assert any("detector" in p for p in validate_network(net))

    def test_duplicate_detector(self):
        """A channel listed twice would get a band row only at its last position."""
        zones, links, paths = self._base()
        net = Network(zones=zones, links=links, paths=paths, detectors=("1a", "1a"))
        assert validate_network(net) == ["detector channel '1a': listed 2 times"]

    def test_path_endpoint_mismatch(self):
        zones, links, paths = self._base()
        paths[("b", "a")] = Path(od=("b", "a"), links=("1a",))  # wrong direction
        net = Network(zones=zones, links=links, paths=paths)
        assert any("b-a" in p for p in validate_network(net))

    def test_disconnected_path(self):
        zones, links, paths = self._base()
        links["2a"] = Link(id="2a", label="2", from_node="a", to_node="b",
                           free_flow_time=5.0, capacity=1000.0)
        paths[("a", "b")] = Path(od=("a", "b"), links=("1a", "2a"))  # b -> a gap
        net = Network(zones=zones, links=links, paths=paths)
        assert any("ends at" in p for p in validate_network(net))


def test_od_index_is_sorted():
    net = build_toy_network()
    assert list(net.od_index) == sorted(net.od_index)


def test_path_of_unknown_od():
    net = build_toy_network()
    with pytest.raises(ConfigurationError):
        net.path_of(("1", "99"))
