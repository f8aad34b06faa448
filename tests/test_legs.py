import numpy as np
import pytest
from hypothesis import given, strategies as st

from odchain.errors import ChainConsistencyError, ConfigurationError
from odchain.legs import (
    ChainSpec,
    DemandLeg,
    LegOperator,
    build_leg_operator,
    propagate_leg_deviation,
    two_od_closed_form,
)

OD4 = (("h1", "w"), ("h2", "w"), ("w", "h1"), ("w", "h2"))


def make_leg(name, flows, members):
    return DemandLeg(name=name, od_index=OD4, flows=np.asarray(flows, dtype=float), members=members)


class TestDemandLeg:
    def test_rejects_negative_flow(self):
        with pytest.raises(ValueError):
            make_leg("m", [-1.0, 0, 0, 0], (("h1", "w"),))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1], ids=["member", "non-member"])
    def test_rejects_non_finite_flow(self, value, at):
        """A NaN compares false with 0, so neither the sign check nor the
        non-member check would see it."""
        flows = [0.0, 0.0, 0.0, 1.0]
        flows[at] = value
        with pytest.raises(ValueError, match="^leg 'm': non-finite OD flows$"):
            make_leg("m", flows, (("h1", "w"), ("w", "h2")))

    def test_rejects_flow_off_members(self):
        with pytest.raises(ConfigurationError):
            make_leg("m", [0, 5.0, 0, 0], (("h1", "w"),))

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            make_leg("m", [1.0, 2.0], (("h1", "w"), ("h2", "w")))

    def test_views_the_callers_arrays(self):
        """The leg holds read-only views, not copies, and leaves the
        caller's arrays writable."""
        flows, shares = np.array([1.0, 0, 0, 0]), np.zeros((1, 2))
        leg = DemandLeg(name="m", od_index=OD4, flows=flows, members=(("h1", "w"),),
                        shares=shares)
        flows[0] = shares[0, 0] = 2.0
        assert leg.flows[0] == leg.shares[0, 0] == 2.0
        assert np.shares_memory(leg.flows, flows) and np.shares_memory(leg.shares, shares)
        assert not (leg.flows.flags.writeable or leg.shares.flags.writeable)

    def test_shares_have_one_row_per_member_in_index_order(self):
        """Members listed out of index order: the shares' rows follow
        ``member_indices``, and the dense profile puts each on its OD's row,
        zero elsewhere, as a new read-only array on each access."""
        members = (("w", "h2"), ("h1", "w"))
        shares = np.array([[0.25, 0.75], [1.0, 0.0]])
        leg = DemandLeg(name="m", od_index=OD4, flows=np.array([3.0, 0, 0, 5.0]),
                        members=members, shares=shares)
        assert leg.member_indices().tolist() == [0, 3]
        profile = leg.profile
        assert profile.tolist() == [[0.25, 0.75], [0, 0], [0, 0], [1.0, 0.0]]
        assert not profile.flags.writeable
        assert leg.profile is not profile

    def test_no_shares_no_profile(self):
        assert make_leg("m", [1.0, 0, 0, 0], (("h1", "w"),)).profile is None

    @pytest.mark.parametrize("shares, error", [
        (np.zeros((4, 2)), ConfigurationError),   # one row per OD, not per member
        (np.zeros((1, 2)), ConfigurationError),   # too few rows
        (np.zeros(2), ConfigurationError),        # not a matrix
        (np.array([[0.5, 0.5], [1.5, -0.5]]), ValueError),
        (np.array([[0.5, 0.5], [np.nan, 1.0]]), ValueError),
        (np.array([[0.5, np.inf], [0.5, 0.5]]), ValueError),
    ])
    def test_bad_shares_rejected_naming_the_leg(self, shares, error):
        with pytest.raises(error, match="leg 'commute'"):
            DemandLeg(name="commute", od_index=OD4, flows=np.array([1.0, 2.0, 0, 0]),
                      members=(("h1", "w"), ("h2", "w")), shares=shares)


class TestChainSpec:
    def test_topological_order_puts_feeders_first(self):
        chain = ChainSpec(feeds={"a": (), "b": ("a",), "c": ("b",)})
        order = chain.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_roots(self):
        chain = ChainSpec(feeds={"a": (), "b": ("a",)})
        assert chain.roots() == ("a",)

    def test_cycle_rejected(self):
        with pytest.raises(ConfigurationError):
            ChainSpec(feeds={"a": ("b",), "b": ("a",)}).topological_order()

    def test_self_feed_rejected(self):
        with pytest.raises(ConfigurationError):
            ChainSpec(feeds={"a": ("a",)}).topological_order()

    def test_unknown_feeder_rejected(self):
        with pytest.raises(ConfigurationError):
            ChainSpec(feeds={"b": ("nope",)}).topological_order()

    def test_feeder_listed_twice_rejected(self):
        """A feeder listed twice would chain its arrivals in twice."""
        with pytest.raises(ConfigurationError, match="leg 'b' lists its feeder 'a' twice"):
            ChainSpec(feeds={"a": (), "b": ("a", "a")})


class TestLegOperator:
    def test_rejects_entries_outside_unit_interval(self):
        m = np.zeros((4, 4))
        m[2, 0] = 1.5
        with pytest.raises(ValueError):
            LegOperator(current="x", od_index=OD4, matrix=m)

    def test_views_the_callers_matrix(self):
        m = np.zeros((4, 4))
        op = LegOperator(current="x", od_index=OD4, matrix=m)
        m[2, 0] = 1.0
        assert op.matrix[2, 0] == 1.0 and np.shares_memory(op.matrix, m)
        assert not op.matrix.flags.writeable

    def test_rejects_partial_columns(self):
        m = np.zeros((4, 4))
        m[2, 0] = 0.4  # column sums to 0.4, neither 0 nor 1
        with pytest.raises(ValueError):
            LegOperator(current="x", od_index=OD4, matrix=m)


class TestBuildLegOperator:
    def _pair(self, back_flows=(100.0, 50.0)):
        chain = ChainSpec(feeds={"out": (), "back": ("out",)})
        out = make_leg("out", [100.0, 50.0, 0, 0], (("h1", "w"), ("h2", "w")))
        back = make_leg("back", [0, 0, back_flows[0], back_flows[1]],
                        (("w", "h1"), ("w", "h2")))
        return chain, out, back

    def test_columns_carry_origin_fractions(self):
        """w generates 150, split 100/50: both morning columns redistribute
        arrivals at w by each OD's share of that total, 2/3 and 1/3."""
        chain, out, back = self._pair()
        op = build_leg_operator(chain, [out], back)
        for col in (0, 1):
            assert op.matrix[:, col].tolist() == [0.0, 0.0, 100.0 / 150.0, 50.0 / 150.0]
        assert op.matrix[:, 2:].sum() == 0.0

    def test_zone_without_flow_drops_its_arrivals_and_warns(self, caplog):
        """A member zone that generates nothing gets all-zero columns: the
        arrivals chained into it are dropped rather than invented, and a
        warning names the zone.  The uniform split ignores the flows, so it
        splits there as anywhere and warns of nothing."""
        chain, out, back = self._pair(back_flows=(0.0, 0.0))
        with caplog.at_level("WARNING", logger="odchain"):
            op = build_leg_operator(chain, [out], back)
        assert (op.matrix == 0.0).all()
        assert [r.getMessage() for r in caplog.records] == [
            "leg back: zones ['w'] generate no flow; chained arrivals there are dropped"]
        caplog.clear()
        with caplog.at_level("WARNING", logger="odchain"):
            op = build_leg_operator(chain, [out], back, uniform_redistribution=True)
        assert caplog.records == []
        assert op.matrix[2:, :2].tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_uniform_redistribution(self):
        chain, out, back = self._pair()
        op = build_leg_operator(chain, [out], back, uniform_redistribution=True)
        assert op.matrix[2:, :2].tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_feeder_mismatch(self):
        chain, out, back = self._pair()
        stranger = make_leg("other", [0, 0, 1.0, 0], (("w", "h1"),))
        with pytest.raises(ConfigurationError):
            build_leg_operator(chain, [stranger], back)

    def test_arrivals_without_outgoing_ods(self):
        chain = ChainSpec(feeds={"out": (), "back": ("out",)})
        out = make_leg("out", [100.0, 50.0, 0, 0], (("h1", "w"), ("h2", "w")))
        # back only serves h1, so arrivals at w chained from h2 are fine, but
        # give back no ODs out of w at all:
        back = make_leg("back", [0, 0, 0, 0], ())
        with pytest.raises(ChainConsistencyError):
            build_leg_operator(chain, [out], back)

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-6, max_value=1e4),
        st.floats(min_value=1e-6, max_value=1e4),
    )
    def test_fed_columns_are_stochastic(self, n_a, n_b, r_a, r_b):
        chain, out, _ = self._pair()
        out = make_leg("out", [n_a, n_b, 0, 0], (("h1", "w"), ("h2", "w")))
        back = make_leg("back", [0, 0, r_a, r_b], (("w", "h1"), ("w", "h2")))
        op = build_leg_operator(chain, [out], back)
        sums = op.matrix.sum(axis=0)
        assert sums[0] == pytest.approx(1.0, abs=1e-9)
        assert sums[1] == pytest.approx(1.0, abs=1e-9)


class TestPropagate:
    def test_empty_deviations(self):
        chain = ChainSpec(feeds={"out": (), "back": ("out",)})
        out = make_leg("out", [1.0, 1.0, 0, 0], (("h1", "w"), ("h2", "w")))
        back = make_leg("back", [0, 0, 1.0, 1.0], (("w", "h1"), ("w", "h2")))
        op = build_leg_operator(chain, [out], back)
        assert (propagate_leg_deviation(op, []) == 0.0).all()

    def test_shape_mismatch(self):
        chain = ChainSpec(feeds={"out": (), "back": ("out",)})
        out = make_leg("out", [1.0, 1.0, 0, 0], (("h1", "w"), ("h2", "w")))
        back = make_leg("back", [0, 0, 1.0, 1.0], (("w", "h1"), ("w", "h2")))
        op = build_leg_operator(chain, [out], back)
        with pytest.raises(ConfigurationError):
            propagate_leg_deviation(op, [np.zeros(3)])


class TestTwoOdClosedForm:
    def test_all_mass_through_one_destination(self):
        assert two_od_closed_form((195.0, 0.0), (0.5, 0.5)) == (97.5, 97.5)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            two_od_closed_form((10.0, 10.0), (0.5, 0.4))

    def test_negative_morning_rejected(self):
        with pytest.raises(ValueError):
            two_od_closed_form((-1.0, 0.0), (0.5, 0.5))
