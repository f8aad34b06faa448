import numpy as np
import pytest
from hypothesis import given, strategies as st

from odchain.errors import ChainConsistencyError, ConfigurationError
from odchain.legs import (
    ChainSpec,
    DemandLeg,
    LegOperator,
    build_leg_operator,
    leg_fractions,
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

    def test_rejects_flow_off_members(self):
        with pytest.raises(ConfigurationError):
            make_leg("m", [0, 5.0, 0, 0], (("h1", "w"),))

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            make_leg("m", [1.0, 2.0], (("h1", "w"), ("h2", "w")))

    def test_views_the_callers_arrays(self):
        """The leg holds read-only views, not copies, and leaves the
        caller's arrays writable."""
        flows, profile = np.array([1.0, 0, 0, 0]), np.zeros((4, 2))
        leg = DemandLeg(name="m", od_index=OD4, flows=flows, members=(("h1", "w"),),
                        profile=profile)
        flows[0] = profile[0, 0] = 2.0
        assert leg.flows[0] == leg.profile[0, 0] == 2.0
        assert np.shares_memory(leg.flows, flows) and np.shares_memory(leg.profile, profile)
        assert not (leg.flows.flags.writeable or leg.profile.flags.writeable)


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


class TestLegFractions:
    def test_shares_of_origin_total(self):
        # one origin generating 150 split 100/50 -> fractions 2/3 and 1/3
        leg = make_leg("back", [0, 0, 100.0, 50.0], (("w", "h1"), ("w", "h2")))
        f = leg_fractions(leg)
        assert f[2] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert f[3] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert f[0] == 0.0 and f[1] == 0.0

    def test_zero_outflow_zone_warns(self, caplog):
        leg = make_leg("back", [0, 0, 0.0, 0.0], (("w", "h1"), ("w", "h2")))
        with caplog.at_level("WARNING"):
            f = leg_fractions(leg)
        assert (f == 0.0).all()
        assert any("no flow" in r.message for r in caplog.records)


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
        chain, out, back = self._pair()
        op = build_leg_operator(chain, [out], back)
        # both morning columns redistribute arrivals at w by 2/3 vs 1/3
        for col in (0, 1):
            assert op.matrix[2, col] == pytest.approx(2.0 / 3.0, abs=1e-12)
            assert op.matrix[3, col] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert op.matrix[:, 2:].sum() == 0.0

    def test_uniform_redistribution(self):
        chain, out, back = self._pair()
        op = build_leg_operator(chain, [out], back, uniform_redistribution=True)
        assert op.matrix[2, 0] == pytest.approx(0.5)
        assert op.matrix[3, 0] == pytest.approx(0.5)

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
