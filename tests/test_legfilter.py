import numpy as np
import pytest

from odchain import assignment as assignment_mod
from odchain.assignment import CumulativeMapping
from odchain.errors import ConfigurationError
from odchain.kalman import FilterState, kf_measurement_update
from odchain.legfilter import (
    ChainFilterConfig,
    attribute_interval_deviations,
    chain_consistent_legs,
    combined_demand,
    leg_retention,
    leg_time_update,
    predict_horizon,
    root_deviations,
    run_leg_chain,
)
from odchain.legs import ChainSpec, DemandLeg, build_leg_operator
from test_acceptance import _random_chain

OD2 = (("a", "b"), ("b", "a"))


def leg2(name, flows, members, shares=None):
    return DemandLeg(name=name, od_index=OD2, flows=np.asarray(flows, dtype=float),
                     members=members, shares=shares)


class TestAttribution:
    def test_expected_share_weights(self):
        # flows 100 each with departure shares 0.3 and 0.1 split a deviation
        # of 4 into 3 and 1
        od_index = (("a", "b"),)
        a = DemandLeg(name="a", od_index=od_index, flows=np.array([100.0]),
                      members=od_index, shares=np.array([[0.3]]))
        b = DemandLeg(name="b", od_index=od_index, flows=np.array([100.0]),
                      members=od_index, shares=np.array([[0.1]]))
        out = attribute_interval_deviations(np.array([[4.0]]), [a, b])
        assert out["a"][0] == pytest.approx(3.0, abs=1e-12)
        assert out["b"][0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_cells_dropped_with_warning(self, caplog):
        od_index = (("a", "b"),)
        a = DemandLeg(name="a", od_index=od_index, flows=np.array([100.0]),
                      members=od_index, shares=np.array([[0.0]]))
        with caplog.at_level("WARNING"):
            out = attribute_interval_deviations(np.array([[5.0]]), [a])
        assert out["a"][0] == 0.0
        assert any("dropped" in r.message for r in caplog.records)

    def test_leg_without_profile_rejected(self):
        od_index = (("a", "b"),)
        a = DemandLeg(name="a", od_index=od_index, flows=np.array([100.0]), members=od_index)
        with pytest.raises(ConfigurationError):
            attribute_interval_deviations(np.array([[1.0]]), [a])

    def test_empty_legs(self):
        assert attribute_interval_deviations(np.zeros((1, 1)), []) == {}

    def test_an_empty_window_attributes_zero(self):
        od_index = (("a", "b"), ("b", "a"))
        a = DemandLeg(name="a", od_index=od_index, flows=np.array([100.0, 0.0]),
                      members=od_index[:1], shares=np.array([[0.3]]))
        out = attribute_interval_deviations(np.zeros((2, 0)), [a])
        assert out["a"].tobytes() == np.zeros(2).tobytes()

    @staticmethod
    def _by_loop(deltas, legs):
        """Reference: cell by cell, interval-major, skipping zero deviations."""
        weights = [leg.flows[:, None] * leg.profile[:, : deltas.shape[1]] for leg in legs]
        total = np.sum(weights, axis=0)
        out = {leg.name: np.zeros(deltas.shape[0]) for leg in legs}
        for h in range(deltas.shape[1]):
            for i in range(deltas.shape[0]):
                d, t = deltas[i, h], total[i, h]
                if d != 0.0 and t > 0.0:
                    for leg, w in zip(legs, weights):
                        out[leg.name][i] += d * w[i, h] / t
        return out

    def test_matches_cell_by_cell_loop_bit_for_bit(self):
        """Random deviations (signed zeros included) against legs with
        inactive cells and random member sets, whose shares may run past the
        deviation matrix, over every column of it.  The reference reads the
        dense profiles."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n_od, n_h = rng.integers(1, 5), rng.integers(1, 9)
            od_index = tuple((f"o{i}", f"d{i}") for i in range(n_od))
            legs = []
            for j in range(rng.integers(1, 4)):
                member = rng.uniform(size=n_od) < 0.7
                shape = (int(member.sum()), n_h + rng.integers(0, 3))
                legs.append(DemandLeg(
                    name=f"leg{j}", od_index=od_index,
                    flows=member * rng.choice([0.0, 1.0, 40.0], n_od) * rng.uniform(0.5, 2.0, n_od),
                    members=tuple(od for od, m in zip(od_index, member) if m),
                    shares=rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.6)))
            deltas = rng.normal(size=(n_od, n_h)) * (rng.uniform(size=(n_od, n_h)) < 0.7)
            deltas[rng.uniform(size=deltas.shape) < 0.1] = -0.0
            out = attribute_interval_deviations(deltas, legs)
            expected = self._by_loop(deltas, legs)
            for leg in legs:
                assert out[leg.name].tobytes() == expected[leg.name].tobytes()


class TestLegTimeUpdate:
    def test_congruence(self):
        chain = ChainSpec(feeds={"out": (), "back": ("out",)})
        out = leg2("out", [200.0, 0.0], (("a", "b"),))
        back = leg2("back", [0.0, 150.0], (("b", "a"),))
        op = build_leg_operator(chain, [out], back)
        P = np.array([[4.0, 1.0], [1.0, 9.0]])
        Q = 0.5 * np.eye(2)
        state = FilterState(mean=np.array([-20.0, 0.0]), cov=P)
        pred = leg_time_update([state], op, Q)
        L = op.matrix
        assert np.allclose(pred.mean, L @ state.mean, atol=1e-12)
        assert np.allclose(pred.cov, L @ P @ L.T + Q, atol=1e-12)

    @pytest.mark.parametrize("Q, message", [
        # symmetrized after the sum, it would pass with off-diagonals of 1.5
        pytest.param([[1.0, 3.0], [0.0, 1.0]], "^Q is not symmetric$", id="asymmetric"),
        pytest.param([[1.0, np.nan], [np.nan, 1.0]], "^Q has non-finite entries$", id="nan"),
    ])
    def test_rejects_q_as_the_noise_model_does(self, Q, message):
        chain = ChainSpec(feeds={"out": (), "back": ("out",)})
        out = leg2("out", [200.0, 0.0], (("a", "b"),))
        op = build_leg_operator(chain, [out], leg2("back", [0.0, 150.0], (("b", "a"),)))
        state = FilterState(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ValueError, match=message):
            leg_time_update([state], op, np.array(Q))


def two_leg_setup():
    chain = ChainSpec(feeds={"out": (), "back": ("out",)})
    out = leg2("out", [200.0, 0.0], (("a", "b"),))
    back = leg2("back", [0.0, 150.0], (("b", "a"),))
    legs = {"out": out, "back": back}
    operators = {"back": build_leg_operator(chain, [out], back)}
    mapping = CumulativeMapping(
        horizon=0, od_index=OD2, channels=("c1",),
        pieces={
            "out": np.array([[[0.4, 0.0]]]),
            "back": np.array([[[0.0, 0.3]]]),
        },
    )
    noise = {
        "leg_Q": {"back": 25.0 * np.eye(2)},
        "root_P0": {"out": 100.0 * np.eye(2)},
        "R": 4.0 * np.eye(1),
    }
    return chain, legs, operators, mapping, noise


class TestRunLegChain:
    def test_pkf_matches_direct_algebra(self):
        """One chained leg against the same update written with an explicit
        matrix inverse."""
        chain, legs, operators, mapping, noise = two_leg_setup()
        delta = np.array([-20.0, 0.0])
        delta_Y = np.array([-20.0])
        states = run_leg_chain(
            legs, chain, operators, {"out": delta}, mapping, delta_Y,
            config=ChainFilterConfig(mode="pkf", cumulative_horizon=0),
            leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"],
        )
        L = operators["back"].matrix
        prior_mean = L @ delta
        prior_cov = L @ noise["root_P0"]["out"] @ L.T + noise["leg_Q"]["back"]
        A = mapping.matrix("back")
        net = delta_Y - mapping.matrix("out") @ delta
        S = A @ prior_cov @ A.T + noise["R"]
        K = prior_cov @ A.T @ np.linalg.inv(S)
        want_mean = prior_mean + K @ (net - A @ prior_mean)
        want_cov = prior_cov - K @ A @ prior_cov
        assert np.allclose(states["back"].state.mean, want_mean, atol=1e-10)
        assert np.allclose(states["back"].state.cov, want_cov, atol=1e-10)
        assert states["out"].state.mean[0] == pytest.approx(-20.0)

    def test_spkf_conserves_feeder_total(self):
        chain, legs, operators, mapping, noise = two_leg_setup()
        delta = np.array([-20.0, 0.0])
        states = run_leg_chain(
            legs, chain, operators, {"out": delta}, mapping, np.array([-20.0]),
            config=ChainFilterConfig(mode="spkf", cumulative_horizon=0),
            leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"],
        )
        back_total = (legs["back"].flows + states["back"].state.mean).sum()
        fed_total = (legs["out"].flows + states["out"].state.mean).sum()
        assert back_total == pytest.approx(fed_total, abs=1e-9)
        assert states["back"].conservation_residual <= 1e-9

    def test_spkf_scales_covariance(self):
        chain, legs, operators, mapping, noise = two_leg_setup()
        delta = np.array([-20.0, 0.0])
        kwargs = dict(leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"])
        pkf = run_leg_chain(
            legs, chain, operators, {"out": delta}, mapping, np.array([-20.0]),
            config=ChainFilterConfig(mode="pkf", cumulative_horizon=0), **kwargs,
        )
        spkf = run_leg_chain(
            legs, chain, operators, {"out": delta}, mapping, np.array([-20.0]),
            config=ChainFilterConfig(mode="spkf", cumulative_horizon=0), **kwargs,
        )
        s = spkf["back"].scale
        assert s != 1.0
        assert np.allclose(spkf["back"].state.cov, pkf["back"].state.cov / s**2, atol=1e-10)

    @pytest.mark.parametrize("root_delta, delta_Y, message", [
        ([-200.0, 0.0], [0.0], r"leg 'back': feeding legs total 0\.0; conservation scale undefined"),
        ([-250.0, 0.0], [0.0], r"leg 'back': feeding legs total -50\.0; conservation scale"),
        ([0.0, 0.0], [-1e6], r"leg 'back': conservation scale must be > 0, got -"),
    ], ids=["feeders-zero", "feeders-negative", "scale-negative"])
    def test_spkf_conservation_errors_name_the_leg(self, root_delta, delta_Y, message):
        """spkf's rescale needs a positive feeders' estimated total and a
        positive scale; pkf runs the same inputs without a rescale."""
        chain, legs, operators, mapping, noise = two_leg_setup()
        args = (legs, chain, operators, {"out": np.array(root_delta)}, mapping,
                np.array(delta_Y))
        kwargs = dict(leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"])
        run_leg_chain(*args, config=ChainFilterConfig(mode="pkf", cumulative_horizon=0),
                      **kwargs)
        with pytest.raises(ValueError, match=message):
            run_leg_chain(*args, config=ChainFilterConfig(mode="spkf", cumulative_horizon=0),
                          **kwargs)

    def test_missing_root_prior_rejected(self):
        chain, legs, operators, mapping, noise = two_leg_setup()
        with pytest.raises(ConfigurationError, match="no prior covariance for root leg 'out'"):
            run_leg_chain(
                legs, chain, operators, {"out": np.zeros(2)}, mapping, np.array([0.0]),
                config=ChainFilterConfig(mode="pkf"),
                leg_Q=noise["leg_Q"], root_P0={}, R=noise["R"],
            )

    def test_horizon_must_match_mapping(self):
        """The configured horizon is checked against the mapping actually used."""
        chain, legs, operators, mapping, noise = two_leg_setup()
        with pytest.raises(ConfigurationError, match="horizon 1 differs .* horizon 0"):
            run_leg_chain(
                legs, chain, operators, {"out": np.zeros(2)}, mapping, np.array([0.0]),
                config=ChainFilterConfig(mode="pkf", cumulative_horizon=1),
                leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"],
            )

    def test_missing_operator_rejected(self):
        chain, legs, _, mapping, noise = two_leg_setup()
        with pytest.raises(ConfigurationError, match="missing operator .* for leg 'back'"):
            run_leg_chain(
                legs, chain, {}, {"out": np.zeros(2)}, mapping, np.array([0.0]),
                config=ChainFilterConfig(mode="pkf"),
                leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"],
            )

    def test_unknown_leg_in_chain_rejected(self):
        chain, legs, operators, mapping, noise = two_leg_setup()
        del legs["back"]
        with pytest.raises(ConfigurationError, match=r"chain references unknown legs \['back'\]"):
            run_leg_chain(
                legs, chain, operators, {"out": np.zeros(2)}, mapping, np.array([0.0]),
                config=ChainFilterConfig(mode="pkf"),
                leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"],
            )

    @pytest.mark.parametrize("root_deltas, message", [
        ({"outt": np.zeros(2)}, r"missing \['out'\], unknown \['outt'\]"),
        ({"out": np.zeros(2), "back": np.zeros(2)}, r"missing \[\], unknown \['back'\]"),
        ({}, r"missing \['out'\], unknown \[\]"),
    ], ids=["mistyped-root", "chained-leg", "none"])
    def test_root_deviations_name_exactly_the_roots(self, root_deltas, message):
        """A mistyped or missing root deviation fails loudly, and so does one
        given for a chained leg, which the filter would not read."""
        chain, legs, operators, mapping, noise = two_leg_setup()
        with pytest.raises(ConfigurationError, match=message):
            run_leg_chain(
                legs, chain, operators, root_deltas, mapping, np.array([0.0]),
                config=ChainFilterConfig(mode="pkf", cumulative_horizon=0),
                leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"],
            )

    @staticmethod
    def _every_other_leg(legs, chain, operators, root_deltas, mapping, delta_Y, mode,
                         leg_Q, root_P0, R):
        """The chain filter as a sum over every other leg: each chained leg,
        in topological order, is updated against ``delta_Y`` minus every
        other leg's ``mapping.matrix(o) @ current_delta[o]``, where a leg not
        yet estimated is still zero.  Returns, per leg, its mean, covariance,
        prior norm, scale and conservation residual."""
        order = chain.topological_order()
        current_delta = {name: np.zeros(len(legs[name].od_index)) for name in order}
        for name in chain.roots():
            current_delta[name] = np.asarray(root_deltas[name], dtype=float).copy()
        out = {}
        for name in order:
            feeders = chain.feeds[name]
            if not feeders:
                out[name] = (current_delta[name], root_P0[name],
                             float(np.linalg.norm(current_delta[name])), 1.0, 0.0)
                continue
            pred = leg_time_update([FilterState(out[f][0], out[f][1]) for f in feeders],
                                   operators[name], leg_Q[name])
            others = np.zeros_like(delta_Y)
            for other in order:
                if other != name:
                    others += mapping.matrix(other) @ current_delta[other]
            post = kf_measurement_update(pred, mapping.matrix(name), R, delta_Y - others)
            mean, cov, scale, residual = post.mean, post.cov, 1.0, 0.0
            if mode == "spkf":
                estimate = legs[name].flows + mean
                fed = [legs[f].flows + out[f][0] for f in feeders]
                scale = float(estimate.sum()) / float(np.sum([f.sum() for f in fed]))
                rescaled = estimate / scale
                residual = float(abs(rescaled.sum() - np.sum([f.sum() for f in fed])))
                mean, cov = rescaled - legs[name].flows, cov / (scale * scale)
            out[name] = (mean, cov, float(np.linalg.norm(pred.mean)), scale, residual)
            current_delta[name] = mean
        return out

    @pytest.mark.parametrize("mode", ["pkf", "spkf"])
    def test_running_fit_equals_the_sum_over_every_other_leg_bit_for_bit(self, mode):
        """Over 60 random chains of one or two roots and one or two chained
        legs, the running fit makes the same additions in the same order as
        the sum over every other leg: every state's mean, covariance, prior
        norm, scale and conservation residual agree bit for bit."""
        rng = np.random.default_rng(37)
        shapes = set()
        for _ in range(60):
            (legs, chain, operators, root_deltas, mapping, delta_Y, (leg_Q, root_P0, R),
             horizon, chained, _) = _random_chain(rng)
            shapes.add((len(root_deltas), len(chained)))
            states = run_leg_chain(
                legs, chain, operators, root_deltas, mapping, delta_Y,
                config=ChainFilterConfig(mode=mode, cumulative_horizon=horizon),
                leg_Q=leg_Q, root_P0=root_P0, R=R,
            )
            want = self._every_other_leg(legs, chain, operators, root_deltas, mapping,
                                         delta_Y, mode, leg_Q, root_P0, R)
            assert states.keys() == want.keys()
            for name, (mean, cov, prior_norm, scale, residual) in want.items():
                got = states[name]
                assert got.state.mean.tobytes() == mean.tobytes(), name
                assert got.state.cov.tobytes() == np.asarray(cov, dtype=float).tobytes(), name
                assert (got.prior_norm, got.scale, got.conservation_residual) == (
                    prior_norm, scale, residual), name
        assert shapes == {(1, 1), (1, 2), (2, 1), (2, 2)}  # every shape was drawn


class TestRootDeviations:
    def test_flows_times_the_share_weighted_mean(self):
        """Per member OD, r̄ weighs each measured interval by flows ⊙ shares;
        the deviation is flows ⊙ r̄, zero off the members."""
        leg = leg2("out", [100.0, 0.0], OD2[:1], shares=np.array([[0.1, 0.3, 0.6]]))
        relative = np.array([[0.2, -0.1, 0.5], [9.0, 9.0, 9.0]])
        out = root_deviations(relative[:, :2], [leg])
        mean = (0.1 * 0.2 + 0.3 * -0.1) / (0.1 + 0.3)
        assert out["out"] == pytest.approx([100.0 * mean, 0.0], abs=1e-12)

    def test_no_weight_gives_no_deviation(self):
        """A member OD without flow, or without shares before the cutoff,
        weighs nothing, and its deviation is 0, not a division by zero."""
        leg = leg2("out", [0.0, 50.0], OD2, shares=np.array([[0.5, 0.5], [0.0, 1.0]]))
        out = root_deviations(np.full((2, 1), 0.4), [leg])
        assert out["out"].tolist() == [0.0, 0.0]

    def test_leg_without_shares_rejected(self):
        with pytest.raises(ConfigurationError, match="leg 'out'"):
            root_deviations(np.zeros((2, 1)), [leg2("out", [1.0, 0.0], OD2[:1])])


class TestChainConsistentLegs:
    def test_chained_flows_follow_their_feeders(self, toy_artifacts):
        """In topological order each chained leg's flows are its operator
        applied to its feeders' rebuilt flows; root legs are the same
        objects, and every leg keeps its shares."""
        legs = toy_artifacts.history.legs
        chain = toy_artifacts.chain
        broken = dict(legs, work_home=DemandLeg(
            name="work_home", od_index=legs["work_home"].od_index,
            flows=legs["work_home"].flows * 0.7, members=legs["work_home"].members,
            shares=legs["work_home"].shares))
        chained = [n for n in chain.topological_order() if chain.feeds.get(n)]
        operators = {n: build_leg_operator(chain, [broken[f] for f in chain.feeds[n]], broken[n])
                     for n in chained}
        out = chain_consistent_legs(broken, chain, operators)
        for name in chain.topological_order():
            feeders = chain.feeds.get(name, ())
            if not feeders:
                assert out[name] is broken[name]
                continue
            fed = sum(out[f].flows for f in feeders)
            assert np.array_equal(out[name].flows, operators[name].matrix @ fed)
            assert np.shares_memory(out[name].shares, broken[name].shares)
            assert out[name].flows.sum() == pytest.approx(fed.sum(), rel=1e-12)
        assert out["work_home"].flows.sum() == pytest.approx(legs["hw_direct"].flows.sum())

    def test_missing_operator_rejected(self):
        chain = ChainSpec(feeds={"out": (), "back": ("out",)})
        legs = {"out": leg2("out", [1.0, 0.0], OD2[:1]), "back": leg2("back", [0.0, 1.0], OD2[1:])}
        with pytest.raises(ConfigurationError, match="'back'"):
            chain_consistent_legs(legs, chain, {})


class TestLegRetention:
    OD4 = (("w1", "h1"), ("w1", "h2"), ("w2", "h1"), ("w2", "h2"))

    def leg(self, flows):
        return DemandLeg(name="back", od_index=self.OD4, flows=np.asarray(flows, dtype=float),
                         members=self.OD4)

    def test_zones_that_agree_keep_the_history_retention(self):
        """A history that keeps 90 % of the arrivals in every zone breaks
        the tour on purpose."""
        rebuilt = self.leg([60.0, 40.0, 10.0, 30.0])
        assert leg_retention(self.leg(0.9 * rebuilt.flows), rebuilt) == pytest.approx(0.9)

    def test_scattered_zones_shrink_to_a_closed_tour(self):
        rebuilt = self.leg([60.0, 40.0, 10.0, 30.0])
        assert leg_retention(self.leg([66.0, 44.0, 8.0, 24.0]), rebuilt) == 1.0

    def test_partial_scatter_shrinks_part_way(self):
        rebuilt = self.leg([50.0, 50.0, 50.0, 50.0])
        ratios = np.array([0.8, 0.8, 0.81, 0.81])
        rho = ratios.mean()
        v = np.var([0.8, 0.81]) * 0.5 / 0.5
        k = 1.0 - 100.0 * v / (rho - 1.0) ** 2
        assert 0.0 < k < 1.0
        assert leg_retention(self.leg(ratios * 50.0), rebuilt) == pytest.approx(1.0 + k * (rho - 1.0))

    def test_one_zone_cannot_tell_a_break_from_noise(self):
        rebuilt = self.leg([60.0, 40.0, 0.0, 0.0])
        assert leg_retention(self.leg([54.0, 36.0, 0.0, 0.0]), rebuilt) == 1.0


class TestCombinedDemand:
    def test_all_three_terms(self):
        # (100 - 50*0.2) * (1 + 0.05) + 60*0.2 = 94.5 + 12 = 106.5
        od_index = (("a", "b"),)
        leg = DemandLeg(name="leg", od_index=od_index, flows=np.array([50.0]),
                        members=od_index, shares=np.array([[0.2]]))
        x, clamped = combined_demand(
            np.array([[100.0]]), np.array([[0.05]]), {"leg": np.array([60.0])}, {"leg": leg},
        )
        assert x[0, 0] == pytest.approx(106.5, abs=1e-12)
        assert clamped == 0

    def test_without_chained_legs_scales_the_history(self):
        hist = np.array([[10.0, 20.0], [0.0, 4.0]])
        x, clamped = combined_demand(hist, np.array([[0.5, -0.25], [3.0, 0.0]]), {}, {})
        assert x.tolist() == [[15.0, 15.0], [0.0, 4.0]]
        assert clamped == 0

    def test_member_rows_equal_the_dense_profiles(self):
        """Leg terms on the member rows alone equal the dense sums, which
        add an exact zero off the members, bit for bit, from ``start`` on."""
        rng = np.random.default_rng(3)
        od_index = tuple((f"o{i}", f"d{i}") for i in range(5))
        legs = {}
        for name, rows in (("out", [0, 3]), ("back", [1, 2, 4]), ("lone", [2])):
            member = np.isin(np.arange(5), rows)
            legs[name] = DemandLeg(name=name, od_index=od_index, flows=member * 30.0,
                                   members=tuple(od_index[i] for i in rows),
                                   shares=rng.dirichlet(np.ones(8), size=len(rows)))
        hist = rng.uniform(0.0, 20.0, (5, 5))
        relative = rng.normal(0.0, 0.5, (5, 5))
        chained = {n: np.isin(np.arange(5), leg.member_indices()) * rng.normal(30.0, 40.0, 5)
                   for n, leg in legs.items()}
        x, clamped = combined_demand(hist, relative, chained, legs, 3)
        dense = hist
        for n in chained:
            dense = dense - legs[n].flows[:, None] * legs[n].profile[:, 3:]
        dense = dense * (1.0 + relative)
        for n, v in chained.items():
            dense = dense + v[:, None] * legs[n].profile[:, 3:]
        assert clamped == int((dense < 0.0).sum()) > 0
        assert x.tobytes() == np.maximum(dense, 0.0).tobytes()

    def test_adds_leg_terms_in_the_order_of_the_deviations(self, three_roots_artifacts):
        """Three root legs share the direct commute's ODs, so the order of
        their terms shows in the last bits: the estimate is a per-leg loop
        over the dense profiles in ``chained`` order, and the reverse order
        gives other bits."""
        legs = three_roots_artifacts.history.legs
        start = 24  # 06:00, in the morning peak of the three root legs
        hist = three_roots_artifacts.history.demand.matrix[:, start:]
        rng = np.random.default_rng(11)
        relative = rng.normal(0.0, 0.2, hist.shape)
        # neither name order nor topological order; each estimate is a
        # multiple of its leg's flows, so it is zero off the leg's members
        order = ("hw_leisure", "work_home", "hw_extra", "hw_direct")
        chained = {n: rng.uniform(0.5, 1.5, len(hist)) * legs[n].flows for n in order}

        def loop(names):
            dense = hist
            for n in names:
                dense = dense - legs[n].flows[:, None] * legs[n].profile[:, start:]
            dense = dense * (1.0 + relative)
            for n in names:
                dense = dense + chained[n][:, None] * legs[n].profile[:, start:]
            return dense

        x, clamped = combined_demand(hist, relative, chained, legs, start)
        dense = loop(order)
        assert clamped == int((dense < 0.0).sum())
        assert x.tobytes() == np.maximum(dense, 0.0).tobytes()
        assert x.tobytes() != np.maximum(loop(reversed(order)), 0.0).tobytes()

    def test_writes_into_out(self):
        od_index = (("a", "b"),)
        leg = DemandLeg(name="leg", od_index=od_index, flows=np.array([50.0]),
                        members=od_index, shares=np.array([[0.2, 0.8]]))
        args = (np.array([[100.0, 80.0]]), np.array([[0.1, -0.2]]), {"leg": np.array([40.0])},
                {"leg": leg})
        day = np.full((1, 4), np.nan)
        x, clamped = combined_demand(*args, out=day[:, 1:3])
        assert np.shares_memory(x, day)
        assert day[:, 1:3].tobytes() == combined_demand(*args)[0].tobytes()
        assert np.isnan(day[:, [0, 3]]).all()

    def test_shares_must_cover_the_intervals(self):
        od_index = (("a", "b"),)
        leg = DemandLeg(name="leg", od_index=od_index, flows=np.array([50.0]),
                        members=od_index, shares=np.array([[0.2, 0.8]]))
        with pytest.raises(ConfigurationError, match="leg 'leg'"):
            combined_demand(np.zeros((1, 2)), np.zeros((1, 2)), {"leg": np.array([1.0])},
                            {"leg": leg}, 1)

    def test_clamps_negative_cells(self, caplog):
        with caplog.at_level("INFO"):
            x, clamped = combined_demand(np.array([[1.0]]), np.array([[-5.0]]), {}, {})
        assert x[0, 0] == 0.0
        assert clamped == 1

    def test_leg_without_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown legs"):
            combined_demand(np.zeros((1, 1)), np.zeros((1, 1)), {"leg": np.array([1.0])}, {})


class TestPredictHorizon:
    def test_identity_ar_carries_last_delta(self):
        hist = np.full((2, 6), 50.0)
        last = np.array([0.1, -0.2])
        x, clamped = predict_horizon(hist, last, {}, {}, (4, 6))
        assert x.shape == (2, 2)
        assert np.allclose(x[:, 0], [55.0, 40.0])
        assert np.allclose(x[:, 1], [55.0, 40.0])
        assert clamped == 0

    def test_leg_term_uses_future_profile_slice(self):
        """Over the window, the chained leg's historical demand gives way
        to its estimated flows spread over the same shares."""
        od_index = (("a", "b"),)
        shares = np.array([[0.0, 0.0, 0.25, 0.75]])
        leg = DemandLeg(name="leg", od_index=od_index, flows=np.array([50.0]),
                        members=od_index, shares=shares)
        x, _ = predict_horizon(50.0 * shares, np.array([0.5]),
                               {"leg": np.array([8.0])}, {"leg": leg}, (2, 4))
        assert np.allclose(x[0], [2.0, 6.0])

    def test_window_must_stay_inside_horizon(self):
        with pytest.raises(ConfigurationError):
            predict_horizon(np.zeros((1, 4)), np.zeros(1), {}, {}, (2, 5))

    def test_identity_carry_equals_the_product_loop(self):
        """The flat carry's one broadcast against one identity product per
        interval summed from zeros, on a last state holding 0.0 and -0.0."""
        rng = np.random.default_rng(7)
        n, n_h, window = 9, 12, (7, 12)
        last = rng.normal(0.0, 0.2, n)
        last[[1, 4]], last[[2, 6]] = 0.0, -0.0
        hist = rng.uniform(50.0, 100.0, (n, n_h))
        expected = np.zeros((n, window[1] - window[0]))
        state = last
        for j in range(expected.shape[1]):
            nxt = np.zeros(n)
            nxt += np.eye(n) @ state
            expected[:, j] = state = nxt
        x, clamped = predict_horizon(hist, last, {}, {}, window)
        ref, ref_clamped = combined_demand(hist[:, 7:], expected, {}, {})
        assert x.tobytes() == ref.tobytes()
        assert clamped == ref_clamped == 0
        assert np.array_equal(x[[1, 2, 4, 6]], hist[[1, 2, 4, 6], 7:])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_lag_state_rejected(self, value):
        """A non-finite last state would be carried into every predicted
        interval of its OD."""
        last = np.array([0.1, value])
        with pytest.raises(ConfigurationError, match="non-finite"):
            predict_horizon(np.full((2, 6), 50.0), last, {}, {}, (4, 6))

    def test_never_touches_the_loader(self):
        before = assignment_mod.load_call_count()
        predict_horizon(np.full((2, 8), 10.0), np.ones(2), {}, {}, (4, 8))
        assert assignment_mod.load_call_count() == before
