import numpy as np
import pytest

from odchain import assignment as assignment_mod
from odchain.assignment import CumulativeMapping
from odchain.errors import ConfigurationError
from odchain.kalman import FilterState
from odchain.legfilter import (
    ChainFilterConfig,
    apply_conservation,
    attribute_interval_deviations,
    combined_demand,
    leg_time_update,
    predict_horizon,
    run_leg_chain,
    scale_factor,
)
from odchain.legs import ChainSpec, DemandLeg, build_leg_operator

OD2 = (("a", "b"), ("b", "a"))


def leg2(name, flows, members, profile=None):
    return DemandLeg(name=name, od_index=OD2, flows=np.asarray(flows, dtype=float),
                     members=members, profile=profile)


class TestAttribution:
    def test_expected_share_weights(self):
        # flows 100 each with departure shares 0.3 and 0.1 split a deviation
        # of 4 into 3 and 1
        od_index = (("a", "b"),)
        a = DemandLeg(name="a", od_index=od_index, flows=np.array([100.0]),
                      members=od_index, profile=np.array([[0.3]]))
        b = DemandLeg(name="b", od_index=od_index, flows=np.array([100.0]),
                      members=od_index, profile=np.array([[0.1]]))
        out = attribute_interval_deviations(np.array([[4.0]]), [a, b])
        assert out["a"][0] == pytest.approx(3.0, abs=1e-12)
        assert out["b"][0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_cells_dropped_with_warning(self, caplog):
        od_index = (("a", "b"),)
        a = DemandLeg(name="a", od_index=od_index, flows=np.array([100.0]),
                      members=od_index, profile=np.array([[0.0]]))
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
        inactive cells, over every column of the deviation matrix."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n_od, n_h = rng.integers(1, 5), rng.integers(1, 9)
            od_index = tuple((f"o{i}", f"d{i}") for i in range(n_od))
            legs = [
                DemandLeg(name=f"leg{j}", od_index=od_index,
                          flows=rng.choice([0.0, 1.0, 40.0], n_od) * rng.uniform(0.5, 2.0, n_od),
                          members=od_index,
                          profile=rng.uniform(size=(n_od, n_h)) * (rng.uniform(size=(n_od, n_h)) < 0.6))
                for j in range(rng.integers(1, 4))
            ]
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


class TestConservationHelpers:
    def test_scale_factor(self):
        assert scale_factor(np.array([20000.0]), [np.array([26000.0])]) == \
            pytest.approx(20000.0 / 26000.0, abs=1e-15)

    def test_scale_factor_needs_positive_feeders(self):
        with pytest.raises(ValueError):
            scale_factor(np.array([10.0]), [np.array([0.0])])

    def test_apply_conservation(self):
        out = apply_conservation(np.array([10.0, 20.0]), 2.0)
        assert np.allclose(out, [5.0, 10.0])

    def test_apply_conservation_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            apply_conservation(np.array([1.0]), 0.0)


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

    def test_missing_root_prior_rejected(self):
        chain, legs, operators, mapping, noise = two_leg_setup()
        with pytest.raises(ConfigurationError):
            run_leg_chain(
                legs, chain, operators, {}, mapping, np.array([0.0]),
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
        with pytest.raises(ConfigurationError):
            run_leg_chain(
                legs, chain, {}, {}, mapping, np.array([0.0]),
                config=ChainFilterConfig(mode="pkf"),
                leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"],
            )

    def test_unknown_leg_in_chain_rejected(self):
        chain, legs, operators, mapping, noise = two_leg_setup()
        del legs["back"]
        with pytest.raises(ConfigurationError):
            run_leg_chain(
                legs, chain, operators, {}, mapping, np.array([0.0]),
                config=ChainFilterConfig(mode="pkf"),
                leg_Q=noise["leg_Q"], root_P0=noise["root_P0"], R=noise["R"],
            )


class TestCombinedDemand:
    def test_all_three_terms(self):
        # 100 + 5 + 10*0.2 = 107
        x, clamped = combined_demand(
            np.array([[100.0]]), np.array([[5.0]]),
            {"leg": np.array([10.0])}, {"leg": np.array([[0.2]])},
        )
        assert x[0, 0] == pytest.approx(107.0, abs=1e-12)
        assert clamped == 0

    def test_clamps_negative_cells(self, caplog):
        with caplog.at_level("INFO"):
            x, clamped = combined_demand(np.array([[1.0]]), np.array([[-5.0]]), {}, {})
        assert x[0, 0] == 0.0
        assert clamped == 1

    def test_leg_without_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            combined_demand(np.zeros((1, 1)), np.zeros((1, 1)), {"leg": np.array([1.0])}, {})


class TestPredictHorizon:
    def test_identity_ar_carries_last_delta(self):
        hist = np.full((2, 6), 50.0)
        lag = np.array([3.0, -1.0])
        x, clamped = predict_horizon(hist, lag, {}, {}, (4, 6))
        assert x.shape == (2, 2)
        assert np.allclose(x[:, 0], [53.0, 49.0])
        assert np.allclose(x[:, 1], [53.0, 49.0])
        assert clamped == 0

    def test_leg_term_uses_future_profile_slice(self):
        hist = np.zeros((1, 4))
        profiles = {"leg": np.array([[0.0, 0.0, 0.25, 0.75]])}
        x, _ = predict_horizon(
            hist, np.zeros(1),
            {"leg": np.array([8.0])}, profiles, (2, 4),
        )
        assert np.allclose(x[0], [2.0, 6.0])

    def test_window_must_stay_inside_horizon(self):
        with pytest.raises(ConfigurationError):
            predict_horizon(np.zeros((1, 4)), np.zeros(1), {}, {}, (2, 5))

    def test_identity_carry_equals_the_product_loop(self):
        """The flat carry's one broadcast against one identity product per
        interval summed from zeros, on a last state holding 0.0 and -0.0.
        The historical rows under the zeros are -0.0, so a zero's sign shows
        in the demand."""
        rng = np.random.default_rng(7)
        n, n_h, window = 9, 12, (7, 12)
        lag = rng.normal(0.0, 5.0, n)
        lag[[1, 4]], lag[[2, 6]] = 0.0, -0.0
        hist = rng.uniform(50.0, 100.0, (n, n_h))
        hist[[1, 2, 4, 6]] = -0.0
        expected = np.zeros((n, window[1] - window[0]))
        last = lag
        for j in range(expected.shape[1]):
            nxt = np.zeros(n)
            nxt += np.eye(n) @ last
            expected[:, j] = last = nxt
        x, clamped = predict_horizon(hist, lag, {}, {}, window)
        ref, ref_clamped = combined_demand(hist[:, 7:], expected, {}, {})
        assert x.tobytes() == ref.tobytes()
        assert clamped == ref_clamped == 0
        assert not np.signbit(x[[2, 6]]).any()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_lag_state_rejected(self, value):
        """A non-finite last state would be carried into every predicted
        interval of its OD."""
        last = np.array([3.0, value])
        with pytest.raises(ConfigurationError, match="non-finite"):
            predict_horizon(np.full((2, 6), 50.0), last, {}, {}, (4, 6))

    def test_never_touches_the_loader(self):
        before = assignment_mod.load_call_count()
        predict_horizon(np.full((2, 8), 10.0), np.ones(2), {}, {}, (4, 8))
        assert assignment_mod.load_call_count() == before
