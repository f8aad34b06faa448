import numpy as np
import pytest
from hypothesis import given, strategies as st

from odchain.departure import (
    ScheduleParams,
    departure_probabilities,
    schedule_disutility,
)
from odchain.errors import ConfigurationError, DegenerateProfileError
from odchain.network import TimeGrid

GRID4 = TimeGrid(start=0, interval_minutes=15, n_intervals=4)


class TestScheduleParams:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ScheduleParams(logit_scale=0.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ScheduleParams(beta=-0.1)

    def test_unusual_ordering_only_warns(self, caplog):
        with caplog.at_level("WARNING"):
            ScheduleParams(alpha=1.0, beta=2.0, gamma=0.5)
        assert any("ordering" in r.message for r in caplog.records)


class TestDisutility:
    # departing interval 3 of GRID4 means midpoint 52.5; with 20 minutes of
    # travel the arrival is 72.5

    def test_early_arrival(self):
        params = ScheduleParams(alpha=1.0, beta=0.5, gamma=2.0, preferred_arrival=102.5)
        # 1*20 + 0.5*30 = 35
        assert schedule_disutility(3, 20.0, params, GRID4) == pytest.approx(35.0, abs=1e-12)

    def test_late_arrival(self):
        params = ScheduleParams(alpha=1.0, beta=0.5, gamma=2.0, preferred_arrival=42.5)
        # 1*20 + 2*30 = 80
        assert schedule_disutility(3, 20.0, params, GRID4) == pytest.approx(80.0, abs=1e-12)

    def test_on_time_pays_only_travel(self):
        params = ScheduleParams(preferred_arrival=72.5)
        assert schedule_disutility(3, 20.0, params, GRID4) == pytest.approx(20.0)

    def test_negative_travel_time(self):
        with pytest.raises(ValueError):
            schedule_disutility(0, -1.0, ScheduleParams(), GRID4)

    def test_interval_out_of_range(self):
        with pytest.raises(IndexError):
            schedule_disutility(4, 10.0, ScheduleParams(), GRID4)


    def test_array_form_equals_scalar_calls(self):
        params = ScheduleParams(alpha=0.8, beta=0.4, gamma=2.5, preferred_arrival=40.0)
        tts = np.array([0.0, 12.5, 33.0, 7.25])
        costs = schedule_disutility(np.arange(4), tts, params, GRID4)
        assert costs.tolist() == [schedule_disutility(h, tts[h], params, GRID4) for h in range(4)]

    def test_array_form_non_finite_costs_inf(self):
        costs = schedule_disutility(
            np.arange(4), np.array([1.0, np.inf, np.nan, 2.0]), ScheduleParams(alpha=0.0), GRID4
        )
        assert np.isinf(costs[1]) and np.isinf(costs[2])
        assert np.isfinite(costs[[0, 3]]).all()

    def test_array_form_checks_every_element(self):
        with pytest.raises(ValueError):
            schedule_disutility(np.arange(4), np.array([1.0, 2.0, -0.5, 3.0]), ScheduleParams(), GRID4)
        with pytest.raises(IndexError):
            schedule_disutility(np.arange(5), np.ones(5), ScheduleParams(), GRID4)


class TestDepartureProbabilities:
    def test_two_interval_logit(self):
        """With beta=gamma=0 the cost is just alpha*tt, so travel times (0, 1)
        at unit scale give the textbook two-way softmax."""
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=2)
        params = ScheduleParams(alpha=1.0, beta=0.0, gamma=0.0, logit_scale=1.0)
        p = departure_probabilities(params, np.array([0.0, 1.0]), grid)
        assert p[0] == pytest.approx(0.7310585786300049, abs=1e-12)
        assert p[1] == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            departure_probabilities(ScheduleParams(), np.zeros(3), GRID4)

    def test_huge_costs_do_not_underflow(self):
        params = ScheduleParams(alpha=1.0, beta=0.0, gamma=0.0, logit_scale=1.0)
        p = departure_probabilities(params, np.array([0.0, 1e6, 1e6, 1e6]), GRID4)
        assert p[0] == pytest.approx(1.0)
        assert np.isfinite(p).all()

    def test_all_infinite_costs_degenerate(self):
        params = ScheduleParams(alpha=1.0, beta=0.0, gamma=0.0, logit_scale=1.0)
        with pytest.raises(DegenerateProfileError):
            departure_probabilities(params, np.full(4, np.inf), GRID4)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=4, max_size=4),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_normalization_property(self, tts, scale):
        params = ScheduleParams(logit_scale=scale)
        p = departure_probabilities(params, np.array(tts), GRID4)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (p >= 0.0).all() and (p <= 1.0).all()

    def test_peaks_near_preferred_arrival(self):
        """Free-flow commute profiles should peak at the interval whose
        midpoint-plus-travel-time lands closest to the preferred arrival."""
        grid = TimeGrid(start=0, interval_minutes=15, n_intervals=96)
        params = ScheduleParams(preferred_arrival=480.0, logit_scale=0.1)
        p = departure_probabilities(params, np.full(96, 30.0), grid)
        peak = int(np.argmax(p))
        assert abs(grid.midpoint(peak) + 30.0 - 480.0) <= 7.5
