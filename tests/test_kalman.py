import numpy as np
import pytest

from odchain.errors import ConfigurationError, NumericalError
from odchain.kalman import (
    ArModel,
    FilterState,
    NoiseModel,
    kf_initialize,
    kf_measurement_update,
    kf_time_update,
    min_eigenvalue,
    run_kf_sequence,
    symmetry_error,
)


class TestFilterState:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            FilterState(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            FilterState(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            FilterState(mean=np.zeros(2), cov=np.zeros((2, 3)))

    def test_dim(self):
        assert kf_initialize(np.zeros(3), np.eye(3)).dim == 3


class TestArModel:
    def test_identity(self):
        ar = ArModel.identity(2)
        assert ar.order == 1
        assert (ar.coefficients[0] == np.eye(2)).all()

    def test_needs_at_least_one_lag(self):
        with pytest.raises(ConfigurationError):
            ArModel(coefficients=())


class TestTimeUpdate:
    def test_scalar_closed_form(self):
        # x' = 0.5*2 = 1, P' = 0.5^2*1 + 0.1 = 0.35
        state = FilterState(mean=np.array([2.0]), cov=np.array([[1.0]]))
        ar = ArModel(coefficients=(np.array([[0.5]]),))
        pred = kf_time_update([state], ar, np.array([[0.1]]))
        assert pred.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert pred.cov[0, 0] == pytest.approx(0.35, abs=1e-12)

    def test_two_lag_combination(self):
        s1 = FilterState(mean=np.array([1.0]), cov=np.array([[0.2]]))
        s2 = FilterState(mean=np.array([3.0]), cov=np.array([[0.4]]))
        ar = ArModel(coefficients=(np.array([[0.5]]), np.array([[0.25]])))
        # lag one is the most recent state: 0.5*3 + 0.25*1 = 1.75
        pred = kf_time_update([s1, s2], ar, np.zeros((1, 1)))
        assert pred.mean[0] == pytest.approx(1.75, abs=1e-12)

    def test_too_few_states(self):
        ar = ArModel(coefficients=(np.eye(1), np.eye(1)))
        with pytest.raises(ConfigurationError):
            kf_time_update([FilterState(mean=np.zeros(1), cov=np.eye(1))], ar, np.eye(1))


class TestMeasurementUpdate:
    def test_scalar_closed_form(self):
        # K = 1/(1+1) = 0.5 -> x = 0.5*2 = 1, P = (1-0.5)*1 = 0.5
        pred = FilterState(mean=np.array([0.0]), cov=np.array([[1.0]]))
        post = kf_measurement_update(pred, np.eye(1), np.eye(1), np.array([2.0]))
        assert post.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_shape_mismatch(self):
        pred = FilterState(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ConfigurationError):
            kf_measurement_update(pred, np.zeros((1, 3)), np.eye(1), np.zeros(1))

    def test_never_increases_variance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            pred = FilterState(mean=rng.normal(size=3), cov=a @ a.T + 0.1 * np.eye(3))
            H = rng.normal(size=(2, 3))
            post = kf_measurement_update(pred, H, np.eye(2), rng.normal(size=2))
            assert np.trace(post.cov) <= np.trace(pred.cov) + 1e-9

    def test_indefinite_innovation_covariance_fails(self):
        pred = FilterState(mean=np.zeros(2), cov=np.eye(2))
        bad_r = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric but indefinite
        with pytest.raises(NumericalError):
            kf_measurement_update(pred, np.zeros((2, 2)), bad_r, np.zeros(2))

    def test_singular_but_recoverable_system(self):
        """A zero innovation covariance is rescued by the jitter retry and
        yields a vanishing gain."""
        pred = FilterState(mean=np.array([1.0]), cov=np.array([[0.0]]))
        post = kf_measurement_update(pred, np.zeros((1, 1)), np.zeros((1, 1)), np.array([5.0]))
        assert post.mean[0] == pytest.approx(1.0)

    def test_scalar_random_walk_against_closed_form(self):
        """Long random scalar filtering run against an independently written
        closed-form filter."""
        rng = np.random.default_rng(7)
        x, p = 0.3, 1.2
        state = FilterState(mean=np.array([x]), cov=np.array([[p]]))
        worst = 0.0
        for _ in range(200):
            f = rng.uniform(0.2, 1.4)
            q = rng.uniform(0.01, 0.8)
            h = rng.uniform(0.3, 2.0)
            r = rng.uniform(0.05, 1.5)
            dy = rng.normal(0.0, 2.0)
            xp, pp = f * x, f * p * f + q
            s = h * pp * h + r
            k = pp * h / s
            x, p = xp + k * (dy - h * xp), (1.0 - k * h) * pp
            ar = ArModel(coefficients=(np.array([[f]]),))
            pred = kf_time_update([state], ar, np.array([[q]]))
            state = kf_measurement_update(pred, np.array([[h]]), np.array([[r]]), np.array([dy]))
            worst = max(worst, abs(state.mean[0] - x), abs(state.cov[0, 0] - p))
        assert worst <= 1e-12


class TestNoiseModel:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            NoiseModel(Q=np.array([[1.0, 0.2], [0.0, 1.0]]), R=np.eye(1))


class TestRunSequence:
    def test_zero_innovations_keep_zero_deltas(self, toy_artifacts):
        asg = toy_artifacts.assignment
        n_od = len(asg.od_index)
        n_ch = len(asg.channels)
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        run = run_kf_sequence(asg, np.zeros((n_ch, 8)), noise)
        assert np.abs(run.deltas).max() == 0.0
        assert len(run.diagnostics) == 8

    def test_covariances_stay_symmetric_and_psd(self, toy_artifacts):
        asg = toy_artifacts.assignment
        hist = toy_artifacts.history
        delta_y = toy_artifacts.observed.counts - hist.load.counts.counts
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        noise = NoiseModel(Q=25.0 * np.eye(n_od), R=100.0 * np.eye(n_ch))
        run = run_kf_sequence(asg, delta_y[:, :48], noise)
        for state in run.states:
            assert symmetry_error(state.cov) <= 1e-10
            assert min_eigenvalue(state.cov) >= -1e-8 * max(np.trace(state.cov), 1.0)

    def test_refresh_hook_called_each_interval(self, toy_artifacts):
        asg = toy_artifacts.assignment
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        calls = []

        def hook(h, deltas):
            calls.append((h, deltas.shape))
            return asg

        run_kf_sequence(asg, np.zeros((n_ch, 5)), noise, refresh_hook=hook)
        assert [c[0] for c in calls] == [0, 1, 2, 3, 4]
        assert calls[0][1] == (n_od, 1)
        assert calls[-1][1] == (n_od, 5)

    def test_lagged_contributions_are_subtracted(self):
        """With mass split across two measurement intervals the second step
        must only explain the part not already implied by the first."""
        grid_pieces = np.zeros((2, 2, 1, 1))
        grid_pieces[0, 0, 0, 0] = 0.5
        grid_pieces[0, 1, 0, 0] = 0.5  # half of interval 0 arrives during 1
        grid_pieces[1, 1, 0, 0] = 0.5
        from odchain.assignment import AssignmentMatrix
        from odchain.network import TimeGrid
        asg = AssignmentMatrix(
            od_index=(("1", "3"),), channels=("4a",),
            grid=TimeGrid(n_intervals=2), pieces=grid_pieces,
        )
        # a huge process noise keeps both priors vague, so the measurements
        # dominate and the recovered deltas are essentially exact
        noise = NoiseModel(Q=np.array([[1e6]]), R=np.array([[1e-12]]))
        init = FilterState(mean=np.zeros(1), cov=np.array([[1e6]]))
        # a deviation of 10 in interval 0 shows up as 5 then 5
        run = run_kf_sequence(asg, np.array([[5.0, 5.0]]), noise, init=init)
        assert run.deltas[0, 0] == pytest.approx(10.0, rel=1e-6)
        # all of interval 1's observed 5 is lagged mass, so no new deviation
        assert abs(run.deltas[0, 1]) <= 1e-3

    def test_lag_terms_match_full_scan(self, toy_artifacts):
        """Against a reference that scans every earlier interval, also after
        the hook swaps in a matrix whose lagged pieces are nonzero where the
        first one's were zero."""
        full = toy_artifacts.assignment
        from odchain.assignment import AssignmentMatrix
        same_interval = np.zeros_like(full.pieces)
        for h in range(full.pieces.shape[0]):
            same_interval[h, h] = full.pieces[h, h]
        first = AssignmentMatrix(od_index=full.od_index, channels=full.channels,
                                 grid=full.grid, pieces=same_interval)
        hist = toy_artifacts.history
        delta_y = (toy_artifacts.observed.counts - hist.load.counts.counts)[:, :48]
        n_od, n_ch = len(full.od_index), len(full.channels)
        noise = NoiseModel(Q=25.0 * np.eye(n_od), R=100.0 * np.eye(n_ch))
        swap_at = 20
        run = run_kf_sequence(first, delta_y, noise,
                              refresh_hook=lambda h, _: full if h == swap_at else None)

        state = kf_initialize(np.zeros(n_od), noise.Q.copy())
        deltas = np.zeros((n_od, delta_y.shape[1]))
        asg = first
        for h in range(delta_y.shape[1]):
            prior = state if h == 0 else kf_time_update([state], ArModel.identity(n_od), noise.Q)
            lagged = np.zeros(n_ch)
            for k in range(h):
                piece = asg.pieces[k, h]
                if piece.any():
                    lagged += piece @ deltas[:, k]
            state = kf_measurement_update(prior, asg.pieces[h, h], noise.R, delta_y[:, h] - lagged)
            deltas[:, h] = state.mean
            if h == swap_at:
                asg = full
        assert np.array_equal(run.deltas, deltas)
        assert not np.array_equal(run.deltas, run_kf_sequence(first, delta_y, noise).deltas)
