import numpy as np
import pytest

from banding import from_dense
from odchain import kalman as kalman_mod
from odchain.errors import ConfigurationError, NumericalError
from odchain.kalman import (
    ArModel,
    FilterState,
    NoiseModel,
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
        assert FilterState(mean=np.zeros(3), cov=np.eye(3)).dim == 3

    def test_views_the_callers_arrays(self):
        """The state holds read-only views, not copies, and leaves the
        caller's arrays writable."""
        mean, cov = np.zeros(2), np.eye(2)
        state = FilterState(mean=mean, cov=cov)
        mean[0] = cov[1, 1] = 3.0
        assert state.mean[0] == state.cov[1, 1] == 3.0
        assert np.shares_memory(state.mean, mean) and np.shares_memory(state.cov, cov)
        assert not (state.mean.flags.writeable or state.cov.flags.writeable)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mean(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            FilterState(mean=np.array([0.0, value]), cov=np.eye(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("cells", [[(0, 0)], [(1, 1)], [(0, 1)], [(0, 1), (1, 0)]])
    def test_rejects_non_finite_covariance(self, value, cells):
        cov = np.eye(2)
        for cell in cells:
            cov[cell] = value
        with pytest.raises(ValueError, match="non-finite"):
            FilterState(mean=np.zeros(2), cov=cov)

    @staticmethod
    def _with_spectrum(eigenvalues, seed):
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigenvalues),) * 2))
        cov = q @ np.diag(eigenvalues) @ q.T
        return 0.5 * (cov + cov.T)

    @pytest.mark.parametrize("positive", [[0.3, 0.2, 0.1], [50.0, 20.0, 5.0]],
                             ids=["trace-below-1", "trace-above-1"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_psd_verdict_at_the_tolerance(self, positive, seed):
        """Eigenvalues a tenth of the tolerance below zero pass, ten times it fail."""
        tol = 1e-8 * max(sum(positive), 1.0)
        inside = self._with_spectrum([*positive, -0.1 * tol], seed)
        outside = self._with_spectrum([*positive, -10.0 * tol], seed)
        assert min_eigenvalue(inside) < 0.0
        FilterState(mean=np.zeros(4), cov=inside)
        with pytest.raises(ValueError, match="positive semidefinite"):
            FilterState(mean=np.zeros(4), cov=outside)


class TestArModel:
    def test_identity(self):
        ar = ArModel.identity(2)
        assert len(ar.coefficients) == 1
        assert (ar.coefficients[0] == np.eye(2)).all()
        assert ar.is_identity

    @pytest.mark.parametrize("coefficients", [
        (np.diag([1.0, 0.5]),), (np.eye(2)[::-1],), (np.array([[0.5]]),),
    ])
    def test_only_a_single_identity_lag_is_the_identity(self, coefficients):
        assert not ArModel(coefficients=coefficients).is_identity

    def test_views_the_callers_matrix(self):
        f = np.eye(2)
        ar = ArModel(coefficients=(f,))
        f[0, 1] = 0.5
        assert ar.coefficients[0][0, 1] == 0.5 and np.shares_memory(ar.coefficients[0], f)
        assert not ar.coefficients[0].flags.writeable

    def test_needs_at_least_one_lag(self):
        with pytest.raises(ConfigurationError, match="one matrix, got 0"):
            ArModel(coefficients=())

    def test_takes_exactly_one_matrix(self):
        with pytest.raises(ConfigurationError, match="one matrix, got 2"):
            ArModel(coefficients=(np.eye(2), np.eye(2)))

    def test_matrix_must_be_square(self):
        with pytest.raises(ConfigurationError, match="square"):
            ArModel(coefficients=(np.ones((2, 3)),))


class TestTimeUpdate:
    def test_scalar_closed_form(self):
        # x' = 0.5*2 = 1, P' = 0.5^2*1 + 0.1 = 0.35
        state = FilterState(mean=np.array([2.0]), cov=np.array([[1.0]]))
        ar = ArModel(coefficients=(np.array([[0.5]]),))
        pred = kf_time_update([state], ar, np.array([[0.1]]))
        assert pred.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert pred.cov[0, 0] == pytest.approx(0.35, abs=1e-12)

    def test_too_few_states(self):
        with pytest.raises(ConfigurationError, match="needs a posterior"):
            kf_time_update([], ArModel.identity(1), np.eye(1))

    @pytest.mark.parametrize("n", [1, 3, 12, 42])
    def test_transition_equals_the_products(self, n):
        """A transition other than the identity gives ``F x`` and the
        symmetrized ``Q + F P F'``, bit for bit, signed zeros included."""
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, n))
            f = rng.normal(size=(n, n))
            f[rng.random((n, n)) < 0.5] = 0.0
            mean = rng.normal(scale=50.0, size=n)
            mean[rng.random(n) < 0.3] = -0.0
            state = FilterState(mean=mean, cov=a @ a.T)
            Q = b @ b.T
            ar = ArModel(coefficients=(f,))
            assert not ar.is_identity
            pred = kf_time_update([state], ar, Q)
            ref_cov = Q + f @ state.cov @ f.T
            assert pred.mean.tobytes() == (f @ state.mean).tobytes()
            assert pred.cov.tobytes() == (0.5 * (ref_cov + ref_cov.T)).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 12, 42])
    def test_identity_random_walk_equals_the_products(self, n):
        """The random walk's shortcut gives what ``F x`` and ``Q + F P F'``
        give with ``F = I``, bit for bit, signed zeros included."""
        rng = np.random.default_rng(n)
        eye = np.eye(n)
        for _ in range(20):
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, n))
            mean = rng.normal(scale=50.0, size=n)
            mean[rng.random(n) < 0.3] = -0.0
            state = FilterState(mean=mean, cov=a @ a.T)
            Q = b @ b.T
            Q[0, -1] += 1e-12 * np.abs(Q).max()  # asymmetric within tolerance
            pred = kf_time_update([state], ArModel.identity(n), Q)
            ref_mean = np.zeros(n)
            ref_mean += eye @ state.mean
            ref_cov = Q.copy()
            ref_cov += eye @ state.cov @ eye.T
            assert pred.mean.tobytes() == ref_mean.tobytes()
            assert pred.cov.tobytes() == (0.5 * (ref_cov + ref_cov.T)).tobytes()


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

    def test_no_channels_leave_the_prior(self):
        pred = FilterState(mean=np.array([1.0, -2.0]), cov=np.eye(2))
        post = kf_measurement_update(pred, np.zeros((0, 2)), np.zeros((0, 0)), np.zeros(0))
        assert np.array_equal(post.mean, pred.mean)
        assert np.array_equal(post.cov, pred.cov)

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
    def test_views_the_callers_matrices(self):
        q, r = np.eye(2), np.eye(1)
        noise = NoiseModel(Q=q, R=r)
        q[0, 0] = r[0, 0] = 4.0
        assert noise.Q[0, 0] == noise.R[0, 0] == 4.0
        assert np.shares_memory(noise.Q, q) and np.shares_memory(noise.R, r)
        assert not (noise.Q.flags.writeable or noise.R.flags.writeable)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            NoiseModel(Q=np.array([[1.0, 0.2], [0.0, 1.0]]), R=np.eye(1))

    @pytest.mark.parametrize("name", ["Q", "R"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, name, value):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = value
        noise = {"Q": np.eye(2), "R": np.eye(2), name: m}
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            NoiseModel(**noise)


def zero_prior(noise):
    """Interval 0's prior: zero mean, the process noise as covariance."""
    return FilterState(mean=np.zeros(noise.Q.shape[0]), cov=noise.Q)


def frozen_rows(asg, weights):
    """The provider that reads every interval's lag-summed matrix from
    ``asg``, each lag scaled by ``weights`` of the interval it reads."""
    return lambda h, _: asg.lag_summed(h, weights)


class TestRunSequence:
    def test_zero_innovations_keep_zero_deltas(self, toy_artifacts):
        asg = toy_artifacts.assignment
        n_od = len(asg.od_index)
        n_ch = len(asg.channels)
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        weights = toy_artifacts.history.demand.matrix
        run = run_kf_sequence(frozen_rows(asg, weights), np.zeros((n_ch, 8)), noise,
                              init=zero_prior(noise))
        assert np.abs(run.deltas).max() == 0.0
        assert len(run.diagnostics) == 8

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_count_deviations_rejected(self, toy_artifacts, value):
        asg = toy_artifacts.assignment
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        delta_y = np.zeros((n_ch, 8))
        delta_y[0, 3] = delta_y[-1, 5] = value
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        with pytest.raises(ConfigurationError, match="2 non-finite"):
            run_kf_sequence(frozen_rows(asg, toy_artifacts.history.demand.matrix), delta_y,
                            noise, init=zero_prior(noise))

    @staticmethod
    def _toy_inputs(toy_artifacts):
        """The toy's frozen matrix, its historical demand as the lags'
        weights, its 48 measured count deviations and a noise model on the
        relative state."""
        asg = toy_artifacts.assignment
        hist = toy_artifacts.history
        delta_y = (toy_artifacts.observed.counts - hist.load.counts.counts)[:, :48]
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        return (asg, hist.demand.matrix, delta_y,
                NoiseModel(Q=0.01 * np.eye(n_od), R=100.0 * np.eye(n_ch)))

    def _recorded_toy_run(self, toy_artifacts, monkeypatch):
        """A 48-step toy run and every posterior it made, recorded through
        ``kalman._update_with_gain``, since the run keeps only the last."""
        asg, weights, delta_y, noise = self._toy_inputs(toy_artifacts)
        posteriors = []
        real = kalman_mod._update_with_gain

        def recording(*args, **kwargs):
            state, gain = real(*args, **kwargs)
            posteriors.append(state)
            return state, gain

        monkeypatch.setattr(kalman_mod, "_update_with_gain", recording)
        run = run_kf_sequence(frozen_rows(asg, weights), delta_y, noise, init=zero_prior(noise))
        return run, posteriors

    def test_min_eigenvalue_diagnostic_is_the_posterior_spectrum(self, toy_artifacts, monkeypatch):
        run, posteriors = self._recorded_toy_run(toy_artifacts, monkeypatch)
        assert len(run.diagnostics) == len(posteriors) == 48
        for diag, state in zip(run.diagnostics, posteriors):
            assert diag.cov_min_eigenvalue == np.linalg.eigvalsh(state.cov).min()

    def test_covariances_stay_symmetric_and_psd(self, toy_artifacts, monkeypatch):
        _, posteriors = self._recorded_toy_run(toy_artifacts, monkeypatch)
        assert len(posteriors) == 48
        for state in posteriors:
            assert symmetry_error(state.cov) <= 1e-10
            assert min_eigenvalue(state.cov) >= -1e-8 * max(np.trace(state.cov), 1.0)

    def test_last_is_the_last_posterior(self, toy_artifacts, monkeypatch):
        run, posteriors = self._recorded_toy_run(toy_artifacts, monkeypatch)
        assert len(posteriors) == 48
        assert run.last is posteriors[47]
        assert np.array_equal(run.deltas[:, -1], run.last.mean)

    def test_time_update_is_the_modules_identity_random_walk(self, toy_artifacts, monkeypatch):
        """Every step after the first calls ``kalman.kf_time_update``, looked
        up on the module, with the identity transition: 47 calls in a 48-step
        toy run, which the covariance acceptance test counts."""
        real = kalman_mod.kf_time_update
        transitions = []

        def counting(states, ar, Q):
            transitions.append(ar)
            return real(states, ar, Q)

        monkeypatch.setattr(kalman_mod, "kf_time_update", counting)
        run, _ = self._recorded_toy_run(toy_artifacts, monkeypatch)
        assert len(run.diagnostics) == 48
        assert len(transitions) == 47
        assert all(isinstance(ar, ArModel) and ar.is_identity for ar in transitions)

    def test_a_run_shorter_than_the_lag_window_keeps_only_posteriors(self, toy_artifacts):
        """A run of no steps has no last posterior, and interval 0's prior
        is never kept as one."""
        asg = toy_artifacts.assignment
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        init = FilterState(mean=np.full(n_od, 7.0), cov=np.eye(n_od))
        H_at = frozen_rows(asg, toy_artifacts.history.demand.matrix)
        assert run_kf_sequence(H_at, np.zeros((n_ch, 0)), noise, init=init).last is None
        run = run_kf_sequence(H_at, np.zeros((n_ch, 1)), noise, init=init)
        assert run.last is not init
        assert np.array_equal(run.last.mean, run.deltas[:, 0])

    def test_rows_are_asked_for_once_per_step(self, toy_artifacts):
        """Step h asks for its measurement matrix once, with the (n_od, h)
        posterior means of the intervals before it."""
        asg, weights, delta_y, noise = self._toy_inputs(toy_artifacts)
        calls = []

        def H_at(h, relative):
            calls.append((h, relative.copy()))
            return asg.lag_summed(h, weights)

        run = run_kf_sequence(H_at, delta_y, noise, init=zero_prior(noise))
        assert [h for h, _ in calls] == list(range(48))
        for h, relative in calls:
            assert relative.shape == (len(asg.od_index), h)
            assert np.array_equal(relative, run.deltas[:, :h])
        assert np.abs(run.deltas).max() > 0.0

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda H: H[:-1], id="a-channel-short"),
        pytest.param(lambda H: H[:, :-1], id="an-od-short"),
        pytest.param(lambda H: np.stack([H, H]), id="per-lag"),
        pytest.param(lambda H: H[0], id="no-lag-axis"),
    ])
    def test_rows_must_map_the_state_to_the_channels(self, toy_artifacts, bad):
        """A measurement matrix that is not (channels, ODs), per-lag rows
        among them, is rejected, naming the interval."""
        asg = toy_artifacts.assignment
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        weights = toy_artifacts.history.demand.matrix

        def H_at(h, _):
            H = asg.lag_summed(h, weights)
            return bad(H) if h == 2 else H

        with pytest.raises(ConfigurationError,
                           match=rf"of interval 2 is not \({n_ch}, {n_od}\)$"):
            run_kf_sequence(H_at, np.zeros((n_ch, 5)), noise, init=zero_prior(noise))

    def test_lag_terms_match_full_scan(self, toy_artifacts):
        """Against a reference filter whose measurement matrix scans every
        earlier interval's dense piece, in lag order, and updates with
        ``kf_time_update`` and ``kf_measurement_update``: deltas and every
        step's diagnostics bit for bit, also after the provider switches at
        step 20 to a matrix whose lagged pieces are nonzero where the first
        one's were zero."""
        full, weights, delta_y, noise = self._toy_inputs(toy_artifacts)
        full_pieces = full.pieces
        same_interval = np.zeros_like(full_pieces)
        for h in range(full_pieces.shape[0]):
            same_interval[h, h] = full_pieces[h, h]
        first = from_dense(full.od_index, full.channels, full.grid, same_interval)
        # the matrix switched to brings its own band width
        assert (first.band.shape[1], full.band.shape[1]) == (1, 2)
        n_od = len(full.od_index)
        swap_at = 20
        init = zero_prior(noise)
        run = run_kf_sequence(
            lambda h, _: (full if h >= swap_at else first).lag_summed(h, weights),
            delta_y, noise, init=init)

        state = init
        deltas = np.zeros((n_od, delta_y.shape[1]))
        diagnostics = []
        for h in range(delta_y.shape[1]):
            pieces = full_pieces if h >= swap_at else same_interval
            # every earlier interval, most of whose pieces are zero
            H = pieces[h, h] * weights[:, h]
            for lag in range(1, h + 1):
                H += pieces[h - lag, h] * weights[:, h - lag]
            prior = state if h == 0 else kf_time_update([state], ArModel.identity(n_od), noise.Q)
            state = kf_measurement_update(prior, H, noise.R, delta_y[:, h])
            innovation = delta_y[:, h] - H @ prior.mean
            _, gain = kalman_mod._update_with_gain(prior, H, noise.R, innovation)
            diagnostics.append((np.linalg.norm(innovation), np.linalg.norm(gain),
                                np.trace(state.cov), state.cov_symmetry_error,
                                np.linalg.eigvalsh(state.cov).min(), np.linalg.norm(H)))
            deltas[:, h] = state.mean
        assert np.array_equal(run.deltas, deltas)
        # every step's five diagnostics and the measurement norm, bit for bit
        assert [(d.innovation_norm, d.gain_norm, d.cov_trace, d.cov_symmetry_error,
                 d.cov_min_eigenvalue, d.measurement_norm) for d in run.diagnostics] == diagnostics
        assert not np.array_equal(run.deltas, run_kf_sequence(
            frozen_rows(first, weights), delta_y, noise, init=init).deltas)
