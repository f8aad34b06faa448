import dataclasses

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


class TestRunSequence:
    def test_zero_innovations_keep_zero_deltas(self, toy_artifacts):
        asg = toy_artifacts.assignment
        n_od = len(asg.od_index)
        n_ch = len(asg.channels)
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        run = run_kf_sequence(asg, np.zeros((n_ch, 8)), noise, init=zero_prior(noise))
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
            run_kf_sequence(asg, delta_y, noise, init=zero_prior(noise))

    @staticmethod
    def _recorded_toy_run(toy_artifacts, monkeypatch):
        """A 48-step toy run and every posterior it made, recorded through
        ``kalman._update_with_gain``, since the run keeps only the last."""
        asg = toy_artifacts.assignment
        hist = toy_artifacts.history
        delta_y = toy_artifacts.observed.counts - hist.load.counts.counts
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        noise = NoiseModel(Q=25.0 * np.eye(n_od), R=100.0 * np.eye(n_ch))
        posteriors = []
        real = kalman_mod._update_with_gain

        def recording(*args, **kwargs):
            state, gain = real(*args, **kwargs)
            posteriors.append(state)
            return state, gain

        monkeypatch.setattr(kalman_mod, "_update_with_gain", recording)
        return run_kf_sequence(asg, delta_y[:, :48], noise, init=zero_prior(noise)), posteriors

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
        assert run_kf_sequence(asg, np.zeros((n_ch, 0)), noise, init=init).last is None
        run = run_kf_sequence(asg, np.zeros((n_ch, 1)), noise, init=init)
        assert run.last is not init
        assert np.array_equal(run.last.mean, run.deltas[:, 0])

    def test_refresh_hook_called_each_interval(self, toy_artifacts):
        asg = toy_artifacts.assignment
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        calls = []

        def hook(h, deltas):
            calls.append((h, deltas.shape))
            return asg

        run_kf_sequence(asg, np.zeros((n_ch, 5)), noise, init=zero_prior(noise), refresh_hook=hook)
        assert [c[0] for c in calls] == [0, 1, 2, 3, 4]
        assert calls[0][1] == (n_od, 1)
        assert calls[-1][1] == (n_od, 5)

    @staticmethod
    def _prefix(asg, n, dense):
        return from_dense(asg.od_index, asg.channels,
                          dataclasses.replace(asg.grid, n_intervals=n), dense[:n, :n])

    def test_refresh_may_shorten_the_grid_to_the_next_interval(self, toy_artifacts):
        asg = toy_artifacts.assignment
        hist = toy_artifacts.history
        delta_y = (toy_artifacts.observed.counts - hist.load.counts.counts)[:, :48]
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        noise = NoiseModel(Q=25.0 * np.eye(n_od), R=100.0 * np.eye(n_ch))
        dense = asg.pieces
        init = zero_prior(noise)
        reference = run_kf_sequence(asg, delta_y, noise, init=init)
        shortened = run_kf_sequence(
            asg, delta_y, noise, init=init,
            refresh_hook=lambda h, _: self._prefix(asg, h + 2, dense),
        )
        assert np.array_equal(shortened.deltas, reference.deltas)
        # stopping at interval h is too short, except after the last step,
        # which nothing reads
        last = run_kf_sequence(
            asg, delta_y[:, :3], noise, init=init,
            refresh_hook=lambda h, _: self._prefix(asg, h + 1 if h == 2 else h + 2, dense),
        )
        assert np.array_equal(last.deltas, reference.deltas[:, :3])
        with pytest.raises(ConfigurationError, match="after interval 5 .*misses"):
            run_kf_sequence(
                asg, delta_y, noise, init=init,
                refresh_hook=lambda h, _: self._prefix(asg, h + 1 if h == 5 else h + 2, dense),
            )

    def test_refresh_must_keep_channels_and_timing(self, toy_artifacts):
        from odchain.assignment import AssignmentMatrix
        asg = toy_artifacts.assignment
        n_od, n_ch = len(asg.od_index), len(asg.channels)
        noise = NoiseModel(Q=np.eye(n_od), R=np.eye(n_ch))
        swapped = AssignmentMatrix(od_index=asg.od_index, channels=asg.channels[::-1],
                                   grid=asg.grid, band=asg.band, pairs=asg.pairs)
        shifted = AssignmentMatrix(od_index=asg.od_index, channels=asg.channels,
                                   grid=dataclasses.replace(asg.grid, start=15),
                                   band=asg.band, pairs=asg.pairs)
        for bad in (swapped, shifted):
            with pytest.raises(ConfigurationError, match="after interval 2 "):
                run_kf_sequence(asg, np.zeros((n_ch, 5)), noise, init=zero_prior(noise),
                                refresh_hook=lambda h, _: bad if h == 2 else None)

    def test_lagged_contributions_are_subtracted(self):
        """With mass split across two measurement intervals the second step
        must only explain the part not already implied by the first."""
        grid_pieces = np.zeros((2, 2, 1, 1))
        grid_pieces[0, 0, 0, 0] = 0.5
        grid_pieces[0, 1, 0, 0] = 0.5  # half of interval 0 arrives during 1
        grid_pieces[1, 1, 0, 0] = 0.5
        from odchain.network import TimeGrid
        asg = from_dense((("1", "3"),), ("4a",), TimeGrid(n_intervals=2), grid_pieces)
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
        full_pieces = full.pieces
        same_interval = np.zeros_like(full_pieces)
        for h in range(full_pieces.shape[0]):
            same_interval[h, h] = full_pieces[h, h]
        first = from_dense(full.od_index, full.channels, full.grid, same_interval)
        # the swapped-in matrix brings its own band width
        assert (first.band.shape[1], full.band.shape[1]) == (1, 2)
        hist = toy_artifacts.history
        delta_y = (toy_artifacts.observed.counts - hist.load.counts.counts)[:, :48]
        n_od, n_ch = len(full.od_index), len(full.channels)
        noise = NoiseModel(Q=25.0 * np.eye(n_od), R=100.0 * np.eye(n_ch))
        swap_at = 20
        init = zero_prior(noise)
        run = run_kf_sequence(first, delta_y, noise, init=init,
                              refresh_hook=lambda h, _: full if h == swap_at else None)

        state = init
        deltas = np.zeros((n_od, delta_y.shape[1]))
        diagnostics = []
        pieces = same_interval
        for h in range(delta_y.shape[1]):
            prior = state if h == 0 else kf_time_update([state], ArModel.identity(n_od), noise.Q)
            lagged = np.zeros(n_ch)
            for k in range(h):
                piece = pieces[k, h]
                if piece.any():
                    lagged += piece @ deltas[:, k]
            state = kf_measurement_update(prior, pieces[h, h], noise.R, delta_y[:, h] - lagged)
            innovation = delta_y[:, h] - lagged - pieces[h, h] @ prior.mean
            _, gain = kalman_mod._update_with_gain(prior, pieces[h, h], noise.R, innovation)
            diagnostics.append((np.linalg.norm(innovation), np.linalg.norm(gain),
                                np.trace(state.cov), state.cov_symmetry_error,
                                np.linalg.eigvalsh(state.cov).min()))
            deltas[:, h] = state.mean
            if h == swap_at:
                pieces = full_pieces
        assert np.array_equal(run.deltas, deltas)
        # every step's five diagnostics, bit for bit
        assert [(d.innovation_norm, d.gain_norm, d.cov_trace, d.cov_symmetry_error,
                 d.cov_min_eigenvalue) for d in run.diagnostics] == diagnostics
        assert not np.array_equal(run.deltas, run_kf_sequence(first, delta_y, noise, init=init).deltas)
