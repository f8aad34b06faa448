import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from banding import from_dense
from kalman_oracle import oracle_filter, oracle_time_update, oracle_update
from odchain import experiment as experiment_mod
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

    def test_root_is_the_cholesky_factor(self):
        """A positive definite covariance's root is its lower Cholesky
        factor, which the state keeps read-only."""
        a = np.random.default_rng(3).normal(size=(5, 5))
        cov = a @ a.T + 0.1 * np.eye(5)
        state = FilterState(mean=np.zeros(5), cov=cov)
        assert np.array_equal(state.root, np.tril(state.root))
        assert np.allclose(state.root, np.linalg.cholesky(cov), rtol=0.0, atol=1e-12)
        assert not state.root.flags.writeable

    @pytest.mark.parametrize("eigenvalues", [[2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                                             [3.0, 1.0, 0.5, -1e-10]],
                             ids=["rank-2", "zero", "inside-the-tolerance"])
    def test_a_singular_covariance_takes_a_pivoted_root(self, eigenvalues):
        """A covariance with no Cholesky factor that passes the shifted
        check gets the root of its pivoted Cholesky factorization, a root
        of it up to the negative eigenvalues left out."""
        cov = self._with_spectrum(eigenvalues, 4)
        assert kalman_mod._cholesky(cov) is None
        state = FilterState(mean=np.zeros(4), cov=cov)
        assert np.allclose(state.root @ state.root.T, cov, rtol=0.0, atol=1e-9)
        assert not state.root.flags.writeable

    @pytest.mark.parametrize("n, zero", [(3, [1]), (5, [2]), (5, [1, 4])])
    def test_a_zero_variance_row_of_the_root_is_exactly_zero(self, n, zero):
        """A zero row and column of a singular covariance, general
        elsewhere, give an exactly zero row of its root.  An eigen root
        ``V sqrt(max(w, 0))`` leaves 4e-16 to 2e-8 there in these cases."""
        a = np.random.default_rng(0).normal(size=(n, n))
        cov = a @ a.T + 0.1 * np.eye(n)
        cov[zero] = 0.0
        cov[:, zero] = 0.0
        root = FilterState(mean=np.zeros(n), cov=cov).root
        assert not root[zero].any()
        assert np.allclose(root @ root.T, cov, rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("general", [False, True], ids=["identity", "general-F"])
    def test_the_prior_covariance_is_exactly_symmetric(self, general):
        """Random P, Q asymmetric within 1e-10, and the identity or a
        general F: the prior's covariance equals its transpose exactly, and
        the prior's arrays are read-only."""
        rng = np.random.default_rng(29)
        for n in (2, 5, 17):
            for _ in range(10):
                a = rng.normal(size=(n, n))
                b = rng.normal(size=(n, n))
                Q = b @ b.T
                Q[0, -1] += 0.5e-10
                ar = ArModel(coefficients=(rng.normal(size=(n, n)),)) if general \
                    else ArModel.identity(n)
                pred = kf_time_update([FilterState(mean=rng.normal(size=n), cov=a @ a.T)], ar, Q)
                assert np.array_equal(pred.cov, pred.cov.T)
                assert not any(x.flags.writeable for x in (pred.mean, pred.cov, pred.root))

    @pytest.mark.parametrize("general", [False, True], ids=["identity", "general-F"])
    @pytest.mark.parametrize("Q, message", [
        (np.diag([1.0, -50.0]), "covariance is not positive semidefinite"),
        (np.diag([1.0, np.inf]), "covariance has non-finite entries"),
    ], ids=["indefinite", "non-finite"])
    def test_the_prior_is_checked_as_a_state(self, general, Q, message):
        """A process noise that makes the prior no covariance fails with the
        message ``FilterState`` gives it."""
        f = np.array([[1.0, 0.5], [0.0, 1.0]]) if general else np.eye(2)
        state = FilterState(mean=np.ones(2), cov=np.eye(2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            kf_time_update([state], ArModel(coefficients=(f,)), Q)


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
    @pytest.mark.parametrize("name, noise", [
        pytest.param("R", {"Q": np.eye(2), "R": np.diag([1.0, -0.5])}, id="R-negative-variance"),
        pytest.param("Q", {"Q": np.array([[1.0, 2.0], [2.0, 1.0]]), "R": np.eye(1)},
                     id="Q-indefinite"),
    ])
    def test_rejects_what_is_not_positive_semidefinite(self, name, noise):
        """An indefinite Q or R is refused where it is made, naming it, not
        mid-filter as a state's covariance."""
        with pytest.raises(ValueError, match=f"^{name} is not positive semidefinite$"):
            NoiseModel(**noise)

    def test_accepts_singular_noise(self):
        noise = NoiseModel(Q=np.zeros((2, 2)), R=np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert not noise.Q.any()

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


def _run_with_noise(Q, R):
    """A two-step run of a 2-OD state against one channel."""
    noise = NoiseModel(Q=Q, R=R)
    run_kf_sequence(lambda h, _: np.ones((1, 2)), np.zeros((1, 2)), noise,
                    init=FilterState(mean=np.zeros(2), cov=np.eye(2)))


class TestNoiseShapes:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: _run_with_noise(np.eye(1), np.eye(1)),
                     r"noise Q \(1, 1\) and R \(1, 1\) do not match 2 ODs and 1 channels",
                     id="sequence-Q-1x1"),
        pytest.param(lambda: _run_with_noise(np.eye(2), np.eye(2)),
                     r"noise Q \(2, 2\) and R \(2, 2\) do not match 2 ODs and 1 channels",
                     id="sequence-R-2x2"),
        pytest.param(lambda: kf_time_update([FilterState(mean=np.zeros(2), cov=np.eye(2))],
                                            ArModel.identity(2), np.eye(1)),
                     r"process noise \(1, 1\) and transition \(2, 2\) do not match state "
                     r"of dimension 2", id="time-update-Q-1x1"),
        pytest.param(lambda: kf_time_update([FilterState(mean=np.zeros(2), cov=np.eye(2))],
                                            ArModel(coefficients=(np.eye(3),)), np.eye(2)),
                     r"process noise \(2, 2\) and transition \(3, 3\) do not match state "
                     r"of dimension 2", id="time-update-F-3x3"),
        pytest.param(lambda: kf_measurement_update(FilterState(mean=np.zeros(2), cov=np.eye(2)),
                                                   np.ones((1, 2)), np.eye(2), np.zeros(1)),
                     r"measurement noise \(2, 2\) does not match 1 channels",
                     id="measurement-update-R-2x2"),
    ])
    def test_a_mis_shaped_noise_is_refused_naming_the_shapes(self, call, message):
        """A (1, 1) Q would be broadcast over the state, adding ``q 11'``,
        and a (2, 2) R for one channel would fail inside numpy."""
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            call()


def zero_prior(noise):
    """Interval 0's prior: zero mean, the process noise as covariance."""
    return FilterState(mean=np.zeros(noise.Q.shape[0]), cov=noise.Q)


def frozen_rows(asg, weights):
    """The provider that reads every interval's lag-summed matrix from
    ``asg``, each lag scaled by ``weights`` of the interval it reads."""
    rows = asg.lag_rows(asg.grid.n_intervals, weights)
    return lambda h, _: asg.pair_matrix(rows[h])


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

    def test_covariances_stay_symmetric_and_psd(self, toy_artifacts, monkeypatch):
        """Every posterior covariance is its root times the root's
        transpose: exactly symmetric, and positive semidefinite."""
        _, posteriors = self._recorded_toy_run(toy_artifacts, monkeypatch)
        assert len(posteriors) == 48
        for state in posteriors:
            assert symmetry_error(state.cov) == 0.0
            assert np.array_equal(state.cov, state.root @ state.root.T)
            assert min_eigenvalue(state.cov) >= -1e-8 * max(np.trace(state.cov), 1.0)

    def test_diagnostics_are_numpys_norms_and_trace(self, toy_artifacts, monkeypatch):
        """Every step's diagnostics are ``np.linalg.norm`` of its innovation,
        gain and matrix and ``np.trace`` of its posterior covariance, bit for
        bit, as Python floats."""
        asg, weights, delta_y, noise = self._toy_inputs(toy_artifacts)
        steps = []
        real = kalman_mod._update_with_gain

        def recording(pred, H, R_root, innovation):
            state, gain = real(pred, H, R_root, innovation)
            steps.append((np.linalg.norm(innovation), np.linalg.norm(gain),
                          np.trace(state.cov), np.linalg.norm(H)))
            return state, gain

        monkeypatch.setattr(kalman_mod, "_update_with_gain", recording)
        run = run_kf_sequence(frozen_rows(asg, weights), delta_y, noise, init=zero_prior(noise))
        got = [(d.innovation_norm, d.gain_norm, d.cov_trace, d.measurement_norm)
               for d in run.diagnostics]
        assert len(got) == 48 and got == steps
        assert all(type(v) is float for step in got for v in step)
        assert any(d.gain_norm > 0.0 for d in run.diagnostics)

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
        rows = frozen_rows(asg, weights)

        def H_at(h, relative):
            calls.append((h, relative.copy()))
            return rows(h, relative)

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
        rows = frozen_rows(asg, toy_artifacts.history.demand.matrix)

        def H_at(h, _):
            H = rows(h, _)
            return bad(H) if h == 2 else H

        with pytest.raises(ConfigurationError,
                           match=rf"of interval 2 is not \({n_ch}, {n_od}\)$"):
            run_kf_sequence(H_at, np.zeros((n_ch, 5)), noise, init=zero_prior(noise))

    def test_lag_terms_match_full_scan(self, toy_artifacts):
        """Against a reference filter whose measurement matrix scans every
        earlier interval's dense piece, in lag order, and updates with
        ``kf_time_update`` and ``kf_measurement_update``: deltas, the last
        covariance and every step's diagnostics bit for bit (the gain from
        ``_update_with_gain`` with R's Cholesky factor), also after the
        provider switches at step 20 to a matrix whose lagged pieces are
        nonzero where the first one's were zero."""
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
        full_rows, first_rows = frozen_rows(full, weights), frozen_rows(first, weights)
        run = run_kf_sequence(
            lambda h, _: (full_rows if h >= swap_at else first_rows)(h, _),
            delta_y, noise, init=init)

        state = init
        deltas = np.zeros((n_od, delta_y.shape[1]))
        diagnostics = []
        R_root = np.linalg.cholesky(noise.R)
        for h in range(delta_y.shape[1]):
            pieces = full_pieces if h >= swap_at else same_interval
            # every earlier interval, most of whose pieces are zero
            H = pieces[h, h] * weights[:, h]
            for lag in range(1, h + 1):
                H += pieces[h - lag, h] * weights[:, h - lag]
            prior = state if h == 0 else kf_time_update([state], ArModel.identity(n_od), noise.Q)
            state = kf_measurement_update(prior, H, noise.R, delta_y[:, h])
            innovation = delta_y[:, h] - H @ prior.mean
            _, gain = kalman_mod._update_with_gain(prior, H, R_root, innovation)
            diagnostics.append((np.linalg.norm(innovation), np.linalg.norm(gain),
                                np.trace(state.cov), np.linalg.norm(H)))
            deltas[:, h] = state.mean
        assert np.array_equal(run.deltas, deltas)
        assert np.array_equal(run.last.cov, state.cov)
        # every step's diagnostics, bit for bit
        assert [(d.innovation_norm, d.gain_norm, d.cov_trace, d.measurement_norm)
                for d in run.diagnostics] == diagnostics
        assert not np.array_equal(run.deltas, run_kf_sequence(
            frozen_rows(first, weights), delta_y, noise, init=init).deltas)


def _update_case(n, n_ch, rank, transition_rank, blind, seed):
    """A prior of ``n`` dimensions and rank ``rank`` (positive definite at
    ``rank == n``), taken through a general transition whose Q has rank
    ``transition_rank`` unless that is None, and ``n_ch`` channels whose
    counts it updates on, with a general R.  With ``blind``, about half the
    channels have a zero row of H and a zero row and column of R: they see
    nothing and add no noise, so the innovation covariance is singular,
    which the jitter retry rescues."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, rank))
    cov = a @ a.T + (0.1 * np.eye(n) if rank == n else 0.0)
    mean = rng.normal(scale=5.0, size=n)
    transition = None
    if transition_rank is not None:
        b = rng.normal(size=(n, transition_rank))
        transition = (rng.normal(size=(n, n)), b @ b.T)
    H = rng.normal(size=(n_ch, n))
    c = rng.normal(size=(n_ch, n_ch))
    R = c @ c.T + 0.1 * np.eye(n_ch)
    if blind:
        # exactly blind only where R's root has an exactly zero row there:
        # the jitter amplifies what is not by 1e9
        unseen = rng.random(n_ch) < 0.5
        H[unseen] = 0.0
        R[unseen] = 0.0
        R[:, unseen] = 0.0
    return mean, cov, transition, H, R, rng.normal(scale=5.0, size=n_ch)


@st.composite
def update_cases(draw):
    """``_update_case`` with 1-15 dimensions and 0-6 channels."""
    n = draw(st.integers(1, 15))
    return _update_case(
        n=n, n_ch=draw(st.integers(0, 6)),
        rank=draw(st.one_of(st.just(n), st.integers(0, n - 1))),
        transition_rank=draw(st.one_of(st.none(), st.integers(0, n))),
        blind=draw(st.booleans()), seed=draw(st.integers(0, 2**32 - 1)))


def _relative_error(got, want, scale):
    return float(np.abs(got - want).max(initial=0.0)) / max(scale, 1e-300)


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(update_cases())
# one blind channel of three, whose row an eigen root of R leaves at ~1e-16, not 0
@example(_update_case(n=3, n_ch=3, rank=3, transition_rank=None, blind=True, seed=51))
def test_update_matches_the_covariance_form_oracle(case):
    """The square-root update, after the time update where there is one,
    gives the covariance-form oracle's mean and covariance to 1e-10 of
    their scale, and, where there are channels, a covariance that is
    exactly its root times the root's transpose."""
    mean, cov, transition, H, R, delta_y = case
    state = FilterState(mean=mean, cov=cov)
    want_mean, want_cov = mean, cov
    if transition is not None:
        F, Q = transition
        state = kf_time_update([state], ArModel(coefficients=(F,)), Q)
        want_mean, want_cov = oracle_time_update(mean, cov, F, Q)
        assert np.array_equal(state.cov, want_cov)
    post = kf_measurement_update(state, H, R, delta_y)
    want_mean, want_cov, gain = oracle_update(want_mean, want_cov, H, R, delta_y)
    mean_scale = max(np.abs(want_mean).max(), np.abs(state.mean).max(), 1.0)
    assert _relative_error(post.mean, want_mean, mean_scale) <= 1e-10
    assert _relative_error(post.cov, want_cov, max(np.abs(state.cov).max(), 1.0)) <= 1e-10
    # with no channels the prior itself is the posterior
    assert post is state if not H.shape[0] else np.array_equal(post.cov, post.root @ post.root.T)


class TestAgainstTheOracle:
    @pytest.mark.parametrize("minutes", [15, 3])
    def test_the_toys_measured_intervals(self, toy_cfg, toy_artifacts, minutes):
        """The toy's 48 measured intervals and the 3-minute toy's 240, with
        the experiment's noise, prior and frozen rows: every posterior mean,
        the last covariance and every gain match the covariance-form oracle
        to 1e-10 of their scale."""
        cfg, artifacts = toy_cfg, toy_artifacts
        if minutes != 15:
            cfg = dataclasses.replace(toy_cfg, grid=dataclasses.replace(
                toy_cfg.grid, interval_minutes=minutes, n_intervals=480))
            artifacts = experiment_mod.generate_truth_and_history(cfg)
        cut = cfg.cutoff_index
        noise, P0, *_ = experiment_mod._noise_models(cfg, artifacts)
        delta_y = (artifacts.observed.counts - artifacts.history.load.counts.counts)[:, :cut]
        H_at = experiment_mod._frozen_rows(artifacts, cut)
        n_od = len(artifacts.od_index)
        run = run_kf_sequence(H_at, delta_y, noise, init=FilterState(mean=np.zeros(n_od), cov=P0))
        deltas, last_cov, gains = oracle_filter(
            [H_at(h, None) for h in range(cut)], delta_y, noise.Q, noise.R, np.zeros(n_od), P0)
        assert run.deltas.shape == (n_od, {15: 48, 3: 240}[minutes])
        assert _relative_error(run.deltas, deltas, np.abs(deltas).max()) <= 1e-10
        assert _relative_error(run.last.cov, last_cov, np.abs(last_cov).max()) <= 1e-10
        assert max(abs(d.gain_norm - np.linalg.norm(g)) / max(np.linalg.norm(g), 1e-300)
                   for d, g in zip(run.diagnostics, gains) if np.linalg.norm(g)) <= 1e-10
