"""Linear filtering of OD-demand deviations against detector counts.

The state of interval h is the deviation of its OD departures from the
historical matrix.  Deviations follow an autoregressive process across
intervals (identity random walk by default); counts observed at h are a
linear function of the deviations of intervals k <= h through the assignment
pieces.  The sequence runner handles those lags by subtracting the
contribution of already-estimated intervals at their posterior means, leaving
the same-interval piece as the measurement matrix.  Only the earlier
intervals whose pieces reach h are visited, found in one scan per interval.

Gains are computed through Cholesky solves of the innovation covariance, with
a trace-scaled jitter retry; covariances are re-symmetrized after every
update so they stay usable over long horizons.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .assignment import AssignmentMatrix
from .errors import ConfigurationError, NumericalError

logger = logging.getLogger(__name__)

#: Relative jitter added to a Cholesky factorization that failed.
JITTER_SCALE = 1e-9


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def symmetry_error(m: np.ndarray) -> float:
    return float(np.abs(m - m.T).max()) if m.size else 0.0


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m).min()) if m.size else 0.0


@dataclass(frozen=True)
class FilterState:
    """Mean and covariance of one deviation state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"covariance {cov.shape} does not match state of dimension {n}")
        scale = max(1.0, float(np.abs(cov).max())) if cov.size else 1.0
        if symmetry_error(cov) > 1e-10 * scale:
            raise ValueError("covariance is not symmetric")
        trace = float(np.trace(cov))
        if cov.size and min_eigenvalue(cov) < -1e-8 * max(trace, 1.0):
            raise ValueError("covariance is not positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class NoiseModel:
    """Process and measurement noise covariances."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        for name in ("Q", "R"):
            m = np.asarray(getattr(self, name), dtype=float)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square")
            if symmetry_error(m) > 1e-10 * max(1.0, float(np.abs(m).max())):
                raise ValueError(f"{name} is not symmetric")


@dataclass(frozen=True)
class ArModel:
    """Autoregressive transition: coefficient matrices for lags 1..T."""

    coefficients: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ConfigurationError("autoregression needs at least one lag")
        frozen = []
        n = None
        for f in self.coefficients:
            m = np.asarray(f, dtype=float)
            m.setflags(write=False)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ConfigurationError("autoregression coefficients must be square")
            if n is None:
                n = m.shape[0]
            elif m.shape[0] != n:
                raise ConfigurationError("autoregression coefficients disagree on dimension")
            frozen.append(m)
        object.__setattr__(self, "coefficients", tuple(frozen))

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @classmethod
    def identity(cls, n: int) -> "ArModel":
        return cls((np.eye(n),))


def kf_initialize(x0: np.ndarray, P0: np.ndarray) -> FilterState:
    """Validated initial state; rejects asymmetric or indefinite covariances."""
    return FilterState(mean=x0, cov=P0)


def kf_time_update(states: Sequence[FilterState], ar: ArModel, Q: np.ndarray) -> FilterState:
    """Autoregressive prediction from the most recent posteriors.

    ``states`` holds the lag history ordered oldest first; the last entry is
    lag one.  Cross-covariances between distinct lags are neglected, which is
    exact for a single lag.

    Raises:
        ConfigurationError: if fewer states than lags are supplied.
    """
    if len(states) < ar.order:
        raise ConfigurationError(
            f"time update needs {ar.order} lagged states, got {len(states)}"
        )
    n = states[-1].dim
    mean = np.zeros(n)
    cov = np.asarray(Q, dtype=float).copy()
    for lag, f in enumerate(ar.coefficients, start=1):
        s = states[-lag]
        mean += f @ s.mean
        cov += f @ s.cov @ f.T
    return FilterState(mean=mean, cov=_symmetrize(cov))


def _solve_spd(s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve s @ x = rhs for symmetric positive definite s, with jitter retry."""
    try:
        factor = scipy.linalg.cho_factor(s, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_SCALE * max(float(np.trace(s)), 1.0)
    bumped = s + jitter * np.eye(s.shape[0])
    try:
        factor = scipy.linalg.cho_factor(bumped, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is not positive definite even with jitter {jitter:g} "
            f"(trace {float(np.trace(s)):g})"
        ) from exc
    logger.debug("innovation covariance needed jitter %g", jitter)
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def _update_with_gain(
    pred: FilterState, H: np.ndarray, R: np.ndarray, delta_y: np.ndarray
) -> tuple[FilterState, np.ndarray]:
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    delta_y = np.asarray(delta_y, dtype=float).reshape(-1)
    if H.shape != (delta_y.shape[0], pred.dim):
        raise ConfigurationError(
            f"measurement matrix {H.shape} does not map state {pred.dim} to {delta_y.shape[0]} channels"
        )
    hp = H @ pred.cov
    s = _symmetrize(hp @ H.T + R)
    gain = _solve_spd(s, hp).T  # K = P H' S^-1 via S K' = H P
    innovation = delta_y - H @ pred.mean
    mean = pred.mean + gain @ innovation
    cov = _symmetrize(pred.cov - gain @ hp)
    return FilterState(mean=mean, cov=cov), gain


def kf_measurement_update(
    pred: FilterState, H: np.ndarray, R: np.ndarray, delta_y: np.ndarray
) -> FilterState:
    """Condition the predicted state on an observed count deviation.

    Standard update with gain K = P H' (H P H' + R)^-1 computed via a
    Cholesky solve (never an explicit inverse); the posterior covariance
    P - K H P is re-symmetrized.
    """
    state, _ = _update_with_gain(pred, H, R, delta_y)
    return state


@dataclass
class KfStepDiagnostics:
    interval: int
    innovation_norm: float
    gain_norm: float
    cov_trace: float
    cov_symmetry_error: float
    cov_min_eigenvalue: float


@dataclass
class KfRun:
    """Output of a filtering sweep: posteriors and per-step diagnostics."""

    deltas: np.ndarray  # (n_od, n_steps) posterior means
    states: list[FilterState] = field(default_factory=list)
    diagnostics: list[KfStepDiagnostics] = field(default_factory=list)


def run_kf_sequence(
    assignment: AssignmentMatrix,
    delta_y: np.ndarray,
    noise: NoiseModel,
    *,
    ar: ArModel | None = None,
    init: FilterState | None = None,
    n_steps: int | None = None,
    refresh_hook: Callable[[int, np.ndarray], AssignmentMatrix | None] | None = None,
) -> KfRun:
    """Filter count deviations interval by interval.

    ``delta_y`` is (n_channels, n_steps): observed minus historical counts.
    For each interval the contribution of earlier intervals' posterior means
    is subtracted from the deviation and the same-interval assignment piece
    acts as the measurement matrix.  ``refresh_hook`` may supply a rebuilt
    assignment matrix after each interval (and is otherwise ignored).

    The initial state is interval 0's prior (zero mean by default).
    """
    n_od = len(assignment.od_index)
    n_ch = len(assignment.channels)
    delta_y = np.asarray(delta_y, dtype=float)
    if n_steps is None:
        n_steps = delta_y.shape[1]
    if delta_y.shape[0] != n_ch or delta_y.shape[1] < n_steps:
        raise ConfigurationError(
            f"count deviations {delta_y.shape} do not cover {n_ch} channels x {n_steps} steps"
        )
    if n_steps > assignment.grid.n_intervals:
        raise ConfigurationError("more steps than grid intervals")
    ar = ar or ArModel.identity(n_od)
    if init is None:
        init = kf_initialize(np.zeros(n_od), noise.Q.copy())

    run = KfRun(deltas=np.zeros((n_od, n_steps)))
    history: list[FilterState] = [init]
    for h in range(n_steps):
        if h == 0:
            prior = init
        else:
            prior = kf_time_update(history, ar, noise.Q)
        lagged = np.zeros(n_ch)
        reaching = assignment.pieces[:h, h].any(axis=(1, 2))
        for k in np.flatnonzero(reaching):
            lagged += assignment.pieces[k, h] @ run.deltas[:, k]
        H = assignment.pieces[h, h]
        post, gain = _update_with_gain(prior, H, noise.R, delta_y[:, h] - lagged)
        run.deltas[:, h] = post.mean
        history.append(post)
        if len(history) > ar.order:
            del history[: len(history) - ar.order]
        innovation = delta_y[:, h] - lagged - H @ prior.mean
        run.diagnostics.append(
            KfStepDiagnostics(
                interval=h,
                innovation_norm=float(np.linalg.norm(innovation)),
                gain_norm=float(np.linalg.norm(gain)),
                cov_trace=float(np.trace(post.cov)),
                cov_symmetry_error=symmetry_error(post.cov),
                cov_min_eigenvalue=min_eigenvalue(post.cov),
            )
        )
        run.states.append(post)
        if refresh_hook is not None:
            refreshed = refresh_hook(h, run.deltas[:, : h + 1])
            if refreshed is not None:
                assignment = refreshed
    return run
