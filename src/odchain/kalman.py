"""Linear filtering of OD-demand deviations against detector counts.

The state of interval h is the deviation of its OD departures from the
historical matrix.  The identity random walk carries it to the next interval
(prior covariance ``P + Q``); counts observed at h are a linear function of
the deviations of intervals k <= h through the assignment pieces.  The
sequence runner handles those lags by subtracting the contribution of
already-estimated intervals at their posterior means, leaving the
same-interval piece as the measurement matrix.  Only the L intervals
before h, whose departures can still be counted at h, are visited, and only
their pieces are expanded from the assignment's band, which holds the
crossed (channel, OD) pairs alone, into dense matrices.

Gains are computed through Cholesky solves of the innovation covariance, with
a trace-scaled jitter retry; covariances are re-symmetrized after every
update so they stay usable over long horizons.

Every state is checked on construction: finite entries, a symmetric
covariance, and positive semidefiniteness up to ``1e-8 * max(trace, 1)``,
decided by a Cholesky factorization of the covariance shifted by that bound.
Eigenvalues are computed only for the per-step ``cov_min_eigenvalue``
diagnostic of the sequence runner, once per filtered interval.

A sequence run keeps what is read after it: every posterior mean, every
step's diagnostics, and only the last posterior, the one state that the time
update reads during the run and prediction reads after it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .assignment import AssignmentMatrix
from .errors import ConfigurationError, NumericalError
from .network import read_only_view

logger = logging.getLogger(__name__)

#: Relative jitter added to a Cholesky factorization that failed.
JITTER_SCALE = 1e-9

#: Relative bound below which a covariance eigenvalue counts as negative.
PSD_TOLERANCE = 1e-8

# The LAPACK routines behind scipy.linalg.cho_factor / cho_solve, called
# directly: the wrappers cost more than the factorization at these sizes.
_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def symmetry_error(m: np.ndarray) -> float:
    return float(np.abs(m - m.T).max()) if m.size else 0.0


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m).min()) if m.size else 0.0


def _cholesky(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, or None if ``m`` is not positive definite."""
    factor, info = _potrf(m, lower=True, clean=False)
    if info < 0:
        raise ValueError(f"LAPACK potrf: illegal value in argument {-info}")
    return factor if info == 0 else None


@dataclass(frozen=True)
class FilterState:
    """Mean and covariance of one deviation state.

    Raises ``ValueError`` unless the mean and covariance are finite, the
    covariance is symmetric to ``1e-10`` of its largest entry, and no
    eigenvalue lies below ``-1e-8 * max(trace, 1)``.  The last is decided by
    whether ``cov + 1e-8 * max(trace, 1) * I`` has a Cholesky factor, which
    gives the eigenvalue verdict up to roundoff at the boundary without an
    eigendecomposition.  ``cov_symmetry_error`` keeps the symmetry error
    measured on the way.  ``mean`` and ``cov`` are read-only views of the
    arrays given; float arrays are not copied.
    """

    mean: np.ndarray
    cov: np.ndarray
    cov_symmetry_error: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = read_only_view(self.mean).reshape(-1)
        cov = read_only_view(self.cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"covariance {cov.shape} does not match state of dimension {n}")
        if not np.isfinite(mean).all():
            raise ValueError("state mean has non-finite entries")
        if not np.isfinite(cov).all():
            raise ValueError("covariance has non-finite entries")
        asymmetry = symmetry_error(cov)
        object.__setattr__(self, "cov_symmetry_error", asymmetry)
        if not cov.size:
            return
        if asymmetry > 1e-10 * max(1.0, float(np.abs(cov).max())):
            raise ValueError("covariance is not symmetric")
        shifted = cov.copy()
        shifted.reshape(-1)[:: n + 1] += PSD_TOLERANCE * max(float(cov.trace()), 1.0)
        if _cholesky(shifted) is None:
            raise ValueError("covariance is not positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class NoiseModel:
    """Process and measurement noise covariances, read-only views of the
    arrays given; float arrays are not copied."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        for name in ("Q", "R"):
            m = read_only_view(getattr(self, name))
            object.__setattr__(self, name, m)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square")
            if not np.isfinite(m).all():
                raise ValueError(f"{name} has non-finite entries")
            if symmetry_error(m) > 1e-10 * max(1.0, float(np.abs(m).max())):
                raise ValueError(f"{name} is not symmetric")


@dataclass(frozen=True)
class ArModel:
    """Transition of the interval deviation, ``x_{h+1} = F x_h`` plus noise.

    Built as ``ArModel(coefficients=(F,))`` from one square matrix F.
    ``is_identity`` is set on construction: F is the identity, the random
    walk the sequence filter runs, which the time update applies without
    matrix products.  A general F stays in ``kf_time_update``'s contract,
    which the scalar closed-form acceptance test runs with F != 1.  F is a
    read-only view of the array given; a float array is not copied.
    """

    coefficients: tuple[np.ndarray, ...]
    is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.coefficients) != 1:
            raise ConfigurationError(f"the transition takes one matrix, got {len(self.coefficients)}")
        m = read_only_view(self.coefficients[0])
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("the transition matrix must be square")
        object.__setattr__(self, "coefficients", (m,))
        object.__setattr__(self, "is_identity", np.array_equal(m, np.eye(m.shape[0])))

    @classmethod
    def identity(cls, n: int) -> "ArModel":
        return cls((np.eye(n),))


def kf_time_update(states: Sequence[FilterState], ar: ArModel, Q: np.ndarray) -> FilterState:
    """Prior of the next interval from the last posterior, ``states[-1]``.

    The prior is ``F x`` with covariance ``Q + F P F'``.  The identity random
    walk is applied as ``Q + P`` and ``P``'s mean, which is what the products
    give bit for bit: the identity's zeros add only ``0.0`` terms.

    Raises:
        ConfigurationError: if ``states`` is empty.
    """
    if not states:
        raise ConfigurationError("time update needs a posterior")
    s = states[-1]
    Q = np.asarray(Q, dtype=float)
    if ar.is_identity:
        # + 0.0 turns -0.0 into 0.0, as the identity's products summed from zero do
        return FilterState(mean=s.mean + 0.0, cov=_symmetrize(Q + s.cov))
    f = ar.coefficients[0]
    return FilterState(mean=f @ s.mean, cov=_symmetrize(Q + f @ s.cov @ f.T))


def _solve_spd(s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve s @ x = rhs for symmetric positive definite s, with jitter retry."""
    if not s.size:
        return np.empty_like(rhs)
    factor = _cholesky(s)
    if factor is None:
        jitter = JITTER_SCALE * max(float(np.trace(s)), 1.0)
        factor = _cholesky(s + jitter * np.eye(s.shape[0]))
        if factor is None:
            raise NumericalError(
                f"innovation covariance is not positive definite even with jitter {jitter:g} "
                f"(trace {float(np.trace(s)):g})"
            )
        logger.debug("innovation covariance needed jitter %g", jitter)
    x, info = _potrs(factor, rhs, lower=True)
    if info != 0:
        raise ValueError(f"LAPACK potrs: illegal value in argument {-info}")
    return x


def _update_with_gain(
    pred: FilterState, H: np.ndarray, R: np.ndarray, innovation: np.ndarray
) -> tuple[FilterState, np.ndarray]:
    """Posterior and gain of ``pred`` given the innovation ``delta_y - H x``,
    which the caller forms and has checked against ``H``."""
    hp = H @ pred.cov
    s = _symmetrize(hp @ H.T + R)
    gain = _solve_spd(s, hp).T  # K = P H' S^-1 via S K' = H P
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

    Raises:
        ConfigurationError: if ``H`` does not map the state to the channels
            of ``delta_y``.
    """
    H = np.asarray(H, dtype=float)
    delta_y = np.asarray(delta_y, dtype=float).reshape(-1)
    if H.shape != (delta_y.shape[0], pred.dim):
        raise ConfigurationError(
            f"measurement matrix {H.shape} does not map state {pred.dim} to {delta_y.shape[0]} channels"
        )
    state, _ = _update_with_gain(pred, H, np.asarray(R, dtype=float), delta_y - H @ pred.mean)
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
    """Output of a filtering sweep: every posterior mean, the last posterior
    and per-step diagnostics.

    ``last`` is the posterior of the last filtered interval, or ``None`` for
    a run of no steps; earlier covariances are dropped as the run moves on.
    """

    deltas: np.ndarray  # (n_od, n_steps) posterior means
    last: FilterState | None = None
    diagnostics: list[KfStepDiagnostics] = field(default_factory=list)


def run_kf_sequence(
    assignment: AssignmentMatrix,
    delta_y: np.ndarray,
    noise: NoiseModel,
    *,
    init: FilterState,
    refresh_hook: Callable[[int, np.ndarray], AssignmentMatrix | None] | None = None,
) -> KfRun:
    """Filter count deviations interval by interval.

    ``delta_y`` is (n_channels, n_steps): observed minus historical counts,
    one column per filtered interval.
    At interval ``h`` the pieces ``pieces[k, h]`` of the L intervals before
    it map their posterior means out of the deviation, and ``pieces[h, h]``
    is the measurement matrix.  Each step expands only these pieces from the
    band, into one dense ``(lags, C, OD)`` buffer
    (``AssignmentMatrix.counted_at``).  ``refresh_hook(h, deltas)`` is
    called after each interval with the posterior means so far and may
    return a rebuilt assignment matrix, with its own L (``None`` keeps the
    current one).  It may cover a shorter grid, as long as it reaches the
    next interval ``h + 1``: later steps read only pieces up to it.

    ``init`` is interval 0's prior; each later one is the last posterior
    carried by ``kf_time_update`` with ``ArModel.identity``.  The run keeps
    every posterior mean in ``deltas`` but only the last posterior in
    ``last``, the state the next time update reads.

    Each step's ``cov_min_eigenvalue`` diagnostic is the smallest
    eigenvalue of its posterior covariance, from ``eigvalsh``.

    Raises:
        ConfigurationError: if the count deviations do not match the
            channels, are not all finite, cover more steps than the grid has
            intervals, or a refreshed matrix has other ODs, channels, grid
            start or interval length, or stops before the next interval.
    """
    n_od = len(assignment.od_index)
    n_ch = len(assignment.channels)
    delta_y = np.asarray(delta_y, dtype=float)
    if delta_y.ndim != 2 or delta_y.shape[0] != n_ch:
        raise ConfigurationError(f"count deviations {delta_y.shape} do not match {n_ch} channels")
    non_finite = int(delta_y.size - np.isfinite(delta_y).sum())
    if non_finite:
        raise ConfigurationError(f"count deviations have {non_finite} non-finite entries")
    n_steps = delta_y.shape[1]
    if n_steps > assignment.grid.n_intervals:
        raise ConfigurationError("more steps than grid intervals")
    ar = ArModel.identity(n_od)

    run = KfRun(deltas=np.zeros((n_od, n_steps)))
    for h in range(n_steps):
        prior = init if h == 0 else kf_time_update([run.last], ar, noise.Q)
        rows = assignment.counted_at(h)
        lagged = np.zeros(n_ch)
        for k in range(h + 1 - rows.shape[0], h):
            lagged += rows[h - k] @ run.deltas[:, k]
        H = rows[0]
        innovation = delta_y[:, h] - lagged - H @ prior.mean
        post, gain = _update_with_gain(prior, H, noise.R, innovation)
        run.deltas[:, h] = post.mean
        run.last = post
        run.diagnostics.append(
            KfStepDiagnostics(
                interval=h,
                innovation_norm=float(np.linalg.norm(innovation)),
                gain_norm=float(np.linalg.norm(gain)),
                cov_trace=float(np.trace(post.cov)),
                cov_symmetry_error=post.cov_symmetry_error,
                cov_min_eigenvalue=min_eigenvalue(post.cov),
            )
        )
        if refresh_hook is not None:
            refreshed = refresh_hook(h, run.deltas[:, : h + 1])
            if refreshed is not None:
                _check_refreshed(assignment, refreshed, h, n_steps)
                assignment = refreshed
    return run


def _check_refreshed(
    current: AssignmentMatrix, refreshed: AssignmentMatrix, h: int, n_steps: int
) -> None:
    """Reject a refreshed matrix the remaining steps cannot read."""
    if refreshed.od_index != current.od_index or refreshed.channels != current.channels:
        raise ConfigurationError(
            f"matrix refreshed after interval {h} has other ODs or channels"
        )
    old, new = current.grid, refreshed.grid
    if (new.start, new.interval_minutes) != (old.start, old.interval_minutes):
        raise ConfigurationError(
            f"matrix refreshed after interval {h} has grid start {new.start} and "
            f"{new.interval_minutes}-minute intervals, not {old.start} and {old.interval_minutes}"
        )
    if h + 1 < n_steps and new.n_intervals <= h + 1:
        raise ConfigurationError(
            f"matrix refreshed after interval {h} covers {new.n_intervals} intervals "
            f"and misses the next one, {h + 1}"
        )
