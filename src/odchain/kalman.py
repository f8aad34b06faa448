"""Linear filtering of OD-demand deviations against detector counts.

The state of interval h is a deviation of its OD departures from the
historical matrix.  The identity random walk carries it to the next interval
(prior covariance ``P + Q``); counts observed at h are a linear function of
the state through one measurement matrix per interval.  The sequence runner
asks its caller for interval h's matrix, given the posterior means so far,
so the frozen linearization and a refreshed one reach it alike and this
module knows neither.  The experiment's providers scatter rows of
``AssignmentMatrix.lag_rows``: the pieces of every lag summed, each scaled
by the historical demand of the interval it reads, so the state is the
relative deviation that those intervals share.

Every state carries a square root of its covariance, ``root @ root.T ==
cov``.  The measurement update works on that root in array form (Kailath,
Sayed & Hassibi, *Linear Estimation*, 2000, ch. 12): one QR factorization
of a pre-array built from the roots of the measurement noise and the prior
gives the innovation covariance's root, the gain and the posterior's root
at once, with triangular solves and no inverse, and a trace-scaled jitter
retry where the innovation covariance is singular.  The posterior's
covariance is formed from its root, so it is symmetric and positive
semidefinite by construction.

A state built from a covariance is checked on construction: finite entries,
a symmetric covariance, and positive semidefiniteness up to
``1e-8 * max(trace, 1)``.  The covariance's own Cholesky factor, where it
exists, decides the check and is the state's root; only where it does not
does a Cholesky factorization of the covariance shifted by that bound
decide, and a pivoted Cholesky factorization give the root.  The time update
hands its prior's new arrays to the same checks without copying them.
A posterior, built from its root, is checked finite only.

A sequence run keeps what is read after it: every posterior mean, every
step's diagnostics, and only the last posterior, the one state that the time
update reads during the run and prediction reads after it.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericalError
from .network import read_only_view

logger = logging.getLogger(__name__)

#: Relative jitter added to a singular innovation covariance.
JITTER_SCALE = 1e-9

#: A triangular root of the innovation covariance counts as singular where
#: its smallest diagonal entry is at most this share of its largest: the
#: covariance's condition number is then at least 1 / machine epsilon.
SINGULAR_ROOT = float(np.sqrt(np.finfo(float).eps))

#: Relative bound below which a covariance eigenvalue counts as negative.
PSD_TOLERANCE = 1e-8

# The LAPACK routines behind scipy.linalg.cholesky, qr and solve_triangular,
# called directly: the wrappers cost more than the factorization at these
# sizes; and the pivoted Cholesky factorization, which scipy wraps nowhere else.
_potrf, _pstrf, _geqrf, _trtrs = scipy.linalg.get_lapack_funcs(
    ("potrf", "pstrf", "geqrf", "trtrs"), dtype=np.float64)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a float array, to the bit: numpy's own path
    for the default order, the square root of the raveled array's dot with
    itself, without its dispatch."""
    x = v.ravel(order="K")
    return math.sqrt(x.dot(x))


def symmetry_error(m: np.ndarray) -> float:
    return float(np.abs(m - m.T).max()) if m.size else 0.0


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m).min()) if m.size else 0.0


def _cholesky(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, zero above the diagonal, or None if
    ``m`` is not positive definite."""
    factor, info = _potrf(m, lower=True)
    if info < 0:
        raise ValueError(f"LAPACK potrf: illegal value in argument {-info}")
    return factor if info == 0 else None


def _psd_root(m: np.ndarray) -> np.ndarray | None:
    """A square root of the symmetric ``m``, ``L @ L.T == m`` up to roundoff,
    or None if an eigenvalue of ``m`` lies below ``-1e-8 * max(trace, 1)``.

    The root is the Cholesky factor of ``m`` where it exists.  Otherwise the
    verdict is whether ``m + 1e-8 * max(trace, 1) * I`` has one, which gives
    the eigenvalue verdict up to roundoff at the boundary without an
    eigendecomposition; a matrix that passes is positive semidefinite to
    that bound but singular.  Its root is then ``P L`` from the pivoted
    Cholesky factorization ``P' m P = L L'`` (LAPACK ``pstrf``), with the
    columns of ``L`` past its rank zeroed: a zero row and column of ``m``
    is pivoted past the rank, so its row of the root is exactly zero.
    """
    n = m.shape[0]
    if not n:
        return np.zeros((0, 0))
    factor = _cholesky(m)
    if factor is not None:
        return factor
    shifted = np.array(m, dtype=float)
    shifted.reshape(-1)[:: n + 1] += PSD_TOLERANCE * max(float(m.trace()), 1.0)
    if _cholesky(shifted) is None:
        return None
    factor, piv, rank, info = _pstrf(m, lower=True)
    if info < 0:
        raise ValueError(f"LAPACK pstrf: illegal value in argument {-info}")
    # pstrf leaves the upper triangle as it found it, and past the rank
    # what is left of the trailing block
    factor = np.tril(factor)
    factor[:, rank:] = 0.0
    root = np.empty_like(factor)
    root[piv - 1] = factor
    return root


@dataclass(frozen=True)
class FilterState:
    """Mean and covariance of one deviation state, and a square root of the
    covariance.

    Raises ``ValueError`` unless the mean and covariance are finite, the
    covariance is symmetric to ``1e-10`` of its largest entry, and no
    eigenvalue lies below ``-1e-8 * max(trace, 1)``.  The covariance's
    Cholesky factor, where it exists, passes the last check and is the
    state's ``root``; otherwise ``cov + 1e-8 * max(trace, 1) * I`` having one
    decides, which gives the eigenvalue verdict up to roundoff at the
    boundary without an eigendecomposition, and the root of a covariance
    that passes so comes from its pivoted Cholesky factorization
    (``_psd_root``).
    ``root @ root.T`` equals ``cov`` up to roundoff.  ``mean`` and ``cov``
    are read-only views of the arrays given; float arrays are not copied.
    ``root`` is read-only too.

    The measurement update builds its posterior from the root it computes:
    ``cov`` is then ``root @ root.T``, symmetric and positive semidefinite by
    construction, and only the mean and root are checked finite.
    """

    mean: np.ndarray
    cov: np.ndarray
    root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mean = read_only_view(self.mean).reshape(-1)
        cov = read_only_view(self.cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"covariance {cov.shape} does not match state of dimension {n}")
        object.__setattr__(self, "root", read_only_view(_checked_root(mean, cov)))

    @classmethod
    def _from_cov(cls, mean: np.ndarray, cov: np.ndarray) -> "FilterState":
        """The state of ``mean`` and ``cov``, new float arrays of shapes
        ``(n,)`` and ``(n, n)`` that the state makes read-only and keeps,
        checked as the constructor checks them."""
        return cls._adopt(mean, cov, _checked_root(mean, cov))

    @classmethod
    def _from_root(cls, mean: np.ndarray, root: np.ndarray) -> "FilterState":
        """The state of ``mean`` with covariance ``root @ root.T``, both new
        float arrays that the state makes read-only and keeps."""
        if not np.isfinite(mean).all():
            raise ValueError("state mean has non-finite entries")
        if not np.isfinite(root).all():
            raise ValueError("covariance has non-finite entries")
        # numpy forms a @ a.T with one symmetric rank-k update: exactly symmetric
        return cls._adopt(mean, root @ root.T, root)

    @classmethod
    def _adopt(cls, mean: np.ndarray, cov: np.ndarray, root: np.ndarray) -> "FilterState":
        state = object.__new__(cls)
        for name, value in (("mean", mean), ("cov", cov), ("root", root)):
            value.setflags(write=False)
            object.__setattr__(state, name, value)
        return state

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _checked_root(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``FilterState``'s checks of a mean and a covariance of matching
    shapes, raising its ``ValueError``; returns the covariance's root."""
    if not np.isfinite(mean).all():
        raise ValueError("state mean has non-finite entries")
    if not np.isfinite(cov).all():
        raise ValueError("covariance has non-finite entries")
    asymmetry = symmetry_error(cov)
    # within 1e-10 it passes whatever the largest entry, which is then not needed
    if asymmetry > 1e-10 and asymmetry > 1e-10 * float(np.abs(cov).max()):
        raise ValueError("covariance is not symmetric")
    root = _psd_root(cov)
    if root is None:
        raise ValueError("covariance is not positive semidefinite")
    return root


@dataclass(frozen=True)
class NoiseModel:
    """Process and measurement noise covariances, read-only views of the
    arrays given; float arrays are not copied.

    Raises ``ValueError``, naming ``Q`` or ``R``, unless each is a finite,
    symmetric and positive semidefinite square matrix, checked as
    ``FilterState`` checks a covariance.
    """

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
            if _psd_root(m) is None:
                raise ValueError(f"{name} is not positive semidefinite")


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

    The prior is ``F x`` with covariance ``Q + F P F'``, symmetrized, and
    its root is the Cholesky factor that its check computes.  The identity
    random walk is applied as ``Q + P`` and ``P``'s mean, which is what the
    products give bit for bit: the identity's zeros add only ``0.0`` terms.
    Both arrays are new, so the prior keeps them as they are, checked as
    ``FilterState`` checks a covariance and then made read-only.

    Raises:
        ConfigurationError: if ``states`` is empty, or ``Q`` or ``F`` is not
            square in the state's dimension.
    """
    if not states:
        raise ConfigurationError("time update needs a posterior")
    s = states[-1]
    Q = np.asarray(Q, dtype=float)
    f = ar.coefficients[0]
    if Q.shape != (s.dim, s.dim) or f.shape != Q.shape:
        raise ConfigurationError(
            f"process noise {Q.shape} and transition {f.shape} do not match "
            f"state of dimension {s.dim}")
    if ar.is_identity:
        # + 0.0 turns -0.0 into 0.0, as the identity's products summed from zero do
        return FilterState._from_cov(s.mean + 0.0, _symmetrize(Q + s.cov))
    return FilterState._from_cov(f @ s.mean, _symmetrize(Q + f @ s.cov @ f.T))


@functools.lru_cache(maxsize=None)
def _upper(n: int) -> np.ndarray:
    """The read-only ``(n, n)`` mask of the upper triangle, diagonal included:
    ``np.where`` with it clears a block below the diagonal at a third of
    ``np.triu``'s cost, which builds the mask on every call."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.setflags(write=False)
    return mask


def _triangle(pre: np.ndarray) -> np.ndarray:
    """QR factorization of ``pre``, a Fortran-ordered array with at least as
    many rows as columns, which it overwrites.  The upper triangle of the
    leading square is ``U`` with ``U.T @ U == pre.T @ pre`` up to roundoff;
    below the diagonal lie the Householder vectors."""
    # a workspace of 32 per column lets LAPACK's blocked code use its blocks
    # of 32 columns where it blocks (past 128 columns); the default, 3 per
    # column, cuts them to 3
    qr, _, _, info = _geqrf(pre, lwork=32 * pre.shape[1], overwrite_a=True)
    if info < 0:
        raise ValueError(f"LAPACK geqrf: illegal value in argument {-info}")
    return qr


def _update_with_gain(
    pred: FilterState, H: np.ndarray, R_root: np.ndarray, innovation: np.ndarray
) -> tuple[FilterState, np.ndarray]:
    """Posterior and gain of ``pred`` given the innovation ``delta_y - H x``,
    which the caller forms and has checked against ``H``; ``R_root`` is a
    square root of the measurement noise covariance R.

    With ``L = pred.root``, the QR factorization of the pre-array
    ``[[R_root', 0], [(H L)', L']]`` gives the triangle
    ``[[S½', K̄'], [0, L⁺']]``: ``S½ S½' = S = H P H' + R``,
    ``K̄ S½' = P H'`` and ``L⁺ L⁺' = P - K̄ K̄'``, the posterior covariance.
    The gain ``K = K̄ S½⁻¹`` comes from one triangular solve, and the mean
    step is ``K innovation``.  Where ``S½`` is singular (``SINGULAR_ROOT``),
    ``S + jitter * I`` is factored instead,
    ``jitter = JITTER_SCALE * max(trace(S), 1)``, by a second QR of the
    triangle with ``sqrt(jitter) * I`` stacked below it.  With no channels
    the prior is the posterior.
    """
    n_ch, n = H.shape
    if not n_ch:
        return pred, np.zeros((n, 0))
    pre = np.zeros((n_ch + n, n_ch + n), order="F")
    pre[:n_ch, :n_ch] = R_root.T
    pre[n_ch:, :n_ch] = (H @ pred.root).T
    pre[n_ch:, n_ch:] = pred.root.T
    qr = _triangle(pre)
    # a handful of channels: Python's min and max beat two numpy reductions
    diagonal = np.abs(qr.diagonal()[:n_ch]).tolist()
    if min(diagonal) <= SINGULAR_ROOT * max(diagonal):
        jitter = JITTER_SCALE * max(float(np.square(np.triu(qr[:n_ch, :n_ch])).sum()), 1.0)
        logger.debug("innovation covariance needed jitter %g", jitter)
        stacked = np.zeros((2 * n_ch + n, n_ch + n), order="F")
        stacked[: n_ch + n] = np.triu(qr[: n_ch + n])
        stacked[n_ch + n:, :n_ch] = np.sqrt(jitter) * np.eye(n_ch)
        qr = _triangle(stacked)
    # trtrs reads the upper triangle of S½' alone
    gain_t, info = _trtrs(qr[:n_ch, :n_ch], qr[:n_ch, n_ch:])
    if info != 0:
        raise NumericalError(f"innovation covariance root is singular (LAPACK trtrs info {info})")
    gain = gain_t.T
    root = np.where(_upper(n), qr[n_ch: n_ch + n, n_ch:], 0.0).T
    return FilterState._from_root(pred.mean + gain @ innovation, root), gain


def kf_measurement_update(
    pred: FilterState, H: np.ndarray, R: np.ndarray, delta_y: np.ndarray
) -> FilterState:
    """Condition the predicted state on an observed count deviation.

    The update runs on the square roots of ``pred``'s covariance and of R
    (``_update_with_gain``): gain ``K = P H' (H P H' + R)^-1`` from
    triangular solves, never an explicit inverse, and the posterior
    covariance ``P - K H P`` formed from its root.

    Raises:
        ConfigurationError: if ``H`` does not map the state to the channels
            of ``delta_y``, or ``R`` is not square in those channels.
        NumericalError: if ``R`` is not positive semidefinite.
    """
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    delta_y = np.asarray(delta_y, dtype=float).reshape(-1)
    n_ch = delta_y.shape[0]
    if H.shape != (n_ch, pred.dim):
        raise ConfigurationError(
            f"measurement matrix {H.shape} does not map state {pred.dim} to {n_ch} channels"
        )
    if R.shape != (n_ch, n_ch):
        raise ConfigurationError(f"measurement noise {R.shape} does not match {n_ch} channels")
    R_root = _psd_root(R)
    if R_root is None:
        raise NumericalError("measurement noise covariance is not positive semidefinite")
    state, _ = _update_with_gain(pred, H, R_root, delta_y - H @ pred.mean)
    return state


@dataclass
class KfStepDiagnostics:
    """One filtered interval.  ``measurement_norm`` is the Frobenius norm of
    its measurement matrix: 0 where the counts see nothing of the state.
    Every posterior covariance is symmetric and positive semidefinite by
    construction, so no step records its symmetry or spectrum."""

    interval: int
    innovation_norm: float
    gain_norm: float
    cov_trace: float
    measurement_norm: float


@dataclass
class KfRun:
    """Output of a filtering sweep: every posterior mean, the last posterior
    and per-step diagnostics.

    ``last`` is the posterior of the last filtered interval, or ``None`` for
    a run of no steps; earlier covariances are dropped as the run moves on.
    """

    deltas: np.ndarray  # (n_od, n_steps) posterior means of the relative state
    last: FilterState | None = None
    diagnostics: list[KfStepDiagnostics] = field(default_factory=list)


def run_kf_sequence(
    H_at: Callable[[int, np.ndarray], np.ndarray],
    delta_y: np.ndarray,
    noise: NoiseModel,
    *,
    init: FilterState,
) -> KfRun:
    """Filter count deviations interval by interval.

    ``delta_y`` is (n_channels, n_steps): observed minus historical counts,
    one column per filtered interval.
    ``H_at(h, relative)`` gives interval ``h``'s ``(n_channels, n_od)``
    measurement matrix, given ``relative``, the ``(n_od, h)`` posterior
    means of the intervals before it (the experiment's providers scatter a
    row of ``AssignmentMatrix.lag_rows``).  The innovation is
    ``delta_y[:, h] - H @ prior.mean``.

    ``init`` is interval 0's prior; each later one is the last posterior
    carried by ``kf_time_update`` with ``ArModel.identity``.  Every update
    runs on square roots (``_update_with_gain``), so each posterior
    covariance is symmetric and positive semidefinite by construction.
    The run keeps every posterior mean in ``deltas`` but only the last
    posterior in ``last``, the state the next time update reads.

    Raises:
        ConfigurationError: if the count deviations are not a finite
            (channels, steps) array, ``noise.Q`` is not (ODs, ODs) or
            ``noise.R`` not (channels, channels), or an interval's matrix
            does not map ``init``'s ODs to those channels, naming the
            interval.
    """
    n_od = init.dim
    delta_y = np.asarray(delta_y, dtype=float)
    if delta_y.ndim != 2:
        raise ConfigurationError(f"count deviations {delta_y.shape} are not (channels, steps)")
    non_finite = int(delta_y.size - np.isfinite(delta_y).sum())
    if non_finite:
        raise ConfigurationError(f"count deviations have {non_finite} non-finite entries")
    n_ch, n_steps = delta_y.shape
    if noise.Q.shape != (n_od, n_od) or noise.R.shape != (n_ch, n_ch):
        raise ConfigurationError(
            f"noise Q {noise.Q.shape} and R {noise.R.shape} do not match "
            f"{n_od} ODs and {n_ch} channels")
    ar = ArModel.identity(n_od)
    R_root = _psd_root(noise.R)  # not None: NoiseModel checked R

    run = KfRun(deltas=np.zeros((n_od, n_steps)))
    for h in range(n_steps):
        prior = init if h == 0 else kf_time_update([run.last], ar, noise.Q)
        H = H_at(h, run.deltas[:, :h])
        if H.shape != (n_ch, n_od):
            raise ConfigurationError(
                f"measurement matrix {H.shape} of interval {h} is not ({n_ch}, {n_od})")
        innovation = delta_y[:, h] - H @ prior.mean
        post, gain = _update_with_gain(prior, H, R_root, innovation)
        run.deltas[:, h] = post.mean
        run.last = post
        run.diagnostics.append(
            KfStepDiagnostics(
                interval=h,
                innovation_norm=_norm(innovation),
                gain_norm=_norm(gain),
                cov_trace=float(post.cov.trace()),
                measurement_norm=_norm(H),
            )
        )
    return run
