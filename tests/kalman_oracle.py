"""Reference interval filter: the covariance-form Kalman filter, written plainly.

The oracle that the package's square-root filter is checked against.  The
update forms the innovation covariance ``S = H P H' + R``, symmetrized, and
solves for the gain ``K = P H' S^-1`` through a Cholesky factorization of S,
retried once with ``1e-9 * max(trace(S), 1)`` on its diagonal where S has
none; the posterior is ``x + K (delta_y - H x)`` with covariance ``P - K H P``,
symmetrized.  The time update is ``F x`` with covariance ``Q + F P F'``,
symmetrized.  ``oracle_filter`` runs them the way ``run_kf_sequence`` does.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

JITTER_SCALE = 1e-9


def _symmetrize(m):
    return 0.5 * (m + m.T)


def oracle_update(mean, cov, H, R, delta_y):
    """``(mean, cov, gain)`` of the posterior of ``(mean, cov)`` given the
    count deviation ``delta_y``."""
    if not H.shape[0]:
        return mean, cov, np.zeros((len(mean), 0))
    s = _symmetrize(H @ cov @ H.T + R)
    try:
        factor = scipy.linalg.cho_factor(s, lower=True)
    except np.linalg.LinAlgError:
        jitter = JITTER_SCALE * max(float(np.trace(s)), 1.0)
        factor = scipy.linalg.cho_factor(s + jitter * np.eye(len(s)), lower=True)
    gain = scipy.linalg.cho_solve(factor, H @ cov).T
    return (mean + gain @ (delta_y - H @ mean), _symmetrize(cov - gain @ H @ cov), gain)


def oracle_time_update(mean, cov, F, Q):
    """``(mean, cov)`` of the prior of the next interval."""
    return F @ mean, _symmetrize(Q + F @ cov @ F.T)


def oracle_filter(rows, delta_y, Q, R, mean, cov):
    """Filter ``delta_y`` (channels, steps) with interval h's measurement
    matrix ``rows[h]``, from interval 0's prior ``(mean, cov)`` and the
    identity random walk: ``(deltas, last_cov, gains)``, every posterior
    mean as a column of ``deltas``, the last posterior covariance and every
    step's gain."""
    n, steps = len(mean), delta_y.shape[1]
    deltas = np.zeros((n, steps))
    gains = []
    for h in range(steps):
        if h:
            mean, cov = oracle_time_update(mean, cov, np.eye(n), Q)
        mean, cov, gain = oracle_update(mean, cov, rows[h], R, delta_y[:, h])
        deltas[:, h] = mean
        gains.append(gain)
    return deltas, cov, gains
