"""Departure-time choice: schedule disutility and logit interval probabilities.

Travelers trade off travel time against arriving early or late relative to a
preferred arrival time, with the usual asymmetric weights (being late hurts
more than being early).  Interval choice probabilities come from a multinomial
logit over the negative scaled disutilities; one profile is computed per
(OD pair, trip purpose) from that OD's travel times, so purposes sharing
travel times share a profile shape.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateProfileError
from .network import TimeGrid

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScheduleParams:
    """Scheduling preferences for one trip purpose.

    ``alpha``/``beta``/``gamma`` weight travel time, early arrival and late
    arrival (per minute); ``preferred_arrival`` is in minutes of day.  A
    warning is logged when the conventional ordering beta < alpha < gamma does
    not hold, since the profile then loses its usual peaked shape.
    """

    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 2.0
    preferred_arrival: float = 480.0
    logit_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.logit_scale <= 0:
            raise ValueError("logit_scale must be > 0")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("schedule weights must be >= 0")
        if not (self.beta < self.alpha < self.gamma):
            logger.warning(
                "schedule weights beta=%g alpha=%g gamma=%g break the usual "
                "beta < alpha < gamma ordering", self.beta, self.alpha, self.gamma,
            )


def schedule_disutility(h, travel_time, params: ScheduleParams, grid: TimeGrid):
    """Disutility of departing in interval ``h`` given its travel time.

    Arrival is evaluated at the interval midpoint plus the travel time:
    alpha*tt + beta*max(0, early) + gamma*max(0, late).  ``h`` and
    ``travel_time`` may be arrays, broadcast against each other; scalars
    give a float.  A non-finite travel time costs ``inf``.

    Raises:
        IndexError: if an interval lies outside the grid.
        ValueError: if a travel time is negative.
    """
    tt = np.asarray(travel_time, dtype=float)
    if (tt < 0).any():
        raise ValueError(f"negative travel time {float(tt.min())!r}")
    arrival = grid.midpoint(h) + tt
    early = np.maximum(0.0, params.preferred_arrival - arrival)
    late = np.maximum(0.0, arrival - params.preferred_arrival)
    with np.errstate(invalid="ignore"):  # 0 * inf where a weight is zero
        cost = params.alpha * tt + params.beta * early + params.gamma * late
    cost = np.where(np.isfinite(tt), cost, np.inf)  # unreachable in that interval
    return float(cost) if cost.ndim == 0 else cost


def departure_probabilities(
    params: ScheduleParams, travel_times: np.ndarray, grid: TimeGrid
) -> np.ndarray:
    """Logit choice probabilities over all departure intervals of the grid.

    ``travel_times`` holds one travel time per interval for the OD at hand.
    The softmax over -logit_scale * disutility is computed with the usual
    max-subtraction so large disutilities cannot underflow the whole profile.

    Raises:
        ConfigurationError: if ``travel_times`` does not match the grid.
        DegenerateProfileError: if no interval retains probability mass.
    """
    tt = np.asarray(travel_times, dtype=float)
    if tt.shape != (grid.n_intervals,):
        raise ConfigurationError(
            f"travel times of shape {tt.shape} do not match grid of {grid.n_intervals} intervals"
        )
    cost = schedule_disutility(np.arange(grid.n_intervals), tt, params, grid)
    z = -params.logit_scale * cost
    finite = np.isfinite(z)
    if not finite.any():
        raise DegenerateProfileError("all departure intervals have infinite disutility")
    z = z - z[finite].max()
    w = np.where(finite, np.exp(z, where=finite, out=np.zeros_like(z)), 0.0)
    total = w.sum()
    if total <= 0.0:
        raise DegenerateProfileError("departure profile has zero total mass")
    return w / total
