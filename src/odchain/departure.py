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
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, DegenerateProfileError
from .network import TimeGrid

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScheduleParams:
    """Scheduling preferences for one trip purpose.

    ``alpha``/``beta``/``gamma`` weight travel time, early arrival and late
    arrival (per minute); ``preferred_arrival`` is in minutes of day.  Every
    field must be finite; ``ValueError`` names the one that is not.  A
    warning is logged when the conventional ordering beta < alpha < gamma does
    not hold, since the profile then loses its usual peaked shape.
    """

    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 2.0
    preferred_arrival: float = 480.0
    logit_scale: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, not {value}")
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

    ``travel_times`` holds one travel time per interval for the OD at hand,
    or an ``(m, n_intervals)`` array with one OD per row, which gives one
    profile per row.  The softmax over -logit_scale * disutility is computed
    with the usual max-subtraction so large disutilities cannot underflow the
    whole profile.  Every reduction runs along a row, so a row of the 2-D
    form equals the 1-D call on that row bit for bit.

    Raises:
        ConfigurationError: if ``travel_times`` does not match the grid.
        DegenerateProfileError: if no interval of a profile retains
            probability mass; for 2-D input its ``row`` is the first such row.
    """
    tt = np.asarray(travel_times, dtype=float)
    if tt.ndim not in (1, 2) or tt.shape[-1] != grid.n_intervals:
        raise ConfigurationError(
            f"travel times of shape {tt.shape} do not match grid of {grid.n_intervals} intervals"
        )
    batch = tt.ndim == 2
    cost = schedule_disutility(np.arange(grid.n_intervals), tt, params, grid)
    z = -params.logit_scale * cost
    finite = np.isfinite(z)
    _check_rows(finite.any(axis=-1), "all departure intervals have infinite disutility", batch)
    z = z - np.where(finite, z, -np.inf).max(axis=-1, keepdims=True)
    w = np.where(finite, np.exp(z, where=finite, out=np.zeros_like(z)), 0.0)
    total = w.sum(axis=-1, keepdims=True)
    _check_rows(total[..., 0] > 0.0, "departure profile has zero total mass", batch)
    return w / total


def _check_rows(ok: np.ndarray, message: str, batch: bool) -> None:
    """Raise ``DegenerateProfileError`` naming the first row where ``ok`` is false."""
    if not ok.all():
        row = int(np.argmin(ok)) if batch else None
        raise DegenerateProfileError(message, row=row)
