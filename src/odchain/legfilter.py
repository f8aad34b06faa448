"""Per-leg filtering over trip chains and the combined estimator.

The interval filter of :mod:`odchain.kalman` explains local deviations; this
module carries structural deviations across the day.  Interval deviations in
the filtered morning are attributed to the legs active there (proportionally
to each leg's expected share of the OD's flow), chained legs inherit the
attributed deviations through the redistribution operators, and cumulative
detector counts up to a horizon correct each leg in turn.  The optional
conservation step rescales a leg so its estimated total matches its feeders'.

Estimates combine as historical + interval deviations + sum over legs of leg
deviation times departure shares; predictions beyond the estimation cutoff
reuse that formula, carrying the last interval deviation flat, as the
identity random walk does, and touch neither new measurements nor the loader.
A leg's term, a per-OD vector spread over its departure shares on its member
rows, comes from the one routine ``legs.leg_terms``: the attribution weights
(the leg's flows), the combined estimate (its deviation) and the generated
demand of :mod:`odchain.experiment` (its flows) are each a sum of its terms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .assignment import CumulativeMapping
from .errors import ConfigurationError
from .kalman import FilterState, kf_measurement_update
from .legs import ChainSpec, DemandLeg, LegOperator, leg_terms, propagate_leg_deviation

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChainFilterConfig:
    """Mode ("pkf" plain, "spkf" with conservation) and the cumulative horizon."""

    mode: str = "pkf"
    cumulative_horizon: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("pkf", "spkf"):
            raise ConfigurationError(f"unknown chain filter mode {self.mode!r}")
        if self.cumulative_horizon < 0:
            raise ConfigurationError("cumulative horizon must be >= 0")


@dataclass
class LegState:
    """Deviation state of one leg plus bookkeeping for diagnostics."""

    name: str
    state: FilterState
    prior_norm: float = 0.0
    scale: float = 1.0
    conservation_residual: float = 0.0


def attribute_interval_deviations(
    deltas: np.ndarray, legs: list[DemandLeg]
) -> dict[str, np.ndarray]:
    """Split interval OD deviations across legs by expected-share weights.

    ``deltas`` is (n_od, n_intervals), one column per filtered interval from
    the first.  For each (OD, interval) cell the weight of a leg is its flow
    times its departure share there (its ``leg_terms`` term of its flows),
    normalized over all given legs, whose weights are summed in the order
    given; the attributed leg deviation is the weighted sum over every
    column.  A leg weighs nothing off its members, so its weights and its
    deviation are formed on its member rows alone, and zero elsewhere.
    Cells with deviation but zero total weight cannot be attributed and are
    dropped with a warning.

    Raises:
        ConfigurationError: if a leg lacks a profile or shapes disagree.
    """
    deltas = np.asarray(deltas, dtype=float)
    if not legs:
        return {}
    n_od = len(legs[0].od_index)
    if deltas.ndim != 2 or deltas.shape[0] != n_od:
        raise ConfigurationError(f"deviation matrix {deltas.shape} does not match {n_od} ODs")

    weights = []
    total = np.zeros(deltas.shape)
    for rows, w in leg_terms(((leg, leg.flows) for leg in legs), 0, deltas.shape[1]):
        total[rows] += w
        weights.append(w)
    active = total > 0.0
    dropped = float(np.abs(deltas[~active]).sum())
    total[~active] = 1.0
    out = {}
    for leg, w in zip(legs, weights):
        rows = leg.member_indices()
        dev = np.zeros(n_od)
        # summed interval by interval, in column order, from zero
        dev[rows] = sum(np.where(active[rows], deltas[rows] * w / total[rows], 0.0).T,
                        np.zeros(len(rows)))
        out[leg.name] = dev
    if dropped > 0.0:
        logger.warning(
            "%.3g units of interval deviation had no active leg and were dropped", dropped
        )
    return out


def leg_time_update(
    predecessors: list[FilterState], operator: LegOperator, Q: np.ndarray
) -> FilterState:
    """Chain the feeders' deviation states into the current leg's prior.

    Mean is the operator applied to the summed feeder means; covariance is
    the operator-congruent sum of feeder covariances plus the leg process
    noise.
    """
    n = len(operator.od_index)
    mean = propagate_leg_deviation(operator, [s.mean for s in predecessors])
    cov = np.asarray(Q, dtype=float).copy()
    for s in predecessors:
        if s.dim != n:
            raise ConfigurationError("feeder state dimension does not match the operator")
        cov += operator.matrix @ s.cov @ operator.matrix.T
    return FilterState(mean=mean, cov=0.5 * (cov + cov.T))


def scale_factor(current: np.ndarray, predecessors: list[np.ndarray]) -> float:
    """Ratio of the leg's estimated total to its feeders' estimated total.

    Raises:
        ValueError: if the feeders' total is not positive.
    """
    fed = float(np.sum([np.asarray(p, dtype=float).sum() for p in predecessors]))
    if fed <= 0.0:
        raise ValueError(f"feeding legs total {fed!r}; conservation scale undefined")
    return float(np.asarray(current, dtype=float).sum()) / fed


def apply_conservation(estimate: np.ndarray, scale: float) -> np.ndarray:
    """Divide a leg estimate by its scale so totals match the feeders'.

    Raises:
        ValueError: for a nonpositive scale.
    """
    if scale <= 0.0:
        raise ValueError(f"conservation scale must be > 0, got {scale!r}")
    return np.asarray(estimate, dtype=float) / scale


def run_leg_chain(
    legs: dict[str, DemandLeg],
    chain: ChainSpec,
    operators: dict[str, LegOperator],
    root_deltas: dict[str, np.ndarray],
    mapping: CumulativeMapping,
    delta_Y: np.ndarray,
    *,
    config: ChainFilterConfig,
    leg_Q: dict[str, np.ndarray],
    root_P0: dict[str, np.ndarray],
    R: np.ndarray,
) -> dict[str, LegState]:
    """Estimate every leg's deviation in topological order.

    Root legs are seeded with attributed deviations and their prior
    covariance; each chained leg is time-updated from its already-finalized
    feeders and then corrected against the cumulative count deviation
    ``delta_Y`` (net of all other legs' current contributions).  In "spkf"
    mode the corrected estimate is rescaled to conserve the feeders' total.

    Raises:
        ConfigurationError: if ``config.cumulative_horizon`` is not the
            horizon of ``mapping``, or a leg lacks its inputs.
    """
    if config.cumulative_horizon != mapping.horizon:
        raise ConfigurationError(
            f"chain filter horizon {config.cumulative_horizon} differs from the "
            f"cumulative mapping's horizon {mapping.horizon}"
        )
    order = chain.topological_order()
    missing = [name for name in order if name not in legs]
    if missing:
        raise ConfigurationError(f"chain references unknown legs {missing}")
    delta_Y = np.asarray(delta_Y, dtype=float).reshape(-1)

    states: dict[str, LegState] = {}
    current_delta: dict[str, np.ndarray] = {
        name: np.zeros(len(legs[name].od_index)) for name in order
    }
    for name in chain.roots():
        if name in root_deltas:
            current_delta[name] = np.asarray(root_deltas[name], dtype=float).copy()

    for name in order:
        feeders = chain.feeds.get(name, ())
        if not feeders:
            if name not in root_P0:
                raise ConfigurationError(f"no prior covariance for root leg {name!r}")
            state = FilterState(mean=current_delta[name], cov=root_P0[name])
            states[name] = LegState(name=name, state=state,
                                    prior_norm=float(np.linalg.norm(state.mean)))
            continue
        for f in feeders:
            if f not in states:
                raise ConfigurationError(
                    f"leg {name!r} processed before its feeder {f!r}"
                )
        if name not in operators or name not in leg_Q:
            raise ConfigurationError(f"missing operator or process noise for leg {name!r}")
        pred = leg_time_update([states[f].state for f in feeders], operators[name], leg_Q[name])
        current_delta[name] = pred.mean

        others = np.zeros_like(delta_Y)
        for other in order:
            if other != name:
                others += mapping.matrix(other) @ current_delta[other]
        post = kf_measurement_update(pred, mapping.matrix(name), R, delta_Y - others)

        leg_state = LegState(name=name, state=post, prior_norm=float(np.linalg.norm(pred.mean)))
        if config.mode == "spkf":
            estimate = legs[name].flows + post.mean
            fed = [legs[f].flows + states[f].state.mean for f in feeders]
            s = scale_factor(estimate, fed)
            rescaled = apply_conservation(estimate, s)
            leg_state.scale = s
            leg_state.conservation_residual = float(
                abs(rescaled.sum() - np.sum([f.sum() for f in fed]))
            )
            leg_state.state = FilterState(
                mean=rescaled - legs[name].flows, cov=post.cov / (s * s)
            )
        states[name] = leg_state
        current_delta[name] = leg_state.state.mean
    return states


def combined_demand(
    historical: np.ndarray,
    interval_deltas: np.ndarray,
    leg_deltas: dict[str, np.ndarray],
    legs: dict[str, DemandLeg],
    start: int = 0,
) -> tuple[np.ndarray, int]:
    """Historical matrix plus interval deviations plus leg terms, clamped at 0.

    The matrices cover the intervals from ``start`` on.  The leg terms are
    ``legs.leg_terms`` of each leg's deviation over those intervals, added in
    the order of ``leg_deltas``.  Returns the estimate and the number of
    clamped cells (also logged).

    Raises:
        ConfigurationError: if a leg with a deviation is not in ``legs`` or
            has no shares covering the intervals.
    """
    unknown = sorted(set(leg_deltas) - set(legs))
    if unknown:
        raise ConfigurationError(f"deviations given for unknown legs {unknown}")
    x = np.asarray(historical, dtype=float) + np.asarray(interval_deltas, dtype=float)
    terms = ((legs[name], dn) for name, dn in leg_deltas.items())
    for rows, term in leg_terms(terms, start, start + x.shape[1]):
        x[rows] += term
    clamped = int((x < 0.0).sum())
    if clamped:
        logger.info("combined estimate clamped %d negative cells to zero", clamped)
        x = np.maximum(x, 0.0)
    return x, clamped


def predict_horizon(
    historical: np.ndarray,
    last: np.ndarray,
    leg_deltas: dict[str, np.ndarray],
    legs: dict[str, DemandLeg],
    window: tuple[int, int],
) -> tuple[np.ndarray, int]:
    """Predict the demand for intervals [start, stop) past the cutoff.

    ``last`` is the interval filter's last posterior mean.  The identity
    random walk carries it flat over the whole window, and each interval
    combines it with the leg terms, read from ``legs``' shares over the
    window.  Uses no measurements and no loader, only the historical matrix
    and the supplied state.

    Raises:
        ConfigurationError: if the window leaves the historical matrix, or
            ``last`` is not finite.
    """
    historical = np.asarray(historical, dtype=float)
    start, stop = window
    if not (0 <= start <= stop <= historical.shape[1]):
        raise ConfigurationError(f"prediction window {window} outside horizon {historical.shape[1]}")
    x = np.asarray(last, dtype=float)
    if not np.isfinite(x).all():
        raise ConfigurationError("prediction state has non-finite entries")
    # + 0.0 turns -0.0 into 0.0, so a zero deviation leaves no -0.0 in the demand
    deltas = np.repeat((x + 0.0)[:, None], stop - start, axis=1)
    return combined_demand(historical[:, start:stop], deltas, leg_deltas, legs, start)
