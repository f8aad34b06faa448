"""Per-leg filtering over trip chains and the combined estimator.

The interval filter of :mod:`odchain.kalman` estimates each measured
interval's relative deviation ``r_h`` from the historical matrix; this module
carries the morning's structural deviation across the day.  Each root leg
starts from what the morning estimated, ``flows ⊙ r̄``, where ``r̄`` is ``r``
averaged over the measured intervals with the weights ``flows ⊙ shares``
(``root_deviations``).  Each chained leg's historical flows are rebuilt, in
topological order, from its operator and its feeders' rebuilt flows
(``chain_consistent_legs``), so the history the chain starts from keeps
the tour; chained legs then inherit their feeders' deviations through the
redistribution operators (the interval filter's ``kf_time_update``), and
cumulative detector counts up to a horizon correct each leg in turn.  spkf's
conservation step, in ``run_leg_chain``, rescales a leg so its estimated
total matches what its operator carries of its feeders'.

Each chained leg's estimate, its rebuilt flows plus its deviation, is then
scaled by ``leg_retention``: the share of its feeders' arrivals that the
history sends on the leg, where the leg's origin zones agree on it, and 1,
a closed tour, where they scatter.

Every model's estimate is ``(hist − W) ⊙ (1 + R) + Σ_c est_c ⊙ profile_c``,
clamped at 0 (``combined_demand``): ``W`` is the chained legs' historical
demand, ``est_c`` a chained leg's estimate, and ``R`` is ``r_h`` over the
measured intervals.  kf chains no leg, so its estimate is
``hist ⊙ (1 + R)``.  Predictions beyond the cutoff (``predict_horizon``)
reuse that formula with ``R`` the last relative deviation, carried flat as
the identity random walk does, and touch neither new measurements nor the
loader.  A leg's term, a per-OD vector spread over its departure shares on
its member rows, comes from the one routine ``legs.leg_terms``: the root
legs' weights and the attribution weights (the leg's flows), the chained
legs' historical and estimated demand in the estimate, and the generated
demand of :mod:`odchain.generation` (its flows) are each a sum of its
terms.

``attribute_interval_deviations`` splits absolute interval deviations across
legs by expected shares; no estimate reads it, and the run reports the
totals it attributes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .assignment import CumulativeMapping
from .errors import ChainConsistencyError, ConfigurationError
from .kalman import (ArModel, FilterState, check_noise_matrix, kf_measurement_update,
                     kf_time_update)
from .legs import ChainSpec, DemandLeg, LegOperator, leg_terms, propagate_leg_deviation
from .network import od_label

logger = logging.getLogger(__name__)

#: The models that run the leg chain: plain, and with the conservation rescale.
CHAIN_MODELS = ("pkf", "spkf")


@dataclass(frozen=True)
class ChainFilterConfig:
    """Mode (one of ``CHAIN_MODELS``: "pkf" plain, "spkf" with conservation)
    and the cumulative horizon."""

    mode: str = "pkf"
    cumulative_horizon: int = 0

    def __post_init__(self) -> None:
        if self.mode not in CHAIN_MODELS:
            raise ConfigurationError(f"unknown chain filter mode {self.mode!r}")
        if self.cumulative_horizon < 0:
            raise ConfigurationError("cumulative horizon must be >= 0")


@dataclass
class LegState:
    """Deviation state of one leg plus bookkeeping for diagnostics."""

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
        if deltas.shape[1]:
            terms = np.where(active[rows], deltas[rows] * w / total[rows], 0.0)
            # a running sum adds column after column, as a sum from zero
            # does; + 0.0 turns a -0.0 total into the 0.0 that zero start gives
            dev[rows] = np.cumsum(terms, axis=1, out=terms)[:, -1] + 0.0
        out[leg.name] = dev
    if dropped > 0.0:
        logger.warning(
            "%.3g units of interval deviation had no active leg and were dropped", dropped
        )
    return out


def root_deviations(relative: np.ndarray, legs: list[DemandLeg]) -> dict[str, np.ndarray]:
    """Each leg's deviation ``flows ⊙ r̄`` from the filtered relative deviations.

    ``relative`` is (n_od, n_intervals), one column per measured interval
    from the first.  Per member OD, ``r̄`` is the mean of its row weighted by
    the leg's ``leg_terms`` term of its flows (``flows ⊙ shares`` over those
    intervals), and 0 where that weighs nothing; off the members the
    deviation is 0.

    Raises:
        ConfigurationError: if a leg lacks shares covering the intervals.
    """
    relative = np.asarray(relative, dtype=float)
    out = {}
    terms = leg_terms(((leg, leg.flows) for leg in legs), 0, relative.shape[1])
    for leg, (rows, w) in zip(legs, terms):
        weight = w.sum(axis=1)
        mean = np.zeros(len(leg.od_index))
        mean[rows] = np.divide((w * relative[rows]).sum(axis=1), weight,
                               out=np.zeros(len(rows)), where=weight > 0.0)
        out[leg.name] = leg.flows * mean
    return out


def chain_consistent_legs(
    legs: dict[str, DemandLeg], chain: ChainSpec, operators: dict[str, LegOperator]
) -> dict[str, DemandLeg]:
    """``legs`` with each chained leg's flows rebuilt from its feeders'.

    In topological order, a chained leg's flows become its operator applied
    to its feeders' flows, already rebuilt; root legs and their shares stay
    as given.  A history whose tour does not close is so replaced by the
    one its root legs imply.  The check is per OD: an OD with flow of its
    own is rebuilt as 0 exactly where its origin zone receives nothing from
    the feeders, and a rebuild that so erases it is refused, whether one
    origin zone goes unfed or, with an empty feeder, every one does.

    Raises:
        ConfigurationError: if a chained leg has no operator.
        ChainConsistencyError: naming the leg, its feeders and the ODs, if
            a chained leg's OD is rebuilt as 0 where its own flow is not.
    """
    out = dict(legs)
    for name in chain.topological_order():
        feeders = chain.feeds.get(name, ())
        if not feeders:
            continue
        if name not in operators:
            raise ConfigurationError(f"no operator for chained leg {name!r}")
        flows = propagate_leg_deviation(operators[name], [out[f].flows for f in feeders])
        own = legs[name].flows
        erased = (flows == 0.0) & (own > 0.0)
        if erased.any():
            ods = [od_label(legs[name].od_index[i]) for i in np.flatnonzero(erased)]
            raise ChainConsistencyError(
                f"chained leg {name!r}: its feeders {list(feeders)} carry nothing to its ODs "
                f"{ods}, so their rebuilt flows are 0 where their own total {own[erased].sum():g}")
        out[name] = replace(legs[name], flows=flows)
    return out


#: How many standard errors of its origin zones' scatter a chained leg's
#: historical retention must lie from 1 to be kept whole (``leg_retention``).
RETENTION_Z = 10.0


def leg_retention(historical: DemandLeg, consistent: DemandLeg) -> float:
    """The share of its feeders' arrivals that the history sends on this leg.

    ``consistent`` is the leg rebuilt from its feeders
    (``chain_consistent_legs``).  Each origin zone's retention is its
    historical flows over its rebuilt flows; ``ρ`` is their mean weighted
    by the rebuilt flows, the ratio of the two totals.  A history that
    scales the truth as a whole keeps the truth's retention in every zone
    alike, so a break in the tour shows in all of them; a history that errs
    per OD scatters them.  So ``ρ`` is shrunk toward 1 by
    ``k = max(0, 1 − RETENTION_Z² · v / (ρ − 1)²)``,
    where ``v`` is the variance of that weighted mean from the zones'
    scatter, and the result is ``1 + k (ρ − 1)``: ``ρ`` itself where the
    zones agree exactly, 1 where one zone alone cannot tell a break from
    noise or nothing is rebuilt.
    """
    zones: dict[str, list[float]] = {}
    for i in np.flatnonzero(consistent.flows > 0.0):
        kept = zones.setdefault(consistent.od_index[i][0], [0.0, 0.0])
        kept[0] += float(historical.flows[i])
        kept[1] += float(consistent.flows[i])
    if len(zones) < 2:
        return 1.0
    hist_z, rebuilt_z = np.array(list(zones.values())).T
    weights = rebuilt_z / rebuilt_z.sum()
    ratios = hist_z / rebuilt_z
    rho = float(weights @ ratios)
    if rho == 1.0:
        return 1.0
    w2 = float(weights @ weights)
    v = float(weights @ (ratios - rho) ** 2) * w2 / (1.0 - w2)
    k = max(0.0, 1.0 - RETENTION_Z ** 2 * v / (rho - 1.0) ** 2)
    return 1.0 + k * (rho - 1.0)


def leg_time_update(
    predecessors: list[FilterState], operator: LegOperator, Q: np.ndarray
) -> FilterState:
    """The leg's prior: ``kf_time_update`` of its feeders by its operator.

    Raises:
        ValueError: if ``Q`` has a non-finite entry or is not symmetric
            (``check_noise_matrix``), which the symmetrizing would hide.
        ConfigurationError: as ``kf_time_update`` raises it.
    """
    Q = np.asarray(Q, dtype=float)
    check_noise_matrix("Q", Q)
    return kf_time_update(predecessors, ArModel((operator.matrix,)), Q)


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
    """Estimate every leg's deviation against one running fit, the roots first.

    ``root_deltas`` names every root of ``chain`` and nothing else; each root
    is seeded with a copy of its deviation and its prior covariance.  Each
    chained leg, in topological order, is time-updated from its finalized
    feeders and corrected against ``delta_Y − fitted``, net of the counts
    already fitted to the roots and the chained legs before it; "spkf" then
    divides its estimate, rebuilt flows plus deviation, by the scale ``s``,
    its estimated total over its feeders' estimated total, so the two totals
    match, and divides its covariance by ``s²``; ``conservation_residual`` is
    the absolute difference of the two totals left after.  The feeders'
    total leaves out their member ODs that the leg's operator drops, the
    arrivals at a zone where the leg generates nothing
    (``build_leg_operator``).  Each final leg adds its
    ``mapping.matrix(leg) @ mean`` to ``fitted``.

    Raises:
        ConfigurationError: if ``config.cumulative_horizon`` is not the
            horizon of ``mapping``, a leg lacks its inputs, or
            ``root_deltas`` names a leg that is no root.
        ValueError: in "spkf", naming the leg, if its feeders' estimated
            total or its scale is not positive.
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
    roots = chain.roots()
    if set(root_deltas) != set(roots):
        unknown = sorted(set(root_deltas) - set(roots))
        raise ConfigurationError(f"root deviations must name the roots {list(roots)}: missing "
                                 f"{[n for n in roots if n not in root_deltas]}, unknown {unknown}")
    delta_Y = np.asarray(delta_Y, dtype=float).reshape(-1)

    states: dict[str, LegState] = {}
    fitted = np.zeros_like(delta_Y)
    for name in roots:
        if name not in root_P0:
            raise ConfigurationError(f"no prior covariance for root leg {name!r}")
        state = FilterState(mean=np.array(root_deltas[name], dtype=float), cov=root_P0[name])
        states[name] = LegState(state=state, prior_norm=float(np.linalg.norm(state.mean)))
        fitted += mapping.matrix(name) @ state.mean

    for name in (n for n in order if chain.feeds[n]):
        feeders = chain.feeds[name]
        if name not in operators or name not in leg_Q:
            raise ConfigurationError(f"missing operator or process noise for leg {name!r}")
        pred = leg_time_update([states[f].state for f in feeders], operators[name], leg_Q[name])
        post = kf_measurement_update(pred, mapping.matrix(name), R, delta_Y - fitted)

        leg_state = LegState(state=post, prior_norm=float(np.linalg.norm(pred.mean)))
        if config.mode == "spkf":
            estimate = legs[name].flows + post.mean
            # a feeder's member OD whose column is all zero arrives at a zone
            # where this leg generates nothing, and the operator drops it
            carried = operators[name].matrix.any(axis=0)
            totals = []
            for f in feeders:
                dropped = ~carried & np.isin(np.arange(carried.size), legs[f].member_indices())
                totals.append(np.where(dropped, 0.0, legs[f].flows + states[f].state.mean).sum())
            fed = float(np.sum(totals))
            if fed <= 0.0:
                raise ValueError(f"leg {name!r}: feeding legs total {fed!r}; "
                                 "conservation scale undefined")
            s = float(estimate.sum()) / fed
            if s <= 0.0:
                raise ValueError(f"leg {name!r}: conservation scale must be > 0, got {s!r}")
            rescaled = estimate / s
            leg_state.scale = s
            leg_state.conservation_residual = float(abs(rescaled.sum() - fed))
            leg_state.state = FilterState(
                mean=rescaled - legs[name].flows, cov=post.cov / (s * s)
            )
        states[name] = leg_state
        fitted += mapping.matrix(name) @ leg_state.state.mean
    return states


def combined_demand(
    historical: np.ndarray,
    relative: np.ndarray,
    chained: dict[str, np.ndarray],
    legs: dict[str, DemandLeg],
    start: int = 0,
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """``(historical − W) ⊙ (1 + relative) + Σ_c chained[c] ⊙ profile_c``, clamped at 0.

    The matrices cover the intervals from ``start`` on; ``relative`` is the
    relative deviation per OD and interval, or one column carried over all
    of them.  ``chained`` maps each chained leg to its estimated flows
    (rebuilt flows plus deviation); ``W`` is those legs' historical demand,
    the ``legs.leg_terms`` of ``legs``' flows, and both sums are their terms
    on member rows, in the order of ``chained``.  The estimate is written
    into ``out`` when given, else into a new array.  Returns the estimate
    and the number of clamped cells (also logged).

    Raises:
        ConfigurationError: if a chained leg is not in ``legs`` or has no
            shares covering the intervals.
    """
    unknown = sorted(set(chained) - set(legs))
    if unknown:
        raise ConfigurationError(f"estimates given for unknown legs {unknown}")
    historical = np.asarray(historical, dtype=float)
    x = np.empty_like(historical) if out is None else out
    x[...] = historical
    stop = start + x.shape[1]
    for rows, w in leg_terms(((legs[name], legs[name].flows) for name in chained), start, stop):
        x[rows] -= w
    x *= 1.0 + np.asarray(relative, dtype=float)
    for rows, term in leg_terms(((legs[name], v) for name, v in chained.items()), start, stop):
        x[rows] += term
    clamped = int((x < 0.0).sum())
    if clamped:
        logger.info("combined estimate clamped %d negative cells to zero", clamped)
        np.maximum(x, 0.0, out=x)
    return x, clamped


def predict_horizon(
    historical: np.ndarray,
    last: np.ndarray,
    chained: dict[str, np.ndarray],
    legs: dict[str, DemandLeg],
    window: tuple[int, int],
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Predict the demand for intervals [start, stop) past the cutoff.

    ``last`` is the interval filter's last posterior mean, a relative
    deviation.  The identity random walk carries it flat over the whole
    window, so each OD's historical demand there is scaled by ``1 + last``
    and combined with the chained legs' terms, read from ``legs``' shares
    over the window (``combined_demand``, written into ``out`` when given).
    Uses no measurements and no loader, only the historical matrix and the
    supplied state.

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
    return combined_demand(historical[:, start:stop], x[:, None], chained, legs, start, out=out)
