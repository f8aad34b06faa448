"""Estimation: every model's full-day demand estimate from what a run may
read of a generated day.

``estimate`` reads the history (its legs and counts, its link times
released), its demand matrix (``EstimationInputs.historical``, a field the
run fills), the observed counts and the frozen linearization, and nothing
of the true day (``EstimationInputs`` has no field for it).  It estimates
the demand with the requested models:

* ``seed``  - the historical matrix untouched,
* ``kf``    - interval filtering up to the cutoff of the relative deviation
              ``r_h``, read by every lag of the linearization; the estimate
              is ``hist ⊙ (1 + r)``, and the last ``r`` is carried beyond
              the cutoff by the random walk,
* ``pkf``   - kf with the tour chained: the root legs start from the
              morning's ``r``, the chained legs' history is rebuilt from
              their feeders', and the leg chain's estimates of the chained
              legs, scaled by the retention the history shows
              (``legfilter.leg_retention``), replace their share of kf's,
* ``spkf``  - pkf with the conservation rescale per chained leg.

The interval filter's measurement at interval h is one lag-summed matrix,
``H_h = Σ_l pieces[h − l, h] · diag(hist[:, h − l])``
(a row of ``AssignmentMatrix.lag_rows``): the counts' response
to a relative deviation that every interval the counts reach back to shares.
Its prior is ``prior²·11ᵀ + PRIOR_PER_OD²·I`` (``noise.prior`` is the
common mode) and its random walk ``WALK_COMMON²·11ᵀ + WALK_PER_OD²·I`` per
``WALK_MINUTES`` (15) of interval length, both on the relative state.

All models consume the same measurements, and none consumes anything past
the cutoff; predictions beyond it never touch the loader.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import assignment as assignment_mod
from .assignment import AssignmentMatrix, LinkFlowSeries, cumulative_mapping
from .generation import GeneratedSide, positive_mean
from .kalman import FilterState, KfStepDiagnostics, NoiseModel, min_eigenvalue, run_kf_sequence
from .legfilter import (
    CHAIN_MODELS,
    ChainFilterConfig,
    attribute_interval_deviations,
    chain_consistent_legs,
    combined_demand,
    leg_retention,
    predict_horizon,
    root_deviations,
    run_leg_chain,
)
from .legs import ChainSpec, build_leg_operator
from .network import read_only_view
from .scenario import ScenarioConfig

logger = logging.getLogger(__name__)


@dataclass
class EstimationInputs:
    """What estimation reads of a generated day, and nothing of the truth.

    ``history`` is the historical day, its load's link times released;
    ``historical`` its demand matrix, which ``run_experiment`` expands once,
    so estimation, scoring and the report share one.  ``estimate`` clears
    ``assignment``, the frozen linearization, once it has read it."""

    history: GeneratedSide
    historical: np.ndarray
    observed: LinkFlowSeries
    assignment: AssignmentMatrix | None


@dataclass
class ModelRow:
    """One model's record, filled in as the run goes.

    ``status`` is ``"ok"`` or ``"failed"``; a failed row's ``error`` is
    ``"<exception type>: <message>"`` of the stage that failed it.
    ``runtime_s`` adds up every stage the model took part in: the stages it
    shares with other models (the filtering pass, the leg chain's inputs),
    its own estimation and its scoring.  ``extras`` holds the scoring window
    RMSEs first, then what estimation reports (``clamped_cells``,
    ``prediction_load_calls``)."""

    model: str
    status: str = "ok"
    error: str = ""
    rmse_od: float | None = None
    rmse_link: float | None = None
    impr_od_pct: float | None = None
    impr_link_pct: float | None = None
    runtime_s: float = 0.0
    extras: dict = field(default_factory=dict)


@dataclass
class LegDiagnostics:
    """One leg of one chain model's leg chain: the norms of the leg's
    deviation before and after its cumulative-count update, spkf's
    conservation rescale (1 where none ran) and the gap it leaves between
    the leg's total and its feeders'."""

    model: str
    leg: str
    prior_mean_norm: float
    posterior_mean_norm: float
    scale: float
    conservation_residual: float


#: Per-OD std of the interval filter's relative prior, beside ``noise.prior``,
#: the std of its common mode.
PRIOR_PER_OD = 0.1
#: Common-mode and per-OD std of the relative state's random walk over
#: ``WALK_MINUTES``.  A random walk's variance grows with the time it runs, so
#: an interval of m minutes adds ``m / WALK_MINUTES`` of these variances: the
#: state drifts as far per hour on any grid, and a finer grid does not let
#: the last interval's counts pull the carried deviation further.
WALK_COMMON = 0.03
WALK_PER_OD = 0.01
WALK_MINUTES = 15


def _noise_models(cfg: ScenarioConfig, history: GeneratedSide):
    """The interval filter's noise and its prior covariance.

    Its state is relative, so its prior and random walk are a common mode
    plus a per-OD part: ``noise.prior`` is the prior's common-mode std, and
    the other three stds are this module's constants.  The measurement
    noise is ``noise.measurement`` of the history's mean positive count."""
    n_od = len(cfg.network.od_index)
    counts = history.load.counts.counts
    ones = np.ones((n_od, n_od))
    Q = (cfg.grid.interval_minutes / WALK_MINUTES
         * (WALK_COMMON ** 2 * ones + WALK_PER_OD ** 2 * np.eye(n_od)))
    R = (cfg.noise.measurement * positive_mean(counts)) ** 2 * np.eye(len(counts))
    P0 = cfg.noise.prior ** 2 * ones + PRIOR_PER_OD ** 2 * np.eye(n_od)
    return NoiseModel(Q=Q, R=R), P0


def _leg_noise(cfg: ScenarioConfig, chain: ChainSpec, history: GeneratedSide,
               hist_matrix: np.ndarray, cum_hist: np.ndarray):
    """The leg chain's noise at the history's demand ``hist_matrix``: a prior
    covariance for each root leg of ``chain`` and a process noise for each
    chained leg, the only ones ``run_leg_chain`` reads, and the measurement
    noise of ``cum_hist``, the history's cumulative counts at the cutoff,
    which ``estimate`` sums.  A leg with no positive flow takes the
    history's mean positive flow, and a ``cum_hist`` with no positive entry
    the mean positive count."""
    mean_flow = positive_mean(hist_matrix)
    n_od = len(cfg.network.od_index)
    leg_Q: dict[str, np.ndarray] = {}
    root_P0: dict[str, np.ndarray] = {}
    roots = chain.roots()
    for name, leg in history.legs.items():
        mean_leg = positive_mean(leg.flows) if (leg.flows > 0).any() else mean_flow
        if name in roots:
            root_P0[name] = (cfg.noise.leg_prior * mean_leg) ** 2 * np.eye(n_od)
        else:
            leg_Q[name] = (cfg.noise.leg_process * mean_leg) ** 2 * np.eye(n_od)

    mean_cum = (positive_mean(cum_hist) if (cum_hist > 0).any()
                else positive_mean(history.load.counts.counts))
    R_cum = (cfg.noise.cumulative_measurement * mean_cum) ** 2 * np.eye(len(cum_hist))
    return leg_Q, root_P0, R_cum


@contextmanager
def stage(rows: dict[str, ModelRow], models, what: str):
    """Time one stage into the row of every model in ``models``, which share it.

    ``models`` are the stage's models still standing (``standing``).  An
    exception in the stage does not propagate: it is logged once and every
    one of those rows is marked failed with it, so the report can still
    carry the other models, and no later stage runs for them.
    """
    t = time.perf_counter()
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - a failed stage fails only the rows that share it
        logger.exception("%s failed", what)
        for model in models:
            rows[model].status = "failed"
            rows[model].error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t
        for model in models:
            rows[model].runtime_s += elapsed


def standing(rows: dict[str, ModelRow], models) -> list[str]:
    """The models of ``models`` whose rows no stage has failed yet, in order."""
    return [m for m in models if rows[m].status == "ok"]


def estimate(cfg: ScenarioConfig, inputs: EstimationInputs, rows: dict[str, ModelRow]):
    """Produce the full-day demand estimate of every model in ``rows``, from
    ``inputs``, whose ``assignment`` it clears.

    First the band's three readings are taken: the filter's measurement
    rows over the measured intervals (``lag_rows``), the intervals whose
    departures no detector counts, and, when a chain model runs, the
    cumulative mapping.  Then the band is cleared from ``inputs``, so
    nothing of this call holds it while the filter runs.  One filtering pass
    of the relative deviation serves every filter model.  Where a leg is
    chained, pkf and spkf share the leg chain's inputs (the root legs'
    deviations, the chain-consistent legs, the operators and the cumulative
    counts) and each runs its own leg chain, which gives its chained legs'
    estimated flows and its leg diagnostics.  One assembly per model then
    builds kf, pkf and spkf alike, morning and evening, into each model's
    own matrix (``combined_demand``, ``predict_horizon``): with no chained
    leg for kf, nor for any model when no leg is chained, so pkf and spkf
    then equal kf.  The seed's estimate, made with the other models', is a
    read-only view of ``inputs.historical``.

    Each dense input lives from its first reader to its last.  The filter
    builds only its own noise and frees its measurement rows when it
    returns.  The operators, the rebuilt history, the retentions, the root
    deviations, the cumulative count deviation and the leg chain's noise are
    built after the filter, the last two from ``cum_hist``, the history's
    counts summed along the day once, and all of the leg chain's inputs are
    freed before the assembly.

    Each stage runs under ``stage`` over the models of its group still
    standing (``standing``), and not at all where none is: its time goes to
    each of them, and a failure marks them failed (a failure of the band's
    readings or the filtering pass fails every filter model, the mapping or
    another of the leg chain's inputs, its noise among them, only pkf and
    spkf), so a model whose assembly fails keeps its leg diagnostics.
    A filter model's ``extras`` get its ``clamped_cells`` and
    ``prediction_load_calls``.

    Returns the estimates of the models that did not fail, the kf and leg
    diagnostics, and notes for the report's ``diagnostics``: the totals
    that ``attribute_interval_deviations`` gives each leg of the morning's
    absolute deviations ``hist ⊙ r`` (``attributed_totals``), each chained
    leg's ``leg_retention``, by which pkf and spkf scale its estimate, the
    number of measured intervals whose measurement matrix is all zero
    (``unobserved_intervals``, logged at info level: early in the day no
    departure has reached a detector yet, and later counts read them), the
    number whose departures no detector counts at any lag although the
    history has demand there (``uncounted_intervals``, from the band),
    which a warning reports when it is not 0, and the smallest eigenvalue
    of the last posterior covariance, the one that prediction reads
    (``kf_last_cov_min_eigenvalue``, from ``eigvalsh``; ``None`` where no
    filter model ran).
    """
    cut = cfg.cutoff_index
    n_h = cfg.grid.n_intervals
    hist = inputs.history
    hist_matrix = inputs.historical
    frozen, inputs.assignment = inputs.assignment, None
    estimates: dict[str, np.ndarray] = {}
    kf_diag: list[KfStepDiagnostics] = []
    leg_diag: list[LegDiagnostics] = []
    notes: dict = {"attributed_totals": {}, "leg_retention": {}, "unobserved_intervals": 0,
                   "uncounted_intervals": 0, "kf_last_cov_min_eigenvalue": None}
    chain = cfg.chain()
    chained = [n for n in chain.topological_order() if chain.feeds.get(n)]
    filter_models = [m for m in rows if m != "seed"]
    chain_models = [m for m in CHAIN_MODELS if m in rows] if chained else []

    # the band's readings come first, the cumulative mapping last, and the
    # band is freed before the filter starts
    if models := standing(rows, filter_models):
        with stage(rows, models, "reading the band"):
            measured, scatter = frozen.lag_rows(cut, hist_matrix), frozen.pair_matrix
            counted = frozen.band[:cut].any(axis=(1, 2))
    if models := standing(rows, chain_models):
        with stage(rows, models, "cumulative mapping"):
            mapping = cumulative_mapping(frozen, hist.profiles(), cut - 1)
    del frozen

    if models := standing(rows, filter_models):
        with stage(rows, models, "interval filtering"):
            noise, P0 = _noise_models(cfg, hist)
            delta_y = inputs.observed.counts - hist.load.counts.counts
            # the provider and the prior are passed, not kept, so the prior's
            # root is freed when the filter returns
            kf = run_kf_sequence(
                lambda h: scatter(measured[h]), delta_y[:, :cut], noise,
                init=FilterState(mean=np.zeros(len(hist_matrix)), cov=P0))
            kf_diag.extend(kf.diagnostics)
            notes["unobserved_intervals"] = sum(d.measurement_norm == 0.0 for d in kf.diagnostics)
            logger.info("the measurement matrix of %d of %d measured intervals is all zero",
                        notes["unobserved_intervals"], cut)
            # the measured intervals with departures that no detector counts at any lag
            uncounted = int(((hist_matrix[:, :cut] > 0).any(axis=0) & ~counted).sum())
            notes["uncounted_intervals"] = uncounted
            if uncounted:
                logger.warning("the departures of %d of %d measured intervals are counted by no "
                               "detector: the filter never sees them", uncounted, cut)
            notes["kf_last_cov_min_eigenvalue"] = min_eigenvalue(kf.last.cov)
            # prediction reads the last posterior's mean alone, so its covariance
            # and root are not kept through the leg chain and the assembly, nor
            # are the noise, the prior, the count deviations and the measurement rows
            deltas, last_mean = kf.deltas, kf.last.mean
            del kf, noise, P0, delta_y, measured, scatter, counted

    # pkf and spkf share the chain's inputs, which do not depend on the mode
    if models := standing(rows, chain_models):
        with stage(rows, models, "leg-chain inputs"):
            attributed = attribute_interval_deviations(
                hist_matrix[:, :cut] * deltas, [hist.legs[n] for n in chain.topological_order()]
            )
            notes["attributed_totals"].update((n, float(v.sum())) for n, v in attributed.items())
            del attributed
            operators = {
                name: build_leg_operator(
                    chain, [hist.legs[f] for f in chain.feeds[name]], hist.legs[name],
                    uniform_redistribution=cfg.estimation.uniform_redistribution)
                for name in chained
            }
            consistent = chain_consistent_legs(hist.legs, chain, operators)
            retention = notes["leg_retention"]
            retention.update((n, leg_retention(hist.legs[n], consistent[n])) for n in chained)
            roots = root_deviations(deltas, [hist.legs[n] for n in chain.roots()])
            # a copy, so the day's running totals are freed here
            cum_hist = hist.load.counts.cumulative()[:, cut - 1].copy()
            delta_Y = inputs.observed.cumulative()[:, cut - 1] - cum_hist
            leg_Q, root_P0, R_cum = _leg_noise(cfg, chain, hist, hist_matrix, cum_hist)

    chained_flows: dict[str, dict[str, np.ndarray]] = {}
    for model in standing(rows, chain_models):
        with stage(rows, (model,), f"leg chain {model}"):
            states = run_leg_chain(
                consistent, chain, operators, roots, mapping, delta_Y,
                config=ChainFilterConfig(mode=model, cumulative_horizon=cut - 1),
                leg_Q=leg_Q, root_P0=root_P0, R=R_cum)
            chained_flows[model] = {
                n: retention[n] * (consistent[n].flows + states[n].state.mean) for n in chained}
            for n in chain.topological_order():
                s = states[n]
                leg_diag.append(LegDiagnostics(
                    model, n, s.prior_norm, float(np.linalg.norm(s.state.mean)), s.scale,
                    s.conservation_residual))
            # the legs' covariances and roots are read no further
            del states, s

    # the assembly reads none of the leg chain's inputs
    operators = consistent = mapping = delta_Y = roots = leg_Q = root_P0 = R_cum = None
    for model in standing(rows, rows):
        with stage(rows, (model,), f"model {model}"):
            if model == "seed":
                estimates[model] = read_only_view(hist_matrix)
                continue
            terms = chained_flows.get(model, {})
            est = np.empty_like(hist_matrix)
            _, clamped_m = combined_demand(hist_matrix[:, :cut], deltas, terms, hist.legs,
                                           out=est[:, :cut])
            before = assignment_mod.load_call_count()
            _, clamped_e = predict_horizon(hist_matrix, last_mean, terms, hist.legs,
                                           (cut, n_h), out=est[:, cut:])
            pred_loads = assignment_mod.load_call_count() - before
            estimates[model] = est
            rows[model].extras.update(
                clamped_cells=clamped_m + clamped_e, prediction_load_calls=pred_loads)
    return estimates, kf_diag, leg_diag, notes
