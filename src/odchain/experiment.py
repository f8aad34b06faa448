"""Experiment harness: truth generation, model runs, metrics and reports.

A run generates a true day and a perturbed historical day on the scenario's
network (each in two passes, so departure profiles respond to that side's own
congestion), observes the true detector counts with optional noise,
linearizes the assignment once, at the link times of the historical load,
and then estimates the demand with the requested models:

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
the cutoff; predictions beyond it never touch the loader.  OD RMSE spans all
(OD, interval) cells against the truth; link RMSE compares each model's
loaded counts against the noise-free true counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import os
import re
import secrets
import time
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import assignment as assignment_mod
from .assignment import (
    AssignmentMatrix,
    DynamicDemand,
    LinkFlowSeries,
    LoadResult,
    assignment_matrix,
    cumulative_mapping,
    detector_counts,
    load_network,
)
from .departure import departure_probabilities
from .errors import ConfigurationError, DegenerateProfileError
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
from .legs import ChainSpec, DemandLeg, build_leg_operator, leg_terms
from .network import OD, Network, TimeGrid, od_label, read_only_view
from .scenario import MODELS, ScenarioConfig

logger = logging.getLogger(__name__)


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    """Root mean square difference over all cells.

    Raises:
        ValueError: on shape mismatch or empty input.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("empty input")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _positive_mean(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    mask = values > 0
    if not mask.any():
        raise ConfigurationError("no positive cells to scale noise from")
    return float(values[mask].mean())


class _DenseProfiles(Mapping):
    """Leg name -> the leg's dense profile (``DemandLeg.profile``), built on
    each access and not kept, so iterating holds one leg's matrix at a time."""

    def __init__(self, legs: dict[str, DemandLeg]) -> None:
        self._legs = legs

    def __getitem__(self, name: str) -> np.ndarray:
        return self._legs[name].profile

    def __iter__(self):
        return iter(self._legs)

    def __len__(self) -> int:
        return len(self._legs)


@dataclass
class GeneratedSide:
    """One generated day: legs with their shares and the load of their demand.

    The demand is not kept: ``demand`` expands it from the legs on each
    access, as ``DemandLeg.profile`` is built, so a reader that keeps the
    matrix reads it once."""

    legs: dict[str, DemandLeg]
    load: LoadResult

    @property
    def demand(self) -> DynamicDemand:
        return _expand(self.load.counts.grid, self.legs)

    def profiles(self) -> Mapping[str, np.ndarray]:
        """Each leg's dense (n_od, n_intervals) profile, zero off its members,
        as a read-only mapping that builds one leg's matrix per access."""
        return _DenseProfiles(self.legs)


@dataclass
class ExperimentArtifacts:
    """What generation hands to estimation and scoring.

    ``truth`` is the true day.  Estimation reads none of it, so
    ``run_experiment`` keeps its demand matrix, counts and spill total and
    hands ``_estimate`` a copy with ``truth=None`` and the history's link
    times released, whose ``assignment`` ``_estimate`` sets to ``None``
    after its last reader; the object returned by
    ``generate_truth_and_history`` is never changed.
    ``od_index`` and ``chain`` are the scenario's.
    """

    config: ScenarioConfig
    truth: GeneratedSide | None
    history: GeneratedSide
    observed: LinkFlowSeries
    assignment: AssignmentMatrix | None
    perturbation_factors: dict[str, np.ndarray]

    @property
    def od_index(self) -> tuple[OD, ...]:
        return self.config.network.od_index

    @functools.cached_property
    def chain(self) -> ChainSpec:
        return self.config.chain()


def _free_flow_tt(net: Network, od_index: tuple[OD, ...], grid: TimeGrid) -> np.ndarray:
    tt = np.zeros((len(od_index), grid.n_intervals))
    for i, od in enumerate(od_index):
        tt[i, :] = sum(net.links[l].free_flow_time for l in net.paths[od].links)
    return tt


def _true_legs(cfg: ScenarioConfig, od_index: tuple[OD, ...]) -> dict[str, DemandLeg]:
    """The scenario's legs, in its order, with their true flows and no shares."""
    pos = {od: i for i, od in enumerate(od_index)}
    out = {}
    for leg in cfg.legs:
        v = np.zeros(len(od_index))
        for od, share in leg.od_split.items():
            v[pos[od]] = leg.total * share
        out[leg.name] = DemandLeg(name=leg.name, od_index=od_index, flows=v,
                                  members=tuple(sorted(leg.od_split)))
    return out


def _perturb(
    cfg: ScenarioConfig, od_index: tuple[OD, ...], legs: dict[str, DemandLeg]
) -> dict[str, np.ndarray]:
    """Each leg's per-OD factors from its true flows to its historical ones."""
    spec = cfg.perturbation
    seed = cfg.seed if spec.seed is None else spec.seed
    rng = np.random.default_rng([seed, 101])
    pos = {od: i for i, od in enumerate(od_index)}
    factors: dict[str, np.ndarray] = {}
    for name, leg in legs.items():
        f = np.ones(len(od_index))
        if spec.mode != "none":
            f *= 1.0 + spec.scale
        if spec.mode == "scale_plus_noise" and spec.noise > 0.0:
            for od in leg.members:
                f[pos[od]] *= 1.0 + spec.noise * rng.uniform(-1.0, 1.0)
        factors[name] = f
    return factors


def _shares_at(
    cfg: ScenarioConfig, legs: dict[str, DemandLeg], tt_od: np.ndarray
) -> dict[str, DemandLeg]:
    """``legs`` with each leg's departure shares at the times ``tt_od``, one
    row per member OD, in the order of ``member_indices()``.

    Raises:
        DegenerateProfileError: naming the leg and the OD whose profile has
            no usable mass.
    """
    out: dict[str, DemandLeg] = {}
    for leg_def in cfg.legs:
        leg = legs[leg_def.name]
        rows = leg.member_indices()
        try:
            shares = departure_probabilities(leg_def.schedule, tt_od[rows], cfg.grid)
        except DegenerateProfileError as exc:
            raise DegenerateProfileError(
                f"leg {leg.name!r}, OD {od_label(leg.od_index[rows[exc.row]])}: {exc}") from exc
        out[leg.name] = replace(leg, shares=shares)
    return out


def _congested_legs(cfg: ScenarioConfig, legs: dict[str, DemandLeg]) -> dict[str, DemandLeg]:
    """``legs``, at their free-flow shares, with the departure shares of their
    own congestion instead: the legs are loaded once, and the shares are
    recomputed at that load's times; of the load only those times are read."""
    return _shares_at(cfg, legs, load_network(cfg.network, _expand(cfg.grid, legs)).tt_od)


def _expand(grid: TimeGrid, legs: dict[str, DemandLeg]) -> DynamicDemand:
    """The dynamic matrix of ``legs``, which share one OD index: each leg's
    flows spread over its shares (``leg_terms``), summed from zero in name
    order."""
    od_index = next(iter(legs.values())).od_index
    matrix = np.zeros((len(od_index), grid.n_intervals))
    terms = ((legs[name], legs[name].flows) for name in sorted(legs))
    for rows, term in leg_terms(terms, 0, grid.n_intervals):
        matrix[rows] += term
    return DynamicDemand(od_index=od_index, grid=grid, matrix=matrix)


def _released(load: LoadResult) -> LoadResult:
    """``load`` with its link times released (``link_tt`` ``None``), for a
    holder that reads them no more."""
    return replace(load, link_tt=None)


def generate_truth_and_history(cfg: ScenarioConfig) -> ExperimentArtifacts:
    """Generate both days, the observed counts and the frozen linearization.

    The true day's load keeps its counts and spillover, not its link times
    (``_released``); the history's keeps its link times, at which the band
    was built."""
    problems = cfg.validate()
    if problems:
        raise ConfigurationError("\n".join(problems))
    net = cfg.network
    od_index = net.od_index
    # The free-flow shares depend on the schedules, members and free-flow
    # times alone, so both days start from one set of them.
    true_legs = _shares_at(cfg, _true_legs(cfg, od_index), _free_flow_tt(net, od_index, cfg.grid))
    factors = _perturb(cfg, od_index, true_legs)
    hist_legs = {name: replace(leg, flows=leg.flows * factors[name])
                 for name, leg in true_legs.items()}

    # Both days' share passes run before either day's final load, so no
    # final load's result is held while a share pass loads.  A day keeps its
    # legs and load, not its matrix, which is freed once its load returns.
    # Nothing reads the true load's link times: they are freed before the
    # history loads.
    true_legs = _congested_legs(cfg, true_legs)
    hist_legs = _congested_legs(cfg, hist_legs)
    truth = GeneratedSide(
        legs=true_legs, load=_released(load_network(net, _expand(cfg.grid, true_legs))))
    history = GeneratedSide(legs=hist_legs, load=load_network(net, _expand(cfg.grid, hist_legs)))

    counts = truth.load.counts.counts.copy()
    if cfg.measurement_noise_fraction > 0.0:
        sigma = cfg.measurement_noise_fraction * _positive_mean(counts)
        rng = np.random.default_rng([cfg.seed, 202])
        counts = np.maximum(counts + rng.normal(0.0, sigma, counts.shape), 0.0)
    observed = LinkFlowSeries(
        channels=truth.load.counts.channels, grid=cfg.grid, counts=counts
    )
    frozen = assignment_matrix(cfg.network, od_index, history.load)
    return ExperimentArtifacts(
        config=cfg,
        truth=truth,
        history=history,
        observed=observed,
        assignment=frozen,
        perturbation_factors=factors,
    )


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


@dataclass
class ExperimentReport:
    """What ``run_experiment`` returns and ``emit_report`` writes.

    ``leg_diagnostics`` has one record per leg and chain model, pkf's then
    spkf's, each in topological order (none when no leg is chained).  Rows,
    records and ``diagnostics`` hold plain Python values for ``report.json``."""

    scenario: str
    seed: int
    models: tuple[str, ...]
    rows: list[ModelRow]
    od_index: tuple[OD, ...]
    grid: TimeGrid
    truth: np.ndarray
    historical: np.ndarray
    estimates: dict[str, np.ndarray]
    kf_diagnostics: list[KfStepDiagnostics]
    leg_diagnostics: list[LegDiagnostics]
    diagnostics: dict
    runtime_s: float = 0.0

    def row(self, model: str) -> ModelRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(model)


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


def _noise_models(cfg: ScenarioConfig, artifacts: ExperimentArtifacts):
    """The interval filter's noise and its prior covariance.

    Its state is relative, so its prior and random walk are a common mode
    plus a per-OD part: ``noise.prior`` is the prior's common-mode std, and
    the other three stds are this module's constants.  The measurement
    noise is ``noise.measurement`` of the history's mean positive count."""
    n_od = len(artifacts.od_index)
    counts = artifacts.history.load.counts.counts
    ones = np.ones((n_od, n_od))
    Q = (cfg.grid.interval_minutes / WALK_MINUTES
         * (WALK_COMMON ** 2 * ones + WALK_PER_OD ** 2 * np.eye(n_od)))
    R = (cfg.noise.measurement * _positive_mean(counts)) ** 2 * np.eye(len(counts))
    P0 = cfg.noise.prior ** 2 * ones + PRIOR_PER_OD ** 2 * np.eye(n_od)
    return NoiseModel(Q=Q, R=R), P0


def _leg_noise(cfg: ScenarioConfig, artifacts: ExperimentArtifacts, hist_matrix: np.ndarray,
               cum_hist: np.ndarray):
    """The leg chain's noise at the history's demand ``hist_matrix``: a prior
    covariance for each root leg and a process noise for each chained leg,
    the only ones ``run_leg_chain`` reads, and the measurement noise of
    ``cum_hist``, the history's cumulative counts at the cutoff, which
    ``_estimate`` sums.  A leg with no positive flow takes the history's mean
    positive flow, and a ``cum_hist`` with no positive entry the mean
    positive count."""
    hist = artifacts.history
    mean_flow = _positive_mean(hist_matrix)
    n_od = len(artifacts.od_index)
    leg_Q: dict[str, np.ndarray] = {}
    root_P0: dict[str, np.ndarray] = {}
    roots = artifacts.chain.roots()
    for name, leg in hist.legs.items():
        mean_leg = _positive_mean(leg.flows) if (leg.flows > 0).any() else mean_flow
        if name in roots:
            root_P0[name] = (cfg.noise.leg_prior * mean_leg) ** 2 * np.eye(n_od)
        else:
            leg_Q[name] = (cfg.noise.leg_process * mean_leg) ** 2 * np.eye(n_od)

    mean_cum = (_positive_mean(cum_hist) if (cum_hist > 0).any()
                else _positive_mean(hist.load.counts.counts))
    R_cum = (cfg.noise.cumulative_measurement * mean_cum) ** 2 * np.eye(len(cum_hist))
    return leg_Q, root_P0, R_cum


def _frozen_rows(frozen: AssignmentMatrix, stop: int, hist_matrix: np.ndarray):
    """Interval h's measurement matrix from the frozen linearization: row h
    of its ``lag_rows(stop, hist_matrix)``, built once for the measured
    intervals and scattered into a matrix at each step."""
    rows = frozen.lag_rows(stop, hist_matrix)
    return lambda h: frozen.pair_matrix(rows[h])


@contextmanager
def _stage(rows: dict[str, ModelRow], models, what: str):
    """Time one stage into the row of every model in ``models``, which share it.

    An exception in the stage does not propagate: it is logged once and
    every one of those rows is marked failed with it, so the report can
    still carry the other models.
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


def _estimate(cfg: ScenarioConfig, artifacts: ExperimentArtifacts, rows: dict[str, ModelRow],
              hist_matrix: np.ndarray):
    """Produce the full-day demand estimate of every model in ``rows``, from
    the history's demand ``hist_matrix``, which the caller reads once.

    One filtering pass of the relative deviation serves every filter model.
    Where a leg is chained, pkf and spkf share the leg chain's inputs (the
    root legs' deviations, the chain-consistent legs, the operators and the
    cumulative counts) and each runs its own leg chain, which gives its
    chained legs' estimated flows and its leg diagnostics.  One assembly
    then builds kf, pkf and spkf alike, morning and evening, into each
    model's own matrix (``combined_demand``, ``predict_horizon``): with no
    chained leg for kf, nor for any model when no leg is chained, so pkf
    and spkf then equal kf.  The seed's estimate is a read-only view of
    ``hist_matrix``.

    Each dense input lives from its first reader to its last.  The filter
    builds only its own noise.  The leg chain's inputs start with the
    cumulative mapping, the band's last reader; the band is then freed
    (``artifacts`` is the caller's own copy, and its ``assignment`` is set
    to ``None``) before the operators, the rebuilt history, the retentions,
    the root deviations, the cumulative count deviation and the leg chain's
    noise are built, the last two from ``cum_hist``, the history's counts
    summed along the day once.  With no chain model the band is freed after
    the filter.  The leg chain's inputs are freed before the assembly.

    Each stage runs under ``_stage``: its time goes to every row that shares
    it, and a failure marks those rows failed (a failure of the filtering
    pass fails every filter model, one of the leg chain's inputs, its noise
    among them, only pkf and spkf), so a model whose assembly fails keeps
    its leg diagnostics.
    A filter model's ``extras`` get its ``clamped_cells`` and
    ``prediction_load_calls``.  Reads no part of ``artifacts.truth``.

    Returns the estimates of the models that did not fail, the kf and leg
    diagnostics, and notes for the report's ``diagnostics``: the totals
    that ``attribute_interval_deviations`` gives each leg of the morning's
    absolute deviations ``hist ⊙ r`` (``attributed_totals``), each chained
    leg's ``leg_retention``, by which pkf and spkf scale its estimate, the
    number of measured intervals whose measurement matrix is all zero
    (``unobserved_intervals``, logged at info level: early in the day no
    departure has reached a detector yet, and later counts read them), the
    number whose departures no detector counts at any lag although the
    history has demand there (``uncounted_intervals``, from
    ``artifacts.assignment.band``), which a warning reports when it is not
    0, and the smallest eigenvalue of the last posterior covariance, the one
    that prediction reads (``kf_last_cov_min_eigenvalue``, from
    ``eigvalsh``; ``None`` where no filter model ran).
    """
    cut = cfg.cutoff_index
    n_h = cfg.grid.n_intervals
    hist = artifacts.history
    estimates: dict[str, np.ndarray] = {}
    kf_diag: list[KfStepDiagnostics] = []
    leg_diag: list[LegDiagnostics] = []
    notes: dict = {"attributed_totals": {}, "leg_retention": {}, "unobserved_intervals": 0,
                   "uncounted_intervals": 0, "kf_last_cov_min_eigenvalue": None}
    result = estimates, kf_diag, leg_diag, notes

    if "seed" in rows:
        with _stage(rows, ("seed",), "model seed"):
            estimates["seed"] = read_only_view(hist_matrix)

    filter_models = [m for m in rows if m != "seed"]
    if not filter_models:
        return result
    with _stage(rows, filter_models, "interval filtering"):
        noise, P0 = _noise_models(cfg, artifacts)
        delta_y = artifacts.observed.counts - hist.load.counts.counts
        # the provider and the prior are passed, not kept, so the rows and the
        # prior's root are freed when the filter returns
        kf = run_kf_sequence(
            _frozen_rows(artifacts.assignment, cut, hist_matrix), delta_y[:, :cut], noise,
            init=FilterState(mean=np.zeros(len(artifacts.od_index)), cov=P0))
        kf_diag.extend(kf.diagnostics)
        notes["unobserved_intervals"] = sum(d.measurement_norm == 0.0 for d in kf.diagnostics)
        logger.info("the measurement matrix of %d of %d measured intervals is all zero",
                    notes["unobserved_intervals"], cut)
        # the measured intervals with departures that no detector counts at any lag
        counted = artifacts.assignment.band[:cut].any(axis=(1, 2))
        notes["uncounted_intervals"] = int(((hist_matrix[:, :cut] > 0).any(axis=0) & ~counted).sum())
        if notes["uncounted_intervals"]:
            logger.warning("the departures of %d of %d measured intervals are counted by no "
                           "detector: the filter never sees them", notes["uncounted_intervals"], cut)
        notes["kf_last_cov_min_eigenvalue"] = min_eigenvalue(kf.last.cov)
        # prediction reads the last posterior's mean alone, so its covariance
        # and root are not kept through the leg chain and the assembly, nor
        # are the noise, the prior and the count deviations
        deltas, last_mean = kf.deltas, kf.last.mean
        del kf, noise, P0, delta_y
    if rows[filter_models[0]].status == "failed":
        return result

    chain = artifacts.chain
    chained = [n for n in chain.topological_order() if chain.feeds.get(n)]
    chain_models = [m for m in CHAIN_MODELS if m in rows] if chained else []
    chained_flows: dict[str, dict[str, np.ndarray]] = {}
    if chain_models:
        # pkf and spkf share the chain's inputs, which do not depend on the
        # mode.  The cumulative mapping is the band's last reader, so it runs
        # first and the band is freed before the other inputs are built.
        with _stage(rows, chain_models, "leg-chain inputs"):
            mapping = cumulative_mapping(artifacts.assignment, hist.profiles(), cut - 1)
            artifacts.assignment = None
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
            delta_Y = artifacts.observed.cumulative()[:, cut - 1] - cum_hist
            leg_Q, root_P0, R_cum = _leg_noise(cfg, artifacts, hist_matrix, cum_hist)
    # with no chain model, or a failed mapping, the filter was the band's
    # last reader
    artifacts.assignment = None

    for model in chain_models:
        if rows[model].status == "failed":
            continue
        with _stage(rows, (model,), f"leg chain {model}"):
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
    for model in filter_models:
        if rows[model].status == "failed":
            continue
        with _stage(rows, (model,), f"model {model}"):
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
    return result


def run_experiment(
    cfg: ScenarioConfig, *, models: tuple[str, ...] | None = None, seed: int | None = None
) -> ExperimentReport:
    """Run the scenario end to end and score every requested model.

    A failing model is reported in its row without affecting the others.

    Raises:
        ConfigurationError: if the scenario itself is invalid or requests
            unknown models.
    """
    t0 = time.perf_counter()
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    wanted = tuple(models) if models is not None else cfg.models
    unknown = [m for m in wanted if m not in MODELS]
    if unknown:
        raise ConfigurationError(f"unknown models {unknown}; choose from {', '.join(MODELS)}")
    wanted = tuple(m for m in MODELS if m in wanted)
    if not wanted:
        raise ConfigurationError("no models requested")

    artifacts = generate_truth_and_history(cfg)
    cut = cfg.cutoff_index
    n_h = cfg.grid.n_intervals
    horizon_short = min(cut + cfg.estimation.prediction_intervals, n_h)

    # Of the truth, scoring and the report read these alone; its legs and
    # load are freed before estimation, which reads none of it, and so are
    # the history's link times, whose last reader built the band.  Each
    # day's matrix is expanded once, here: estimation, scoring and the
    # report share the history's.
    truth_matrix = artifacts.truth.demand.matrix
    truth_counts = artifacts.truth.load.counts.counts
    spillover_true = artifacts.truth.load.spilled()
    hist_matrix = artifacts.history.demand.matrix
    artifacts = replace(artifacts, truth=None, history=replace(
        artifacts.history, load=_released(artifacts.history.load)))

    t1 = time.perf_counter()
    rows = {model: ModelRow(model=model) for model in wanted}
    estimates, kf_diag, leg_diag, notes = _estimate(cfg, artifacts, rows, hist_matrix)

    # Scoring and the report read these alone.  The rest of the generation
    # data, the history's legs, is freed with the artifacts before the
    # scoring passes; estimation has freed the frozen band.
    od_index = artifacts.od_index
    hist_counts = artifacts.history.load.counts.counts
    spillover_historical = artifacts.history.load.spilled()
    factors = artifacts.perturbation_factors
    del artifacts

    # the seed baseline anchors the improvement columns even when not requested
    seed_rmse_od = rmse(hist_matrix, truth_matrix)
    seed_rmse_link = rmse(hist_counts, truth_counts)

    for model, row in rows.items():
        if row.status == "failed":
            continue
        with _stage(rows, (model,), f"scoring {model}"):
            est = estimates[model]
            if model == "seed":
                counts = hist_counts
            else:
                counts = detector_counts(
                    cfg.network, DynamicDemand(od_index=od_index, grid=cfg.grid, matrix=est),
                ).counts
            row.rmse_od = rmse(est, truth_matrix)
            row.rmse_link = rmse(counts, truth_counts)
            if seed_rmse_od > 0.0:
                row.impr_od_pct = 100.0 * (seed_rmse_od - row.rmse_od) / seed_rmse_od
            if seed_rmse_link > 0.0:
                row.impr_link_pct = 100.0 * (seed_rmse_link - row.rmse_link) / seed_rmse_link
            row.extras = {
                "rmse_od_measured_window": rmse(est[:, :cut], truth_matrix[:, :cut]),
                "rmse_od_prediction_window": rmse(est[:, cut:], truth_matrix[:, cut:]),
                "rmse_od_short_horizon": rmse(
                    est[:, cut:horizon_short], truth_matrix[:, cut:horizon_short]
                ),
                "rmse_link_prediction_window": rmse(counts[:, cut:], truth_counts[:, cut:]),
                **row.extras,
            }

    report = ExperimentReport(
        scenario=cfg.name,
        seed=cfg.seed,
        models=wanted,
        rows=list(rows.values()),
        od_index=od_index,
        grid=cfg.grid,
        truth=truth_matrix,
        historical=hist_matrix,
        estimates=estimates,
        kf_diagnostics=kf_diag,
        leg_diagnostics=leg_diag,
        diagnostics={
            "seed_rmse_od": seed_rmse_od,
            "seed_rmse_link": seed_rmse_link,
            **notes,
            "spillover_true": spillover_true,
            "spillover_historical": spillover_historical,
            "generation_runtime_s": t1 - t0,
            "perturbation_factors": {n: f.tolist() for n, f in factors.items()},
        },
    )
    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(value: float | None, digits: int = 6) -> str:
    if value is None:
        return "n/a"
    return f"{value:.{digits}f}"


def _atomic_write(path, write) -> None:
    """Open a new file next to ``path``, hand it to ``write`` and rename it
    over ``path``.  The file gets mode ``0o666`` less the umask, as
    ``open(path, "w")`` would give it."""
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_QUOTED = re.compile('[,"\r\n]')


def _csv_field(value) -> str:
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def _csv_line(fields) -> str:
    """One CSV line of ``fields`` (strings or integers, at least one).

    A field holding a comma, a quote or a line break is quoted, its quotes
    doubled, and a lone empty field is quoted so the line does not read back
    as no field at all.  That is the line ``csv.writer(lineterminator="\\n")``
    writes, except that the writer leaves a ``\\r`` unquoted, which a reader
    then takes for a line end.
    """
    return (",".join(map(_csv_field, fields)) or '""') + "\n"


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as a CSV file, atomically, line by line
    (see ``_csv_line``); a leg ``work,home`` stays one field."""
    def write(fh):
        fh.write(_csv_line(header))
        fh.writelines(map(_csv_line, rows))
    _atomic_write(path, write)


def _report_row(row: ModelRow) -> tuple:
    if row.status != "ok":
        return (row.model, "n/a", "n/a", "n/a", "n/a")
    od, link = (None, None) if row.model == "seed" else (row.impr_od_pct, row.impr_link_pct)
    return (row.model, _fmt(row.rmse_od), _fmt(row.rmse_link), _fmt(od, 4), _fmt(link, 4))


def _report_doc(report: ExperimentReport) -> dict:
    # a record's ``vars`` are its fields, in order, and share their values;
    # ``asdict`` would copy every value deeply first
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "models": list(report.models),
        "runtime_s": report.runtime_s,
        "rows": [vars(r) for r in report.rows],
        "kf_diagnostics": [vars(d) for d in report.kf_diagnostics],
        "leg_diagnostics": [vars(d) for d in report.leg_diagnostics],
        "diagnostics": report.diagnostics,
    }


def _write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON, atomically, without the whole text in
    memory: the encoder's chunks are the ones ``json.dumps`` would join, and
    they go out joined 256 at a time.  The text layer would hold each chunk
    handed to it on its own as an object until 8 KB of text are pending."""
    def write(fh):
        chunks = json.JSONEncoder(indent=2).iterencode(doc)
        while batch := "".join(itertools.islice(chunks, 256)):
            fh.write(batch)
        fh.write("\n")
    _atomic_write(path, write)


def emit_report(report: ExperimentReport, out_dir, *, include_profiles: bool = True) -> None:
    """Write report.csv, report.json, diagnostics and per-OD profile CSVs.

    Files land atomically (written next to their target then renamed), so a
    crashed run never leaves half a report.
    """
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "report.csv"),
               ("model", "rmse_od", "rmse_link", "impr_od_pct", "impr_link_pct"),
               map(_report_row, report.rows))
    _write_json(os.path.join(out_dir, "report.json"), _report_doc(report))
    _write_csv(os.path.join(out_dir, "kf_diagnostics.csv"),
               ("interval", "innovation_norm", "gain_norm", "cov_trace"),
               ((d.interval, f"{d.innovation_norm:.6f}", f"{d.gain_norm:.6f}", f"{d.cov_trace:.6f}")
                for d in report.kf_diagnostics))
    _write_csv(os.path.join(out_dir, "leg_diagnostics.csv"),
               [f.name for f in fields(LegDiagnostics)],
               ((d.model, d.leg, f"{d.prior_mean_norm:.6f}", f"{d.posterior_mean_norm:.6f}",
                 f"{d.scale:.9f}", f"{d.conservation_residual:.9f}")
                for d in report.leg_diagnostics))

    if not include_profiles:
        return
    profile_dir = os.path.join(out_dir, "profiles")
    os.makedirs(profile_dir, exist_ok=True)
    model_cols = [m for m in report.models if m != "seed" and report.row(m).status == "ok"]
    for i, od in enumerate(report.od_index):
        # Python floats format as their numpy scalars do, at a fraction of the cost
        columns = [report.truth[i].tolist(), report.historical[i].tolist(),
                   *(report.estimates[m][i].tolist() for m in model_cols)]
        _write_csv(os.path.join(profile_dir, f"{od_label(od)}.csv"),
                   ("interval", "true", "historical", *model_cols),
                   ([h, *(f"{c[h]:.6f}" for c in columns)] for h in range(report.grid.n_intervals)))
