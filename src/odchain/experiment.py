"""Experiment harness: truth generation, model runs, metrics and reports.

A run generates a true day and a perturbed historical day on the scenario's
network (each in two passes, so departure profiles respond to that side's own
congestion), observes the true detector counts with optional noise, freezes
the assignment linearization at the historical load, and then estimates the
demand with the requested models:

* ``seed``  - the historical matrix untouched,
* ``kf``    - interval filtering up to the cutoff, its last deviation
              carried beyond it by the random walk,
* ``pkf``   - kf plus leg-chain deviations attributed from the morning and
              carried to the chained legs,
* ``spkf``  - pkf with the conservation rescale per chained leg.

All models consume the same measurements, and none consumes anything past
the cutoff; predictions beyond it never touch the loader.  OD RMSE spans all
(OD, interval) cells against the truth; link RMSE compares each model's
loaded counts against the noise-free true counts.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

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
from .kalman import FilterState, KfStepDiagnostics, NoiseModel, run_kf_sequence
from .legfilter import (
    ChainFilterConfig,
    attribute_interval_deviations,
    combined_demand,
    predict_horizon,
    run_leg_chain,
)
from .legs import ChainSpec, DemandLeg, build_leg_operator
from .network import OD, Network, TimeGrid, od_label
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


@dataclass
class GeneratedSide:
    """One generated day: legs with profiles, expanded demand, loaded flows."""

    legs: dict[str, DemandLeg]
    demand: DynamicDemand
    load: LoadResult

    def profiles(self) -> dict[str, np.ndarray]:
        return {name: leg.profile for name, leg in self.legs.items()}


@dataclass
class ExperimentArtifacts:
    """What generation hands to estimation and scoring.

    ``truth`` is the true day.  Estimation reads none of it, so
    ``run_experiment`` keeps its demand matrix, counts and spill total and
    hands ``_estimate`` a copy with ``truth=None``; the object returned by
    ``generate_truth_and_history`` is never changed.
    """

    config: ScenarioConfig
    od_index: tuple[OD, ...]
    chain: ChainSpec
    truth: GeneratedSide | None
    history: GeneratedSide
    observed: LinkFlowSeries
    assignment: AssignmentMatrix
    perturbation_factors: dict[str, np.ndarray]


def _free_flow_tt(net: Network, od_index: tuple[OD, ...], grid: TimeGrid) -> np.ndarray:
    tt = np.zeros((len(od_index), grid.n_intervals))
    for i, od in enumerate(od_index):
        tt[i, :] = sum(net.links[l].free_flow_time for l in net.paths[od].links)
    return tt


def _leg_profiles(
    cfg: ScenarioConfig, od_index: tuple[OD, ...], tt_od: np.ndarray
) -> dict[str, np.ndarray]:
    """Each leg's departure profiles, one row per OD, zero outside its members.

    Raises:
        DegenerateProfileError: naming the leg and the OD whose profile has
            no usable mass.
    """
    pos = {od: i for i, od in enumerate(od_index)}
    out: dict[str, np.ndarray] = {}
    for leg in cfg.legs:
        members = sorted(leg.od_split)
        rows = [pos[od] for od in members]
        prof = np.zeros((len(od_index), cfg.grid.n_intervals))
        try:
            prof[rows] = departure_probabilities(leg.schedule, tt_od[rows], cfg.grid)
        except DegenerateProfileError as exc:
            raise DegenerateProfileError(
                f"leg {leg.name!r}, OD {od_label(members[exc.row])}: {exc}") from exc
        out[leg.name] = prof
    return out


def _make_legs(
    cfg: ScenarioConfig,
    od_index: tuple[OD, ...],
    flows: dict[str, np.ndarray],
    profiles: dict[str, np.ndarray],
) -> dict[str, DemandLeg]:
    legs = {}
    for leg in cfg.legs:
        legs[leg.name] = DemandLeg(
            name=leg.name,
            od_index=od_index,
            flows=flows[leg.name],
            members=tuple(sorted(leg.od_split)),
            profile=profiles[leg.name],
        )
    return legs


def _expand(flows: dict[str, np.ndarray], profiles: dict[str, np.ndarray]) -> np.ndarray:
    names = sorted(flows)
    total = None
    for name in names:
        term = flows[name][:, None] * profiles[name]
        total = term if total is None else total + term
    return total


def _generate_side(
    cfg: ScenarioConfig, od_index: tuple[OD, ...], flows: dict[str, np.ndarray]
) -> GeneratedSide:
    """Expand leg totals to a dynamic matrix and load it, in two passes.

    The first pass uses free-flow travel times; the second recomputes the
    profiles from the first pass's loaded times, so each side's profiles feel
    its own congestion.  Of the first pass only those times are read, and
    they are dropped once the profiles are built.
    """
    net = cfg.network
    profiles = _leg_profiles(cfg, od_index, _free_flow_tt(net, od_index, cfg.grid))
    first = DynamicDemand(od_index=od_index, grid=cfg.grid, matrix=_expand(flows, profiles))
    profiles = _leg_profiles(cfg, od_index, load_network(net, first).tt_od)
    del first
    demand = DynamicDemand(od_index=od_index, grid=cfg.grid, matrix=_expand(flows, profiles))
    load = load_network(net, demand)
    return GeneratedSide(legs=_make_legs(cfg, od_index, flows, profiles), demand=demand, load=load)


def _true_flows(cfg: ScenarioConfig, od_index: tuple[OD, ...]) -> dict[str, np.ndarray]:
    pos = {od: i for i, od in enumerate(od_index)}
    out = {}
    for leg in cfg.legs:
        v = np.zeros(len(od_index))
        for od, share in leg.od_split.items():
            v[pos[od]] = leg.total * share
        out[leg.name] = v
    return out


def _perturb(
    cfg: ScenarioConfig, od_index: tuple[OD, ...], true_flows: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Historical leg flows and the per-OD factors that produced them."""
    spec = cfg.perturbation
    seed = cfg.seed if spec.seed is None else spec.seed
    rng = np.random.default_rng([seed, 101])
    hist: dict[str, np.ndarray] = {}
    factors: dict[str, np.ndarray] = {}
    for leg in cfg.legs:
        base = true_flows[leg.name]
        f = np.ones(len(od_index))
        if spec.mode != "none":
            f *= 1.0 + spec.scale
        if spec.mode == "scale_plus_noise" and spec.noise > 0.0:
            members = sorted(leg.od_split)
            pos = {od: i for i, od in enumerate(od_index)}
            for od in members:
                f[pos[od]] *= 1.0 + spec.noise * rng.uniform(-1.0, 1.0)
        hist[leg.name] = base * f
        factors[leg.name] = f
    return hist, factors


def generate_truth_and_history(cfg: ScenarioConfig) -> ExperimentArtifacts:
    """Generate both days, the observed counts and the frozen linearization."""
    problems = cfg.validate()
    if problems:
        raise ConfigurationError("; ".join(problems))
    od_index = cfg.network.od_index
    chain = cfg.chain()

    true_flows = _true_flows(cfg, od_index)
    hist_flows, factors = _perturb(cfg, od_index, true_flows)
    truth = _generate_side(cfg, od_index, true_flows)
    history = _generate_side(cfg, od_index, hist_flows)

    counts = truth.load.counts.counts.copy()
    if cfg.measurement_noise_fraction > 0.0:
        sigma = cfg.measurement_noise_fraction * _positive_mean(counts)
        rng = np.random.default_rng([cfg.seed, 202])
        counts = np.maximum(counts + rng.normal(0.0, sigma, counts.shape), 0.0)
    observed = LinkFlowSeries(
        channels=truth.load.counts.channels, grid=cfg.grid, counts=counts
    )
    frozen = assignment_matrix(cfg.network, history.demand)
    return ExperimentArtifacts(
        config=cfg,
        od_index=od_index,
        chain=chain,
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
class ExperimentReport:
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
    leg_diagnostics: list[dict]
    diagnostics: dict
    runtime_s: float = 0.0

    def row(self, model: str) -> ModelRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(model)


def _noise_models(cfg: ScenarioConfig, artifacts: ExperimentArtifacts):
    """The filters' noise: the interval filter's, its prior covariance, and
    the leg chain's, of which ``run_leg_chain`` reads a prior covariance for
    each root leg and a process noise for each chained leg, so only those
    are built."""
    hist = artifacts.history
    mean_flow = _positive_mean(hist.demand.matrix)
    mean_count = _positive_mean(hist.load.counts.counts)
    n_od = len(artifacts.od_index)
    n_ch = len(hist.load.counts.channels)
    Q = (cfg.noise.process * mean_flow) ** 2 * np.eye(n_od)
    R = (cfg.noise.measurement * mean_count) ** 2 * np.eye(n_ch)
    P0 = (cfg.noise.prior * mean_flow) ** 2 * np.eye(n_od)

    leg_Q: dict[str, np.ndarray] = {}
    root_P0: dict[str, np.ndarray] = {}
    roots = artifacts.chain.roots()
    for name, leg in hist.legs.items():
        mean_leg = _positive_mean(leg.flows) if (leg.flows > 0).any() else mean_flow
        if name in roots:
            root_P0[name] = (cfg.noise.leg_prior * mean_leg) ** 2 * np.eye(n_od)
        else:
            leg_Q[name] = (cfg.noise.leg_process * mean_leg) ** 2 * np.eye(n_od)

    cum_hist = hist.load.counts.cumulative()[:, artifacts.config.cutoff_index - 1]
    mean_cum = _positive_mean(cum_hist) if (cum_hist > 0).any() else mean_count
    R_cum = (cfg.noise.cumulative_measurement * mean_cum) ** 2 * np.eye(n_ch)
    return NoiseModel(Q=Q, R=R), P0, leg_Q, root_P0, R_cum


def _refresh_hook(cfg: ScenarioConfig, artifacts: ExperimentArtifacts):
    """Relinearize at the estimate so far, through the next interval, after each interval.

    After interval ``h`` the filter reads only pieces ``[k, h + 1]`` with
    ``k <= h + 1`` before the matrix is replaced again.  A link's time in an
    interval depends only on departures up to it, so linearizing on the grid
    cut after interval ``h + 1`` gives exactly the full day's pieces on those
    columns.  ``assignment_matrix`` loads the estimate and linearizes it in
    one pass, so a refresh makes no ``load_network`` call.  After the last
    measured interval nothing is read and no rebuild is made.
    """
    hist = artifacts.history.demand.matrix
    cut = cfg.cutoff_index

    def hook(h: int, deltas_so_far: np.ndarray) -> AssignmentMatrix | None:
        n = h + 2
        if n > cut:
            return None
        est = hist[:, :n].copy()
        est[:, : h + 1] = np.maximum(est[:, : h + 1] + deltas_so_far, 0.0)
        grid = replace(cfg.grid, n_intervals=n)
        return assignment_matrix(
            cfg.network, DynamicDemand(od_index=artifacts.od_index, grid=grid, matrix=est))

    return hook


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


def _estimate(cfg: ScenarioConfig, artifacts: ExperimentArtifacts, rows: dict[str, ModelRow]):
    """Produce the full-day demand estimate of every model in ``rows``.

    Each stage runs under ``_stage``: its time goes to every row that shares
    it, and a failure marks those rows failed (a failure of the filtering
    pass fails every filter model, one of the leg chain's inputs both pkf
    and spkf).  A filter model's ``extras`` get its ``clamped_cells`` and
    ``prediction_load_calls``.  Reads no part of ``artifacts.truth``.

    Returns the estimates of the models that did not fail, the kf and leg
    diagnostics, and the totals attributed to each leg.
    """
    cut = cfg.cutoff_index
    n_h = cfg.grid.n_intervals
    hist = artifacts.history
    hist_matrix = hist.demand.matrix
    estimates: dict[str, np.ndarray] = {}
    kf_diag: list[KfStepDiagnostics] = []
    leg_diag: list[dict] = []
    attributed_totals: dict[str, float] = {}
    result = estimates, kf_diag, leg_diag, attributed_totals

    if "seed" in rows:
        with _stage(rows, ("seed",), "model seed"):
            estimates["seed"] = hist_matrix.copy()

    filter_models = [m for m in rows if m != "seed"]
    if not filter_models:
        return result
    with _stage(rows, filter_models, "interval filtering"):
        noise, P0, leg_Q, root_P0, R_cum = _noise_models(cfg, artifacts)
        delta_y = artifacts.observed.counts - hist.load.counts.counts
        init = FilterState(mean=np.zeros(len(artifacts.od_index)), cov=P0)
        hook = _refresh_hook(cfg, artifacts) if cfg.estimation.refresh_assignment else None
        kf = run_kf_sequence(
            artifacts.assignment, delta_y[:, :cut], noise, init=init, refresh_hook=hook
        )
        kf_diag.extend(kf.diagnostics)
    if rows[filter_models[0]].status == "failed":
        return result

    profiles = hist.profiles()
    morning_profiles = {n: p[:, :cut] for n, p in profiles.items()}

    def assemble(model: str, leg_deltas: dict[str, np.ndarray]) -> None:
        morning, clamped_m = combined_demand(
            hist_matrix[:, :cut], kf.deltas, leg_deltas, morning_profiles
        )
        before = assignment_mod.load_call_count()
        evening, clamped_e = predict_horizon(
            hist_matrix, kf.last.mean, leg_deltas, profiles, (cut, n_h)
        )
        pred_loads = assignment_mod.load_call_count() - before
        estimates[model] = np.hstack([morning, evening])
        rows[model].extras.update(
            clamped_cells=clamped_m + clamped_e, prediction_load_calls=pred_loads)

    if "kf" in rows:
        with _stage(rows, ("kf",), "model kf"):
            assemble("kf", {})

    chain = artifacts.chain
    chained = [n for n in chain.topological_order() if chain.feeds.get(n)]
    chain_models = [m for m in ("pkf", "spkf") if m in rows]
    if chain_models and chained:
        # the chain's inputs do not depend on the mode, so pkf and spkf
        # share them and their build time
        with _stage(rows, chain_models, "leg-chain inputs"):
            attributed = attribute_interval_deviations(
                kf.deltas, [hist.legs[n] for n in chain.topological_order()]
            )
            attributed_totals.update((n, float(v.sum())) for n, v in attributed.items())
            operators = {
                name: build_leg_operator(
                    chain,
                    [hist.legs[f] for f in chain.feeds[name]],
                    hist.legs[name],
                    uniform_redistribution=cfg.estimation.uniform_redistribution,
                )
                for name in chained
            }
            mapping = cumulative_mapping(artifacts.assignment, profiles, cut - 1)
            delta_Y = (artifacts.observed.cumulative() - hist.load.counts.cumulative())[:, cut - 1]
            roots = {n: attributed[n] for n in chain.roots()}

    for model in chain_models:
        if rows[model].status == "failed":
            continue
        with _stage(rows, (model,), f"model {model}"):
            if not chained:
                # no chained legs: the leg term vanishes and the model
                # reduces to the interval filter
                assemble(model, {})
                continue
            states = run_leg_chain(
                hist.legs,
                chain,
                operators,
                roots,
                mapping,
                delta_Y,
                config=ChainFilterConfig(mode=model, cumulative_horizon=cut - 1),
                leg_Q=leg_Q,
                root_P0=root_P0,
                R=R_cum,
            )
            assemble(model, {n: states[n].state.mean for n in chained})
            for n in chain.topological_order():
                leg_diag.append(
                    {
                        "model": model,
                        "leg": n,
                        "prior_mean_norm": states[n].prior_norm,
                        "posterior_mean_norm": float(np.linalg.norm(states[n].state.mean)),
                        "scale": states[n].scale,
                        "conservation_residual": states[n].conservation_residual,
                    }
                )
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
    # load are freed before estimation, which reads none of it.
    truth_matrix = artifacts.truth.demand.matrix
    truth_counts = artifacts.truth.load.counts.counts
    spillover_true = artifacts.truth.load.spilled()
    artifacts = replace(artifacts, truth=None)

    t1 = time.perf_counter()
    rows = {model: ModelRow(model=model) for model in wanted}
    estimates, kf_diag, leg_diag, attributed_totals = _estimate(cfg, artifacts, rows)

    # Scoring and the report read these alone.  The rest of the generation
    # data, the frozen band, every leg profile and the history's link and
    # probe times, is freed with the artifacts before the scoring passes.
    od_index = artifacts.od_index
    hist_matrix = artifacts.history.demand.matrix
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
            "attributed_totals": attributed_totals,
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


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report_csv(report: ExperimentReport) -> str:
    lines = ["model,rmse_od,rmse_link,impr_od_pct,impr_link_pct"]
    for row in report.rows:
        if row.status != "ok":
            lines.append(f"{row.model},n/a,n/a,n/a,n/a")
            continue
        impr_od = _fmt(None if row.model == "seed" else row.impr_od_pct, 4)
        impr_link = _fmt(None if row.model == "seed" else row.impr_link_pct, 4)
        lines.append(
            f"{row.model},{_fmt(row.rmse_od)},{_fmt(row.rmse_link)},{impr_od},{impr_link}"
        )
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _report_json(report: ExperimentReport) -> str:
    doc = {
        "scenario": report.scenario,
        "seed": report.seed,
        "models": list(report.models),
        "runtime_s": report.runtime_s,
        "rows": [_jsonable(asdict(r)) for r in report.rows],
        "kf_diagnostics": [asdict(d) for d in report.kf_diagnostics],
        "leg_diagnostics": _jsonable(report.leg_diagnostics),
        "diagnostics": _jsonable(report.diagnostics),
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def emit_report(report: ExperimentReport, out_dir, *, include_profiles: bool = True) -> None:
    """Write report.csv, report.json, diagnostics and per-OD profile CSVs.

    Files land atomically (written next to their target then renamed), so a
    crashed run never leaves half a report.
    """
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "report.csv"), _report_csv(report))
    _atomic_write(os.path.join(out_dir, "report.json"), _report_json(report))

    kf_lines = ["interval,innovation_norm,gain_norm,cov_trace"]
    for d in report.kf_diagnostics:
        kf_lines.append(f"{d.interval},{d.innovation_norm:.6f},{d.gain_norm:.6f},{d.cov_trace:.6f}")
    _atomic_write(os.path.join(out_dir, "kf_diagnostics.csv"), "\n".join(kf_lines) + "\n")

    leg_lines = ["model,leg,prior_mean_norm,posterior_mean_norm,scale,conservation_residual"]
    for d in report.leg_diagnostics:
        leg_lines.append(
            f"{d['model']},{d['leg']},{d['prior_mean_norm']:.6f},"
            f"{d['posterior_mean_norm']:.6f},{d['scale']:.9f},{d['conservation_residual']:.9f}"
        )
    _atomic_write(os.path.join(out_dir, "leg_diagnostics.csv"), "\n".join(leg_lines) + "\n")

    if not include_profiles:
        return
    profile_dir = os.path.join(out_dir, "profiles")
    os.makedirs(profile_dir, exist_ok=True)
    model_cols = [m for m in report.models if m != "seed" and report.row(m).status == "ok"]
    for i, od in enumerate(report.od_index):
        lines = ["interval,true,historical" + "".join(f",{m}" for m in model_cols)]
        for h in range(report.grid.n_intervals):
            cells = [str(h), f"{report.truth[i, h]:.6f}", f"{report.historical[i, h]:.6f}"]
            cells += [f"{report.estimates[m][i, h]:.6f}" for m in model_cols]
            lines.append(",".join(cells))
        _atomic_write(os.path.join(profile_dir, f"{od_label(od)}.csv"), "\n".join(lines) + "\n")
