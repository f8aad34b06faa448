"""Day generation: the true day, the perturbed historical day, the observed
counts and the frozen linearization.

Each day's legs are built once as ``DemandLeg``s, the truth's from the
scenario's leg totals split over ODs (``_true_legs``) and the history's by
scaling the truth's flows (``_perturb``).  Their flows are spread over the
day by the schedule model (``_shares_at``) and loaded twice: one free-flow
pass serves both days, and ``_congested_legs`` then gives a day's legs the
shares at the probe times of their own congestion, which
``probe_travel_times`` walks from that load.  A day keeps its legs and its
load, not its demand matrix, which ``_expand`` builds on each access.  The
true day's load keeps no link times (``replace(load, link_tt=None)``).  The
true counts, with seeded noise, are the observed counts, and the history is
linearized once at its own load's link times (``assignment_matrix``).

This module reads nothing of estimation or scoring: ``experiment`` hands
what estimation may read of the generated day to ``estimation.estimate``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .assignment import (
    AssignmentMatrix,
    DynamicDemand,
    LinkFlowSeries,
    LoadResult,
    assignment_matrix,
    load_network,
    probe_travel_times,
)
from .departure import departure_probabilities
from .errors import ConfigurationError, DegenerateProfileError
from .legs import DemandLeg, leg_terms
from .network import OD, Network, TimeGrid, od_label
from .scenario import ScenarioConfig


def positive_mean(values: np.ndarray) -> float:
    """The mean of the positive cells of ``values``, the scale of a noise."""
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
    """What generation returns: both days, the observed counts, the frozen
    linearization and the perturbation factors.

    Nothing changes it after ``generate_truth_and_history`` returns: a run
    reads what scoring needs of ``truth`` and hands estimation the rest.
    ``od_index`` is the scenario's.
    """

    config: ScenarioConfig
    truth: GeneratedSide
    history: GeneratedSide
    observed: LinkFlowSeries
    assignment: AssignmentMatrix
    perturbation_factors: dict[str, np.ndarray]

    @property
    def od_index(self) -> tuple[OD, ...]:
        return self.config.network.od_index


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
    recomputed at that load's probe times; of the load only its link times
    are read, and it is freed once its probes are walked."""
    net = cfg.network
    tt_od = probe_travel_times(net, net.od_index, load_network(net, _expand(cfg.grid, legs)))
    return _shares_at(cfg, legs, tt_od)


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


def generate_truth_and_history(cfg: ScenarioConfig) -> ExperimentArtifacts:
    """Generate both days, the observed counts and the frozen linearization.

    The true day's load keeps its counts and spillover, not its link times
    (``replace(load, link_tt=None)``); the history's keeps its link times,
    at which the band was built."""
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
    truth = GeneratedSide(legs=true_legs, load=replace(
        load_network(net, _expand(cfg.grid, true_legs)), link_tt=None))
    history = GeneratedSide(legs=hist_legs, load=load_network(net, _expand(cfg.grid, hist_legs)))

    counts = truth.load.counts.counts.copy()
    if cfg.measurement_noise_fraction > 0.0:
        sigma = cfg.measurement_noise_fraction * positive_mean(counts)
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
