"""Scenario files: one declarative YAML document drives a whole experiment.

A scenario names a network (the packaged ``toy`` preset with optional
overrides, or an inline definition), the time grid, the demand legs with
their totals, OD splits, scheduling parameters and chain feeds, how the
historical matrix is perturbed away from the truth, the filter noise scales,
and the estimation settings.  Times may be written as "HH:MM" or plain
minutes of day.  Randomness is pinned to numpy's default PCG64 generator
seeded from the scenario seed, so identical (scenario, seed) pairs reproduce
identical runs bit for bit.
"""

from __future__ import annotations

import difflib
import functools
import logging
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path as FsPath

import yaml

from .errors import ConfigurationError
from .departure import ScheduleParams
from .legs import ChainSpec
from .network import (
    OD,
    OVERRIDE_KEYS,
    Link,
    Network,
    Path,
    TimeGrid,
    Zone,
    build_toy_network,
    od_label,
    validate_network,
)

logger = logging.getLogger(__name__)

#: libyaml's C parser under PyYAML's safe constructor and resolver, where
#: PyYAML was built with libyaml; the pure-Python ``SafeLoader`` otherwise.
#: Both build the same document from the same text.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

PERTURBATION_MODES = ("none", "uniform_scale", "scale_plus_noise")
#: Every model a scenario may request, in report order.
MODELS = ("seed", "kf", "pkf", "spkf")


def parse_minutes(value, where: str | None = None, key=None) -> float:
    """Accept "HH:MM" strings or plain, finite minute numbers.

    Raises:
        ConfigurationError: for anything else, a boolean included, naming
            the key path ``where.key`` when ``where`` is given.
    """
    at = "" if where is None else f"{_path(where, key)}: "
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 2:
            raise ConfigurationError(f"{at}cannot parse time {value!r}; expected HH:MM or minutes")
        try:
            hours, minutes = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigurationError(f"{at}cannot parse time {value!r}") from exc
        if not (0 <= minutes < 60):
            raise ConfigurationError(f"{at}minutes out of range in {value!r}")
        return float(hours * 60 + minutes)
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigurationError(f"{at}cannot parse time {value!r}")


def _parse_od(key: str) -> OD:
    parts = str(key).split("-")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ConfigurationError(f"cannot parse OD pair {key!r}; expected origin-destination")
    return parts[0], parts[1]


@dataclass(frozen=True)
class LegDef:
    """Declarative description of one demand leg."""

    name: str
    total: float
    od_split: dict[OD, float]
    schedule: ScheduleParams
    feeds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ConfigurationError(f"leg {self.name!r}: negative total")
        if not self.od_split:
            raise ConfigurationError(f"leg {self.name!r}: empty OD split")
        for od, f in self.od_split.items():
            if f < 0:
                raise ConfigurationError(f"leg {self.name!r}: negative split for {od_label(od)}")
        s = sum(self.od_split.values())
        if abs(s - 1.0) > 1e-9:
            raise ConfigurationError(f"leg {self.name!r}: OD split sums to {s!r}, not 1")


@dataclass(frozen=True)
class PerturbationSpec:
    """How the historical matrix is derived from the truth.

    ``uniform_scale`` multiplies every leg OD flow by (1 + scale);
    ``scale_plus_noise`` additionally applies a per-OD factor
    (1 + noise * u) with u drawn uniformly from [-1, 1].
    """

    mode: str = "uniform_scale"
    scale: float = 0.0
    noise: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in PERTURBATION_MODES:
            raise ConfigurationError(f"unknown perturbation mode {self.mode!r}")
        if self.scale <= -1.0:
            raise ConfigurationError(f"perturbation scale {self.scale!r} must stay > -1")
        if not (0.0 <= self.noise < 1.0):
            raise ConfigurationError(f"perturbation noise {self.noise!r} must lie in [0, 1)")


@dataclass(frozen=True)
class NoiseFractions:
    """Filter noise scales, as fractions of historical means over positive cells."""

    process: float = 0.05
    measurement: float = 0.10
    prior: float = 0.50
    leg_process: float = 0.05
    leg_prior: float = 0.25
    cumulative_measurement: float = 0.10

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigurationError(f"noise fraction {f.name!r} must be > 0")


@dataclass(frozen=True)
class EstimationConfig:
    """Measurement cutoff and prediction settings."""

    cutoff_minute: float
    prediction_intervals: int = 2
    uniform_redistribution: bool = False
    refresh_assignment: bool = False

    def __post_init__(self) -> None:
        if self.prediction_intervals < 1:
            raise ConfigurationError("prediction_intervals must be >= 1")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    grid: TimeGrid
    network: Network
    legs: tuple[LegDef, ...]
    perturbation: PerturbationSpec
    noise: NoiseFractions
    estimation: EstimationConfig
    models: tuple[str, ...] = MODELS
    seed: int = 0
    measurement_noise_fraction: float = 0.0
    description: str = ""

    @property
    def cutoff_index(self) -> int:
        """Number of measured intervals (those ending at or before the cutoff)."""
        g = self.grid
        return int((self.estimation.cutoff_minute - g.start) // g.interval_minutes)

    def chain(self) -> ChainSpec:
        return ChainSpec(feeds={leg.name: tuple(leg.feeds) for leg in self.legs})

    def validate(self) -> list[str]:
        """Collect violations; an empty list means the scenario can run."""
        problems = [f"network: {p}" for p in validate_network(self.network)]
        seen: set[str] = set()
        for leg in self.legs:
            if leg.name in seen:
                problems.append(f"leg {leg.name!r}: duplicate name")
            seen.add(leg.name)
            for od in leg.od_split:
                if od not in self.network.paths:
                    problems.append(f"leg {leg.name!r}: no path for OD {od_label(od)}")
        try:
            chain = self.chain()
        except ConfigurationError as exc:
            problems.append(str(exc))
            chain = None
        if chain is not None:
            by_name = {leg.name: leg for leg in self.legs}
            for leg in self.legs:
                for feeder_name in leg.feeds:
                    feeder = by_name.get(feeder_name)
                    if feeder is None:
                        continue
                    current_origins = {od[0] for od in leg.od_split}
                    for od in feeder.od_split:
                        if od[1] not in current_origins:
                            problems.append(
                                f"leg {leg.name!r}: arrivals at zone {od[1]!r} from "
                                f"{feeder_name!r} have no outgoing OD to chain into"
                            )
        cut = self.estimation.cutoff_minute
        if not (self.grid.start < cut <= self.grid.end):
            problems.append(f"estimation cutoff {cut} outside the grid horizon")
        elif self.cutoff_index < 1:
            problems.append("estimation cutoff leaves no measured interval")
        elif self.cutoff_index >= self.grid.n_intervals:
            problems.append("estimation cutoff leaves no prediction interval")
        for model in self.models:
            if model not in MODELS:
                problems.append(f"unknown model {model!r}")
        if not (0.0 <= self.measurement_noise_fraction < 1.0):
            problems.append("measurement_noise_fraction must lie in [0, 1)")
        # numpy's generators take no negative seed
        for key, seed in (("seed", self.seed), ("perturbation.seed", self.perturbation.seed)):
            if seed is not None and seed < 0:
                problems.append(f"{key} must be >= 0, not {seed}")
        return problems


def _path(where: str, key) -> str:
    """The key path ``where.key``, or ``where`` alone without a key."""
    return where if key is None else f"{where}.{key}"


def _list(value, where: str, key=None) -> list | tuple:
    """``value`` as a list; ``None`` reads as an empty one.  A string is not a list."""
    if value is None:
        return []
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(
            f"{_path(where, key)} must be a list, not {type(value).__name__} {value!r}"
        )
    return value


def _number(value, where: str, key=None) -> float:
    """``float(value)`` if it is finite; a boolean, which Python counts as a
    number, NaN, an infinity or anything else is a :class:`ConfigurationError`
    naming the key path."""
    try:
        result = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        result = None
    if result is None:
        raise ConfigurationError(f"{_path(where, key)} must be a number, not {value!r}")
    if not math.isfinite(result):
        raise ConfigurationError(f"{_path(where, key)} must be finite, not {value!r}")
    return result


def _numbers(spec, where: str, key=lambda k: k) -> dict:
    """The mapping ``spec`` with its keys passed through ``key`` and its
    values as floats, each read by :func:`_number`.

    Raises:
        ConfigurationError: naming the key path of a value that is not a
            finite number, or ``where`` if ``spec`` is not a mapping.
    """
    return {key(k): _number(v, where, k) for k, v in _check_keys(spec, None, where).items()}


def _integer(value, where: str, key=None) -> int:
    """``int(value)`` for an integer or a whole number; a boolean or anything
    else is a :class:`ConfigurationError` naming the key path."""
    try:
        result = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    if result is None or (isinstance(value, float) and result != value):
        raise ConfigurationError(f"{_path(where, key)} must be an integer, not {value!r}")
    return result


def _string(value, where: str, key=None) -> str:
    """``value`` if it is a string, or an integer as its digits (YAML reads
    ``id: 1`` as an int); ``None``, a boolean, a float, a list or a mapping is
    a :class:`ConfigurationError` naming the key path."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if not isinstance(value, str):
        raise ConfigurationError(f"{_path(where, key)} must be a string, not {value!r}")
    return value


def _strings(value, where: str, key=None) -> tuple[str, ...]:
    """The list ``value`` (see :func:`_list`), each item read by :func:`_string`."""
    at = _path(where, key)
    return tuple(_string(v, f"{at}[{j}]") for j, v in enumerate(_list(value, where, key)))


def _boolean(value, where: str, key=None) -> bool:
    """``value`` if it is a YAML boolean; ``"false"`` or ``1`` is a :class:`ConfigurationError`."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{_path(where, key)} must be true or false, not {value!r}")
    return value


def _check_keys(
    spec, known: tuple[str, ...] | None, where: str, required: tuple[str, ...] = ()
) -> dict:
    """Return one level of the scenario document as a mapping.

    ``None`` reads as an empty mapping.  Anything else that is not a mapping,
    a key outside ``known`` (the error names the nearest known key; ``None``
    accepts any key) and a missing ``required`` key raise
    :class:`ConfigurationError`.
    """
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{where} must be a mapping, not {type(spec).__name__} {spec!r}")
    if known is not None:
        for key in spec:
            if key not in known:
                near = difflib.get_close_matches(str(key), known, n=1, cutoff=0.5)
                hint = f"did you mean {near[0]!r}?" if near else f"known keys: {', '.join(known)}"
                raise ConfigurationError(f"unknown key {key!r} in {where}; {hint}")
    for key in required:
        if key not in spec:
            raise ConfigurationError(f"{where} lacks the required key {key!r}")
    return spec


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """Keys of a level whose YAML keys are the dataclass's field names."""
    return tuple(f.name for f in fields(cls))


def _build_inline_network(spec: dict) -> Network:
    zones = {}
    for i, z in enumerate(_list(spec.get("zones"), "network.zones")):
        where = f"network.zones[{i}]"
        z = _check_keys(z, ("id", "kind"), where, required=("id",))
        zid = _string(z["id"], where, "id")
        # '-' joins an OD's zones, and a zone id names its ODs' profile files
        for ch in "-/\\":
            if ch in zid:
                raise ConfigurationError(f"zone id {zid!r} must not contain {ch!r}")
        zones[zid] = Zone(zid, z.get("kind", "residential"))
    links: dict[str, Link] = {}
    link_keys = ("label", "from", "to", "free_flow_time", "capacity", "bpr_alpha", "bpr_beta")
    for i, l in enumerate(_list(spec.get("links"), "network.links")):
        where = f"network.links[{i}]"
        l = _check_keys(l, link_keys, where, required=("label", "from", "to"))
        label, a, b = (_string(l[k], where, k) for k in ("label", "from", "to"))
        fft = _number(l.get("free_flow_time", 10.0), where, "free_flow_time")
        cap = _number(l.get("capacity", 4000.0), where, "capacity")
        alpha = _number(l.get("bpr_alpha", 0.15), where, "bpr_alpha")
        beta = _number(l.get("bpr_beta", 4.0), where, "bpr_beta")
        links[f"{label}a"] = Link(f"{label}a", label, a, b, fft, cap, alpha, beta)
        links[f"{label}b"] = Link(f"{label}b", label, b, a, fft, cap, alpha, beta)
    paths = {}
    for key, seq in _check_keys(spec.get("paths"), None, "network.paths").items():
        od = _parse_od(key)
        paths[od] = Path(od, _strings(seq, "network.paths", key))
    detectors = _strings(spec.get("detectors"), "network.detectors")
    return Network(zones=zones, links=links, paths=paths, detectors=detectors)


def _build_network(spec) -> Network:
    """The toy preset (the default, with optional overrides) or an inline network."""
    inline = ("zones", "links", "paths", "detectors")
    if isinstance(spec, dict) and not spec.keys().isdisjoint(inline):
        return _build_inline_network(_check_keys(spec, inline, "network"))
    spec = _check_keys(spec, ("preset", "overrides"), "network")
    preset = spec.get("preset", "toy")
    if preset != "toy":
        raise ConfigurationError(f"unknown network preset {preset!r}")
    overrides = _check_keys(spec.get("overrides"), OVERRIDE_KEYS, "network.overrides")
    try:
        return build_toy_network(overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"network.overrides: {exc}") from None


def _build_schedule(spec, where: str) -> ScheduleParams:
    spec = dict(_check_keys(spec, _field_names(ScheduleParams), where))
    if "preferred_arrival" in spec:
        spec["preferred_arrival"] = parse_minutes(spec["preferred_arrival"], where,
                                                  "preferred_arrival")
    try:
        return ScheduleParams(**_numbers(spec, where))
    except ValueError as exc:
        raise ConfigurationError(f"bad schedule parameters: {exc}") from exc


def scenario_from_mapping(doc: dict) -> ScenarioConfig:
    """Build a scenario from a parsed YAML mapping.

    Raises:
        ConfigurationError: on structural problems, unknown keys included;
            value-level violations are additionally reported by
            :meth:`ScenarioConfig.validate`.
    """
    doc = _check_keys(doc, ("name", "description", "seed", "time_grid", "network", "legs",
                      "perturbation", "measurement_noise_fraction", "noise", "estimation",
                      "models"), "the scenario")
    grid_spec = _check_keys(doc.get("time_grid"), _field_names(TimeGrid), "time_grid")
    grid = TimeGrid(
        start=_integer(parse_minutes(grid_spec.get("start", 0), "time_grid", "start"),
                       "time_grid", "start"),
        interval_minutes=_integer(
            grid_spec.get("interval_minutes", 15), "time_grid", "interval_minutes"
        ),
        n_intervals=_integer(grid_spec.get("n_intervals", 96), "time_grid", "n_intervals"),
    )
    network = _build_network(doc.get("network"))

    legs = []
    for i, spec in enumerate(_list(doc.get("legs"), "legs")):
        where = f"legs[{i}]"
        spec = _check_keys(spec, _field_names(LegDef), where, required=("name",))
        od_split = _numbers(spec.get("od_split"), f"{where}.od_split", key=_parse_od)
        legs.append(
            LegDef(
                name=_string(spec["name"], where, "name"),
                total=_number(spec.get("total", 0.0), where, "total"),
                od_split=od_split,
                schedule=_build_schedule(spec.get("schedule"), f"{where}.schedule"),
                feeds=_strings(spec.get("feeds"), where, "feeds"),
            )
        )
    if not legs:
        raise ConfigurationError("scenario defines no demand legs")

    pert_spec = _check_keys(doc.get("perturbation"), _field_names(PerturbationSpec), "perturbation")
    pert_seed = pert_spec.get("seed")
    perturbation = PerturbationSpec(
        mode=_string(pert_spec.get("mode", "uniform_scale"), "perturbation", "mode"),
        scale=_number(pert_spec.get("scale", 0.0), "perturbation", "scale"),
        noise=_number(pert_spec.get("noise", 0.0), "perturbation", "noise"),
        seed=None if pert_seed is None else _integer(pert_seed, "perturbation", "seed"),
    )
    noise_spec = _check_keys(doc.get("noise"), _field_names(NoiseFractions), "noise")
    noise = NoiseFractions(**_numbers(noise_spec, "noise"))

    est_spec = _check_keys(
        doc.get("estimation"),
        ("cutoff", "prediction_intervals", "uniform_redistribution", "refresh_assignment"),
        "estimation",
    )
    estimation = EstimationConfig(
        cutoff_minute=parse_minutes(est_spec.get("cutoff", grid.end), "estimation", "cutoff"),
        prediction_intervals=_integer(
            est_spec.get("prediction_intervals", 2), "estimation", "prediction_intervals"
        ),
        **{key: _boolean(est_spec.get(key, False), "estimation", key)
           for key in ("uniform_redistribution", "refresh_assignment")},
    )
    models = _strings(doc.get("models"), "models") or MODELS
    return ScenarioConfig(
        name=_string(doc.get("name", "scenario"), "name"),
        grid=grid,
        network=network,
        legs=tuple(legs),
        perturbation=perturbation,
        noise=noise,
        estimation=estimation,
        models=models,
        seed=_integer(doc.get("seed", 0), "seed"),
        measurement_noise_fraction=_number(
            doc.get("measurement_noise_fraction", 0.0), "measurement_noise_fraction"
        ),
        description=_string(doc.get("description", ""), "description"),
    )


def load_scenario(path: str | FsPath) -> ScenarioConfig:
    """Parse a scenario file.

    The YAML is parsed by ``_LOADER``: libyaml's C parser where PyYAML has
    it, several times faster than PyYAML's pure-Python ``SafeLoader``, which
    is used otherwise.  Both give the same document, so the same scenario.

    Raises:
        OSError: if the file cannot be read.
        ConfigurationError: if the document does not describe a scenario.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"cannot parse scenario {path}: {exc}") from exc
    return scenario_from_mapping(doc)


def packaged_scenario_path(name: str = "toy") -> FsPath:
    """Filesystem path of a scenario shipped with the package."""
    ref = resources.files("odchain") / "scenarios" / f"{name}.scenario"
    with resources.as_file(ref) as p:
        return FsPath(p)
