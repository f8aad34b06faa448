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
from collections.abc import Collection
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path as FsPath

import yaml

from .errors import ConfigurationError
from .departure import ScheduleParams
from .legfilter import CHAIN_MODELS
from .legs import ChainSpec
from .network import (
    OD,
    Link,
    Network,
    Path,
    TimeGrid,
    Zone,
    build_toy_network,
    od_label,
    road_links,
    validate_network,
)

logger = logging.getLogger(__name__)


class _LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, on libyaml's C parser where PyYAML has it, except
    that a key given twice in one mapping is an error, where PyYAML keeps the
    last; a merged (``<<``) key may still be overridden."""

    def construct_mapping(self, node, deep=False):
        own = node.value  # merging puts the merged pairs before the node's own, in a new list
        mapping = super().construct_mapping(node, deep=deep)
        if len(mapping) < len(node.value):  # a key given twice, or merged and overridden
            seen = set()
            for key_node, _ in own:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found key {key!r} given twice", key_node.start_mark)
                seen.add(key)
        return mapping


PERTURBATION_MODES = ("none", "uniform_scale", "scale_plus_noise")
#: Every model a scenario may request, in report order.
MODELS = ("seed", "kf", *CHAIN_MODELS)
# a leg's preferred arrival lies in the day: 00:00 to 24:00, in minutes of day
_MINUTES_PER_DAY = 1440


def parse_minutes(value, where: str | None = None, key=None) -> float:
    """Accept "HH:MM" strings or plain, finite minute numbers.

    Both parts of a clock string are ASCII digits alone: ``int`` would also
    take a sign, an underscore or spaces, and ``"-1:30"`` would read as -30.

    Raises:
        ConfigurationError: for anything else, a boolean included, naming
            the key path ``where.key`` when ``where`` is given.
    """
    at = "" if where is None else f"{_path(where, key)}: "
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 2:
            raise ConfigurationError(f"{at}cannot parse time {value!r}; expected HH:MM or minutes")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ConfigurationError(f"{at}cannot parse time {value!r}; expected HH:MM digits")
        hours, minutes = int(parts[0]), int(parts[1])
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
    total: float = 0.0
    od_split: dict[OD, float] = field(default_factory=dict)
    schedule: ScheduleParams = ScheduleParams()
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
    (1 + noise * u) with u drawn uniformly from [-1, 1].  A ``scale`` under
    ``none`` or a ``noise`` under another mode than ``scale_plus_noise``
    would be ignored, so it is an error.
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
        if self.noise > 0.0 and self.mode != "scale_plus_noise":
            raise ConfigurationError(f"perturbation.noise {self.noise!r} has no effect under "
                                     f"mode {self.mode!r}; only 'scale_plus_noise' draws noise")
        if self.scale != 0.0 and self.mode == "none":
            raise ConfigurationError(f"perturbation.scale {self.scale!r} has no effect under "
                                     f"mode 'none'")


@dataclass(frozen=True)
class NoiseFractions:
    """Filter noise scales.

    ``prior`` is the std of the common mode of the interval filter's
    relative prior; ``measurement``, ``leg_process``, ``leg_prior`` and
    ``cumulative_measurement`` are fractions of historical means over
    positive cells.  ``process`` sets nothing: the relative random walk's
    scales are constants of :mod:`odchain.experiment`.  A scenario document
    that sets it to another value than this default gets one warning from
    :func:`scenario_from_mapping`."""

    process: float = 0.50
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
    """Measurement cutoff and prediction settings.

    ``refresh_assignment`` sets nothing: the interval filter reads one
    linearization, frozen at the historical load.  A scenario document that
    sets it ``true`` gets one warning from :func:`scenario_from_mapping`."""

    cutoff_minute: float
    prediction_intervals: int = 2
    uniform_redistribution: bool = False
    refresh_assignment: bool = False

    def __post_init__(self) -> None:
        if self.prediction_intervals < 1:
            raise ConfigurationError("prediction_intervals must be >= 1")


@dataclass(frozen=True)
class ScenarioConfig:
    legs: tuple[LegDef, ...]
    estimation: EstimationConfig
    name: str = "scenario"
    grid: TimeGrid = TimeGrid()
    network: Network = field(default_factory=build_toy_network)
    perturbation: PerturbationSpec = PerturbationSpec()
    noise: NoiseFractions = NoiseFractions()
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
        if not self.legs:
            problems.append("scenario defines no demand legs")
        seen: set[str] = set()
        for i, leg in enumerate(self.legs):
            if leg.name in seen:
                problems.append(f"leg {leg.name!r}: duplicate name")
            seen.add(leg.name)
            arrival = leg.schedule.preferred_arrival
            if not (0.0 <= arrival <= _MINUTES_PER_DAY):
                problems.append(f"legs[{i}].schedule.preferred_arrival: {arrival:g} minutes "
                                f"lies outside the day (00:00 to 24:00)")
            for od in leg.od_split:
                if od not in self.network.paths:
                    problems.append(f"leg {leg.name!r}: no path for OD {od_label(od)}")
        try:
            self.chain()
        except ConfigurationError as exc:
            problems.append(str(exc))
        else:  # every feeder is a leg, listed once
            by_name = {leg.name: leg for leg in self.legs}
            for leg in self.legs:
                current_origins = {od[0] for od in leg.od_split}
                for feeder_name in leg.feeds:
                    for od in by_name[feeder_name].od_split:
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
    """The key path ``where.key``: ``where`` without a key, ``key`` at the top level."""
    if key is None:
        return where
    return f"{where}.{key}" if where else str(key)


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
    return tuple([v if type(v) is str else _string(v, f"{at}[{j}]")
                  for j, v in enumerate(_list(value, where, key))])


def _boolean(value, where: str, key=None) -> bool:
    """``value`` if it is a YAML boolean; ``"false"`` or ``1`` is a :class:`ConfigurationError`."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{_path(where, key)} must be true or false, not {value!r}")
    return value


def _check_keys(
    spec, known: Collection[str] | None, where: str, required: tuple[str, ...] = ()
) -> dict:
    """Return one level of the scenario document as a mapping.

    ``None`` reads as an empty mapping.  Anything else that is not a mapping,
    a key outside ``known`` (the error names the nearest known key; ``None``
    accepts any key) and a missing ``required`` key raise
    :class:`ConfigurationError`.  An empty ``where`` is the top level.
    """
    where = where or "the scenario"
    if spec is None:
        spec = {}
    elif not isinstance(spec, dict):
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


def _read(spec, where: str, readers: dict, required: tuple[str, ...] = ()) -> dict:
    """The keys present in one level, each read by ``readers[key](value, where,
    key)``; the keys of ``readers`` are the level's known keys.  A key left
    out stays out, so the dataclass built from the result takes its default."""
    spec = _check_keys(spec, readers, where, required)
    return {key: readers[key](value, where, key) for key, value in spec.items()}


def _level(cls, readers: dict):
    """A reader of one level: ``cls`` built from the keys present (``dict``: the mapping)."""
    return lambda spec, where, key: cls(**_read(spec, _path(where, key), readers))


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """Keys of a level whose YAML keys are the dataclass's field names."""
    return tuple(f.name for f in fields(cls))


def _per_road(value, where: str, key=None) -> float | dict[str, float]:
    """One number for every road, or a mapping from road labels (read by
    :func:`_string`) to numbers, where a label given twice is an error."""
    if not isinstance(value, dict):
        return _number(value, where, key)
    at, per_road = _path(where, key), {}
    for k, v in value.items():
        label = _string(k, at, k)
        if label in per_road:
            raise ConfigurationError(f"{_path(at, k)}: road {label!r} is given twice")
        per_road[label] = _number(v, at, k)
    return per_road


def _build_inline_network(spec: dict) -> Network:
    zones: dict[str, Zone] = {}
    for i, z in enumerate(_list(spec.get("zones"), "network.zones")):
        where = f"network.zones[{i}]"
        zone = Zone(**_read(z, where, _ZONE, required=("id",)))
        if zone.id in zones:
            raise ConfigurationError(f"{where}.id: zone {zone.id!r} is given twice")
        zones[zone.id] = zone
    links: dict[str, Link] = {}
    for i, l in enumerate(_list(spec.get("links"), "network.links")):
        where = f"network.links[{i}]"
        l = _read(l, where, _LINK, required=("label", "from", "to"))
        road = road_links(l.pop("label"), l.pop("from"), l.pop("to"), **l)
        if road[0].id in links:
            raise ConfigurationError(f"{where}.label: road {road[0].label!r} is given twice")
        links.update((link.id, link) for link in road)
    paths = {}
    for key, seq in _check_keys(spec.get("paths"), None, "network.paths").items():
        od = _parse_od(key)
        paths[od] = Path(od, _strings(seq, "network.paths", key))
    detectors = _strings(spec.get("detectors"), "network.detectors")
    return Network(zones=zones, links=links, paths=paths, detectors=detectors)


def _build_network(spec, where: str, key=None) -> Network:
    """The toy preset (the default, with optional overrides) or an inline network."""
    inline = ("zones", "links", "paths", "detectors")
    if isinstance(spec, dict) and not spec.keys().isdisjoint(inline):
        return _build_inline_network(_check_keys(spec, inline, "network"))
    spec = _check_keys(spec, ("preset", "overrides"), "network")
    preset = spec.get("preset", "toy")
    if preset != "toy":
        raise ConfigurationError(f"unknown network preset {preset!r}")
    return build_toy_network(_read(spec.get("overrides"), "network.overrides", _TOY_OVERRIDES))


def _build_schedule(spec, where: str, key=None) -> ScheduleParams:
    try:
        return ScheduleParams(**_read(spec, _path(where, key), _SCHEDULE))
    except ValueError as exc:
        raise ConfigurationError(f"bad schedule parameters: {exc}") from exc


#: The readers of each level of the document, keyed by its known keys.
_ZONE = {"id": _string, "kind": _string}
_LINK = {"label": _string, "from": _string, "to": _string,
         **dict.fromkeys(("free_flow_time", "capacity", "bpr_alpha", "bpr_beta"), _number)}
_SCHEDULE = {**dict.fromkeys(_field_names(ScheduleParams), _number),
             "preferred_arrival": parse_minutes}
_TOY_OVERRIDES = {"free_flow_time": _per_road, "capacity": _per_road, "bpr_alpha": _number,
                  "bpr_beta": _number}
_LEG = {"name": _string, "total": _number,
        "od_split": lambda v, where, key: _numbers(v, _path(where, key), key=_parse_od),
        "schedule": _build_schedule, "feeds": _strings}
_SCENARIO = {
    "name": _string,
    "description": _string,
    "seed": _integer,
    "time_grid": _level(TimeGrid, {
        "start": lambda v, where, key: _integer(parse_minutes(v, where, key), where, key),
        "interval_minutes": _integer, "n_intervals": _integer}),
    "network": _build_network,
    "legs": lambda v, where, key: tuple(
        LegDef(**_read(spec, f"{_path(where, key)}[{i}]", _LEG, required=("name",)))
        for i, spec in enumerate(_list(v, where, key))),
    "perturbation": _level(PerturbationSpec, {
        "mode": _string, "scale": _number, "noise": _number,
        "seed": lambda v, where, key: None if v is None else _integer(v, where, key)}),
    "measurement_noise_fraction": _number,
    "noise": _level(NoiseFractions, dict.fromkeys(_field_names(NoiseFractions), _number)),
    "estimation": _level(dict, {
        "cutoff": parse_minutes, "prediction_intervals": _integer,
        "uniform_redistribution": _boolean, "refresh_assignment": _boolean}),
    "models": lambda v, where, key: _strings(v, where, key) or MODELS,  # []: every model
}


def scenario_from_mapping(doc: dict) -> ScenarioConfig:
    """Build a scenario from a parsed YAML mapping.

    Each value is read once, by its level's reader, and a key left out takes
    its dataclass field's default; a network left out is the plain toy.  The
    document's one default of its own is the ``cutoff``, at the grid's end;
    ``models: []`` reads as every model.  A zone id, link label or per-road
    label given twice is an error.  Two keys are read and set nothing:
    ``noise.process`` set to another value than its default and
    ``estimation.refresh_assignment: true`` each log one warning.

    Raises:
        ConfigurationError: on structural problems, unknown keys included;
            value-level violations are additionally reported by
            :meth:`ScenarioConfig.validate`.
    """
    cfg = _read(doc, "", _SCENARIO)
    if not cfg.get("legs"):
        raise ConfigurationError("scenario defines no demand legs")
    grid = cfg.pop("time_grid", ScenarioConfig.grid)
    estimation = cfg.pop("estimation", {})
    cutoff = estimation.pop("cutoff", float(grid.end))
    config = ScenarioConfig(
        grid=grid, estimation=EstimationConfig(cutoff_minute=cutoff, **estimation), **cfg)
    if config.noise.process != NoiseFractions.process:
        logger.warning("noise.process = %g has no effect: the interval filter's random walk "
                       "is relative, its scales constants of odchain.experiment",
                       config.noise.process)
    if config.estimation.refresh_assignment:
        logger.warning("estimation.refresh_assignment has no effect: the interval filter "
                       "reads one linearization, frozen at the historical load")
    return config


def load_scenario(path: str | FsPath) -> ScenarioConfig:
    """Parse a scenario file with ``_LOADER``: libyaml's C parser where
    PyYAML has it, several times faster than its pure-Python ``SafeLoader``.

    Raises:
        OSError: if the file cannot be read.
        ConfigurationError: if the text is not YAML, gives a key twice in one
            mapping (naming the key and its line), or does not describe a
            scenario.
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
