"""Network topology, time discretization and BPR link performance.

A network is a set of traffic zones attached to nodes, directed links (each
bidirectional road contributes two directed links sharing a label), one fixed
path per OD pair, and a set of detector channels.  A detector channel is a
directed link id, so a bidirectional detector on link "4" shows up as the two
channels "4a" and "4b".

Everything here is immutable after construction; demand and flows live in
:mod:`odchain.assignment`.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

logger = logging.getLogger(__name__)

ZONE_KINDS = ("residential", "work", "leisure")

#: An OD pair is an (origin zone, destination zone) tuple.
OD = tuple[str, str]


def od_label(od: OD) -> str:
    """Render an OD pair as the "origin-destination" id used in files."""
    return f"{od[0]}-{od[1]}"


def read_only_view(a, dtype=float) -> np.ndarray:
    """A read-only view of ``a`` as an array of ``dtype``, copied only where
    ``a`` is not already such an array; the caller's own array stays
    writable."""
    view = np.asarray(a, dtype=dtype).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class Zone:
    id: str
    kind: str = "residential"

    def __post_init__(self) -> None:
        if self.kind not in ZONE_KINDS:
            raise ConfigurationError(f"zone {self.id!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Link:
    """One directed link.

    ``label`` is shared by the two directions of a bidirectional road; ``id``
    is the direction-specific identifier (label + "a" or "b").
    """

    id: str
    label: str
    from_node: str
    to_node: str
    free_flow_time: float  # minutes
    capacity: float  # vehicles per hour
    bpr_alpha: float = 0.15
    bpr_beta: float = 4.0

    def __post_init__(self) -> None:
        if self.free_flow_time <= 0:
            raise ConfigurationError(f"link {self.id!r}: free_flow_time must be > 0")
        if self.capacity <= 0:
            raise ConfigurationError(f"link {self.id!r}: capacity must be > 0")
        if self.bpr_beta < 1:
            raise ConfigurationError(f"link {self.id!r}: bpr_beta must be >= 1")
        if self.bpr_alpha < 0:
            raise ConfigurationError(f"link {self.id!r}: bpr_alpha must be >= 0")


@dataclass(frozen=True)
class Path:
    """The fixed route of one OD pair: an ordered tuple of directed link ids."""

    od: OD
    links: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ConfigurationError(f"path {od_label(self.od)}: empty link sequence")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of the study horizon into count intervals."""

    start: int = 0  # minutes of day
    interval_minutes: int = 15
    n_intervals: int = 96

    def __post_init__(self) -> None:
        for name in ("start", "interval_minutes", "n_intervals"):  # the kernel needs whole edges
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and float(value).is_integer()):
                raise ConfigurationError(f"time grid {name} must be a whole number, not {value!r}")
        if self.interval_minutes <= 0 or self.n_intervals <= 0:
            raise ConfigurationError("time grid needs positive interval length and count")

    @property
    def end(self) -> int:
        return self.start + self.interval_minutes * self.n_intervals

    def bounds(self, h):
        """Half-open [start, end) minute bounds of interval ``h``.

        An integer gives a pair of floats, an array of intervals a pair of
        arrays.

        Raises:
            IndexError: if an interval lies outside the grid.
        """
        h = np.asarray(h)
        if ((h < 0) | (h >= self.n_intervals)).any():
            raise IndexError(f"interval {h} outside grid of {self.n_intervals}")
        a = self.start + h * self.interval_minutes
        lo, hi = a.astype(float), (a + self.interval_minutes).astype(float)
        return (float(lo), float(hi)) if h.ndim == 0 else (lo, hi)

    def midpoint(self, h):
        """Midpoint of interval ``h``, elementwise for an array of intervals."""
        a, b = self.bounds(h)
        return 0.5 * (a + b)


@dataclass(frozen=True)
class Network:
    zones: dict[str, Zone]
    links: dict[str, Link]
    paths: dict[OD, Path]
    detectors: tuple[str, ...] = field(default_factory=tuple)

    @property
    def od_index(self) -> tuple[OD, ...]:
        """Deterministic ordering of the OD pairs that have a path."""
        return tuple(sorted(self.paths))

    @functools.cached_property
    def plans(self) -> dict:
        """A memo for what derives from the topology alone: the loader's
        link order and its route plans, one per OD index and layout (whole or
        cut routes).  It is sound because a network is not changed after
        construction; a changed copy starts empty."""
        return {}

    def path_of(self, od: OD) -> Path:
        try:
            return self.paths[od]
        except KeyError:
            raise ConfigurationError(f"no path for OD {od_label(od)}") from None


def bpr_travel_time(link: Link, flow):
    """BPR volume-delay travel time in minutes for an hourly ``flow``.

    Classic form t0 * (1 + alpha * (v/c)**beta); strictly increasing in the
    flow, equal to the free-flow time at zero flow.  An array of flows gives
    the array of times, each equal to the formula in Python floats: the
    power is ``np.float_power``, which calls the C library's ``pow`` as
    Python's ``**`` does, where numpy's ``power`` may round differently in
    the last bit.

    The time is increasing in the flow, so the largest flow's time bounds
    all of them.  When the flows are not negative and that bound lies far
    inside the float range, no time can overflow and the array is computed
    with no further check; otherwise every time is computed and checked.

    Raises:
        ValueError: if a flow is negative, or a time is not finite (the
            power overflowed, or the flow was not finite).
    """
    flows = np.asarray(flow, dtype=float)
    lowest = np.minimum.reduce(flows, axis=None, initial=np.inf)
    highest = float(np.maximum.reduce(flows, axis=None, initial=0.0))
    try:
        bound = link.free_flow_time * (
            1.0 + link.bpr_alpha * (highest / link.capacity) ** link.bpr_beta)
    except OverflowError:
        bound = math.inf
    if lowest >= 0.0 and bound < 1e300:
        tt = _bpr_times(link, flows)
    else:
        if (flows < 0).any():
            raise ValueError(f"negative flow {float(flows.min())!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            tt = _bpr_times(link, flows)
        finite = np.isfinite(tt)
        if not finite.all():
            raise ValueError(
                f"link {link.id!r}: BPR travel time is not finite at flow "
                f"{float(flows[~finite].flat[0])!r} veh/h")
    return float(tt) if tt.ndim == 0 else tt


def _bpr_times(link: Link, flows: np.ndarray) -> np.ndarray:
    return link.free_flow_time * (
        1.0 + link.bpr_alpha * np.float_power(flows / link.capacity, link.bpr_beta))


def validate_network(net: Network) -> list[str]:
    """Collect structural violations; an empty list means the network is sound.

    Checks link endpoints, path connectivity (consecutive links must share a
    node, endpoints must match the OD's zones) and that every detector channel
    references an existing directed link and is listed once.
    """
    problems: list[str] = []
    for lid, link in net.links.items():
        if lid != link.id:
            problems.append(f"link {lid!r}: keyed under a different id than {link.id!r}")
        if link.from_node == link.to_node:
            problems.append(f"link {lid!r}: degenerate self loop at {link.from_node!r}")
    for od, path in net.paths.items():
        o, d = od
        if o not in net.zones:
            problems.append(f"path {od_label(od)}: unknown origin zone {o!r}")
        if d not in net.zones:
            problems.append(f"path {od_label(od)}: unknown destination zone {d!r}")
        missing = [l for l in path.links if l not in net.links]
        if missing:
            problems.append(f"path {od_label(od)}: unknown links {missing}")
            continue
        seq = [net.links[l] for l in path.links]
        if o in net.zones and seq[0].from_node != o:
            problems.append(f"path {od_label(od)}: first link starts at {seq[0].from_node!r}, not {o!r}")
        if d in net.zones and seq[-1].to_node != d:
            problems.append(f"path {od_label(od)}: last link ends at {seq[-1].to_node!r}, not {d!r}")
        for a, b in zip(seq, seq[1:]):
            if a.to_node != b.from_node:
                problems.append(
                    f"path {od_label(od)}: link {a.id!r} ends at {a.to_node!r} "
                    f"but {b.id!r} starts at {b.from_node!r}"
                )
    for c, ch in enumerate(net.detectors):
        if ch not in net.links:
            problems.append(f"detector channel {ch!r}: no such directed link")
        times = net.detectors.count(ch)
        if times > 1 and net.detectors.index(ch) == c:
            problems.append(f"detector channel {ch!r}: listed {times} times")
    return problems


# --------------------------------------------------------------------------
# Toy commute network
#
# Five zones (1-2 residential, 3-4 work, 5 leisure) hang off two junction
# nodes 6 and 7.  All commute routes funnel through the central link 4, which
# carries the only detector (both directions).  Leisure routes reach zone 5
# over links 7 and 8 and never touch link 4, so links 7/8 see leisure traffic
# exclusively.  Link 6 connects the two work zones and is unused by the fixed
# routes; it exists only to round out the road set.
#
#        1 --1-- 6 --4-- 7 --3-- 3
#        2 --2-- 6       7 --5-- 4        3 --6-- 4
#                6 --8-- 5 --7-- 7   (leisure loop via zone 5)
# --------------------------------------------------------------------------

_TOY_ROADS: tuple[tuple[str, str, str], ...] = (
    # label, node_a, node_b; direction "a" runs a->b, "b" runs b->a
    ("1", "1", "6"),
    ("2", "2", "6"),
    ("3", "7", "3"),
    ("4", "6", "7"),
    ("5", "7", "4"),
    ("6", "3", "4"),
    ("7", "7", "5"),
    ("8", "5", "6"),
)

_TOY_PATHS: dict[OD, tuple[str, ...]] = {
    # morning commute: through link 4 eastbound
    ("1", "3"): ("1a", "4a", "3a"),
    ("1", "4"): ("1a", "4a", "5a"),
    ("2", "3"): ("2a", "4a", "3a"),
    ("2", "4"): ("2a", "4a", "5a"),
    # evening commute: through link 4 westbound
    ("3", "1"): ("3b", "4b", "1b"),
    ("3", "2"): ("3b", "4b", "2b"),
    ("4", "1"): ("5b", "4b", "1b"),
    ("4", "2"): ("5b", "4b", "2b"),
    # leisure chain: via links 7/8, bypassing the detector
    ("3", "5"): ("3b", "7a"),
    ("4", "5"): ("5b", "7a"),
    ("5", "1"): ("8a", "1b"),
    ("5", "2"): ("8a", "2b"),
}

_TOY_ZONES = {
    "1": "residential",
    "2": "residential",
    "3": "work",
    "4": "work",
    "5": "leisure",
}

#: Defaults sized so the central link runs near saturation under a peaked
#: commute; scenario overrides may retune capacities and BPR parameters.
TOY_FREE_FLOW_TIME = 10.0
TOY_CAPACITY = 4000.0

OVERRIDE_KEYS = ("free_flow_time", "capacity", "bpr_alpha", "bpr_beta")


def _override(value, key: str) -> float:
    """An override as a float; a boolean, NaN or an infinity is a ``ValueError``."""
    result = None if isinstance(value, bool) else float(value)
    if result is None or not math.isfinite(result):
        raise ValueError(f"override {key} must be a finite number, not {value!r}")
    return result


def _per_label(value, label: str, default: float, key: str) -> float:
    if value is None:
        return default
    if isinstance(value, dict):
        for k in value:
            if str(k) not in {r[0] for r in _TOY_ROADS}:
                raise ConfigurationError(f"override {key}: unknown link label {k!r}")
        return _override(value.get(label, value.get(int(label), default)), key)
    return _override(value, key)


def build_toy_network(overrides: dict | None = None) -> Network:
    """Construct the five-zone commute network with the bidirectional detector.

    ``overrides`` may retune the declared tunables only: ``free_flow_time``
    and ``capacity`` (scalar or per-label mapping), ``bpr_alpha`` and
    ``bpr_beta`` (scalars).  Any other key raises a configuration error; a
    value that is no finite number, a boolean included, a ``ValueError`` or
    ``TypeError``.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown network overrides: {sorted(unknown)}")
    alpha = _override(overrides.get("bpr_alpha", 0.15), "bpr_alpha")
    beta = _override(overrides.get("bpr_beta", 4.0), "bpr_beta")

    links: dict[str, Link] = {}
    for label, a, b in _TOY_ROADS:
        fft = _per_label(overrides.get("free_flow_time"), label, TOY_FREE_FLOW_TIME, "free_flow_time")
        cap = _per_label(overrides.get("capacity"), label, TOY_CAPACITY, "capacity")
        links[f"{label}a"] = Link(f"{label}a", label, a, b, fft, cap, alpha, beta)
        links[f"{label}b"] = Link(f"{label}b", label, b, a, fft, cap, alpha, beta)

    zones = {zid: Zone(zid, kind) for zid, kind in _TOY_ZONES.items()}
    paths = {od: Path(od, seq) for od, seq in _TOY_PATHS.items()}
    net = Network(zones=zones, links=links, paths=paths, detectors=("4a", "4b"))
    problems = validate_network(net)
    if problems:  # pragma: no cover - factory output is checked in tests
        raise ConfigurationError("; ".join(problems))
    return net
