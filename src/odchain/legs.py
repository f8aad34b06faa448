"""Demand legs, trip chains and the arrival-redistribution operator.

A demand leg is the OD matrix of one activity movement (say home-to-work).
Chained legs are generated from their predecessors: demand arriving at a zone
is aggregated and then split over that zone's outgoing ODs using the current
leg's historical fractions.  That redistribution is linear, so it is carried
by a single square operator that also propagates deviations and covariances.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .errors import ChainConsistencyError, ConfigurationError
from .network import OD, od_label, read_only_view

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DemandLeg:
    """Total OD flows of one activity movement over a shared OD index.

    ``flows`` spans the full OD universe (zeros off ``members``) so legs can
    be combined with plain vector algebra.  ``shares`` optionally carries the
    departure-interval shares of the member ODs alone, one row per member in
    the order of ``member_indices()``, shape (len(members), n_intervals).
    ``profile`` is the dense (n_od, n_intervals) view, zero off the members,
    built from them on each access and never stored.  ``flows`` and
    ``shares`` are read-only views of the arrays given; float arrays are not
    copied.
    """

    name: str
    od_index: tuple[OD, ...]
    flows: np.ndarray
    members: tuple[OD, ...]
    shares: np.ndarray | None = None

    def __post_init__(self) -> None:
        flows = read_only_view(self.flows)
        object.__setattr__(self, "flows", flows)
        if flows.shape != (len(self.od_index),):
            raise ConfigurationError(f"leg {self.name!r}: flows do not match the OD index")
        if not np.isfinite(flows).all():
            raise ValueError(f"leg {self.name!r}: non-finite OD flows")
        if (flows < 0).any():
            raise ValueError(f"leg {self.name!r}: negative OD flows")
        member_set = set(self.members)
        unknown = member_set - set(self.od_index)
        if unknown:
            raise ConfigurationError(f"leg {self.name!r}: members outside the OD index: {unknown}")
        rows = []
        for i, od in enumerate(self.od_index):
            if od in member_set:
                rows.append(i)
            elif flows[i] > 0:
                raise ConfigurationError(
                    f"leg {self.name!r}: positive flow on non-member OD {od_label(od)}"
                )
        rows = read_only_view(rows, dtype=int)
        object.__setattr__(self, "_rows", rows)
        if self.shares is not None:
            shares = read_only_view(self.shares)
            object.__setattr__(self, "shares", shares)
            if shares.ndim != 2 or shares.shape[0] != len(rows):
                raise ConfigurationError(
                    f"leg {self.name!r}: shares of shape {shares.shape} do not have one row "
                    f"per member OD ({len(rows)})"
                )
            if not np.isfinite(shares).all():
                raise ValueError(f"leg {self.name!r}: non-finite departure shares")
            if (shares < 0).any():
                raise ValueError(f"leg {self.name!r}: negative departure shares")

    def member_indices(self) -> np.ndarray:
        """Positions of the member ODs in ``od_index``, ascending."""
        return self._rows  # type: ignore[attr-defined]

    @property
    def profile(self) -> np.ndarray | None:
        """The shares on their ODs' rows of a new read-only (n_od,
        n_intervals) array, zero off the members, or ``None`` without shares:
        built on each access, never kept."""
        if self.shares is None:
            return None
        dense = np.zeros((len(self.od_index), self.shares.shape[1]))
        dense[self.member_indices()] = self.shares
        dense.setflags(write=False)
        return dense


def leg_terms(
    weighted: Iterable[tuple[DemandLeg, np.ndarray]], start: int, stop: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Spread per-OD leg vectors over their legs' departure shares.

    For each ``(leg, vector)`` pair of ``weighted``, in the order given,
    yields the leg's member rows and ``vector[rows, None] *
    leg.shares[:, start:stop]``, the vector on the member ODs over intervals
    [start, stop).  Off its members a term would be an exact zero, so
    callers add it on the member rows alone; the order given is the order
    of the sums, which fixes their last bits.

    Raises:
        ConfigurationError: naming the leg, if it has no shares or they end
            before ``stop``.
    """
    for leg, vector in weighted:
        if leg.shares is None:
            raise ConfigurationError(f"leg {leg.name!r} has no departure shares")
        if leg.shares.shape[1] < stop:
            raise ConfigurationError(f"leg {leg.name!r}: shares end before interval {stop}")
        rows = leg.member_indices()
        yield rows, np.asarray(vector, dtype=float)[rows, None] * leg.shares[:, start:stop]


@dataclass(frozen=True)
class ChainSpec:
    """Which legs feed which: ``feeds[leg]`` lists its predecessor legs."""

    feeds: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        known = set(self.feeds)
        for leg, preds in self.feeds.items():
            missing = set(preds) - known
            if missing:
                raise ConfigurationError(f"leg {leg!r} fed by unknown legs {sorted(missing)}")
            if leg in preds:
                raise ConfigurationError(f"leg {leg!r} feeds itself")
            for feeder in preds:
                if preds.count(feeder) > 1:  # its arrivals would be chained in twice
                    raise ConfigurationError(f"leg {leg!r} lists its feeder {feeder!r} twice")
        try:
            order = tuple(TopologicalSorter(self.feeds).static_order())
        except CycleError as exc:
            raise ConfigurationError(f"trip chain contains a cycle: {exc.args[1]}") from exc
        object.__setattr__(self, "_order", order)

    def topological_order(self) -> tuple[str, ...]:
        """Legs ordered so every leg appears after all legs feeding it."""
        return self._order  # type: ignore[attr-defined]

    def roots(self) -> tuple[str, ...]:
        return tuple(leg for leg in self.topological_order() if not self.feeds.get(leg))


def leg_fractions(leg: DemandLeg) -> np.ndarray:
    """Per-OD share of its origin zone's generated total, over the full index.

    For every zone with outgoing flow the member fractions sum to one.  A
    member zone whose generated total is zero gets all-zero fractions and a
    logged warning: arrivals chained into it are dropped rather than invented.
    """
    totals: dict[str, float] = {}
    members = set(leg.members)
    member_origins = {od[0] for od in members}
    for i, (origin, _) in enumerate(leg.od_index):
        totals[origin] = totals.get(origin, 0.0) + float(leg.flows[i])
    fractions = np.zeros(len(leg.od_index))
    for i, od in enumerate(leg.od_index):
        g = totals.get(od[0], 0.0)
        if od in members and g > 0.0:
            fractions[i] = leg.flows[i] / g
    dead = sorted(z for z in member_origins if totals.get(z, 0.0) <= 0.0)
    if dead:
        logger.warning(
            "leg %s: zones %s generate no flow; chained arrivals there are dropped",
            leg.name, dead,
        )
    return fractions


@dataclass(frozen=True)
class LegOperator:
    """Square matrix sending predecessor OD deviations to the current leg's.

    Column j (a predecessor OD ending at zone n) holds the current leg's
    fractions over ODs leaving n; other columns are zero.  Entries therefore
    live in [0, 1] and every column sums to either one (fully redistributed)
    or zero (not chained / dropped).  ``matrix`` is a read-only view of the
    array given; a float array is not copied.
    """

    current: str
    od_index: tuple[OD, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = read_only_view(self.matrix)
        object.__setattr__(self, "matrix", m)
        n = len(self.od_index)
        if m.shape != (n, n):
            raise ConfigurationError(f"operator for {self.current!r}: shape {m.shape} is not square over the OD index")
        if (m < -1e-12).any() or (m > 1.0 + 1e-12).any():
            raise ValueError(f"operator for {self.current!r}: entries outside [0, 1]")
        sums = m.sum(axis=0)
        bad = ~(np.isclose(sums, 0.0, atol=1e-12) | np.isclose(sums, 1.0, atol=1e-12))
        if bad.any():
            raise ValueError(
                f"operator for {self.current!r}: column sums {sums[bad]} are neither 0 nor 1"
            )


def build_leg_operator(
    chain: ChainSpec,
    predecessors: list[DemandLeg],
    current: DemandLeg,
    *,
    uniform_redistribution: bool = False,
) -> LegOperator:
    """Construct the redistribution operator of ``current`` from its feeders.

    With ``uniform_redistribution`` the historical fractions are flattened to
    a uniform split over each zone's outgoing member ODs.

    Raises:
        ConfigurationError: if the predecessors do not match the chain spec
            or use a different OD index.
        ChainConsistencyError: if some predecessor OD ends at a zone with no
            outgoing ODs in the current leg.
    """
    declared = set(chain.feeds.get(current.name, ()))
    given = {leg.name for leg in predecessors}
    if declared != given:
        raise ConfigurationError(
            f"leg {current.name!r}: chain declares feeders {sorted(declared)}, got {sorted(given)}"
        )
    for leg in predecessors:
        if leg.od_index != current.od_index:
            raise ConfigurationError(f"leg {leg.name!r} uses a different OD index than {current.name!r}")

    n = len(current.od_index)
    origins_out: dict[str, list[int]] = {}
    members = set(current.members)
    for i, od in enumerate(current.od_index):
        if od in members:
            origins_out.setdefault(od[0], []).append(i)

    if uniform_redistribution:
        fractions = np.zeros(n)
        for rows in origins_out.values():
            fractions[rows] = 1.0 / len(rows)
    else:
        fractions = leg_fractions(current)

    fed_ods = sorted({od for leg in predecessors for od in leg.members})
    matrix = np.zeros((n, n))
    col = {od: j for j, od in enumerate(current.od_index)}
    for od in fed_ods:
        dest = od[1]
        rows = origins_out.get(dest)
        if rows is None:
            raise ChainConsistencyError(
                f"leg {current.name!r}: arrivals at zone {dest!r} (OD {od_label(od)}) "
                "have no outgoing ODs to chain into"
            )
        matrix[rows, col[od]] = fractions[rows]
    return LegOperator(current=current.name, od_index=current.od_index, matrix=matrix)


def propagate_leg_deviation(op: LegOperator, deviations: list[np.ndarray]) -> np.ndarray:
    """Apply the operator to the summed predecessor deviations.

    Raises:
        ConfigurationError: on a dimension mismatch.
    """
    total = np.zeros(len(op.od_index))
    for dev in deviations:
        arr = np.asarray(dev, dtype=float)
        if arr.shape != total.shape:
            raise ConfigurationError(
                f"deviation of shape {arr.shape} does not match OD index of {total.shape[0]}"
            )
        total += arr
    return op.matrix @ total


def two_od_closed_form(
    morning: tuple[float, float], return_fractions: tuple[float, float]
) -> tuple[float, float]:
    """Closed-form chained leg for one work zone feeding two home zones.

    Both morning ODs arrive at the same zone; the returned pair splits the
    summed arrivals by the given fractions.  Used as an independent oracle for
    the operator construction.

    Raises:
        ValueError: if the fractions do not sum to one or anything is negative.
    """
    n_a, n_b = morning
    f_a, f_b = return_fractions
    if n_a < 0 or n_b < 0:
        raise ValueError("negative morning flows")
    if f_a < 0 or f_b < 0 or abs(f_a + f_b - 1.0) > 1e-9:
        raise ValueError(f"return fractions {return_fractions!r} must be nonnegative and sum to 1")
    arrivals = n_a + n_b
    return arrivals * f_a, arrivals * f_b
