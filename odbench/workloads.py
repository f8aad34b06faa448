"""The benchmark's workloads: how each builds its scenario, and its seed range.

Every workload is a function of the benchmark seed ``s`` only.  It builds and
validates its scenario (the part timed as ``setup_s``) and names the
experiment seeds of one round: ``BASE_SEED + 100 * s + j`` for ``j`` below the
workload's round size.  The library is called through module attributes
(``scenario.load_scenario``), so the tracer's wrappers see these calls.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from odchain import scenario
from odchain.scenario import ScenarioConfig

#: Experiment seeds of workload round j under benchmark seed s: BASE_SEED + 100*s + j.
BASE_SEED = 20260825
SEED_STRIDE = 100

#: Six pairs, not eight: at N = 8 the tracemalloc experiment alone takes about
#: 30 s, which at 22 runs per workload does not fit the benchmark's run budget.
CORRIDOR_PAIRS = 6


def corridor_mapping(n_pairs: int = CORRIDOR_PAIRS) -> dict:
    """A scenario mapping for a trunk corridor with ``n_pairs`` home/work pairs.

    Trunk nodes t0..tN are joined by N trunk links ``T{k}`` (t_k -> t_k+1 is
    direction "a").  Home zone h_i hangs off t_i through access link ``H{i}``,
    work zone w_j off t_j+1 through ``W{j}``.  Morning ODs run from h_i to
    every work zone downstream, w_j with j >= i, eastbound over trunk links
    i..j; evening ODs run back.  That is N(N+1)/2 ODs each way, and a detector
    sits on both directions of every trunk link (2N channels): N = 6 gives 42
    ODs and 12 channels, N = 8 gives 72 and 16.

    Two morning root legs (early and late commuters) each feed one evening
    leg.  The historical matrix overstates the truth by 25% with a fixed
    +-15% per-OD factor, so the benchmark seed moves only the count noise.
    """
    if n_pairs < 1:
        raise ValueError("the corridor needs at least one home/work pair")
    zones = [{"id": f"h{i}", "kind": "residential"} for i in range(n_pairs)]
    zones += [{"id": f"w{j}", "kind": "work"} for j in range(n_pairs)]
    links = []
    for i in range(n_pairs):
        links.append({"label": f"H{i}", "from": f"h{i}", "to": f"t{i}",
                      "free_flow_time": 3.0, "capacity": 6000})
        links.append({"label": f"W{i}", "from": f"t{i + 1}", "to": f"w{i}",
                      "free_flow_time": 3.0, "capacity": 6000})
        links.append({"label": f"T{i}", "from": f"t{i}", "to": f"t{i + 1}",
                      "free_flow_time": 4.0, "capacity": 3600})
    paths: dict[str, list[str]] = {}
    morning: dict[str, float] = {}
    evening: dict[str, float] = {}
    for i in range(n_pairs):
        for j in range(i, n_pairs):
            trunk = [f"T{k}" for k in range(i, j + 1)]
            paths[f"h{i}-w{j}"] = [f"H{i}a"] + [f"{t}a" for t in trunk] + [f"W{j}a"]
            paths[f"w{j}-h{i}"] = [f"W{j}b"] + [f"{t}b" for t in reversed(trunk)] + [f"H{i}b"]
            weight = math.exp(-0.35 * (j - i))
            morning[f"h{i}-w{j}"] = weight
            evening[f"w{j}-h{i}"] = weight
    detectors = [f"T{k}{d}" for k in range(n_pairs) for d in "ab"]

    def normalized(split: dict[str, float]) -> dict[str, float]:
        total = sum(split.values())
        return {od: w / total for od, w in split.items()}

    def leg(name, total, split, arrival, feeds=()):
        return {
            "name": name,
            "total": total,
            "od_split": normalized(split),
            "schedule": {"alpha": 1.0, "beta": 0.5, "gamma": 2.0,
                         "preferred_arrival": arrival, "logit_scale": 0.025},
            "feeds": list(feeds),
        }

    return {
        "name": f"corridor-{n_pairs}",
        "seed": BASE_SEED,
        "time_grid": {"start": "00:00", "interval_minutes": 15, "n_intervals": 96},
        "network": {"zones": zones, "links": links, "paths": paths, "detectors": detectors},
        "legs": [
            leg("am_early", 1500.0 * n_pairs, morning, "08:00"),
            leg("am_late", 700.0 * n_pairs, morning, "09:15"),
            leg("pm_early", 1500.0 * n_pairs, evening, "17:00", ["am_early"]),
            leg("pm_late", 700.0 * n_pairs, evening, "18:30", ["am_late"]),
        ],
        "perturbation": {"mode": "scale_plus_noise", "scale": 0.25, "noise": 0.15, "seed": 7},
        "measurement_noise_fraction": 0.02,
        "noise": {"process": 0.50, "measurement": 0.10, "prior": 0.50,
                  "leg_process": 0.05, "leg_prior": 0.25, "cumulative_measurement": 0.10},
        "estimation": {"cutoff": "12:00", "prediction_intervals": 2},
        "models": ["seed", "kf", "pkf", "spkf"],
    }


def _toy() -> ScenarioConfig:
    return scenario.load_scenario(scenario.packaged_scenario_path("toy"))


def _toy_3() -> ScenarioConfig:
    cfg = _toy()
    return dataclasses.replace(
        cfg, grid=dataclasses.replace(cfg.grid, interval_minutes=3, n_intervals=480)
    )


def _toy_refresh() -> ScenarioConfig:
    cfg = _toy()
    return dataclasses.replace(
        cfg, estimation=dataclasses.replace(cfg.estimation, refresh_assignment=True)
    )


_CORRIDOR = corridor_mapping(CORRIDOR_PAIRS)


def _corridor() -> ScenarioConfig:
    return scenario.scenario_from_mapping(_CORRIDOR)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], ScenarioConfig]
    round_size: int  # experiments (seeds) per round

    def setup(self) -> ScenarioConfig:
        """Build and validate the scenario: the work timed as ``setup_s``."""
        cfg = self.build()
        problems = cfg.validate()
        if problems:
            raise RuntimeError(f"workload {self.name}: invalid scenario: {problems}")
        return cfg

    def seeds(self, bench_seed: int) -> list[int]:
        first = BASE_SEED + SEED_STRIDE * bench_seed
        return [first + j for j in range(self.round_size)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-15", _toy, 16),
        Workload("toy-3", _toy_3, 2),
        Workload("corridor", _corridor, 6),
        Workload("toy-15-refresh", _toy_refresh, 12),
    )
}
