"""The accuracy ladder's rungs, for ``test_ladder.py``.

A rung is a scenario and the experiment seeds it is judged over.  The toy
rungs vary the packaged toy: its grid, its historical perturbation, the
truth of one chained leg, whose total then no longer matches its feeders'
(a broken tour), and a third root leg on the direct commute's ODs, so three
leg terms add up on one OD.  The corridor rungs are the benchmark's trunk
corridor at N = 6 and N = 12 home/work pairs.  ``toy-15``, ``toy-15-noisy``
and ``corridor-6`` are also run at the cutoffs 08:00, 10:00 and 14:00
beside their own 12:00, and at 17:00 and 18:00, after the evening legs
start (``toy-15@0800``, ...).  The grid rungs are a meshed
network whose detectors see destination totals only, under a history that
errs per OD with no common scale, in two draws.  Every rung runs through
``run_experiment``; its figures are means over its seeds.
"""

import functools
import importlib.util
import math
import pathlib
import statistics
import sys

import yaml

from odchain.experiment import run_experiment
from odchain.scenario import packaged_scenario_path, scenario_from_mapping

_WORKLOADS = pathlib.Path(__file__).parents[1] / "odbench" / "workloads.py"


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("ladder_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


def _corridor_mapping(n_pairs: int) -> dict:
    return _workloads().corridor_mapping(n_pairs)


def _toy(*, interval_minutes: int = 15, perturbation: dict | None = None,
         work_home_total: float | None = None, extra_root_total: float | None = None) -> dict:
    with open(packaged_scenario_path("toy"), encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    doc["time_grid"].update(interval_minutes=interval_minutes,
                            n_intervals=24 * 60 // interval_minutes)
    if perturbation is not None:
        doc["perturbation"] = perturbation
    if work_home_total is not None:
        (leg,) = [leg for leg in doc["legs"] if leg["name"] == "work_home"]
        leg["total"] = work_home_total
    if extra_root_total is not None:
        (leisure,) = [leg for leg in doc["legs"] if leg["name"] == "hw_leisure"]
        doc["legs"].append(dict(leisure, name="hw_extra", total=extra_root_total))
    return doc


def _grid(draw: int, n: int = 3) -> dict:
    """A meshed network: home zone h_i hangs off row i of the west column of
    an n × n node grid, work zone w_j off row j of its east column.

    Route h_i → w_j runs east along row i to the middle column, along it to
    row j, then east; the evening route w_j → h_i is its reverse, so routes
    overlap on the middle column.  Detectors sit on both directions of the
    middle-to-east links: they see destination totals only.  The OD weights
    are ``exp(−0.5·|i − j|)·(1 + 0.3·((7i + 3j) mod 5)/4)``; the legs, their
    schedules and the noise are the corridor's, at N = n.  The history errs
    per OD by up to ±30 % with no common scale, drawn with seed ``draw``.
    """
    doc = _corridor_mapping(n)
    mid = n // 2
    zones = [{"id": f"h{i}", "kind": "residential"} for i in range(n)]
    zones += [{"id": f"w{j}", "kind": "work"} for j in range(n)]
    links = []
    for r in range(n):
        links.append({"label": f"H{r}", "from": f"h{r}", "to": f"g{r}_0",
                      "free_flow_time": 3.0, "capacity": 6000})
        links.append({"label": f"W{r}", "from": f"g{r}_{n - 1}", "to": f"w{r}",
                      "free_flow_time": 3.0, "capacity": 6000})
        for c in range(n - 1):
            links.append({"label": f"E{r}_{c}", "from": f"g{r}_{c}", "to": f"g{r}_{c + 1}",
                          "free_flow_time": 4.0, "capacity": 3600})
    for r in range(n - 1):
        links.append({"label": f"V{r}", "from": f"g{r}_{mid}", "to": f"g{r + 1}_{mid}",
                      "free_flow_time": 4.0, "capacity": 3600})

    paths, morning, evening = {}, {}, {}
    for i in range(n):
        for j in range(n):
            west = [f"E{i}_{c}a" for c in range(mid)]
            down = ([f"V{r}a" for r in range(i, j)] if j >= i
                    else [f"V{r}b" for r in range(i - 1, j - 1, -1)])
            east = [f"E{j}_{c}a" for c in range(mid, n - 1)]
            route = [f"H{i}a", *west, *down, *east, f"W{j}a"]
            flip = {"a": "b", "b": "a"}
            paths[f"h{i}-w{j}"] = route
            paths[f"w{j}-h{i}"] = [link[:-1] + flip[link[-1]] for link in reversed(route)]
            weight = math.exp(-0.5 * abs(i - j)) * (1 + 0.3 * ((7 * i + 3 * j) % 5) / 4)
            morning[f"h{i}-w{j}"] = weight
            evening[f"w{j}-h{i}"] = weight
    total = sum(morning.values())
    doc["name"] = f"grid-{n}-draw-{draw}"
    doc["network"] = {"zones": zones, "links": links, "paths": paths,
                      "detectors": [f"E{r}_{c}{d}" for r in range(n) for c in range(mid, n - 1)
                                    for d in "ab"]}
    for leg in doc["legs"]:
        split = morning if leg["name"].startswith("am") else evening
        leg["od_split"] = {od: w / total for od, w in split.items()}
    doc["perturbation"] = {"mode": "scale_plus_noise", "scale": 0.0, "noise": 0.30, "seed": draw}
    return doc


def _with_cutoff(build, cutoff: str) -> dict:
    doc = build()
    doc["estimation"] = dict(doc["estimation"], cutoff=cutoff)
    return doc


TOY_SEEDS = (1, 2, 3, 4, 5)

#: rung -> (function returning its scenario mapping, experiment seeds)
RUNGS = {
    "toy-15": (_toy, TOY_SEEDS),
    "toy-15-noisy": (
        functools.partial(_toy, perturbation={
            "mode": "scale_plus_noise", "scale": 0.30, "noise": 0.30}),
        TOY_SEEDS),
    "toy-15-exact": (functools.partial(_toy, perturbation={"mode": "none"}), TOY_SEEDS),
    "toy-5": (functools.partial(_toy, interval_minutes=5), (1, 2, 3)),
    "toy-3": (functools.partial(_toy, interval_minutes=3), (1, 2)),
    "corridor-6": (functools.partial(_corridor_mapping, 6), (1, 2, 3)),
    "corridor-12": (functools.partial(_corridor_mapping, 12), (1, 2)),
    "broken-tour-0.9": (functools.partial(_toy, work_home_total=18000), TOY_SEEDS),
    "broken-tour-0.8": (functools.partial(_toy, work_home_total=16000), TOY_SEEDS),
    "toy-15-three-roots": (functools.partial(_toy, extra_root_total=3700), TOY_SEEDS),
    "grid-draw-7": (functools.partial(_grid, 7), (1, 2, 3)),
    "grid-draw-8": (functools.partial(_grid, 8), (1, 2, 3)),
}
RUNGS.update({
    f"{rung}@{cutoff.replace(':', '')}": (functools.partial(_with_cutoff, RUNGS[rung][0], cutoff),
                                          RUNGS[rung][1])
    for rung in ("toy-15", "toy-15-noisy", "corridor-6")
    for cutoff in ("08:00", "10:00", "14:00", "17:00", "18:00")
})


@functools.cache
def rung_means(rung: str) -> dict[str, float]:
    """Means over the rung's seeds: ``"<model>"`` of each model's full-day
    OD RMSE, ``"<model>_pred"`` of its OD RMSE after the cutoff."""
    build, seeds = RUNGS[rung]
    cfg = scenario_from_mapping(build())
    runs: dict[str, list[float]] = {}
    for seed in seeds:
        report = run_experiment(cfg, seed=seed)
        for row in report.rows:
            assert row.status == "ok", f"{rung}, seed {seed}: {row.model} {row.error}"
            runs.setdefault(row.model, []).append(row.rmse_od)
            runs.setdefault(f"{row.model}_pred", []).append(
                row.extras["rmse_od_prediction_window"])
    return {key: statistics.fmean(values) for key, values in runs.items()}
