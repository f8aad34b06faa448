"""The accuracy ladder's rungs, for ``test_ladder.py``.

A rung is a scenario and the experiment seeds it is judged over.  The toy
rungs vary the packaged toy: its grid, its historical perturbation, the
truth of one chained leg, whose total then no longer matches its feeders'
(a broken tour), and a third root leg on the direct commute's ODs, so three
leg terms add up on one OD.  The corridor rungs are the benchmark's trunk
corridor at N = 6 and N = 12 home/work pairs.  Every rung runs through
``run_experiment``; its figures are means over its seeds.
"""

import functools
import importlib.util
import pathlib
import statistics
import sys

import yaml

from odchain.experiment import run_experiment
from odchain.scenario import packaged_scenario_path, scenario_from_mapping

_WORKLOADS = pathlib.Path(__file__).parents[1] / "odbench" / "workloads.py"


def _corridor_mapping(n_pairs: int) -> dict:
    spec = importlib.util.spec_from_file_location("ladder_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads.corridor_mapping(n_pairs)


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
}


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
