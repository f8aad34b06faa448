"""Checks of the program's outputs, made apart from the program.

Each function returns a list of problems (empty when the outputs hold up).
They run outside the timed region.  Operation outcomes (which scored rows
count as failed) are decided here too, by a fixed rule:

* a row whose status is not "ok" fails;
* a filter row (kf, pkf, spkf) fails if it improves link RMSE on the seed by
  less than ``MIN_LINK_GAIN_PCT``;
* a pkf row also fails if its OD RMSE is not below kf's.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from odchain import assignment
from odchain.legfilter import ChainFilterConfig

MIN_LINK_GAIN_PCT = 1.0
FILTER_MODELS = ("kf", "pkf", "spkf")


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def row_outcomes(report) -> dict[str, str]:
    """Model -> failure reason, for every failed row of the report."""
    rows = {r.model: r for r in report.rows}
    failed: dict[str, str] = {}
    for model, row in rows.items():
        gain = row.impr_link_pct
        if row.status != "ok":
            failed[model] = f"status {row.status}: {row.error}"
        elif model in FILTER_MODELS and (gain is None or gain < MIN_LINK_GAIN_PCT):
            shown = "n/a" if gain is None else f"{gain:.4f}%"
            failed[model] = f"link RMSE gain {shown} < {MIN_LINK_GAIN_PCT}%"
    pkf, kf = rows.get("pkf"), rows.get("kf")
    if (pkf is not None and kf is not None and "pkf" not in failed
            and kf.status == "ok" and not pkf.rmse_od < kf.rmse_od):
        failed["pkf"] = f"OD RMSE {pkf.rmse_od:.6f} not below kf's {kf.rmse_od:.6f}"
    return failed


def row_key(report) -> tuple:
    """What must repeat exactly when a seed is run again."""
    return tuple(
        (r.model, r.status, r.rmse_od, r.rmse_link, r.impr_od_pct, r.impr_link_pct)
        for r in report.rows
    )


def check_report(report, cutoff: int, out_dir: str) -> list[str]:
    """RMSE, improvements, loader-free prediction and the written report.csv."""
    problems = []
    seed_od = rmse(report.historical, report.truth)
    seed_link = report.diagnostics["seed_rmse_link"]
    if not _close(seed_od, report.diagnostics["seed_rmse_od"], 1e-9):
        problems.append(f"seed OD RMSE {report.diagnostics['seed_rmse_od']} != {seed_od}")
    for row in report.rows:
        if row.status != "ok":
            continue
        est = report.estimates[row.model]
        od = rmse(est, report.truth)
        if not _close(od, row.rmse_od, 1e-9):
            problems.append(f"{row.model}: OD RMSE {row.rmse_od} != recomputed {od}")
        pred = rmse(est[:, cutoff:], report.truth[:, cutoff:])
        if not _close(pred, row.extras["rmse_od_prediction_window"], 1e-9):
            problems.append(f"{row.model}: prediction-window OD RMSE differs from {pred}")
        impr_od = 100.0 * (seed_od - od) / seed_od
        impr_link = 100.0 * (seed_link - row.rmse_link) / seed_link
        if abs(impr_od - row.impr_od_pct) > 1e-7 or abs(impr_link - row.impr_link_pct) > 1e-7:
            problems.append(f"{row.model}: improvement percentages do not recompute")
        if row.model in FILTER_MODELS and row.extras.get("prediction_load_calls") != 0:
            problems.append(f"{row.model}: prediction called the loader "
                            f"{row.extras.get('prediction_load_calls')} times")
    with open(os.path.join(out_dir, "report.csv"), newline="", encoding="utf-8") as fh:
        written = {line["model"]: line for line in csv.DictReader(fh)}
    for row in report.rows:
        line = written.get(row.model)
        if line is None:
            problems.append(f"report.csv lacks row {row.model}")
        elif row.status == "ok" and (
            abs(float(line["rmse_od"]) - row.rmse_od) > 1e-6
            or abs(float(line["rmse_link"]) - row.rmse_link) > 1e-6
        ):
            problems.append(f"report.csv row {row.model} does not match the report")
    return problems


def check_artifacts(artifacts) -> list[str]:
    """Linearization against the frozen loader, count conservation, profiles."""
    problems = []
    net = artifacts.config.network
    hist = artifacts.history
    frozen = assignment.load_network(net, hist.demand, frozen_link_tt=hist.load.link_tt)
    linear = artifacts.assignment.predict_counts(hist.demand.matrix)
    loaded = frozen.counts.counts
    err = float(np.abs(linear - loaded).max())
    if err > 1e-9 * max(float(np.abs(loaded).max()), 1.0):
        problems.append(f"predict_counts differs from the frozen load by {err:g}")

    for side_name, side in (("truth", artifacts.truth), ("history", hist)):
        problems += _conservation(net, side, side_name)
        for leg in side.legs.values():
            sums = leg.profile[leg.member_indices()].sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-12:
                problems.append(f"{side_name} leg {leg.name}: profile rows sum to "
                                f"{sums.min()!r}..{sums.max()!r}")
    return problems


def _conservation(net, side, side_name: str) -> list[str]:
    """Detector total + its spillover = demand routed over it, less upstream spill.

    Mass that spills past the horizon before reaching the detector never gets
    there, so the deficit must lie between 0 and the spillover of the links
    upstream of the detector on the paths through it.
    """
    problems = []
    demand = side.demand
    load = side.load
    for c, ch in enumerate(load.counts.channels):
        routed = 0.0
        upstream: set[str] = set()
        for i, od in enumerate(demand.od_index):
            seq = net.paths[od].links
            if ch in seq:
                routed += float(demand.matrix[i].sum())
                upstream.update(seq[: seq.index(ch)])
        deficit = routed - float(load.counts.counts[c].sum()) - load.spillover.get(ch, 0.0)
        slack = sum(load.spillover.get(l, 0.0) for l in upstream)
        tol = 1e-9 * max(routed, 1.0)
        if not -tol <= deficit <= slack + tol:
            problems.append(f"{side_name} channel {ch}: counts+spill miss routed demand by "
                            f"{deficit:g} (upstream spill {slack:g})")
    return problems


def check_chain(calls) -> list[str]:
    """spkf: every chained leg's estimated total equals its feeders' total.

    ``calls`` holds (args, kwargs, states) of captured ``run_leg_chain`` calls.
    """
    problems = []
    for args, kwargs, states in calls:
        config: ChainFilterConfig = kwargs["config"]
        if config.mode != "spkf":
            continue
        legs, chain = args[0], args[1]
        for name in chain.topological_order():
            feeders = chain.feeds.get(name, ())
            if not feeders:
                continue
            total = float((legs[name].flows + states[name].state.mean).sum())
            fed = sum(float((legs[f].flows + states[f].state.mean).sum()) for f in feeders)
            if not _close(total, fed, 1e-9):
                problems.append(f"spkf leg {name}: total {total} != feeders' {fed}")
    return problems


def blind_intervals(artifacts, cutoff: int) -> int:
    """Measured intervals whose same-interval piece pieces[h, h] is all zero."""
    pieces = artifacts.assignment.pieces
    return sum(1 for h in range(cutoff) if not pieces[h, h].any())
