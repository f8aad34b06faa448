"""Experiment harness: a run generates a day, estimates it and scores it.

``run_experiment`` is three units in order.  ``generation`` generates the
true day, the perturbed historical day, the observed counts and the frozen
linearization (``generate_truth_and_history``).  The run keeps of the true
day what scoring and the report read, and hands ``estimation.estimate`` an
``EstimationInputs`` record of the rest: the history, its link times
released (``replace(load, link_tt=None)``), its demand matrix, expanded
once, the observed counts and the band, with no field for the truth.
Scoring, here, compares every model's estimate with the truth: OD RMSE
spans all (OD, interval) cells, and link RMSE compares each model's loaded
counts against the noise-free true counts.  ``emit_report`` writes the
report.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import secrets
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .assignment import DynamicDemand, detector_counts
from .errors import ConfigurationError
from .estimation import EstimationInputs, LegDiagnostics, ModelRow, stage, standing
# bound as ``_estimate``, the name ``odbench/tracing.py`` wraps
from .estimation import estimate as _estimate
from .generation import generate_truth_and_history
from .kalman import KfStepDiagnostics
from .network import OD, TimeGrid, od_label
from .scenario import MODELS, ScenarioConfig


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


@dataclass
class ExperimentReport:
    """What ``run_experiment`` returns and ``emit_report`` writes.

    ``leg_diagnostics`` has one record per leg and chain model, pkf's then
    spkf's, each in topological order (none when no leg is chained).  Rows,
    records and ``diagnostics`` hold plain Python values for ``report.json``."""

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
    leg_diagnostics: list[LegDiagnostics]
    diagnostics: dict
    runtime_s: float = 0.0

    def row(self, model: str) -> ModelRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(model)


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

    # Of the generated day, scoring and the report read these alone.  The
    # rest of the truth is freed with the artifacts before estimation, which
    # reads none of it, and so are the history's link times, whose last
    # reader built the band: estimation gets the history, its link times
    # released, its matrix, the observed counts and the band, which it frees
    # before the filter.  Each day's matrix is expanded once, here:
    # estimation, scoring and the report share the history's.
    truth_matrix = artifacts.truth.demand.matrix
    hist_matrix = artifacts.history.demand.matrix
    truth_counts = artifacts.truth.load.counts.counts
    spillover_true = artifacts.truth.load.spilled()
    od_index = artifacts.od_index
    hist_counts = artifacts.history.load.counts.counts
    spillover_historical = artifacts.history.load.spilled()
    factors = artifacts.perturbation_factors
    inputs = EstimationInputs(
        history=replace(artifacts.history, load=replace(artifacts.history.load, link_tt=None)),
        historical=hist_matrix, observed=artifacts.observed, assignment=artifacts.assignment)
    del artifacts

    t1 = time.perf_counter()
    rows = {model: ModelRow(model=model) for model in wanted}
    estimates, kf_diag, leg_diag, notes = _estimate(cfg, inputs, rows)
    # the history's legs are freed before the scoring passes
    del inputs

    # the seed baseline anchors the improvement columns even when not requested
    seed_rmse_od = rmse(hist_matrix, truth_matrix)
    seed_rmse_link = rmse(hist_counts, truth_counts)

    for model in standing(rows, rows):
        row = rows[model]
        with stage(rows, (model,), f"scoring {model}"):
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
            **notes,
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


def _atomic_write(path, write) -> None:
    """Open a new file next to ``path``, hand it to ``write`` and rename it
    over ``path``.  The file gets mode ``0o666`` less the umask, as
    ``open(path, "w")`` would give it."""
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_QUOTED = re.compile('[,"\r\n]')


def _csv_field(value) -> str:
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def _csv_line(fields) -> str:
    """One CSV line of ``fields`` (strings or integers, at least one).

    A field holding a comma, a quote or a line break is quoted, its quotes
    doubled, and a lone empty field is quoted so the line does not read back
    as no field at all.  That is the line ``csv.writer(lineterminator="\\n")``
    writes, except that the writer leaves a ``\\r`` unquoted, which a reader
    then takes for a line end.
    """
    return (",".join(map(_csv_field, fields)) or '""') + "\n"


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as a CSV file, atomically, line by line
    (see ``_csv_line``); a leg ``work,home`` stays one field."""
    def write(fh):
        fh.write(_csv_line(header))
        fh.writelines(map(_csv_line, rows))
    _atomic_write(path, write)


def _report_row(row: ModelRow) -> tuple:
    if row.status != "ok":
        return (row.model, "n/a", "n/a", "n/a", "n/a")
    od, link = (None, None) if row.model == "seed" else (row.impr_od_pct, row.impr_link_pct)
    return (row.model, _fmt(row.rmse_od), _fmt(row.rmse_link), _fmt(od, 4), _fmt(link, 4))


def _report_doc(report: ExperimentReport) -> dict:
    # a record's ``vars`` are its fields, in order, and share their values;
    # ``asdict`` would copy every value deeply first
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "models": list(report.models),
        "runtime_s": report.runtime_s,
        "rows": [vars(r) for r in report.rows],
        "kf_diagnostics": [vars(d) for d in report.kf_diagnostics],
        "leg_diagnostics": [vars(d) for d in report.leg_diagnostics],
        "diagnostics": report.diagnostics,
    }


def _write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON, atomically, without the whole text in
    memory: the encoder's chunks are the ones ``json.dumps`` would join, and
    they go out joined 256 at a time.  The text layer would hold each chunk
    handed to it on its own as an object until 8 KB of text are pending."""
    def write(fh):
        chunks = json.JSONEncoder(indent=2).iterencode(doc)
        while batch := "".join(itertools.islice(chunks, 256)):
            fh.write(batch)
        fh.write("\n")
    _atomic_write(path, write)


def emit_report(report: ExperimentReport, out_dir, *, include_profiles: bool = True) -> None:
    """Write report.csv, report.json, diagnostics and per-OD profile CSVs.

    Files land atomically (written next to their target then renamed), so a
    crashed run never leaves half a report.
    """
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "report.csv"),
               ("model", "rmse_od", "rmse_link", "impr_od_pct", "impr_link_pct"),
               map(_report_row, report.rows))
    _write_json(os.path.join(out_dir, "report.json"), _report_doc(report))
    _write_csv(os.path.join(out_dir, "kf_diagnostics.csv"),
               ("interval", "innovation_norm", "gain_norm", "cov_trace"),
               ((d.interval, f"{d.innovation_norm:.6f}", f"{d.gain_norm:.6f}", f"{d.cov_trace:.6f}")
                for d in report.kf_diagnostics))
    _write_csv(os.path.join(out_dir, "leg_diagnostics.csv"),
               [f.name for f in fields(LegDiagnostics)],
               ((d.model, d.leg, f"{d.prior_mean_norm:.6f}", f"{d.posterior_mean_norm:.6f}",
                 f"{d.scale:.9f}", f"{d.conservation_residual:.9f}")
                for d in report.leg_diagnostics))

    if not include_profiles:
        return
    profile_dir = os.path.join(out_dir, "profiles")
    os.makedirs(profile_dir, exist_ok=True)
    model_cols = [m for m in report.models if m != "seed" and report.row(m).status == "ok"]
    for i, od in enumerate(report.od_index):
        # Python floats format as their numpy scalars do, at a fraction of the cost
        columns = [report.truth[i].tolist(), report.historical[i].tolist(),
                   *(report.estimates[m][i].tolist() for m in model_cols)]
        _write_csv(os.path.join(profile_dir, f"{od_label(od)}.csv"),
                   ("interval", "true", "historical", *model_cols),
                   ([h, *(f"{c[h]:.6f}" for c in columns)] for h in range(report.grid.n_intervals)))
