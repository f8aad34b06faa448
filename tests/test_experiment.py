import copy
import dataclasses
import json
import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import odchain.experiment
import odchain.legfilter
from odchain.assignment import DynamicDemand, load_network
from odchain.errors import ConfigurationError
from odchain.experiment import (
    emit_report,
    generate_truth_and_history,
    rmse,
    run_experiment,
)
from odchain.scenario import scenario_from_mapping

GOLDEN = pathlib.Path(__file__).parent / "golden"


def with_refresh(cfg):
    return dataclasses.replace(
        cfg, estimation=dataclasses.replace(cfg.estimation, refresh_assignment=True)
    )


class TestRmse:
    def test_three_four_five(self):
        # sqrt((9 + 16) / 2)
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == \
            pytest.approx(3.5355339059327378, abs=1e-12)

    def test_zero_for_identical(self):
        a = np.arange(6.0).reshape(2, 3)
        assert rmse(a, a.copy()) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(2), np.zeros(3))

    def test_empty(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(0), np.zeros(0))

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
        st.floats(min_value=-10, max_value=10),
    )
    def test_absolute_homogeneity(self, xs, ys, c):
        a, b = np.array(xs), np.array(ys)
        assert rmse(c * a, c * b) == pytest.approx(abs(c) * rmse(a, b), abs=1e-9)


class TestGeneration:
    def test_historical_leg_totals_scaled(self, toy_cfg, toy_artifacts):
        scale = 1.0 + toy_cfg.perturbation.scale
        for name, leg in toy_artifacts.truth.legs.items():
            hist = toy_artifacts.history.legs[name]
            assert hist.total == pytest.approx(scale * leg.total, rel=1e-12)

    def test_profiles_feel_their_own_congestion(self, toy_artifacts):
        """The heavier historical day shifts its departure profiles away from
        the true day's, so the two sides must not be exactly proportional."""
        true_p = toy_artifacts.truth.legs["hw_direct"].profile
        hist_p = toy_artifacts.history.legs["hw_direct"].profile
        assert np.abs(true_p - hist_p).max() > 1e-4

    def test_observed_counts_nonnegative(self, toy_artifacts):
        assert (toy_artifacts.observed.counts >= 0.0).all()

    def test_observed_only_differs_by_noise(self, toy_cfg, toy_artifacts):
        gap = toy_artifacts.observed.counts - toy_artifacts.truth.load.counts.counts
        positive = toy_artifacts.truth.load.counts.counts
        sigma = toy_cfg.measurement_noise_fraction * positive[positive > 0].mean()
        assert 0.0 < np.abs(gap).max() < 10.0 * sigma

    def test_uniform_scale_needs_no_rng(self, toy_cfg, toy_artifacts):
        for factors in toy_artifacts.perturbation_factors.values():
            assert np.allclose(factors, 1.0 + toy_cfg.perturbation.scale)

    def test_invalid_scenario_rejected(self, toy_doc):
        toy_doc["models"] = ["seed", "warp"]
        with pytest.raises(ConfigurationError):
            generate_truth_and_history(scenario_from_mapping(toy_doc))


class TestRunExperiment:
    def test_model_order_and_status(self, toy_report):
        assert [r.model for r in toy_report.rows] == ["seed", "kf", "pkf", "spkf"]
        assert all(r.status == "ok" for r in toy_report.rows)

    def test_seed_row_reproduces_history(self, toy_report):
        assert np.array_equal(toy_report.estimates["seed"], toy_report.historical)

    def test_predictions_never_load_the_network(self, toy_report):
        for model in ("kf", "pkf", "spkf"):
            assert toy_report.row(model).extras["prediction_load_calls"] == 0

    def test_subset_of_models(self, toy_cfg):
        report = run_experiment(toy_cfg, models=("seed", "kf"))
        assert [r.model for r in report.rows] == ["seed", "kf"]
        assert report.row("kf").impr_od_pct is not None

    def test_unknown_model_rejected(self, toy_cfg):
        with pytest.raises(ConfigurationError):
            run_experiment(toy_cfg, models=("seed", "telepathy"))

    def test_no_models_rejected(self, toy_cfg):
        with pytest.raises(ConfigurationError):
            run_experiment(toy_cfg, models=())

    def test_identical_seeds_identical_estimates(self, toy_cfg):
        a = run_experiment(toy_cfg, models=("seed", "kf", "pkf"), seed=404)
        b = run_experiment(toy_cfg, models=("seed", "kf", "pkf"), seed=404)
        for model in a.estimates:
            assert np.array_equal(a.estimates[model], b.estimates[model])

    def test_different_seeds_differ(self, toy_cfg):
        a = run_experiment(toy_cfg, models=("seed", "kf"), seed=1)
        b = run_experiment(toy_cfg, models=("seed", "kf"), seed=2)
        assert np.array_equal(a.estimates["seed"], b.estimates["seed"])  # no noise there
        assert not np.array_equal(a.estimates["kf"], b.estimates["kf"])

    def test_zero_perturbation_zero_noise_has_nothing_to_correct(self, toy_doc):
        toy_doc["perturbation"] = {"mode": "none"}
        toy_doc["measurement_noise_fraction"] = 0.0
        cfg = scenario_from_mapping(toy_doc)
        report = run_experiment(cfg, models=("seed", "kf"))
        assert report.row("seed").rmse_od == 0.0
        assert report.row("seed").impr_od_pct is None
        assert report.row("kf").rmse_od <= 1e-9

    def test_scale_plus_noise_mode(self, toy_doc):
        toy_doc["perturbation"] = {"mode": "scale_plus_noise", "scale": 0.3, "noise": 0.1}
        cfg = scenario_from_mapping(toy_doc)
        art = generate_truth_and_history(cfg)
        factors = np.concatenate([
            f[art.history.legs[n].member_indices()]
            for n, f in art.perturbation_factors.items()
        ])
        assert factors.min() >= 1.3 * 0.9 - 1e-9
        assert factors.max() <= 1.3 * 1.1 + 1e-9
        assert factors.std() > 0.0

    def test_failing_model_is_flagged_not_fatal(self, toy_cfg, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(odchain.legfilter, "predict_horizon", boom)
        monkeypatch.setattr("odchain.experiment.predict_horizon", boom)
        report = run_experiment(toy_cfg, models=("seed", "kf"))
        assert report.row("seed").status == "ok"
        assert report.row("kf").status == "failed"
        assert "synthetic failure" in report.row("kf").error

    def test_runtime_covers_estimation(self, toy_cfg, monkeypatch):
        """kf's runtime_s holds the filtering pass, not just the scoring."""
        filtering = []
        real = odchain.experiment.run_kf_sequence

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                filtering.append(time.perf_counter() - t)

        monkeypatch.setattr(odchain.experiment, "run_kf_sequence", timed)
        cfg = with_refresh(toy_cfg)
        report = run_experiment(cfg, models=("seed", "kf"))
        est = report.estimates["kf"]
        t = time.perf_counter()  # scoring redone: one load and the RMSEs
        load_network(cfg.network, DynamicDemand(od_index=report.od_index, grid=cfg.grid, matrix=est))
        rmse(est, report.truth)
        scoring_s = time.perf_counter() - t
        row = report.row("kf")
        assert len(filtering) == 1
        assert row.runtime_s >= filtering[0]
        assert row.runtime_s > scoring_s


class TestEmission:
    def test_report_files(self, tmp_path, toy_report):
        emit_report(toy_report, tmp_path)
        text = (tmp_path / "report.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "model,rmse_od,rmse_link,impr_od_pct,impr_link_pct"
        assert len(lines) == 5
        seed_line = lines[1].split(",")
        assert seed_line[0] == "seed"
        assert seed_line[3] == "n/a" and seed_line[4] == "n/a"
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["scenario"] == "toy"
        assert {r["model"] for r in doc["rows"]} == {"seed", "kf", "pkf", "spkf"}
        assert (tmp_path / "kf_diagnostics.csv").exists()
        assert (tmp_path / "leg_diagnostics.csv").exists()

    def test_profiles_emitted_per_od(self, tmp_path, toy_report):
        emit_report(toy_report, tmp_path)
        profile_dir = tmp_path / "profiles"
        files = sorted(p.name for p in profile_dir.iterdir())
        assert len(files) == 12
        assert "1-3.csv" in files
        header = (profile_dir / "1-3.csv").read_text().splitlines()[0]
        assert header == "interval,true,historical,kf,pkf,spkf"

    def test_profiles_can_be_skipped(self, tmp_path, toy_report):
        emit_report(toy_report, tmp_path, include_profiles=False)
        assert not (tmp_path / "profiles").exists()

    def test_emitted_csv_is_deterministic(self, tmp_path, toy_cfg):
        a = run_experiment(toy_cfg)
        b = run_experiment(toy_cfg)
        emit_report(a, tmp_path / "a")
        emit_report(b, tmp_path / "b")
        assert (tmp_path / "a" / "report.csv").read_bytes() == \
            (tmp_path / "b" / "report.csv").read_bytes()


class TestGoldenReport:
    """report.csv of the toy preset, pinned at its printed precision."""

    def test_toy(self, tmp_path, toy_report):
        emit_report(toy_report, tmp_path, include_profiles=False)
        assert (tmp_path / "report.csv").read_text() == \
            (GOLDEN / "toy_report.csv").read_text()

    def test_toy_with_refresh(self, tmp_path, toy_cfg):
        emit_report(run_experiment(with_refresh(toy_cfg)), tmp_path, include_profiles=False)
        assert (tmp_path / "report.csv").read_text() == \
            (GOLDEN / "toy_refresh_report.csv").read_text()
