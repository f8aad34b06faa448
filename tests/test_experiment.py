import collections
import csv
import dataclasses
import io
import json
import os
import pathlib
import re
import stat
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import odchain.assignment
import odchain.estimation
import odchain.experiment
import odchain.generation
import odchain.kalman
import odchain.legs
from odchain.assignment import DynamicDemand, detector_counts, load_network, probe_travel_times
from odchain.departure import departure_probabilities
from odchain.errors import ConfigurationError, DegenerateProfileError
from odchain.experiment import (
    emit_report,
    generate_truth_and_history,
    rmse,
    run_experiment,
)
from odchain.scenario import load_scenario, packaged_scenario_path, scenario_from_mapping

from ladder import RUNGS

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
            assert hist.flows.sum() == pytest.approx(scale * leg.flows.sum(), rel=1e-12)

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

    def test_degenerate_profile_names_leg_and_od(self, toy_cfg, toy_artifacts):
        """One departure call covers a whole leg; its error still says which
        leg and which OD lost every interval."""
        od_index = toy_cfg.network.od_index
        tt = np.full((len(od_index), toy_cfg.grid.n_intervals), 20.0)
        tt[od_index.index(("4", "5"))] = np.inf
        with pytest.raises(DegenerateProfileError,
                           match="leg 'work_leisure', OD 4-5: all departure intervals"):
            odchain.generation._shares_at(toy_cfg, toy_artifacts.truth.legs, tt)

    def test_one_departure_call_per_leg(self, toy_cfg, monkeypatch):
        """One call per leg and pass: one free-flow pass serves both days,
        so a generation makes 3 calls per leg, not 4."""
        calls = []
        real = odchain.generation.departure_probabilities

        def counted(params, travel_times, grid):
            calls.append(np.shape(travel_times))
            return real(params, travel_times, grid)

        monkeypatch.setattr(odchain.generation, "departure_probabilities", counted)
        generate_truth_and_history(toy_cfg)
        # the shared free-flow pass, then each day's congested pass: one call
        # per leg with a row per member
        sizes = [len(leg.od_split) for leg in toy_cfg.legs]
        assert calls == [(n, toy_cfg.grid.n_intervals) for n in sizes] * 3

    @pytest.mark.parametrize("fixture", ["toy_artifacts", "three_roots_artifacts"],
                             ids=["toy-15", "toy-15-three-roots"])
    def test_congested_legs_are_the_generated_days(self, fixture, request):
        """``_congested_legs`` of a day's legs at their free-flow shares gives
        the shares the generator gave that day, byte for byte: the
        congestion-consistent shares at the day's own flows are the
        generator's own result."""
        artifacts = request.getfixturevalue(fixture)
        cfg = artifacts.config
        tt = odchain.generation._free_flow_tt(cfg.network, cfg.network.od_index, cfg.grid)
        for side in (artifacts.truth, artifacts.history):
            free_flow = odchain.generation._shares_at(cfg, side.legs, tt)
            legs = odchain.generation._congested_legs(cfg, free_flow)
            assert list(legs) == list(side.legs)
            for name, leg in legs.items():
                assert leg.flows.tobytes() == side.legs[name].flows.tobytes()
                assert leg.shares.tobytes() == side.legs[name].shares.tobytes()

    @staticmethod
    def _dense_generation(cfg, flows):
        """Reference: one day's two passes over dense (n_od, n_intervals)
        profiles, zero off each leg's members, summed from Python's 0."""
        od_index = cfg.network.od_index
        pos = {od: i for i, od in enumerate(od_index)}

        def profiles(tt):
            out = {}
            for leg in cfg.legs:
                rows = [pos[od] for od in sorted(leg.od_split)]
                out[leg.name] = np.zeros((len(od_index), cfg.grid.n_intervals))
                out[leg.name][rows] = departure_probabilities(leg.schedule, tt[rows], cfg.grid)
            return out

        def expand(p):
            return sum(flows[name][:, None] * p[name] for name in sorted(flows))

        p = profiles(odchain.generation._free_flow_tt(cfg.network, od_index, cfg.grid))
        first = DynamicDemand(od_index=od_index, grid=cfg.grid, matrix=expand(p))
        p = profiles(probe_travel_times(cfg.network, od_index, load_network(cfg.network, first)))
        return p, expand(p)

    @pytest.mark.parametrize("fixture", ["toy_artifacts", "three_roots_artifacts"],
                             ids=["toy-15", "toy-15-three-roots"])
    def test_member_rows_equal_the_dense_generation(self, fixture, request):
        """Both days' dense views, through the side and through each leg,
        and their demand equal the dense generation's bit for bit, zero off
        every leg's members.  With three root legs on one OD the order of
        their sum shows in the last bits: name order is the reference's."""
        artifacts = request.getfixturevalue(fixture)
        cfg = artifacts.config
        od_index = cfg.network.od_index
        true_flows = {}
        for leg in cfg.legs:
            true_flows[leg.name] = np.zeros(len(od_index))
            for od, share in leg.od_split.items():
                true_flows[leg.name][od_index.index(od)] = leg.total * share
        hist_flows = {name: flows * artifacts.perturbation_factors[name]
                      for name, flows in true_flows.items()}
        for side, flows in ((artifacts.truth, true_flows), (artifacts.history, hist_flows)):
            profiles, demand = self._dense_generation(cfg, flows)
            assert side.demand.matrix.tobytes() == demand.tobytes()
            assert sorted(side.profiles()) == sorted(profiles)
            for name, dense in side.profiles().items():
                leg = side.legs[name]
                off = np.setdiff1d(np.arange(len(od_index)), leg.member_indices())
                assert len(off) > 0 and not dense[off].any()
                assert dense.tobytes() == leg.profile.tobytes() == profiles[name].tobytes()
                assert leg.shares.shape == (len(leg.members), cfg.grid.n_intervals)

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

    def test_seed_estimate_is_the_read_only_history(self, toy_report):
        seed = toy_report.estimates["seed"]
        assert np.shares_memory(seed, toy_report.historical)
        assert not seed.flags.writeable

    def test_predictions_never_load_the_network(self, toy_report):
        for model in ("kf", "pkf", "spkf"):
            assert toy_report.row(model).extras["prediction_load_calls"] == 0

    def test_predictions_never_run_the_kernel(self, toy_cfg, monkeypatch):
        """No propagation pass of any kind, load, linearization or count-only
        load, runs inside ``predict_horizon``: the paper's "no additional
        simulations".  ``load_call_count`` sees only ``load_network``."""
        passes = []
        predicting = []
        predictions = []
        real_propagate = odchain.assignment._propagate
        real_predict = odchain.estimation.predict_horizon

        def propagate(*args, **kwargs):
            passes.append(bool(predicting))
            return real_propagate(*args, **kwargs)

        def predict(*args, **kwargs):
            predictions.append(True)
            predicting.append(True)
            try:
                return real_predict(*args, **kwargs)
            finally:
                predicting.pop()

        monkeypatch.setattr(odchain.assignment, "_propagate", propagate)
        monkeypatch.setattr(odchain.estimation, "predict_horizon", predict)
        report = run_experiment(toy_cfg)
        assert all(row.status == "ok" for row in report.rows)
        assert len(predictions) == 3  # kf, pkf and spkf
        # 4 loads and 1 linearization generate, and 3 count-only loads score:
        # every pass goes through the instrument
        assert len(passes) == 4 + 1 + 3
        assert not any(passes)

    @pytest.mark.parametrize("refresh", [False, True], ids=["frozen", "refresh"])
    def test_estimation_never_builds_the_dense_assignment(self, toy_cfg, monkeypatch, refresh):
        """Every reader of the linearization reads its band of crossed
        (channel, OD) pairs; the dense ``(H, H, C, OD)`` view is never built."""
        def dense_view(self):
            raise AssertionError("the dense assignment view was built")

        monkeypatch.setattr(odchain.assignment.AssignmentMatrix, "pieces", property(dense_view))
        report = run_experiment(with_refresh(toy_cfg) if refresh else toy_cfg)
        assert [(row.model, row.status) for row in report.rows] == [
            (model, "ok") for model in report.models]

    def test_estimation_never_builds_a_dense_leg_profile(self, tmp_path, toy_cfg, monkeypatch):
        """Attribution, assembly and prediction read each leg's member rows
        alone: with ``DemandLeg.profile`` raising, the run still writes the
        golden report and leg diagnostics.  The cumulative mapping reads the
        dense profiles of ``GeneratedSide.profiles`` one leg at a time, so
        those alone are still built, by the property's own code."""
        def dense_view(self):
            raise AssertionError("a dense leg profile was built")

        build = odchain.legs.DemandLeg.profile.fget
        monkeypatch.setattr(odchain.generation._DenseProfiles, "__getitem__",
                            lambda self, name: build(self._legs[name]))
        monkeypatch.setattr(odchain.legs.DemandLeg, "profile", property(dense_view))
        emit_report(run_experiment(toy_cfg), tmp_path, include_profiles=False)
        assert (tmp_path / "report.csv").read_text() == (GOLDEN / "toy_report.csv").read_text()
        assert (tmp_path / "leg_diagnostics.csv").read_text() == \
            (GOLDEN / "toy_leg_diagnostics.csv").read_text()

    def test_uniform_redistribution_end_to_end(self, toy_cfg, toy_report):
        """Flattened redistribution fractions change the leg operators alone:
        kf is the default run's, pkf and spkf are not, and spkf still
        conserves each chained leg's total against its feeders'."""
        cfg = dataclasses.replace(toy_cfg, estimation=dataclasses.replace(
            toy_cfg.estimation, uniform_redistribution=True))
        report = run_experiment(cfg)
        assert [(row.model, row.status) for row in report.rows] == [
            (model, "ok") for model in report.models]
        assert report.estimates["kf"].tobytes() == toy_report.estimates["kf"].tobytes()
        for model in ("pkf", "spkf"):
            assert not np.array_equal(report.estimates[model], toy_report.estimates[model])
        chained = {name for name, feeders in cfg.chain().feeds.items() if feeders}
        residuals = {d.leg: d.conservation_residual for d in report.leg_diagnostics
                     if d.model == "spkf" and d.leg in chained}
        assert set(residuals) == chained
        assert all(r == pytest.approx(0.0, abs=1e-6) for r in residuals.values())

    def test_subset_of_models(self, toy_cfg):
        report = run_experiment(toy_cfg, models=("seed", "kf"))
        assert [r.model for r in report.rows] == ["seed", "kf"]
        assert report.row("kf").impr_od_pct is not None

    def test_negative_seed_rejected(self, toy_cfg):
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, not -1$"):
            run_experiment(toy_cfg, models=("seed", "kf"), seed=-1)

    def test_unknown_model_rejected(self, toy_cfg):
        with pytest.raises(ConfigurationError, match="choose from seed, kf, pkf, spkf"):
            run_experiment(toy_cfg, models=("seed", "telepathy"))

    def test_preferred_arrival_outside_the_day_rejected(self, toy_doc):
        toy_doc["legs"][0]["schedule"]["preferred_arrival"] = "80:00"
        with pytest.raises(ConfigurationError,
                           match=r"^legs\[0\]\.schedule\.preferred_arrival: 4800 minutes"):
            run_experiment(scenario_from_mapping(toy_doc))

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

    def test_chain_inputs_built_once_for_pkf_and_spkf(self, toy_cfg, monkeypatch):
        """pkf and spkf share one attribution, one cumulative mapping and one
        operator per chained leg."""
        calls = collections.Counter()
        for name in ("attribute_interval_deviations", "build_leg_operator", "cumulative_mapping",
                     "root_deviations", "chain_consistent_legs"):
            def counted(*args, _real=getattr(odchain.estimation, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(odchain.estimation, name, counted)
        report = run_experiment(toy_cfg, models=("pkf", "spkf"))
        assert [r.status for r in report.rows] == ["ok", "ok"]
        chain = toy_cfg.chain()
        chained = [n for n in chain.topological_order() if chain.feeds.get(n)]
        assert chained
        assert calls == {"attribute_interval_deviations": 1, "cumulative_mapping": 1,
                         "root_deviations": 1, "chain_consistent_legs": 1,
                         "build_leg_operator": len(chained)}

    def test_spkf_fails_where_a_chained_leg_generates_nothing(self, toy_doc):
        """With ``work_home`` at total 0, its operator drops every arrival of
        ``hw_direct``, so spkf has no arrivals to conserve and fails naming
        the leg; kf and pkf are those of a run without spkf, bit for bit."""
        assert toy_doc["legs"][2]["name"] == "work_home"
        toy_doc["legs"][2]["total"] = 0
        cfg = scenario_from_mapping(toy_doc)
        report = run_experiment(cfg)
        spkf = report.row("spkf")
        assert spkf.status == "failed" and "spkf" not in report.estimates
        assert spkf.error.startswith("ValueError: leg 'work_home': feeding legs total 0.0;")
        alone = run_experiment(cfg, models=("kf", "pkf"))
        for model in ("kf", "pkf"):
            assert report.row(model).status == "ok"
            assert report.estimates[model].tobytes() == alone.estimates[model].tobytes()

    def test_a_chained_leg_whose_feeders_are_empty_fails_the_chain_models(self, toy_doc):
        """With ``hw_direct`` at total 0, ``work_home`` is rebuilt from
        nothing where the history holds 26,000: the scenario is valid, but
        pkf and spkf fail at the leg chain's inputs with a
        ``ChainConsistencyError`` naming the leg and its feeder, and the
        seed and kf rows and estimates are those of a run of them alone."""
        assert toy_doc["legs"][0]["name"] == "hw_direct"
        toy_doc["legs"][0]["total"] = 0
        cfg = scenario_from_mapping(toy_doc)
        assert cfg.validate() == []
        report = run_experiment(cfg)
        for model in ("pkf", "spkf"):
            row = report.row(model)
            assert row.status == "failed" and model not in report.estimates
            assert row.error.startswith(
                "ChainConsistencyError: chained leg 'work_home': its feeders ['hw_direct'] ")
        alone = run_experiment(cfg, models=("seed", "kf"))
        for model, rmse_od in (("seed", 29.916741995874506), ("kf", 2.864177764467847)):
            row = report.row(model)
            assert row.status == "ok"
            assert row.rmse_od == pytest.approx(rmse_od, rel=1e-9, abs=0.0)
            assert (row.rmse_od, row.rmse_link, row.extras) == (
                alone.row(model).rmse_od, alone.row(model).rmse_link, alone.row(model).extras)
            assert report.estimates[model].tobytes() == alone.estimates[model].tobytes()

    def test_a_chained_leg_whose_feeders_miss_an_origin_zone_fails_the_chain_models(
            self, toy_doc):
        """With ``hw_direct`` split over 1-3 and 2-3 alone, no direct
        commuter reaches zone 4, so ``work_home``'s ODs 4-1 and 4-2 would be
        rebuilt as 0 where the history holds 13,000, though the leg's total
        is not 0: pkf and spkf fail at the leg chain's inputs naming those
        ODs, and the seed and kf rows and estimates are those of a run of
        them alone."""
        assert toy_doc["legs"][0]["name"] == "hw_direct"
        toy_doc["legs"][0]["od_split"] = {"1-3": 0.5, "2-3": 0.5}
        cfg = scenario_from_mapping(toy_doc)
        assert cfg.validate() == []
        report = run_experiment(cfg)
        for model in ("pkf", "spkf"):
            row = report.row(model)
            assert row.status == "failed" and model not in report.estimates
            assert row.error.startswith(
                "ChainConsistencyError: chained leg 'work_home': its feeders ['hw_direct'] ")
            assert "['4-1', '4-2']" in row.error
        alone = run_experiment(cfg, models=("seed", "kf"))
        for model, rmse_od in (("seed", 54.25785090094156), ("kf", 26.905076598553485)):
            row = report.row(model)
            assert row.status == "ok"
            assert row.rmse_od == pytest.approx(rmse_od, rel=1e-9, abs=0.0)
            assert (row.rmse_od, row.rmse_link, row.extras) == (
                alone.row(model).rmse_od, alone.row(model).rmse_link, alone.row(model).extras)
            assert report.estimates[model].tobytes() == alone.estimates[model].tobytes()

    def test_each_count_series_is_summed_along_the_day_once(self, toy_cfg, monkeypatch):
        """A run takes the running totals of two count series, once each:
        the observed counts and the history's counts, which the cumulative
        count deviation and the leg chain's measurement noise share."""
        summed = []
        real = odchain.assignment.LinkFlowSeries.cumulative

        def counted(series):
            summed.append(series)
            return real(series)

        monkeypatch.setattr(odchain.assignment.LinkFlowSeries, "cumulative", counted)
        report = run_experiment(toy_cfg)
        assert all(row.status == "ok" for row in report.rows)
        assert len(summed) == 2 and summed[0] is not summed[1]

    @pytest.mark.parametrize("module, stage, failing", [
        pytest.param(module, stage, failing, id=stage) for module, stage, failing in (
            (odchain.estimation, "run_kf_sequence", ("kf", "pkf", "spkf")),
            (odchain.estimation, "predict_horizon", ("kf", "pkf", "spkf")),
            (odchain.estimation, "cumulative_mapping", ("pkf", "spkf")),
            (odchain.estimation, "_leg_noise", ("pkf", "spkf")),
            (odchain.estimation, "run_leg_chain", ("pkf", "spkf")),
            (odchain.experiment, "detector_counts", ("kf", "pkf", "spkf")),
            (odchain.assignment.AssignmentMatrix, "lag_rows", ("kf", "pkf", "spkf")),
            (odchain.estimation, "chain_consistent_legs", ("pkf", "spkf")),
        )
    ])
    def test_failing_stage_fails_only_its_rows(self, toy_cfg, monkeypatch, module, stage,
                                               failing):
        """The filtering pass, each model's prediction, the chain's shared
        inputs, each chain model and scoring each fail the rows that use
        them, with the stage's exception, and no other row."""
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError(f"synthetic {stage} failure")

        monkeypatch.setattr(module, stage, boom)
        report = run_experiment(toy_cfg)
        for row in report.rows:
            if row.model in failing:
                assert (row.status, row.error) == \
                    ("failed", f"LinAlgError: synthetic {stage} failure")
                assert row.model not in report.estimates or stage == "detector_counts"
            else:
                assert (row.status, row.error) == ("ok", "")
            assert row.runtime_s > 0.0
        if stage == "predict_horizon":
            # the leg chain ran before the assembly failed: its rows stay
            order = toy_cfg.chain().topological_order()
            assert [(d.model, d.leg) for d in report.leg_diagnostics] == \
                [(m, n) for m in ("pkf", "spkf") for n in order]

    def test_runtime_covers_estimation(self, toy_cfg, monkeypatch):
        """kf's runtime_s holds the filtering pass, not just the scoring."""
        filtering = []
        real = odchain.estimation.run_kf_sequence

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                filtering.append(time.perf_counter() - t)

        monkeypatch.setattr(odchain.estimation, "run_kf_sequence", timed)
        cfg = toy_cfg
        report = run_experiment(cfg, models=("seed", "kf"))
        est = report.estimates["kf"]
        t = time.perf_counter()  # scoring redone: one count-only load and the RMSEs
        detector_counts(
            cfg.network, DynamicDemand(od_index=report.od_index, grid=cfg.grid, matrix=est))
        rmse(est, report.truth)
        scoring_s = time.perf_counter() - t
        row = report.row("kf")
        assert len(filtering) == 1
        assert row.runtime_s >= filtering[0]
        assert row.runtime_s > scoring_s

    def test_generation_data_is_freed_before_scoring(self, toy_cfg, monkeypatch):
        """Scoring reads no linearization, leg profile or link time: the
        frozen band, both loads and the history's legs are gone when its
        first count-only load runs."""
        real_generate = odchain.experiment.generate_truth_and_history
        real_counts = odchain.experiment.detector_counts
        refs = []
        alive = []

        def generate(cfg):
            artifacts = real_generate(cfg)
            refs.extend(weakref.ref(x) for x in (
                artifacts.assignment, artifacts.truth.load, artifacts.history.load,
                *artifacts.history.legs.values()))
            return artifacts

        def counts(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return real_counts(*args, **kwargs)

        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", generate)
        monkeypatch.setattr(odchain.experiment, "detector_counts", counts)
        report = run_experiment(toy_cfg)
        assert all(row.status == "ok" for row in report.rows)
        assert len(alive) == 3 and len(refs) == 3 + len(toy_cfg.legs)
        assert not any(alive[0])

    def test_truth_is_freed_before_estimation(self, toy_cfg, monkeypatch):
        """Estimation reads nothing of the true day: its load and legs are
        gone when the filter runs, and the object generation returned still
        holds the truth, for callers that keep it."""
        real_generate = odchain.experiment.generate_truth_and_history
        real_filter = odchain.estimation.run_kf_sequence
        refs = []
        alive = []
        kept = []

        def generate(cfg):
            artifacts = real_generate(cfg)
            refs.extend(weakref.ref(x) for x in (
                artifacts.truth.load, *artifacts.truth.legs.values()))
            return artifacts

        def keep(cfg):
            kept.append(real_generate(cfg))
            return kept[-1]

        def filter_(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return real_filter(*args, **kwargs)

        monkeypatch.setattr(odchain.estimation, "run_kf_sequence", filter_)
        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", generate)
        run_experiment(toy_cfg, models=("kf",))
        assert len(alive) == 1 and len(refs) == 1 + len(toy_cfg.legs)
        assert not any(alive[0])

        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", keep)
        report = run_experiment(toy_cfg, models=("kf",))
        (artifacts,) = kept
        assert artifacts.truth is not None
        assert np.array_equal(artifacts.truth.demand.matrix, report.truth)

    def test_truth_releases_its_link_times(self, toy_cfg, monkeypatch):
        """Nothing reads the true day's link times: the arrays of its final
        load are gone once generation returns, while the load keeps its
        counts and spillover and has no probe times.  The history's final
        load keeps its link times."""
        real = odchain.generation.load_network
        loads = []

        def load(net, demand, **kwargs):
            result = real(net, demand, **kwargs)
            loads.append(([weakref.ref(tt) for tt in result.link_tt.values()],
                          result.counts, result.spillover))
            return result

        monkeypatch.setattr(odchain.generation, "load_network", load)
        art = generate_truth_and_history(toy_cfg)
        assert len(loads) == 4  # each day's free-flow pass, then its final load
        (truth_tt, truth_counts, truth_spill), (hist_tt, _, _) = loads[2:]
        assert truth_tt and not any(ref() is not None for ref in truth_tt)
        assert art.truth.load.link_tt is None
        assert art.truth.load.counts is truth_counts and art.truth.load.spillover is truth_spill
        with pytest.raises(ValueError, match="released"):
            probe_travel_times(toy_cfg.network, toy_cfg.network.od_index, art.truth.load)
        assert all(ref() is not None for ref in hist_tt)

    def test_history_link_times_are_freed_before_estimation(self, toy_cfg, monkeypatch):
        """The band is the last reader of the history's link times: their
        arrays are gone when the filter runs, and the object generation
        returned still holds them, for callers that keep it."""
        real_generate = odchain.experiment.generate_truth_and_history
        real_filter = odchain.estimation.run_kf_sequence
        refs = []
        alive = []
        kept = []

        def generate(cfg):
            artifacts = real_generate(cfg)
            refs.extend(weakref.ref(tt) for tt in artifacts.history.load.link_tt.values())
            return artifacts

        def keep(cfg):
            kept.append(real_generate(cfg))
            return kept[-1]

        def filter_(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return real_filter(*args, **kwargs)

        monkeypatch.setattr(odchain.estimation, "run_kf_sequence", filter_)
        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", generate)
        run_experiment(toy_cfg, models=("kf",))
        plan = odchain.assignment._route_plan(toy_cfg.network, toy_cfg.network.od_index, cut=False)
        assert len(alive) == 1 and len(refs) == len(plan.order)
        assert not any(alive[0])

        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", keep)
        run_experiment(toy_cfg, models=("kf",))
        (artifacts,) = kept
        assert artifacts.history.load.link_tt.keys() == set(plan.order)
        net = toy_cfg.network
        tt_od = probe_travel_times(net, net.od_index, artifacts.history.load)
        assert tt_od.shape == (len(plan.routes), toy_cfg.grid.n_intervals)

    def test_each_day_is_expanded_once_for_its_load_and_once_after(self, toy_cfg, monkeypatch):
        """A day keeps no matrix: generation expands each day's legs once,
        for the day's load, and ``run_experiment`` reads each day's matrix
        once, for estimation, scoring and the report.  The other two
        expansions are the days' free-flow passes."""
        real_generate = odchain.experiment.generate_truth_and_history
        real_expand = odchain.generation._expand
        expanded = []
        kept = []

        def expand(grid, legs):
            expanded.append(legs)
            return real_expand(grid, legs)

        def generate(cfg):
            kept.append(real_generate(cfg))
            expanded.append("returned")
            return kept[-1]

        monkeypatch.setattr(odchain.generation, "_expand", expand)
        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", generate)
        report = run_experiment(toy_cfg)
        assert all(row.status == "ok" for row in report.rows)
        (artifacts,) = kept
        returned = expanded.index("returned")
        for side in (artifacts.truth, artifacts.history):
            calls = [i for i, legs in enumerate(expanded) if legs is side.legs]
            assert len(calls) == 2 and calls[0] < returned < calls[1]
        assert len(expanded) == 1 + 6
        assert np.shares_memory(report.estimates["seed"], report.historical)

    def test_band_is_freed_before_the_leg_chains(self, toy_cfg, monkeypatch):
        """The cumulative mapping is the band's last reader: the band is gone
        when the leg chains and the assembly run, and so are the leg chain's
        inputs when the assembly runs.  The object generation returned
        keeps its linearization."""
        real_generate = odchain.experiment.generate_truth_and_history
        real_mapping = odchain.estimation.cumulative_mapping
        real_chain = odchain.estimation.run_leg_chain
        real_predict = odchain.estimation.predict_horizon
        refs = {}
        alive = collections.defaultdict(list)
        kept = []

        def generate(cfg):
            artifacts = real_generate(cfg)
            refs["band"] = weakref.ref(artifacts.assignment.band.base)
            return artifacts

        def keep(cfg):
            kept.append(real_generate(cfg))
            return kept[-1]

        def mapping(*args, **kwargs):
            result = real_mapping(*args, **kwargs)
            refs["mapping"] = weakref.ref(result)
            return result

        def chain(*args, **kwargs):
            alive["chain"].append(refs["band"]() is not None)
            return real_chain(*args, **kwargs)

        def predict(*args, **kwargs):
            alive["predict"].append([ref() is not None for ref in refs.values()])
            return real_predict(*args, **kwargs)

        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", generate)
        for name, fn in (("cumulative_mapping", mapping), ("run_leg_chain", chain),
                         ("predict_horizon", predict)):
            monkeypatch.setattr(odchain.estimation, name, fn)
        report = run_experiment(toy_cfg)
        assert all(row.status == "ok" for row in report.rows)
        assert alive["chain"] == [False, False]
        assert alive["predict"] == [[False, False]] * 3

        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", keep)
        again = run_experiment(toy_cfg)
        (artifacts,) = kept
        assert artifacts.assignment is not None and artifacts.assignment.band.any()
        for model in report.estimates:
            assert np.array_equal(again.estimates[model], report.estimates[model])

    def test_mapping_runs_first_and_frees_the_band(self, toy_cfg, monkeypatch):
        """The cumulative mapping, the band's last reader, is built first,
        with the band alive; the band is gone when the filter starts and when
        the operators and the leg chain's noise are built, and the filter
        built none of that noise."""
        real_generate = odchain.experiment.generate_truth_and_history
        refs = {}
        calls = []

        def generate(cfg):
            artifacts = real_generate(cfg)
            refs["band"] = weakref.ref(artifacts.assignment.band.base)
            return artifacts

        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", generate)
        for name in ("run_kf_sequence", "cumulative_mapping", "build_leg_operator", "_leg_noise"):
            def logged(*args, _real=getattr(odchain.estimation, name), _name=name, **kwargs):
                calls.append((_name, refs["band"]() is not None))
                return _real(*args, **kwargs)

            monkeypatch.setattr(odchain.estimation, name, logged)
        report = run_experiment(toy_cfg)
        assert all(row.status == "ok" for row in report.rows)
        chain = toy_cfg.chain()
        chained = [n for n in chain.topological_order() if chain.feeds.get(n)]
        assert calls == [("cumulative_mapping", True), ("run_kf_sequence", False),
                         *[("build_leg_operator", False)] * len(chained), ("_leg_noise", False)]

    def test_no_chained_leg_reduces_chain_models_to_kf(self, toy_doc, monkeypatch):
        """With every ``feeds`` empty no leg is chained: pkf and spkf equal
        kf, no leg is attributed and there are no leg diagnostics."""
        for leg in toy_doc["legs"]:
            leg["feeds"] = []
        cfg = scenario_from_mapping(toy_doc)
        assert cfg.validate() == []

        def attribute(*args, **kwargs):
            raise AssertionError("attribute_interval_deviations called")

        monkeypatch.setattr(odchain.estimation, "attribute_interval_deviations", attribute)
        report = run_experiment(cfg)
        assert [(r.model, r.status) for r in report.rows] == \
            [("seed", "ok"), ("kf", "ok"), ("pkf", "ok"), ("spkf", "ok")]
        for model in ("pkf", "spkf"):
            assert np.array_equal(report.estimates[model], report.estimates["kf"])
        assert report.leg_diagnostics == []
        assert report.diagnostics["attributed_totals"] == {}
        assert report.diagnostics["leg_retention"] == {}

    def test_noise_models_build_what_the_leg_chain_reads(self, toy_cfg, toy_artifacts):
        """A prior covariance for each root leg, a process noise for each
        chained leg, and nothing else."""
        history = toy_artifacts.history
        chain = toy_cfg.chain()
        leg_Q, root_P0, _ = odchain.estimation._leg_noise(
            toy_cfg, chain, history, history.demand.matrix,
            history.load.counts.cumulative()[:, toy_cfg.cutoff_index - 1])
        assert set(root_P0) == set(chain.roots())
        assert set(leg_Q) == {n for n in chain.topological_order() if chain.feeds.get(n)}
        assert set(root_P0).isdisjoint(leg_Q)


class TestEstimate:
    """``estimation.estimate`` is a unit of its own: it reads what a run
    hands it of a generated day, which holds no part of the true day."""

    @pytest.mark.parametrize("rung", ["toy-15", "corridor-6"])
    def test_estimate_is_the_runs_estimation(self, rung):
        """Built from a generated day with no truth object reachable, it
        returns the run's estimates, kf and leg diagnostics and notes, and
        the run's rows as estimation fills them, bit for bit; it clears the
        band from its inputs."""
        build, _ = RUNGS[rung]
        cfg = scenario_from_mapping(build())
        report = run_experiment(cfg)
        artifacts = generate_truth_and_history(cfg)
        inputs = odchain.estimation.EstimationInputs(
            history=artifacts.history, historical=artifacts.history.demand.matrix,
            observed=artifacts.observed, assignment=artifacts.assignment)
        truth = weakref.ref(artifacts.truth)
        del artifacts
        assert truth() is None  # the inputs hold nothing of the true day
        rows = {model: odchain.estimation.ModelRow(model) for model in report.models}
        estimates, kf_diag, leg_diag, notes = odchain.estimation.estimate(cfg, inputs, rows)
        assert inputs.assignment is None
        assert estimates.keys() == report.estimates.keys()
        for model, est in estimates.items():
            assert est.tobytes() == report.estimates[model].tobytes(), model
        assert estimates["seed"].tobytes() == report.historical.tobytes()
        assert kf_diag == report.kf_diagnostics
        assert leg_diag == report.leg_diagnostics
        assert notes == {key: report.diagnostics[key] for key in notes}
        for model, row in rows.items():
            run = report.row(model)
            assert (row.status, row.error) == (run.status, run.error) == ("ok", "")
            assert row.extras == {key: run.extras[key] for key in row.extras}


class TestRelativeFilter:
    """The interval filter's state is the relative deviation r, measured
    through one lag-summed matrix per interval; every model is assembled from
    ``hist ⊙ (1 + r)`` and, for pkf and spkf, the chained legs' estimates."""

    @pytest.mark.parametrize("h", [0, 1, 17, 47])
    def test_provider_sums_every_lag_weighted_by_the_history(self, toy_cfg, toy_artifacts,
                                                             monkeypatch, h):
        """The filter's provider's matrix at h is, bit for bit, the dense
        pieces counted at h, each scaled by the history of the interval it
        reads, added from lag 0."""
        hist = toy_artifacts.history.demand.matrix
        asg = toy_artifacts.assignment
        pieces = asg.pieces
        expected = pieces[h, h] * hist[:, h]
        for lag in range(1, min(asg.band.shape[1], h + 1)):
            expected += pieces[h - lag, h] * hist[:, h - lag]
        provided = []
        real = odchain.estimation.run_kf_sequence

        def recording(H_at, *args, **kwargs):
            provided.append(H_at(h))
            return real(H_at, *args, **kwargs)

        monkeypatch.setattr(odchain.estimation, "run_kf_sequence", recording)
        run_experiment(toy_cfg, models=("kf",))
        (got,) = provided
        assert np.array_equal(got, expected)

    def test_the_lag_sum_sees_what_the_same_interval_row_misses(self, toy_cfg):
        """On a 3-minute grid the detector lies an interval or more
        downstream, so the same-interval pieces are zero; the lag-summed
        matrices are zero only before any departure can reach it."""
        cfg = dataclasses.replace(toy_cfg, grid=dataclasses.replace(
            toy_cfg.grid, interval_minutes=3, n_intervals=480))
        art = generate_truth_and_history(cfg)
        hist = art.history.demand.matrix
        asg = art.assignment
        same = [asg.band[h, 0].any() for h in range(cfg.cutoff_index)]
        summed = [row.any() for row in asg.lag_rows(cfg.cutoff_index, hist)]
        assert not any(same)
        assert summed == [False] * 3 + [True] * (cfg.cutoff_index - 3)

    def test_noise_models_are_relative(self, toy_cfg, toy_artifacts):
        """``noise.prior`` is the prior's common-mode std beside a per-OD
        0.1; the random walk is 0.03 common and 0.01 per OD; the
        measurement noise is ``noise.measurement`` of the mean count."""
        noise, P0 = odchain.estimation._noise_models(toy_cfg, toy_artifacts.history)
        n = len(toy_artifacts.od_index)
        ones, eye = np.ones((n, n)), np.eye(n)
        assert np.allclose(P0, toy_cfg.noise.prior ** 2 * ones + 0.1 ** 2 * eye, rtol=1e-15)
        assert np.allclose(noise.Q, 0.03 ** 2 * ones + 0.01 ** 2 * eye, rtol=1e-15)
        counts = toy_artifacts.history.load.counts.counts
        sigma = toy_cfg.noise.measurement * counts[counts > 0].mean()
        assert np.allclose(noise.R, sigma ** 2 * np.eye(len(counts)), rtol=1e-12)

    def test_random_walk_variance_scales_with_the_interval_length(self, toy_cfg, toy_artifacts):
        """The walk's stds are per 15 minutes: a 3-minute interval adds a
        fifth of their variance, so the state drifts as far per hour."""
        cfg = dataclasses.replace(toy_cfg, grid=dataclasses.replace(
            toy_cfg.grid, interval_minutes=3, n_intervals=480))
        fine = odchain.estimation._noise_models(cfg, toy_artifacts.history)[0]
        coarse = odchain.estimation._noise_models(toy_cfg, toy_artifacts.history)[0]
        assert np.allclose(fine.Q, coarse.Q / 5.0, rtol=1e-15)

    def test_process_noise_sets_nothing(self, toy_cfg, toy_artifacts, toy_report, caplog):
        """``noise.process`` sets none of the filters' noise, and a config
        that sets it in code runs silently, to the default's estimates: the
        scenario reader alone warns of the key."""
        hist = toy_artifacts.history.demand.matrix
        cum_hist = toy_artifacts.history.load.counts.cumulative()[:, toy_cfg.cutoff_index - 1]

        def noise(cfg):
            return (*odchain.estimation._noise_models(cfg, toy_artifacts.history),
                    *odchain.estimation._leg_noise(cfg, cfg.chain(), toy_artifacts.history, hist,
                                                   cum_hist))

        base = noise(toy_cfg)
        cfg = dataclasses.replace(toy_cfg, noise=dataclasses.replace(toy_cfg.noise, process=0.05))
        with caplog.at_level("WARNING", logger="odchain"):
            other = noise(cfg)
            report = run_experiment(cfg)
        assert caplog.records == []
        for got, want in zip((other[0].Q, other[0].R, *other[1:]), (base[0].Q, base[0].R, *base[1:])):
            if isinstance(want, dict):
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[n], want[n]) for n in want)
            else:
                assert np.array_equal(got, want)
        for model, est in toy_report.estimates.items():
            assert report.estimates[model].tobytes() == est.tobytes(), model

    def test_estimates_follow_the_relative_formula(self, toy_cfg, monkeypatch):
        """kf is ``hist ⊙ (1 + r)``, r carried flat past the cutoff; pkf
        replaces the chained legs' historical demand by the leg chain's
        estimates of them, over the dense profiles."""
        runs, chains = [], []
        real_run, real_chain = odchain.estimation.run_kf_sequence, odchain.estimation.run_leg_chain

        def run(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        def leg_chain(legs, *args, **kwargs):
            chains.append((kwargs["config"].mode, legs, real_chain(legs, *args, **kwargs)))
            return chains[-1][2]

        monkeypatch.setattr(odchain.estimation, "run_kf_sequence", run)
        monkeypatch.setattr(odchain.estimation, "run_leg_chain", leg_chain)
        report = run_experiment(toy_cfg)
        (kf,) = runs
        cut = toy_cfg.cutoff_index
        hist = report.historical
        relative = np.hstack([kf.deltas, np.repeat(kf.last.mean[:, None], hist.shape[1] - cut, 1)])
        assert np.allclose(report.estimates["kf"], np.maximum(hist * (1.0 + relative), 0.0),
                           rtol=1e-12, atol=1e-9)
        chain = toy_cfg.chain()
        chained = [n for n in chain.topological_order() if chain.feeds.get(n)]
        art = generate_truth_and_history(toy_cfg)
        for mode, legs, states in chains:
            dense = hist.copy()
            for n in chained:
                dense -= art.history.legs[n].flows[:, None] * legs[n].profile
            dense *= 1.0 + relative
            for n in chained:
                dense += (legs[n].flows + states[n].state.mean)[:, None] * legs[n].profile
            assert np.allclose(report.estimates[mode], np.maximum(dense, 0.0),
                               rtol=1e-12, atol=1e-9)

    def test_unobserved_intervals_counted_and_not_warned(self, toy_cfg, toy_report, caplog):
        """Each step records its measurement matrix's Frobenius norm; the
        report counts the measured intervals where it is 0.  On a 3-minute
        grid those are the first three, whose departures later counts read,
        so no interval is uncounted and the run logs no warning."""
        assert toy_report.diagnostics["unobserved_intervals"] == 0
        assert toy_report.diagnostics["uncounted_intervals"] == 0
        assert all(d.measurement_norm > 0.0 for d in toy_report.kf_diagnostics)
        cfg = dataclasses.replace(toy_cfg, grid=dataclasses.replace(
            toy_cfg.grid, interval_minutes=3, n_intervals=480))
        with caplog.at_level("WARNING", logger="odchain.estimation"):
            report = run_experiment(cfg, models=("kf",))
        assert report.diagnostics["unobserved_intervals"] == 3
        assert report.diagnostics["uncounted_intervals"] == 0
        assert [d.measurement_norm == 0.0 for d in report.kf_diagnostics[:4]] == \
            [True, True, True, False]
        assert caplog.records == []

    def test_uncounted_intervals_warned_once(self, toy_cfg, toy_artifacts, caplog):
        """Departures that no detector counts at any lag, where the history
        has demand, are counted and warned about once."""
        frozen = toy_artifacts.assignment
        band = frozen.band.copy()
        band[5:8] = 0.0
        assert (toy_artifacts.history.demand.matrix[:, 5:8] > 0).any(axis=0).all()
        inputs = odchain.estimation.EstimationInputs(
            history=toy_artifacts.history, historical=toy_artifacts.history.demand.matrix,
            observed=toy_artifacts.observed, assignment=dataclasses.replace(frozen, band=band))
        rows = {"kf": odchain.estimation.ModelRow("kf")}
        with caplog.at_level("WARNING", logger="odchain.estimation"):
            *_, notes = odchain.estimation.estimate(toy_cfg, inputs, rows)
        assert rows["kf"].status == "ok"
        assert notes["uncounted_intervals"] == 3
        (record,) = caplog.records
        assert "3 of %d measured intervals" % toy_cfg.cutoff_index in record.getMessage()

    def test_last_cov_min_eigenvalue_is_the_last_posterior_spectrum(self, toy_cfg, monkeypatch):
        """``kf_last_cov_min_eigenvalue`` is the smallest eigenvalue of the
        last posterior covariance, the one prediction reads, from
        ``eigvalsh``; it is null where no filter model runs."""
        runs = []
        real = odchain.estimation.run_kf_sequence

        def recording(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(odchain.estimation, "run_kf_sequence", recording)
        report = run_experiment(toy_cfg, models=("kf",))
        (run,) = runs
        got = report.diagnostics["kf_last_cov_min_eigenvalue"]
        assert got == np.linalg.eigvalsh(run.last.cov).min() > 0.0
        assert run_experiment(toy_cfg, models=("seed",)).diagnostics[
            "kf_last_cov_min_eigenvalue"] is None


def test_readme_python_example_runs(capsys):
    """README's library example runs as written and prints pkf's OD RMSE."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1
    assert np.isfinite(float(printed[0])) and float(printed[0]) > 0.0


class TestProbeTimes:
    """``probe_travel_times`` walks a load's probes; generation's share pass
    is its one caller."""

    def test_only_the_first_passes_walk_their_probes(self, toy_cfg, monkeypatch):
        """Each day's first pass has its probe times walked for the second
        pass's profiles; nothing walks the second passes' or any later load's."""
        walks = []
        real = odchain.generation.probe_travel_times

        def walk(*args):
            walks.append(True)
            return real(*args)

        monkeypatch.setattr(odchain.generation, "probe_travel_times", walk)
        report = run_experiment(toy_cfg)
        assert all(row.status == "ok" for row in report.rows)
        assert len(walks) == 2


class TestRefresh:
    """The interval filter reads one linearization, frozen at the historical
    load.  ``estimation.refresh_assignment`` changes nothing; the scenario
    reader warns of it."""

    def test_refresh_loads_only_what_the_filter_reads(self, toy_cfg, monkeypatch):
        """4 loads generate the two days; kf, pkf and spkf are scored by
        count-only loads, which are not counted.  History is linearized once,
        in generation, at its own load, also with the key set."""
        linearizations = []
        real = odchain.generation.assignment_matrix

        def counted(net, od_index, load):
            linearizations.append(load)
            return real(net, od_index, load)

        real_generate = odchain.experiment.generate_truth_and_history
        histories = []

        def generate(cfg):
            artifacts = real_generate(cfg)
            histories.append(artifacts.history.load)
            return artifacts

        monkeypatch.setattr(odchain.generation, "assignment_matrix", counted)
        monkeypatch.setattr(odchain.experiment, "generate_truth_and_history", generate)
        before = odchain.assignment.load_call_count()
        run_experiment(with_refresh(toy_cfg))
        assert odchain.assignment.load_call_count() - before == 4
        (load,) = linearizations
        assert histories == [load]

    def test_routing_plans_built_once(self, monkeypatch):
        """The link order and each route plan, whole routes for the loads and
        cut routes for the linearization and the count-only loads, are built
        once per network, however many of the experiment's 8 passes use them."""
        orders, plans = [], collections.Counter()
        real_order, real_plan = odchain.assignment._feeding_order, odchain.assignment._build_plan

        def order(net):
            orders.append(net)
            return real_order(net)

        def plan(net, od_index, cut):
            plans[od_index, cut] += 1
            return real_plan(net, od_index, cut)

        monkeypatch.setattr(odchain.assignment, "_feeding_order", order)
        monkeypatch.setattr(odchain.assignment, "_build_plan", plan)
        cfg = load_scenario(packaged_scenario_path("toy"))  # a fresh network
        run_experiment(cfg)
        assert orders == [cfg.network]
        assert plans == {(cfg.network.od_index, False): 1, (cfg.network.od_index, True): 1}

    def test_the_key_changes_nothing_and_logs_nothing(self, tmp_path, toy_cfg, toy_report,
                                                      caplog):
        """With the key true in code, the run logs no warning (the scenario
        reader alone warns of the key), and the estimates, the rows with
        their extras, the kf and leg diagnostics and the emitted files are
        those of the key false, bit for bit."""
        with caplog.at_level("WARNING", logger="odchain"):
            report = run_experiment(with_refresh(toy_cfg))
        assert caplog.records == []
        assert report.estimates.keys() == toy_report.estimates.keys()
        for model, est in toy_report.estimates.items():
            assert report.estimates[model].tobytes() == est.tobytes(), model
        rows = [(r.model, r.status, r.error, r.rmse_od, r.rmse_link, r.impr_od_pct,
                 r.impr_link_pct, r.extras) for r in (report, toy_report) for r in r.rows]
        assert rows[: len(report.rows)] == rows[len(report.rows):]
        assert report.kf_diagnostics == toy_report.kf_diagnostics
        assert report.leg_diagnostics == toy_report.leg_diagnostics
        for name, r in (("on", report), ("off", toy_report)):
            emit_report(r, tmp_path / name, include_profiles=False)
        for f in ("report.csv", "kf_diagnostics.csv", "leg_diagnostics.csv"):
            assert (tmp_path / "on" / f).read_bytes() == (tmp_path / "off" / f).read_bytes(), f


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

    def test_report_json_rows_hold_every_field(self, tmp_path, toy_report):
        """A report.json row is its ModelRow, a kf_diagnostics entry its
        KfStepDiagnostics and a leg_diagnostics entry its LegDiagnostics,
        field for field and in field order; the leg entries are the rows of
        leg_diagnostics.csv."""
        emit_report(toy_report, tmp_path, include_profiles=False)
        doc = json.loads((tmp_path / "report.json").read_text())
        row_fields = [f.name for f in dataclasses.fields(odchain.estimation.ModelRow)]
        diag_fields = [f.name for f in dataclasses.fields(odchain.kalman.KfStepDiagnostics)]
        leg_fields = [f.name for f in dataclasses.fields(odchain.estimation.LegDiagnostics)]
        assert doc["rows"] and doc["kf_diagnostics"] and doc["leg_diagnostics"]
        assert all(list(r) == row_fields for r in doc["rows"])
        assert all(list(d) == diag_fields for d in doc["kf_diagnostics"])
        assert all(list(d) == leg_fields for d in doc["leg_diagnostics"])
        with open(tmp_path / "leg_diagnostics.csv", newline="") as fh:
            header, *lines = csv.reader(fh)
        assert header == leg_fields
        assert [line[:2] for line in lines] == \
            [[d["model"], d["leg"]] for d in doc["leg_diagnostics"]]
        assert [[float(v) for v in line[2:]] for line in lines] == [
            pytest.approx([d[k] for k in leg_fields[2:]], abs=1e-6)
            for d in doc["leg_diagnostics"]]
        assert list(doc["rows"][1]["extras"]) == [
            "rmse_od_measured_window", "rmse_od_prediction_window", "rmse_od_short_horizon",
            "rmse_link_prediction_window", "clamped_cells", "prediction_load_calls"]

    def test_profiles_emitted_per_od(self, tmp_path, toy_report):
        emit_report(toy_report, tmp_path)
        profile_dir = tmp_path / "profiles"
        files = sorted(p.name for p in profile_dir.iterdir())
        assert len(files) == 12
        assert "1-3.csv" in files
        header = (profile_dir / "1-3.csv").read_text().splitlines()[0]
        assert header == "interval,true,historical,kf,pkf,spkf"

    def test_profiles_format_as_the_numpy_scalars(self, tmp_path, toy_report):
        """Each profile cell is formatted from a Python float of its column;
        the files are the bytes the numpy scalars of the matrices give."""
        emit_report(toy_report, tmp_path)
        models = [m for m in toy_report.models if m != "seed"]
        for i, od in enumerate(toy_report.od_index):
            columns = [toy_report.truth[i], toy_report.historical[i],
                       *(toy_report.estimates[m][i] for m in models)]
            lines = [",".join(("interval", "true", "historical", *models))]
            lines += [",".join([str(h), *(f"{c[h]:.6f}" for c in columns)])
                      for h in range(toy_report.grid.n_intervals)]
            path = tmp_path / "profiles" / f"{od[0]}-{od[1]}.csv"
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_profiles_can_be_skipped(self, tmp_path, toy_report):
        emit_report(toy_report, tmp_path, include_profiles=False)
        assert not (tmp_path / "profiles").exists()

    def test_leg_names_that_need_quoting_read_back_intact(self, tmp_path, toy_doc):
        """A leg name holding a comma, a quote or a line break stays one CSV
        field; ``csv.writer`` would leave the ``\\r`` unquoted."""
        renamed = {"work_home": "work,home", "work_leisure": 'say "hi"',
                   "hw_leisure": "hw\nleisure", "leisure_home": "leisure\rhome"}
        for leg in toy_doc["legs"]:
            leg["name"] = renamed.get(leg["name"], leg["name"])
            leg["feeds"] = [renamed.get(f, f) for f in leg["feeds"]]
        cfg = scenario_from_mapping(toy_doc)
        assert cfg.validate() == []
        emit_report(run_experiment(cfg, models=("seed", "pkf")), tmp_path, include_profiles=False)
        with open(tmp_path / "leg_diagnostics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {6}
        assert set(renamed.values()) <= {row[1] for row in rows[1:]}

    @given(st.lists(st.text(st.characters(blacklist_characters="\r\0"), max_size=6),
                    min_size=1, max_size=5))
    def test_csv_line_is_the_csv_writers_line(self, row):
        """Without a ``\\r`` a line is the one ``csv.writer`` writes, and it
        reads back as the row.  (Python 3.10's reader rejects a NUL.)"""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        line = odchain.experiment._csv_line(row)
        assert line == buf.getvalue()
        assert list(csv.reader(io.StringIO(line + line, newline=""))) == [row, row]

    def test_report_json_is_the_dumped_document(self, tmp_path, toy_report):
        emit_report(toy_report, tmp_path, include_profiles=False)
        doc = odchain.experiment._report_doc(toy_report)
        assert (tmp_path / "report.json").read_bytes() == \
            (json.dumps(doc, indent=2) + "\n").encode()

    def test_emission_holds_no_whole_file(self, tmp_path, toy_report):
        """Files are written line by line and report.json a few hundred
        chunks at a time, so writing a report peaks little above its
        entry; a ``csv.writer`` alone allocates a 131 KB record buffer."""
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            emit_report(toy_report, tmp_path, include_profiles=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < 0.05e6

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_files_get_the_umasks_mode(self, tmp_path, toy_report, umask):
        """Every file gets mode 0666 less the umask, as ``open`` would give
        it, and no temporary file is left."""
        old = os.umask(umask)
        try:
            emit_report(toy_report, tmp_path)
        finally:
            os.umask(old)
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(written) == 4 + len(toy_report.od_index)
        assert not [p for p in written if p.name.startswith(".tmp-")]
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == \
            {p.name: 0o666 & ~umask for p in written}

    def test_emitted_csv_is_deterministic(self, tmp_path, toy_cfg):
        a = run_experiment(toy_cfg)
        b = run_experiment(toy_cfg)
        emit_report(a, tmp_path / "a")
        emit_report(b, tmp_path / "b")
        assert (tmp_path / "a" / "report.csv").read_bytes() == \
            (tmp_path / "b" / "report.csv").read_bytes()


class TestGoldenReport:
    """report.csv and leg_diagnostics.csv of the toy preset, pinned at their
    printed precision; ``refresh_assignment`` does not move them."""

    def test_toy(self, tmp_path, toy_report):
        emit_report(toy_report, tmp_path, include_profiles=False)
        assert (tmp_path / "report.csv").read_text() == \
            (GOLDEN / "toy_report.csv").read_text()
        assert (tmp_path / "leg_diagnostics.csv").read_text() == \
            (GOLDEN / "toy_leg_diagnostics.csv").read_text()

    def test_toy_with_refresh(self, tmp_path, toy_cfg):
        emit_report(run_experiment(with_refresh(toy_cfg)), tmp_path, include_profiles=False)
        assert (tmp_path / "report.csv").read_text() == \
            (GOLDEN / "toy_report.csv").read_text()
        assert (tmp_path / "leg_diagnostics.csv").read_text() == \
            (GOLDEN / "toy_leg_diagnostics.csv").read_text()
