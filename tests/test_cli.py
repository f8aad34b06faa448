"""End-to-end checks of the command line entry point.

Everything calls ``main()`` in process so exit codes and printed output can
be asserted directly.
"""

import importlib
import json
import pathlib

import numpy as np
import pytest
import yaml

from odchain.cli import main
from odchain.network import build_toy_network, od_label


def test_validate_packaged_preset_by_name(capsys):
    assert main(["validate", "--scenario", "toy"]) == 0
    out = capsys.readouterr().out
    assert "is valid" in out
    assert "12 ODs" in out
    assert "5 legs" in out


def test_validate_reports_problems(tmp_path, toy_doc, capsys):
    toy_doc["models"] = ["seed", "warp"]
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "problem:" in err
    assert "warp" in err


def test_duplicate_detector_channel_is_one_problem(tmp_path, toy_doc, capsys):
    """The toy network written inline validates; listing 4a twice is one problem."""
    net = build_toy_network()
    toy_doc["network"] = {
        "zones": [{"id": z.id, "kind": z.kind} for z in net.zones.values()],
        "links": [{"label": l.label, "from": l.from_node, "to": l.to_node}
                  for l in net.links.values() if l.id == f"{l.label}a"],
        "paths": {od_label(od): list(p.links) for od, p in net.paths.items()},
        "detectors": ["4a", "4b"],
    }
    path = tmp_path / "inline.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 0
    capsys.readouterr()
    toy_doc["network"]["detectors"].append("4a")
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["problem: network: detector channel '4a': listed 2 times"]


@pytest.mark.parametrize("key", ["seed", "perturbation.seed"])
def test_negative_seed_fails_validation(tmp_path, toy_doc, capsys, key):
    """numpy takes no negative seed, so validation names the key instead of
    ``run`` failing later without naming it."""
    if key == "seed":
        toy_doc["seed"] = -1
    else:
        # a seed is read only where noise is drawn
        toy_doc["perturbation"] = {"mode": "scale_plus_noise", "scale": 0.3, "noise": 0.1,
                                   "seed": -1}
    path = tmp_path / "seed.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"problem: {key} must be >= 0, not -1"]
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {key} must be >= 0, not -1"]


def test_preferred_arrival_outside_the_day_fails_validation(tmp_path, toy_doc, capsys):
    toy_doc["legs"][0]["schedule"]["preferred_arrival"] = "80:00"
    path = tmp_path / "arrival.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "problem: legs[0].schedule.preferred_arrival: 4800 minutes lies outside the day "
        "(00:00 to 24:00)"]


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", "toy", "--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, not -1"]
    assert not (tmp_path / "out").exists()


def test_run_lists_problems_one_per_line(tmp_path, toy_doc, capsys):
    """``odchain run`` stops on a scenario with problems and prints each on
    its own ``error:`` line, as ``odchain validate`` prints ``problem:`` lines."""
    toy_doc["time_grid"]["interval_minutes"] = 5
    toy_doc["legs"][0]["od_split"]["9-3"] = 0.0
    path = tmp_path / "two-problems.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: leg 'hw_direct': no path for OD 9-3",
        "error: estimation cutoff 720.0 outside the grid horizon",
    ]
    assert not (tmp_path / "o").exists()
    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "problem: leg 'hw_direct': no path for OD 9-3",
        "problem: estimation cutoff 720.0 outside the grid horizon",
    ]


def test_run_writes_report(tmp_path, capsys):
    out = tmp_path / "results"
    code = main([
        "run", "--scenario", "toy", "--models", "seed,kf",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert (out / "report.csv").is_file()
    assert (out / "report.json").is_file()
    assert (out / "kf_diagnostics.csv").is_file()
    assert (out / "leg_diagnostics.csv").is_file()
    # profiles are opt-in
    assert not (out / "profiles").exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["seed"] == 3
    assert [r["model"] for r in payload["rows"]] == ["seed", "kf"]
    stdout = capsys.readouterr().out
    assert "model" in stdout and "rmse_od" in stdout
    assert "report written to" in stdout


def test_run_emit_profiles(tmp_path):
    out = tmp_path / "results"
    code = main([
        "run", "--scenario", "toy", "--models", "seed,kf",
        "--out", str(out), "--emit-profiles",
    ])
    assert code == 0
    files = sorted((out / "profiles").glob("*.csv"))
    assert len(files) == 12


def test_run_refresh_assignment_flag(tmp_path, capsys):
    """The flag is gone: the linearization is frozen once, so it is an
    unknown argument, and nothing is written."""
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "toy", "--out", str(out), "--refresh-assignment"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --refresh-assignment" in capsys.readouterr().err
    assert not out.exists()


def test_run_model_subset_rows(tmp_path):
    out = tmp_path / "results"
    assert main(["run", "--scenario", "toy", "--models", "seed", "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("seed,")


def test_unknown_model_is_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", "toy", "--models", "warp", "--out", str(tmp_path)])
    assert code == 1
    assert "unknown models" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(time_grid=15),
        lambda doc: doc["legs"][0].pop("name"),
        lambda doc: doc["estimation"].update(cutof=doc["estimation"].pop("cutoff")),
    ],
    ids=["non-mapping-level", "leg-without-name", "misspelled-key"],
)
def test_malformed_scenario_is_config_error(tmp_path, toy_doc, capsys, mutate):
    """Structural mistakes reach the user as one error line, not a traceback."""
    mutate(toy_doc)
    path = tmp_path / "malformed.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["legs"][0].update(total=[1]),
        lambda doc: doc["time_grid"].update(n_intervals=None),
        lambda doc: doc.update(legs=5),
        lambda doc: doc.update(network={"zones": [{"id": "a"}, {"id": "b"}], "paths": [["1a"]]}),
    ],
    ids=["total-not-a-number", "n-intervals-null", "legs-not-a-list", "paths-as-list"],
)
def test_wrongly_typed_value_is_config_error(tmp_path, toy_doc, capsys, mutate):
    """A value of the wrong type is one error line naming its key, not a traceback."""
    mutate(toy_doc)
    path = tmp_path / "mistyped.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_zone_id_with_path_separator_is_config_error(tmp_path, capsys, monkeypatch):
    """A zone id names its ODs' profile files: ``h/0`` is one error line
    before anything runs, not a report left half written."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "odbench"))
    workloads = importlib.import_module("workloads")
    text = yaml.safe_dump(workloads.corridor_mapping(1))
    assert "h0" in text
    path = tmp_path / "corridor.yaml"
    path.write_text(text.replace("h0", "h/0"))
    out = tmp_path / "results"
    assert main(["run", "--scenario", str(path), "--out", str(out), "--emit-profiles"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: zone id 'h/0' must not contain '/'"]
    assert not out.exists()


def test_fractional_grid_start_is_config_error(tmp_path, toy_doc, capsys):
    """``time_grid: {start: 7.5}`` is one error line, not a grid silently starting at 7."""
    toy_doc["time_grid"]["start"] = 7.5
    path = tmp_path / "start.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "time_grid.start must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["false", "off", 1], ids=["quoted-false", "off", "one"])
def test_switch_that_is_not_a_boolean_is_config_error(tmp_path, toy_doc, capsys, value):
    """A quoted "false" is not read as a boolean; it is one error line."""
    toy_doc["estimation"]["refresh_assignment"] = value
    path = tmp_path / "switch.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "estimation.refresh_assignment must be true or false" in err
    assert "Traceback" not in err


def test_missing_file_is_io_error(capsys):
    code = main(["run", "--scenario", "/no/such/dir/scenario.yaml"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_preset_name_is_io_error():
    assert main(["validate", "--scenario", "definitely-not-a-preset"]) == 3


def test_bad_yaml_is_config_error(tmp_path, capsys):
    path = tmp_path / "mangled.yaml"
    path.write_text("legs: [unterminated\n")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_with_config_code():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --scenario is required
    assert exc.value.code == 1


def test_unrecognized_flag_exits_with_config_code():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--scenario", "toy", "--bogus"])
    assert exc.value.code == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "run" in capsys.readouterr().out


def test_failed_model_maps_to_numerical_exit(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic failure")

    monkeypatch.setattr("odchain.estimation.predict_horizon", boom)
    code = main([
        "run", "--scenario", "toy", "--models", "seed,kf", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "failed: " in capsys.readouterr().out


def test_show_network(capsys):
    assert main(["show-network", "--scenario", "toy"]) == 0
    out = capsys.readouterr().out
    assert "zones (5)" in out
    assert "links (16)" in out
    assert "paths (12)" in out
    assert "detectors: 4a 4b" in out


def test_bpr_overflow_is_one_error_line(tmp_path, toy_doc, capsys):
    """A BPR power past the float range stops the run with the configuration
    exit code and names the link, instead of a traceback or NaN masses."""
    toy_doc["network"]["overrides"].update({"capacity": 100.0, "bpr_beta": 400.0})
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(toy_doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: link '")
    assert "BPR travel time is not finite at flow" in lines[0]
