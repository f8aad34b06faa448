"""The benchmark's tracer still finds and sees every layer it names.

``odbench/tracing.py`` names the functions it wraps as strings, so renaming
one breaks only the benchmark, and a function the program stops calling
reads 0 there without any error.  One toy run and its report, traced, must
open a span for every layer but the scenario readers, which the run does
not call.
"""

import importlib.util
import pathlib

import odchain.experiment

_TRACING = pathlib.Path(__file__).parents[1] / "odbench" / "tracing.py"

NOT_IN_A_RUN = {"scenario.load_scenario", "scenario.scenario_from_mapping"}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_run_opens_a_span_for_every_layer(tmp_path, toy_cfg):
    tracing = _tracing()
    original = odchain.experiment.run_experiment
    with tracing.Tracer() as tracer:
        # through the module, whose attributes the tracer replaces
        report = odchain.experiment.run_experiment(toy_cfg)
        odchain.experiment.emit_report(report, tmp_path, include_profiles=False)
    assert all(row.status == "ok" for row in report.rows)
    assert {span[0] for span in tracer.spans} == set(tracing.TARGETS) - NOT_IN_A_RUN
    assert odchain.experiment.run_experiment is original
