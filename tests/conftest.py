import pytest
import yaml
from hypothesis import settings

from odchain.experiment import generate_truth_and_history, run_experiment
from odchain.scenario import load_scenario, packaged_scenario_path

# ``pytest --hypothesis-profile ci``: the kernel's oracle property test runs
# 1,000 examples instead of its local 150, and so does every property test
# that does not set its own count.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def toy_cfg():
    return load_scenario(packaged_scenario_path("toy"))


@pytest.fixture(scope="session")
def toy_artifacts(toy_cfg):
    """Truth, history, observed counts and frozen linearization, generated once."""
    return generate_truth_and_history(toy_cfg)


@pytest.fixture(scope="session")
def toy_report(toy_cfg):
    return run_experiment(toy_cfg)


@pytest.fixture()
def toy_doc():
    """The packaged scenario as a plain dict, for mutation-based tests."""
    with open(packaged_scenario_path("toy"), encoding="utf-8") as fh:
        return yaml.safe_load(fh)
