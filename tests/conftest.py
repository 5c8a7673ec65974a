import os

import pytest
from hypothesis import HealthCheck, settings

from obskit import scenario_io

settings.register_profile(
    "obskit",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# Fresh random examples, many of them: HYPOTHESIS_PROFILE=deep.
settings.register_profile(
    "deep",
    derandomize=False,
    max_examples=2000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "obskit"))


@pytest.fixture(autouse=True)
def fresh_loaded_scenario(monkeypatch):
    """Each test starts with no scenario or trajectory CSV kept by
    ``scenario_io`` and no texts kept by ``scenario_io._format_array``."""
    monkeypatch.setattr(scenario_io, "_KEPT_SCENARIO", None)
    monkeypatch.setattr(scenario_io, "_KEPT_TRAJECTORIES", {})
    monkeypatch.setattr(scenario_io, "_FORMATTED", {})
