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


def forget_kept():
    """Empty the lists of results ``scenario_io`` keeps, so the next command
    loads and parses its files and formats its arrays afresh."""
    for entries in (scenario_io._KEPT_SCENARIO, scenario_io._KEPT_TRAJECTORIES,
                    scenario_io._FORMATTED):
        entries.clear()


@pytest.fixture(autouse=True)
def nothing_kept():
    """Each test starts, and leaves the process, with nothing kept by ``scenario_io``."""
    forget_kept()
    yield
    forget_kept()
