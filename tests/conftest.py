import os

import numpy as np
import pytest
from hypothesis import settings

# Under CI every hypothesis test draws the same examples on every run, so a
# fuzz failure there reproduces instead of coming and going.
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)

