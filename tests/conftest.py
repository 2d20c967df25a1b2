import os

import numpy as np
import pytest
from hypothesis import settings

from lcwcheck.catalog import random_metric_near_flat, random_polynomial

# Under CI every hypothesis test draws the same examples on every run, so a
# fuzz failure there reproduces instead of coming and going.
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def near_flat(dim, rng, amplitude=0.04):
    return random_metric_near_flat(dim, rng, amplitude=amplitude)


def small_poly(dim, rng, amplitude=0.08):
    return random_polynomial(dim, rng, amplitude=amplitude)


def random_point(rng, dim, radius=0.2):
    return rng.uniform(-radius, radius, dim)
