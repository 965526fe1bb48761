"""Shared fixtures: canonical parameter sets and a large-scale model."""
import pytest
from hypothesis import settings

from mimosched import LargeScaleModel, SystemParams

# one profile for every property test: example run times follow the load on
# the machine, so a per-example deadline would fail slow runs, not slow code
settings.register_profile("mimosched", deadline=None)
settings.load_profile("mimosched")


@pytest.fixture
def p_default():
    # the headline operating point used across most checks
    return SystemParams(M=64, K=32, K_B=8, T=4, P=10.0, noise_var=1.0)


@pytest.fixture
def p_nine():
    # small layout whose hand-traceable plans anchor the strategy tests
    return SystemParams(M=16, K=9, K_B=3, T=3, P=10.0, noise_var=1.0)


@pytest.fixture
def cell_model():
    return LargeScaleModel(cell_radius=500.0, ref_distance=200.0,
                           path_loss_exp=3.8, shadow_sigma_db=8.0)

