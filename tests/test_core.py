"""Value types, validation, and unit conversions."""
from dataclasses import replace

import numpy as np
import pytest

from mimosched import (
    ConfigError,
    DimensionError,
    DomainError,
    ExperimentConfig,
    LargeScaleModel,
    SystemParams,
    db_to_linear,
)
from mimosched.strategies import homogeneous_uniform


# SystemParams checks itself when built: the validate_params tests below
# build one inside each raises block


def test_validate_params_accepts_reference_layout():
    p = SystemParams(M=64, K=32, K_B=8, T=4, P=10.0, noise_var=1.0)
    assert (p.M, p.K, p.K_B, p.T, p.P) == (64, 32, 8, 4, 10.0)
    # a replace is built, and so checked, like any other instance
    assert replace(p, K=16, T=2) == SystemParams(M=64, K=16, K_B=8, T=2, P=10.0)
    with pytest.raises(DimensionError, match="T\\*K_B"):
        replace(p, T=3)


def test_validate_params_rejects_non_divisible_k():
    with pytest.raises(DimensionError) as e:
        SystemParams(M=64, K=30, K_B=8, T=4)
    assert "T*K_B" in str(e.value)


def test_validate_params_rejects_tiny_m():
    with pytest.raises(DimensionError):
        SystemParams(M=0, K=32, K_B=8, T=4)
    with pytest.raises(DimensionError):
        SystemParams(M=1, K=1, K_B=1, T=1)


@pytest.mark.parametrize("kwargs", [
    dict(M=64, K=32, K_B=0, T=4),
    dict(M=64, K=32, K_B=33, T=4),
    dict(M=64, K=32, K_B=8, T=4, P=0.0),
    dict(M=64, K=32, K_B=8, T=4, noise_var=0.0),
    dict(M=64, K=32, K_B=8, T=4, beta_default=-1.0),
    dict(M=64, K=32, K_B=8, T=4, P=np.inf),
    dict(M=64, K=32, K_B=8, T=4, P=np.nan),
    dict(M=64, K=32, K_B=8, T=4, noise_var=np.inf),
    dict(M=64, K=32, K_B=8, T=4, beta_default=np.inf),
    dict(M=64, K=32, K_B=8, T=4, P="10"),               # a TypeError at the first comparison
    dict(M=64, K=32, K_B=8, T=4, noise_var="1"),
    dict(M=64, K=32, K_B=8, T=4, P=True),               # ran as P = 1
    dict(M=64, K=32, K_B=8, T=4, beta_default=True),
    dict(M=64, K=32, K_B=8, T=4, P=None),
])
def test_validate_params_rejects_bad_fields(kwargs):
    with pytest.raises(DimensionError):
        SystemParams(**kwargs)


def test_validate_params_rejects_more_block_members_than_antennas():
    # zero-forcing K_B users needs K_B <= M; the block Gram matrices no
    # longer show M, so the layout is checked here
    with pytest.raises(DimensionError, match="K_B <= M"):
        SystemParams(M=4, K=16, K_B=8, T=2)
    assert SystemParams(M=8, K=16, K_B=8, T=2).K_B == 8


def test_validate_params_requires_integer_dimensions():
    with pytest.raises(DimensionError):
        SystemParams(M=64.0, K=32, K_B=8, T=4)


def test_snr_property():
    p = SystemParams(M=64, K=32, K_B=8, T=4, P=5.0, noise_var=2.0)
    assert p.snr == 2.5


def test_db_to_linear_reference_points():
    assert db_to_linear(-20.0) == pytest.approx(0.01, rel=1e-14)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)


@pytest.mark.parametrize("x_db", [4000.0, 3300])
def test_db_to_linear_overflow_is_a_domain_error(x_db):
    # past about 3083 dB a float overflows (an OverflowError traceback before)
    with pytest.raises(DomainError, match="overflows"):
        db_to_linear(x_db)
    # far below 0 dB it only underflows to 0, which the positivity checks reject
    assert db_to_linear(-x_db) == 0.0


def test_db_round_trip():
    xs = np.logspace(-6, 6, 49)
    for x in xs:
        assert db_to_linear(10.0 * np.log10(x)) == pytest.approx(float(x), rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(cell_radius=0.0),
    dict(ref_distance=-1.0),
    dict(path_loss_exp=0.0),
    dict(shadow_sigma_db=-0.1),
    dict(cell_radius=float("inf")),                 # overflowed in drop set-up
    dict(ref_distance=float("nan")),
    dict(path_loss_exp=float("inf")),
    dict(shadow_sigma_db=float("nan")),             # passed the >= 0 test
    dict(shadow_sigma_db=float("inf")),
    dict(cell_radius=True),                         # built a 1 m cell
    dict(shadow_sigma_db=False),                    # built unshadowed
    dict(path_loss_exp="3"),                        # a bare TypeError
    dict(ref_distance=None),
])
def test_large_scale_model_validates(kwargs):
    with pytest.raises(DomainError, match=next(iter(kwargs))):
        LargeScaleModel(**kwargs)


def test_misreport_profile_masks():
    # one profile: a row of multipliers, honest users where it is 1
    scale, reported = homogeneous_uniform(SystemParams(M=2, K=3, K_B=1, T=3), [1], 0.01)
    assert scale.shape == reported.shape == (1, 3)
    assert list(scale[0] == 1.0) == [False, True, True]
    assert list(np.flatnonzero(scale[0] != 1.0)) == [0]
    assert np.array_equal(reported, [[0.01, 1.0, 1.0]])


def test_misreport_profile_rejects_bad_shapes_and_tags(p_nine):
    # the kernels take one (F,) row of integer misreporter counts
    with pytest.raises(DimensionError):
        homogeneous_uniform(p_nine, np.ones((3, 4), dtype=int), 0.01)
    with pytest.raises(DimensionError):
        homogeneous_uniform(p_nine, [1.0], 0.01)
    with pytest.raises(ConfigError):
        ExperimentConfig(params=p_nine, strategy="nope")
