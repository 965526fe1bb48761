"""Value types, validation, and unit conversions."""
import numpy as np
import pytest

from mimosched import (
    ConfigError,
    DimensionError,
    DomainError,
    LargeScaleModel,
    MisreportProfile,
    SystemParams,
    db_to_linear,
    validate_params,
)


def test_validate_params_accepts_reference_layout():
    p = SystemParams(M=64, K=32, K_B=8, T=4, P=10.0, noise_var=1.0)
    assert validate_params(p) is p


def test_validate_params_rejects_non_divisible_k():
    p = SystemParams(M=64, K=30, K_B=8, T=4)
    with pytest.raises(DimensionError) as e:
        validate_params(p)
    assert "T*K_B" in str(e.value)


def test_validate_params_rejects_tiny_m():
    with pytest.raises(DimensionError):
        validate_params(SystemParams(M=0, K=32, K_B=8, T=4))
    with pytest.raises(DimensionError):
        validate_params(SystemParams(M=1, K=1, K_B=1, T=1))


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
])
def test_validate_params_rejects_bad_fields(kwargs):
    with pytest.raises(DimensionError):
        validate_params(SystemParams(**kwargs))


def test_validate_params_requires_integer_dimensions():
    with pytest.raises(DimensionError):
        validate_params(SystemParams(M=64.0, K=32, K_B=8, T=4))


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
])
def test_large_scale_model_validates(kwargs):
    with pytest.raises(DomainError):
        LargeScaleModel(**kwargs)


def test_misreport_profile_masks():
    mp = MisreportProfile(scale=np.array([0.01, 1.0, 1.0]),
                          reported_beta=np.array([0.01, 1.0, 1.0]),
                          strategy_tag="homogeneous_uniform")
    assert mp.K == 3
    assert list(mp.honest_mask()) == [False, True, True]
    assert list(np.flatnonzero(mp.scale != 1.0)) == [0]


def test_misreport_profile_rejects_bad_shapes_and_tags():
    with pytest.raises(DimensionError):
        MisreportProfile(scale=np.ones(3), reported_beta=np.ones(4))
    with pytest.raises(ConfigError):
        MisreportProfile(scale=np.ones(3), reported_beta=np.ones(3),
                         strategy_tag="nope")

