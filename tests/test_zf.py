"""Zero-forcing gains, max-min power control, and block evaluation."""
import math

import numpy as np
import pytest

from mimosched import (
    ChannelSet,
    DimensionError,
    DomainError,
    RngStream,
    SingularMatrixError,
    SystemParams,
    apply_misreport,
    evaluate_block,
    maxmin_power,
    nullspace_gain_oracle,
    zf_effective_gains,
)
from mimosched.channel import draw_channels
from mimosched.experiments import _single_blas_thread
from mimosched.strategies import homogeneous_uniform, honest_profile


@pytest.fixture(scope="module", autouse=True)
def _one_blas_thread():
    # these tests call the block engine directly, outside run_experiment;
    # threaded BLAS only spins on matrices this small
    with _single_blas_thread():
        yield


def _rand_rows(rng, kb, m):
    return (rng.standard_normal((kb, m)) + 1j * rng.standard_normal((kb, m))) / np.sqrt(2)


def test_single_row_gain_is_norm():
    rng = np.random.default_rng(0)
    g = _rand_rows(rng, 1, 8)
    d2 = zf_effective_gains(g)
    assert d2[0] == pytest.approx(np.vdot(g[0], g[0]).real, rel=1e-12)
    assert nullspace_gain_oracle(g, 0) == pytest.approx(d2[0], rel=1e-12)


def test_orthogonal_rows_keep_full_gain():
    rows = np.zeros((3, 8), dtype=np.complex128)
    rows[0, 0] = 2.0
    rows[1, 3] = 1.0 + 1.0j
    rows[2, 6] = 0.5j
    d2 = zf_effective_gains(rows)
    norms = np.sum(np.abs(rows) ** 2, axis=1)
    assert np.allclose(d2, norms, rtol=1e-12)


def test_scaling_one_row_scales_one_gain():
    rng = np.random.default_rng(1)
    rows = _rand_rows(rng, 4, 16)
    base = zf_effective_gains(rows)
    delta = 0.37
    scaled = rows.copy()
    scaled[2] *= np.sqrt(delta)
    out = zf_effective_gains(scaled)
    assert out[2] == pytest.approx(delta * base[2], rel=1e-10)
    keep = [0, 1, 3]
    assert np.allclose(out[keep], base[keep], rtol=1e-10)


def test_degenerate_rows_raise():
    rng = np.random.default_rng(2)
    rows = _rand_rows(rng, 3, 8)
    rows[1] = rows[0]
    with pytest.raises(SingularMatrixError):
        zf_effective_gains(rows)
    with pytest.raises(SingularMatrixError):
        nullspace_gain_oracle(rows, 2)


def test_gain_shape_errors():
    with pytest.raises(DimensionError):
        zf_effective_gains(np.ones(8, dtype=np.complex128))
    with pytest.raises(DimensionError):
        zf_effective_gains(np.ones((9, 8), dtype=np.complex128))
    with pytest.raises(DomainError):
        nullspace_gain_oracle(np.ones((1, 4), dtype=np.complex128), 1)


def test_nullspace_oracle_agrees_over_many_instances():
    # cross-implementation check: Gram solve vs orthogonal-complement projection
    rng = np.random.default_rng(3)
    cases = [(m, kb) for m in (8, 16, 64) for kb in (2, 4, 8)]
    instances = 0
    worst = 0.0
    while instances < 1000:
        m, kb = cases[instances % len(cases)]
        rows = _rand_rows(rng, kb, m)
        d2 = zf_effective_gains(rows)
        for k in range(kb):
            ref = nullspace_gain_oracle(rows, k)
            worst = max(worst, abs(d2[k] - ref) / ref)
        instances += 1
    assert worst <= 1e-8


def test_zf_removes_inter_user_interference():
    # the precoder built from the reported rows satisfies F W = I
    rng = np.random.default_rng(4)
    rows = _rand_rows(rng, 8, 64)
    w = rows.conj().T @ np.linalg.inv(rows @ rows.conj().T)
    assert np.max(np.abs(rows @ w - np.eye(8))) <= 1e-8
    # and the column norms are the inverse effective gains
    d2 = zf_effective_gains(rows)
    assert np.allclose(1.0 / np.sum(np.abs(w) ** 2, axis=0), d2, rtol=1e-9)


def test_maxmin_power_symmetric():
    powers, snr = maxmin_power(np.array([1.0, 1.0]), 10.0, 1.0)
    assert np.allclose(powers, [5.0, 5.0])
    assert snr == pytest.approx(5.0, rel=1e-12)


def test_maxmin_power_hand_case():
    powers, snr = maxmin_power(np.array([1.0, 0.5]), 10.0, 1.0)
    assert np.allclose(powers, [10.0 / 3.0, 20.0 / 3.0], rtol=1e-12)
    assert snr == pytest.approx(10.0 / 3.0, rel=1e-12)
    # per-user rate at that equalized SNR
    assert math.log2(1.0 + snr) == pytest.approx(math.log2(13 / 3), rel=1e-12)


def test_maxmin_power_block_rate_reference():
    _, snr = maxmin_power(np.array([1.0, 1.0]), 10.0, 1.0)
    assert math.log2(1.0 + snr) == pytest.approx(math.log2(6.0), rel=1e-12)


def test_maxmin_power_rejects_bad_inputs():
    with pytest.raises(DomainError):
        maxmin_power(np.array([1.0, 0.0]), 10.0, 1.0)
    with pytest.raises(DomainError):
        maxmin_power(np.array([1.0, 1.0]), 0.0, 1.0)


def test_maxmin_equalizes_and_conserves_power():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d2 = rng.gamma(4.0, 1.0, size=6) + 0.05
        p_tot = float(rng.uniform(0.5, 50.0))
        powers, snr = maxmin_power(d2, p_tot, 1.0)
        assert abs(powers.sum() - p_tot) / p_tot <= 1e-9
        per_user = powers * d2  # received power, equal across members
        assert np.max(np.abs(per_user / per_user[0] - 1.0)) <= 1e-9
        assert snr == pytest.approx(per_user[0], rel=1e-9)


def _channel_from_rows(rows):
    return ChannelSet(gains=rows, large_scale=np.ones(rows.shape[0]))


def test_evaluate_block_all_honest_reference():
    p = SystemParams(M=4, K=2, K_B=2, T=1, P=10.0)
    rows = np.zeros((2, 4), dtype=np.complex128)
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    ch = _channel_from_rows(rows)
    ps = apply_misreport(ch, honest_profile(np.ones(2)))
    out = evaluate_block(ch, ps, np.array([0, 1]), p)
    assert np.allclose(out.rate_actual, math.log2(6.0), rtol=1e-12)
    assert np.allclose(out.snr_actual, out.snr_bs)
    assert out.power.sum() == pytest.approx(10.0, rel=1e-12)


def test_evaluate_block_misreporter_hand_case(profile_factory):
    # orthonormal rows, one member claiming half its true magnitude
    p = SystemParams(M=4, K=2, K_B=2, T=1, P=10.0)
    rows = np.zeros((2, 4), dtype=np.complex128)
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    ch = _channel_from_rows(rows)
    ps = apply_misreport(ch, profile_factory([0.5, 1.0]))
    out = evaluate_block(ch, ps, np.array([0, 1]), p)
    assert np.allclose(out.eff_gain_bs, [0.5, 1.0], rtol=1e-12)
    assert np.allclose(out.eff_gain_true, [1.0, 1.0], rtol=1e-12)
    assert out.snr_bs == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert out.snr_actual[0] == pytest.approx(20.0 / 3.0, rel=1e-12)  # the liar gains
    assert out.snr_actual[1] == pytest.approx(10.0 / 3.0, rel=1e-12)  # honest pays


def test_evaluate_block_true_gains_ignore_misreport(profile_factory):
    p = SystemParams(M=16, K=4, K_B=4, T=1, P=10.0)
    ch = draw_channels(p, np.ones(4), RngStream(13, 0).generator())
    members = np.arange(4)
    honest = evaluate_block(ch, apply_misreport(ch, honest_profile(np.ones(4))),
                            members, p)
    lied = evaluate_block(ch, apply_misreport(ch, profile_factory([0.01, 1, 0.3, 1])),
                          members, p)
    assert np.array_equal(honest.eff_gain_true, lied.eff_gain_true)


def test_evaluate_block_member_count_enforced():
    p = SystemParams(M=16, K=4, K_B=4, T=1)
    ch = draw_channels(p, np.ones(4), RngStream(13, 1).generator())
    ps = apply_misreport(ch, honest_profile(np.ones(4)))
    with pytest.raises(DimensionError):
        evaluate_block(ch, ps, np.array([0, 1]), p)


def test_power_conservation_across_random_blocks():
    p = SystemParams(M=64, K=8, K_B=8, T=1, P=10.0)
    for t in range(40):
        ch = draw_channels(p, np.ones(8), RngStream(19, t).generator())
        ps = apply_misreport(ch, honest_profile(np.ones(8)))
        out = evaluate_block(ch, ps, np.arange(8), p)
        assert abs(out.power.sum() - p.P) / p.P <= 1e-9


def test_single_block_rate_matches_hardened_prediction(profile_factory):
    # one underreporter in a full-cell block: the honest-member mean rate over
    # many draws approaches log2(1 + 320/131) = 1.7836
    p = SystemParams(M=64, K=32, K_B=32, T=1, P=10.0)
    mp = profile_factory(np.r_[0.01, np.ones(31)])
    members = np.arange(32)
    acc = 0.0
    n = 5000
    for t in range(n):
        ch = draw_channels(p, np.ones(32), RngStream(23, t).generator())
        out = evaluate_block(ch, apply_misreport(ch, mp), members, p)
        acc += out.rate_actual[1:].mean()
    assert abs(acc / n - math.log2(1.0 + 320.0 / 131.0)) < 0.05


def test_honest_block_rate_beats_hardened_lower_bound():
    # Jensen direction: the closed form underestimates the simulated mean
    p = SystemParams(M=64, K=8, K_B=8, T=1, P=10.0)
    rates = []
    for t in range(2000):
        ch = draw_channels(p, np.ones(8), RngStream(29, t).generator())
        out = evaluate_block(ch, apply_misreport(ch, honest_profile(np.ones(8))),
                             np.arange(8), p)
        rates.append(out.rate_actual.mean())
    rates = np.asarray(rates)
    bound = math.log2(1.0 + 10.0 * (64 - 8) / 8)
    sigma = rates.std(ddof=1) / np.sqrt(rates.size)
    assert rates.mean() >= bound - 3.0 * sigma
