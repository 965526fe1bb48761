"""Channel generation, substream reproducibility, and the misreported view."""
import numpy as np
import pytest
from scipy import stats

from mimosched import (
    DomainError,
    LargeScaleModel,
    RngStream,
    ScaleError,
    SystemParams,
    apply_misreport,
    channel_magnitudes,
    draw_channels,
    draw_large_scale,
    large_scale_coefficient,
)
from mimosched.strategies import homogeneous_uniform, honest_profile
from oracles import false_matrix


def test_rng_stream_is_reproducible_and_keyed():
    a = RngStream(42, 7).generator().standard_normal(16)
    b = RngStream(42, 7).generator().standard_normal(16)
    c = RngStream(42, 8).generator().standard_normal(16)
    d = RngStream(43, 7).generator().standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_rng_stream_rejects_keys_outside_64_bits(seed, stream_id):
    # reduced modulo 2**64, -1 would draw the numbers of 2**64 - 1
    with pytest.raises(DomainError, match=r"\[0, 2\*\*64\)"):
        RngStream(seed, stream_id)


@pytest.mark.parametrize("seed, stream_id, name", [
    (1.5, 0, "seed"),           # drew what seed 1 draws
    (True, 0, "seed"),          # likewise
    (2.0, 3.7, "seed"),         # drew stream 3
    (2, 3.7, "stream_id"),
    (2, False, "stream_id"),
])
def test_rng_stream_rejects_keys_that_are_not_integers(seed, stream_id, name):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        RngStream(seed, stream_id)


def test_rng_stream_takes_numpy_integers():
    want = RngStream(2**64 - 1, 3).generator().standard_normal(4)
    got = RngStream(np.uint64(2**64 - 1), np.int64(3)).generator().standard_normal(4)
    assert np.array_equal(got, want)


def test_rng_stream_takes_both_ends_of_64_bits():
    low = RngStream(0, 0).generator().standard_normal(4)
    high = RngStream(2**64 - 1, 2**64 - 1).generator().standard_normal(4)
    assert not np.array_equal(low, high)


def test_restart_draws_what_a_new_generator_draws():
    # one generator restarted per stream draws the bits of a new generator
    # per stream, whatever the last stream left buffered (half a 64-bit word
    # after a 32-bit draw)
    rng = RngStream(5).generator()
    rng.integers(0, 2**32, 3, dtype=np.uint32)
    for stream_id in (3, 0, 2**64 - 1):
        assert RngStream(5, stream_id).restart(rng) is rng
        want = RngStream(5, stream_id).generator()
        assert rng.integers(0, 2**32, 3, dtype=np.uint32).tobytes() == \
            want.integers(0, 2**32, 3, dtype=np.uint32).tobytes()
        assert rng.standard_normal(9).tobytes() == want.standard_normal(9).tobytes()


def test_draw_channels_has_the_bits_of_the_complex_formula():
    # real arithmetic on one (2, K, M) draw gives the complex quotient and
    # product of two (K, M) draws bit for bit
    p = SystemParams(M=16, K=6, K_B=3, T=2)
    betas = np.array([2.5, 1.0, 0.3, 1e-4, 7.0, 1.0])
    rng = RngStream(4, 9).generator()
    re, im = rng.standard_normal((p.K, p.M)), rng.standard_normal((p.K, p.M))
    want = np.sqrt(betas)[:, None] * ((re + 1j * im) / np.sqrt(2.0))
    assert draw_channels(p, betas, RngStream(4, 9).generator()).tobytes() == want.tobytes()


def test_draw_channels_shape_and_determinism():
    p = SystemParams(M=16, K=4, K_B=2, T=2)
    betas = np.array([1.0, 2.0, 0.5, 1.0])
    ch1 = draw_channels(p, betas, RngStream(1, 0).generator())
    ch2 = draw_channels(p, betas, RngStream(1, 0).generator())
    assert ch1.shape == (4, 16)
    assert ch1.dtype == np.complex128
    assert np.array_equal(ch1, ch2)


def test_draw_channels_rejects_nonpositive_beta():
    p = SystemParams(M=16, K=2, K_B=1, T=2)
    with pytest.raises(DomainError):
        draw_channels(p, np.array([1.0, 0.0]), RngStream(1, 0).generator())
    with pytest.raises(DomainError):
        draw_channels(p, np.array([1.0]), RngStream(1, 0).generator())


def test_channel_magnitudes_shape_and_values():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    mags = channel_magnitudes(g)
    assert mags.shape == (3,) and mags.dtype == np.float64
    expect = np.sum(np.abs(g) ** 2, axis=1)
    assert np.allclose(mags, expect, rtol=1e-12)


@pytest.mark.parametrize("lead", [(), (1,), (7,), (3, 4)])
def test_batched_magnitudes_equal_per_realization_calls(lead):
    # the engine takes a slice's magnitudes in one einsum; every realization
    # must get the bits of its own (K, M) einsum
    p = SystemParams(M=64, K=32, K_B=8, T=4)
    betas = np.linspace(2.0, 0.5, 32)
    gains = np.stack([draw_channels(p, betas, RngStream(61, t).generator())
                      for t in range(int(np.prod(lead)))]).reshape(*lead, 32, 64)
    mags = channel_magnitudes(gains)
    assert mags.shape == (*lead, 32)
    np.testing.assert_array_equal(
        mags.reshape(-1, 32),
        [np.einsum("km,km->k", g, g.conj()).real for g in gains.reshape(-1, 32, 64)])


def test_channel_norm_mean_matches_gamma():
    # ||g||^2 ~ Gamma(M, beta): mean M*beta, variance M*beta^2
    p = SystemParams(M=64, K=100, K_B=50, T=2)
    mags = []
    for t in range(100):
        ch = draw_channels(p, np.ones(p.K), RngStream(11, t).generator())
        mags.append(channel_magnitudes(ch))
    mags = np.concatenate(mags)           # 1e4 samples
    tol = 3.0 * np.sqrt(64.0 / mags.size)
    assert abs(mags.mean() - 64.0) < tol


def test_channel_norm_distribution_ks():
    p = SystemParams(M=64, K=100, K_B=50, T=2)
    mags = []
    for t in range(100):
        ch = draw_channels(p, np.ones(p.K), RngStream(5, t).generator())
        mags.append(channel_magnitudes(ch))
    mags = np.concatenate(mags)
    stat = stats.kstest(mags, stats.gamma(a=64, scale=1.0).cdf).statistic
    assert stat < 1.628 / np.sqrt(mags.size)  # 1% critical value


def test_per_entry_variance_follows_beta():
    p = SystemParams(M=64, K=3, K_B=3, T=1)
    betas = np.array([1.0, 4.0, 0.25])
    acc = np.zeros(3)
    n = 200
    for t in range(n):
        ch = draw_channels(p, betas, RngStream(3, t).generator())
        acc += np.mean(np.abs(ch) ** 2, axis=1)
    est = acc / n
    # each user's per-entry power averages beta_k; SE = beta/sqrt(n*M)
    assert np.all(np.abs(est / betas - 1.0) < 4.0 / np.sqrt(n * 64))


def test_large_scale_coefficient_reference_points():
    m = LargeScaleModel(cell_radius=500, ref_distance=200,
                        path_loss_exp=3.8, shadow_sigma_db=8)
    assert large_scale_coefficient(0.0, 200.0, m) == pytest.approx(0.5, rel=1e-14)
    assert large_scale_coefficient(0.0, 0.0, m) == pytest.approx(1.0, rel=1e-14)


def test_draw_large_scale_sorted_and_deterministic():
    p = SystemParams(M=64, K=32, K_B=8, T=4)
    m = LargeScaleModel()
    b1 = draw_large_scale(p, m, RngStream(9, 0).generator())
    b2 = draw_large_scale(p, m, RngStream(9, 0).generator())
    assert b1.shape == (32,)
    assert np.array_equal(b1, b2)
    assert np.all(np.diff(b1) < 0)  # strictly descending after relabeling
    assert np.all(b1 > 0)


def test_draw_large_scale_median_against_independent_sampler():
    p = SystemParams(M=64, K=100, K_B=50, T=2)
    m = LargeScaleModel()
    draws = []
    for t in range(1000):
        draws.append(draw_large_scale(p, m, RngStream(17, t).generator()))
    med_pkg = np.median(np.concatenate(draws))  # 1e5 samples

    # independent brute-force sampler on a different generator family
    rng = np.random.default_rng(123456)
    omega = rng.normal(0.0, m.shadow_sigma_db, 100_000)
    dist = rng.uniform(0.0, m.cell_radius, 100_000)
    med_ref = np.median(10.0 ** (omega / 10.0)
                        / (1.0 + (dist / m.ref_distance) ** m.path_loss_exp))
    assert abs(med_pkg / med_ref - 1.0) < 0.02


def test_apply_misreport_honest_is_identity():
    p = SystemParams(M=16, K=4, K_B=2, T=2)
    ch = draw_channels(p, np.ones(4), RngStream(2, 0).generator())
    honest = honest_profile(np.ones(4), [0])[0][0]
    assert np.array_equal(apply_misreport(channel_magnitudes(ch), honest[None])[0],
                          channel_magnitudes(ch))
    assert np.array_equal(false_matrix(ch, honest), ch)


def test_apply_misreport_scales_magnitudes():
    p = SystemParams(M=64, K=32, K_B=8, T=4)
    scale = homogeneous_uniform(p, [1], 0.01)[0]
    acc = 0.0
    n = 400
    for t in range(n):
        mags = channel_magnitudes(draw_channels(p, np.ones(32), RngStream(21, t).generator()))
        reported = apply_misreport(mags, scale)[0]
        assert np.allclose(reported, scale[0] * mags, rtol=1e-14)
        acc += reported[0]
    # reported magnitude of the underreporter ~ Gamma(M, delta*beta), mean 0.64
    se = np.sqrt(64 * 0.01 ** 2 / n)
    assert abs(acc / n - 0.64) < 4 * se


def test_apply_misreport_rejects_nonpositive_scale():
    p = SystemParams(M=16, K=3, K_B=3, T=1)
    mags = channel_magnitudes(draw_channels(p, np.ones(3), RngStream(2, 1).generator()))
    with pytest.raises(ScaleError):
        apply_misreport(mags, np.array([[0.0, 1.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
def test_apply_misreport_rejects_a_scale_that_is_not_positive_and_finite(bad):
    # the rule group_by_sus applies to the same profiles
    with pytest.raises(ScaleError, match="positive and finite"):
        apply_misreport(np.ones(4), [[bad, 1.0, 1.0, 1.0]])


def test_apply_misreport_mismatched_users():
    p = SystemParams(M=16, K=3, K_B=3, T=1)
    mags = channel_magnitudes(draw_channels(p, np.ones(3), RngStream(2, 2).generator()))
    with pytest.raises(DomainError):
        apply_misreport(mags, np.ones((1, 2)))
    # profiles come as an (F, K) stack, not one (K,) row
    with pytest.raises(DomainError):
        apply_misreport(mags, np.ones(3))


def test_misreporter_magnitude_sorts_last():
    # a -20 dB underreporter holds the smallest reported magnitude almost surely
    p = SystemParams(M=64, K=32, K_B=8, T=4)
    scale = homogeneous_uniform(p, [1], 0.01)[0]
    hits = 0
    total = 10_000
    chunk = 500
    for c in range(total // chunk):
        gains = np.stack([draw_channels(p, np.ones(32), RngStream(31, c * chunk + t).generator())
                          for t in range(chunk)])
        mags = apply_misreport(channel_magnitudes(gains), scale)[:, 0]
        hits += int(np.sum(np.argmin(mags, axis=1) == 0))
    assert hits / total >= 0.999


def test_false_matrix_recovers_true_channels():
    p = SystemParams(M=16, K=4, K_B=2, T=2)
    ch = draw_channels(p, np.ones(4), RngStream(8, 0).generator())
    scale = np.array([0.01, 1.0, 0.3, 1.0])
    rec = false_matrix(ch, scale) / np.sqrt(scale)[:, None]
    assert np.allclose(rec, ch, rtol=1e-14)


def test_misreport_preserves_channel_directions():
    p = SystemParams(M=16, K=4, K_B=2, T=2)
    ch = draw_channels(p, np.ones(4), RngStream(8, 1).generator())
    rows = false_matrix(ch, np.array([0.01, 1.0, 0.3, 2.0]))
    f_dir = rows / np.linalg.norm(rows, axis=1)[:, None]
    g_dir = ch / np.linalg.norm(ch, axis=1)[:, None]
    assert np.allclose(f_dir, g_dir, atol=1e-12)
