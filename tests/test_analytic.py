"""Closed-form rates, losses, order statistics and their Monte Carlo cross-checks."""
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import gammainc, gammaincc, gammaincinv
from scipy.stats import gamma as gamma_dist

from mimosched import (
    CountError,
    DomainError,
    ExperimentConfig,
    LargeScaleModel,
    RegimeError,
    RngStream,
    SystemParams,
    draw_channels,
    draw_large_scale,
    evaluate_block,
    group_by_large_scale,
    loss_limits,
    loss_rr_cm,
    loss_single_block,
    loss_upper_bound,
    prop3_terms,
    rate_accurate_single_block,
    rate_heterogeneous_block,
    rate_misreport_single_block,
    run_experiment,
)
from mimosched import analytic
from mimosched.analytic import _TAIL, _log_gamma_cdfs, _orderstat_moments
from oracles import _log_orderstat_pdf, gram, inverse_moment_oracle, orderstat_pdf_oracle

# golden inverse moments of the k-th smallest of 32 Gamma(64, 1) draws,
# k = 1..8, from a dedicated 2e7-sample Monte Carlo run
_INV_MOMENTS_MC = [0.02065729, 0.01947987, 0.01883808, 0.01838274,
                   0.01802275, 0.01772061, 0.01745653, 0.01722051]
# and the quadrature value of their sum, pinned to full precision
_A_T_A_QUAD = 0.1477828401946571


def _metric(rows, name, sweep_value=0.0):
    hits = [r for r in rows if r.metric == name and r.sweep_value == sweep_value]
    assert len(hits) == 1, f"expected one {name!r} row, got {len(hits)}"
    return hits[0]


def test_accurate_rate_reference_points():
    assert rate_accurate_single_block(64, 32, 10.0) == pytest.approx(
        math.log2(11.0), rel=1e-12)
    assert rate_accurate_single_block(64, 8, 10.0) == pytest.approx(
        math.log2(71.0), rel=1e-12)
    # beta rescales the post-processing SNR linearly
    assert rate_accurate_single_block(64, 32, 10.0, beta=2.0) == pytest.approx(
        math.log2(21.0), rel=1e-12)


@pytest.mark.parametrize("args", [
    (32, 32, 10.0, 1.0),   # needs M > K
    (16, 32, 10.0, 1.0),
    (64, 0, 10.0, 1.0),
    (64, 32, 0.0, 1.0),
    (64, 32, -3.0, 1.0),
    (64, 32, 10.0, 0.0),
    (64, 32, math.inf, 1.0),
    (64, 32, math.nan, 1.0),
    (64, 32, 10.0, math.inf),
])
def test_accurate_rate_rejects(args):
    with pytest.raises(DomainError):
        rate_accurate_single_block(*args)


def test_misreport_rate_reference_point():
    # one of 32 users deflates by 100x: effective load 31 + 100 = 131
    v = rate_misreport_single_block(64, 32, 1, 0.01, 10.0)
    assert v == pytest.approx(math.log2(1.0 + 320.0 / 131.0), rel=1e-12)


def test_misreport_rate_reduces_to_accurate():
    acc = rate_accurate_single_block(64, 32, 10.0)
    assert rate_misreport_single_block(64, 32, 5, 1.0, 10.0) == pytest.approx(acc, rel=1e-14)
    assert rate_misreport_single_block(64, 32, 0, 0.01, 10.0) == pytest.approx(acc, rel=1e-14)


def test_misreport_rate_rejects():
    with pytest.raises(CountError):
        rate_misreport_single_block(64, 32, 33, 0.01, 10.0)
    with pytest.raises(CountError):
        rate_misreport_single_block(64, 32, -1, 0.01, 10.0)
    with pytest.raises(DomainError):
        rate_misreport_single_block(64, 32, 1, 0.0, 10.0)


def test_loss_single_block_reference_values():
    assert loss_single_block(64, 32, 1, 0.01, 10.0) == pytest.approx(0.48441021, abs=1e-4)
    # at snr = 1e-4 the loss is essentially the SNR ratio itself:
    # 1 - (K / eff_users) * (1 + O(snr)) with eff_users = 131
    assert loss_single_block(64, 32, 1, 0.01, 1e-4) == pytest.approx(
        0.7557159609125442, rel=1e-12)
    assert loss_single_block(64, 32, 1, 1.0, 10.0) == 0.0


def test_loss_single_block_monotone_in_delta_and_count():
    losses = [loss_single_block(64, 32, 1, d, 10.0) for d in (1.0, 0.5, 0.1, 0.01)]
    assert all(b > a for a, b in zip(losses, losses[1:]))
    by_count = [loss_single_block(64, 32, k, 0.01, 10.0) for k in range(0, 9)]
    assert by_count[0] == 0.0
    assert all(b > a for a, b in zip(by_count, by_count[1:]))
    assert all(0.0 <= v < 1.0 for v in by_count)


def test_loss_limits_low_snr_value():
    lim = loss_limits(64, 32, 1, 0.01, 1e-4)
    assert lim["low_snr"] == pytest.approx(0.68, rel=1e-12)
    # delta * K = K_M makes the low-SNR loss vanish identically
    lim0 = loss_limits(64, 32, 4, 0.125, 1e-4)
    assert lim0["low_snr"] == 0.0


def test_loss_limits_high_snr_tracks_exact():
    # the high-SNR form also drops K - K_M against K_M / delta, so it needs
    # a deep misreport to bite; the gap then closes as snr grows
    rel_errs = []
    for snr in (1e6, 1e8, 1e10):
        exact = loss_single_block(64, 32, 1, 1e-6, snr)
        lim = loss_limits(64, 32, 1, 1e-6, snr)
        rel_errs.append(abs(lim["high_snr"] - exact) / exact)
    assert all(e < 0.01 for e in rel_errs)
    assert all(b < a for a, b in zip(rel_errs, rel_errs[1:]))


def test_loss_limits_rejects():
    with pytest.raises(CountError):
        loss_limits(64, 32, 0, 0.01, 10.0)
    with pytest.raises(DomainError):
        loss_limits(64, 32, 1, 0.0, 10.0)
    with pytest.raises(DomainError):
        loss_limits(64, 32, 1, np.inf, 10.0)


@pytest.mark.parametrize("k_m", [1.5, True, 2.0])
@pytest.mark.parametrize("call", [
    lambda k_m: loss_rr_cm(SystemParams(M=64, K=32, K_B=8, T=4), k_m, 0.1),
    lambda k_m: loss_upper_bound(SystemParams(M=64, K=32, K_B=8, T=4), k_m, 0.1),
    lambda k_m: loss_single_block(64, 32, k_m, 0.1, 10.0),
    lambda k_m: rate_misreport_single_block(64, 32, k_m, 0.1, 10.0),
    lambda k_m: loss_limits(64, 32, k_m, 0.1, 10.0),
], ids=["loss_rr_cm", "loss_upper_bound", "loss_single_block", "rate_misreport_single_block",
        "loss_limits"])
def test_analytic_losses_reject_a_count_that_is_not_an_integer(call, k_m):
    # each returned a number: 0.0431 from loss_rr_cm at 1.5 and 0.0339 at True
    with pytest.raises(CountError, match="K_M must be an integer"):
        call(k_m)
    call(np.int64(2))


_P = SystemParams(M=64, K=32, K_B=8, T=4)


@pytest.mark.parametrize("call, name", [
    # each returned a number: 3.48, 9.30 and 8.29
    (lambda: rate_accurate_single_block(64.5, 32, 10.0), "M must be an integer"),
    (lambda: rate_accurate_single_block(64, True, 10.0), "K must be an integer"),
    (lambda: rate_heterogeneous_block(64.5, 2, 10.0, [1, 1]), "M must be an integer"),
    (lambda: rate_heterogeneous_block(64, 2.0, 10.0, [1, 1]), "K_B must be an integer"),
    (lambda: rate_accurate_single_block(64, 32, 10.0, True), "beta must be a real number"),
    # each raised a TypeError
    (lambda: rate_accurate_single_block(64, 32, "10"), "snr must be a real number"),
    (lambda: rate_heterogeneous_block(64, 2, "10", [1, 1]), "snr must be a real number"),
    (lambda: loss_rr_cm(_P, 1, "0.1"), "delta must be a real number"),
    (lambda: loss_upper_bound(_P, 1, "0.1"), "delta must be a real number"),
    (lambda: loss_single_block(64, 32, 1, "0.1", 10.0), "delta must be a real number"),
    (lambda: loss_limits(64, 32, 1, "0.1", 10.0), "delta must be a real number"),
    (lambda: prop3_terms(_P, 1, 0.1, "1"), "beta must be a real number"),
], ids=["rate_accurate_M", "rate_accurate_K", "rate_heterogeneous_M", "rate_heterogeneous_K_B",
        "rate_accurate_beta", "rate_accurate_snr", "rate_heterogeneous_snr", "loss_rr_cm_delta",
        "loss_upper_bound_delta", "loss_single_block_delta", "loss_limits_delta",
        "prop3_terms_beta"])
def test_closed_forms_reject_a_count_or_a_real_of_the_wrong_kind(call, name):
    with pytest.raises(DomainError, match=name):
        call()


def test_closed_forms_take_numpy_counts_and_reals():
    assert rate_accurate_single_block(np.int64(64), np.int32(32), np.float64(10.0)) == \
        rate_accurate_single_block(64, 32, 10.0)
    assert rate_heterogeneous_block(np.int64(64), np.int64(2), 10, [1, 1]) == \
        rate_heterogeneous_block(64, 2, 10.0, [1.0, 1.0])
    assert loss_rr_cm(_P, 1, np.float64(0.1)) == loss_rr_cm(_P, 1, 0.1)


def _pdf(shape, scale, n, k, x):
    # the rank density the eq17 quadrature integrates, at x > 0
    vals = np.exp(_log_orderstat_pdf(shape, scale, n, np.array([k]), np.atleast_1d(x)))[0]
    return vals if np.ndim(x) else float(vals[0])


def _inverse_moment(shape, scale, n, k):
    # E[1/X_(k)] of one rank, by the quadrature prop3_terms sums
    return float(_orderstat_moments(shape, scale, n, np.array([k]))[0])


def test_orderstat_spec_validation():
    with pytest.raises(DomainError):
        _orderstat_moments(0, 1.0, 4, np.array([1]))
    with pytest.raises(DomainError):
        _orderstat_moments(64, 0.0, 4, np.array([1]))
    with pytest.raises(DomainError):
        _orderstat_moments(64, 1.0, 4, np.array([0]))
    with pytest.raises(DomainError):
        _orderstat_moments(64, 1.0, 4, np.array([5]))


def test_quadrature_range_matches_gamma_ppf_bit_for_bit():
    # gamma.ppf is scipy.special's gammaincinv times the scale, bit for bit:
    # the scipy quantile the package's own range is checked against below
    shape = np.r_[np.arange(2, 301), 512, 1024, 2048][:, None, None]
    scale = np.logspace(-3, 3, 25)[:, None]
    q = np.array([_TAIL, 1.0 - _TAIL])
    assert np.array_equal(gammaincinv(shape, q) * scale, gamma_dist.ppf(q, shape, scale=scale))


_SHAPES = [*range(2, 301), 512, 1024, 2048]


def test_quadrature_range_matches_gamma_ppf():
    # the package's range, _tail_quantiles(shape) * scale, against scipy's on
    # the grid above. scipy's gammaincinv itself misses the mpmath root by up
    # to 22 ulps (shape 128: 20 ulps low), the package's by at most 6
    shape = np.array(_SHAPES)[:, None, None]
    scale = np.logspace(-3, 3, 25)[:, None]
    got = np.stack([analytic._tail_quantiles(a) for a in _SHAPES])[:, None, :] * scale
    want = gamma_dist.ppf(np.array([_TAIL, 1.0 - _TAIL]), shape, scale=scale)
    assert np.all(np.abs(got - want) <= 32 * np.spacing(want))


def test_quadrature_range_is_the_mpmath_quantile():
    # P(shape, lo) = _TAIL and P(shape, hi) = 1 - _TAIL as floats, so
    # Q(shape, hi) = 1 - (1 - _TAIL) exactly; the roots at 40 digits
    with mpmath.workdps(40):
        upper = 1 - mpmath.mpf(1.0 - _TAIL)
        for a in _SHAPES:
            lo, hi = analytic._tail_quantiles(a)
            want = [float(mpmath.findroot(
                        lambda x: mpmath.gammainc(a, 0, x, regularized=True) - _TAIL, lo)),
                    float(mpmath.findroot(
                        lambda x: mpmath.gammainc(a, x, mpmath.inf, regularized=True) - upper, hi))]
            assert np.all(np.abs([lo, hi] - np.array(want)) <= 8 * np.spacing(want)), a


def test_gamma_cdfs_match_scipy_across_the_range():
    # log P and log Q at 201 points of each shape's range, absolute in the
    # logs, so relative in P and Q. The bound is scipy's: its gammaincc is
    # off by up to 6.3e-13 at shapes 236-287 near the upper end, where the
    # package's log Q is within 1.4e-14 of mpmath's
    for a in _SHAPES:
        lo, hi = analytic._tail_quantiles(a)
        x = np.linspace(lo, hi, 201)
        log_p, log_q, _ = _log_gamma_cdfs(a, x)
        np.testing.assert_allclose(log_p, np.log(gammainc(a, x)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_q, np.log(gammaincc(a, x)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("a", [2, 3, 10, 64, 128, 245, 512, 2048])
def test_gamma_cdfs_match_mpmath(a):
    # log P, log Q and log f within 1e-13 of 40-digit values, out to both
    # ends of the range; the rounding of x itself moves them by up to
    # |x - a| * 2^-53, 4e-14 at shape 2048
    lo, hi = analytic._tail_quantiles(a)
    x = np.linspace(lo, hi, 21)
    with mpmath.workdps(40):
        cdf = [mpmath.gammainc(a, 0, v, regularized=True) for v in x]
        want = np.array([[float(mpmath.log(c)), float(mpmath.log(1 - c)),
                          float((a - 1) * mpmath.log(v) - v - mpmath.loggamma(a))]
                         for c, v in zip(cdf, x)]).T
    np.testing.assert_allclose(np.array(_log_gamma_cdfs(a, x)), want, rtol=0, atol=1e-13)


def test_orderstat_shape_must_be_an_integer():
    # eq17's shape is an antenna count: one that is not whole is refused, not rounded
    with pytest.raises(DomainError, match="integer"):
        _orderstat_moments(64.5, 1.0, 4, np.array([1]))
    assert np.array_equal(_orderstat_moments(64.0, 1.0, 4, np.arange(1, 5)),
                          _orderstat_moments(64, 1.0, 4, np.arange(1, 5)))


@pytest.mark.parametrize("order", analytic._QUAD_ORDERS)
def test_quadrature_table_equals_leggauss_bit_for_bit(order):
    # every order of the ladder is read from the package's table, not computed
    # per process; rewrite the table with
    # np.save(path, np.hstack([np.stack(leggauss(o)) for o in _QUAD_ORDERS]))
    t, w = analytic._gauss_legendre(order)
    want_t, want_w = np.polynomial.legendre.leggauss(order)
    assert t.shape == w.shape == (order,)
    assert np.array_equal(t, want_t) and np.array_equal(w, want_w)


def test_quadrature_table_is_read_once_for_every_order(monkeypatch):
    # it was read once per order: twice in a fig2 pass's first eq17 call
    loads = []
    real_load = np.load
    monkeypatch.setattr(np, "load", lambda *a, **kw: loads.append(a) or real_load(*a, **kw))
    analytic._quad_table.cache_clear()
    for order in analytic._QUAD_ORDERS * 2:
        t, w = analytic._gauss_legendre(order)
        assert t.shape == w.shape == (order,)
    assert len(loads) == 1


def test_orderstat_pdf_single_draw_is_parent():
    x = np.linspace(30.0, 110.0, 57)
    ref = gamma_dist.pdf(x, 64, scale=1.0)
    assert np.allclose(_pdf(64, 1.0, 1, 1, x), ref, rtol=1e-12, atol=0.0)
    # the production log density is defined on x > 0 only; the linear-domain
    # oracle carries the support and agrees with it inside
    assert orderstat_pdf_oracle(64, 1.0, 1, 1, -1.0) == 0.0
    assert orderstat_pdf_oracle(64, 1.0, 1, 1, 0.0) == 0.0
    np.testing.assert_allclose(_pdf(64, 1.0, 32, 8, x), orderstat_pdf_oracle(64, 1.0, 32, 8, x),
                               rtol=1e-9)


@pytest.mark.parametrize("rank", [1, 8, 32])
def test_orderstat_pdf_normalizes(rank):
    lo = gamma_dist.ppf(1e-12, 64, scale=1.0)
    hi = gamma_dist.ppf(1.0 - 1e-12, 64, scale=1.0)
    mass, _ = integrate.quad(lambda x: _pdf(64, 1.0, 32, rank, x), lo, hi,
                             epsabs=0.0, epsrel=1e-9, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_orderstat_pdf_mixture_identity():
    # summing the n rank densities recovers n times the parent density
    n = 32
    for x in (30.0, 50.0, 64.0, 80.0, 110.0):
        total = sum(_pdf(64, 1.0, n, k, x) for k in range(1, n + 1))
        assert total == pytest.approx(n * gamma_dist.pdf(x, 64, scale=1.0), abs=1e-9)


def test_inverse_moment_single_draw_closed_form():
    # E[1/X] = 1 / ((shape - 1) * scale) for a plain gamma variable
    v = _inverse_moment(64, 1.0, 1, 1)
    assert v == pytest.approx(1.0 / 63.0, rel=1e-10)


def test_inverse_moment_scale_inverse_linearity():
    a = _inverse_moment(64, 1.0, 32, 3)
    b = _inverse_moment(64, 0.5, 32, 3)
    assert b == pytest.approx(2.0 * a, rel=1e-9)


def test_inverse_moment_rank_values_match_monte_carlo():
    for k, ref in enumerate(_INV_MOMENTS_MC, start=1):
        v = _inverse_moment(64, 1.0, 32, k)
        assert v == pytest.approx(ref, rel=1e-3)


def test_inverse_moment_sum_pinned():
    total = sum(_inverse_moment(64, 1.0, 32, k) for k in range(1, 9))
    assert total == pytest.approx(_A_T_A_QUAD, rel=1e-9)
    assert total == pytest.approx(sum(_INV_MOMENTS_MC), rel=5e-3)


def test_inverse_moment_needs_integrable_pole():
    with pytest.raises(DomainError):
        _inverse_moment(1, 1.0, 4, 1)


@pytest.mark.parametrize("shape,n,k", [
    (64, 32, 1), (64, 32, 8), (64, 32, 32), (128, 64, 1),
    (512, 128, 64), (256, 256, 64), (3, 2, 2), (2, 1, 1)])
def test_inverse_moment_matches_mpmath_oracle(shape, n, k):
    # (512, 128, 64) and (256, 256, 64) climb the order ladder to 768 nodes
    v = _inverse_moment(shape, 1.0, n, k)
    assert v == pytest.approx(inverse_moment_oracle(shape, 1.0, n, k), rel=1e-12)


@settings(max_examples=60)
@given(shape=st.integers(2, 512), scale=st.floats(0.05, 20.0), n=st.integers(1, 64))
def test_rank_densities_have_unit_mass_under_the_production_rule(shape, scale, n):
    # the tails cut at 1e-12 parent mass hold at most 2e-12 * n of any rank
    mass = _orderstat_moments(shape, scale, n, np.arange(1, n + 1), power=0)
    assert np.all(np.abs(mass - 1.0) <= 1e-9), mass


@settings(max_examples=60)
@given(shape=st.integers(6, 512), scale=st.floats(0.05, 20.0), n=st.integers(1, 64))
def test_rank_inverse_moments_sum_to_the_parent_moment(shape, scale, n):
    # the n rank densities add up to n parent densities, so their inverse
    # moments add up to n / ((shape - 1) * scale). Cutting the lower tail at
    # 1e-12 mass drops about shape * 1e-12 / (lo / scale) of that, relative:
    # 1.4e-6 at shape 2, 2e-10 at shape 6, less above
    total = _orderstat_moments(shape, scale, n, np.arange(1, n + 1)).sum()
    assert total == pytest.approx(n / ((shape - 1) * scale), rel=1e-9)


@settings(max_examples=60)
@given(data=st.data(), m=st.integers(12, 512), delta=st.floats(1e-4, 0.5),
       p_db=st.floats(-20.0, 40.0))
def test_rr_cm_loss_is_the_bound_in_a_single_block(data, m, delta, p_db):
    # at T = 1 and K = K_B the rank inverse moments sum to the parent's, so
    # eq17 collapses to eq21 in closed form. What is left is the truncated
    # lower tail (larger at small M) divided by the loss (smaller as delta
    # nears 1); M >= 12 and delta <= 0.5 keep it below 1e-10
    k_b = data.draw(st.integers(2, min(32, m - 1)))
    k_m = data.draw(st.integers(1, k_b - 1))
    p = SystemParams(M=m, K=k_b, K_B=k_b, T=1, P=10.0 ** (p_db / 10.0))
    assert loss_rr_cm(p, k_m, delta) == pytest.approx(
        loss_upper_bound(p, k_m, delta), rel=1e-10)


def test_eq17_sums_are_integrated_once_per_key(p_default, monkeypatch):
    # a power sweep changes no order-statistic sum: one quadrature per
    # distinct (shape, scale, n, k), and the same bits as a fresh evaluation
    calls, real = [], analytic._orderstat_moments

    def counted(shape, scale, n, *args, **kw):
        calls.append((shape, scale, n))
        return real(shape, scale, n, *args, **kw)

    monkeypatch.setattr(analytic, "_orderstat_moments", counted)
    powers = (0.1, 1.0, 10.0, 100.0)
    fresh = []
    for P in powers:
        analytic._inverse_moment_sum.cache_clear()
        fresh.append(loss_rr_cm(replace(p_default, P=P), 2, 0.01))
    calls.clear()
    analytic._inverse_moment_sum.cache_clear()
    swept = [loss_rr_cm(replace(p_default, P=P), 2, 0.01) for P in powers]
    assert calls == [(64, 1.0, 32), (64, 1.0, 30)]
    assert [x.hex() for x in swept] == [x.hex() for x in fresh]


def test_prop3_terms_reference(p_default):
    t = prop3_terms(p_default, 1, 0.01)
    assert t["R_a_rand"] == pytest.approx(math.log2(71.0), rel=1e-12)
    assert t["A_T_a"] == pytest.approx(_A_T_A_QUAD, rel=1e-9)
    # attacked last block: one deflated plain draw plus the 7 smallest of 31
    residual = t["A_T_m"] - 1.0 / (0.01 * 63.0)
    assert residual == pytest.approx(0.130254872, rel=5e-3)
    assert t["A_T_m"] > t["A_T_a"]
    assert t["R_mCM_T"] < t["R_aCM_T"] < t["R_a_rand"]


def test_prop3_terms_no_misreporters_collapses(p_default):
    t = prop3_terms(p_default, 0, 0.01)
    assert t["A_T_m"] == t["A_T_a"]
    assert t["R_mCM_T"] == t["R_aCM_T"]


def test_prop3_terms_rejects(p_default):
    with pytest.raises(RegimeError):
        prop3_terms(p_default, 9, 0.01)
    with pytest.raises(CountError):
        prop3_terms(p_default, -1, 0.01)


def test_rr_cm_loss_zero_without_misreporters(p_default):
    assert abs(loss_rr_cm(p_default, 0, 0.01)) <= 1e-9


def test_rr_cm_loss_monotone_in_delta(p_default):
    losses = [loss_rr_cm(p_default, 1, d) for d in (1.0, 0.5, 0.1, 0.01)]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_rr_cm_loss_rejects():
    with pytest.raises(CountError):
        # single-block layout, every user a misreporter
        loss_rr_cm(SystemParams(M=64, K=8, K_B=8, T=1), 8, 0.01)
    with pytest.raises(RegimeError):
        loss_rr_cm(SystemParams(M=64, K=32, K_B=8, T=4), 9, 0.01)


def test_closed_forms_reject_overreporting(p_default):
    # eq17 and eq21 let the misreporters sink to the last block. Overreporters
    # rise instead: at delta = 10, M = 64 the eq21 "bound" sat below the
    # measured loss. delta = 1 stays in, as the delta -> 1- limit
    for loss in (prop3_terms, loss_rr_cm, loss_upper_bound):
        for delta in (10.0, 1.0 + 1e-12):
            with pytest.raises(RegimeError):
                loss(p_default, 1, delta)
    assert loss_rr_cm(p_default, 1, 1.0) == pytest.approx(
        loss_rr_cm(p_default, 1, 1.0 - 1e-9), abs=1e-6)
    assert loss_upper_bound(p_default, 1, 1.0) == 0.0


def test_engine_emits_closed_forms_only_for_underreporting(p_default):
    # the eq17 / eq21 rows follow the closed forms' regime: K_M <= K_B and
    # delta <= 1. Overreporting keeps every Monte Carlo row and drops those
    cfg = ExperimentConfig(params=p_default, grouping_rule=("channel_magnitude",), sweep="K_M",
                           sweep_values=(0, 1, 8, 9), trials=4, seed=3)

    def names(delta):
        return {(r.sweep_value, r.metric) for r in run_experiment(replace(cfg, delta=delta))}

    under, limit, over = names(0.01), names(1.0), names(10.0)
    closed = {(v, m) for v, m in under if m.startswith(("analytic_eq17", "upper_bound_eq21"))}
    assert closed == {(0.0, "analytic_eq17"), (1.0, "analytic_eq17"), (1.0, "upper_bound_eq21"),
                      (8.0, "analytic_eq17"), (8.0, "upper_bound_eq21")}
    assert limit == under
    assert over == under - closed


def test_overreporting_benefits_honest_users():
    """The abstract: overreporting is beneficial to others (homogeneous case).

    In one block, misreporters claiming delta = 10 times their magnitude ask
    for less of the equalized power, so eq12's loss is negative. Under random
    grouping at K_M = 4 the Monte Carlo loss is negative beyond its ci95
    (-0.0261 +- 0.0002 at 400 trials, seed 42). Magnitude grouping was
    measured at the same size as a gain below K_B (-0.0061 at K_M = 1,
    -0.0190 at K_M = 4) but near zero at multiples of K_B: +0.00006 +- 0.0004
    at K_M = 8 and +0.0004 +- 0.0006 at K_M = 16, so no sign is asserted for it.
    """
    for k_m in (1, 4, 8, 16, 32):
        assert loss_single_block(64, 32, k_m, 10.0, 10.0) < 0.0
    cfg = ExperimentConfig(params=SystemParams(M=64, K=32, K_B=8, T=4, P=10.0),
                           grouping_rule=("random",), K_M=4, delta=10.0, trials=400, seed=42)
    theta = _metric(run_experiment(cfg), "theta_rand")
    assert theta.mean + theta.ci95 < 0.0, theta


def test_upper_bound_dominates_rr_cm():
    for snr in (1.0, 10.0, 100.0):
        p = SystemParams(M=64, K=32, K_B=8, T=4, P=snr)
        for delta in (0.01, 0.1, 0.5):
            for k_m in range(1, 9):
                lo = loss_rr_cm(p, k_m, delta)
                hi = loss_upper_bound(p, k_m, delta)
                assert hi >= lo - 1e-6, (snr, delta, k_m, lo, hi)


def test_upper_bound_reference_and_endpoint(p_default):
    assert loss_upper_bound(p_default, 1, 0.01) == pytest.approx(
        0.1288681265059230, rel=1e-12)
    assert loss_upper_bound(p_default, 8, 0.01) == 0.0


def test_upper_bound_rejects(p_default):
    with pytest.raises(RegimeError):
        loss_upper_bound(p_default, 9, 0.01)
    with pytest.raises(CountError):
        loss_upper_bound(p_default, 0, 0.01)


def test_heterogeneous_block_rate():
    # equal gains collapse to the common-beta closed form
    betas = np.full(8, 1.3)
    assert rate_heterogeneous_block(64, 8, 10.0, betas) == pytest.approx(
        rate_accurate_single_block(64, 8, 10.0, beta=1.3), rel=1e-12)
    # gains with exact binary reciprocals: sum 1/beta = 28, rate = log2(21)
    mixed = np.array([1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.0625])
    assert rate_heterogeneous_block(64, 8, 10.0, mixed) == pytest.approx(
        math.log2(21.0), rel=1e-12)
    # one vanishing gain starves the whole block
    weak = np.array([1.0, 1.0, 1.0, 1e-12])
    assert rate_heterogeneous_block(16, 4, 10.0, weak) < 1e-6


def test_heterogeneous_block_rejects():
    with pytest.raises(DomainError):
        rate_heterogeneous_block(64, 8, 10.0, np.ones(7))
    with pytest.raises(DomainError):
        rate_heterogeneous_block(8, 8, 10.0, np.ones(8))
    with pytest.raises(DomainError):
        rate_heterogeneous_block(64, 8, 10.0, np.array([1.0] * 7 + [0.0]))


@pytest.mark.parametrize("snr, betas", [
    (10.0, [0.5, math.inf]),        # printed 8.28
    (10.0, [0.5, math.nan]),
    (math.inf, [0.5, 0.2]),         # printed inf
    (math.nan, [0.5, 0.2]),
])
def test_heterogeneous_block_rejects_non_finite_inputs(snr, betas):
    with pytest.raises(DomainError, match="finite"):
        rate_heterogeneous_block(64, 2, snr, betas)


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_misreport_rate_rejects_non_finite_delta(delta):
    # delta = inf printed 3.50 for eq11 and -0.012 for eq12
    with pytest.raises(DomainError, match="delta must be positive and finite"):
        rate_misreport_single_block(64, 32, 1, delta, 10.0)
    with pytest.raises(DomainError, match="delta must be positive and finite"):
        loss_single_block(64, 32, 1, delta, 10.0)


def _ls_block_rate_gap(M, drops=10, trials=100, seed=5):
    """Median relative gap between Monte Carlo large-scale block rates and eq22.

    Each drop's honest large-scale plan is served on ``trials`` channel
    draws; a block's simulated rate is its members' common rate averaged
    over the draws.
    """
    p = SystemParams(M=M, K=32, K_B=8, T=4, P=10.0)
    gaps = []
    for d in range(drops):
        betas = draw_large_scale(p, LargeScaleModel(), RngStream(seed, d).generator())
        plan = group_by_large_scale(betas, p)
        streams = (RngStream(seed, drops + d * trials + t) for t in range(trials))
        gains = np.stack([draw_channels(p, betas, s.generator()) for s in streams])
        rates = evaluate_block(gram(gains[:, plan]), np.ones((trials, p.T, p.K_B)),
                               np.arange(trials), p)
        hardened = np.array([rate_heterogeneous_block(M, p.K_B, p.snr, betas[b]) for b in plan])
        gaps.append(np.abs(rates[..., 0].mean(axis=0) - hardened) / hardened)
    return float(np.median(gaps))


def test_heterogeneous_block_rate_tightens_with_antennas():
    # eq22 hardens as the array grows: the gap falls with each doubling of M,
    # as the channel-hardening argument predicts. Measured 1.8e-3, 7.9e-4 and
    # 4.0e-4 at M = 64, 128 and 256 (10 drops x 100 trials, seed 5)
    gaps = [_ls_block_rate_gap(m) for m in (64, 128, 256)]
    assert gaps[0] > gaps[1] > gaps[2], gaps


def test_rr_cm_loss_tightens_with_antennas():
    # the hardened closed form is an asymptotic-in-M statement; its gap to
    # the simulated loss must not grow as the array gets larger
    errs = []
    for m in (32, 64, 128, 256):
        p = SystemParams(M=m, K=32, K_B=8, T=4)
        cfg = ExperimentConfig(
            params=p, scenario="homogeneous", grouping_rule=("channel_magnitude",),
            strategy=("homogeneous_uniform",), K_M=1, delta=0.01,
            trials=800, seed=97, label="tightness")
        rows = run_experiment(cfg, workers=2)
        theta = _metric(rows, "theta_cm").mean
        errs.append(abs(theta - loss_rr_cm(p, 1, 0.01)))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 0.005, errs
    assert errs[-1] < errs[0], errs
