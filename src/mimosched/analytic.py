"""Closed-form rate and loss expressions in the many-antenna regime.

Channel hardening makes ||g_k||^2 concentrate around its Gamma(M, beta) mean,
which turns the equalized-SNR rate of a block into deterministic expressions:
a single block of K users with K_M of them rescaling their reports by delta
has per-user rate

    accurate:   log2(1 + snr * beta * (M - K) / K)
    misreport:  log2(1 + snr * beta * (M - K) / (K - K_M + K_M / delta))

and the round-robin magnitude scheduler adds order-statistic corrections
because each block serves a magnitude-ranked slice of the population.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, xlogy
from scipy.stats import gamma as gamma_dist

from .core import CountError, DomainError, QuadratureError, RegimeError, SystemParams

_TAIL = 1e-12          # quantile mass ignored on each side of the integral
_QUAD_ORDERS = (128, 192, 384, 768, 1536)  # Gauss-Legendre order ladder
_QUAD_TOL = 1e-8       # two successive orders this close (relative) end the ladder
_QUAD_FAIL = 1e-6      # a top-order difference above this raises QuadratureError


def _check_rate_args(M: int, K: int, snr: float, beta: float) -> None:
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    if M <= K:
        raise DomainError(f"closed forms require M > K, got M={M}, K={K}")
    if not 0 < snr < np.inf:
        raise DomainError(f"snr must be positive and finite, got {snr}")
    if not 0 < beta < np.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")


def rate_accurate_single_block(M: int, K: int, snr: float, beta: float = 1.0) -> float:
    """Hardened per-user rate of one honestly reported block of K users."""
    _check_rate_args(M, K, snr, beta)
    return float(np.log2(1.0 + snr * beta * (M - K) / K))


def rate_misreport_single_block(M: int, K: int, K_M: int, delta: float,
                                snr: float, beta: float = 1.0) -> float:
    """Honest-user rate of one block where K_M members rescale by delta.

    Underreporting (delta < 1) inflates the misreporters' power demand by
    1/delta, which the equalizing power control pays for out of everyone's
    SNR.
    """
    _check_rate_args(M, K, snr, beta)
    if not (0 <= K_M <= K):
        raise CountError(f"K_M must lie in [0, {K}], got {K_M}")
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    eff_users = K - K_M + K_M / delta
    return float(np.log2(1.0 + snr * beta * (M - K) / eff_users))


def loss_single_block(M: int, K: int, K_M: int, delta: float,
                      snr: float, beta: float = 1.0) -> float:
    """Fractional honest-user rate loss 1 - misreport/accurate for one block."""
    return 1.0 - (rate_misreport_single_block(M, K, K_M, delta, snr, beta)
                  / rate_accurate_single_block(M, K, snr, beta))


def loss_limits(M: int, K: int, K_M: int, delta: float,
                snr: float, beta: float = 1.0) -> dict:
    """Asymptotic single-block loss in the two SNR extremes.

    high_snr: log gains dominate, loss -> log2(K_M/(delta K)) / log2(snr beta (M-K)/K).
    low_snr: SNR ratio dominates and, for K_M/delta >> K - K_M, loss -> 1 - delta K / K_M.
    The low-SNR form keeps only the misreporters' 1/delta power demand; it is
    loose when K - K_M is not negligible against K_M/delta.
    """
    _check_rate_args(M, K, snr, beta)
    if not (1 <= K_M <= K):
        raise CountError(f"limits need 1 <= K_M <= {K}, got {K_M}")
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    return {
        "high_snr": float(np.log2(K_M / (delta * K)) / np.log2(snr * beta * (M - K) / K)),
        "low_snr": float(1.0 - delta * K / K_M),
    }


def _log_orderstat_pdf(shape: int, scale: float, n: int, ranks: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """(ranks, x) log densities of the k-th smallest of n gamma draws, x > 0.

    log f_(k) = log(n! / ((k-1)! (n-k)!)) + (k-1) log F + (n-k) log(1-F) + log f
    with F and f the parent gamma CDF and PDF, evaluated once per x.
    """
    k, xs = ranks[:, None], x / scale
    log_comb = gammaln(n + 1) - gammaln(k) - gammaln(n - k + 1)
    log_parent = (shape - 1) * np.log(xs) - xs - gammaln(shape) - np.log(scale)
    return (log_comb + log_parent + xlogy(k - 1, gammainc(shape, xs))
            + xlogy(n - k, gammaincc(shape, xs)))


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple:
    """Nodes and weights on [-1, 1]; pure constants, so kept per order."""
    return np.polynomial.legendre.leggauss(order)


def _orderstat_moments(shape: int, scale: float, n: int, ranks: np.ndarray,
                       power: int = -1) -> np.ndarray:
    """E[X_(k)^power] of the k-th smallest of n Gamma(shape, scale) draws, each k in ranks.

    Gauss-Legendre on the parent range, which holds all but _TAIL parent
    mass on each side; shape >= 2 keeps 1/x integrable. Orders climb
    _QUAD_ORDERS, one (ranks, nodes) array each, until two agree within
    _QUAD_TOL on every rank; the finer is returned. QuadratureError on a
    value that is not finite and positive, or on a top-order difference
    above _QUAD_FAIL.
    """
    if shape < 2:
        raise DomainError("inverse moment needs shape >= 2 for integrability near 0")
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    if not np.all((1 <= ranks) & (ranks <= n)):
        raise DomainError(f"ranks must lie in [1, {n}], got {ranks}")
    lo, hi = gamma_dist.ppf([_TAIL, 1.0 - _TAIL], shape, scale=scale)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    where = f"for shape={shape}, scale={scale}, n={n}"
    prev = np.inf
    for order in _QUAD_ORDERS:
        t, w = _gauss_legendre(order)
        x = half * t + mid
        vals = np.exp(_log_orderstat_pdf(shape, scale, n, ranks, x)) @ (half * w * x**power)
        if not np.all(np.isfinite(vals) & (vals > 0)):
            raise QuadratureError(f"order-{order} quadrature not finite and positive {where}")
        rel = np.max(np.abs(vals - prev) / vals, initial=0.0)
        if rel <= _QUAD_TOL:
            return vals
        prev = vals
    if rel > _QUAD_FAIL:
        raise QuadratureError(f"order-statistic quadrature differs by {rel:g} (relative) "
                              f"between orders {_QUAD_ORDERS[-2]} and {order} {where}")
    return vals


def _check_underreport(delta: float) -> None:
    # eq17 and eq21 let the misreporters sink to the last block, which only
    # underreporting does; delta = 1 is taken as the delta -> 1- limit
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if delta > 1:
        raise RegimeError(f"closed form covers underreporting, delta <= 1, got delta={delta}")


def prop3_terms(p: SystemParams, K_M: int, delta: float, beta: float = 1.0) -> dict:
    """Ingredient rates for the round-robin magnitude-scheduler loss.

    R_a_rand: hardened per-user rate of a uniformly composed block of K_B.
    A_T_a / R_aCM_T: summed inverse moments of the K_B smallest magnitudes
    out of K, and the corresponding last-block rate under honest reporting.
    A_T_m / R_mCM_T: same for the attacked last block, where K_M deflated
    misreporters displace the weakest honest users (sample size K - K_M).
    """
    if K_M > p.K_B:
        raise RegimeError(
            f"closed form covers K_M <= K_B, got K_M={K_M}, K_B={p.K_B}")
    if K_M < 0:
        raise CountError(f"K_M must be >= 0, got {K_M}")
    _check_rate_args(p.M, p.K_B, p.snr, beta)
    _check_underreport(delta)
    M, K, K_B, snr = p.M, p.K, p.K_B, p.snr
    a_t_a = _orderstat_moments(M, beta, K, np.arange(1, K_B + 1)).sum()
    a_t_m = K_M / (delta * beta * (M - 1)) + _orderstat_moments(
        M, beta, K - K_M, np.arange(1, K_B - K_M + 1)).sum()
    r_a_t, r_m_t = (np.log2(1.0 + snr * (M - K_B) / ((M - 1) * a)) for a in (a_t_a, a_t_m))
    return {"R_a_rand": float(np.log2(1.0 + snr * beta * (M - K_B) / K_B)),
            "R_aCM_T": float(r_a_t), "R_mCM_T": float(r_m_t),
            "A_T_a": float(a_t_a), "A_T_m": float(a_t_m)}


def loss_rr_cm(p: SystemParams, K_M: int, delta: float, beta: float = 1.0) -> float:
    """Honest-user loss under magnitude-ranked round robin, K_M <= K_B, delta <= 1.

    Underreporters sink to the last block, so the first T-1 blocks shed their
    weakest members (a gain, the negative first term) while the last block
    pays the misreporters' inflated power demand. Overreporters (delta > 1)
    rise instead, so delta > 1 raises RegimeError; delta = 1 is the
    delta -> 1- limit.
    """
    t = prop3_terms(p, K_M, delta, beta)
    T, K, K_B = p.T, p.K, p.K_B
    if K_M >= K:
        raise CountError(f"need at least one honest user, got K_M={K_M}, K={K}")
    return (
        -K_M * (T - 1) / (T * (K - K_M))
        + t["R_aCM_T"] / (T * t["R_a_rand"])
        - (K_B - K_M) * t["R_mCM_T"] / ((K - K_M) * t["R_a_rand"])
    )


def loss_upper_bound(p: SystemParams, K_M: int, delta: float, beta: float = 1.0) -> float:
    """Simple bound on loss_rr_cm: only the last block is assumed to suffer.

    (K_B - K_M) / (K - K_M) of the honest users sit in the infected block and
    each loses at most the single-block fraction with K -> K_B. Exact at the
    endpoints: equals the random-scheduler loss at K_M = 1 and 0 at K_M = K_B.
    Like loss_rr_cm, it covers underreporting: RegimeError for delta > 1,
    delta = 1 accepted as the delta -> 1- limit.
    """
    if K_M > p.K_B:
        raise RegimeError(
            f"bound covers K_M <= K_B, got K_M={K_M}, K_B={p.K_B}")
    if not (1 <= K_M <= p.K_B):
        raise CountError(f"K_M must lie in [1, {p.K_B}], got {K_M}")
    _check_underreport(delta)
    frac = (p.K_B - K_M) / (p.K - K_M)
    return frac * loss_single_block(p.M, p.K_B, K_M, delta, p.snr, beta)


def rate_heterogeneous_block(M: int, K_B: int, snr: float, betas_in_block) -> float:
    """Hardened common rate of one block with unequal large-scale gains.

    Max-min power control equalizes members at
    log2(1 + snr * (M - K_B) / sum_k 1/beta_k); weak members dominate the sum.
    """
    betas = np.asarray(betas_in_block, dtype=np.float64)
    if betas.ndim != 1 or betas.shape[0] != K_B:
        raise DomainError(f"betas_in_block must have shape ({K_B},), got {betas.shape}")
    if M <= K_B:
        raise DomainError(f"closed form requires M > K_B, got M={M}, K_B={K_B}")
    if not np.all(betas > 0):
        raise DomainError("every large-scale gain must be positive")
    if not snr > 0:
        raise DomainError(f"snr must be positive, got {snr}")
    return float(np.log2(1.0 + snr * (M - K_B) / (1.0 / betas).sum()))
