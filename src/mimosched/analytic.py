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

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import CountError, DomainError, QuadratureError, RegimeError, SystemParams

_TAIL = 1e-12          # quantile mass ignored on each side of the integral
_QUAD_ORDERS = (128, 192, 384, 768, 1536)  # Gauss-Legendre order ladder
_QUAD_TABLE = Path(__file__).with_name("gauss_legendre.npy")
_QUAD_TOL = 1e-8       # two successive orders this close (relative) end the ladder
_QUAD_FAIL = 1e-6      # a top-order difference or missing rank mass above this raises QuadratureError
_Z_TAIL = 7.034483825301131  # standard normal 1 - _TAIL quantile: the first quantile guess
# Stirling's series of log(a!) - (a + 1/2) log a + a - log(2 pi) / 2 in powers 1/a, 1/a^3, ...
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


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
    if not 0 < delta < np.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")
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
    if not 0 < delta < np.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")
    return {
        "high_snr": float(np.log2(K_M / (delta * K)) / np.log2(snr * beta * (M - K) / K)),
        "low_snr": float(1.0 - delta * K / K_M),
    }


@lru_cache(maxsize=None)
def _series_terms(a: int) -> tuple:
    """What _log_gamma_cdfs shares across x at shape a: log(a^a e^-a / a!), the exponents
    j = 1..J and the (J, 2) factors prod_{i<=j} (a - i) / a and prod_{i<=j} a / (a + i).

    The log term is the exact ratio's below a = 10 and Stirling's series from
    there on, to about 1e-16, where a log a - a - lgamma(a + 1) cancels terms
    near a log a. J = 9 sqrt(a) + 19 leaves out under 2^-56 of either sum on its
    side of the median: the terms fall like exp(-j^2 / 2a).
    """
    if a < 10:
        log_mode = math.log(a**a / math.factorial(a)) - a
    else:
        log_mode = -0.5 * math.log(2.0 * math.pi * a) - sum(
            c / a ** (2 * i + 1) for i, c in enumerate(_STIRLING))
    j = np.arange(1.0, 9.0 * math.sqrt(a) + 20.0)
    return log_mode, j, np.stack([np.cumprod((a - j) / a), np.cumprod(a / (a + j))], 1)


def _log_gamma_cdfs(a: int, x: np.ndarray) -> tuple:
    """log P(a, x), log Q(a, x) and log f(x) of Gamma(a, 1), for an integer a >= 2 and x > 0.

    With l = log(x / a) (as log1p((x - a) / a) from x = a / 2 up), the density
    f = x^(a-1) e^-x / (a-1)! is exp((a - 1) l - (x - a)) times the mode term
    a^a e^-a / a!, with no large logs to cancel. Below x = a - 1/3, under the
    median, P = x f / a * (1 + sum_j (x / a)^j prod_{i<=j} a / (a + i)); from there
    up, Q = f * (1 + sum_{j<a} (a / x)^j prod_{i<=j} (a - i) / a), a finite sum.
    Both are sums of positive terms; the other side is log1p(-P) or log1p(-Q).
    """
    log_mode, j, factors = _series_terms(a)
    low = x < a - 1.0 / 3.0
    ell = np.where(x < 0.5 * a, np.log(x / a), np.log1p((x - a) / a))
    log_f = (a - 1) * ell - (x - a) + log_mode
    # (x, 2) sums of both series at every x; each x reads its own side's
    sums = np.log1p(np.exp(np.multiply.outer(np.where(low, ell, -ell), j)) @ factors)
    near = log_f + np.where(low, ell + sums[:, 1], sums[:, 0])    # log P below, log Q above
    far = np.log1p(-np.exp(near))
    return np.where(low, near, far), np.where(low, far, near), log_f


@lru_cache(maxsize=None)
def _tail_quantiles(a: int) -> np.ndarray:
    """The _TAIL and 1 - _TAIL quantiles of Gamma(a, 1), for an integer a >= 2.

    Halley's method on log x for log P = log _TAIL and log Q = log(1 - (1 - _TAIL)),
    from Wilson-Hilferty's guess (the lower one no less than the root of P's
    leading term x^a / a!, which lies under it), until a step is under 1e-10.
    """
    target = np.log([_TAIL, 1.0 - (1.0 - _TAIL)])
    x = a * (1.0 - 1.0 / (9 * a) + np.array([-_Z_TAIL, _Z_TAIL]) / (3.0 * math.sqrt(a)))**3
    x[0] = max(x[0], math.exp((target[0] + math.lgamma(a + 1)) / a))
    for _ in range(20):
        log_p, log_q, log_f = _log_gamma_cdfs(a, x)
        g = np.array([log_p[0], log_q[1]])
        slope = np.exp(log_f + np.log(x) - g) * [1.0, -1.0]      # dg / dlog x
        step = (g - target) / slope
        step /= 1.0 - 0.5 * step * (a - x - slope)               # d2g / dlog x2 = slope (a - x - slope)
        x += x * np.expm1(-step)                                 # x e^-step, in x's precision
        if np.all(np.abs(step) < 1e-10):
            x.flags.writeable = False
            return x
    raise QuadratureError(f"the tail quantiles of Gamma({a}) did not converge")


@lru_cache(maxsize=64)
def _parent_nodes(shape: int, scale: float, order: int) -> tuple:
    """The order-``order`` Gauss-Legendre nodes x on Gamma(shape, scale)'s range, their
    weights, and log P, log Q and log f there: shared by every n and rank of that parent."""
    lo, hi = _tail_quantiles(shape) * scale
    t, w = _gauss_legendre(order)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    x = half * t + mid
    log_p, log_q, log_f = _log_gamma_cdfs(shape, x / scale)
    out = x, half * w, log_p, log_q, log_f - math.log(scale)
    for a in out:
        a.flags.writeable = False     # every caller gets these very arrays
    return out[0], out[1], out[2:]


def _log_rank_densities(n: int, ranks: np.ndarray, log_p: np.ndarray, log_q: np.ndarray,
                        log_f: np.ndarray) -> np.ndarray:
    """(ranks, x) log densities of the k-th smallest of n draws, from the parent's log CDF
    log_p, log survival log_q and log density log_f at each x:

    log f_(k) = log(n! / ((k-1)! (n-k)!)) + (k-1) log F + (n-k) log(1-F) + log f
    """
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(n - k + 1)
                         for k in ranks.tolist()])
    k = ranks[:, None]
    # every log P and log Q is finite, so k = 1 and k = n give exact zeros
    return log_comb[:, None] + log_f + (k - 1) * log_p + (n - k) * log_q


@lru_cache(maxsize=None)
def _quad_table() -> np.ndarray:
    """The package's (2, sum of _QUAD_ORDERS) node table, read once per process."""
    table = np.load(_QUAD_TABLE)
    table.flags.writeable = False     # every order's nodes are views of it
    return table


def _gauss_legendre(order: int) -> tuple:
    """Nodes and weights on [-1, 1]: leggauss(order)'s bits, sliced from the node table,
    which holds each of _QUAD_ORDERS in turn, not computed per process."""
    lo = sum(_QUAD_ORDERS[:_QUAD_ORDERS.index(order)])
    return tuple(_quad_table()[:, lo:lo + order])


def _orderstat_moments(shape: int, scale: float, n: int, ranks: np.ndarray,
                       power: int = -1) -> np.ndarray:
    """E[X_(k)^power] of the k-th smallest of n Gamma(shape, scale) draws, each k in ranks.

    Gauss-Legendre on the parent range, which holds all but _TAIL parent
    mass on each side; shape >= 2 keeps 1/x integrable. Orders climb
    _QUAD_ORDERS, one (ranks, nodes) array each, until two agree within
    _QUAD_TOL on every rank and every rank's mass on the range is within
    _QUAD_FAIL of 1; the finer is returned. QuadratureError on a value that
    is not finite and positive, or at the top order on a difference or a
    missing mass above _QUAD_FAIL: the cut leaves out up to 2e-12 * n of a
    rank's mass, which is most of it once n nears 1e12.
    """
    if shape < 2:
        raise DomainError("inverse moment needs shape >= 2 for integrability near 0")
    if shape % 1 != 0:
        raise DomainError(f"shape must be an integer antenna count, got {shape}")
    shape = int(shape)
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    if not np.all((1 <= ranks) & (ranks <= n)):
        raise DomainError(f"ranks must lie in [1, {n}], got {ranks}")
    where = f"for shape={shape}, scale={scale}, n={n}"
    prev = np.inf
    for order in _QUAD_ORDERS:
        x, w, logs = _parent_nodes(shape, float(scale), order)
        dens = np.exp(_log_rank_densities(n, ranks, *logs))
        vals = dens @ (w * x**power)
        if not np.all(np.isfinite(vals) & (vals > 0)):
            raise QuadratureError(f"order-{order} quadrature not finite and positive {where}")
        rel = np.max(np.abs(vals - prev) / vals, initial=0.0)
        miss = np.max(np.abs(1.0 - dens @ w), initial=0.0)
        if rel <= _QUAD_TOL and miss <= _QUAD_FAIL:
            return vals
        prev = vals
    if rel > _QUAD_FAIL or miss > _QUAD_FAIL:
        raise QuadratureError(f"order-statistic quadrature differs by {rel:g} (relative) "
                              f"between orders {_QUAD_ORDERS[-2]} and {order}, and by "
                              f"{miss:g} from unit rank mass, {where}")
    return vals


def _check_underreport(delta: float) -> None:
    # eq17 and eq21 let the misreporters sink to the last block, which only
    # underreporting does; delta = 1 is taken as the delta -> 1- limit
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if delta > 1:
        raise RegimeError(f"closed form covers underreporting, delta <= 1, got delta={delta}")


@lru_cache(maxsize=None)
def _inverse_moment_sum(shape: int, scale: float, n: int, k: int) -> float:
    """sum_{i <= k} E[1 / X_(i)] of n Gamma(shape, scale) draws; every sweep point repeats it."""
    return _orderstat_moments(shape, scale, n, np.arange(1, k + 1)).sum()


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
    a_t_a = _inverse_moment_sum(M, float(beta), K, K_B)
    a_t_m = K_M / (delta * beta * (M - 1)) + _inverse_moment_sum(M, float(beta), K - K_M, K_B - K_M)
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
    if not np.all((betas > 0) & (betas < np.inf)):
        raise DomainError("every large-scale gain must be positive and finite")
    if not 0 < snr < np.inf:
        raise DomainError(f"snr must be positive and finite, got {snr}")
    return float(np.log2(1.0 + snr * (M - K_B) / (1.0 / betas).sum()))
