"""Misreport profile constructors, one array kernel per strategy.

Each constructor takes the (F,) misreporter counts K_M of a drop's profiles
and returns their (F, K) scale factors and reported large-scale gains in one
call, one row per count. Heterogeneous strategies take the large-scale
vector already sorted strongest first (user index equals rank); their scale
factors are reported_beta / true_beta, so instantaneous magnitude reports and
large-scale reports tell the scheduler the same story.
"""
from __future__ import annotations

import numpy as np

from .core import (
    CountError,
    DimensionError,
    DomainError,
    RangeError,
    ScaleError,
    SimulationError,
    SystemParams,
)
from . import scheduling


def _counts(counts, lo: int, hi: int) -> np.ndarray:
    """``counts`` as a 1-D intp array, checked to lie in [lo, hi]."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or not np.issubdtype(counts.dtype, np.integer):
        raise DimensionError(f"misreporter counts must be a 1-D integer array, got {counts!r}")
    if not np.all((lo <= counts) & (counts <= hi)):
        raise CountError(f"K_M must lie in [{lo}, {hi}], got {counts.tolist()}")
    return counts.astype(np.intp, copy=False)


def honest_profile(betas: np.ndarray, counts) -> tuple:
    """Everyone reports truthfully: unit scales and the true gains, one row per count."""
    betas = np.asarray(betas, dtype=np.float64)
    counts = _counts(counts, 0, betas.shape[-1])
    reported = np.repeat(betas[..., None, :], len(counts), axis=-2)
    return np.ones_like(reported), reported


def homogeneous_uniform(p: SystemParams, counts, delta: float) -> tuple:
    """Users 0..K_M-1 rescale their reports by a common factor delta.

    The homogeneous population makes the choice of which users misreport
    irrelevant; the first K_M are used by convention. Every user reports
    its scale times beta_default.
    """
    counts = _counts(counts, 0, p.K)
    if not delta > 0:
        raise ScaleError(f"delta must be positive, got {delta}")
    scale = np.where(np.arange(p.K) < counts[:, None], float(delta), 1.0)
    return scale, scale * p.beta_default


def _sorted_betas(betas: np.ndarray, counts) -> tuple:
    """(K,) or (D, K) ``betas`` as float64 (..., 1, K) rows, each checked to be sorted
    strongest first, and ``counts`` in [1, K]."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim not in (1, 2) or betas.shape[-1] < 1:
        raise DomainError("betas must be a nonempty (K,) vector or (D, K) stack")
    if not np.all(betas > 0):
        raise DomainError("every large-scale gain must be positive")
    if np.any(np.diff(betas, axis=-1) >= 0):
        raise DomainError("betas must be sorted strictly descending (relabeled by rank)")
    return betas[..., None, :], _counts(counts, 1, betas.shape[-1])


def _beta_low(betas: np.ndarray, beta_low) -> np.ndarray:
    """``beta_low``, one or one per drop, by default half the weakest gain, checked to sort
    below every user."""
    beta_low = betas[..., -1:] / 2.0 if beta_low is None else np.asarray(beta_low)[..., None, None]
    if not np.all((0 < beta_low) & (beta_low < betas[..., -1:])):
        raise RangeError(
            f"beta_low must lie in (0, {betas[..., 0, -1]!r}) to sort below every honest user")
    return beta_low


def grouping_changed_under(betas: np.ndarray, counts, beta_low: float | None = None) -> tuple:
    """The K_M strongest users underreport below everyone, demoting themselves.

    They all claim beta_low (default: half the weakest user's gain), so the
    large-scale scheduler pushes them into the final blocks and every honest
    user shifts K_M ranks upward.
    """
    betas, counts = _sorted_betas(betas, counts)
    reported = np.where(np.arange(betas.shape[-1]) < counts[:, None], _beta_low(betas, beta_low),
                        betas)
    return reported / betas, reported


def grouping_changed_over(betas: np.ndarray, counts, beta_high: float | None = None) -> tuple:
    """The K_M weakest users overreport above everyone, promoting themselves."""
    betas, counts = _sorted_betas(betas, counts)
    beta_high = 2.0 * betas[..., :1] if beta_high is None else np.asarray(beta_high)[..., None, None]
    if not np.all(beta_high > betas[..., :1]):
        raise RangeError(
            f"beta_high must exceed {betas[..., 0, 0]!r} to sort above every honest user")
    k = betas.shape[-1]
    reported = np.where(np.arange(k) >= k - counts[:, None], beta_high, betas)
    return reported / betas, reported


def grouping_unchanged_under(betas: np.ndarray, p: SystemParams, counts,
                             beta_low: float | None = None) -> tuple:
    """Underreporting chain that leaves the large-scale grouping untouched.

    Misreporters are added one at a time, cycling through the blocks and
    taking each block's strongest not-yet-recruited member. A new recruit in
    block t makes block t's misreporters report the true gain of the newest
    recruit one block below (or the midpoint of the gap to the next block
    while that block has no recruit; beta_low in the last block), and the
    block above is refreshed to report the new recruit's true gain. Reported
    values therefore interleave strictly between the honest neighbours, so
    sorting by reported gain reproduces the honest partition exactly while
    every recruit's power share is computed from a deflated gain.

    After K_M recruits each block's report follows from its recruit count
    and the next block's alone, so every count's row is read off directly.
    """
    K_B, T = p.K_B, p.T
    if np.shape(betas)[-1:] != (p.K,):
        raise DomainError(f"betas must have shape (..., {p.K}), got {np.shape(betas)}")
    betas, counts = _sorted_betas(betas, counts)
    beta_low = _beta_low(betas, beta_low)
    # recruit m joins block (m - 1) % T, so block t's recruits are its first
    # n[:, t] members; they report what block t + 1's recruits set, in the
    # last block beta_low
    n = (counts[:, None] - 1 - np.arange(T)) // T + 1
    below = np.where(n[:, 1:] > 0, betas[..., 0, K_B * np.arange(1, T) + n[:, 1:] - 1],
                     (betas[..., K_B - 1:-1:K_B] + betas[..., K_B::K_B]) / 2.0)
    value = np.concatenate([below, np.broadcast_to(beta_low, below.shape[:-1] + (1,))], axis=-1)
    recruited = (np.arange(K_B) < n[:, :, None]).reshape(-1, p.K)
    reported = np.where(recruited, value.repeat(K_B, axis=-1), betas)
    # defining postcondition: the large-scale scheduler must not notice
    plans = scheduling.group_by_large_scale(np.concatenate([betas, reported], axis=-2), p)
    honest, attacked = plans[..., :1, :, :], plans[..., 1:, :, :]
    if not scheduling.same_grouping(np.broadcast_to(honest, attacked.shape), attacked):
        raise SimulationError(
            "internal error: grouping-preserving misreport changed the grouping")
    return reported / betas, reported
