"""Misreport profile constructors.

Heterogeneous strategies take the large-scale vector already sorted strongest
first (user index equals rank). Each constructor returns a MisreportProfile
whose scale factors are reported_beta / true_beta, so instantaneous magnitude
reports and large-scale reports tell the scheduler the same story.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    CountError,
    DomainError,
    MisreportProfile,
    RangeError,
    ScaleError,
    SimulationError,
    SystemParams,
)
from . import scheduling


def honest_profile(betas: np.ndarray) -> MisreportProfile:
    """Everyone reports truthfully."""
    betas = np.asarray(betas, dtype=np.float64)
    return MisreportProfile(
        scale=np.ones_like(betas), reported_beta=betas.copy(), strategy_tag="none")


def homogeneous_uniform(p: SystemParams, K_M: int, delta: float) -> MisreportProfile:
    """Users 0..K_M-1 rescale their reports by a common factor delta.

    The homogeneous population makes the choice of which users misreport
    irrelevant; the first K_M are used by convention.
    """
    if not (0 <= K_M <= p.K):
        raise CountError(f"K_M must lie in [0, {p.K}], got {K_M}")
    if not delta > 0:
        raise ScaleError(f"delta must be positive, got {delta}")
    scale = np.ones(p.K)
    scale[:K_M] = delta
    betas = np.full(p.K, p.beta_default)
    return MisreportProfile(
        scale=scale, reported_beta=scale * betas, strategy_tag="homogeneous_uniform")


def _check_sorted_betas(betas: np.ndarray, K_M: int) -> np.ndarray:
    """``betas`` as float64, checked to be sorted strongest first, with 1 <= K_M <= K."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim != 1 or betas.shape[0] < 1:
        raise DomainError("betas must be a nonempty 1-D vector")
    if not np.all(betas > 0):
        raise DomainError("every large-scale gain must be positive")
    if np.any(np.diff(betas) >= 0):
        raise DomainError("betas must be sorted strictly descending (relabeled by rank)")
    if not (1 <= K_M <= betas.shape[0]):
        raise CountError(f"K_M must lie in [1, {betas.shape[0]}], got {K_M}")
    return betas


def _claiming(betas: np.ndarray, reported: np.ndarray, tag: str) -> MisreportProfile:
    """The profile whose users claim ``reported``: scale reported / betas."""
    return MisreportProfile(scale=reported / betas, reported_beta=reported, strategy_tag=tag)


def grouping_changed_under(betas: np.ndarray, K_M: int, beta_low: float | None = None) -> MisreportProfile:
    """The K_M strongest users underreport below everyone, demoting themselves.

    They all claim beta_low (default: half the weakest user's gain), so the
    large-scale scheduler pushes them into the final blocks and every honest
    user shifts K_M ranks upward.
    """
    betas = _check_sorted_betas(betas, K_M)
    if beta_low is None:
        beta_low = betas[-1] / 2.0
    if not 0 < beta_low < betas[-1]:
        raise RangeError(
            f"beta_low must lie in (0, {betas[-1]!r}) to sort below every honest user")
    reported = betas.copy()
    reported[:K_M] = beta_low
    return _claiming(betas, reported, "grouping_changed_under")


def grouping_changed_over(betas: np.ndarray, K_M: int, beta_high: float | None = None) -> MisreportProfile:
    """The K_M weakest users overreport above everyone, promoting themselves."""
    betas = _check_sorted_betas(betas, K_M)
    if beta_high is None:
        beta_high = 2.0 * betas[0]
    if not beta_high > betas[0]:
        raise RangeError(
            f"beta_high must exceed {betas[0]!r} to sort above every honest user")
    reported = betas.copy()
    reported[-K_M:] = beta_high          # K_M >= 1, checked above
    return _claiming(betas, reported, "grouping_changed_over")


def grouping_unchanged_under(betas: np.ndarray, p: SystemParams, K_M: int,
                             beta_low: float | None = None) -> MisreportProfile:
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
    """
    K_B, T = p.K_B, p.T
    if np.shape(betas) != (p.K,):
        raise DomainError(f"betas must have shape ({p.K},), got {np.shape(betas)}")
    betas = _check_sorted_betas(betas, K_M)
    if beta_low is None:
        beta_low = betas[-1] / 2.0
    if not 0 < beta_low < betas[-1]:
        raise RangeError(
            f"beta_low must lie in (0, {betas[-1]!r}) to sort below every honest user")

    reported = betas.copy()
    recruits: dict[int, list[int]] = {t: [] for t in range(1, T + 1)}
    for m in range(1, K_M + 1):
        t = m % T
        if t == 0:
            t = T
        i_m = (t - 1) * K_B + math.ceil(m / T) - 1
        recruits[t].append(i_m)
        if t < T:
            if recruits[t + 1]:
                val = betas[recruits[t + 1][-1]]
            else:
                val = (betas[t * K_B - 1] + betas[t * K_B]) / 2.0
            reported[recruits[t]] = val
            if t > 1:
                reported[recruits[t - 1]] = betas[i_m]
        else:
            reported[recruits[T]] = beta_low
            if T > 1:
                reported[recruits[T - 1]] = betas[i_m]

    profile = _claiming(betas, reported, "grouping_unchanged_under")
    # defining postcondition: the large-scale scheduler must not notice
    honest_plan = scheduling.group_by_large_scale(betas, p)
    reported_plan = scheduling.group_by_large_scale(reported, p)
    if not scheduling.same_grouping(honest_plan, reported_plan):
        raise SimulationError(
            "internal error: grouping-preserving misreport changed the grouping")
    return profile
