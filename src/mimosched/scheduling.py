"""Round-robin user grouping rules.

Every rule consumes only the perceived (possibly misreported) state, never
the true channels, and returns a plan: an intp array of shape (T, K_B) whose
row t lists the members of block t, or a stack of plans along leading axes,
one per stacked input. Every plan orders all K users into T blocks of K_B.
Sorting ties break by user index.
"""
from __future__ import annotations

import numpy as np

from .core import DimensionError, DomainError, ScaleError, SystemParams


def _blocks(order: np.ndarray, p: SystemParams) -> np.ndarray:
    return order.astype(np.intp, copy=False).reshape(*order.shape[:-1], p.T, p.K_B)


def _users(values, p: SystemParams, name: str) -> np.ndarray:
    """``values`` as float64, checked to hold one entry per user on its last axis."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1:] != (p.K,):
        raise DimensionError(f"{name} must have K={p.K} users on the last axis, "
                             f"got shape {values.shape}")
    return values


def _sorted_blocks(values: np.ndarray, p: SystemParams) -> np.ndarray:
    # stable: ties fall back to ascending user index
    return _blocks(np.argsort(-values, axis=-1, kind="stable"), p)


def group_by_magnitude(mags, p: SystemParams) -> np.ndarray:
    """Strongest reported instantaneous magnitudes first, blocks of K_B.

    ``mags`` holds (..., K) reported magnitudes; the (..., T, K_B) plans of
    every stacked row come from one sort.
    """
    return _sorted_blocks(_users(mags, p, "reported magnitudes"), p)


def group_by_large_scale(reported_beta, p: SystemParams) -> np.ndarray:
    """Same ordering rule, keyed on (..., K) reported large-scale gains."""
    return _sorted_blocks(_users(reported_beta, p, "reported_beta"), p)


def group_randomly(p: SystemParams, rng: np.random.Generator) -> np.ndarray:
    """Uniform random partition; every user is equally likely in any block."""
    return _blocks(rng.permutation(p.K), p)


def same_grouping(a, b) -> bool:
    """True when plans ``a`` and ``b`` place the same users in the same blocks.

    Block order counts; within-block order is presentation only and is
    ignored here.
    """
    return np.array_equal(np.sort(a, axis=-1), np.sort(b, axis=-1))


def _norm(rows: np.ndarray) -> np.ndarray:
    # np.linalg.norm of each complex row, computed as it computes one row
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def group_by_sus(mags, gains, scale, p: SystemParams, alpha: float = 0.3) -> np.ndarray:
    """Greedy semi-orthogonal selection on the reported channel rows.

    Each block is seeded with the strongest remaining reported magnitude,
    then grown by the candidate with the largest squared component orthogonal
    to the span of the current members, restricted to candidates whose
    normalized projection onto that span stays below alpha. When no candidate
    qualifies before the block is full, alpha is doubled and the filter is
    retried. Ties go to the lower user index. Deterministic; block order
    follows selection order.

    ``mags`` holds (..., K) reported magnitudes. The reported rows are the
    false matrix of ``gains`` (..., K, M) under multipliers ``scale``
    (..., K), both broadcast to the leading axes of ``mags``. Returns the
    (..., T, K_B) plans; every stacked row is grouped together with the
    others, each on its own. A scale that is not positive and finite is a
    ScaleError.
    """
    scale = np.asarray(scale, dtype=np.float64)
    if not np.all((scale > 0) & (scale < np.inf)):
        raise ScaleError("misreport scale factors must be positive and finite")
    mags = _users(mags, p, "reported magnitudes")
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if np.broadcast_shapes(np.shape(gains)[:-1], scale.shape) != mags.shape:
        raise DimensionError(f"reported rows {np.shape(gains)} do not match magnitudes {mags.shape}")
    lead, stack = mags.shape[:-1], mags.shape[:-1] or (1,)
    gains, scale = np.broadcast_to(gains, stack + (p.K, p.M)), np.broadcast_to(scale, stack + (p.K,))
    mags = mags.reshape(-1, p.K)
    n, at = len(mags), np.arange(len(mags))[:, None]
    ix = np.unravel_index(at, stack)
    # every value is rounded as a one-row loop rounds it (vecdot is vdot per row,
    # float_power(hypot(c), 2) is a scalar's abs(c) ** 2, _norm is linalg.norm)
    # and summed in the same order, so rank-deficient near-ties resolve alike
    free = np.ones((n, p.K), dtype=bool)
    groups = np.empty((n, p.T, p.K_B), dtype=np.intp)
    for t in range(p.T):
        # a block scores only the free users, in user order, on false rows built in
        # place; open marks those not yet picked. basis[:, j] is member j's unit
        # residual, or zero where it added no direction: a zero row adds exactly 0
        # to every sum below. coef[:, j] keeps each candidate's projection on it
        users = np.nonzero(free)[1].reshape(n, -1)
        cand = gains[(*ix, users)]
        cand *= np.sqrt(scale[(*ix, users)])[..., None]
        f2 = np.vecdot(cand, cand).real if t == 0 else f2
        cf2, open_ = f2[at, users], np.ones(users.shape, dtype=bool)
        basis = np.zeros((n, p.K_B, p.M), dtype=np.complex128)
        coef = np.zeros((n, p.K_B, users.shape[1]), dtype=np.complex128)
        proj2 = np.zeros(users.shape)
        size = np.zeros(n, dtype=np.intp)
        thresh = np.full(n, float(alpha))
        # seed with the strongest reported magnitude still unscheduled
        s, pick = np.arange(n), np.argmax(mags[at, users], axis=1)
        while True:
            k = size[s]
            open_[s, pick] = False
            groups[s, t, k] = users[s, pick]
            size[s] += 1
            growing = size < p.K_B
            if not growing.any():
                break
            f, cs = cand[s, pick], coef[s, :, pick]
            resid = f - sum(cs[:, j, None] * basis[s, j] for j in range(k.max(initial=0)))
            rn = _norm(resid)
            keep = rn > 1e-12 * _norm(f)
            q = np.zeros((n, p.M), dtype=np.complex128)
            q[s] = basis[s, k] = np.divide(resid, rn[:, None], out=np.zeros_like(resid),
                                           where=keep[:, None])
            c = np.vecdot(q[:, None, :], cand)
            coef[s, k] = c[s]
            proj2 += np.float_power(np.hypot(c.real, c.imag), 2)
            frac = np.sqrt(np.divide(proj2, cf2, out=np.zeros_like(cf2), where=cf2 > 0))
            score = np.where(open_ & (frac < thresh[:, None]), np.maximum(cf2 - proj2, 0.0), -1.0)
            best = np.argmax(score, axis=1)
            found = score.max(axis=1) >= 0.0
            thresh[growing & ~found] *= 2.0
            s = np.flatnonzero(growing & found)
            pick = best[s]
        free[at, users] = open_
        del cand                                # before the next block gathers its rows
    return groups.reshape(*lead, p.T, p.K_B)
