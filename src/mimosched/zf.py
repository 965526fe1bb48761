"""Zero-forcing precoding and max-min power control for stacks of resource blocks.

For a block channel matrix G (K_B x M rows g_k), the precoder is
W = G^H (G G^H)^{-1} with columns w_k normalized implicitly by the power
control. The effective gain of user k is d_k^2 = 1 / ||w_k||^2, which equals
1 / [(G G^H)^{-1}]_{kk}: a block needs only its Gram matrix G G^H. Max-min
power control equalizes every member's SNR at P / (noise * sum_j 1/d_j^2).
Each function takes one block or a stack along leading axes, all at once.
"""
from __future__ import annotations

import numpy as np

from .core import (
    DimensionError,
    DomainError,
    SingularMatrixError,
    SystemParams,
    _is_real,
)

COND_LIMIT = 1e10


def _check_conditioning(gram: np.ndarray) -> None:
    """Raise SingularMatrixError naming the first block whose Gram matrix is ill-conditioned.

    The message names the block by its last stack index; ``index`` is its full stack index.
    """
    w = np.linalg.eigvalsh(gram)
    lo, hi = w[..., 0], w[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.atleast_1d(np.where(lo > 0, hi / lo, np.inf))
    bad = np.flatnonzero(~(cond <= COND_LIMIT))
    if bad.size:
        index = tuple(int(i) for i in np.unravel_index(bad[0], cond.shape))
        err = SingularMatrixError(f"block {index[-1]}: Gram matrix condition number "
                                  f"{cond[index]:.3g} exceeds {COND_LIMIT:g}")
        err.index = index
        raise err


def _gram_inverse_diag(gram: np.ndarray) -> np.ndarray:
    """diag(gram^{-1}) of each block via Cholesky, with a conditioning guard."""
    # the eigenvalue check runs only where Cholesky fails (far past the limit)
    # or where cond(G) <= tr G * tr G^-1 is large. Near the limit both sides
    # carry rounding of about cond * eps = 1e-6, more than the bound's lead of
    # 2 / cond at K_B = 2, so the gate sits at half the limit
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        _check_conditioning(gram)
        raise
    # G^{-1} = L^{-H} L^{-1}, so [G^{-1}]_kk is the squared norm of column k of L^{-1}
    inv_chol = np.linalg.inv(chol)
    diag = np.einsum("...jk,...jk->...k", inv_chol, inv_chol.conj()).real
    if not np.all(np.einsum("...kk->...", gram).real * diag.sum(axis=-1) <= COND_LIMIT / 2):
        _check_conditioning(gram)
    return diag


def zf_effective_gains(gram: np.ndarray) -> np.ndarray:
    """Effective zero-forcing gains d_k^2 of blocks given by their Gram matrices.

    gram: (..., K_B, K_B) Hermitian Gram matrices G G^H of (K_B, M) block
    rows, read from their lower triangles; returns (..., K_B).
    """
    gram = np.asarray(gram, dtype=np.complex128)
    if gram.ndim < 2 or gram.shape[-1] != gram.shape[-2] or gram.shape[-1] < 1:
        raise DimensionError(f"need (..., K_B, K_B) Gram matrices, got shape {gram.shape}")
    return 1.0 / _gram_inverse_diag(gram)


def maxmin_power(eff_gain: np.ndarray, P, noise_var: float):
    """Split power P so every member's SNR is equal, using all of P.

    eff_gain: (..., K_B). P is one power for every block, or an array over
    the leading axes of eff_gain, e.g. (E,) for an (E, T, K_B) stack, whose
    entry P[e] powers every block of eff_gain[e]; a length-1 leading axis
    of eff_gain is shared by every power along it, so (W,) powers of one
    (1, E, T, K_B) stack reduce its gains once. Returns (powers, snr):
    P_k = P * (1/d_k^2) / sum_j (1/d_j^2), shape (..., K_B), and each
    block's common snr = P / (noise_var * sum_j 1/d_j^2), shape (...);
    noise_var is one real number, numpy's scalars included.
    """
    eff_gain = np.asarray(eff_gain, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if P.ndim >= max(eff_gain.ndim, 1) or not all(
            g in (1, n) for g, n in zip(eff_gain.shape, P.shape)):
        raise DimensionError(f"P {P.shape} does not index the blocks of gains {eff_gain.shape}")
    if not np.all(eff_gain > 0):
        raise DomainError("effective gains must be strictly positive")
    if not (np.all((P > 0) & (P < np.inf)) and _is_real(noise_var) and 0 < noise_var < np.inf):
        raise DomainError("P and noise_var must be positive and finite, and noise_var one real number")
    P = P.reshape(P.shape + (1,) * (eff_gain.ndim - 1 - P.ndim))
    inv = 1.0 / eff_gain
    total = inv.sum(axis=-1)
    powers = P[..., None] * inv / total[..., None]
    snr = P / (noise_var * total)
    return powers, snr


def evaluate_block(gram: np.ndarray, scale: np.ndarray, block_of, p: SystemParams,
                   P=None) -> np.ndarray:
    """Serve stacked blocks with power allocated from the reported CSI; return actual rates.

    gram: (U, ..., K_B, K_B) true Gram matrices of U distinct blocks (or
    stacks), each factorized once. block_of is an integer array of any shape
    S indexing gram; entry i runs on gram[block_of[i]], members in row order,
    with their (..., K_B) misreport multipliers scale[i], so scale has shape
    S + gram.shape[1:-1]. P is one transmit power or an array of powers (p.P
    when None), each applied to every entry. Returns each member's block
    rate at each power, shaped P.shape + scale.shape.

    The base station beamforms and splits power using the misreported rows
    sqrt(scale_k) g_k. Misreporting rescales magnitudes only, so the
    direction part of the precoder is unchanged: the base station's gain of
    member k is scale_k * d_k^2, with d_k^2 from one factorization of the
    true Gram, and member k's actual SNR is snr_bs / scale_k. Honest members
    get exactly the SNR the base station intended, misreporters get it
    divided by their own scale factor.
    """
    scale = np.asarray(scale, dtype=np.float64)
    if gram.shape[-2:] != (p.K_B,) * 2 or scale.shape != np.shape(block_of) + gram.shape[1:-1]:
        raise DimensionError(f"Grams {gram.shape} (K_B={p.K_B}) do not match scales {scale.shape}")
    P = np.asarray(p.P if P is None else P, dtype=np.float64)
    gains = scale * zf_effective_gains(gram)[block_of]
    _, snr_bs = maxmin_power(gains.reshape((1,) * P.ndim + gains.shape), P, p.noise_var)
    return np.log2(1.0 + snr_bs[..., None] / scale)
