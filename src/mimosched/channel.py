"""Channel generation, reproducible randomness, and the misreported view.

Small-scale fading is i.i.d. complex normal per antenna; a user with
large-scale gain beta has channel entries CN(0, beta). Randomness comes from
counter-based substreams so a trial's draws depend only on (seed, stream_id),
never on execution order or worker count.

Misreporting rescales magnitudes only: user k reports scale[k] * ||g_k||^2,
and its false channel row is sqrt(scale[k]) * g_k, so every channel
direction stays untouched. The magnitude and misreport functions take a
stack of realizations along leading axes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.random at its first use; this loads it with the package,
# so a process forked after the import does not load it again
from numpy.random import Generator, Philox

from .core import DomainError, LargeScaleModel, ScaleError, SystemParams


@dataclass(frozen=True)
class RngStream:
    """Keyed random substream: same (seed, stream_id) -> same draws, always."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # a float or bool key would be truncated: 1.5 and True draw what 1 draws
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {v!r}")
        if not (0 <= self.seed < 2**64 and 0 <= self.stream_id < 2**64):
            raise DomainError(f"seed and stream_id must be in [0, 2**64), got {self.seed}, {self.stream_id}")

    def generator(self) -> Generator:
        return Generator(Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64)))

    def restart(self, rng: Generator) -> Generator:
        """Put the Philox generator ``rng`` at this stream's first draw and return it.

        It then draws what ``generator()`` draws, without the OS entropy that
        building a Philox pulls for a seed sequence its key never uses.
        """
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64),
                      "key": np.array([self.seed, self.stream_id], dtype=np.uint64)},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return rng


def draw_channels(p: SystemParams, betas: np.ndarray, rng: Generator) -> np.ndarray:
    r"""Draw one small-scale realization for all K users: the (K, M) gains.

    gains[k] = sqrt(betas[k]) * h_k with h_k i.i.d. CN(0, 1) per antenna, so
    ||gains[k]||^2 is Gamma(M, betas[k]) in shape-scale convention. The real
    parts are the first K * M normals drawn, the imaginary parts the next.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (p.K,):
        raise DomainError(f"betas must have shape ({p.K},), got {betas.shape}")
    if not np.all(betas > 0):
        raise DomainError("every large-scale gain must be positive")
    # scaled in real arithmetic, with the bits of the complex product and quotient
    z = rng.standard_normal((2, p.K, p.M))
    z *= 1.0 / np.sqrt(2.0)
    z *= np.sqrt(betas)[:, None]
    gains = np.empty((p.K, p.M), dtype=np.complex128)
    gains.real, gains.imag = z
    return gains


def channel_magnitudes(gains: np.ndarray) -> np.ndarray:
    """True squared channel norms ||g_k||^2 of (..., K, M) gains, shape (..., K).

    One einsum over the whole stack; each realization gets the bits its own
    (K, M) call gives.
    """
    return np.einsum("...km,...km->...k", gains, gains.conj()).real


def large_scale_coefficient(omega_db, distance, model: LargeScaleModel):
    """Pure large-scale formula: shadowing (dB) and distance to a gain."""
    return 10.0 ** (np.asarray(omega_db) / 10.0) / (
        1.0 + (np.asarray(distance) / model.ref_distance) ** model.path_loss_exp
    )


def draw_large_scale(p: SystemParams, m: LargeScaleModel, rng: Generator) -> np.ndarray:
    """Draw K large-scale gains and relabel users strongest-first.

    Distances are uniform in (0, cell_radius); shadowing is N(0, sigma^2) dB.
    The returned vector is sorted descending, so user index equals rank.
    """
    omega = rng.normal(0.0, m.shadow_sigma_db, p.K)
    dist = rng.uniform(0.0, m.cell_radius, p.K)
    beta = large_scale_coefficient(omega, dist, m)
    order = np.lexsort((np.arange(p.K), -beta))
    return beta[order]


def apply_misreport(magnitudes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The scheduler's view of (..., K) true magnitudes under F misreport profiles.

    scales is (F, K), one row of multipliers per profile; returns the
    (..., F, K) reported magnitudes scales[f, k] * magnitudes[..., k].
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    if scales.ndim != 2 or scales.shape[1:] != mags.shape[-1:]:
        raise DomainError(f"profiles {scales.shape} must be (F, K) for magnitudes {mags.shape}")
    if not np.all((scales > 0) & (scales < np.inf)):
        raise ScaleError("misreport scale factors must be positive and finite")
    return mags[..., None, :] * scales
