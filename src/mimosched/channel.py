"""Channel generation, reproducible randomness, and the misreported view.

Small-scale fading is i.i.d. complex normal per antenna; a user with
large-scale gain beta has channel entries CN(0, beta). Randomness comes from
counter-based substreams so a trial's draws depend only on (seed, stream_id),
never on execution order or worker count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelSet,
    DomainError,
    LargeScaleModel,
    MisreportProfile,
    ScaleError,
    SystemParams,
)

_U64 = np.uint64


@dataclass(frozen=True)
class RngStream:
    """Keyed random substream: same (seed, stream_id) -> same draws, always."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=_U64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PerceivedState:
    """What the scheduler and power control see after misreporting.

    reported_magnitudes[k] = scale[k] * ||g_k||^2 and the false channel
    matrix has rows sqrt(scale[k]) * g_k, so misreporting rescales magnitude
    while leaving every channel direction untouched.
    """

    channels: ChannelSet
    scale: np.ndarray                # (K,) misreport multipliers
    reported_magnitudes: np.ndarray  # (K,)

    @property
    def false_matrix(self) -> np.ndarray:
        """The full misreported channel matrix, computed on each use."""
        return np.sqrt(self.scale)[:, None] * self.channels.gains


def draw_channels(p: SystemParams, betas: np.ndarray, rng: np.random.Generator) -> ChannelSet:
    r"""Draw one small-scale realization for all K users.

    gains[k] = sqrt(betas[k]) * h_k with h_k i.i.d. CN(0, 1) per antenna, so
    ||gains[k]||^2 is Gamma(M, betas[k]) in shape-scale convention.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (p.K,):
        raise DomainError(f"betas must have shape ({p.K},), got {betas.shape}")
    if not np.all(betas > 0):
        raise DomainError("every large-scale gain must be positive")
    re = rng.standard_normal((p.K, p.M))
    im = rng.standard_normal((p.K, p.M))
    h = (re + 1j * im) / np.sqrt(2.0)
    return ChannelSet(gains=np.sqrt(betas)[:, None] * h, large_scale=betas)


def large_scale_coefficient(omega_db, distance, model: LargeScaleModel):
    """Pure large-scale formula: shadowing (dB) and distance to a gain."""
    return 10.0 ** (np.asarray(omega_db) / 10.0) / (
        1.0 + (np.asarray(distance) / model.ref_distance) ** model.path_loss_exp
    )


def draw_large_scale(p: SystemParams, m: LargeScaleModel, rng: np.random.Generator) -> np.ndarray:
    """Draw K large-scale gains and relabel users strongest-first.

    Distances are uniform in (0, cell_radius); shadowing is N(0, sigma^2) dB.
    The returned vector is sorted descending, so user index equals rank.
    """
    omega = rng.normal(0.0, m.shadow_sigma_db, p.K)
    dist = rng.uniform(0.0, m.cell_radius, p.K)
    beta = large_scale_coefficient(omega, dist, m)
    order = np.lexsort((np.arange(p.K), -beta))
    return beta[order]


def apply_misreport(ch: ChannelSet, mp: MisreportProfile) -> PerceivedState:
    """Build the scheduler's view of ``ch`` under the misreport profile."""
    if mp.K != ch.K:
        raise DomainError(f"profile covers {mp.K} users, channels have {ch.K}")
    if not np.all(mp.scale > 0):
        raise ScaleError("misreport scale factors must be positive")
    return PerceivedState(
        channels=ch,
        scale=mp.scale,
        reported_magnitudes=mp.scale * ch.magnitudes(),
    )
