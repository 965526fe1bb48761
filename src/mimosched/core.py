"""Shared value types, validation, and unit conversions.

Conventions used throughout the package:
  * all physical quantities are linear (dB only at the CLI / config boundary)
  * user indices are 0-based; length-K vectors are indexed by user
  * resource blocks are the T consecutive slots of one round-robin period
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(SimulationError):
    """System dimensions are inconsistent (e.g. K not divisible by K_B)."""


class DomainError(SimulationError):
    """A numeric argument is outside its mathematical domain."""


class ScaleError(SimulationError):
    """A misreport scale factor is nonpositive."""


class CountError(SimulationError):
    """A misreporter count is outside [0, K]."""


class RangeError(SimulationError):
    """A reported large-scale value breaks the required ordering."""


class RegimeError(SimulationError):
    """A closed form was requested outside its regime of validity."""


class SingularMatrixError(SimulationError):
    """A channel Gram matrix is too ill-conditioned to invert."""


class QuadratureError(SimulationError):
    """Numerical integration failed to reach the accuracy target."""


class UnknownPresetError(SimulationError):
    """No preset with the requested name exists."""


class ConfigError(SimulationError):
    """An experiment configuration is malformed."""


@dataclass(frozen=True)
class SystemParams:
    """Downlink system dimensions and per-block power budget."""

    M: int                      # base-station antennas
    K: int                      # users in the cell
    K_B: int                    # users served per resource block
    T: int                      # blocks per round-robin period, K = T * K_B
    P: float = 10.0             # transmit power per block (linear)
    noise_var: float = 1.0      # receiver noise variance (linear)
    beta_default: float = 1.0   # common large-scale gain for the homogeneous case

    @property
    def snr(self) -> float:
        return self.P / self.noise_var


def validate_params(p: SystemParams) -> SystemParams:
    """Check the dimensional invariants of ``p``, returning it unchanged.

    P, noise_var and beta_default must be positive and finite. Raises
    DimensionError naming the violated constraint.
    """
    for name in ("M", "K", "K_B", "T"):
        v = getattr(p, name)
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise DimensionError(f"{name} must be an integer, got {v!r}")
    if p.M < 2:
        raise DimensionError(f"M must be >= 2, got {p.M}")
    if not (1 <= p.K_B <= p.K):
        raise DimensionError(f"K_B must satisfy 1 <= K_B <= K, got K_B={p.K_B}, K={p.K}")
    if p.K != p.T * p.K_B:
        raise DimensionError(f"K must equal T*K_B, got K={p.K}, T*K_B={p.T * p.K_B}")
    for name in ("P", "noise_var", "beta_default"):
        if not 0 < getattr(p, name) < np.inf:
            raise DimensionError(f"{name} must be positive and finite, got {getattr(p, name)}")
    return p


@dataclass(frozen=True)
class LargeScaleModel:
    """Distance plus log-normal shadowing model for large-scale gains.

    beta = 10^(omega/10) / (1 + (d/ref_distance)^path_loss_exp) with
    omega ~ N(0, shadow_sigma_db^2) in dB and d uniform on (0, cell_radius).
    """

    cell_radius: float = 500.0
    ref_distance: float = 200.0
    path_loss_exp: float = 3.8
    shadow_sigma_db: float = 8.0

    def __post_init__(self) -> None:
        if not self.cell_radius > 0:
            raise DomainError(f"cell_radius must be positive, got {self.cell_radius}")
        if not self.ref_distance > 0:
            raise DomainError(f"ref_distance must be positive, got {self.ref_distance}")
        if not self.path_loss_exp > 0:
            raise DomainError(f"path_loss_exp must be positive, got {self.path_loss_exp}")
        if self.shadow_sigma_db < 0:
            raise DomainError(f"shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}")


@dataclass(frozen=True)
class MisreportProfile:
    """Per-user magnitude misreport: user k reports scale[k] * ||g_k||^2.

    Honest users have scale[k] == 1 and reported_beta[k] == true beta.
    """

    scale: np.ndarray          # (K,) positive multipliers delta_k
    reported_beta: np.ndarray  # (K,) large-scale values as claimed to the scheduler
    strategy_tag: str = "none"

    def __post_init__(self) -> None:
        s = np.asarray(self.scale, dtype=np.float64)
        rb = np.asarray(self.reported_beta, dtype=np.float64)
        s.setflags(write=False)
        rb.setflags(write=False)
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "reported_beta", rb)
        if s.shape != rb.shape or s.ndim != 1:
            raise DimensionError(
                f"scale {s.shape} and reported_beta {rb.shape} must be equal 1-D shapes")
        if self.strategy_tag not in STRATEGY_TAGS:
            raise ConfigError(f"unknown strategy_tag {self.strategy_tag!r}")

    @property
    def K(self) -> int:
        return self.scale.shape[0]

    def honest_mask(self) -> np.ndarray:
        return self.scale == 1.0


STRATEGY_TAGS = frozenset({
    "none",
    "homogeneous_uniform",
    "grouping_changed_under",
    "grouping_changed_over",
    "grouping_unchanged_under",
})

def db_to_linear(x_db: float) -> float:
    """Convert a dB value to linear scale; DomainError if it overflows a float."""
    try:
        return float(10.0 ** (float(x_db) / 10.0))
    except OverflowError:
        raise DomainError(f"{x_db} dB overflows a float") from None
