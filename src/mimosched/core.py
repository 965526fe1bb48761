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


def _is_real(v) -> bool:
    """An int or a float, numpy's included; a bool is not a number here."""
    return not isinstance(v, bool) and isinstance(v, (int, float, np.integer, np.floating))


@dataclass(frozen=True)
class SystemParams:
    """Downlink system dimensions and per-block power budget.

    Checked when built, so every instance, and every ``replace`` of one, is
    valid: DimensionError names the violated constraint. P, noise_var and
    beta_default must be positive and finite.
    """

    M: int                      # base-station antennas
    K: int                      # users in the cell
    K_B: int                    # users served per resource block
    T: int                      # blocks per round-robin period, K = T * K_B
    P: float = 10.0             # transmit power per block (linear)
    noise_var: float = 1.0      # receiver noise variance (linear)
    beta_default: float = 1.0   # common large-scale gain for the homogeneous case

    def __post_init__(self) -> None:
        for name in ("M", "K", "K_B", "T"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise DimensionError(f"{name} must be an integer, got {v!r}")
        if self.M < 2:
            raise DimensionError(f"M must be >= 2, got {self.M}")
        if not (1 <= self.K_B <= self.K):
            raise DimensionError(f"K_B must satisfy 1 <= K_B <= K, got K_B={self.K_B}, K={self.K}")
        if self.K_B > self.M:
            raise DimensionError(f"zero-forcing needs K_B <= M, got K_B={self.K_B}, M={self.M}")
        if self.K != self.T * self.K_B:
            raise DimensionError(f"K must equal T*K_B, got K={self.K}, T*K_B={self.T * self.K_B}")
        for name in ("P", "noise_var", "beta_default"):
            v = getattr(self, name)
            if not _is_real(v) or not 0 < v < np.inf:
                raise DimensionError(f"{name} must be positive and finite, got {v!r}")

    @property
    def snr(self) -> float:
        return self.P / self.noise_var


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
        for name in ("cell_radius", "ref_distance", "path_loss_exp", "shadow_sigma_db"):
            if not _is_real(getattr(self, name)):
                raise DomainError(f"{name} must be a real number, got {getattr(self, name)!r}")
        # NaN fails every comparison, so each check rejects it
        for name in ("cell_radius", "ref_distance", "path_loss_exp"):
            if not 0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.shadow_sigma_db < np.inf:
            raise DomainError(f"shadow_sigma_db must be >= 0 and finite, got {self.shadow_sigma_db}")


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to linear scale; DomainError if it overflows a float."""
    try:
        return float(10.0 ** (float(x_db) / 10.0))
    except OverflowError:
        raise DomainError(f"{x_db} dB overflows a float") from None
