"""Deterministic simulator and closed forms for channel-magnitude misreporting
in round-robin multi-user MIMO scheduling with zero-forcing and max-min power."""

from .core import (
    ConfigError,
    CountError,
    DimensionError,
    DomainError,
    LargeScaleModel,
    QuadratureError,
    RangeError,
    RegimeError,
    ScaleError,
    SimulationError,
    SingularMatrixError,
    SystemParams,
    UnknownPresetError,
    db_to_linear,
)
from .channel import (
    RngStream,
    apply_misreport,
    channel_magnitudes,
    draw_channels,
    draw_large_scale,
    large_scale_coefficient,
)
from .zf import (
    evaluate_block,
    maxmin_power,
    zf_effective_gains,
)
from .scheduling import (
    group_by_large_scale,
    group_by_magnitude,
    group_by_sus,
    group_randomly,
    same_grouping,
)
from .strategies import (
    grouping_changed_over,
    grouping_changed_under,
    grouping_unchanged_under,
    homogeneous_uniform,
    honest_profile,
)
from .analytic import (
    loss_limits,
    loss_rr_cm,
    loss_single_block,
    loss_upper_bound,
    prop3_terms,
    rate_accurate_single_block,
    rate_heterogeneous_block,
    rate_misreport_single_block,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    emit_csv,
    run_cell,
    run_experiment,
    run_period,
)
from .presets import preset, preset_names

__version__ = "0.1.0"
