"""The benchmark's four workloads, built only from the public mimosched API.

Each workload is one batch job: a single ``run_experiment`` call whose CSV
the benchmark checks. The sizes are fixed so that one pass takes a few
seconds on a 2-core machine; the runner repeats passes to fill its run
length instead of growing a pass.
"""
from __future__ import annotations

from dataclasses import replace

DEFAULT_SEED = 42

# name -> workers of the timed passes; why each workload exists is in
# BENCHMARK.json and perfbench/README.md
WORKLOADS = {"hom_sweep": 1, "het_drops": 1, "het_pool": 2, "single_block": 1}
# the Python-bound workloads, whose seconds perfbench/probe.py normalises
# for the host's drifting speed. single_block is BLAS-bound: the probe does
# not track its speed, and its raw seconds already hold steady.
SPEED_PROBED = frozenset({"hom_sweep", "het_drops", "het_pool"})


def build(name: str, seed: int):
    """Return (ExperimentConfig, timed-pass workers) for workload ``name``."""
    from mimosched import ExperimentConfig, SystemParams, preset

    if name == "hom_sweep":
        cfg = replace(preset("fig2"), trials=50, seed=seed)
    elif name == "het_drops":
        cfg = replace(preset("fig6"), trials=5, drops=20, seed=seed)
    elif name == "het_pool":
        cfg = replace(preset("fig7"), trials=2, drops=5, seed=seed)
    elif name == "single_block":
        cfg = ExperimentConfig(
            params=SystemParams(M=64, K=32, K_B=32, T=1, P=10.0),
            grouping_rule="channel_magnitude", strategy="homogeneous_uniform",
            K_M=1, delta=0.01, trials=100, seed=seed, label="single_block")
    else:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return cfg, WORKLOADS[name]


def paired_trials(cfg) -> int:
    """Paired trials one pass simulates: every sweep point, layout, drop and trial."""
    return len(cfg.sweep_values) * len(cfg.variants) * cfg.drops * cfg.trials
