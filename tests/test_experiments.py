"""Experiment orchestration: stream ids, cells, sweeps, CSV, presets."""
import collections
import ctypes
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import time
from dataclasses import astuple, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  before any run: the BLAS pin must still skip its OpenBLAS
from hypothesis import example, given, settings, strategies as st

from mimosched import (
    ConfigError,
    CountError,
    DimensionError,
    DomainError,
    ExperimentConfig,
    LargeScaleModel,
    ResultRow,
    RngStream,
    SimulationError,
    SystemParams,
    UnknownPresetError,
    config_from_dict,
    db_to_linear,
    draw_channels,
    emit_csv,
    evaluate_block,
    group_by_large_scale,
    group_randomly,
    maxmin_power,
    preset,
    preset_names,
    run_cell,
    run_experiment,
    run_period,
    same_grouping,
    zf_effective_gains,
)
from mimosched import SingularMatrixError, experiments, zf
from mimosched.experiments import CSV_HEADER, _drops, _variants, pack_stream
from mimosched.strategies import grouping_changed_under, grouping_unchanged_under
from oracles import (cells_oracle, drop_setups_oracle, gram, period_rates_oracle, rows_oracle,
                     variant_rows_oracle)


def _rows_by_metric(rows, name, sweep_value=None):
    out = [r for r in rows if r.metric == name
           and (sweep_value is None or r.sweep_value == sweep_value)]
    return out


def _one(rows, name, sweep_value=None):
    hits = _rows_by_metric(rows, name, sweep_value)
    assert len(hits) == 1, f"{name}: {len(hits)} rows"
    return hits[0]


def test_pack_stream_bit_layout():
    assert pack_stream(0, 0, 0, 5) == 5
    assert pack_stream(0, 0, 1, 0) == 1 << 26
    assert pack_stream(0, 1, 0, 0) == 1 << 52
    assert pack_stream(1, 0, 0, 0) == 1 << 62
    assert pack_stream(3, 1023, 2**26 - 1, 2**26 - 1) == 2**64 - 1


def test_pack_stream_collision_free():
    grid = list(itertools.product(range(3), range(4), range(5), range(6)))
    ids = {pack_stream(*c) for c in grid}
    assert len(ids) == len(grid)


@settings(max_examples=200)
@given(coords=st.tuples(st.integers(0, 3), st.integers(0, 2**10 - 1),
                        st.integers(0, 2**26 - 1), st.integers(0, 2**26 - 1)))
def test_pack_stream_is_injective(coords):
    # the id decodes back to its (purpose, variant, drop, trial), so no two
    # in-range coordinates share one
    sid = pack_stream(*coords)
    assert 0 <= sid < 2**64
    assert (sid >> 62, sid >> 52 & 2**10 - 1, sid >> 26 & 2**26 - 1, sid & 2**26 - 1) == coords


@pytest.mark.parametrize("coords", [
    (4, 0, 0, 0), (-1, 0, 0, 0), (0, 1024, 0, 0),
    (0, 0, 2**26, 0), (0, 0, 0, 2**26), (0, 0, 0, -1),
])
def test_pack_stream_rejects(coords):
    with pytest.raises(DomainError):
        pack_stream(*coords)


def test_config_normalizes_scalars(p_default):
    cfg = ExperimentConfig(params=p_default, grouping_rule="sus",
                           strategy="homogeneous_uniform")
    assert cfg.grouping_rule == ("sus",)
    assert cfg.strategy == ("homogeneous_uniform",)
    assert cfg.sweep_values == (0.0,)
    assert cfg.variants == (None,)


@pytest.mark.parametrize("kwargs", [
    {"scenario": "mixed"},
    {"grouping_rule": ("nearest",)},
    {"strategy": ("steal",)},
    {"strategy": ("grouping_changed_under",)},          # heterogeneous only
    {"grouping_rule": ("large_scale",)},                # heterogeneous only
    {"sweep": "delta"},
    {"trials": 0},
    {"drops": 0},
    {"sus_alpha": 0.0},                                 # SUS would never stop
    {"sus_alpha": -0.3},
    {"sweep": "K_M", "sweep_values": (1, 1.7)},         # would run as K_M = 1
    {"K_M": 1.5},
    {"delta": 0.0},
    {"delta": -1.0},
    {"trials": 2**26},                                  # past the stream id's trial field
    {"drops": 2**26},
    {"trials": 2.7},                                    # would run 2 trials
    {"drops": 3.9},
    {"seed": 1.5},
    {"trials": True},
    {"K_M": "1"},
    {"track_users": (1.7,)},                            # would track user 1
    {"track_users": ("a",)},
    {"grouping_rule": ()},                              # died reshaping mid-run
    {"strategy": ()},                                   # ran, then had no rows to emit
    {"variants": ()},
    {"sweep_values": ()},
    {"sweep": "K_M", "sweep_values": (10, 10)},         # emitted every row twice
    {"sweep": "P_dB", "sweep_values": (0, 5.0, 0.0)},
    {"sweep_values": (0.0, 5.0)},                       # no sweep, two points
    {"sweep": "P_dB", "sweep_values": ("high",)},
    {"delta": float("inf")},                            # every attacked rate read 0
    {"variants": ({"foo": 1},)},                        # was a TypeError mid-run
    {"variants": (None, {"P": "abc"})},
    {"variants": ({"T": True, "K_B": 9},)},
    {"beta_low_factor": 1.5},                           # failed in the first drop's set-up
    {"beta_high_factor": 1.0},
    {"delta": "0.1"},                                   # each string was a TypeError
    {"beta_low_factor": "0.5"},
    {"beta_high_factor": "2"},
    {"sus_alpha": "0.3"},
    {"delta": True},                                    # ran as delta = 1.0
    {"grouping_rule": 5},                               # each was a TypeError or ValueError
    {"sweep_values": 5},
    {"variants": 5},
    {"variants": ("ab",)},
    {"track_users": 5},
    {"strategy": (["none"],)},
    {"scenario": "heterogeneous", "grouping_rule": ("large_scale",),   # died in set-up
     "strategy": ("grouping_changed_under",), "large_scale": "x"},
    {"sweep_values": ("5",)},                           # each was taken as a sweep point
    {"sweep_values": (True,)},
    {"sweep": "P_dB", "sweep_values": (float("nan"), float("nan"))},
    {"sweep_values": (float("nan"),)},                  # wrote a nan sweep_value row
    {"sweep": "P_dB", "sweep_values": (0.0, float("inf"))},
    {"label": 5},                                       # wrote 5 to the scenario column
    {"variants": ({"label": 5}, None)},                 # became the suffix __5
    {"track_users": (1,)},                              # each was ignored by the homogeneous run
    {"large_scale": LargeScaleModel()},
    {"seed": -1},                                       # drew as seed 2**64 - 1
    {"seed": 2**64},                                    # drew as seed 0
    {"variants": (None,) * (2**10 + 1)},                # failed after the first 1024 variants ran
])
def test_config_rejects(p_default, kwargs):
    # construction only: a config that got through could hang when run
    with pytest.raises(ConfigError):
        ExperimentConfig(params=p_default, **kwargs)


def test_config_accepts_the_largest_seed_and_variant_count(p_default):
    cfg = ExperimentConfig(params=p_default, seed=2**64 - 1, variants=(None,) * 2**10)
    assert (cfg.seed, len(cfg.variants)) == (2**64 - 1, 2**10)


@pytest.mark.parametrize("params", [None, {"M": 64, "K": 32, "K_B": 8, "T": 4}])
def test_config_rejects_params_that_are_not_system_params(params):
    # None was accepted and died with an AttributeError when run
    with pytest.raises(ConfigError, match="params must be a SystemParams"):
        ExperimentConfig(params=params)


@pytest.mark.parametrize("variant", [{"T": 1.5, "K_B": 3}, {"T": 3, "K_B": 3.2}])
def test_run_rejects_fractional_variant_dimensions(p_nine, variant):
    # each ran with its dimension truncated; now the run fails before any trial
    cfg = ExperimentConfig(params=p_nine, trials=2, variants=(None, variant))
    with pytest.raises(ConfigError, match="must be an integer"):
        run_experiment(cfg)


def test_config_accepts_integral_k_m_sweep_values(p_default):
    cfg = ExperimentConfig(params=p_default, sweep="K_M", sweep_values=(0, 2.0, np.int64(3)))
    assert cfg.sweep_values == (0, 2.0, 3)


@pytest.mark.parametrize("workers", [0, -1, 1.5, "2", True])
def test_run_experiment_rejects_bad_workers(p_nine, workers):
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(params=p_nine, trials=2), workers=workers)


def test_config_heterogeneous_needs_cell_model(p_default):
    with pytest.raises(ConfigError):
        ExperimentConfig(params=p_default, scenario="heterogeneous",
                         grouping_rule=("large_scale",),
                         strategy=("grouping_changed_under",))


def test_run_period_block_consistency(p_nine):
    # honest members of a block share its equalized rate, scaled by 1/T
    rng = RngStream(11, 0).generator()
    ch = draw_channels(p_nine, np.ones(9), rng)
    plan = group_randomly(p_nine, rng)
    rates = run_period(ch[None], [0], plan[None], np.ones((1, 9)), p_nine)
    assert rates.shape == (1, 9)
    for members in plan:
        _, snr = maxmin_power(zf_effective_gains(gram(ch[members])), p_nine.P, p_nine.noise_var)
        np.testing.assert_allclose(rates[0, members] * p_nine.T, np.log2(1.0 + snr), rtol=1e-12)


def test_run_period_split_averages(p_nine):
    # misreporters get the block SNR divided by their own scale, honest users
    # the block SNR itself, each in the block the plan puts them in
    rng = RngStream(12, 0).generator()
    betas = np.linspace(2.0, 1.0, 9)
    ch = draw_channels(p_nine, betas, rng)
    (scale,), (reported,) = grouping_changed_under(betas, [2])
    plan = group_by_large_scale(reported, p_nine)
    rates = run_period(ch[None], [0], plan[None], scale[None], p_nine)[0]
    for members in plan:
        block = evaluate_block(gram(ch[members])[None], scale[members][None], [0], p_nine)
        np.testing.assert_allclose(rates[members] * p_nine.T, block[0], rtol=1e-12)
    honest = scale == 1.0
    assert not honest[:2].any() and honest[2:].all()
    assert np.all(rates[:2] > rates[plan[-1][honest[plan[-1]]]])


@pytest.mark.parametrize("members", [
    [[0, 1], [0, 1]],        # users 2 and 3 left out, 0 and 1 served twice
    [[-1, 0], [1, 2]],       # -1 would wrap to user 3
    [[0, 1], [2, 4]],        # no user 4
    [[0, 1], [1, 2]],        # user 1 in two blocks, user 3 in none
])
def test_run_period_rejects_non_partition_plans(members):
    p = SystemParams(M=4, K=4, K_B=2, T=2)
    gains = draw_channels(p, np.ones(4), RngStream(13, 0).generator())[None]
    with pytest.raises(DimensionError):
        run_period(gains, [0], [members], np.ones((1, 4)), p)
    # a block of the wrong size fails the shape check
    with pytest.raises(DimensionError):
        run_period(gains, [0], [[[0, 1, 2, 3]]], np.ones((1, 4)), p)
    # the check covers every period of a stack, not only the first
    with pytest.raises(DimensionError):
        run_period(gains, [0, 0], [[[0, 1], [2, 3]], members], np.ones((2, 4)), p)


@pytest.mark.parametrize("trial, members", [
    ([0.7], [[[0.5, 1.9], [2, 3]]]),      # was served as trial 0, plan [[0, 1], [2, 3]]
    ([0], [[[0.0, 1.0], [2.0, 3.0]]]),    # integral floats are not a plan either
    ([True], [[[0, 1], [2, 3]]]),
])
def test_run_period_rejects_non_integer_indices(trial, members):
    p = SystemParams(M=4, K=4, K_B=2, T=2)
    gains = draw_channels(p, np.ones(4), RngStream(13, 0).generator())[None]
    with pytest.raises(DimensionError, match="integer arrays"):
        run_period(gains, trial, members, np.ones((1, 4)), p)


def test_zf_gains_called_once_per_slice(monkeypatch):
    # fig6 shape: honest, grouping-preserving and demoting profiles under
    # large-scale and random grouping, 6 periods per trial. Random grouping
    # shares one plan across profiles; the grouping-preserving plan has the
    # honest block sets in another within-block order, so it shares all 4
    # honest blocks; demoting the two strongest users shifts all 4 blocks:
    # 12 distinct (trial, sorted members) blocks per trial, in one call per
    # slice. Twice the trials a slice holds run as two full slices
    shapes, kernels = [], []
    gains = zf.zf_effective_gains
    monkeypatch.setattr(zf, "zf_effective_gains",
                        lambda g: shapes.append(g.shape) or gains(g))
    block = experiments.evaluate_block
    monkeypatch.setattr(experiments, "evaluate_block",
                        lambda *a: kernels.append(a[2].shape) or block(*a))
    cfg = replace(preset("fig6"), drops=1, sweep_values=(2,))
    n = experiments._slice_trials(cfg.params, 3, cfg.grouping_rule)
    run_experiment(replace(cfg, trials=2 * n))
    assert shapes == [(12 * n, 8, 8)] * 2
    assert kernels == [(6 * n, 4)] * 2


def test_run_period_guard_names_the_first_bad_period(p_nine):
    # realization 2 (served first) repeats a row inside block 1 of the plan,
    # realization 1 (served second) inside block 0: the trip names the block
    # of the period served first, and its realization
    gains = np.stack([draw_channels(p_nine, np.ones(9), RngStream(5, n).generator())
                      for n in range(3)])
    gains[2, 4] = gains[2, 3]
    gains[1, 1] = gains[1, 0]
    members = np.arange(9).reshape(1, 3, 3).repeat(3, axis=0)
    with pytest.raises(SingularMatrixError) as err:
        run_period(gains, [0, 2, 1], members, np.ones((3, 9)), p_nine)
    assert err.value.index == (2, 1)
    assert err.value.period == 1
    assert err.value.args[0].startswith("block 1: Gram matrix condition number")


def _slice(layout, n, e, p, rng):
    """(trial, members) of e periods on n realizations.

    "duplicate": every period is the same (realization, plan) pair;
    "distinct": each period has a realization of its own (n = e); "mixed":
    random realizations and one of two plans.
    """
    perms = [rng.permutation(p.K).reshape(p.T, p.K_B) for _ in range(max(e, 2))]
    if layout == "duplicate":
        return np.zeros(e, dtype=np.intp), np.stack([perms[0]] * e)
    if layout == "distinct":
        return np.arange(e), np.stack(perms[:e])
    return rng.integers(0, n, e), np.stack([perms[i] for i in rng.integers(0, 2, e)])


@settings(max_examples=120)
@given(t=st.integers(1, 4), kb=st.integers(1, 6), extra=st.integers(0, 12),
       n=st.integers(1, 4), e=st.integers(1, 8),
       layout=st.sampled_from(["duplicate", "distinct", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
@example(t=16, kb=6, extra=2, n=3, e=8, layout="mixed", seed=1)     # K = 96 users
def test_stacked_periods_equal_the_per_period_oracle(t, kb, extra, n, e, layout, seed):
    # every period of a slice, served in one stacked call with each distinct
    # (realization, sorted members) block factorized once, gets exactly the
    # rates it gets served on its own, for any K. Both read each block's Gram
    # from its realization's (K, K) Gram. The Gram of the block's own rows can
    # differ from it in the last bits, which the condition number of the
    # block's unit-norm rows amplifies: where it is <= 1e3 for every block of
    # a period, the period's rates agree within 1e-12
    p = SystemParams(M=max(2, kb + extra), K=t * kb, K_B=kb, T=t, P=10.0)
    rng = np.random.default_rng(seed)
    if layout == "distinct":
        n = e
    betas = 10.0 ** rng.uniform(-2.0, 1.0, p.K)
    gains = np.stack([draw_channels(p, betas, rng) for _ in range(n)])
    trial, members = _slice(layout, n, e, p, rng)
    # random profiles: a random set of misreporters with random scales
    scale = np.where(rng.random((e, p.K)) < 0.3, 10.0 ** rng.uniform(-2.0, 1.0, (e, p.K)), 1.0)
    try:
        want = [period_rates_oracle(gains[trial[i]], scale[i], members[i], p) for i in range(e)]
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            run_period(gains, trial, members, scale, p)
        return
    np.testing.assert_array_equal(run_period(gains, trial, members, scale, p), want)
    unit = gains / np.linalg.norm(gains, axis=-1, keepdims=True)
    calm = [i for i in range(e) if np.linalg.cond(gram(unit[trial[i]][members[i]])).max() <= 1e3]
    for i in calm:
        np.testing.assert_allclose(
            want[i], period_rates_oracle(gains[trial[i]], scale[i], members[i], p,
                                         block_rows=True), rtol=1e-12)


def _shuffled(plan, rng):
    """``plan`` with its blocks, and each block's members, in a random order."""
    return np.stack([rng.permutation(block) for block in rng.permutation(plan)])


@settings(max_examples=80)
@given(t=st.integers(1, 4), kb=st.integers(1, 6), extra=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_plans_with_the_same_block_sets_give_the_same_bits(t, kb, extra, seed):
    # a block's gains depend only on who shares it: the same blocks in any
    # block order or within-block order give every user the same rate, bit
    # for bit, alone or stacked with the others
    p = SystemParams(M=max(2, kb + extra), K=t * kb, K_B=kb, T=t, P=10.0)
    rng = np.random.default_rng(seed)
    gains = draw_channels(p, 10.0 ** rng.uniform(-2.0, 1.0, p.K), rng)[None]
    plan = rng.permutation(p.K).reshape(t, kb)
    plans = np.stack([_shuffled(plan, rng) for _ in range(3)])
    scale = np.where(rng.random(p.K) < 0.3, 10.0 ** rng.uniform(-2.0, 1.0, p.K), 1.0)
    try:
        want = run_period(gains, [0], plans[:1], scale[None], p)
    except SingularMatrixError:
        return
    np.testing.assert_array_equal(run_period(gains, [0, 0], plans[1:], np.stack([scale] * 2), p),
                                  np.vstack([want, want]))


def test_grouping_preserving_attack_is_served_on_the_honest_blocks(p_default):
    # the grouping-preserving plan holds the honest block sets with the
    # misreporters moved last: under either profile's scales both plans give
    # every user the same rate, bit for bit
    for k_m in (1, 2, 4, 8):
        rng = RngStream(1, 0).generator()
        betas = np.sort(10.0 ** rng.uniform(-2.0, 1.0, p_default.K))[::-1]
        (attack,), (reported,) = grouping_unchanged_under(betas, p_default, [k_m])
        plans = np.stack([group_by_large_scale(betas, p_default),
                          group_by_large_scale(reported, p_default)])
        assert same_grouping(plans[0], plans[1]) and not np.array_equal(plans[0], plans[1])
        gains = draw_channels(p_default, betas, rng)[None]
        for scale in (np.ones(p_default.K), attack):
            rates = run_period(gains, [0, 0], plans, np.stack([scale, scale]), p_default)
            np.testing.assert_array_equal(rates[0], rates[1])


def test_each_distinct_block_is_factorized_once(monkeypatch):
    # reduced fig7: every slice (here both trials of a drop) factorizes one
    # Gram matrix per distinct (trial, sorted members) block of its periods,
    # counted here with sets, and that is fewer than one per block of each
    # distinct (trial, plan)
    factorized, blocks, plan_blocks = [], [], []
    gains = zf.zf_effective_gains
    monkeypatch.setattr(zf, "zf_effective_gains",
                        lambda g: factorized.append(len(g)) or gains(g))
    period = experiments.run_period

    def counted(g, trial, members, *rest):
        blocks.append(len({(n, tuple(sorted(b))) for n, plan in zip(trial.tolist(), members)
                           for b in plan.tolist()}))
        plan_blocks.append(members.shape[1] * len({(n, plan.tobytes())
                                                   for n, plan in zip(trial.tolist(), members)}))
        return period(g, trial, members, *rest)

    monkeypatch.setattr(experiments, "run_period", counted)
    cfg = replace(preset("fig7"), trials=2, drops=3)
    run_experiment(cfg)
    assert len(blocks) == len(cfg.variants) * cfg.drops
    assert factorized == blocks
    assert sum(blocks) < sum(plan_blocks)


def test_slices_are_sized_by_bytes_and_hold_at_least_eight_trials(monkeypatch):
    # reduced fig7 sweeps 17 misreport profiles per variant: its 50 trials run
    # in as few slices as the byte budget allows for the variant's layout (13,
    # 18, 8 and 41 trials), evened out, and never more than 8-trial slices
    # make. Its T=2, K_B=16 layout holds the most Gram block entries per trial
    calls = []
    period = experiments.run_period

    def counted(g, *rest):
        calls.append(len(g))
        return period(g, *rest)

    monkeypatch.setattr(experiments, "run_period", counted)
    cfg = replace(preset("fig7"), trials=50, drops=1)
    run_experiment(cfg)
    assert len(cfg.variants) == 4
    assert calls == [13, 13, 13, 11] + [17, 17, 16] + [8] * 6 + [2] + [25, 25]
    # fig2's two profiles under three rules, SUS among them, and one 32-user block
    assert experiments._slice_trials(preset("fig2").params, 2, preset("fig2").grouping_rule) == 16
    single = SystemParams(M=64, K=32, K_B=32, T=1)
    assert experiments._slice_trials(single, 2, ("channel_magnitude",)) == 19


def test_csv_does_not_depend_on_the_slice_size(monkeypatch):
    # reduced fig2 in 1-trial slices and in one slice per unit emits the
    # default slicing's CSV byte for byte
    cfg = replace(preset("fig2"), trials=20)

    def text():
        buf = io.StringIO()
        emit_csv(run_experiment(cfg), buf)
        return buf.getvalue()

    want = text()
    for trials in (1, cfg.trials):
        monkeypatch.setattr(experiments, "_slice_trials", lambda *a, n=trials: n)
        assert text() == want


def test_power_sweep_serves_each_period_once_at_every_power(monkeypatch):
    # reduced fig2: no rule reads the transmit power, so a P_dB sweep serves
    # each (trial, honest or attacked profile, rule) period once per slice,
    # at all seven powers in one call, not once per power
    cfg = replace(preset("fig2"), trials=12)
    calls = []
    period = experiments.run_period

    def counted(g, trial, members, scale, p, P):
        calls.append((len(g), len(trial), np.shape(P)))
        rates = period(g, trial, members, scale, p, P)
        # every power's rates are those of a call at that power alone
        for w in (0, -1):
            np.testing.assert_array_equal(rates[w], period(g, trial, members, scale, p, P[w]))
        return rates

    monkeypatch.setattr(experiments, "run_period", counted)
    run_experiment(cfg)
    profiles, rules = 2, len(cfg.grouping_rule)
    assert [e for _, e, _ in calls] == [n * profiles * rules for n, _, _ in calls]
    assert sum(n for n, _, _ in calls) == cfg.trials
    assert {shape for *_, shape in calls} == {(len(cfg.sweep_values),)}


def test_run_period_returns_one_rate_array_per_power(p_nine):
    # P of any shape leads the (E, K) rates, each power applied to every period
    gains = np.stack([draw_channels(p_nine, np.ones(9), RngStream(6, n).generator())
                      for n in range(2)])
    members = np.stack([np.arange(9).reshape(3, 3), np.arange(9)[::-1].reshape(3, 3)])
    scale = np.r_[0.1, np.ones(8)][None].repeat(2, axis=0)
    P = np.array([[0.5, 5.0], [50.0, 500.0]])
    rates = run_period(gains, [1, 0], members, scale, p_nine, P)
    assert rates.shape == (2, 2, 2, 9)
    for w in np.ndindex(P.shape):
        np.testing.assert_array_equal(rates[w], run_period(gains, [1, 0], members, scale,
                                                           replace(p_nine, P=P[w])))


def _csv_text(rows):
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue()


@pytest.mark.parametrize("name, reduced, workers", [
    ("fig2", dict(trials=12), 1),
    ("fig3", dict(trials=10), 1),
    ("fig6", dict(trials=3, drops=5), 1),
    ("fig7", dict(trials=2, drops=3), 1),
    ("fig7", dict(trials=2, drops=3), 2),
])
def test_sharing_trials_across_sweep_points_changes_no_number(name, reduced, workers):
    # a run draws, groups and factorizes each trial once for all its sweep
    # points; each point run on its own must give the same bytes
    cfg = replace(preset(name), **reduced)
    alone = [row for v in cfg.sweep_values for row in run_cell(cfg, v, workers)]
    assert _csv_text(run_experiment(cfg, workers)) == _csv_text(alone)


@pytest.mark.parametrize("sweep, values", [
    ("K_M", (1,)), ("K_M", (1, 2, 3)), ("P_dB", (0.0, 10.0, 20.0, 30.0))])
def test_each_trial_is_drawn_once_per_run(p_nine, cell_model, monkeypatch, sweep, values):
    draws = []
    draw = experiments.draw_channels
    monkeypatch.setattr(experiments, "draw_channels", lambda *a: draws.append(1) or draw(*a))
    het = ExperimentConfig(
        params=p_nine, scenario="heterogeneous", grouping_rule=("large_scale", "random"),
        strategy=("grouping_changed_under", "grouping_unchanged_under"), large_scale=cell_model,
        sweep=sweep, sweep_values=values, variants=(None, {"T": 1, "K_B": 9}),
        trials=4, drops=3, seed=21, track_users=())
    hom = ExperimentConfig(params=p_nine, grouping_rule=("channel_magnitude", "sus", "random"),
                           sweep=sweep, sweep_values=values, trials=5, seed=5)
    run_experiment(het)
    assert len(draws) == 2 * 3 * 4              # variants x drops x trials
    draws.clear()
    run_experiment(hom)
    assert len(draws) == 5


def test_strategy_none_gives_exact_zero_theta(p_default):
    cfg = ExperimentConfig(params=p_default, strategy=("none",), trials=20, seed=5)
    rows = run_experiment(cfg)
    row = _one(rows, "theta_cm")
    assert row.mean == 0.0
    assert row.std == 0.0
    assert _one(rows, "theta_cm_paired").mean == 0.0


def test_strategy_none_gives_exact_zero_het_loss(p_nine, cell_model):
    cfg = ExperimentConfig(
        params=p_nine, scenario="heterogeneous", grouping_rule=("large_scale",),
        strategy=("none",), large_scale=cell_model, trials=6, drops=3, seed=5,
        track_users=())
    rows = run_experiment(cfg)
    assert _one(rows, "avg_honest_loss_ls").mean == 0.0


def test_full_block_demotion_leaves_honest_untouched(p_nine, cell_model):
    # three demoted users fill one block by themselves, so honest users keep
    # their channels, co-members and power shares bit for bit
    cfg = ExperimentConfig(
        params=p_nine, scenario="heterogeneous", grouping_rule=("large_scale",),
        strategy=("grouping_changed_under",), K_M=3, large_scale=cell_model,
        trials=8, drops=2, seed=7, track_users=(1, 5))
    rows = run_experiment(cfg)
    assert _one(rows, "avg_honest_loss_ls").mean == 0.0
    assert _one(rows, "per_user_loss_ls[5]").mean == 0.0
    assert _one(rows, "per_user_loss_ls[1]").mean < 0.0
    assert _one(rows, "per_user_loss_ls_drops[1]").mean < 0.0


def test_ci_shrinks_with_sqrt_trials(p_default):
    base = dict(params=p_default, strategy=("homogeneous_uniform",), K_M=1,
                delta=0.01, seed=33)
    ci = {}
    for n in (400, 800):
        rows = run_experiment(ExperimentConfig(trials=n, **base))
        ci[n] = _one(rows, "theta_cm").ci95
    ratio = ci[400] / ci[800]
    assert 0.8 * np.sqrt(2) < ratio < 1.2 * np.sqrt(2)


def test_homogeneous_honest_means_do_not_depend_on_workers(p_default):
    # each period's honest mean is one fixed-order sum over all K users; it
    # was summed in an order set by how many trials shared a slice, and the
    # worker count sets the slicing
    cfg = ExperimentConfig(params=p_default, grouping_rule=("channel_magnitude",),
                           sweep="K_M", sweep_values=(1, 2, 3), trials=7, seed=3)
    texts = [_csv_text(run_experiment(cfg, workers=w)) for w in (1, 2, 3)]
    assert texts[1] == texts[0] and texts[2] == texts[0]


def test_worker_count_does_not_change_results(p_nine, cell_model):
    cfg = ExperimentConfig(
        params=p_nine, scenario="heterogeneous", grouping_rule=("large_scale", "random"),
        strategy=("grouping_changed_under",), K_M=1, large_scale=cell_model,
        trials=9, drops=2, seed=13, track_users=(9,))
    serial = run_experiment(cfg, workers=1)
    pooled = run_experiment(cfg, workers=2)
    assert serial == pooled
    a, b = io.StringIO(), io.StringIO()
    emit_csv(serial, a)
    emit_csv(pooled, b)
    assert a.getvalue() == b.getvalue()


def _het_sweep(p_nine, cell_model):
    return ExperimentConfig(
        params=p_nine, scenario="heterogeneous", grouping_rule=("large_scale", "random"),
        strategy=("grouping_changed_under", "none"), large_scale=cell_model,
        sweep="K_M", sweep_values=(1, 2), variants=(None, {"T": 1, "K_B": 9}),
        trials=4, drops=3, seed=21, track_users=(1, 9))


@pytest.mark.parametrize("ranks", [(99, 0, -3), (10,), (0,), (1, 9, -1), (1, 1)])
def test_run_rejects_ranks_past_every_variant(p_nine, cell_model, monkeypatch, ranks):
    # K is 9 in both layouts: each run wrote no row for the bad ranks
    monkeypatch.setattr(experiments, "_drops", lambda *a: pytest.fail("set-up ran"))
    with pytest.raises(ConfigError, match="track_users"):
        run_experiment(replace(_het_sweep(p_nine, cell_model), track_users=ranks))


def test_rank_zero_is_rejected_as_outside_one_to_k(p_nine, cell_model):
    # was reported as "a rank past K of every variant"
    with pytest.raises(ConfigError, match=r"must lie in \[1, K\]"):
        run_experiment(replace(_het_sweep(p_nine, cell_model), track_users=(0,)))


@pytest.mark.parametrize("kwargs, error, match", [
    # each wrote its variant's rows twice, under one name
    (dict(variants=({"label": "a"}, {"label": "a"})), ConfigError, "suffix"),
    (dict(variants=({"T": 3, "K_B": 3}, None)), ConfigError, "suffix"),
    # ran with K = 4: T * K_B overwrote the variant's own K
    (dict(variants=(None, {"T": 2, "K_B": 2, "K": 100})), DimensionError, r"T\*K_B"),
    # ran at the sweep's powers, not at the variant's P
    (dict(sweep="P_dB", sweep_values=(0.0, 10.0), variants=(None, {"P": 5.0})), ConfigError,
     "P_dB"),
], ids=["label", "layout", "K", "P"])
def test_run_rejects_variants_it_would_coerce_or_repeat(p_nine, monkeypatch, kwargs, error, match):
    monkeypatch.setattr(experiments, "_drops", lambda *a: pytest.fail("set-up ran"))
    with pytest.raises(error, match=match):
        run_experiment(ExperimentConfig(params=p_nine, trials=2, **kwargs))


def test_a_rank_of_one_variant_is_tracked_in_that_variant(p_nine, cell_model):
    # as in fig7, whose layouts have K = 32 and K = 16
    cfg = replace(_het_sweep(p_nine, cell_model), variants=(None, {"T": 2, "K_B": 3}),
                  track_users=(8,), trials=2, drops=1)
    names = {r.metric for r in run_experiment(cfg)}
    assert "per_user_loss_ls__grouping_changed_under__T3_KB3[8]" in names
    assert not [n for n in names if n.endswith("[8]") and "T2_KB3" in n]


def _hom_split(p_nine, cell_model):
    # two drops in the whole run, one per layout, fewer than 4 per worker:
    # each is split
    return ExperimentConfig(
        params=p_nine, grouping_rule=("channel_magnitude", "sus", "random"), K_M=2,
        sweep="P_dB", sweep_values=(0.0, 10.0), variants=(None, {"T": 1, "K_B": 9}),
        trials=11, seed=5)


@pytest.fixture
def opened_pools(monkeypatch):
    """Every process pool the engine constructs while the test runs.

    Each one counts its ``map`` calls and the units they hand it.
    """
    opened = []

    class CountedPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            self.maps = self.units = 0
            super().__init__(*args, **kwargs)

        def map(self, fn, items):
            self.maps += 1
            self.units += len(items)
            return super().map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
    return opened


def test_one_pool_serves_the_whole_run(p_nine, cell_model, opened_pools):
    cfg = _het_sweep(p_nine, cell_model)
    serial, pooled = io.StringIO(), io.StringIO()
    emit_csv(run_experiment(cfg, workers=1), serial)
    assert opened_pools == []
    emit_csv(run_experiment(cfg, workers=2), pooled)
    assert len(opened_pools) == 1
    assert pooled.getvalue() == serial.getvalue()


@pytest.mark.parametrize("config", [_het_sweep, _hom_split])
def test_one_map_per_run_streams_every_cell(config, p_nine, cell_model, opened_pools):
    cfg = config(p_nine, cell_model)
    texts = {}
    for workers in (1, 2, 3):
        buf = io.StringIO()
        emit_csv(run_experiment(cfg, workers=workers), buf)
        texts[workers] = buf.getvalue()
    assert texts[2] == texts[1] and texts[3] == texts[1]
    assert len(opened_pools) == 2
    for pool, workers in zip(opened_pools, (2, 3)):
        assert pool.maps == 1
        # every unit but each workers-th, from unit 0 on, which the caller runs:
        # 6 drops split into 12 units at 2 and 3 workers, and 2 drops into
        # 4 x workers units
        assert pool.units == {_het_sweep: {2: 6, 3: 8},
                              _hom_split: {2: 4 * 2 - 4, 3: 4 * 3 - 4}}[config][workers]


def test_run_cell_opens_its_own_pool(p_nine, cell_model, opened_pools):
    cfg = _het_sweep(p_nine, cell_model)
    assert run_cell(cfg, 2, workers=2) == run_cell(cfg, 2)
    assert len(opened_pools) == 1
    assert multiprocessing.active_children() == []
    # the same engine as a whole run, on one sweep point
    assert run_cell(cfg, 2) == [r for r in run_experiment(cfg) if r.sweep_value == 2]


_THREAD_SYMBOLS = [(f"{pre}get_num_threads{suf}", f"{pre}set_num_threads{suf}")
                   for pre, suf in itertools.product(("scipy_openblas_", "openblas_"), ("64_", ""))]
# one OpenBLAS build: its library and its thread-count symbols and functions
_Blas = collections.namedtuple("_Blas", "path get_name set_name get put")


def _thread_functions(lib):
    """(get name, set name, get, set) of the first pair of thread-count symbols ``lib`` resolves."""
    for get_name, set_name in _THREAD_SYMBOLS:
        get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get_name, set_name, get, put
    return None


def _openblas_builds():
    """numpy's OpenBLAS and a tuple of every other OpenBLAS mapped in this process.

    numpy's build is the library whose thread-count symbol numpy's extension
    module resolves to; any other mapped OpenBLAS, scipy's among them, is
    another build. (None, ()) where the symbols or the memory map are missing.
    """
    ours = _thread_functions(ctypes.CDLL(np._core._multiarray_umath.__file__))
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in os.path.basename(line.split()[-1])})
    except OSError:
        return None, ()
    ours = ours and ctypes.cast(ours[2], ctypes.c_void_p).value
    numpy_blas, others = None, []
    for path in paths:
        if (found := _thread_functions(ctypes.CDLL(path))) is None:
            continue
        if ctypes.cast(found[2], ctypes.c_void_p).value == ours:
            numpy_blas = _Blas(path, *found)
        else:
            others.append(_Blas(path, *found))
    return numpy_blas, tuple(others)


_NUMPY_BLAS, _OTHER_BLAS = _openblas_builds()
_BLAS_BUILDS = (_NUMPY_BLAS, *_OTHER_BLAS) if _NUMPY_BLAS else _OTHER_BLAS
_needs_two_openblas = pytest.mark.skipif(
    _NUMPY_BLAS is None or not _OTHER_BLAS,
    reason="needs numpy's OpenBLAS and a second build, each with thread-count symbols")
# inside a run: numpy's build, which the engine calls, at one thread, any other
# at the count its caller set
_PINNED = (1,) + (2,) * len(_OTHER_BLAS)


def _blas_threads():
    """Thread counts of numpy's OpenBLAS first, then of every other build."""
    return tuple(b.get() for b in _BLAS_BUILDS)


# OpenBLAS's own pool shutdown, which the pin calls after each count change
_BLAS_SHUTDOWN = hasattr(ctypes.CDLL(np._core._multiarray_umath.__file__),
                         "blas_thread_shutdown_")


def _os_threads():
    """OS threads of this process."""
    return len(os.listdir("/proc/self/task"))


@pytest.fixture
def blas_at_two():
    """Every build set to 2 threads, which a 1-CPU host's default would not
    tell from the pinned 1; the counts before are put back afterwards."""
    before = _blas_threads()
    for b in _BLAS_BUILDS:
        b.put(2)
    yield (2,) * len(_BLAS_BUILDS)
    for b, n in zip(_BLAS_BUILDS, before):
        b.put(n)


def _fresh_python(script: str, *args: str) -> str:
    """stdout of ``script`` run in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


@_needs_two_openblas
def test_run_experiment_restores_blas_threads(p_nine, monkeypatch, blas_at_two):
    # imported by this module, so before the process's first run
    assert "scipy.linalg" in sys.modules
    before = blas_at_two
    during = []
    real_chunk = experiments._run_chunk

    def watched_chunk(u):
        during.append(_blas_threads())
        if u.vi == 1 and 3 in u.var.points:
            raise CountError("planted failure inside the run")
        return real_chunk(u)

    monkeypatch.setattr(experiments, "_run_chunk", watched_chunk)
    # one chunk per layout, each covering both sweep points
    cfg = ExperimentConfig(params=p_nine, K_M=1, trials=2, seed=3,
                           sweep="K_M", sweep_values=(1, 2), variants=(None, {"T": 1, "K_B": 9}))
    run_experiment(cfg)
    assert _blas_threads() == before
    # the second layout's chunk raises after the first chunk ran
    with pytest.raises(CountError, match="planted"):
        run_experiment(replace(cfg, sweep_values=(1, 3)))
    assert _blas_threads() == before
    # an out-of-range sweep point fails before any chunk runs
    with pytest.raises(CountError, match="out of range"):
        run_experiment(replace(cfg, sweep_values=(1, 10)))
    assert _blas_threads() == before
    assert len(during) == 4
    assert all(counts == _PINNED for counts in during)


@_needs_two_openblas
def test_blas_pin_ignores_scipy_linalg_imported_after_a_run():
    # a fresh interpreter, so its first run comes before scipy.linalg is imported
    script = textwrap.dedent("""
        import ctypes, json, sys
        from mimosched import ExperimentConfig, SystemParams, experiments, run_experiment
        builds = []
        for path, get_name, set_name in json.loads(sys.argv[1]):
            lib = ctypes.CDLL(path)
            get, put = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            builds.append((get, put))
        counts = lambda: [get() for get, _ in builds]
        cfg = ExperimentConfig(params=SystemParams(M=16, K=9, K_B=3, T=3), trials=2, seed=3)
        run_experiment(cfg)
        assert "scipy.linalg" not in sys.modules
        import scipy.linalg
        for _, put in builds:
            put(2)
        during, real_chunk = [], experiments._run_chunk
        experiments._run_chunk = lambda u: during.append(counts()) or real_chunk(u)
        run_experiment(cfg)
        print(json.dumps([during, counts()]))
    """)
    builds = json.dumps([[b.path, b.get_name, b.set_name] for b in _BLAS_BUILDS])
    during, after = json.loads(_fresh_python(script, builds))
    assert during and all(tuple(counts) == _PINNED for counts in during)
    assert after == [2] * len(_BLAS_BUILDS)


_needs_blas_shutdown = pytest.mark.skipif(
    _NUMPY_BLAS is None or not _BLAS_SHUTDOWN or not os.path.isdir("/proc/self/task"),
    reason="needs numpy's OpenBLAS with blas_thread_shutdown_, and /proc")


@_needs_blas_shutdown
def test_forked_caller_runs_with_no_blas_thread(p_nine, monkeypatch, blas_at_two):
    # a forked child restarts OpenBLAS's pool on its first count change, and the
    # idle pool thread spun through the run and on after it
    seen = []
    real_period = experiments.run_period
    monkeypatch.setattr(experiments, "run_period",
                        lambda *a, **kw: seen.append(_os_threads()) or real_period(*a, **kw))
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        run_experiment(ExperimentConfig(params=p_nine, K_M=1, trials=2, seed=3))
        after = (_os_threads(), _NUMPY_BLAS.get())
        a = np.ones((1024, 1024))
        a @ a
        send.send((seen, *after, _os_threads()))

    proc = ctx.Process(target=child)
    proc.start()
    send.close()
    report = recv.recv() if recv.poll(120) else None
    proc.join(timeout=10)
    assert not proc.is_alive() and proc.exitcode == 0
    during, threads_after, count_after, threads_after_matmul = report
    assert during and all(n == 1 for n in during)
    # the caller's count is back, with no pool thread beside it
    assert (threads_after, count_after) == (1, 2)
    # and its next threaded call re-creates the pool
    assert threads_after_matmul > 1


def _direct_period(p, bad=False):
    """Arguments of a direct run_period call: two realizations served on one plan, the
    second's block 0 singular when ``bad``."""
    gains = np.stack([draw_channels(p, np.ones(p.K), RngStream(5, n).generator())
                      for n in range(2)])
    if bad:
        gains[1, 1] = gains[1, 0]
    members = np.arange(p.K).reshape(1, p.T, p.K_B).repeat(2, axis=0)
    return gains, np.arange(2), members, np.ones((2, p.K)), p


@pytest.fixture
def block_threads(monkeypatch):
    """numpy's OpenBLAS thread count at each evaluate_block call of run_period, in order."""
    seen, real_block = [], experiments.evaluate_block
    monkeypatch.setattr(experiments, "evaluate_block",
                        lambda *a: seen.append(_NUMPY_BLAS.get()) or real_block(*a))
    return seen


@_needs_blas_shutdown
def test_direct_run_period_pins_blas_in_a_forked_caller(p_nine, block_threads, blas_at_two):
    # no run_experiment around it: the call pins numpy's OpenBLAS itself, then
    # restores the caller's 2 threads with no pool thread left beside it
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        rates = run_period(*_direct_period(p_nine))
        send.send((rates.shape, block_threads, _NUMPY_BLAS.get(), _os_threads()))

    proc = ctx.Process(target=child)
    proc.start()
    send.close()
    report = recv.recv() if recv.poll(120) else None
    proc.join(timeout=10)
    assert not proc.is_alive() and proc.exitcode == 0
    assert report == ((2, 9), [1], 2, 1)


@pytest.mark.skipif(_NUMPY_BLAS is None, reason="needs numpy's OpenBLAS thread-count symbols")
def test_guard_trip_in_a_direct_run_period_restores_blas_threads(p_nine, block_threads,
                                                                 blas_at_two):
    with pytest.raises(SingularMatrixError) as err:
        run_period(*_direct_period(p_nine, bad=True))
    assert err.value.index == (1, 0)
    assert block_threads == [1]
    assert _NUMPY_BLAS.get() == 2


def test_numpy_openblas_is_looked_up_once_per_process():
    # the pin runs at every run_period call, nested in a run or not, and finds
    # numpy's OpenBLAS through its extension module only the first time
    script = textwrap.dedent("""
        import ctypes
        import numpy as np
        ours, real_cdll, opened = np._core._multiarray_umath.__file__, ctypes.CDLL, []
        ctypes.CDLL = lambda name, *a, **kw: opened.append(name) or real_cdll(name, *a, **kw)
        from mimosched import ExperimentConfig, RngStream, SystemParams, draw_channels
        from mimosched import run_experiment, run_period
        p = SystemParams(M=16, K=9, K_B=3, T=3)
        gains = draw_channels(p, [1.0] * 9, RngStream(5).generator())[None]
        period = gains, [0], np.arange(9).reshape(1, 3, 3), np.ones((1, 9)), p
        run_period(*period)
        for _ in range(2):
            run_experiment(ExperimentConfig(params=p, trials=2, seed=3))
        run_period(*period)
        print(opened.count(ours))
    """)
    assert _fresh_python(script).strip() == "1"


def test_failed_pooled_run_leaves_no_workers(p_nine, cell_model, monkeypatch, opened_pools):
    before = _blas_threads()
    # an out-of-range sweep point fails before a pool opens
    with pytest.raises(CountError):
        run_experiment(ExperimentConfig(params=p_nine, K_M=1, trials=4, seed=3,
                                        sweep="K_M", sweep_values=(1, 10)), workers=2)
    assert opened_pools == []
    real_drops = experiments._drops
    calls = itertools.count()

    def fail_second_layout(*args):
        if next(calls) == 1:
            raise CountError("planted set-up failure")
        return real_drops(*args)

    monkeypatch.setattr(experiments, "_drops", fail_second_layout)
    # every layout is set up before the pool starts: the second one's set-up
    # fails with no process started
    with pytest.raises(CountError, match="planted"):
        run_experiment(_het_sweep(p_nine, cell_model), workers=2)
    assert len(opened_pools) == 1 and opened_pools[0].maps == 0
    assert multiprocessing.active_children() == []
    assert _blas_threads() == before


_needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                 reason="the patched unit reaches pool processes only by fork")


@_needs_fork
def test_a_unit_failing_in_a_pool_process_fails_the_run(p_nine, cell_model, monkeypatch,
                                                          opened_pools):
    before, parent, real_chunk = _blas_threads(), os.getpid(), experiments._run_chunk

    def fail_in_a_child(u):
        if os.getpid() != parent:
            raise CountError(f"planted unit failure in drop {u.drop}")
        return real_chunk(u)

    monkeypatch.setattr(experiments, "_run_chunk", fail_in_a_child)
    # 12 units at 2 workers: unit 1, the second half of drop 0's trials, is the
    # first the pool process runs
    with pytest.raises(CountError, match="planted unit failure in drop 0"):
        run_experiment(_het_sweep(p_nine, cell_model), workers=2)
    assert len(opened_pools) == 1 and opened_pools[0].maps == 1
    assert multiprocessing.active_children() == []
    assert _blas_threads() == before


@_needs_fork
def test_a_pool_process_that_dies_fails_the_run(p_nine, cell_model, monkeypatch):
    parent, real_chunk = os.getpid(), experiments._run_chunk
    monkeypatch.setattr(experiments, "_run_chunk",
                        lambda u: real_chunk(u) if os.getpid() == parent else os._exit(1))
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="exited with code 1 before sending its result"):
        run_experiment(_het_sweep(p_nine, cell_model), workers=2)
    # a pipe whose one sending end is gone reads as EOF: no wait for a result
    assert time.perf_counter() - start < 1.0
    assert multiprocessing.active_children() == []


def _worker_blas_threads(_):
    return os.getpid(), _blas_threads(), _os_threads()


@_needs_two_openblas
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the probe function reaches pool workers only by fork")
def test_pool_workers_run_blas_single_threaded(blas_at_two):
    # used below run_experiment, so the parent's own count is untouched
    # and only the pool's initializer can bring the workers to one thread
    with experiments._worker_pool(2) as pool:
        seen = list(pool.map(_worker_blas_threads, range(8)))
    assert len(seen) == 8
    assert all(pid != os.getpid() for pid, _, _ in seen)
    assert all(counts == _PINNED for _, counts, _ in seen)
    assert _blas_threads() == blas_at_two
    # the initializer's count change shut the pool it restarted down again
    if _BLAS_SHUTDOWN:
        assert all(threads == 1 for _, _, threads in seen)


def test_import_loads_no_second_openblas():
    # scipy.stats and scipy.linalg, which the engine never calls, slow the import
    probe = "import sys, mimosched; print(sorted({'scipy.stats', 'scipy.linalg'} & set(sys.modules)))"
    assert _fresh_python(probe).strip() == "[]"


def test_import_loads_no_scipy_and_loads_numpy_random():
    # eq17's gamma functions are numpy and math: no scipy module, and its
    # OpenBLAS, is loaded. numpy.random comes with the package, so a process
    # forked after the import does not load it at its first draw
    probe = ("import sys, mimosched; "
             "print([m for m in sys.modules if m.startswith('scipy')], 'numpy.random' in sys.modules)")
    assert _fresh_python(probe).strip() == "[] True"


def test_public_names():
    # an export is added or removed on purpose only
    exports = {
        "ConfigError", "CountError", "DimensionError", "DomainError", "ExperimentConfig",
        "LargeScaleModel", "QuadratureError", "RangeError", "RegimeError", "ResultRow",
        "RngStream", "ScaleError", "SimulationError", "SingularMatrixError", "SystemParams",
        "UnknownPresetError", "apply_misreport", "channel_magnitudes", "config_from_dict",
        "db_to_linear", "draw_channels", "draw_large_scale", "emit_csv", "evaluate_block",
        "group_by_large_scale", "group_by_magnitude", "group_by_sus", "group_randomly",
        "grouping_changed_over", "grouping_changed_under", "grouping_unchanged_under",
        "homogeneous_uniform", "honest_profile", "large_scale_coefficient", "loss_limits",
        "loss_rr_cm", "loss_single_block", "loss_upper_bound", "maxmin_power", "preset",
        "preset_names", "prop3_terms", "rate_accurate_single_block", "rate_heterogeneous_block",
        "rate_misreport_single_block", "run_cell", "run_experiment", "run_period",
        "same_grouping", "zf_effective_gains"}
    modules = {"analytic", "channel", "core", "experiments", "presets", "scheduling",
               "strategies", "zf"}
    # a fresh interpreter: here the tests' own imports add submodules such as cli
    probe = "import mimosched; print(sorted(n for n in vars(mimosched) if not n.startswith('_')))"
    assert _fresh_python(probe).strip() == str(sorted(exports | modules))


def test_pooled_run_imports_no_module():
    # the pool's modules come with the package: a run forked from an imported
    # package, as perfbench forks its passes, does not import them per run
    probe = textwrap.dedent("""
        import sys
        from mimosched import preset, run_experiment
        from dataclasses import replace
        before = set(sys.modules)
        run_experiment(replace(preset("fig7"), trials=2, drops=2), workers=2)
        print(sorted(set(sys.modules) - before))
    """)
    assert _fresh_python(probe).strip() == "[]"


def test_emit_csv_layout(tmp_path):
    rows = run_experiment(ExperimentConfig(
        params=SystemParams(M=16, K=8, K_B=4, T=2), trials=5, seed=3,
        sweep="K_M", sweep_values=(2, 0, 1)))
    buf = io.StringIO()
    emit_csv(rows, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert text.endswith("\n") and "\r" not in text
    # rows come out ordered by sweep value first, metric name second
    keys = [(float(l.split(",")[2]), l.split(",")[3]) for l in lines[1:]]
    assert keys == sorted(keys)
    path = tmp_path / "out.csv"
    emit_csv(rows, str(path))
    assert path.read_text() == text


def test_emit_csv_full_precision():
    row = ResultRow("s", "none", 0.0, "m", 1.0 / 3.0, 0.0, 0.0, 1, 1, 42)
    buf = io.StringIO()
    emit_csv([row], buf)
    assert "0.33333333333333331" in buf.getvalue()


def test_emit_csv_rejects_empty():
    with pytest.raises(ConfigError):
        emit_csv([], io.StringIO())


def test_config_from_dict_defaults():
    cfg = config_from_dict({})
    assert replace(cfg.params, P=10.0) == SystemParams(M=64, K=32, K_B=8, T=4, P=10.0)
    assert cfg.params.P == pytest.approx(10.0)
    assert cfg.delta == pytest.approx(0.01, rel=1e-12)
    assert cfg.trials == 2000 and cfg.drops == 1
    assert cfg.strategy == ("homogeneous_uniform",)


def test_config_from_dict_heterogeneous_defaults():
    cfg = config_from_dict({"scenario": "heterogeneous",
                            "grouping_rule": "large_scale"})
    assert cfg.drops == 200
    assert cfg.large_scale is not None
    assert cfg.large_scale.cell_radius == 500.0
    assert cfg.strategy == ("grouping_changed_under",)


def test_config_from_dict_db_conversions():
    cfg = config_from_dict({"P_dB": 20.0, "delta_dB": -10.0})
    assert cfg.params.P == pytest.approx(100.0, rel=1e-12)
    assert cfg.delta == pytest.approx(0.1, rel=1e-12)


@pytest.mark.parametrize("d", [
    {"P": 10.0, "P_dB": 10.0},
    {"delta": 0.01, "delta_dB": -20.0},
    {"power": 10.0},
    {"trials": "many"},
    {"delta": -1.0},
    "not a dict",
    {"variants": []},                                   # each ran the base layout
    {"variants": None},
    {"grouping_rule": [["sus"]]},                       # each was a TypeError in construction
    {"track_users": 5},
    {"delta": True},                                    # ran as delta = 1.0
    {"P": "abc"},
    {"P_dB": [10]},
    {"label": 5},                                       # wrote 5 to the scenario column
    {"variants": [{"label": 5}, None]},                 # became the suffix __5
    {"cell_radius": "abc"},                             # each was ignored by the homogeneous run
    {"shadow_sigma_db": 8.0},
    {"track_users": [1]},
])
def test_config_from_dict_rejects(d):
    with pytest.raises(ConfigError):
        config_from_dict(d)


@pytest.mark.parametrize("d", [
    {"trials": 2.7}, {"T": 2.5}, {"M": 64.9}, {"drops": 3.9}, {"seed": 1.5}, {"K_B": "8"},
    {"K_M": 1.5}, {"track_users": [1.7]}, {"K": 32.5},
])
def test_config_from_dict_rejects_fractional_integers(d):
    # each was truncated (or, for the string, converted) to an integer and run
    with pytest.raises(ConfigError, match="must be an integer"):
        config_from_dict(d)


def test_config_from_dict_accepts_integral_floats():
    cfg = config_from_dict({"M": 64.0, "T": 4.0, "K_B": np.int64(8), "trials": 3.0,
                            "seed": 7.0, "K_M": 2.0, "track_users": [1.0],
                            "scenario": "heterogeneous"})
    assert replace(cfg.params, P=10.0) == SystemParams(M=64, K=32, K_B=8, T=4, P=10.0)
    assert cfg.params.P == pytest.approx(10.0)
    assert (cfg.trials, cfg.seed, cfg.K_M, cfg.track_users) == (3, 7, 2, (1,))
    assert all(type(v) is int for v in (cfg.params.M, cfg.trials, cfg.seed, cfg.K_M))


def test_config_from_dict_dimension_mismatch_propagates():
    with pytest.raises(SimulationError):
        config_from_dict({"K": 30})


def _flatten(cfg):
    # a preset as a flat JSON config: its params fields, its cell-model fields and the rest
    flat = {f.name: getattr(cfg, f.name) for f in fields(cfg)
            if f.name not in ("params", "large_scale")}
    for part in (cfg.params, cfg.large_scale):
        if part is not None:
            flat.update((f.name, getattr(part, f.name)) for f in fields(part))
    return flat


@pytest.mark.parametrize("name", preset_names())
def test_config_from_dict_round_trips_every_preset(name):
    assert config_from_dict(_flatten(preset(name))) == preset(name)


@st.composite
def _flat_configs(draw):
    """A valid flat JSON config: a random subset of the keys, with valid values."""
    het = draw(st.booleans())
    sweep, values = draw(st.sampled_from([
        ("none", st.lists(st.floats(-20, 30), min_size=1, max_size=1)),
        ("P_dB", st.lists(st.floats(-20, 30), min_size=1, max_size=3, unique=True)),
        ("K_M", st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))]))
    keys = {
        "M": st.integers(8, 64), "T": st.integers(1, 4), "K_B": st.integers(1, 8),
        "noise_var": st.floats(0.1, 10), "beta_default": st.floats(0.1, 10),
        "grouping_rule": st.lists(st.sampled_from(
            ["channel_magnitude", "sus", "random"] + ["large_scale"] * het),
            min_size=1, max_size=2, unique=True),
        "strategy": st.sampled_from(sorted(
            experiments._HET_STRATEGIES if het else experiments._HOM_STRATEGIES)),
        "K_M": st.integers(1, 8), "beta_low_factor": st.floats(0.1, 0.9),
        "beta_high_factor": st.floats(1.1, 10), "sweep": st.just(sweep), "sweep_values": values,
        "trials": st.integers(1, 5000), "drops": st.integers(1, 500),
        "seed": st.integers(0, 2**32), "sus_alpha": st.floats(0.01, 1),
        # a homogeneous run writes no per-user row, so it takes no rank
        "track_users": st.none() | st.lists(st.integers(1, 32), max_size=3 if het else 0,
                                            unique=True),
        "variants": st.lists(st.none() | st.fixed_dictionaries(
            {"T": st.integers(1, 4), "K_B": st.integers(1, 4)}), min_size=1, max_size=2),
        "label": st.text(max_size=8),
        "P": st.floats(0.1, 1e3), "P_dB": st.floats(-20, 30),
        "delta": st.floats(1e-3, 1), "delta_dB": st.floats(-30, 0),
        "scenario": st.just("heterogeneous" if het else "homogeneous"),
    }
    if het:
        keys.update(cell_radius=st.floats(100, 1000), ref_distance=st.floats(10, 500),
                    path_loss_exp=st.floats(2, 5), shadow_sigma_db=st.floats(0, 10))
    chosen = draw(st.sets(st.sampled_from(sorted(keys))))
    # a linear value or its dB form, not both; a sweep and its values together
    chosen -= {draw(st.sampled_from(["P", "P_dB"])), draw(st.sampled_from(["delta", "delta_dB"]))}
    if "sweep" in chosen or "sweep_values" in chosen:
        chosen |= {"sweep", "sweep_values"}
    if het:
        chosen.add("scenario")
    return {k: draw(keys[k]) for k in sorted(chosen)}


@settings(max_examples=200, deadline=None)
@given(d=_flat_configs())
def test_config_from_dict_matches_the_hand_built_config(d):
    het = d.get("scenario") == "heterogeneous"
    t, kb = d.get("T", 4), d.get("K_B", 8)
    params = SystemParams(
        M=d.get("M", 64), K=t * kb, K_B=kb, T=t,
        P=d["P"] if "P" in d else db_to_linear(d.get("P_dB", 10.0)),
        noise_var=d.get("noise_var", 1.0), beta_default=d.get("beta_default", 1.0))
    cell = LargeScaleModel(
        cell_radius=d.get("cell_radius", 500.0), ref_distance=d.get("ref_distance", 200.0),
        path_loss_exp=d.get("path_loss_exp", 3.8), shadow_sigma_db=d.get("shadow_sigma_db", 8.0))
    assert config_from_dict(d) == ExperimentConfig(
        params=params, scenario=d.get("scenario", "homogeneous"),
        grouping_rule=d.get("grouping_rule", "channel_magnitude"),
        strategy=d.get("strategy", "grouping_changed_under" if het else "homogeneous_uniform"),
        K_M=d.get("K_M", 1),
        delta=d["delta"] if "delta" in d else db_to_linear(d.get("delta_dB", -20.0)),
        beta_low_factor=d.get("beta_low_factor", 0.5),
        beta_high_factor=d.get("beta_high_factor", 2.0),
        large_scale=cell if het else None, sweep=d.get("sweep", "none"),
        sweep_values=d.get("sweep_values", (0.0,)), trials=d.get("trials", 2000),
        drops=d.get("drops", 200 if het else 1), seed=d.get("seed", 42),
        sus_alpha=d.get("sus_alpha", 0.3), track_users=d.get("track_users"),
        variants=d.get("variants", (None,)), label=d.get("label", "custom"))


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## JSON config", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `(\w+)` \|", section, re.M)) == experiments._CONFIG_KEYS


def test_variant_suffixes(p_default):
    cfg = ExperimentConfig(
        params=p_default, trials=4, seed=2,
        variants=({"T": 8, "K_B": 4}, {"T": 4, "K_B": 8}))
    rows = run_experiment(cfg)
    names = {r.metric for r in rows}
    assert "theta_cm__T8_KB4" in names
    assert "theta_cm__T4_KB8" in names
    assert "analytic_eq17__T8_KB4" in names


def test_variant_label_override(p_default):
    cfg = ExperimentConfig(
        params=p_default, trials=4, seed=2,
        variants=({"label": "wide", "T": 2, "K_B": 16}, None))
    names = {r.metric for r in run_experiment(cfg)}
    assert "theta_cm__wide" in names
    assert "theta_cm__T4_KB8" in names


def test_analytic_rows_follow_sweep_gates(p_default):
    cfg = ExperimentConfig(params=p_default, trials=6, seed=9,
                           sweep="K_M", sweep_values=(0, 1, 9))
    rows = run_experiment(cfg)
    assert len(_rows_by_metric(rows, "theta_cm")) == 3
    assert len(_rows_by_metric(rows, "theta_cm_paired")) == 3
    # closed form covers misreporter counts up to the block size only
    assert {r.sweep_value for r in _rows_by_metric(rows, "analytic_eq17")} == {0.0, 1.0}
    assert {r.sweep_value for r in _rows_by_metric(rows, "upper_bound_eq21")} == {1.0}
    eq17 = _one(rows, "analytic_eq17", 0.0)
    assert eq17.trials == 0 and abs(eq17.mean) < 1e-9


def test_sweep_value_out_of_range(p_default):
    cfg = ExperimentConfig(params=p_default, trials=2, sweep="K_M",
                           sweep_values=(33,))
    with pytest.raises(CountError):
        run_cell(cfg, 33)


def test_block_aligned_misreporters_cause_no_homogeneous_loss(p_default):
    # K_M equal to the block size: every misreporter lands in the last
    # magnitude-ranked block, honest blocks keep honest users only
    cfg = ExperimentConfig(params=p_default, K_M=8, delta=0.01, trials=300, seed=21)
    rows = run_experiment(cfg)
    assert abs(_one(rows, "theta_cm").mean) <= 0.02


def test_preset_names_and_lookup():
    names = preset_names()
    assert names == tuple(sorted(names))
    assert set(names) == {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}
    with pytest.raises(UnknownPresetError):
        preset("fig1")


def test_preset_shapes():
    f2 = preset("fig2")
    assert f2.sweep == "P_dB"
    assert f2.sweep_values == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    assert f2.trials == 2000
    assert set(f2.grouping_rule) == {"channel_magnitude", "sus", "random"}
    f3 = preset("fig3")
    assert f3.sweep == "K_M"
    assert f3.sweep_values == tuple(range(33))
    f4 = preset("fig4")
    assert f4.scenario == "heterogeneous"
    assert f4.drops == 200 and f4.trials == 50
    assert f4.large_scale.cell_radius == 500.0
    f7 = preset("fig7")
    assert len(f7.variants) == 4


@pytest.mark.parametrize("name, drops", [("fig4", 10), ("fig5", 5), ("fig6", 5), ("fig7", 3)])
def test_drop_setups_equal_the_profile_by_profile_oracle(name, drops):
    # one kernel call per strategy per drop gives the arrays that building
    # each (sweep point, strategy) profile on its own gives, bit for bit
    cfg = replace(preset(name), trials=2, drops=drops)
    for vi, (var, cells) in enumerate(zip(_variants(cfg), cells_oracle(cfg), strict=True)):
        got = _drops(cfg, vi, var)
        want = drop_setups_oracle(cfg, vi, cells)
        assert len(got) == len(want) == drops
        for d, (betas, scales, honest, ls_plans, profile) in zip(got, want):
            for a, b in ((d.betas, betas), (d.scales, scales), (d.scales == 1.0, honest),
                         (d.ls_plans, ls_plans), (d.profile, profile)):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _exact(rows) -> list:
    # every field of every row, floats by their bits; NaN of either sign is one value
    return [tuple(("nan" if math.isnan(x) else x.hex()) if isinstance(x, float) else x
                  for x in astuple(r)) for r in rows]


def _reduced_twice(cfg, monkeypatch, pooled):
    """Each variant's rows from the reducer and from its oracle, on the same unit results.

    ``pooled`` runs the units in this process as a two-worker pool splits
    them, so every drop past drop 0 returns a sum of its first trials
    followed by the rates of the rest.
    """
    pairs, real = [], experiments._variant_rows

    def both(cfg, var, drops, results):
        pairs.append((list(real(cfg, var, drops, results)),
                      list(variant_rows_oracle(cfg, var, drops, results))))
        return iter(pairs[-1][0])

    monkeypatch.setattr(experiments, "_variant_rows", both)
    pool = SimpleNamespace(map=lambda fn, units: map(fn, units)) if pooled else None
    experiments._run(cfg, _variants(cfg), 2 if pooled else 1, pool)
    return pairs


_HET_OVER_CM = ExperimentConfig(
    params=SystemParams(M=64, K=32, K_B=8, T=4, P=10.0), scenario="heterogeneous",
    grouping_rule="channel_magnitude", strategy="grouping_changed_over", beta_high_factor=2.0,
    large_scale=LargeScaleModel(), sweep="K_M", sweep_values=(1, 2, 4, 8), trials=5, drops=5,
    seed=7, track_users=(1, 16, 32), label="het_over_cm")
_P_NINE = SystemParams(M=16, K=9, K_B=3, T=3, P=10.0)


@pytest.mark.parametrize("pooled", [False, True], ids=["one_unit_per_drop", "split_drops"])
@pytest.mark.parametrize("cfg", [
    replace(preset("fig2"), trials=3),
    replace(preset("fig3"), trials=4),
    replace(preset("fig4"), trials=5, drops=10),
    replace(preset("fig5"), trials=3, drops=5),
    replace(preset("fig6"), trials=3, drops=5),
    replace(preset("fig7"), trials=2, drops=3),
    _HET_OVER_CM,
    replace(preset("fig6"), trials=3, drops=1),
    replace(preset("fig4"), trials=1, drops=4),
    ExperimentConfig(params=_P_NINE, scenario="heterogeneous", large_scale=LargeScaleModel(),
                     grouping_rule=("large_scale", "random"),
                     strategy=("grouping_changed_under", "grouping_unchanged_under"),
                     sweep="K_M", sweep_values=(9, 2), trials=3, drops=4, seed=3),
], ids=["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "het_over_cm", "one_drop", "one_trial",
        "no_honest_user"])
def test_reducer_rows_equal_the_point_by_point_oracle(cfg, pooled, monkeypatch):
    # the whole-array reduction gives the bits of reducing one sweep point,
    # rule, strategy and drop at a time, NaN where the oracle has NaN
    pairs = _reduced_twice(cfg, monkeypatch, pooled)
    assert len(pairs) == len(cfg.variants)
    for got, want in pairs:
        assert len(got) == len(want) == len(cfg.sweep_values)
        for g, w in zip(got, want):
            assert _exact(g) == _exact(w)


def test_a_point_with_no_honest_user_reads_nan_with_zero_spread(monkeypatch):
    # at K_M = K every user misreports: the honest-user loss is 0 / 0, and a
    # non-finite column still reports std and ci95 of 0
    cfg = ExperimentConfig(params=_P_NINE, scenario="heterogeneous", large_scale=LargeScaleModel(),
                           grouping_rule="large_scale", strategy="grouping_changed_under",
                           sweep="K_M", sweep_values=(9, 2), trials=3, drops=4, seed=3)
    rows = [r for point in _reduced_twice(cfg, monkeypatch, False)[0][0] for r in point]
    none = _one(rows, "avg_honest_loss_ls", 9.0)
    assert math.isnan(none.mean) and (none.std, none.ci95) == (0.0, 0.0)
    assert math.isfinite(_one(rows, "avg_honest_loss_ls", 2.0).mean)


@pytest.mark.parametrize("config", [
    dict(grouping_rule=("sus", "random"), strategy=("none", "homogeneous_uniform"), K_M=2,
         delta=0.1, sweep="P_dB", sweep_values=(0.0, 10.0), variants=(None, {"T": 1, "K_B": 9})),
    dict(scenario="heterogeneous", grouping_rule=("large_scale", "channel_magnitude"),
         strategy=("grouping_changed_under", "grouping_changed_over"), sweep="K_M",
         sweep_values=(1, 3), drops=3, large_scale=LargeScaleModel()),
], ids=["homogeneous", "heterogeneous"])
def test_rows_equal_the_period_by_period_oracle(p_nine, config):
    # 10 trials: numpy sums more than 8 values pairwise, the oracle exactly; atol
    # 1e-14 covers the rounding of values near 0, such as the std of a tiny loss
    cfg = ExperimentConfig(params=p_nine, trials=10, seed=5, **config)
    got = {(r.sweep_value, r.metric): (r.mean, r.std, r.ci95, r.trials, r.drops)
           for r in run_experiment(cfg)}
    want = rows_oracle(cfg)
    assert got.keys() == want.keys()
    for key, row in want.items():
        np.testing.assert_allclose(got[key], row, rtol=1e-12, atol=1e-14, err_msg=str(key))


def test_heterogeneous_attack_count_is_checked_before_any_set_up(p_nine, cell_model, monkeypatch):
    # K_M = 0 leaves an attack nobody to move: it failed in the first drop's
    # set-up, after the large-scale draws; now it fails with the other counts
    monkeypatch.setattr(experiments, "_drops", lambda *a: pytest.fail("set-up ran"))
    cfg = replace(_het_sweep(p_nine, cell_model), sweep_values=(1, 0))
    with pytest.raises(CountError, match="out of range"):
        run_experiment(cfg)
    monkeypatch.undo()
    # the honest strategy alone has no attack to check
    rows = run_experiment(replace(cfg, strategy=("none",), trials=2, drops=1))
    assert {r.sweep_value for r in rows} == {0.0, 1.0}
