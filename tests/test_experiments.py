"""Experiment orchestration: stream ids, cells, sweeps, CSV, presets."""
import ctypes
import io
import itertools
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimosched import (
    ConfigError,
    CountError,
    DimensionError,
    DomainError,
    ExperimentConfig,
    ResultRow,
    RngStream,
    SimulationError,
    SystemParams,
    UnknownPresetError,
    config_from_dict,
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
from mimosched.experiments import CSV_HEADER, pack_stream
from mimosched.strategies import grouping_changed_under, grouping_unchanged_under
from oracles import period_rates_oracle


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
])
def test_config_rejects(p_default, kwargs):
    # construction only: a config that got through could hang when run
    with pytest.raises(ConfigError):
        ExperimentConfig(params=p_default, **kwargs)


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
        _, snr = maxmin_power(zf_effective_gains(ch[members]), p_nine.P, p_nine.noise_var)
        np.testing.assert_allclose(rates[0, members] * p_nine.T, np.log2(1.0 + snr), rtol=1e-12)


def test_run_period_split_averages(p_nine):
    # misreporters get the block SNR divided by their own scale, honest users
    # the block SNR itself, each in the block the plan puts them in
    rng = RngStream(12, 0).generator()
    betas = np.linspace(2.0, 1.0, 9)
    ch = draw_channels(p_nine, betas, rng)
    mp = grouping_changed_under(betas, 2)
    plan = group_by_large_scale(mp.reported_beta, p_nine)
    rates = run_period(ch[None], [0], plan[None], mp.scale[None], p_nine)[0]
    for members in plan:
        block = evaluate_block(ch[members][None], mp.scale[members][None], [0], p_nine)
        np.testing.assert_allclose(rates[members] * p_nine.T, block[0], rtol=1e-12)
    honest = mp.honest_mask()
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
    # 12 distinct (trial, sorted members) blocks per trial, in one call per slice
    shapes, kernels = [], []
    gains = zf.zf_effective_gains
    monkeypatch.setattr(zf, "zf_effective_gains",
                        lambda rows: shapes.append(rows.shape) or gains(rows))
    block = experiments.evaluate_block
    monkeypatch.setattr(experiments, "evaluate_block",
                        lambda *a: kernels.append(a[2].shape) or block(*a))
    cfg = replace(preset("fig6"), trials=10, drops=1, sweep_values=(2,))
    run_experiment(cfg)
    assert shapes == [(96, 8, 64), (24, 8, 64)]
    assert kernels == [(48, 4), (12, 4)]


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
    # rates it gets served on its own, for any K
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
        attack = grouping_unchanged_under(betas, p_default, k_m)
        plans = np.stack([group_by_large_scale(betas, p_default),
                          group_by_large_scale(attack.reported_beta, p_default)])
        assert same_grouping(plans[0], plans[1]) and not np.array_equal(plans[0], plans[1])
        gains = draw_channels(p_default, betas, rng)[None]
        for scale in (np.ones(p_default.K), attack.scale):
            rates = run_period(gains, [0, 0], plans, np.stack([scale, scale]), p_default)
            np.testing.assert_array_equal(rates[0], rates[1])


def test_each_distinct_block_is_factorized_once(monkeypatch):
    # reduced fig7: every slice factorizes one row stack per distinct
    # (trial, sorted members) block of its periods, counted here with sets,
    # and that is fewer than one per block of each distinct (trial, plan)
    factorized, blocks, plan_blocks = [], [], []
    gains = zf.zf_effective_gains
    monkeypatch.setattr(zf, "zf_effective_gains",
                        lambda rows: factorized.append(len(rows)) or gains(rows))
    period = experiments.run_period

    def counted(g, trial, members, *rest):
        blocks.append(len({(n, tuple(sorted(b))) for n, plan in zip(trial.tolist(), members)
                           for b in plan.tolist()}))
        plan_blocks.append(members.shape[1] * len({(n, plan.tobytes())
                                                   for n, plan in zip(trial.tolist(), members)}))
        return period(g, trial, members, *rest)

    monkeypatch.setattr(experiments, "run_period", counted)
    run_experiment(replace(preset("fig7"), trials=2, drops=3))
    assert factorized == blocks
    assert sum(blocks) < sum(plan_blocks)


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

    Each one counts its ``map`` calls and its submissions.
    """
    opened = []

    class CountedPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            self.maps = self.submits = 0
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            self.maps += 1
            return super().map(*args, **kwargs)

        def submit(self, *args, **kwargs):
            self.submits += 1
            return super().submit(*args, **kwargs)

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
        assert 1 <= pool.submits <= 4 * workers + 1
        if config is _hom_split:
            # 2 drops split into 4 x workers units of one submission each
            assert pool.submits == 4 * workers


def test_run_cell_opens_its_own_pool(p_nine, cell_model, opened_pools):
    cfg = _het_sweep(p_nine, cell_model)
    assert run_cell(cfg, 2, workers=2) == run_cell(cfg, 2)
    assert len(opened_pools) == 1
    assert multiprocessing.active_children() == []
    # the same engine as a whole run, on one sweep point
    assert run_cell(cfg, 2) == [r for r in run_experiment(cfg) if r.sweep_value == 2]


def _openblas_thread_getters():
    """get_num_threads of each bundled OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in os.path.basename(line.split()[-1])})
    except OSError:
        return ()
    getters = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                getters.append(fn)
    return tuple(getters)


_BLAS_GETTERS = _openblas_thread_getters()
_needs_openblas = pytest.mark.skipif(
    not _BLAS_GETTERS, reason="no scipy_openblas thread-count symbol found")


def _blas_threads():
    return tuple(get() for get in _BLAS_GETTERS)


@_needs_openblas
def test_run_experiment_restores_blas_threads(p_nine, monkeypatch):
    before = _blas_threads()
    during = []
    real_chunk = experiments._run_chunk

    def watched_chunk(u):
        during.append(_blas_threads())
        if u.vi == 1 and 3 in u.setup.points:
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
    assert all(set(counts) == {1} for counts in during)


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
    # the first layout's chunks go out to the pool, then the second layout's set-up fails
    with pytest.raises(CountError, match="planted"):
        run_experiment(_het_sweep(p_nine, cell_model), workers=2)
    assert len(opened_pools) == 1 and opened_pools[0].submits >= 1
    assert multiprocessing.active_children() == []
    assert _blas_threads() == before


def _worker_blas_threads(_):
    return os.getpid(), _blas_threads()


@_needs_openblas
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the probe function reaches pool workers only by fork")
def test_pool_workers_run_blas_single_threaded():
    # used below run_experiment, so the parent's own count is untouched
    # and only the pool's initializer can bring the workers to one thread
    with experiments._worker_pool(2) as pool:
        seen = list(pool.map(_worker_blas_threads, range(8)))
    assert len(seen) == 8
    assert all(pid != os.getpid() for pid, _ in seen)
    assert all(set(counts) == {1} for _, counts in seen)


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
    assert cfg.params == SystemParams(M=64, K=32, K_B=8, T=4, P=pytest.approx(10.0))
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
                            "seed": 7.0, "K_M": 2.0, "track_users": [1.0]})
    assert cfg.params == SystemParams(M=64, K=32, K_B=8, T=4, P=pytest.approx(10.0))
    assert (cfg.trials, cfg.seed, cfg.K_M, cfg.track_users) == (3, 7, 2, (1,))
    assert all(type(v) is int for v in (cfg.params.M, cfg.trials, cfg.seed, cfg.K_M))


def test_config_from_dict_dimension_mismatch_propagates():
    with pytest.raises(SimulationError):
        config_from_dict({"K": 30})


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
