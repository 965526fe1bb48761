"""Misreport profile kernels, their grouping consequences and their reference oracles."""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimosched import (
    CountError,
    DimensionError,
    DomainError,
    ExperimentConfig,
    LargeScaleModel,
    RangeError,
    RngStream,
    ScaleError,
    SystemParams,
    group_by_large_scale,
    same_grouping,
)
from mimosched.channel import draw_large_scale
from mimosched.experiments import _drops, _variants
from mimosched.strategies import (
    grouping_changed_over,
    grouping_changed_under,
    grouping_unchanged_under,
    homogeneous_uniform,
    honest_profile,
)
from oracles import profile_oracle


def _betas9():
    return np.linspace(2.0, 1.0, 9)


def _block_sets(plan):
    # the plan's blocks as a set of member sets: block order and member order ignored
    return {frozenset(g) for g in plan.tolist()}


def _profile_of(cfg):
    # each sweep point's profile index of the honest baseline, then of each strategy
    return _drops(cfg, 0, _variants(cfg)[0])[0].profile.tolist()


def test_honest_profile_is_all_ones(p_nine, cell_model):
    scale, reported = honest_profile(np.array([2.0, 1.0]), [0, 2])
    assert np.all(scale == 1.0)
    assert np.array_equal(reported, [[2.0, 1.0]] * 2)
    # the heterogeneous "none" strategy is served the honest profile
    cfg = ExperimentConfig(params=p_nine, scenario="heterogeneous", large_scale=cell_model,
                           strategy=("none", "grouping_changed_under"), trials=1, drops=1)
    assert _profile_of(cfg) == [[0, 0, 1]]
    assert np.flatnonzero(scale != 1.0).size == 0


def test_homogeneous_uniform_counts(p_default):
    (mp0, mp1), reported = homogeneous_uniform(p_default, [0, 1], 0.01)
    assert np.all(mp0 == 1.0)
    assert list(np.flatnonzero(mp1 != 1.0)) == [0]
    assert mp1[0] == 0.01
    assert np.all(mp1[1:] == 1.0)
    assert np.allclose(reported[1], mp1 * p_default.beta_default)


def test_homogeneous_uniform_delta_one_is_honest(p_default):
    scale, _ = homogeneous_uniform(p_default, [5], 1.0)
    assert np.all(scale == 1.0)
    # intent still recorded: the strategy keeps its column, on the honest profile
    assert _profile_of(ExperimentConfig(params=p_default, K_M=5, delta=1.0, trials=1)) == [[0, 0]]


def test_homogeneous_uniform_rejects_bad_args(p_default):
    with pytest.raises(CountError):
        homogeneous_uniform(p_default, [33], 0.01)
    with pytest.raises(CountError):
        homogeneous_uniform(p_default, [1, -1], 0.01)
    with pytest.raises(ScaleError):
        homogeneous_uniform(p_default, [1], 0.0)


def test_sorted_betas_enforced():
    with pytest.raises(DomainError):
        grouping_changed_under(np.array([1.0, 2.0, 3.0]), [1])
    with pytest.raises(DomainError):
        grouping_changed_under(np.array([2.0, 2.0, 1.0]), [1])
    with pytest.raises(DomainError):
        grouping_changed_under(np.array([2.0, 1.0, -1.0]), [1])


def test_changed_under_reports_and_plan(p_nine):
    betas = _betas9()
    (scale,), (reported,) = grouping_changed_under(betas, [1])
    assert reported[0] == betas[-1] / 2.0  # default beta_low
    assert np.array_equal(reported[1:], betas[1:])
    assert np.allclose(scale, reported / betas)
    plan = group_by_large_scale(reported, p_nine)
    np.testing.assert_array_equal(plan, [[1, 2, 3], [4, 5, 6], [7, 8, 0]])


def test_changed_under_beta_low_range():
    betas = _betas9()
    with pytest.raises(RangeError):
        grouping_changed_under(betas, [1], beta_low=betas[-1])
    with pytest.raises(RangeError):
        grouping_changed_under(betas, [1], beta_low=0.0)
    with pytest.raises(CountError):
        grouping_changed_under(betas, [1, 10])


def test_changed_under_full_block_keeps_honest_cosets(p_nine):
    # K_M = K_B: the misreporters fill one block by themselves, so every
    # honest user keeps exactly its original co-members
    betas = _betas9()
    _, (reported,) = grouping_changed_under(betas, [3])
    honest_plan = group_by_large_scale(betas, p_nine)
    attacked = group_by_large_scale(reported, p_nine)
    assert set(attacked[-1].tolist()) == {0, 1, 2}
    honest_sets = {frozenset(g) - {0, 1, 2} for g in honest_plan.tolist()}
    attacked_sets = {frozenset(g) - {0, 1, 2} for g in attacked.tolist()}
    assert honest_sets == attacked_sets


def test_changed_over_reports_and_plan(p_nine):
    betas = _betas9()
    _, (reported,) = grouping_changed_over(betas, [1])
    assert reported[8] == 2.0 * betas[0]  # default beta_high
    plan = group_by_large_scale(reported, p_nine)
    np.testing.assert_array_equal(plan, [[8, 0, 1], [2, 3, 4], [5, 6, 7]])
    with pytest.raises(RangeError):
        grouping_changed_over(betas, [1], beta_high=betas[0])


def test_under_and_over_give_same_partition(p_nine):
    # K_M demotions and K_B - K_M promotions produce the same block partition
    betas = _betas9()
    under = grouping_changed_under(betas, [1, 2])[1]
    over = grouping_changed_over(betas, [p_nine.K_B - 1, p_nine.K_B - 2])[1]
    for pu, po in zip(group_by_large_scale(under, p_nine), group_by_large_scale(over, p_nine)):
        assert _block_sets(pu) == _block_sets(po)


def test_under_and_over_partition_match_larger_layout(p_default, cell_model):
    betas = draw_large_scale(p_default, cell_model, RngStream(51, 0).generator())
    _, (under,) = grouping_changed_under(betas, [3])
    _, (over,) = grouping_changed_over(betas, [p_default.K_B - 3])
    pu = group_by_large_scale(under, p_default)
    po = group_by_large_scale(over, p_default)
    assert _block_sets(pu) == _block_sets(po)


def test_misreport_direction_of_reports(p_default, cell_model):
    betas = draw_large_scale(p_default, cell_model, RngStream(51, 1).generator())
    (scale,), (reported,) = grouping_changed_under(betas, [4])
    m = np.flatnonzero(scale != 1.0)
    assert np.all(reported[m] < betas[m])
    assert np.all(reported > 0)
    (scale,), (reported,) = grouping_changed_over(betas, [4])
    m = np.flatnonzero(scale != 1.0)
    assert np.all(reported[m] > betas[m])
    keep = np.setdiff1d(np.arange(32), m)
    assert np.all(scale[keep] == 1.0)


def test_unchanged_under_first_recruit_midpoint(p_nine):
    betas = _betas9()
    (scale,), (reported,) = grouping_unchanged_under(betas, p_nine, [1])
    assert list(np.flatnonzero(scale != 1.0)) == [0]
    assert reported[0] == pytest.approx((betas[2] + betas[3]) / 2.0, rel=1e-14)


def test_unchanged_under_chain_layout(p_nine):
    # three recruits, one per block: each reports the next block's recruit's
    # true gain, the last reports the floor value
    betas = _betas9()
    (scale,), (reported,) = grouping_unchanged_under(betas, p_nine, [3])
    assert list(np.flatnonzero(scale != 1.0)) == [0, 3, 6]
    assert reported[0] == pytest.approx(betas[3], rel=1e-14)
    assert reported[3] == pytest.approx(betas[6], rel=1e-14)
    assert reported[6] == pytest.approx(betas[-1] / 2.0, rel=1e-14)


def test_unchanged_under_preserves_plan_small(p_nine, cell_model):
    for d in range(100):
        betas = draw_large_scale(p_nine, cell_model, RngStream(53, d).generator())
        honest_plan = group_by_large_scale(betas, p_nine)
        scales, reports = grouping_unchanged_under(betas, p_nine, np.arange(1, 10))
        for k_m, scale, reported in zip(range(1, 10), scales, reports):
            plan = group_by_large_scale(reported, p_nine)
            assert same_grouping(honest_plan, plan)
            m = np.flatnonzero(scale != 1.0)
            assert m.size == k_m
            assert np.all(reported[m] < betas[m])


def test_unchanged_under_preserves_plan_reference_layout(p_default, cell_model):
    for d in range(10):
        betas = draw_large_scale(p_default, cell_model, RngStream(57, d).generator())
        honest_plan = group_by_large_scale(betas, p_default)
        for reported in grouping_unchanged_under(betas, p_default, [1, 5, 10, 16, 32])[1]:
            assert same_grouping(honest_plan, group_by_large_scale(reported, p_default))


@settings(max_examples=150)
@given(t=st.integers(1, 6), kb=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_unchanged_under_plan_is_the_honest_plan_with_liars_last(t, kb, seed, data):
    # over random layouts and attacker counts the large-scale plan keeps
    # every honest block, in block order. It is not the honest plan array
    # for array: each block's misreporters report below its honest members,
    # so they sort to the block's end, ascending. The two plans are equal
    # arrays exactly when no block mixes honest users and misreporters.
    p = SystemParams(M=max(2, kb), K=t * kb, K_B=kb, T=t)
    betas = draw_large_scale(p, LargeScaleModel(), RngStream(seed, 0).generator())
    k_m = data.draw(st.integers(1, p.K))
    (scale,), (reported,) = grouping_unchanged_under(betas, p, [k_m])
    honest = group_by_large_scale(betas, p)
    plan = group_by_large_scale(reported, p)
    assert same_grouping(plan, honest)
    liar = scale != 1.0
    np.testing.assert_array_equal(
        plan, [sorted(g, key=lambda u: (liar[u], u)) for g in honest.tolist()])
    mixed = any(0 < liar[g].sum() < kb for g in honest)
    assert np.array_equal(plan, honest) == (not mixed)


def test_unchanged_under_rejects_bad_args(p_nine):
    betas = _betas9()
    with pytest.raises(CountError):
        grouping_unchanged_under(betas, p_nine, [0])
    with pytest.raises(RangeError):
        grouping_unchanged_under(betas, p_nine, [2], beta_low=betas[-1] * 2)
    with pytest.raises(DomainError):
        grouping_unchanged_under(betas[:5], p_nine, [1])


_TAGS = ("none", "homogeneous_uniform", "grouping_changed_under", "grouping_changed_over",
         "grouping_unchanged_under")


@settings(max_examples=150)
@given(t=st.integers(1, 6), kb=st.integers(1, 8), data=st.data())
def test_kernels_equal_the_profile_by_profile_oracle(t, kb, data):
    # every kernel's (F, K) rows are, bit for bit, the profiles the oracle
    # builds one count at a time, for counts in any order, repeated, up to K
    p = SystemParams(M=max(2, kb), K=t * kb, K_B=kb, T=t,
                     beta_default=data.draw(st.floats(0.01, 100.0)))
    betas = np.sort(data.draw(st.lists(st.floats(1e-6, 1e3), min_size=p.K, max_size=p.K,
                                       unique=True)))[::-1]
    cfg = SimpleNamespace(delta=data.draw(st.floats(1e-3, 10.0)),
                          beta_low_factor=data.draw(st.floats(0.01, 0.99)),
                          beta_high_factor=data.draw(st.floats(1.01, 10.0)))
    counts = data.draw(st.lists(st.integers(1, p.K), min_size=1, max_size=6)) + [p.K]
    low, high = cfg.beta_low_factor * betas[-1], cfg.beta_high_factor * betas[0]
    kernels = {
        "none": honest_profile(betas, counts),
        "homogeneous_uniform": homogeneous_uniform(p, [0] + counts, cfg.delta),
        "grouping_changed_under": grouping_changed_under(betas, counts, low),
        "grouping_changed_over": grouping_changed_over(betas, counts, high),
        "grouping_unchanged_under": grouping_unchanged_under(betas, p, counts, low),
    }
    honest_plan = group_by_large_scale(betas, p)
    for tag in _TAGS:
        scales, reports = kernels[tag]
        for f, k_m in enumerate([0] + counts if tag == "homogeneous_uniform" else counts):
            scale, reported = profile_oracle(tag, betas, p, k_m, cfg)
            assert scales[f].tobytes() == scale.tobytes(), (tag, k_m)
            assert reports[f].tobytes() == reported.tobytes(), (tag, k_m)
    for reported in kernels["grouping_unchanged_under"][1]:
        assert same_grouping(group_by_large_scale(reported, p), honest_plan)


def test_kernels_check_their_counts(p_nine):
    betas = _betas9()
    for kernel in (lambda k: grouping_changed_under(betas, k),
                   lambda k: grouping_changed_over(betas, k),
                   lambda k: grouping_unchanged_under(betas, p_nine, k)):
        with pytest.raises(CountError):
            kernel([3, 0])
        with pytest.raises(CountError):
            kernel([10])
        with pytest.raises(DimensionError):
            kernel(2)
        with pytest.raises(DimensionError):
            kernel([[1, 2]])
    with pytest.raises(CountError):
        homogeneous_uniform(p_nine, [10], 0.01)


@pytest.mark.parametrize("counts, error", [([-1], CountError), ([9], CountError),
                                           ([1.5], DimensionError), (2, DimensionError)],
                         ids=["negative", "above_K", "fractional", "scalar"])
def test_honest_profile_checks_its_counts(counts, error):
    # the honest profile takes counts in [0, K] like every other kernel, K = 4 here
    with pytest.raises(error):
        honest_profile(np.array([4.0, 3.0, 2.0, 1.0]), counts)


@settings(max_examples=100)
@given(t=st.integers(1, 5), kb=st.integers(1, 6), n_drops=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), defaults=st.booleans(), data=st.data())
def test_kernels_on_a_stack_equal_one_call_per_drop(t, kb, n_drops, seed, defaults, data):
    # a (D, K) stack of sorted gains gives each drop's (F, K) rows bit for
    # bit, with the reports' bounds given per drop or left to their defaults
    p = SystemParams(M=max(2, kb), K=t * kb, K_B=kb, T=t)
    betas = np.stack([draw_large_scale(p, LargeScaleModel(), RngStream(seed, d).generator())
                      for d in range(n_drops)])
    low = None if defaults else 0.3 * betas[:, -1]
    high = None if defaults else 1.7 * betas[:, 0]
    # tag: (lowest count, per-drop bound, kernel)
    kernels = {
        "none": (0, None, lambda b, k, _: honest_profile(b, k)),
        "grouping_changed_under": (1, low, grouping_changed_under),
        "grouping_changed_over": (1, high, grouping_changed_over),
        "grouping_unchanged_under": (1, low, lambda b, k, x: grouping_unchanged_under(b, p, k, x)),
    }
    for tag, (lo, bound, kernel) in kernels.items():
        counts = data.draw(st.lists(st.integers(lo, p.K), min_size=1, max_size=6), label=tag)
        stacked = kernel(betas, counts, bound)
        for d in range(n_drops):
            one = kernel(betas[d], counts, None if bound is None else bound[d])
            for got, want in zip(stacked, one, strict=True):
                assert got[d].shape == want.shape == (len(counts), p.K), tag
                assert got[d].tobytes() == want.tobytes(), (tag, d)
