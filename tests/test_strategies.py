"""Misreport profile constructors and their grouping consequences."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimosched import (
    CountError,
    DomainError,
    LargeScaleModel,
    RangeError,
    RngStream,
    ScaleError,
    SystemParams,
    group_by_large_scale,
    same_grouping,
)
from mimosched.channel import draw_large_scale
from mimosched.strategies import (
    grouping_changed_over,
    grouping_changed_under,
    grouping_unchanged_under,
    homogeneous_uniform,
    honest_profile,
)


def _betas9():
    return np.linspace(2.0, 1.0, 9)


def _block_sets(plan):
    # the plan's blocks as a set of member sets: block order and member order ignored
    return {frozenset(g) for g in plan.tolist()}


def test_honest_profile_is_all_ones():
    mp = honest_profile(np.array([2.0, 1.0]))
    assert np.all(mp.scale == 1.0)
    assert np.array_equal(mp.reported_beta, [2.0, 1.0])
    assert mp.strategy_tag == "none"
    assert np.flatnonzero(mp.scale != 1.0).size == 0


def test_homogeneous_uniform_counts(p_default):
    mp0 = homogeneous_uniform(p_default, 0, 0.01)
    assert np.all(mp0.scale == 1.0)
    mp1 = homogeneous_uniform(p_default, 1, 0.01)
    assert list(np.flatnonzero(mp1.scale != 1.0)) == [0]
    assert mp1.scale[0] == 0.01
    assert np.all(mp1.scale[1:] == 1.0)
    assert np.allclose(mp1.reported_beta, mp1.scale * p_default.beta_default)


def test_homogeneous_uniform_delta_one_is_honest(p_default):
    mp = homogeneous_uniform(p_default, 5, 1.0)
    assert np.all(mp.scale == 1.0)
    assert mp.strategy_tag == "homogeneous_uniform"  # intent still recorded


def test_homogeneous_uniform_rejects_bad_args(p_default):
    with pytest.raises(CountError):
        homogeneous_uniform(p_default, 33, 0.01)
    with pytest.raises(CountError):
        homogeneous_uniform(p_default, -1, 0.01)
    with pytest.raises(ScaleError):
        homogeneous_uniform(p_default, 1, 0.0)


def test_sorted_betas_enforced():
    with pytest.raises(DomainError):
        grouping_changed_under(np.array([1.0, 2.0, 3.0]), 1)
    with pytest.raises(DomainError):
        grouping_changed_under(np.array([2.0, 2.0, 1.0]), 1)
    with pytest.raises(DomainError):
        grouping_changed_under(np.array([2.0, 1.0, -1.0]), 1)


def test_changed_under_reports_and_plan(p_nine):
    betas = _betas9()
    mp = grouping_changed_under(betas, 1)
    assert mp.reported_beta[0] == betas[-1] / 2.0  # default beta_low
    assert np.array_equal(mp.reported_beta[1:], betas[1:])
    assert np.allclose(mp.scale, mp.reported_beta / betas)
    plan = group_by_large_scale(mp.reported_beta, p_nine)
    np.testing.assert_array_equal(plan, [[1, 2, 3], [4, 5, 6], [7, 8, 0]])


def test_changed_under_beta_low_range():
    betas = _betas9()
    with pytest.raises(RangeError):
        grouping_changed_under(betas, 1, beta_low=betas[-1])
    with pytest.raises(RangeError):
        grouping_changed_under(betas, 1, beta_low=0.0)
    with pytest.raises(CountError):
        grouping_changed_under(betas, 10)


def test_changed_under_full_block_keeps_honest_cosets(p_nine):
    # K_M = K_B: the misreporters fill one block by themselves, so every
    # honest user keeps exactly its original co-members
    betas = _betas9()
    mp = grouping_changed_under(betas, 3)
    honest_plan = group_by_large_scale(betas, p_nine)
    attacked = group_by_large_scale(mp.reported_beta, p_nine)
    assert set(attacked[-1].tolist()) == {0, 1, 2}
    honest_sets = {frozenset(g) - {0, 1, 2} for g in honest_plan.tolist()}
    attacked_sets = {frozenset(g) - {0, 1, 2} for g in attacked.tolist()}
    assert honest_sets == attacked_sets


def test_changed_over_reports_and_plan(p_nine):
    betas = _betas9()
    mp = grouping_changed_over(betas, 1)
    assert mp.reported_beta[8] == 2.0 * betas[0]  # default beta_high
    plan = group_by_large_scale(mp.reported_beta, p_nine)
    np.testing.assert_array_equal(plan, [[8, 0, 1], [2, 3, 4], [5, 6, 7]])
    with pytest.raises(RangeError):
        grouping_changed_over(betas, 1, beta_high=betas[0])


def test_under_and_over_give_same_partition(p_nine):
    # K_M demotions and K_B - K_M promotions produce the same block partition
    betas = _betas9()
    for k_m in (1, 2):
        under = grouping_changed_under(betas, k_m)
        over = grouping_changed_over(betas, p_nine.K_B - k_m)
        pu = group_by_large_scale(under.reported_beta, p_nine)
        po = group_by_large_scale(over.reported_beta, p_nine)
        assert _block_sets(pu) == _block_sets(po)


def test_under_and_over_partition_match_larger_layout(p_default, cell_model):
    betas = draw_large_scale(p_default, cell_model, RngStream(51, 0).generator())
    under = grouping_changed_under(betas, 3)
    over = grouping_changed_over(betas, p_default.K_B - 3)
    pu = group_by_large_scale(under.reported_beta, p_default)
    po = group_by_large_scale(over.reported_beta, p_default)
    assert _block_sets(pu) == _block_sets(po)


def test_misreport_direction_of_reports(p_default, cell_model):
    betas = draw_large_scale(p_default, cell_model, RngStream(51, 1).generator())
    under = grouping_changed_under(betas, 4)
    m = np.flatnonzero(under.scale != 1.0)
    assert np.all(under.reported_beta[m] < betas[m])
    assert np.all(under.reported_beta > 0)
    over = grouping_changed_over(betas, 4)
    m = np.flatnonzero(over.scale != 1.0)
    assert np.all(over.reported_beta[m] > betas[m])
    keep = np.setdiff1d(np.arange(32), m)
    assert np.all(over.scale[keep] == 1.0)


def test_unchanged_under_first_recruit_midpoint(p_nine):
    betas = _betas9()
    mp = grouping_unchanged_under(betas, p_nine, 1)
    assert list(np.flatnonzero(mp.scale != 1.0)) == [0]
    assert mp.reported_beta[0] == pytest.approx((betas[2] + betas[3]) / 2.0, rel=1e-14)


def test_unchanged_under_chain_layout(p_nine):
    # three recruits, one per block: each reports the next block's recruit's
    # true gain, the last reports the floor value
    betas = _betas9()
    mp = grouping_unchanged_under(betas, p_nine, 3)
    assert list(np.flatnonzero(mp.scale != 1.0)) == [0, 3, 6]
    assert mp.reported_beta[0] == pytest.approx(betas[3], rel=1e-14)
    assert mp.reported_beta[3] == pytest.approx(betas[6], rel=1e-14)
    assert mp.reported_beta[6] == pytest.approx(betas[-1] / 2.0, rel=1e-14)


def test_unchanged_under_preserves_plan_small(p_nine, cell_model):
    for d in range(100):
        betas = draw_large_scale(p_nine, cell_model, RngStream(53, d).generator())
        honest_plan = group_by_large_scale(betas, p_nine)
        for k_m in range(1, 10):
            mp = grouping_unchanged_under(betas, p_nine, k_m)
            plan = group_by_large_scale(mp.reported_beta, p_nine)
            assert same_grouping(honest_plan, plan)
            m = np.flatnonzero(mp.scale != 1.0)
            assert m.size == k_m
            assert np.all(mp.reported_beta[m] < betas[m])


def test_unchanged_under_preserves_plan_reference_layout(p_default, cell_model):
    for d in range(10):
        betas = draw_large_scale(p_default, cell_model, RngStream(57, d).generator())
        honest_plan = group_by_large_scale(betas, p_default)
        for k_m in (1, 5, 10, 16, 32):
            mp = grouping_unchanged_under(betas, p_default, k_m)
            assert same_grouping(honest_plan, group_by_large_scale(mp.reported_beta, p_default))


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
    mp = grouping_unchanged_under(betas, p, k_m)
    honest = group_by_large_scale(betas, p)
    plan = group_by_large_scale(mp.reported_beta, p)
    assert same_grouping(plan, honest)
    liar = mp.scale != 1.0
    np.testing.assert_array_equal(
        plan, [sorted(g, key=lambda u: (liar[u], u)) for g in honest.tolist()])
    mixed = any(0 < liar[g].sum() < kb for g in honest)
    assert np.array_equal(plan, honest) == (not mixed)


def test_unchanged_under_rejects_bad_args(p_nine):
    betas = _betas9()
    with pytest.raises(CountError):
        grouping_unchanged_under(betas, p_nine, 0)
    with pytest.raises(RangeError):
        grouping_unchanged_under(betas, p_nine, 2, beta_low=betas[-1] * 2)
    with pytest.raises(DomainError):
        grouping_unchanged_under(betas[:5], p_nine, 1)
