"""Grouping rules: ordering, determinism, and rate equivalences."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimosched import (
    DimensionError,
    DomainError,
    RngStream,
    ScaleError,
    SystemParams,
    apply_misreport,
    channel_magnitudes,
    evaluate_block,
    group_by_large_scale,
    group_by_magnitude,
    group_by_sus,
    group_randomly,
    same_grouping,
)
from mimosched.channel import draw_channels
from mimosched.strategies import honest_profile
from oracles import false_matrix, gram, sus_oracle


def test_magnitude_grouping_sorts_descending():
    p = SystemParams(M=8, K=4, K_B=2, T=2)
    plan = group_by_magnitude([5.0, 2.0, 9.0, 1.0], p)
    np.testing.assert_array_equal(plan, [[2, 0], [1, 3]])


def test_magnitude_grouping_scale_invariant():
    p = SystemParams(M=8, K=6, K_B=2, T=3)
    mags = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
    a = group_by_magnitude(mags, p)
    b = group_by_magnitude(2.0 * mags, p)
    np.testing.assert_array_equal(a, b)


def test_magnitude_grouping_breaks_ties_by_index():
    p = SystemParams(M=8, K=4, K_B=2, T=2)
    plan = group_by_magnitude([2.0, 2.0, 2.0, 2.0], p)
    np.testing.assert_array_equal(plan, [[0, 1], [2, 3]])


def test_underreporter_lands_in_last_block():
    # reported magnitudes: one user at 1% of a Gamma(64,1) draw vs 31 honest
    p = SystemParams(M=64, K=32, K_B=8, T=4)
    rng = np.random.default_rng(1234)
    hits = 0
    n = 10_000
    for _ in range(n):
        mags = rng.gamma(64.0, 1.0, 32)
        mags[0] *= 0.01
        plan = group_by_magnitude(mags, p)
        hits += int(0 in plan[-1])
    assert hits / n >= 0.999


def test_large_scale_grouping_honest_layout(p_nine):
    betas = np.linspace(2.0, 1.0, 9)  # strictly descending
    plan = group_by_large_scale(betas, p_nine)
    np.testing.assert_array_equal(plan, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])


def test_large_scale_grouping_underreport_moves_down(p_nine):
    betas = np.linspace(2.0, 1.0, 9)
    reported = betas.copy()
    reported[0] = betas[-1] / 2.0  # the strongest user claims the bottom
    plan = group_by_large_scale(reported, p_nine)
    np.testing.assert_array_equal(plan, [[1, 2, 3], [4, 5, 6], [7, 8, 0]])


def test_large_scale_grouping_overreport_moves_up(p_nine):
    betas = np.linspace(2.0, 1.0, 9)
    reported = betas.copy()
    reported[8] = 2.0 * betas[0]  # the weakest user claims the top
    plan = group_by_large_scale(reported, p_nine)
    np.testing.assert_array_equal(plan, [[8, 0, 1], [2, 3, 4], [5, 6, 7]])


def test_random_grouping_degenerate_and_deterministic():
    p1 = SystemParams(M=8, K=4, K_B=4, T=1)
    plan = group_randomly(p1, RngStream(3, 0).generator())
    assert same_grouping(plan, [[0, 1, 2, 3]])

    p = SystemParams(M=8, K=8, K_B=2, T=4)
    a = group_randomly(p, RngStream(3, 1).generator())
    b = group_randomly(p, RngStream(3, 1).generator())
    np.testing.assert_array_equal(a, b)


def test_random_grouping_is_uniform():
    p = SystemParams(M=64, K=32, K_B=8, T=4)
    n = 10_000
    counts = np.zeros(32)
    for t in range(n):
        plan = group_randomly(p, RngStream(37, t).generator())
        for u in plan[0]:
            counts[u] += 1
    freq = counts / n
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(freq - 0.25) < 3.0 * sigma)


def test_every_rule_partitions_users():
    p = SystemParams(M=16, K=8, K_B=2, T=4)
    ch = draw_channels(p, np.ones(8), RngStream(41, 0).generator())
    scale = honest_profile(np.ones(8), [0])[0][0]
    mags = apply_misreport(channel_magnitudes(ch), scale[None])[0]
    for plan in (group_by_magnitude(mags, p),
                 group_by_large_scale(np.linspace(2, 1, 8), p),
                 group_randomly(p, RngStream(41, 1).generator()),
                 group_by_sus(mags, ch, scale, p)):
        assert plan.dtype == np.intp and plan.shape == (4, 2)
        np.testing.assert_array_equal(np.sort(plan, axis=None), np.arange(8))


def test_same_grouping_ignores_member_order():
    a = np.array([[2, 0], [1, 3]])
    b = np.array([[0, 2], [3, 1]])
    c = np.array([[1, 3], [2, 0]])
    assert same_grouping(a, b)
    assert not same_grouping(a, c)  # blocks swapped, different schedule


def test_sus_reduces_to_magnitude_for_orthogonal_channels():
    p = SystemParams(M=8, K=8, K_B=2, T=4)
    rows = np.zeros((8, 8), dtype=np.complex128)
    norms = [9.0, 5.0, 8.0, 1.0, 7.0, 2.0, 6.0, 3.0]
    for u, s in enumerate(norms):
        rows[u, u] = np.sqrt(s)
    mags = channel_magnitudes(rows)
    np.testing.assert_array_equal(group_by_sus(mags, rows, np.ones(8), p),
                                  group_by_magnitude(mags, p))


def test_sus_single_member_block_picks_strongest():
    p = SystemParams(M=8, K=3, K_B=1, T=3)
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    mags = channel_magnitudes(rows)
    plan = group_by_sus(mags, rows, np.ones(3), p)
    assert plan[0, 0] == int(np.argmax(mags))


def _sus_rows(layout, k, m, rng):
    """(k, m) reported rows: Gaussian, or with the structure that makes ties."""
    if layout == "orthogonal":
        # scaled axes; with more users than antennas, axes repeat as parallel rows
        rows = np.zeros((k, m), dtype=np.complex128)
        rows[np.arange(k), np.arange(k) % m] = rng.integers(1, 4, k)
        return rows
    rows = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    if layout == "duplicate":
        # copies of a few rows: rank-deficient, exact ties in every projection
        rows = rows[rng.integers(0, rng.integers(1, k + 1), k)]
    elif layout == "zero":
        rows[rng.random(k) < 0.4] = 0.0
    return rows


@settings(max_examples=150)
@given(t=st.integers(1, 4), kb=st.integers(1, 6), extra=st.integers(0, 6),
       n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["gaussian", "duplicate", "zero", "orthogonal"]),
       alpha=st.one_of(st.sampled_from([0.3, 0.5, 1e-3]), st.floats(1e-4, 2.0)))
# a rank-deficient draw whose last picks tie on rounding noise: abs(c) ** 2
# in place of the loop's rounding picks another user here
@example(t=3, kb=4, extra=5, n=1, seed=0, layout="duplicate", alpha=0.3)
def test_batched_sus_matches_loop_oracle(t, kb, extra, n, seed, layout, alpha):
    # alpha = 1e-3 admits no candidate at first, so every block doubles it;
    # 0.5 doubles to exactly 1.0, where a duplicate row's projection ties.
    # Each of the n realizations is grouped under its own profile and
    # honestly, as one (n, 2) stack
    p = SystemParams(M=max(kb + extra, 2), K=t * kb, K_B=kb, T=t)
    rng = np.random.default_rng(seed)
    gains, scales = [], []
    for _ in range(n):
        gains.append(_sus_rows(layout, p.K, p.M, rng))
        scales.append([np.where(rng.random(p.K) < 0.3, 0.01, 1.0), np.ones(p.K)])
    gains, scales = np.stack(gains)[:, None], np.array(scales)          # (n, 1, K, M), (n, 2, K)
    mags = scales * channel_magnitudes(gains)
    plans = group_by_sus(mags, gains, scales, p, alpha)
    assert plans.shape == (n, 2, p.T, p.K_B)
    np.testing.assert_array_equal(
        plans, [[sus_oracle(mags[i, f], false_matrix(gains[i, 0], scales[i, f]), p, alpha)
                 for f in range(2)] for i in range(n)])


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_sus_at_engine_size_matches_loop_oracle(alpha):
    # 24 realizations under an honest and a mixed under- and overreporting
    # profile, grouped as one (24, 2) stack the way the engine groups a slice.
    # Gaussian, duplicate and zero rows take turns; with 8 antennas for 16
    # users a Gaussian row's projection passes alpha only now and then, a
    # duplicate's never below 1 and a zero row's always, so in one step some
    # rows double their threshold while others grow
    p = SystemParams(M=8, K=16, K_B=4, T=4)
    rng = np.random.default_rng(23)
    layouts = ["gaussian", "duplicate", "zero"]
    gains = np.stack([_sus_rows(layouts[i % 3], p.K, p.M, rng) for i in range(24)])
    attack = np.ones(p.K)
    attack[[0, 5, 11]] = [0.01, 4.0, 0.3]
    scales = np.stack([np.ones(p.K), attack])
    mags = apply_misreport(channel_magnitudes(gains), scales)
    plans = group_by_sus(mags, gains[:, None], scales, p, alpha)
    np.testing.assert_array_equal(
        plans, [[sus_oracle(mags[i, f], false_matrix(gains[i], scales[f]), p, alpha)
                 for f in range(2)] for i in range(24)])


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.inf, np.nan])
def test_sus_rejects_a_scale_that_is_not_positive_and_finite(bad):
    p = SystemParams(M=8, K=4, K_B=2, T=2)
    scale = np.array([1.0, 1.0, bad, 1.0])
    with pytest.raises(ScaleError):
        group_by_sus(np.array([4.0, 3.0, 2.0, 1.0]), np.ones((4, 8), dtype=np.complex128),
                     scale, p)


def test_sus_sequence_call_equals_per_state_calls():
    # six realizations under the honest and an attacked profile: one (6, 2)
    # stack, grouped as the engine groups a slice
    p = SystemParams(M=64, K=32, K_B=8, T=4)
    scale = np.ones(32)
    scale[5] = 0.01
    scales = np.stack([honest_profile(np.ones(32), [0])[0][0], scale])
    gains = np.stack([draw_channels(p, np.ones(32), RngStream(47, trial).generator())
                      for trial in range(6)])
    mags = apply_misreport(channel_magnitudes(gains), scales)
    plans = group_by_sus(mags, gains[:, None], scales, p)
    assert plans.dtype == np.intp and plans.shape == (6, 2, p.T, p.K_B)
    np.testing.assert_array_equal(
        plans, [[group_by_sus(mags[n, f], gains[n], scales[f], p) for f in range(2)]
                for n in range(6)])
    np.testing.assert_array_equal(group_by_sus(mags[:1, :1], gains[:1, None], scales[:1], p),
                                  plans[:1, :1])


def test_magnitude_sequence_call_equals_per_state_calls():
    # one sort over the stacked magnitudes keeps each row's ties in user order,
    # for a (6,) and a (3, 2) stack alike
    p = SystemParams(M=8, K=6, K_B=2, T=3)
    rng = np.random.default_rng(5)
    rows = [rng.gamma(8.0, 1.0, 6) for _ in range(4)]
    rows += [np.full(6, 2.0), np.array([3.0, 1.0, 3.0, 1.0, 3.0, 1.0])]
    plans = group_by_magnitude(rows, p)
    assert plans.dtype == np.intp and plans.shape == (len(rows), p.T, p.K_B)
    np.testing.assert_array_equal(plans, [group_by_magnitude(r, p) for r in rows])
    np.testing.assert_array_equal(plans[4], [[0, 1], [2, 3], [4, 5]])
    np.testing.assert_array_equal(plans[5], [[0, 2], [4, 1], [3, 5]])
    np.testing.assert_array_equal(group_by_magnitude(rows[:1], p), plans[:1])
    stack = np.reshape(rows, (3, 2, 6))
    np.testing.assert_array_equal(group_by_magnitude(stack, p), plans.reshape(3, 2, p.T, p.K_B))
    with pytest.raises(DimensionError):
        group_by_magnitude(stack[..., :5], p)


def test_sus_rejects_nonpositive_alpha():
    p = SystemParams(M=8, K=4, K_B=2, T=2)
    mags = np.array([4.0, 3.0, 2.0, 1.0])
    for alpha in (0.0, -0.3, float("nan")):
        with pytest.raises(DomainError):
            group_by_sus(mags, np.ones((4, 8), dtype=np.complex128), np.ones(4), p, alpha)


def _mean_block_rate(ch, plans, p):
    # every member of an honest block gets the block's equalized rate; returns
    # each realization's mean over its blocks, its Gram blocks read from the
    # (n, K, K) Gram stack
    members = np.asarray(plans)
    at = np.arange(len(ch))[:, None, None]
    blocks = gram(ch)[at[..., None], members[..., None], members[..., None, :]]
    rates = evaluate_block(blocks, np.ones(members.shape), np.arange(len(ch)), p)
    assert np.all(rates == rates[..., :1])
    return rates[..., 0].mean(axis=-1)


def test_rule_rate_equivalences_honest():
    # with many antennas, magnitude grouping ~ SUS ~ random for honest users;
    # each rule groups the whole stack of realizations in one call
    p = SystemParams(M=64, K=32, K_B=8, T=4, P=10.0)
    n = 2000
    ch = np.stack([draw_channels(p, np.ones(32), RngStream(43, t).generator()) for t in range(n)])
    scale = honest_profile(np.ones(32), [0])[0][0]
    mags = apply_misreport(channel_magnitudes(ch), scale[None])[:, 0]
    cm = _mean_block_rate(ch, group_by_magnitude(mags, p), p).mean()
    sus = _mean_block_rate(ch, group_by_sus(mags, ch, scale, p), p).mean()
    rand = _mean_block_rate(ch, [group_randomly(p, RngStream(43, 2 * t + 1).generator())
                                 for t in range(n)], p).mean()
    assert abs(sus - cm) / cm < 0.02
    assert abs(rand - cm) / cm < 0.02
