"""Zero-forcing gains, max-min power control, and block evaluation."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mimosched import (
    DimensionError,
    DomainError,
    RngStream,
    SingularMatrixError,
    SystemParams,
    evaluate_block,
    maxmin_power,
    run_period,
    zf_effective_gains,
)
from mimosched.channel import draw_channels
from mimosched.zf import _check_conditioning
from oracles import gram, nullspace_gain_oracle


def _rand_rows(rng, kb, m):
    return (rng.standard_normal((kb, m)) + 1j * rng.standard_normal((kb, m))) / np.sqrt(2)


def test_single_row_gain_is_norm():
    rng = np.random.default_rng(0)
    g = _rand_rows(rng, 1, 8)
    d2 = zf_effective_gains(gram(g))
    assert d2[0] == pytest.approx(np.vdot(g[0], g[0]).real, rel=1e-12)
    assert nullspace_gain_oracle(g, 0) == pytest.approx(d2[0], rel=1e-12)


def test_orthogonal_rows_keep_full_gain():
    rows = np.zeros((3, 8), dtype=np.complex128)
    rows[0, 0] = 2.0
    rows[1, 3] = 1.0 + 1.0j
    rows[2, 6] = 0.5j
    d2 = zf_effective_gains(gram(rows))
    norms = np.sum(np.abs(rows) ** 2, axis=1)
    assert np.allclose(d2, norms, rtol=1e-12)


def test_scaling_one_row_scales_one_gain():
    rng = np.random.default_rng(1)
    rows = _rand_rows(rng, 4, 16)
    base = zf_effective_gains(gram(rows))
    delta = 0.37
    scaled = rows.copy()
    scaled[2] *= np.sqrt(delta)
    out = zf_effective_gains(gram(scaled))
    assert out[2] == pytest.approx(delta * base[2], rel=1e-10)
    keep = [0, 1, 3]
    assert np.allclose(out[keep], base[keep], rtol=1e-10)


def test_degenerate_rows_raise():
    rng = np.random.default_rng(2)
    rows = _rand_rows(rng, 3, 8)
    rows[1] = rows[0]
    with pytest.raises(SingularMatrixError, match="block 0"):
        zf_effective_gains(gram(rows))
    with pytest.raises(SingularMatrixError):
        nullspace_gain_oracle(rows, 2)


def test_guard_names_the_block_and_its_condition_number():
    rng = np.random.default_rng(2)
    stack = _rand_rows(rng, 3, 8)[None].repeat(4, axis=0)
    stack[2, 1] = stack[2, 0] * (1 + 1e-7)
    with pytest.raises(SingularMatrixError) as err:
        zf_effective_gains(gram(stack))
    msg = str(err.value)
    assert msg.startswith("block 2: ")
    cond = float(msg.split("condition number ")[1].split()[0])
    assert cond > 1e10


@settings(max_examples=150)
@given(u=st.integers(1, 4), t=st.integers(1, 4), kb=st.integers(1, 6), extra=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1),
       plants=st.lists(st.tuples(st.integers(0, 15), st.sampled_from(["near", "equal", "zero"]),
                                 st.floats(-6.0, -4.0)), min_size=1, max_size=3))
def test_bound_gated_guard_trips_like_the_eigenvalue_check(u, t, kb, extra, seed, plants):
    # near-singular (a row plus a perturbation of 1e-6..1e-4, condition
    # numbers of about 1e8..1e12 around the limit), exactly singular (a
    # repeated row) and zero rows planted at random stack positions: the
    # guard, which reads eigenvalues only where tr G * tr G^-1 is large or
    # Cholesky fails, trips exactly when the eigenvalue check run on every
    # block does, on the same block, with the same message
    rng = np.random.default_rng(seed)
    rows = _rand_rows(rng, u * t * kb, kb + extra).reshape(u, t, kb, kb + extra)
    for pos, kind, log_eps in plants:
        i, j = divmod(pos % (u * t), t)
        if kind == "zero":
            rows[i, j, -1] = 0.0
        elif kb > 1:
            rows[i, j, 1] = rows[i, j, 0]
            if kind == "near":
                rows[i, j, 1] += 10.0 ** log_eps * _rand_rows(rng, 1, kb + extra)[0]
    try:
        _check_conditioning(gram(rows))
        expected = None
    except SingularMatrixError as e:
        expected = e
    if expected is None:
        assert zf_effective_gains(gram(rows)).shape == (u, t, kb)
        return
    with pytest.raises(SingularMatrixError) as err:
        zf_effective_gains(gram(rows))
    assert err.value.args == expected.args
    assert err.value.index == expected.index
    assert err.value.args[0].startswith(f"block {expected.index[-1]}: Gram matrix condition")


def test_rank_deficient_gram_is_a_singular_matrix_error():
    # Cholesky of an exactly singular Gram raises LinAlgError; the engine
    # turns that into the guard's error naming the block, never LinAlgError
    rows = np.zeros((2, 3, 8), dtype=np.complex128)
    rows[:, :, :3] = np.eye(3)
    rows[1, 2] = rows[1, 0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram(rows))
    with pytest.raises(SingularMatrixError) as err:
        zf_effective_gains(gram(rows))
    assert err.value.index == (1,)
    assert err.value.args[0].startswith("block 1: Gram matrix condition number")


def test_gain_shape_errors():
    with pytest.raises(DimensionError):
        zf_effective_gains(np.ones(8, dtype=np.complex128))
    with pytest.raises(DimensionError):
        zf_effective_gains(np.ones((9, 8), dtype=np.complex128))
    with pytest.raises(DimensionError):
        zf_effective_gains(np.ones((2, 9, 8), dtype=np.complex128))
    with pytest.raises(DomainError):
        nullspace_gain_oracle(np.ones((1, 4), dtype=np.complex128), 1)


def test_nullspace_oracle_agrees_over_many_instances():
    # cross-implementation check: Gram solve vs orthogonal-complement projection
    rng = np.random.default_rng(3)
    cases = [(m, kb) for m in (8, 16, 64) for kb in (2, 4, 8)]
    instances = 0
    worst = 0.0
    while instances < 1000:
        m, kb = cases[instances % len(cases)]
        rows = _rand_rows(rng, kb, m)
        d2 = zf_effective_gains(gram(rows))
        for k in range(kb):
            ref = nullspace_gain_oracle(rows, k)
            worst = max(worst, abs(d2[k] - ref) / ref)
        instances += 1
    assert worst <= 1e-8


def test_zf_removes_inter_user_interference():
    # the precoder built from the reported rows satisfies F W = I
    rng = np.random.default_rng(4)
    rows = _rand_rows(rng, 8, 64)
    w = rows.conj().T @ np.linalg.inv(rows @ rows.conj().T)
    assert np.max(np.abs(rows @ w - np.eye(8))) <= 1e-8
    # and the column norms are the inverse effective gains
    d2 = zf_effective_gains(gram(rows))
    assert np.allclose(1.0 / np.sum(np.abs(w) ** 2, axis=0), d2, rtol=1e-9)


def test_maxmin_power_symmetric():
    powers, snr = maxmin_power(np.array([1.0, 1.0]), 10.0, 1.0)
    assert np.allclose(powers, [5.0, 5.0])
    assert snr == pytest.approx(5.0, rel=1e-12)


def test_maxmin_power_hand_case():
    powers, snr = maxmin_power(np.array([1.0, 0.5]), 10.0, 1.0)
    assert np.allclose(powers, [10.0 / 3.0, 20.0 / 3.0], rtol=1e-12)
    assert snr == pytest.approx(10.0 / 3.0, rel=1e-12)
    # per-user rate at that equalized SNR
    assert math.log2(1.0 + snr) == pytest.approx(math.log2(13 / 3), rel=1e-12)


def test_maxmin_power_block_rate_reference():
    _, snr = maxmin_power(np.array([1.0, 1.0]), 10.0, 1.0)
    assert math.log2(1.0 + snr) == pytest.approx(math.log2(6.0), rel=1e-12)


def test_maxmin_power_rejects_bad_inputs():
    with pytest.raises(DomainError):
        maxmin_power(np.array([1.0, 0.0]), 10.0, 1.0)
    with pytest.raises(DomainError):
        maxmin_power(np.array([1.0, 1.0]), 0.0, 1.0)
    with pytest.raises(DomainError):
        maxmin_power(np.array([[1.0, 1.0], [1.0, -1.0]]), 10.0, 1.0)
    with pytest.raises(DomainError):
        maxmin_power(np.ones((2, 2)), 10.0, 0.0)
    with pytest.raises(DomainError):
        maxmin_power(np.ones((2, 2)), 10.0, np.inf)
    # an array raised numpy's ValueError ("truth value ... ambiguous"), a string a TypeError
    with pytest.raises(DomainError):
        maxmin_power(np.ones((2, 2)), 10.0, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        maxmin_power(np.ones((2, 2)), 10.0, "1")


@settings(max_examples=100)
@given(lead=st.sampled_from([(), (1,), (4,), (2, 3)]), kb=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), log_p=st.floats(-2.0, 3.0),
       noise_var=st.floats(0.01, 10.0))
def test_maxmin_equalizes_and_conserves_power(lead, kb, seed, log_p, noise_var):
    # one block or a stack: each block uses all of P and gives every member
    # the same received power P_k d_k^2
    d2 = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 6.0, lead + (kb,))
    p_tot = 10.0 ** log_p
    powers, snr = maxmin_power(d2, p_tot, noise_var)
    assert powers.shape == d2.shape and np.shape(snr) == lead
    np.testing.assert_allclose(powers.sum(axis=-1), p_tot, rtol=1e-12)
    per_user = powers * d2
    np.testing.assert_allclose(per_user, per_user[..., :1] * np.ones(kb), rtol=1e-12)
    np.testing.assert_allclose(snr, per_user[..., 0] / noise_var, rtol=1e-12)


@settings(max_examples=60)
@given(e=st.integers(1, 6), lead=st.sampled_from([(), (1,), (3,)]), kb=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), noise_var=st.floats(0.01, 10.0))
def test_maxmin_power_per_entry_power_equals_scalar_calls(e, lead, kb, seed, noise_var):
    # an (E,) P powers every block of entry e at P[e], exactly as E calls do
    rng = np.random.default_rng(seed)
    d2 = 10.0 ** rng.uniform(-6.0, 6.0, (e, *lead, kb))
    P = 10.0 ** rng.uniform(-2.0, 3.0, e)
    powers, snr = maxmin_power(d2, P, noise_var)
    for i in range(e):
        pw, sn = maxmin_power(d2[i], P[i], noise_var)
        np.testing.assert_array_equal(powers[i], pw)
        np.testing.assert_array_equal(snr[i], sn)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_maxmin_power_rejects_a_bad_entry_power(bad):
    with pytest.raises(DomainError):
        maxmin_power(np.ones((3, 2, 4)), np.array([10.0, bad, 1.0]), 1.0)
    with pytest.raises(DomainError):
        maxmin_power(np.ones(4), bad, 1.0)


@settings(max_examples=60)
@given(w=st.integers(1, 7), e=st.integers(1, 6), kb=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), noise_var=st.floats(0.01, 10.0))
def test_maxmin_power_shares_a_length_one_axis_across_powers(w, e, kb, seed, noise_var):
    # (W,) powers of one (1, E, K_B) stack give the bits of the stack
    # broadcast to (W, E, K_B): the gains are reduced once, not once per power
    rng = np.random.default_rng(seed)
    d2 = 10.0 ** rng.uniform(-6.0, 6.0, (1, e, kb))
    P = 10.0 ** rng.uniform(-2.0, 3.0, w)
    powers, snr = maxmin_power(d2, P, noise_var)
    want_powers, want_snr = maxmin_power(np.broadcast_to(d2, (w, e, kb)), P, noise_var)
    assert powers.shape == (w, e, kb) and snr.shape == (w, e)
    np.testing.assert_array_equal(powers, want_powers)
    np.testing.assert_array_equal(snr, want_snr)


def test_maxmin_power_rejects_a_power_that_does_not_index_blocks():
    with pytest.raises(DimensionError):
        maxmin_power(np.ones((3, 2, 4)), np.ones(2), 1.0)
    with pytest.raises(DimensionError):
        maxmin_power(np.ones(4), np.ones(4), 1.0)
    # a length-1 axis is shared by every power along it, a longer one is not
    with pytest.raises(DimensionError):
        maxmin_power(np.ones((1, 2, 4)), np.ones((2, 3)), 1.0)
    with pytest.raises(DimensionError):
        maxmin_power(np.ones((3, 4)), np.ones(1), 1.0)


def _rand_stack(seed, t, kb, m):
    rng = np.random.default_rng(seed)
    return _rand_rows(rng, t * kb, m).reshape(t, kb, m)


def _well_conditioned(rows):
    # the float error of the identities below grows like cond(G) * eps; the
    # guard admits cond(G) up to 1e10, the tolerances here need it small
    return np.linalg.cond(rows @ rows.conj().swapaxes(-1, -2)).max() <= 1e3


@settings(max_examples=60)
@given(kb=st.integers(1, 8), extra=st.integers(0, 24), seed=st.integers(0, 2**32 - 1),
       log_s=st.floats(-3.0, 3.0))
def test_scaling_rows_scales_gains(kb, extra, seed, log_s):
    # misreporting rescales magnitudes only: gains of sqrt(s) g_k are s d_k^2
    rows = _rand_stack(seed, 1, kb, kb + extra)[0]
    assume(_well_conditioned(rows))
    s = 10.0 ** (log_s * np.random.default_rng(seed).uniform(-1.0, 1.0, kb))
    np.testing.assert_allclose(zf_effective_gains(gram(np.sqrt(s)[:, None] * rows)),
                               s * zf_effective_gains(gram(rows)), rtol=1e-12, atol=0)


@settings(max_examples=40)
@given(t=st.integers(1, 6), kb=st.integers(1, 8), extra=st.integers(0, 24),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_call_equals_per_block_calls(t, kb, extra, seed):
    stack = _rand_stack(seed, t, kb, kb + extra)
    assume(_well_conditioned(stack))
    gains = zf_effective_gains(gram(stack))
    assert gains.shape == (t, kb)
    np.testing.assert_allclose(gains, [zf_effective_gains(gram(b)) for b in stack],
                               rtol=1e-12, atol=0)
    powers, snr = maxmin_power(gains, 10.0, 1.0)
    assert powers.shape == (t, kb) and snr.shape == (t,)
    for i, g in enumerate(gains):
        pw, sn = maxmin_power(g, 10.0, 1.0)
        np.testing.assert_allclose(powers[i], pw, rtol=1e-12)
        assert snr[i] == pytest.approx(sn, rel=1e-12)


def _orthonormal_rows():
    rows = np.zeros((2, 4), dtype=np.complex128)
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    return rows


def test_evaluate_block_all_honest_reference():
    p = SystemParams(M=4, K=2, K_B=2, T=1, P=10.0)
    rates = evaluate_block(gram(_orthonormal_rows())[None], np.ones((1, 2)), [0], p)
    assert rates.shape == (1, 2)
    assert np.allclose(rates, math.log2(6.0), rtol=1e-12)


def test_evaluate_block_misreporter_hand_case():
    # orthonormal rows, one member claiming half its true magnitude: the base
    # station sees gains [0.5, 1] and equalizes both at SNR 10/3
    p = SystemParams(M=4, K=2, K_B=2, T=1, P=10.0)
    rates = evaluate_block(gram(_orthonormal_rows())[None], np.array([[0.5, 1.0]]), [0], p)[0]
    assert rates[0] == pytest.approx(math.log2(1.0 + 20.0 / 3.0), rel=1e-12)  # the liar gains
    assert rates[1] == pytest.approx(math.log2(1.0 + 10.0 / 3.0), rel=1e-12)  # honest pays


def test_evaluate_block_true_gains_ignore_misreport():
    # the base station's gains come from the true rows, scaled: the rates
    # equal those of a second factorization of the misreported rows
    p = SystemParams(M=16, K=4, K_B=4, T=1, P=10.0)
    ch = draw_channels(p, np.ones(4), RngStream(13, 0).generator())
    scale = np.array([0.01, 1.0, 0.3, 1.0])
    rates = evaluate_block(gram(ch)[None], scale[None], [0], p)[0]
    _, snr_bs = maxmin_power(zf_effective_gains(gram(np.sqrt(scale)[:, None] * ch)),
                             p.P, p.noise_var)
    np.testing.assert_allclose(rates, np.log2(1.0 + snr_bs / scale), rtol=1e-12)
    assert rates[1] == rates[3]           # every honest member gets the common rate


def test_evaluate_block_stack_equals_single_blocks():
    p = SystemParams(M=16, K=12, K_B=4, T=3, P=10.0)
    ch = draw_channels(p, np.ones(12), RngStream(13, 2).generator())
    scale = np.r_[0.1, np.ones(5), 3.0, np.ones(5)]
    members = np.array([[5, 0, 9, 2], [1, 6, 3, 11], [4, 10, 7, 8]])
    # two entries share the one plan: the second one is honest
    both = np.stack([scale[members], np.ones((3, 4))])
    rates = evaluate_block(gram(ch[members])[None], both, [0, 0], p)
    assert rates.shape == (2, 3, 4)
    for t in range(3):
        single = evaluate_block(gram(ch[members[t]])[None], both[:, t], [0, 0], p)
        np.testing.assert_allclose(rates[:, t], single, rtol=1e-12)
        honest = scale[members[t]] == 1.0
        assert np.ptp(rates[0, t][honest]) == 0.0
        assert np.ptp(rates[1, t]) == 0.0


def test_evaluate_block_per_entry_power_equals_scalar_calls():
    # three entries on two plans at an array of three powers: the rates at
    # each power are those of a call at that power alone, by P and by p.P,
    # and each entry's rates are those of the entry served on its own
    p = SystemParams(M=16, K=12, K_B=4, T=3, P=10.0)
    ch = draw_channels(p, np.ones(12), RngStream(13, 3).generator())
    plans = np.array([np.arange(12).reshape(3, 4), np.arange(12)[::-1].reshape(3, 4)])
    scale = np.r_[0.1, np.ones(5), 3.0, np.ones(5)]
    plan_of = np.array([0, 1, 0])
    entry_scale = scale[plans[plan_of]]
    P = np.array([0.1, 10.0, 1000.0])
    grams = gram(ch[plans])
    rates = evaluate_block(grams, entry_scale, plan_of, p, P)
    assert rates.shape == P.shape + entry_scale.shape
    np.testing.assert_array_equal(evaluate_block(grams, entry_scale, plan_of, p, P[:, None]),
                                  rates[:, None])
    for w in range(3):
        np.testing.assert_array_equal(rates[w],
                                      evaluate_block(grams, entry_scale, plan_of, p, P[w]))
        np.testing.assert_array_equal(
            rates[w], evaluate_block(grams, entry_scale, plan_of, replace(p, P=P[w])))
        for e in range(3):
            one = grams[plan_of[e]][None]
            np.testing.assert_array_equal(rates[w, e],
                                          evaluate_block(one, entry_scale[[e]], [0], p, P[w])[0])
    for bad in (0.0, -10.0, np.nan):
        with pytest.raises(DomainError):
            evaluate_block(grams, entry_scale, plan_of, p, np.array([10.0, bad, 1.0]))
        with pytest.raises(DomainError):
            evaluate_block(grams, entry_scale, plan_of, p, bad)


def test_evaluate_block_member_count_enforced():
    p = SystemParams(M=16, K=4, K_B=4, T=1)
    ch = draw_channels(p, np.ones(4), RngStream(13, 1).generator())
    with pytest.raises(DimensionError):
        run_period(ch[None], [0], np.array([[[0, 1]]]), np.ones((1, 4)), p)
    with pytest.raises(DimensionError):
        run_period(ch[None], [0], np.array([[[0, 1], [2, 3]]]), np.ones((1, 4)), p)
    with pytest.raises(DimensionError):
        run_period(ch[None], [0], np.arange(4).reshape(1, 1, 1, 4), np.ones((1, 4)), p)
    with pytest.raises(DimensionError):
        run_period(ch[None], [0], np.arange(4).reshape(1, 1, 4), np.ones((1, 5)), p)
    with pytest.raises(DimensionError):
        evaluate_block(gram(ch[:2])[None], np.ones((1, 2)), [0], p)
    with pytest.raises(DimensionError):
        evaluate_block(gram(ch)[None], np.ones((2, 4)), [0], p)


def test_power_conservation_across_random_blocks():
    p = SystemParams(M=64, K=8, K_B=8, T=1, P=10.0)
    stack = np.stack([draw_channels(p, np.ones(8), RngStream(19, t).generator())
                      for t in range(40)])
    powers, _ = maxmin_power(zf_effective_gains(gram(stack)), p.P, p.noise_var)
    assert np.max(np.abs(powers.sum(axis=-1) - p.P)) / p.P <= 1e-9


def test_single_block_rate_matches_hardened_prediction():
    # one underreporter in a full-cell block: the honest-member mean rate over
    # many draws approaches log2(1 + 320/131) = 1.7836
    p = SystemParams(M=64, K=32, K_B=32, T=1, P=10.0)
    scale = np.r_[0.01, np.ones(31)]
    members = np.arange(32)
    acc = 0.0
    n = 5000
    for t in range(n):
        ch = draw_channels(p, np.ones(32), RngStream(23, t).generator())
        acc += evaluate_block(gram(ch[members])[None], scale[None], [0], p)[0, 1:].mean()
    assert abs(acc / n - math.log2(1.0 + 320.0 / 131.0)) < 0.05


def test_honest_block_rate_beats_hardened_lower_bound():
    # Jensen direction: the closed form underestimates the simulated mean
    p = SystemParams(M=64, K=8, K_B=8, T=1, P=10.0)
    rates = []
    for t in range(2000):
        ch = draw_channels(p, np.ones(8), RngStream(29, t).generator())
        rates.append(evaluate_block(gram(ch)[None], np.ones((1, 8)), [0], p).mean())
    rates = np.asarray(rates)
    bound = math.log2(1.0 + 10.0 * (64 - 8) / 8)
    sigma = rates.std(ddof=1) / np.sqrt(rates.size)
    assert rates.mean() >= bound - 3.0 * sigma
