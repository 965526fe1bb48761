"""End-to-end acceptance gate.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run with ``pytest -s``
to see them all) and then asserts its criterion. The checks pin the headline
results: the single-block low-SNR loss, the closed-form-vs-simulation match
and its upper bound, the block-periodic loss pattern, the heterogeneous
winners and losers, the near-linear growth of the grouping-preserving attack,
its mitigation by smaller blocks, the numerical property suite, and bytewise
deterministic output.

Criterion 1's bracket sits on the exact snr -> 0 limit of the single-block
loss. At low SNR log2(1 + x) ~ x / ln 2, so the loss tends to
1 - K / (K - K_M + K_M/delta) = 1 - 32/131 = 0.7557 at K=32, K_M=1,
delta=0.01. The simpler form 1 - delta*K/K_M = 0.68 that ``loss_limits``
reports keeps only the misreporters' 1/delta power demand and holds only for
K_M/delta >> K - K_M; here 100 is set against 31, so it is not the limit the
criterion checks (test_analytic pins that form on its own). The bracket keeps
its half-width of 0.02 around the exact limit, and the Monte Carlo clause
still has to match the analytic value within 0.03 in under 30 s.
"""
import io
import time
from dataclasses import replace

import numpy as np
import pytest

from mimosched import (
    ExperimentConfig,
    RngStream,
    SystemParams,
    db_to_linear,
    draw_large_scale,
    emit_csv,
    group_by_large_scale,
    loss_single_block,
    maxmin_power,
    preset,
    run_experiment,
    same_grouping,
    zf_effective_gains,
)
from mimosched.analytic import _orderstat_moments
from mimosched.core import LargeScaleModel
from mimosched.strategies import grouping_unchanged_under
from oracles import _log_orderstat_pdf, gram, nullspace_gain_oracle
from scipy import integrate
from scipy.stats import gamma as gamma_dist

_P = SystemParams(M=64, K=32, K_B=8, T=4, P=db_to_linear(10.0))
_CELL = LargeScaleModel()
_WORKERS = 4


def _verdict(n, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n}{tail}"


def _one(rows, name, sweep_value=0.0):
    hits = [r for r in rows if r.metric == name and r.sweep_value == sweep_value]
    assert len(hits) == 1, f"{name}@{sweep_value}: {len(hits)} rows"
    return hits[0]


@pytest.fixture(scope="module")
def power_sweep_rows():
    """Shared 2000-trial power sweep for criteria 2 and 3."""
    cfg = ExperimentConfig(
        params=_P, grouping_rule=("channel_magnitude", "random"),
        strategy=("homogeneous_uniform",), K_M=1, delta=0.01,
        sweep="P_dB", sweep_values=(0.0, 5.0, 10.0, 15.0, 20.0),
        trials=2000, seed=42, label="power-sweep")
    t0 = time.perf_counter()
    rows = run_experiment(cfg, workers=_WORKERS)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def unchanged_curve_rows():
    """Shared grouping-preserving attack curve for criteria 6 and 7."""
    cfg = ExperimentConfig(
        params=_P, scenario="heterogeneous", grouping_rule=("large_scale",),
        strategy=("grouping_unchanged_under",), delta=0.01,
        large_scale=_CELL, sweep="K_M", sweep_values=tuple(range(1, 11)),
        trials=20, drops=100, seed=42, track_users=(), label="unchanged-curve")
    return run_experiment(cfg, workers=_WORKERS)


def test_acceptance_1_single_block_low_snr():
    t0 = time.perf_counter()
    analytic = loss_single_block(64, 32, 1, 0.01, 1e-4)
    K, K_M, delta = 32, 1, 0.01
    limit = 1.0 - K / (K - K_M + K_M / delta)     # exact snr -> 0 limit
    lo, hi = limit - 0.02, limit + 0.02
    in_bracket = lo <= analytic <= hi
    p = SystemParams(M=64, K=32, K_B=32, T=1, P=db_to_linear(-40.0))
    cfg = ExperimentConfig(params=p, strategy=("homogeneous_uniform",),
                           K_M=1, delta=0.01, trials=2000, seed=42,
                           label="single-block")
    theta = _one(run_experiment(cfg, workers=_WORKERS), "theta_cm").mean
    mc_ok = abs(theta - analytic) <= 0.03
    elapsed = time.perf_counter() - t0
    _verdict(1, in_bracket and mc_ok and elapsed < 30.0,
             f"analytic={analytic:.4f} bracket=[{lo:.4f},{hi:.4f}] theta={theta:.4f} "
             f"elapsed={elapsed:.1f}s")


def test_acceptance_2_closed_form_match(power_sweep_rows):
    rows, elapsed = power_sweep_rows
    gaps = []
    for pdb in (0.0, 5.0, 10.0, 15.0, 20.0):
        gap = abs(_one(rows, "theta_cm", pdb).mean
                  - _one(rows, "analytic_eq17", pdb).mean)
        gaps.append(gap)
    _verdict(2, max(gaps) <= 0.03 and elapsed < 300.0,
             f"max|theta-analytic|={max(gaps):.4f} elapsed={elapsed:.1f}s")


def test_acceptance_3_bound_equals_random_grouping(power_sweep_rows):
    rows, _ = power_sweep_rows
    gaps = [abs(_one(rows, "theta_rand", pdb).mean
                - _one(rows, "upper_bound_eq21", pdb).mean)
            for pdb in (0.0, 5.0, 10.0, 15.0, 20.0)]
    _verdict(3, max(gaps) <= 0.02, f"max|theta_rand-bound|={max(gaps):.4f}")


def test_acceptance_4_block_periodic_pattern():
    grid = (3, 4, 5, 8, 11, 12, 13, 16, 19, 20, 21, 24)
    cfg = ExperimentConfig(
        params=_P, strategy=("homogeneous_uniform",), delta=0.01,
        sweep="K_M", sweep_values=grid, trials=2000, seed=42,
        label="periodicity")
    rows = run_experiment(cfg, workers=_WORKERS)
    theta = {k: _one(rows, "theta_cm", float(k)).mean for k in grid}
    troughs_ok = all(theta[k] <= 0.02 for k in (8, 16, 24))
    rises_ok = all(theta[k] >= 0.05 for k in (3, 4, 5))
    swings = [max(theta[k] for k in peak) - theta[trough]
              for peak, trough in (((3, 4, 5), 8), ((11, 12, 13), 16),
                                   ((19, 20, 21), 24))]
    _verdict(4, troughs_ok and rises_ok and min(swings) >= 0.03,
             f"troughs={[round(theta[k], 4) for k in (8, 16, 24)]} "
             f"swings={[round(s, 3) for s in swings]}")


def test_acceptance_5_heterogeneous_winners_and_losers():
    cfg = ExperimentConfig(
        params=_P, scenario="heterogeneous", grouping_rule=("large_scale",),
        strategy=("grouping_changed_under",), K_M=4, beta_low_factor=0.5,
        large_scale=_CELL, trials=50, drops=1, seed=42, label="demotion")
    rows = run_experiment(cfg, workers=_WORKERS)
    loss = {u: _one(rows, f"per_user_loss_ls[{u}]").mean for u in range(1, 33)}
    last_block = [loss[u] for u in (29, 30, 31, 32)]
    displaced = [loss[u] for b in ((5, 9), (13, 17), (21, 25))
                 for u in range(*b)]
    upgraded = [loss[u] for b in ((9, 13), (17, 21), (25, 29))
                for u in range(*b)]
    ok = (all(0.55 <= v <= 0.80 for v in last_block)
          and all(v >= 0.15 for v in displaced)
          and all(v < 0.0 for v in upgraded))
    _verdict(5, ok,
             f"last={min(last_block):.3f}..{max(last_block):.3f} "
             f"displaced_min={min(displaced):.3f} upgraded_max={max(upgraded):.3f}")


def test_acceptance_6_near_linear_growth(unchanged_curve_rows):
    rows = unchanged_curve_rows
    mean = [_one(rows, "avg_honest_loss_ls", float(k)).mean for k in range(1, 11)]
    ci = [_one(rows, "avg_honest_loss_ls", float(k)).ci95 for k in range(1, 11)]
    monotone = all(mean[i + 1] >= mean[i] - (ci[i] + ci[i + 1])
                   for i in range(9))
    at_ten = 0.13 <= mean[-1] <= 0.23
    _verdict(6, monotone and at_ten,
             f"loss(10)={mean[-1]:.4f}+-{ci[-1]:.4f} monotone={monotone}")


def test_acceptance_7_smaller_blocks_mitigate(unchanged_curve_rows):
    big = _one(unchanged_curve_rows, "avg_honest_loss_ls", 8.0)
    cfg = ExperimentConfig(
        params=SystemParams(M=64, K=32, K_B=4, T=8, P=db_to_linear(10.0)),
        scenario="heterogeneous", grouping_rule=("large_scale",),
        strategy=("grouping_unchanged_under",), K_M=8, large_scale=_CELL,
        trials=20, drops=100, seed=42, track_users=(), label="narrow-blocks")
    small = _one(run_experiment(cfg, workers=_WORKERS), "avg_honest_loss_ls")
    separated = small.mean + small.ci95 < big.mean - big.ci95
    _verdict(7, separated,
             f"K_B=4: {small.mean:.4f}+-{small.ci95:.4f} "
             f"K_B=8: {big.mean:.4f}+-{big.ci95:.4f}")


def test_acceptance_8_numerical_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)

    # zero-forcing inverts the reported rows exactly
    g = (rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64))) / np.sqrt(2)
    w = g.conj().T @ np.linalg.inv(g @ g.conj().T)
    zf_ok = np.max(np.abs(g @ w - np.eye(8))) <= 1e-8

    # power control equalizes the per-user SNRs
    d2 = rng.gamma(50.0, 1.0, size=8)
    powers, snr = maxmin_power(d2, 10.0, 1.0)
    snrs = powers * d2
    maxmin_ok = np.max(np.abs(snrs / snrs.mean() - 1.0)) <= 1e-9 \
        and abs(snrs.mean() - snr) <= 1e-9 * snr

    # Gram-solve effective gains against the null-space projection oracle
    worst = 0.0
    for m, kb in ((8, 2), (16, 4), (64, 8)):
        for _ in range(334):
            f = (rng.standard_normal((kb, m))
                 + 1j * rng.standard_normal((kb, m))) / np.sqrt(2)
            fast = zf_effective_gains(gram(f))
            slow = np.array([nullspace_gain_oracle(f, k) for k in range(kb)])
            worst = max(worst, float(np.max(np.abs(fast - slow) / slow)))
    oracle_ok = worst <= 1e-8

    # rank densities integrate to one
    lo = gamma_dist.ppf(1e-12, 64, scale=1.0)
    hi = gamma_dist.ppf(1.0 - 1e-12, 64, scale=1.0)
    norm_ok = True
    for k in (1, 8, 32):
        mass, _ = integrate.quad(
            lambda x: np.exp(_log_orderstat_pdf(64, 1.0, 32, np.array([k]), np.array([x])))[0, 0],
            lo, hi, epsabs=0.0, epsrel=1e-9, limit=200)
        norm_ok = norm_ok and abs(mass - 1.0) <= 1e-6

    # single-draw inverse moment has a closed form
    inv = _orderstat_moments(64, 1.0, 1, np.array([1]))[0]
    inv_ok = abs(inv - 1.0 / 63.0) <= 1e-10 / 63.0

    # the grouping-preserving attack must never change the plan
    plans_ok = True
    for d in range(100):
        betas = draw_large_scale(_P, _CELL, RngStream(314159, d).generator())
        honest_plan = group_by_large_scale(betas, _P)
        for reported in grouping_unchanged_under(betas, _P, np.arange(1, 33))[1]:
            if not same_grouping(honest_plan, group_by_large_scale(reported, _P)):
                plans_ok = False
    elapsed = time.perf_counter() - t0
    ok = (zf_ok and maxmin_ok and oracle_ok and norm_ok and inv_ok
          and plans_ok and elapsed < 120.0)
    _verdict(8, ok,
             f"zf={zf_ok} maxmin={maxmin_ok} oracle_worst={worst:.2e} "
             f"norm={norm_ok} invmoment={inv_ok} plans={plans_ok} "
             f"elapsed={elapsed:.1f}s")


def test_acceptance_9_bytewise_determinism():
    reduced = (
        replace(preset("fig2"), trials=20),
        replace(preset("fig4"), trials=4, drops=4),
        replace(preset("fig7"), trials=2, drops=2, sweep_values=(1, 5)),
    )
    ok = True
    details = []
    for cfg in reduced:
        outs = []
        for workers in (1, 1, 2):
            buf = io.StringIO()
            emit_csv(run_experiment(cfg, workers=workers), buf)
            outs.append(buf.getvalue())
        same = outs[0] == outs[1] == outs[2]
        ok = ok and same
        details.append(f"{cfg.label}={same}")
    _verdict(9, ok, " ".join(details))
