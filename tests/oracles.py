"""Slow, independent reference implementations the tests compare against.

None is part of the package: each recomputes a production result by a
different or plainer route, one block, one state or one period at a time.
"""
import functools
import math
import statistics
from dataclasses import replace

import mpmath
import numpy as np
import scipy.linalg
from scipy.stats import gamma as gamma_dist

from mimosched import (DomainError, ResultRow, RngStream, analytic, channel_magnitudes,
                       db_to_linear, draw_channels, draw_large_scale, group_by_large_scale,
                       group_by_magnitude, group_by_sus, group_randomly, loss_rr_cm,
                       loss_upper_bound, maxmin_power, zf_effective_gains)
from mimosched.analytic import _log_gamma_cdfs, _log_rank_densities
from mimosched.experiments import RULE_SHORT, _loss, pack_stream
from mimosched.zf import _check_conditioning


def gram(rows: np.ndarray) -> np.ndarray:
    """The (..., K_B, K_B) Gram matrices rows rows^H of (..., K_B, M) block rows."""
    return rows @ rows.conj().swapaxes(-1, -2)


def nullspace_gain_oracle(rows: np.ndarray, k: int) -> float:
    """Independent route to d_k^2: project g_k on the co-users' null space.

    Builds an orthonormal basis V of the orthogonal complement of the other
    K_B - 1 rows and returns ||g_k V||^2. Agrees with zf_effective_gains of
    the rows' Gram matrix for well-conditioned inputs; kept separate as a
    cross-check, not merged.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    kb, m = rows.shape
    if not 0 <= k < kb:
        raise DomainError(f"row index {k} out of range for K_B={kb}")
    # same degeneracy guard as the production path
    _check_conditioning(gram(rows))
    if kb == 1:
        return float(np.vdot(rows[0], rows[0]).real)
    others = np.delete(rows, k, axis=0)
    basis = scipy.linalg.null_space(others)
    proj = rows[k] @ basis
    return float(np.vdot(proj, proj).real)


def inverse_moment_oracle(shape: int, scale: float, n: int, k: int,
                          panels: int = 8, dps: int = 30) -> float:
    """E[1/X_(k)] of n i.i.d. Gamma(shape, scale) draws, by mpmath at ``dps`` digits.

    Integrates C(n,k) F^(k-1) (1-F)^(n-k) f(x) / x with mpmath's tanh-sinh
    rule over ``panels`` equal panels of the same truncated range as the
    production kernel: the parent quantiles at 1e-12 and 1 - 1e-12.
    """
    lo, hi = gamma_dist.ppf([1e-12, 1.0 - 1e-12], shape, scale=scale)
    with mpmath.workdps(dps):
        a, s = mpmath.mpf(shape), mpmath.mpf(scale)
        log_c = (mpmath.loggamma(n + 1) - mpmath.loggamma(k) - mpmath.loggamma(n - k + 1)
                 - mpmath.loggamma(a) - mpmath.log(s))

        def integrand(x):
            xs = x / s
            cdf = mpmath.gammainc(a, 0, xs, regularized=True)
            return (mpmath.exp(log_c + (a - 1) * mpmath.log(xs) - xs)
                    * cdf ** (k - 1) * (1 - cdf) ** (n - k) / x)

        edges = mpmath.linspace(mpmath.mpf(float(lo)), mpmath.mpf(float(hi)), panels + 1)
        return float(mpmath.quad(integrand, edges))


def _log_orderstat_pdf(shape: int, scale: float, n: int, ranks: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """(ranks, x) log densities of the k-th smallest of n Gamma(shape, scale) draws, x > 0."""
    log_p, log_q, log_f = _log_gamma_cdfs(shape, x / scale)
    return _log_rank_densities(n, ranks, log_p, log_q, log_f - math.log(scale))


def orderstat_pdf_oracle(shape: int, scale: float, n: int, k: int, x):
    """Density of the k-th smallest of n i.i.d. Gamma(shape, scale) draws; 0 off the support.

    k * C(n, k) * F^(k-1) * (1 - F)^(n-k) * f with scipy's gamma F, 1 - F and
    f, in the linear domain: a route independent of the production log
    density.
    """
    parent = gamma_dist(shape, scale=scale)
    x = np.asarray(x, dtype=np.float64)
    return k * math.comb(n, k) * parent.cdf(x) ** (k - 1) * parent.sf(x) ** (n - k) * parent.pdf(x)


def period_rates_oracle(gains: np.ndarray, scale: np.ndarray, members, p,
                        block_rows: bool = False) -> np.ndarray:
    """(K,) period rates of one period on one realization, served on its own.

    gains: (K, M) channel rows; scale: (K,) misreport multipliers; members:
    the (T, K_B) plan. A block's gains depend only on its member set, so
    each block is served in sorted member order: one factorization of this
    period's T sorted blocks, then max-min power on the base station's
    gains scale_k * d_k^2, and each member's actual rate
    log2(1 + snr_bs / scale_k) divided by T. Each block's Gram matrix is
    its principal submatrix of the realization's (K, K) Gram, or with
    ``block_rows`` the Gram of its own (K_B, M) rows, which can differ from
    it in the last bits.
    """
    members = np.sort(np.asarray(members, dtype=np.intp), axis=-1)
    s = np.asarray(scale, dtype=np.float64)[members]
    g = gram(gains[members]) if block_rows else gram(gains)[members[:, :, None],
                                                            members[:, None]]
    _, snr_bs = maxmin_power(s * zf_effective_gains(g), p.P, p.noise_var)
    rates = np.zeros(gains.shape[0])
    rates[members] = np.log2(1.0 + snr_bs[..., None] / s) / p.T
    return rates


def false_matrix(gains: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The misreported channel rows sqrt(scale[..., k]) * g_k, broadcast over leading axes."""
    return np.sqrt(scale)[..., None] * gains


def sus_oracle(mags, rows, p, alpha: float = 0.3) -> np.ndarray:
    """Semi-orthogonal user selection as a loop over candidates and basis vectors.

    The rule of ``group_by_sus``, one view at a time: ``mags`` are the (K,)
    reported magnitudes and ``rows`` the (K, M) reported channel rows. Seed
    each block with the strongest remaining reported magnitude, then add the
    free candidate with the largest orthogonal energy among those whose
    normalized projection stays below the threshold, doubling the threshold
    when none does. Returns the (T, K_B) plan.
    """
    remaining = list(range(p.K))
    groups = []
    for _ in range(p.T):
        thresh = alpha
        seed = min(remaining, key=lambda u: (-mags[u], u))
        selected = [seed]
        remaining.remove(seed)
        basis = []
        nrm = np.linalg.norm(rows[seed])
        if nrm > 0:
            basis.append(rows[seed] / nrm)
        while len(selected) < p.K_B:
            best = None
            best_orth = -1.0
            for u in remaining:
                f = rows[u]
                f2 = np.vdot(f, f).real
                proj2 = 0.0
                for q in basis:
                    proj2 += abs(np.vdot(q, f)) ** 2
                orth2 = max(f2 - proj2, 0.0)
                frac = np.sqrt(proj2 / f2) if f2 > 0 else 0.0
                if frac < thresh and orth2 > best_orth:
                    best = u
                    best_orth = orth2
            if best is None:
                thresh *= 2.0
                continue
            selected.append(best)
            remaining.remove(best)
            resid = rows[best] - sum(np.vdot(q, rows[best]) * q for q in basis)
            rn = np.linalg.norm(resid)
            if rn > 1e-12 * np.linalg.norm(rows[best]):
                basis.append(resid / rn)
        groups.append(selected)
    return np.array(groups, dtype=np.intp)


def recruit_chain_oracle(betas: np.ndarray, p, k_m: int, beta_low: float) -> np.ndarray:
    """(K,) reported gains of the grouping-preserving attack, one recruit at a time.

    Recruit m joins block t = m mod T (T when 0) as its ceil(m / T)-th
    member. Block t's recruits then report the true gain of block t + 1's
    newest recruit, or the midpoint of the gap to block t + 1 while it has
    none, and the last block's report beta_low; block t - 1's recruits are
    refreshed to the new recruit's true gain.
    """
    K_B, T = p.K_B, p.T
    reported = np.array(betas, dtype=np.float64)
    recruits = {t: [] for t in range(1, T + 1)}
    for m in range(1, k_m + 1):
        t = m % T or T
        i_m = (t - 1) * K_B + math.ceil(m / T) - 1
        recruits[t].append(i_m)
        if t < T:
            if recruits[t + 1]:
                val = betas[recruits[t + 1][-1]]
            else:
                val = (betas[t * K_B - 1] + betas[t * K_B]) / 2.0
            reported[recruits[t]] = val
            if t > 1:
                reported[recruits[t - 1]] = betas[i_m]
        else:
            reported[recruits[T]] = beta_low
            if T > 1:
                reported[recruits[T - 1]] = betas[i_m]
    return reported


def profile_oracle(tag: str, betas: np.ndarray, p, k_m: int, cfg) -> tuple:
    """(K,) scale and reported gains of one strategy at one count, as one profile.

    ``cfg`` supplies delta and the beta_low / beta_high factors. The
    homogeneous strategy reports its scale times a vector of beta_default;
    every other strategy's scale is its reports over the true gains.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if tag == "none":
        return np.ones_like(betas), betas.copy()
    if tag == "homogeneous_uniform":
        scale = np.ones(p.K)
        scale[:k_m] = cfg.delta
        return scale, scale * np.full(p.K, p.beta_default)
    reported = betas.copy()
    if tag == "grouping_changed_under":
        reported[:k_m] = cfg.beta_low_factor * betas[-1]
    elif tag == "grouping_changed_over":
        reported[-k_m:] = cfg.beta_high_factor * betas[0]
    else:
        reported = recruit_chain_oracle(betas, p, k_m, cfg.beta_low_factor * betas[-1])
    return reported / betas, reported


def cells_oracle(cfg) -> list:
    """Each variant's (sweep value, params at its power, K_M, row suffix) cells, one per point.

    Read off the config's fields one cell at a time: a variant's T or K_B
    sets K = T * K_B unless it gives K, and a run of several variants
    suffixes each variant's row names with its label, or else T{T}_KB{K_B}.
    """
    out = []
    for variant in cfg.variants:
        over = {k: v for k, v in (variant or {}).items() if k != "label"}
        if ("T" in over or "K_B" in over) and "K" not in over:
            over["K"] = over.get("T", cfg.params.T) * over.get("K_B", cfg.params.K_B)
        p = replace(cfg.params, **over)
        suffix = ("" if len(cfg.variants) == 1 else
                  f"__{variant['label']}" if variant and "label" in variant else
                  f"__T{p.T}_KB{p.K_B}")
        out.append([(v, replace(p, P=db_to_linear(v)) if cfg.sweep == "P_dB" else p,
                     int(v) if cfg.sweep == "K_M" else cfg.K_M, suffix)
                    for v in cfg.sweep_values])
    return out


def drop_setups_oracle(cfg, vi: int, cells) -> list:
    """Each drop's (betas, scales, honest, ls_plans, profile) of variant ``vi``, profile by profile.

    ``cells`` are the variant's cells from cells_oracle.
    Every (sweep point, honest then each strategy) profile is built on its
    own and looked up by its scale and reported bytes, so equal profiles
    count once, in order of first appearance.
    """
    p = cells[0][1]
    if cfg.scenario == "homogeneous":
        all_betas = [np.full(p.K, p.beta_default)]
    else:
        all_betas = [draw_large_scale(p, cfg.large_scale,
                                      RngStream(cfg.seed, pack_stream(2, vi, d, 0)).generator())
                     for d in range(cfg.drops)]
    setups = []
    for betas in all_betas:
        found, profiles, index = {}, [], []
        for _, pv, k_m, _ in cells:
            index.append([])
            for tag in ("none", *cfg.strategy):
                prof = profile_oracle(tag, betas, pv, k_m, cfg)
                f = found.setdefault((prof[0].tobytes(), prof[1].tobytes()), len(profiles))
                if f == len(profiles):
                    profiles.append(prof)
                index[-1].append(f)
        scales = np.stack([s for s, _ in profiles])
        ls_plans = (group_by_large_scale(np.stack([r for _, r in profiles]), p)
                    if "large_scale" in cfg.grouping_rule else None)
        setups.append((betas, scales, scales == 1.0, ls_plans, np.array(index, dtype=np.intp)))
    return setups


def _drop_rates(cfg, vi: int, drop: int, cells, setup) -> np.ndarray:
    """(sweep points, 1 + strategies, rules, trials, K) period rates of one drop.

    Each trial is drawn on its own stream; each (profile, rule) plan comes
    from the package's grouping rule and is served on its own at the power
    of every sweep point that uses the profile.
    """
    betas, scales, _, ls_plans, profile = setup
    p = cells[0][1]
    rates = np.empty(profile.shape + (len(cfg.grouping_rule), cfg.trials, p.K))
    for t in range(cfg.trials):
        gains = draw_channels(p, betas, RngStream(cfg.seed, pack_stream(0, vi, drop, t)).generator())
        mags = channel_magnitudes(gains)
        for ri, rule in enumerate(cfg.grouping_rule):
            for f, scale in enumerate(scales):
                if rule == "channel_magnitude":
                    plan = group_by_magnitude(mags * scale, p)
                elif rule == "sus":
                    plan = group_by_sus(mags * scale, gains, scale, p, cfg.sus_alpha)
                elif rule == "large_scale":
                    plan = ls_plans[f]
                else:
                    plan = group_randomly(
                        p, RngStream(cfg.seed, pack_stream(1, vi, drop, t)).generator())
                for j, (_, pj, _, _) in enumerate(cells):
                    for i in np.flatnonzero(profile[j] == f):
                        rates[j, i, ri, t] = period_rates_oracle(gains, scale, plan, pj)
    return rates


def rows_oracle(cfg) -> dict:
    """Every row of a run as {(sweep value, metric): (mean, std, ci95, trials, drops)}.

    Replays the run one period at a time: each drop's set-up from
    drop_setups_oracle, each trial's channels drawn on its own stream, each
    (profile, rule) plan from the package's grouping functions, and each
    period served on its own by period_rates_oracle at its sweep point's
    power. Every mean and spread then comes from statistics.fmean and
    statistics.stdev, with ci95 = 1.96 s / sqrt(n) and s = 0 below two
    values.
    """
    rows = {}

    def put(v, name, mean, values=(), trials=cfg.trials, drops=1):
        n = len(values)
        s = statistics.stdev(values) if n > 1 else 0.0
        rows[float(v), name] = (mean, s, 1.96 * s / math.sqrt(n) if n > 1 else 0.0, trials, drops)

    for vi, cells in enumerate(cells_oracle(cfg)):
        setups = drop_setups_oracle(cfg, vi, cells)
        # (drops, sweep points, 1 + strategies, rules, trials, K)
        rates = np.stack([_drop_rates(cfg, vi, d, cells, setup) for d, setup in enumerate(setups)])
        for j, (v, p, k_m, vsuf) in enumerate(cells):
            for ri, rule in enumerate(cfg.grouping_rule):
                name = RULE_SHORT[rule]
                for si, tag in enumerate(cfg.strategy):
                    tail = (f"__{tag}" if len(cfg.strategy) > 1 else "") + vsuf
                    base, att = rates[:, j, 0, ri], rates[:, j, si + 1, ri]
                    honest = [h[prof[j, si + 1]] for _, _, h, _, prof in setups]
                    if cfg.scenario == "homogeneous":
                        b = [statistics.fmean(r) for r in base[0]]
                        a = [statistics.fmean(r[honest[0]]) for r in att[0]]
                        paired = [1.0 - x / y for x, y in zip(a, b)]
                        put(v, f"theta_{name}{tail}", 1.0 - statistics.fmean(a) / statistics.fmean(b),
                            paired)
                        put(v, f"theta_{name}_paired{tail}", statistics.fmean(paired), paired)
                        continue
                    avg = [1.0 - statistics.fmean(a[:, h].ravel()) / statistics.fmean(b[:, h].ravel())
                           for a, b, h in zip(att, base, honest)]
                    put(v, f"avg_honest_loss_{name}{tail}", statistics.fmean(avg), avg,
                        drops=cfg.drops)
                    for u in (range(1, p.K + 1) if cfg.track_users is None
                              else [u for u in cfg.track_users if u <= p.K]):
                        user = [1.0 - statistics.fmean(a[:, u - 1]) / statistics.fmean(b[:, u - 1])
                                for a, b in zip(att, base)]
                        per_trial = [1.0 - x / y for x, y in zip(att[0, :, u - 1], base[0, :, u - 1])]
                        put(v, f"per_user_loss_{name}{tail}[{u}]", user[0], per_trial)
                        put(v, f"per_user_loss_{name}{tail}_drops[{u}]", statistics.fmean(user), user,
                            drops=cfg.drops)
            # the closed forms cover K_M <= K_B underreporters only
            if "homogeneous_uniform" in cfg.strategy and cfg.delta <= 1:
                if k_m <= p.K_B:
                    put(v, f"analytic_eq17{vsuf}", loss_rr_cm(p, k_m, cfg.delta, p.beta_default),
                        trials=0)
                if 1 <= k_m <= p.K_B:
                    put(v, f"upper_bound_eq21{vsuf}",
                        loss_upper_bound(p, k_m, cfg.delta, p.beta_default), trials=0)
    return rows


def _std_ci_oracle(values: np.ndarray) -> tuple:
    """Sample std of ``values`` along axis 0 and its 95 % half-width; 0 below two values
    or in a column holding a non-finite value. Each column is one contiguous row."""
    cols = np.moveaxis(values, 0, -1).copy()
    n = cols.shape[-1]
    s = np.zeros(cols.shape[:-1])
    if n > 1:
        s = np.where(np.isfinite(cols).all(axis=-1), cols.std(axis=-1, ddof=1), s)
    return s, 1.96 * s / math.sqrt(n)


def variant_rows_oracle(cfg, var, drops, results):
    """The rows ``experiments._variant_rows`` yields, one sweep point, rule and strategy at a time.

    The reducer as it was before it read whole arrays: each drop's rates are
    summed row by row with ``functools.reduce``, each point's cells are
    gathered on their own, and each drop's honest users are summed by one
    boolean mask each. Yields each sweep point's rows, as the reducer does.
    """
    het = cfg.scenario == "heterogeneous"
    sums = [functools.reduce(np.add, res) for res in results] if het else None
    tracked = (range(1, var.p.K + 1) if cfg.track_users is None
               else [u for u in cfg.track_users if u <= var.p.K])
    for j, v in enumerate(var.points):
        rows = []

        def row(name, mean, std, ci, trials=cfg.trials, drops=1):
            rows.append(ResultRow(cfg.label, cfg.sweep, float(v), name, float(mean), float(std),
                                  float(ci), trials, drops, cfg.seed))

        # drop 0's (trials, 1 + strategies, rules[, K]) baseline and attacked runs
        trial = results[0][:, var.power[j], drops[0].profile[j]]
        if het:
            # (drops, 1 + strategies, rules, K) rates summed over each drop's
            # trials, and the (drops, strategies, K) honest users of each attack
            total = np.stack([s[var.power[j], d.profile[j]] for s, d in zip(sums, drops)])
            honest = np.stack([d.scales[d.profile[j, 1:]] == 1.0 for d in drops])
        for ri, rule in enumerate(cfg.grouping_rule):
            short = RULE_SHORT[rule]
            for si, tag in enumerate(cfg.strategy):
                tail = (f"__{tag}" if len(cfg.strategy) > 1 else "") + var.suffix
                att, base = trial[:, si + 1, ri], trial[:, 0, ri]
                per_trial = _loss(att, base)
                std, ci = _std_ci_oracle(per_trial)
                if not het:
                    row(f"theta_{short}{tail}", _loss(att.mean(), base.mean()), std, ci)
                    row(f"theta_{short}_paired{tail}", per_trial.mean(), std, ci)
                    continue
                att, base = total[:, si + 1, ri], total[:, 0, ri]
                # loss of the honest users' average rate, not the average of
                # per-user loss ratios: strong users carry their rate weight
                avg = np.array([_loss(a[h].sum(), b[h].sum()) if h.any() else np.nan
                                for a, b, h in zip(att, base, honest[:, si])])
                row(f"avg_honest_loss_{short}{tail}", avg.mean(), *_std_ci_oracle(avg), drops=cfg.drops)
                user = _loss(att, base)                                 # (drops, K)
                dstd, dci = _std_ci_oracle(user)
                for u in tracked:
                    row(f"per_user_loss_{short}{tail}[{u}]", user[0, u - 1], std[u - 1], ci[u - 1])
                    row(f"per_user_loss_{short}{tail}_drops[{u}]", user[:, u - 1].mean(),
                        dstd[u - 1], dci[u - 1], drops=cfg.drops)
        # eq17 and eq21 cover K_M <= K_B underreporters only
        if "homogeneous_uniform" in cfg.strategy and cfg.delta <= 1:
            p, k_m = replace(var.p, P=var.powers[var.power[j]]), int(var.counts[j])
            for name, loss, k_lo in (("analytic_eq17", analytic.loss_rr_cm, 0),
                                     ("upper_bound_eq21", analytic.loss_upper_bound, 1)):
                if k_lo <= k_m <= p.K_B:
                    row(f"{name}{var.suffix}", loss(p, k_m, cfg.delta, p.beta_default), 0.0, 0.0,
                        trials=0)
        yield rows
