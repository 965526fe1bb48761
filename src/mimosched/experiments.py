"""Monte Carlo experiment driver: paired trials, sweeps, CSV output.

Every trial evaluates one channel realization twice, honestly and under the
misreport profile, so loss estimates difference out the common small-scale
randomness. Randomness is keyed by (seed, stream_id) with stream ids packed
from (purpose, variant, drop, trial); results are therefore byte-identical
for any worker count and across runs.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import ctypes
import functools
import itertools
import math
import numbers
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConfigError,
    CountError,
    DimensionError,
    DomainError,
    LargeScaleModel,
    SingularMatrixError,
    STRATEGY_TAGS,
    SystemParams,
    db_to_linear,
    validate_params,
)
from .channel import RngStream, apply_misreport, draw_channels, draw_large_scale
from .zf import evaluate_block
from . import analytic, scheduling, strategies

# every grouping rule, with the short name its metric rows carry
RULE_SHORT = {
    "channel_magnitude": "cm",
    "sus": "sus",
    "random": "rand",
    "large_scale": "ls",
}

_HOM_STRATEGIES = frozenset({"none", "homogeneous_uniform"})
_HET_STRATEGIES = frozenset({
    "none", "grouping_changed_under", "grouping_changed_over",
    "grouping_unchanged_under"})

# stream id layout: purpose(2) | variant(10) | drop(26) | trial(26)
_TRIAL_BITS = 26
_DROP_BITS = 26
_VARIANT_BITS = 10


def pack_stream(purpose: int, variant: int, drop: int, trial: int) -> int:
    """Collision-free substream id for one random draw site."""
    if not (0 <= trial < 2**_TRIAL_BITS and 0 <= drop < 2**_DROP_BITS
            and 0 <= variant < 2**_VARIANT_BITS and 0 <= purpose < 4):
        raise DomainError("stream coordinates out of range")
    return (((purpose << _VARIANT_BITS | variant) << _DROP_BITS | drop)
            << _TRIAL_BITS | trial)


def _integer(name: str, v) -> int:
    """``v`` as an int: integral floats and numpy integers pass, anything else is a ConfigError."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral) or isinstance(v, numbers.Real)
                                   and float(v).is_integer()):
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one experiment."""

    params: SystemParams
    scenario: str = "homogeneous"            # homogeneous | heterogeneous
    grouping_rule: tuple = ("channel_magnitude",)
    strategy: tuple = ("homogeneous_uniform",)
    K_M: int = 1
    delta: float = 0.01                      # linear misreport factor (homogeneous)
    beta_low_factor: float = 0.5             # beta_low = factor * weakest true beta
    beta_high_factor: float = 2.0            # beta_high = factor * strongest true beta
    large_scale: LargeScaleModel | None = None
    sweep: str = "none"                      # none | P_dB | K_M
    sweep_values: tuple = (0.0,)
    trials: int = 2000
    drops: int = 1
    seed: int = 42
    sus_alpha: float = 0.3
    track_users: tuple | None = None         # 1-based ranks for per-user rows; () = none
    variants: tuple = (None,)                # dicts of SystemParams overrides, or None
    label: str = "custom"

    def __post_init__(self) -> None:
        gr = (self.grouping_rule,) if isinstance(self.grouping_rule, str) else tuple(self.grouping_rule)
        st = (self.strategy,) if isinstance(self.strategy, str) else tuple(self.strategy)
        object.__setattr__(self, "grouping_rule", gr)
        object.__setattr__(self, "strategy", st)
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        object.__setattr__(self, "variants",
                           tuple(dict(v) if v else None for v in self.variants))
        for name in ("K_M", "trials", "drops", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.track_users is not None:
            object.__setattr__(self, "track_users",
                               tuple(_integer("track_users", u) for u in self.track_users))
        if self.scenario not in ("homogeneous", "heterogeneous"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for r in gr:
            if r not in RULE_SHORT:
                raise ConfigError(f"unknown grouping rule {r!r}")
        allowed = _HOM_STRATEGIES if self.scenario == "homogeneous" else _HET_STRATEGIES
        for s in st:
            if s not in STRATEGY_TAGS:
                raise ConfigError(f"unknown strategy {s!r}")
            if s not in allowed:
                raise ConfigError(f"strategy {s!r} not valid for {self.scenario} scenario")
        if self.scenario == "homogeneous" and "large_scale" in gr:
            raise ConfigError("large_scale grouping needs the heterogeneous scenario")
        if self.scenario == "heterogeneous" and self.large_scale is None:
            raise ConfigError("heterogeneous scenario needs a large_scale model")
        if self.sweep not in ("none", "P_dB", "K_M"):
            raise ConfigError(f"unknown sweep {self.sweep!r}")
        # trial and drop indices must fit their fields of the stream id
        if not 1 <= self.trials < 2**_TRIAL_BITS:
            raise ConfigError(f"trials must be in [1, 2**{_TRIAL_BITS}), got {self.trials}")
        if not 1 <= self.drops < 2**_DROP_BITS:
            raise ConfigError(f"drops must be in [1, 2**{_DROP_BITS}), got {self.drops}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        # the SUS threshold doubles until a user passes it: at <= 0 it never does
        if not self.sus_alpha > 0:
            raise ConfigError(f"sus_alpha must be positive, got {self.sus_alpha}")
        if self.sweep == "K_M":
            for k in self.sweep_values:
                _integer("K_M", k)


@dataclass(frozen=True)
class ResultRow:
    """One aggregated metric at one sweep point.

    Per-user metrics carry the user's 1-based rank in brackets, e.g.
    per_user_loss_ls[24]. mean is a ratio-of-averages estimate; std and ci95
    describe the dispersion of the matching per-trial (or per-drop) values.
    """

    scenario: str
    sweep: str
    sweep_value: float
    metric: str
    mean: float
    std: float
    ci95: float
    trials: int
    drops: int
    seed: int


def run_period(gains: np.ndarray, trial, members, scale, p: SystemParams) -> np.ndarray:
    """Serve E round-robin periods in one stacked call; return their (E, K) period rates.

    Period e runs on rows gains[trial[e]] (K, M) with plan members[e] (T, K_B)
    and misreport multipliers scale[e] (K,); a user's period rate is its block
    rate over T. Every plan must order all K users 0..K-1, each once. Each
    distinct (trial, plan) pair is factorized once, in order of first
    appearance; a guard trip's ``index`` becomes (trial, block).
    """
    trial = np.asarray(trial, dtype=np.intp)
    members = np.asarray(members, dtype=np.intp)
    scale = np.asarray(scale, dtype=np.float64)
    e = trial.shape[0]
    if members.shape != (e, p.T, p.K_B) or scale.shape != (e, p.K):
        raise DimensionError(f"{e} periods need ({e}, {p.T}, {p.K_B}) members and ({e}, {p.K}) "
                             f"scales, got {members.shape} and {scale.shape}")
    if not np.array_equal(np.sort(members.reshape(e, -1), axis=1),
                          np.broadcast_to(np.arange(p.K), (e, p.K))):
        raise DimensionError("every period's members must partition the users 0..K-1")
    # ids count up in order of first appearance, so return_index gives each plan's first period
    ids = {}
    plan_of = np.array([ids.setdefault((n, m.tobytes()), len(ids))
                        for n, m in zip(trial.tolist(), members)], dtype=np.intp)
    first = np.unique(plan_of, return_index=True)[1]
    at = np.arange(e)[:, None, None]
    try:
        rates = evaluate_block(gains[trial[first][:, None, None], members[first]],
                               scale[at, members], plan_of, p)
    except SingularMatrixError as err:
        if hasattr(err, "index"):
            err.index = (int(trial[first[err.index[0]]]), *err.index[1:])
        raise
    out = np.zeros(scale.shape)
    out[at, members] = rates / p.T
    return out


@dataclass(frozen=True)
class _TrialChunk:
    """One work unit: trials ``lo``..``hi - 1`` of one drop at one sweep point and variant."""

    p: SystemParams
    betas: np.ndarray
    profiles: list
    ls_plans: np.ndarray | None   # (1 + strategies, T, K_B) large-scale plans, honest first
    rules: tuple
    alpha: float
    seed: int
    sweep_value: object
    vi: int
    drop: int
    lo: int
    hi: int


# extension modules linked against the OpenBLAS builds the engine calls into:
# numpy's (matmul and the ZF factorizations) and scipy's bundle one each
_BLAS_MODULES = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath",
                 "scipy.linalg._fblas")


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS; () if none."""
    found = {}
    for name in _BLAS_MODULES:
        path = getattr(sys.modules.get(name), "__file__", None)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pre, suf in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
            get = getattr(lib, f"{pre}get_num_threads{suf}", None)
            put = getattr(lib, f"{pre}set_num_threads{suf}", None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.setdefault(ctypes.cast(get, ctypes.c_void_p).value, (get, put))
    return tuple(found.values())


def _set_blas_threads(counts) -> None:
    # setting a count restarts OpenBLAS's thread pool in a forked child, and
    # the restarted threads spin for a while: set only what differs
    for (get, put), n in zip(_blas_thread_controls(), counts):
        if get() != n:
            put(n)


def _pin_blas_threads() -> None:
    # blocks are at most K_B x K_B: BLAS threads only spin on them, and every
    # pool worker would add its own threads on top
    _set_blas_threads(itertools.repeat(1))


@contextlib.contextmanager
def _single_blas_thread():
    """Run the body with BLAS at one thread, then restore the caller's counts."""
    before = [get() for get, _ in _blas_thread_controls()]
    _pin_blas_threads()
    try:
        yield
    finally:
        _set_blas_threads(before)


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A pool of ``workers`` BLAS-pinned processes, or None for one worker."""
    if workers <= 1:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads)
    try:
        yield pool
    finally:
        # after an exception, chunks still queued are dropped, not run
        pool.shutdown(cancel_futures=True)


# trials per batched SUS call and stacked factorization: a whole 50-trial fig2
# chunk at once raised peak RSS by 11 MB, slices of 8 by under 1 MB
_SLICE = 8


def _run_chunk(u: _TrialChunk) -> np.ndarray:
    """Paired trials: the honest baseline plus every strategy, per rule.

    Returns the (trials, rules x profiles, K) per-user period rates; column
    r * (1 + strategies) + i holds rule r under the honest profile (i = 0)
    or under strategy i - 1.
    """
    p = u.p
    profiles = (strategies.honest_profile(u.betas), *u.profiles)
    scales = np.tile(np.stack([prof.scale for prof in profiles]), (len(u.rules), 1))
    out = np.empty((u.hi - u.lo, len(scales), p.K))
    for lo in range(u.lo, u.hi, _SLICE):
        trials = range(lo, min(lo + _SLICE, u.hi))
        rngs = (RngStream(u.seed, pack_stream(0, u.vi, u.drop, t)).generator() for t in trials)
        channels = [draw_channels(p, u.betas, rng) for rng in rngs]
        # only magnitude and SUS grouping read the perceived states, trial by trial
        states = ([apply_misreport(ch, prof) for ch in channels for prof in profiles]
                  if {"channel_magnitude", "sus"} & set(u.rules) else [])
        # periods run trial by trial, then rule by rule, then profile by profile.
        # The large-scale plans are fixed per drop and broadcast over the
        # trials; a trial's random plan is broadcast over its profiles
        shape = (len(trials), len(profiles), p.T, p.K_B)
        members = np.empty((len(trials), len(u.rules), *shape[1:]), dtype=np.intp)
        for r, rule in enumerate(u.rules):
            if rule == "large_scale":
                members[:, r] = u.ls_plans
            elif rule == "channel_magnitude":
                members[:, r] = scheduling.group_by_magnitude(states, p).reshape(shape)
            elif rule == "sus":
                members[:, r] = scheduling.group_by_sus(states, p, u.alpha).reshape(shape)
            else:
                for n, t in enumerate(trials):
                    rng = RngStream(u.seed, pack_stream(1, u.vi, u.drop, t)).generator()
                    members[n, r] = scheduling.group_randomly(p, rng)
        try:
            rates = run_period(np.stack([ch.gains for ch in channels]),
                               np.repeat(np.arange(len(trials)), len(scales)),
                               members.reshape(-1, p.T, p.K_B), np.tile(scales, (len(trials), 1)), p)
        except SingularMatrixError as e:
            # the same object, re-raised: a failure is still counted once. One
            # raised outside the guard carries no index, so name the slice
            where = (f"trial {trials[e.index[0]]}" if hasattr(e, "index")
                     else f"trials {lo}-{trials[-1]}")
            e.args += (f"variant {u.vi}, drop {u.drop}, {where}", f"sweep point {u.sweep_value}")
            raise
        out[lo - u.lo:trials[-1] + 1 - u.lo] = rates.reshape(len(trials), len(scales), -1)
    return out


def _effective_params(cfg: ExperimentConfig, variant) -> SystemParams:
    p = cfg.params
    if variant:
        fields = dict(variant)
        fields.pop("label", None)
        if "T" in fields or "K_B" in fields:
            t = _integer("T", fields.get("T", p.T))
            kb = _integer("K_B", fields.get("K_B", p.K_B))
            fields.update(T=t, K_B=kb, K=t * kb)
        p = replace(p, **fields)
    return validate_params(p)


def _variant_suffix(cfg: ExperimentConfig, variant, p: SystemParams) -> str:
    if len(cfg.variants) <= 1:
        return ""
    if variant and "label" in variant:
        return f"__{variant['label']}"
    return f"__T{p.T}_KB{p.K_B}"


def _build_profile(tag, p, k_m, betas, cfg):
    if tag == "none":
        return strategies.honest_profile(betas)
    if tag == "homogeneous_uniform":
        return strategies.homogeneous_uniform(p, k_m, cfg.delta)
    if tag == "grouping_changed_under":
        return strategies.grouping_changed_under(betas, k_m, cfg.beta_low_factor * betas[-1])
    if tag == "grouping_changed_over":
        return strategies.grouping_changed_over(betas, k_m, cfg.beta_high_factor * betas[0])
    return strategies.grouping_unchanged_under(betas, p, k_m, cfg.beta_low_factor * betas[-1])


def _mean_or_nan(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean of each row of ``a`` over the masked columns; NaN where no column is."""
    if not mask.any():
        return np.full(a.shape[0], np.nan)
    # skip the masked copy; also keeps the reduction order identical to an
    # unmasked mean, so an attack-free pairing differences to exact 0
    return a.mean(axis=-1) if mask.all() else a[..., mask].mean(axis=-1)


def _std_ci(values: np.ndarray):
    n = values.shape[0]
    if n < 2 or not np.all(np.isfinite(values)):
        return 0.0, 0.0
    s = float(values.std(ddof=1))
    return s, 1.96 * s / math.sqrt(n)


def run_cell(cfg: ExperimentConfig, sweep_value, workers: int = 1) -> list:
    """Run every variant, rule, and strategy of ``cfg`` at one sweep point, as ``run_experiment``."""
    return run_experiment(replace(cfg, sweep_values=(sweep_value,)), workers)


def _cells(cfg: ExperimentConfig) -> list:
    """(sweep value, variant index, params, K_M, suffix) of each (sweep point, variant) cell.

    Every cell is checked here, so a bad one fails before any trial runs.
    """
    cells = []
    for v in cfg.sweep_values:
        for vi, variant in enumerate(cfg.variants):
            p = _effective_params(cfg, variant)
            k_m = cfg.K_M
            if cfg.sweep == "P_dB":
                p = validate_params(replace(p, P=db_to_linear(v)))
            elif cfg.sweep == "K_M":
                k_m = int(v)
            if not (0 <= k_m <= p.K):
                raise CountError(f"K_M={k_m} out of range for K={p.K}")
            cells.append((v, vi, p, k_m, _variant_suffix(cfg, variant, p)))
    return cells


def _drops(cfg, vi, p, k_m) -> list:
    """(betas, profiles, large-scale plans or None) of each drop of one cell."""
    if cfg.scenario == "homogeneous":
        betas = np.full(p.K, p.beta_default)
        return [(betas, [_build_profile(tag, p, k_m, betas, cfg) for tag in cfg.strategy], None)]
    drops = []
    for drop in range(cfg.drops):
        drop_rng = RngStream(cfg.seed, pack_stream(2, vi, drop, 0)).generator()
        betas = draw_large_scale(p, cfg.large_scale, drop_rng)
        profiles = [_build_profile(tag, p, k_m, betas, cfg) for tag in cfg.strategy]
        ls_plans = None
        if "large_scale" in cfg.grouping_rule:
            ls_plans = np.stack([scheduling.group_by_large_scale(b, p)
                                 for b in (betas, *(prof.reported_beta for prof in profiles))])
        drops.append((betas, profiles, ls_plans))
    return drops


def _run(cfg, cells, workers, pool) -> list:
    """The rows of ``cells``: one map over every trial chunk of every cell.

    Units are made cell by cell as the map reaches them, so on a pool the
    workers start on the first cells while later ones are set up. Results
    are reduced cell by cell in submission order, in this process when
    ``pool`` is None, so they do not depend on the pool.
    """
    if not cells:
        return []
    per_cell = cfg.drops if cfg.scenario == "heterogeneous" else 1
    n_drops = len(cells) * per_cell
    # one unit per drop; a run of fewer than 4 drops per worker splits the drops
    pieces = 1 if pool is None else -(-4 * workers // n_drops)
    step = -(-cfg.trials // pieces)
    bounds = [(lo, min(lo + step, cfg.trials)) for lo in range(0, cfg.trials, step)]
    setups = collections.deque()        # the drops of each cell reached, until reduced

    def units():
        for v, vi, p, k_m, _ in cells:
            setups.append(_drops(cfg, vi, p, k_m))
            for drop, (betas, profiles, ls_plans) in enumerate(setups[-1]):
                for lo, hi in bounds:
                    yield _TrialChunk(p, betas, profiles, ls_plans, cfg.grouping_rule,
                                      cfg.sus_alpha, cfg.seed, v, vi, drop, lo, hi)

    if pool is None:
        chunks = map(_run_chunk, units())
    else:
        # about 4 submissions per worker for the whole run
        chunks = pool.map(_run_chunk, units(),
                          chunksize=-(-n_drops * len(bounds) // (4 * workers)))
    cell = _homogeneous_cell if cfg.scenario == "homogeneous" else _heterogeneous_cell
    rows = []
    for v, _, p, k_m, vsuf in cells:
        results = [np.concatenate([next(chunks) for _ in bounds]) for _ in range(per_cell)]
        rows.extend(cell(cfg, p, k_m, vsuf, v, setups.popleft(), results))
    return rows


def _homogeneous_cell(cfg, p, k_m, vsuf, sweep_value, drops, results):
    profiles, res = drops[0][1], results[0]                      # res: (trials, rules x profiles, K)
    col = 1 + len(cfg.strategy)                                   # columns per rule
    rows = []
    for ri, rule in enumerate(cfg.grouping_rule):
        short = RULE_SHORT[rule]
        base = res[:, ri * col]                                   # (trials, K)
        base_mean = base.mean(axis=1)                             # per-trial all-user mean
        for si, tag in enumerate(cfg.strategy):
            ssuf = f"__{tag}" if len(cfg.strategy) > 1 else ""
            honest = profiles[si].honest_mask()
            att = res[:, ri * col + si + 1]
            att_honest = _mean_or_nan(att, honest)        # per-trial honest mean
            theta_trials = 1.0 - att_honest / base_mean
            theta_ratio = float(1.0 - np.mean(att_honest) / np.mean(base_mean))
            std, ci = _std_ci(theta_trials)
            name = f"theta_{short}{ssuf}{vsuf}"
            rows.append(ResultRow(cfg.label, cfg.sweep, float(sweep_value), name,
                                  theta_ratio, std, ci, cfg.trials, 1, cfg.seed))
            rows.append(ResultRow(cfg.label, cfg.sweep, float(sweep_value),
                                  name.replace(f"theta_{short}", f"theta_{short}_paired", 1),
                                  float(np.mean(theta_trials)) if np.all(np.isfinite(theta_trials)) else float("nan"),
                                  std, ci, cfg.trials, 1, cfg.seed))
    if "homogeneous_uniform" in cfg.strategy:
        if 0 <= k_m <= p.K_B:
            val = analytic.loss_rr_cm(p, k_m, cfg.delta, p.beta_default)
            rows.append(ResultRow(cfg.label, cfg.sweep, float(sweep_value),
                                  f"analytic_eq17{vsuf}", val, 0.0, 0.0, 0, 1, cfg.seed))
        if 1 <= k_m <= p.K_B:
            val = analytic.loss_upper_bound(p, k_m, cfg.delta, p.beta_default)
            rows.append(ResultRow(cfg.label, cfg.sweep, float(sweep_value),
                                  f"upper_bound_eq21{vsuf}", val, 0.0, 0.0, 0, 1, cfg.seed))
    return rows


def _heterogeneous_cell(cfg, p, k_m, vsuf, sweep_value, drops, results):
    tracked = (range(1, p.K + 1) if cfg.track_users is None
               else [u for u in cfg.track_users if 1 <= u <= p.K])
    res = np.stack(results)                               # (drops, trials, rules x profiles, K)
    col = 1 + len(cfg.strategy)                           # columns per rule
    rows = []
    for ri, rule in enumerate(cfg.grouping_rule):
        short = RULE_SHORT[rule]
        base = res[:, :, ri * col]                        # (drops, trials, K)
        base_sum = base.sum(axis=1)
        for si, tag in enumerate(cfg.strategy):
            ssuf = f"__{tag}" if len(cfg.strategy) > 1 else ""
            att = res[:, :, ri * col + si + 1]
            att_sum = att.sum(axis=1)
            user_loss = 1.0 - att_sum / base_sum          # (drops, K)
            # loss of the honest users' average rate, not the average of
            # per-user loss ratios: strong users carry their rate weight
            honest = [profiles[si].honest_mask() for _, profiles, _ in drops]
            avg = np.array([1.0 - a[h].sum() / b[h].sum() if h.any() else np.nan
                            for a, b, h in zip(att_sum, base_sum, honest)])
            std, ci = _std_ci(avg)
            rows.append(ResultRow(
                cfg.label, cfg.sweep, float(sweep_value),
                f"avg_honest_loss_{short}{ssuf}{vsuf}",
                float(avg.mean()), std, ci, cfg.trials, cfg.drops, cfg.seed))
            # per-user rows: drop 0 is the representative drop for the per-trial spread
            tstd = ((1.0 - att[0] / base[0]).std(axis=0, ddof=1) if cfg.trials > 1
                    else np.zeros(p.K))
            tci = 1.96 * tstd / math.sqrt(cfg.trials) if cfg.trials > 1 else tstd
            for u in tracked:
                i = u - 1
                rows.append(ResultRow(
                    cfg.label, cfg.sweep, float(sweep_value),
                    f"per_user_loss_{short}{ssuf}{vsuf}[{u}]",
                    float(user_loss[0, i]), float(tstd[i]), float(tci[i]),
                    cfg.trials, 1, cfg.seed))
                dstd, dci = _std_ci(user_loss[:, i])
                rows.append(ResultRow(
                    cfg.label, cfg.sweep, float(sweep_value),
                    f"per_user_loss_{short}{ssuf}{vsuf}_drops[{u}]",
                    float(user_loss[:, i].mean()), dstd, dci,
                    cfg.trials, cfg.drops, cfg.seed))
    return rows


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """Run every sweep point and return the full, deterministically ordered rows.

    With ``workers > 1`` one process pool serves the whole run. BLAS runs
    single-threaded in this process and in every pool worker; the caller's
    thread counts are restored, and the pool is shut down, on return and on
    an exception.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    cells = _cells(cfg)
    with _single_blas_thread(), _worker_pool(workers) as pool:
        return _run(cfg, cells, workers, pool)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


CSV_HEADER = ["scenario", "sweep", "sweep_value", "metric",
              "mean", "std", "ci95", "trials", "drops", "seed"]


def emit_csv(rows, dest) -> None:
    """Write rows sorted by (sweep value, metric name) as a stable CSV.

    17 significant digits round-trip every float exactly. ``dest`` may be a
    path or a text file object.
    """
    if not rows:
        raise ConfigError("no rows to emit")
    ordered = sorted(rows, key=lambda r: (float(r.sweep_value), r.metric))
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", newline="") if own else dest
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for r in ordered:
            w.writerow([r.scenario, r.sweep, _fmt(r.sweep_value), r.metric,
                        _fmt(r.mean), _fmt(r.std), _fmt(r.ci95),
                        r.trials, r.drops, r.seed])
    finally:
        if own:
            fh.close()


_CONFIG_KEYS = {
    "M", "K", "K_B", "T", "P", "P_dB", "noise_var", "beta_default",
    "scenario", "grouping_rule", "strategy", "K_M", "delta", "delta_dB",
    "beta_low_factor", "beta_high_factor", "cell_radius", "ref_distance",
    "path_loss_exp", "shadow_sigma_db", "sweep", "sweep_values", "trials",
    "drops", "seed", "sus_alpha", "track_users", "variants", "label",
}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat JSON-style mapping.

    dB-suffixed keys (P_dB, delta_dB) are converted to linear here, at the
    boundary; everything downstream is linear.
    """
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(d) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "P" in d and "P_dB" in d:
        raise ConfigError("give P or P_dB, not both")
    if "delta" in d and "delta_dB" in d:
        raise ConfigError("give delta or delta_dB, not both")
    try:
        t = _integer("T", d.get("T", 4))
        kb = _integer("K_B", d.get("K_B", 8))
        k = _integer("K", d.get("K", t * kb))
        params = SystemParams(
            M=_integer("M", d.get("M", 64)), K=k, K_B=kb, T=t,
            P=float(d["P"]) if "P" in d else db_to_linear(d.get("P_dB", 10.0)),
            noise_var=float(d.get("noise_var", 1.0)),
            beta_default=float(d.get("beta_default", 1.0)),
        )
        validate_params(params)
        scenario = d.get("scenario", "homogeneous")
        lsm = None
        if scenario == "heterogeneous":
            lsm = LargeScaleModel(
                cell_radius=float(d.get("cell_radius", 500.0)),
                ref_distance=float(d.get("ref_distance", 200.0)),
                path_loss_exp=float(d.get("path_loss_exp", 3.8)),
                shadow_sigma_db=float(d.get("shadow_sigma_db", 8.0)),
            )
        delta = float(d["delta"]) if "delta" in d else db_to_linear(d.get("delta_dB", -20.0))
        cfg = ExperimentConfig(
            params=params,
            scenario=scenario,
            grouping_rule=d.get("grouping_rule", "channel_magnitude"),
            strategy=d.get("strategy",
                           "homogeneous_uniform" if scenario == "homogeneous"
                           else "grouping_changed_under"),
            K_M=d.get("K_M", 1),
            delta=delta,
            beta_low_factor=float(d.get("beta_low_factor", 0.5)),
            beta_high_factor=float(d.get("beta_high_factor", 2.0)),
            large_scale=lsm,
            sweep=d.get("sweep", "none"),
            sweep_values=tuple(d.get("sweep_values", (0.0,))),
            trials=d.get("trials", 2000),
            drops=d.get("drops", 200 if scenario == "heterogeneous" else 1),
            seed=d.get("seed", 42),
            sus_alpha=float(d.get("sus_alpha", 0.3)),
            track_users=d.get("track_users"),
            variants=tuple(d["variants"]) if d.get("variants") else (None,),
            label=d.get("label", "custom"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as e:
        raise ConfigError(f"malformed config: {e}") from e
    return cfg
