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
from dataclasses import dataclass, fields, replace

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
from .channel import (RngStream, apply_misreport, channel_magnitudes, draw_channels,
                      draw_large_scale)
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

# what a layout variant may override, and its row-name label
_VARIANT_KEYS = frozenset(f.name for f in fields(SystemParams)) | {"label"}

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
        for name in ("grouping_rule", "strategy", "variants", "sweep_values"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        for variant in self.variants:
            for key, v in (variant or {}).items():
                if key not in _VARIANT_KEYS:
                    raise ConfigError(f"unknown variant key {key!r}")
                if key != "label" and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
                    raise ConfigError(f"variant {key} must be a number, got {v!r}")
        try:
            values = {float(v) for v in self.sweep_values}
        except (TypeError, ValueError):
            raise ConfigError(f"sweep values must be numbers, got {self.sweep_values!r}") from None
        if len(values) < len(self.sweep_values):
            raise ConfigError(f"duplicate sweep values in {self.sweep_values!r}")
        if self.sweep == "none" and len(values) > 1:
            raise ConfigError(f"sweep 'none' takes one sweep value, got {self.sweep_values!r}")
        # trial and drop indices must fit their fields of the stream id
        if not 1 <= self.trials < 2**_TRIAL_BITS:
            raise ConfigError(f"trials must be in [1, 2**{_TRIAL_BITS}), got {self.trials}")
        if not 1 <= self.drops < 2**_DROP_BITS:
            raise ConfigError(f"drops must be in [1, 2**{_DROP_BITS}), got {self.drops}")
        if not 0 < self.delta < math.inf:
            raise ConfigError(f"delta must be positive and finite, got {self.delta}")
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


def run_period(gains: np.ndarray, trial, members, scale, p: SystemParams, P=None) -> np.ndarray:
    """Serve E round-robin periods in one stacked call; return their period rates.

    Period e runs on rows gains[trial[e]] (K, M) with plan members[e] (T, K_B)
    and misreport multipliers scale[e] (K,); a user's period rate is its block
    rate over T. P is one transmit power or an array of powers (p.P when
    None), each applied to every period, and the rates are P.shape + (E, K).
    ``trial`` and ``members`` must be integer arrays, and every plan must order
    all K users 0..K-1, each once. A block's gains depend only on its member
    set, so each distinct (trial, sorted members) block is factorized once, in
    order of first appearance, and every block is served in sorted member
    order: plans with the same block sets get the same bits. A guard trip's
    ``index`` becomes (trial, block within the period) and its ``period`` the
    first period served on the failing block.
    """
    trial, members = np.asarray(trial), np.asarray(members)
    if not (np.issubdtype(trial.dtype, np.integer) and np.issubdtype(members.dtype, np.integer)):
        raise DimensionError(f"trial and members must be integer arrays, got {trial.dtype} "
                             f"and {members.dtype}")
    trial, members = trial.astype(np.intp, copy=False), members.astype(np.intp, copy=False)
    scale = np.asarray(scale, dtype=np.float64)
    e = trial.shape[0]
    if members.shape != (e, p.T, p.K_B) or scale.shape != (e, p.K):
        raise DimensionError(f"{e} periods need ({e}, {p.T}, {p.K_B}) members and ({e}, {p.K}) "
                             f"scales, got {members.shape} and {scale.shape}")
    if not np.array_equal(np.sort(members.reshape(e, -1), axis=1),
                          np.broadcast_to(np.arange(p.K), (e, p.K))):
        raise DimensionError("every period's members must partition the users 0..K-1")
    members = np.sort(members, axis=-1)
    # one (trial, sorted members) row per block, compared as raw bytes
    key = np.concatenate([np.broadcast_to(trial[:, None, None], (e, p.T, 1)), members], axis=-1)
    key = key.view(np.dtype((np.void, key.itemsize * (p.K_B + 1))))
    _, first, block_of = np.unique(key.ravel(), return_index=True, return_inverse=True)
    # renumber the distinct blocks in order of first appearance
    order = np.argsort(first)
    first = first[order]
    block_of = np.argsort(order)[block_of].reshape(e, p.T)
    at = np.arange(e)[:, None, None]
    try:
        rates = evaluate_block(gains[trial[first // p.T, None], members.reshape(-1, p.K_B)[first]],
                               scale[at, members], block_of, p, P)
    except SingularMatrixError as err:
        if hasattr(err, "index"):
            err.period, block = divmod(int(first[err.index[0]]), p.T)
            err.index = (int(trial[err.period]), block)
            err.args = (f"block {block}:{err.args[0].partition(':')[2]}", *err.args[1:])
        raise
    out = np.zeros(rates.shape[:-3] + scale.shape)
    out[..., at, members] = rates / p.T
    return out


# one work unit: trials lo..hi - 1 of one drop of one variant, at every sweep
# point. setup is the drop's _Drop: its large-scale gains, distinct misreport
# profiles and powers; keep names what _run_chunk returns: "means", "trials"
# or "sum"
_TrialChunk = collections.namedtuple("_TrialChunk", "p setup rules alpha seed vi drop lo hi keep")


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
# chunk at once raised peak RSS by 11 MB, slices of 8 by under 1 MB. A slice
# holds at most 8 x 3 (trial, profile) pairs, as fig6 at one sweep point does,
# so a sweep of many distinct profiles serves fewer trials per slice
_SLICE = 8
_SLICE_PAIRS = 3 * _SLICE


def _run_chunk(u: _TrialChunk) -> np.ndarray:
    """Paired trials at every sweep point: the honest baseline plus every strategy, per rule.

    Each trial is drawn once and its magnitudes computed once; it is grouped
    once per distinct profile, and its (profile, rule) periods go through one
    run_period call per slice of trials, at every distinct power at once.
    Returns only what the cell reductions read, never every period's
    per-user rates of every trial at once:
    - ``"means"`` (homogeneous): the (trials, powers, profiles, rules) mean
      rate over the honest users of each period's profile;
    - ``"trials"`` (heterogeneous): the same axes' per-user rates, K last;
    - ``"sum"`` (heterogeneous): those rates added trial by trial in order,
      as one (1, powers, profiles, rules, K) row.
    """
    p, d = u.p, u.setup
    n_prof, n_rule = len(d.scales), len(u.rules)
    scales, honest = d.scales.repeat(n_rule, axis=0), d.honest[:, None]   # (F*R, K), (F, 1, K)
    out = np.empty((u.hi - u.lo, len(d.powers), n_prof, n_rule)) if u.keep == "means" else []
    step = max(1, min(_SLICE, _SLICE_PAIRS // n_prof))
    for lo in range(u.lo, u.hi, step):
        trials = range(lo, min(lo + step, u.hi))
        rngs = (RngStream(u.seed, pack_stream(0, u.vi, u.drop, t)).generator() for t in trials)
        gains = np.stack([draw_channels(p, d.betas, rng) for rng in rngs])        # (n, K, M)
        # only magnitude and SUS grouping read the (n, F, K) reported magnitudes
        if {"channel_magnitude", "sus"} & set(u.rules):
            reported = apply_misreport(channel_magnitudes(gains), d.scales)
        # every rule's plan of each trial under each profile. The large-scale
        # plans are fixed per drop and broadcast over the trials; a trial's
        # random plan is broadcast over its profiles
        members = np.empty((len(trials), n_prof, n_rule, p.T, p.K_B), dtype=np.intp)
        for r, rule in enumerate(u.rules):
            if rule == "large_scale":
                members[:, :, r] = d.ls_plans
            elif rule == "channel_magnitude":
                members[:, :, r] = scheduling.group_by_magnitude(reported, p)
            elif rule == "sus":
                members[:, :, r] = scheduling.group_by_sus(reported, gains[:, None], d.scales, p,
                                                           u.alpha)
            else:
                for n, t in enumerate(trials):
                    rng = RngStream(u.seed, pack_stream(1, u.vi, u.drop, t)).generator()
                    members[n, :, r] = scheduling.group_randomly(p, rng)
        # periods run trial by trial, then profile by profile, then rule by rule
        try:
            rates = run_period(gains, np.repeat(np.arange(len(trials)), n_prof * n_rule),
                               members.reshape(-1, p.T, p.K_B),
                               np.tile(scales, (len(trials), 1)), p, d.powers)
        except SingularMatrixError as e:
            # the same object, re-raised: a failure is still counted once. One
            # raised outside the guard carries no period, so name the slice
            if hasattr(e, "period"):
                n, f = divmod(e.period // n_rule, n_prof)
                where = f"trial {trials[n]}"
                point = f"sweep point {d.points[np.argmax((d.profile == f).any(axis=1))]}"
            else:
                where = f"trials {lo}-{trials[-1]}"
                point = f"sweep points {', '.join(map(str, d.points))}"
            e.args += (f"variant {u.vi}, drop {u.drop}, {where}", point)
            raise
        rates = rates.reshape(len(d.powers), len(trials), n_prof, n_rule, p.K).swapaxes(0, 1)
        if u.keep == "means":
            # one fixed-order sum over all K users, whatever the slice holds
            with np.errstate(invalid="ignore"):
                out[lo - u.lo:trials[-1] + 1 - u.lo] = (np.where(honest, rates, 0.0).sum(axis=-1)
                                                        / honest.sum(axis=-1))
        elif u.keep == "sum":
            out = [functools.reduce(np.add, rates, *out)]     # trial by trial, in order
        else:
            out.extend(rates)
    return out if u.keep == "means" else np.stack(out)


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
    """Each variant's (sweep value, params, K_M, suffix) cells, one per sweep point.

    Every cell is checked here, so a bad one fails before any trial runs.
    """
    variants = [[] for _ in cfg.variants]
    for v in cfg.sweep_values:
        for cells, variant in zip(variants, cfg.variants):
            p = _effective_params(cfg, variant)
            k_m = cfg.K_M
            if cfg.sweep == "P_dB":
                p = validate_params(replace(p, P=db_to_linear(v)))
            elif cfg.sweep == "K_M":
                k_m = int(v)
            if not (0 <= k_m <= p.K):
                raise CountError(f"K_M={k_m} out of range for K={p.K}")
            cells.append((v, p, k_m, _variant_suffix(cfg, variant, p)))
    return variants


# the set-up of one drop of one variant, shared by all its sweep points.
# scales and honest are the (F, K) multipliers and honest users of the
# distinct misreport profiles of every sweep point, equal scale and reported
# gains counting as one, in order of first appearance over (sweep point,
# honest then strategies); ls_plans are their (F, T, K_B) large-scale plans,
# or None. powers are the variant's distinct transmit powers and points its
# sweep values; sweep point j runs at powers[power[j]], and profile[j, i] is
# its honest profile (i = 0) or that of strategy i - 1.
_Drop = collections.namedtuple("_Drop", "betas scales honest ls_plans powers points power profile")


def _drops(cfg, vi, cells) -> list:
    """The ``_Drop`` of each drop of variant ``vi``, whose cells are ``cells``."""
    p = cells[0][1]             # the sweep points of a variant differ in P or K_M only
    points = tuple(v for v, *_ in cells)
    powers, power = np.unique([pv.P for _, pv, *_ in cells], return_inverse=True)
    if cfg.scenario == "homogeneous":
        all_betas = [np.full(p.K, p.beta_default)]
    else:
        all_betas = (draw_large_scale(p, cfg.large_scale,
                                      RngStream(cfg.seed, pack_stream(2, vi, drop, 0)).generator())
                     for drop in range(cfg.drops))
    drops = []
    for betas in all_betas:
        honest = strategies.honest_profile(betas)
        found = {(honest.scale.tobytes(), honest.reported_beta.tobytes()): 0}
        profiles, index = [honest], []
        for _, pv, k_m, _ in cells:
            index.append([0])
            for tag in cfg.strategy:
                prof = _build_profile(tag, pv, k_m, betas, cfg)
                f = found.setdefault((prof.scale.tobytes(), prof.reported_beta.tobytes()),
                                     len(profiles))
                if f == len(profiles):
                    profiles.append(prof)
                index[-1].append(f)
        scales = np.stack([prof.scale for prof in profiles])
        ls_plans = None
        if "large_scale" in cfg.grouping_rule:
            ls_plans = scheduling.group_by_large_scale(
                np.stack([prof.reported_beta for prof in profiles]), p)
        honest = np.stack([prof.honest_mask() for prof in profiles])
        drops.append(_Drop(betas, scales, honest, ls_plans, powers, points, power,
                           np.array(index, dtype=np.intp)))
    return drops


def _run(cfg, variants, workers, pool) -> list:
    """The rows of each variant's cells: one map over every trial chunk of every variant.

    A unit covers one drop of one variant at every sweep point, so each
    trial is drawn, grouped and factorized once per run. Units are made
    variant by variant as the map reaches them, so on a pool the workers
    start on the first variant while later ones are set up. Results are
    reduced variant by variant in submission order, in this process when
    ``pool`` is None, so they do not depend on the pool; rows come out cell
    by cell, sweep point by sweep point.
    """
    per_variant = cfg.drops if cfg.scenario == "heterogeneous" else 1
    n_drops = len(variants) * per_variant
    # one unit per drop; a run of fewer than 4 drops per worker splits the drops
    pieces = 1 if pool is None else -(-4 * workers // n_drops)
    step = -(-cfg.trials // pieces)
    bounds = [(lo, min(lo + step, cfg.trials)) for lo in range(0, cfg.trials, step)]
    setups = collections.deque()        # the drops of each variant reached, until reduced

    def units():
        for vi, cells in enumerate(variants):
            setups.append(_drops(cfg, vi, cells))
            for drop, d in enumerate(setups[-1]):
                for lo, hi in bounds:
                    keep = ("means" if cfg.scenario == "homogeneous"
                            else "trials" if drop == 0 or lo > 0 else "sum")
                    yield _TrialChunk(cells[0][1], d, cfg.grouping_rule, cfg.sus_alpha,
                                      cfg.seed, vi, drop, lo, hi, keep)

    if pool is None:
        chunks = map(_run_chunk, units())
    else:
        # about 4 submissions per worker for the whole run
        chunks = pool.map(_run_chunk, units(),
                          chunksize=-(-n_drops * len(bounds) // (4 * workers)))
    rows = {}
    for vi, cells in enumerate(variants):
        # each drop's rows: per-trial rates or means, or a sum of its first
        # trials followed by the rates of the rest
        results = [np.concatenate([next(chunks) for _ in bounds]) for _ in range(per_variant)]
        drops = setups.popleft()
        first = drops[0]
        if cfg.scenario == "homogeneous":
            for j, (v, p, k_m, vsuf) in enumerate(cells):
                rows[j, vi] = _homogeneous_cell(cfg, p, k_m, vsuf, v,
                                                results[0][:, first.power[j], first.profile[j]])
            continue
        sums = [functools.reduce(np.add, res) for res in results]      # (W, F, R, K) per drop
        for j, (v, p, k_m, vsuf) in enumerate(cells):
            rows[j, vi] = _heterogeneous_cell(
                cfg, p, k_m, vsuf, v,
                np.stack([s[d.power[j], d.profile[j]] for s, d in zip(sums, drops)]),
                results[0][:, first.power[j], first.profile[j]],
                np.stack([d.honest[d.profile[j, 1:]] for d in drops]))
    return [row for key in sorted(rows) for row in rows[key]]


def _homogeneous_cell(cfg, p, k_m, vsuf, sweep_value, means):
    # means: (trials, 1 + strategies, rules) per-trial mean rate over the
    # honest users of the honest baseline (all users) and of each strategy
    rows = []
    for ri, rule in enumerate(cfg.grouping_rule):
        short = RULE_SHORT[rule]
        base_mean = means[:, 0, ri]                               # per-trial all-user mean
        for si, tag in enumerate(cfg.strategy):
            ssuf = f"__{tag}" if len(cfg.strategy) > 1 else ""
            att_honest = means[:, si + 1, ri]                     # per-trial honest mean
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
    # eq17 and eq21 cover K_M <= K_B underreporters only
    if "homogeneous_uniform" in cfg.strategy and cfg.delta <= 1:
        for name, loss, k_lo in (("analytic_eq17", analytic.loss_rr_cm, 0),
                                 ("upper_bound_eq21", analytic.loss_upper_bound, 1)):
            if k_lo <= k_m <= p.K_B:
                rows.append(ResultRow(cfg.label, cfg.sweep, float(sweep_value), f"{name}{vsuf}",
                                      loss(p, k_m, cfg.delta, p.beta_default), 0.0, 0.0, 0, 1,
                                      cfg.seed))
    return rows


def _heterogeneous_cell(cfg, p, k_m, vsuf, sweep_value, sums, first, honest):
    # sums: (drops, 1 + strategies, rules, K) per-user rates summed over each
    # drop's trials; first: the (trials, 1 + strategies, rules, K) rates of
    # drop 0; honest: (drops, strategies, K) honest users of each strategy
    tracked = (range(1, p.K + 1) if cfg.track_users is None
               else [u for u in cfg.track_users if 1 <= u <= p.K])
    rows = []
    for ri, rule in enumerate(cfg.grouping_rule):
        short = RULE_SHORT[rule]
        base_sum = sums[:, 0, ri]                         # (drops, K)
        for si, tag in enumerate(cfg.strategy):
            ssuf = f"__{tag}" if len(cfg.strategy) > 1 else ""
            att_sum = sums[:, si + 1, ri]
            user_loss = 1.0 - att_sum / base_sum          # (drops, K)
            # loss of the honest users' average rate, not the average of
            # per-user loss ratios: strong users carry their rate weight
            avg = np.array([1.0 - a[h].sum() / b[h].sum() if h.any() else np.nan
                            for a, b, h in zip(att_sum, base_sum, honest[:, si])])
            std, ci = _std_ci(avg)
            rows.append(ResultRow(
                cfg.label, cfg.sweep, float(sweep_value),
                f"avg_honest_loss_{short}{ssuf}{vsuf}",
                float(avg.mean()), std, ci, cfg.trials, cfg.drops, cfg.seed))
            # per-user rows: drop 0 is the representative drop for the per-trial spread
            tstd = ((1.0 - first[:, si + 1, ri] / first[:, 0, ri]).std(axis=0, ddof=1)
                    if cfg.trials > 1 else np.zeros(p.K))
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
    variants = _cells(cfg)
    with _single_blas_thread(), _worker_pool(workers) as pool:
        return _run(cfg, variants, workers, pool)


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
    except (TypeError, ValueError, KeyError) as e:
        raise ConfigError(f"malformed config: {e}") from e
    return cfg
