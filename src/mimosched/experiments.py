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
import multiprocessing
# loaded with the package, so that a run forked from it imports nothing to start its pool
import multiprocessing.connection
import multiprocessing.popen_fork
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (
    ConfigError,
    CountError,
    DimensionError,
    DomainError,
    LargeScaleModel,
    SingularMatrixError,
    SystemParams,
    db_to_linear,
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


def _tuple(name: str, v) -> tuple:
    """``v`` as a tuple: a tuple or a list passes, anything else is a ConfigError."""
    if not isinstance(v, (tuple, list)):
        raise ConfigError(f"{name} must be a list, got {v!r}")
    return tuple(v)


def _real(name: str, v) -> float:
    """``v`` as a float: any real number passes, a bool, a string or anything else is a ConfigError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {v!r}")
    return float(v)


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
        if not isinstance(self.params, SystemParams):
            raise ConfigError(f"params must be a SystemParams, got {self.params!r}")
        for name in ("grouping_rule", "strategy"):
            v = getattr(self, name)
            object.__setattr__(self, name, (v,) if isinstance(v, str) else _tuple(name, v))
        object.__setattr__(self, "sweep_values", _tuple("sweep_values", self.sweep_values))
        if not all(v is None or isinstance(v, dict) for v in _tuple("variants", self.variants)):
            raise ConfigError(f"each variant must be a dict of overrides or None, got "
                              f"{self.variants!r}")
        object.__setattr__(self, "variants", tuple(dict(v) if v else None for v in self.variants))
        kinds = {"int": _integer, "float": _real}
        for f in fields(self):
            if f.type in kinds:
                object.__setattr__(self, f.name, kinds[f.type](f.name, getattr(self, f.name)))
        if self.track_users is not None:
            object.__setattr__(self, "track_users", tuple(
                _integer("track_users", u) for u in _tuple("track_users", self.track_users)))
            if len(set(self.track_users)) < len(self.track_users):
                raise ConfigError(f"track_users repeats a rank: {self.track_users}")
        if self.scenario not in ("homogeneous", "heterogeneous"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for r in self.grouping_rule:
            if not isinstance(r, str) or r not in RULE_SHORT:
                raise ConfigError(f"unknown grouping rule {r!r}")
        allowed = _HOM_STRATEGIES if self.scenario == "homogeneous" else _HET_STRATEGIES
        for s in self.strategy:
            if not isinstance(s, str) or s not in _HOM_STRATEGIES | _HET_STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}")
            if s not in allowed:
                raise ConfigError(f"strategy {s!r} not valid for {self.scenario} scenario")
        if self.scenario == "homogeneous" and "large_scale" in self.grouping_rule:
            raise ConfigError("large_scale grouping needs the heterogeneous scenario")
        # the homogeneous run reads no cell model and writes no per-user row
        if self.scenario == "homogeneous" and (self.large_scale is not None or self.track_users):
            raise ConfigError("large_scale and track_users need the heterogeneous scenario")
        if self.scenario == "heterogeneous" and not isinstance(self.large_scale, LargeScaleModel):
            raise ConfigError(f"heterogeneous scenario needs a large_scale model, got "
                              f"{self.large_scale!r}")
        if self.sweep not in ("none", "P_dB", "K_M"):
            raise ConfigError(f"unknown sweep {self.sweep!r}")
        for name in ("grouping_rule", "strategy", "variants", "sweep_values"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        # a label names the CSV rows: it is never converted to text
        for label in (self.label, *(v["label"] for v in self.variants if v and "label" in v)):
            if not isinstance(label, str):
                raise ConfigError(f"a label must be text, got {label!r}")
        for variant in self.variants:
            for key, v in (variant or {}).items():
                if key not in _VARIANT_KEYS:
                    raise ConfigError(f"unknown variant key {key!r}")
                if key != "label" and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
                    raise ConfigError(f"variant {key} must be a number, got {v!r}")
        # checked, not converted: a sweep value is written to the rows as given
        if not all(math.isfinite(_real("sweep value", v)) for v in self.sweep_values):
            raise ConfigError(f"sweep values must be finite, got {self.sweep_values!r}")
        if len({float(v) for v in self.sweep_values}) < len(self.sweep_values):
            raise ConfigError(f"duplicate sweep values in {self.sweep_values!r}")
        if self.sweep == "none" and len(self.sweep_values) > 1:
            raise ConfigError(f"sweep 'none' takes one sweep value, got {self.sweep_values!r}")
        # trial, drop and variant indices must fit their fields of the stream
        # id, and the seed its 64-bit word of the Philox key
        if not 1 <= self.trials < 2**_TRIAL_BITS:
            raise ConfigError(f"trials must be in [1, 2**{_TRIAL_BITS}), got {self.trials}")
        if not 1 <= self.drops < 2**_DROP_BITS:
            raise ConfigError(f"drops must be in [1, 2**{_DROP_BITS}), got {self.drops}")
        if len(self.variants) > 2**_VARIANT_BITS:
            raise ConfigError(f"at most 2**{_VARIANT_BITS} variants, got {len(self.variants)}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0 < self.delta < math.inf:
            raise ConfigError(f"delta must be positive and finite, got {self.delta}")
        # beta_low must sort below the weakest user, beta_high above the strongest
        if not 0 < self.beta_low_factor < 1:
            raise ConfigError(f"beta_low_factor must lie in (0, 1), got {self.beta_low_factor}")
        if not 1 < self.beta_high_factor < math.inf:
            raise ConfigError(f"beta_high_factor must be finite and > 1, got {self.beta_high_factor}")
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


def _distinct(rows: np.ndarray) -> tuple:
    """The first index of each distinct row of 2-D ``rows``, in order of first
    appearance, and each row's distinct index; rows compare as raw bytes."""
    rows = np.ascontiguousarray(rows)
    key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(key, kind="stable")          # equal rows stay in index order
    ordered = key[order]                            # the one copy of the keys
    new = np.ones(len(key), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    first = order[new]
    by_first = np.argsort(first)
    return first[by_first], np.argsort(by_first)[(np.cumsum(new) - 1)[np.argsort(order)]]


def run_period(gains: np.ndarray, trial, members, scale, p: SystemParams, P=None) -> np.ndarray:
    """Serve E round-robin periods in one stacked call; return their period rates.

    Period e runs on rows gains[trial[e]] (K, M) of gains (N, K, M) with plan
    members[e] (T, K_B) and misreport multipliers scale[e] (K,); a user's
    period rate is its block rate over T. P is one transmit power or an array
    of powers (p.P when None), each applied to every period, and the rates
    are P.shape + (E, K). ``trial`` and ``members`` must be integer arrays,
    and every plan must order all K users 0..K-1, each once. A block's gains
    depend only on its member set, so each distinct (trial, sorted members)
    block is factorized once, in order of first appearance, from its part of
    the trial's Gram matrix, and every block is served in sorted member
    order: plans with the same block sets get the same bits. A guard trip's
    ``index`` becomes (trial, block within the period) and its ``period`` the
    first period served on the failing block. BLAS runs at one thread inside,
    and at the caller's count again after a return or an exception.
    """
    trial, members = np.asarray(trial), np.asarray(members)
    if not (np.issubdtype(trial.dtype, np.integer) and np.issubdtype(members.dtype, np.integer)):
        raise DimensionError(f"trial and members must be integer arrays, got {trial.dtype} "
                             f"and {members.dtype}")
    trial, members = trial.astype(np.intp, copy=False), members.astype(np.intp, copy=False)
    scale = np.asarray(scale, dtype=np.float64)
    if np.shape(gains)[1:] != (p.K, p.M):
        raise DimensionError(f"gains must be (N, {p.K}, {p.M}), got {np.shape(gains)}")
    e = trial.shape[0]
    if members.shape != (e, p.T, p.K_B) or scale.shape != (e, p.K):
        raise DimensionError(f"{e} periods need ({e}, {p.T}, {p.K_B}) members and ({e}, {p.K}) "
                             f"scales, got {members.shape} and {scale.shape}")
    if not np.array_equal(np.sort(members.reshape(e, -1), axis=1),
                          np.broadcast_to(np.arange(p.K), (e, p.K))):
        raise DimensionError("every period's members must partition the users 0..K-1")
    members = np.sort(members, axis=-1)
    # one (trial, sorted members) row per block
    first, block_of = _distinct(np.concatenate(
        [np.broadcast_to(trial[:, None, None], (e, p.T, 1)), members], axis=-1).reshape(e * p.T, -1))
    block_of = block_of.reshape(e, p.T)
    at = np.arange(e)[:, None, None]
    # each distinct block's Gram is a principal submatrix of its trial's
    users = members.reshape(-1, p.K_B)[first, :, None]
    with _single_blas_thread():     # threaded BLAS only slows the (N, K, K) Gram stack down
        gram = gains @ gains.conj().swapaxes(-1, -2)
        try:
            rates = evaluate_block(gram[trial[first // p.T, None, None], users,
                                        users.swapaxes(1, 2)], scale[at, members], block_of, p, P)
        except SingularMatrixError as err:
            if hasattr(err, "index"):
                err.period, block = divmod(int(first[err.index[0]]), p.T)
                err.index = (int(trial[err.period]), block)
                err.args = (f"block {block}:{err.args[0].partition(':')[2]}", *err.args[1:])
            raise
    out = np.zeros(rates.shape[:-3] + scale.shape)
    out[..., at, members] = rates / p.T
    return out


# one work unit: trials lo..hi - 1 of drop ``drop`` of variant ``vi`` of
# ``cfg``, at every sweep point of its _Variant ``var``; setup is the drop's _Drop
_TrialChunk = collections.namedtuple("_TrialChunk", "cfg vi var setup drop lo hi")


@functools.cache
def _numpy_openblas():
    """numpy's OpenBLAS thread-count (get, set, pool shutdown or None), or None if not found.

    Looked up once per process, and inherited by a forked one, through numpy's
    extension module: the engine calls no other BLAS, so no other build is read or set.
    """
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for pre, suf in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
        get = getattr(lib, f"{pre}get_num_threads{suf}", None)
        put = getattr(lib, f"{pre}set_num_threads{suf}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            if (stop := getattr(lib, "blas_thread_shutdown_", None)) is not None:
                stop.argtypes, stop.restype = [], ctypes.c_int
            return get, put, stop
    return None


def _numpy_blas_threads(n: int) -> int:
    """Set numpy's OpenBLAS to ``n`` threads; return its count before, ``n`` if none is found."""
    if (blas := _numpy_openblas()) is None:
        return n
    get, put, stop = blas
    before = get()
    # setting a count (re)starts OpenBLAS's thread pool, whose idle threads
    # spin for a while; shut it down as OpenBLAS does before a fork, and
    # the next threaded call re-creates it. Not safe while another thread
    # runs BLAS, as the set itself is not.
    if before != n:
        put(n)
        if stop is not None:
            stop()
    return before


@contextlib.contextmanager
def _single_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread, then restore the caller's count.

    Blocks are at most K_B x K_B, too small for BLAS threads, and every pool
    worker would add its own threads on top. Each count change also shuts
    OpenBLAS's idle pool down, so no pool thread runs during the run or after
    it until the caller's next threaded BLAS call re-creates the pool.
    """
    before = _numpy_blas_threads(1)
    try:
        yield
    finally:
        _numpy_blas_threads(before)


def _serve(send, fn, items) -> None:
    """A pool process: pin BLAS, then send ``fn`` of each of ``items`` in order, or the first
    exception raised, as (ok, value) pairs."""
    _numpy_blas_threads(1)
    for item in items:
        try:
            out = True, fn(item)
        except Exception as e:
            out = False, e
        send.send(out)
        if not out[0]:
            return


class ProcessPoolExecutor:
    """``max_workers`` processes, each with one pipe home, that serve one ``map`` call.

    ``map`` starts them at once, with the platform's default start method:
    process c runs every ``max_workers``-th item from item c on, in order,
    and the results come back in item order. A process that raises sends its
    exception and stops; one that dies raises a RuntimeError here. perfbench's
    tracer hooks this name (``POOL_HOOK``) to time the pool and bring the
    processes' spans home, so it keeps the executor's name until the run
    reports its own per-layer times.
    """

    def __init__(self, max_workers: int):
        self._n = max_workers
        self._procs, self._pipes = [], []

    def map(self, fn, items):
        """Start the processes on the sequence ``items``; return an iterator over ``fn`` of
        each, in order."""
        for c in range(self._n):
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_serve, args=(send, fn, items[c::self._n]),
                                           daemon=True)
            proc.start()
            # the process holds the one sending end: if it dies, recv raises EOFError
            send.close()
            self._procs.append(proc)
            self._pipes.append(recv)
        return self._results(len(items))

    def _results(self, n: int):
        for i in range(n):
            proc, recv = self._procs[i % self._n], self._pipes[i % self._n]
            try:
                ok, value = recv.recv()
            except (EOFError, OSError):       # the pipe closed with no result, or within one
                proc.join()
                raise RuntimeError(f"pool process {proc.pid} exited with code {proc.exitcode} "
                                   f"before sending its result") from None
            if not ok:
                raise value
            yield value

    def shutdown(self) -> None:
        """Stop every process, finished or not, and wait for it."""
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join()
        for recv in self._pipes:
            recv.close()


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A pool of ``workers - 1`` processes beside this one, or None for one worker."""
    if workers <= 1:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=workers - 1)
    try:
        yield pool
    finally:
        pool.shutdown()


def _slice_trials(p: SystemParams, profiles: int, rules) -> int:
    """Most trials per slice: as many as 1.5 MB of complex entries hold, never fewer than 8 (the
    calls of 8-trial slices). A trial holds its (K, M) gains and the larger of SUS's (K, M)
    false rows per profile and its (K, K) Gram matrix with T Gram blocks per (profile, rule)
    period: 16 fig2 trials, where a SUS step costs a fifth less per trial than at 8."""
    held = max(p.K**2 + profiles * len(rules) * p.T * p.K_B**2, ("sus" in rules) * profiles * p.K * p.M)
    return max(8, 3 * 2**19 // (16 * (p.K * p.M + held)))


def _run_chunk(u: _TrialChunk) -> np.ndarray:
    """Paired trials at every sweep point: the honest baseline plus every strategy, per rule.

    Each trial is drawn once and its magnitudes computed once; it is grouped
    once per distinct profile, and its (profile, rule) periods go through one
    run_period call per slice of trials, at every distinct power at once.
    Returns only what the cell reductions read, never every period's
    per-user rates of every trial at once:
    - homogeneous: the (trials, powers, profiles, rules) mean rate over the
      honest users of each period's profile;
    - heterogeneous: the same axes' per-user rates, K last;
    - heterogeneous, from trial 0 of a drop past drop 0: those rates added
      trial by trial in order, as one (1, powers, profiles, rules, K) row.
    """
    cfg, p, d = u.cfg, u.var.p, u.setup
    rules, means = cfg.grouping_rule, cfg.scenario == "homogeneous"
    summed = not means and u.drop > 0 and u.lo == 0
    n_prof, n_rule = len(d.scales), len(rules)
    scales, honest = d.scales.repeat(n_rule, axis=0), (d.scales == 1.0)[:, None]  # (F*R, K), (F, 1, K)
    out = np.empty((u.hi - u.lo, len(u.var.powers), n_prof, n_rule)) if means else []
    # the fewest slices the budget allows, as even as can be
    step = -(-(u.hi - u.lo) // -(-(u.hi - u.lo) // _slice_trials(p, n_prof, rules)))
    rng = RngStream(cfg.seed).generator()         # restarted at each trial's stream
    for lo in range(u.lo, u.hi, step):
        trials = range(lo, min(lo + step, u.hi))
        gains = np.stack([draw_channels(p, d.betas, RngStream(
            cfg.seed, pack_stream(0, u.vi, u.drop, t)).restart(rng)) for t in trials])  # (n, K, M)
        # only magnitude and SUS grouping read the (n, F, K) reported magnitudes
        if {"channel_magnitude", "sus"} & set(rules):
            reported = apply_misreport(channel_magnitudes(gains), d.scales)
        # every rule's plan of each trial under each profile. The large-scale
        # plans are fixed per drop and broadcast over the trials; a trial's
        # random plan is broadcast over its profiles
        members = np.empty((len(trials), n_prof, n_rule, p.T, p.K_B), dtype=np.intp)
        for r, rule in enumerate(rules):
            if rule == "large_scale":
                members[:, :, r] = d.ls_plans
            elif rule == "channel_magnitude":
                members[:, :, r] = scheduling.group_by_magnitude(reported, p)
            elif rule == "sus":
                members[:, :, r] = scheduling.group_by_sus(reported, gains[:, None], d.scales, p,
                                                           cfg.sus_alpha)
            else:
                for n, t in enumerate(trials):
                    RngStream(cfg.seed, pack_stream(1, u.vi, u.drop, t)).restart(rng)
                    members[n, :, r] = scheduling.group_randomly(p, rng)
        # periods run trial by trial, then profile by profile, then rule by rule
        try:
            rates = run_period(gains, np.repeat(np.arange(len(trials)), n_prof * n_rule),
                               members.reshape(-1, p.T, p.K_B),
                               np.tile(scales, (len(trials), 1)), p, u.var.powers)
        except SingularMatrixError as e:
            # the same object, re-raised: a failure is still counted once. One
            # raised outside the guard carries no period, so name the slice
            if hasattr(e, "period"):
                n, f = divmod(e.period // n_rule, n_prof)
                where = f"trial {trials[n]}"
                point = f"sweep point {u.var.points[np.argmax((d.profile == f).any(axis=1))]}"
            else:
                where = f"trials {lo}-{trials[-1]}"
                point = f"sweep points {', '.join(map(str, u.var.points))}"
            e.args += (f"variant {u.vi}, drop {u.drop}, {where}", point)
            raise
        rates = rates.reshape(len(u.var.powers), len(trials), n_prof, n_rule, p.K).swapaxes(0, 1)
        if means:
            # one fixed-order sum over all K users, whatever the slice holds
            with np.errstate(invalid="ignore"):
                out[lo - u.lo:trials[-1] + 1 - u.lo] = (np.where(honest, rates, 0.0).sum(axis=-1)
                                                        / honest.sum(axis=-1))
        elif summed:
            out = [functools.reduce(np.add, rates, *out)]     # trial by trial, in order
        else:
            out.extend(rates)
    return out if means else np.stack(out)


def run_cell(cfg: ExperimentConfig, sweep_value, workers: int = 1) -> list:
    """Run every variant, rule, and strategy of ``cfg`` at one sweep point, as ``run_experiment``."""
    return run_experiment(replace(cfg, sweep_values=(sweep_value,)), workers)


# the run plan of one layout variant: its params, the suffix of its row
# names, and its sweep values; sweep point j runs at powers[power[j]], the
# variant's distinct transmit powers, with counts[j] misreporters
_Variant = collections.namedtuple("_Variant", "p suffix points powers power counts")


def _variants(cfg: ExperimentConfig) -> list:
    """The ``_Variant`` of each layout of ``cfg``, every one checked before any set-up."""
    # every heterogeneous attack demotes or promotes at least one user
    lo = int(cfg.scenario == "heterogeneous" and set(cfg.strategy) != {"none"})
    out = []
    for variant in cfg.variants:
        given = _from_json(SystemParams, variant or {})
        if cfg.sweep == "P_dB" and "P" in given:
            raise ConfigError(f"a variant's P={given['P']} conflicts with the P_dB sweep")
        if {"T", "K_B"} & set(given) and "K" not in given:
            given["K"] = given.get("T", cfg.params.T) * given.get("K_B", cfg.params.K_B)
        p = replace(cfg.params, **given)
        at = [replace(p, P=db_to_linear(v)) if cfg.sweep == "P_dB" else p for v in cfg.sweep_values]
        counts = [int(v) if cfg.sweep == "K_M" else cfg.K_M for v in cfg.sweep_values]
        for k_m in counts:
            if not lo <= k_m <= p.K:
                raise CountError(f"K_M={k_m} out of range [{lo}, {p.K}]")
        suffix = ("" if len(cfg.variants) == 1 else f"__{variant['label']}"
                  if variant and "label" in variant else f"__T{p.T}_KB{p.K_B}")
        out.append(_Variant(p, suffix, cfg.sweep_values,
                            *np.unique([q.P for q in at], return_inverse=True),
                            np.array(counts, dtype=np.intp)))
    if len({var.suffix for var in out}) < len(out):
        raise ConfigError(f"variants repeat a row suffix: {[var.suffix for var in out]}")
    k = max(var.p.K for var in out)
    if not all(1 <= u <= k for u in cfg.track_users or ()):
        raise ConfigError(f"each track_users rank must lie in [1, K], K={k} in the widest "
                          f"variant, got {cfg.track_users}")
    return out


# the set-up of one drop of one variant, shared by all its sweep points, as
# row slices of its variant's set-up arrays. scales are the (F, K) multipliers
# of the distinct misreport profiles of every sweep point, equal scale and
# reported gains counting as one, in order of first appearance over (sweep
# point, honest then strategies); ls_plans are their (F, T, K_B) large-scale
# plans, or None. profile[j] holds sweep point j's honest profile, then each strategy's
_Drop = collections.namedtuple("_Drop", "betas scales ls_plans profile")


def _drops(cfg, vi, var) -> list:
    """The ``_Drop`` of each drop of variant ``vi``, whose plan is ``var``: one call per strategy
    kernel, distinct search and large-scale grouping over the (D, K) stack of the drops' gains."""
    p, counts = var.p, var.counts
    if cfg.scenario == "homogeneous":
        betas = np.full((1, p.K), p.beta_default)
    else:
        rng = RngStream(cfg.seed).generator()
        betas = np.stack([draw_large_scale(p, cfg.large_scale, RngStream(
            cfg.seed, pack_stream(2, vi, drop, 0)).restart(rng)) for drop in range(cfg.drops)])
    low, high = cfg.beta_low_factor * betas[:, -1], cfg.beta_high_factor * betas[:, 0]
    # each strategy's (scale, reported) rows of every drop at every sweep point's K_M
    build = {
        "none": lambda: strategies.honest_profile(betas, counts),
        "homogeneous_uniform": lambda: strategies.homogeneous_uniform(p, counts, cfg.delta),
        "grouping_changed_under": lambda: strategies.grouping_changed_under(betas, counts, low),
        "grouping_changed_over": lambda: strategies.grouping_changed_over(betas, counts, high),
        "grouping_unchanged_under": lambda: strategies.grouping_unchanged_under(
            betas, p, counts, low),
    }
    # a (drops, points, 1 + strategies) row per profile: its drop, scales and reports.
    # Drop d's distinct rows are numbered from index[d, 0] on, in order of first appearance
    rows = np.empty((len(betas), len(counts), 1 + len(cfg.strategy), 1 + 2 * p.K))
    rows[..., 0] = np.arange(len(betas))[:, None, None]
    for i, tag in enumerate(("none", *cfg.strategy)):
        rows[:, :, i, 1:p.K + 1], rows[:, :, i, p.K + 1:] = build[tag]()
    first, index = _distinct(rows.reshape(-1, 1 + 2 * p.K))
    index = index.reshape(len(betas), -1)
    scales, reported = rows.reshape(-1, 1 + 2 * p.K)[first, 1:].reshape(-1, 2, p.K).swapaxes(0, 1)
    ls_plans = None
    if "large_scale" in cfg.grouping_rule:
        ls_plans = scheduling.group_by_large_scale(reported, p)
    return [_Drop(b, scales[i[0]:hi], None if ls_plans is None else ls_plans[i[0]:hi],
                  (i - i[0]).reshape(rows.shape[1:3]))
            for b, i, hi in zip(betas, index, [*index[1:, 0], len(first)])]


def _run(cfg, variants, workers, pool) -> list:
    """The rows of each of ``variants``: one stream of every trial chunk of every variant.

    A unit covers one drop of one variant at every sweep point and carries that
    drop's ``_Drop``, so each trial is drawn, grouped and factorized once per run.
    Without a pool each variant is set up in one whole-array pass as the stream
    reaches it. With one, every variant is set up before the pool starts; unit i
    runs here when i mod workers is 0, and in the pool's process
    (i mod workers) - 1 otherwise. Results are reduced variant by variant in
    unit order, each in one whole-array pass here, so they do not depend on the
    pool; rows come out sweep point by point.
    """
    per_variant = cfg.drops if cfg.scenario == "heterogeneous" else 1
    n_drops = len(variants) * per_variant
    # one unit per drop; a run of fewer than 4 drops per worker splits the drops
    pieces = 1 if pool is None else -(-4 * workers // n_drops)
    step = -(-cfg.trials // pieces)
    bounds = [(lo, min(lo + step, cfg.trials)) for lo in range(0, cfg.trials, step)]
    setups = collections.deque()        # the drops of each variant reached, until reduced

    def units():
        for vi, var in enumerate(variants):
            setups.append(_drops(cfg, vi, var))
            for drop, d in enumerate(setups[-1]):
                for lo, hi in bounds:
                    yield _TrialChunk(cfg, vi, var, d, drop, lo, hi)

    if pool is None:
        chunks = map(_run_chunk, units())
    else:
        todo = list(units())
        theirs = pool.map(_run_chunk, [u for i, u in enumerate(todo) if i % workers])
        # this process's own units never pass through the pool
        chunks = (next(theirs) if i % workers else _run_chunk(u) for i, u in enumerate(todo))
    rows = {}
    for vi, var in enumerate(variants):
        # each drop's rows: per-trial rates or means, or a sum of its first
        # trials followed by the rates of the rest
        results = [np.concatenate([next(chunks) for _ in bounds]) for _ in range(per_variant)]
        for j, cell in enumerate(_variant_rows(cfg, var, setups.popleft(), results)):
            rows[j, vi] = cell
    return [row for key in sorted(rows) for row in rows[key]]


def _loss(att, base):
    """The honest users' rate loss 1 - R_attacked / R_honest that every figure plots."""
    return 1.0 - att / base


def _mean_std_ci(values: np.ndarray) -> tuple:
    """Mean, sample std s and 95 % half-width 1.96 s / sqrt(n) of the n ``values`` along axis 0,
    each column one pairwise sum of a contiguous copy, values last. s and the half-width are 0
    below two values, and in a column that holds a non-finite value."""
    cols = np.moveaxis(values, 0, -1).copy()
    n = cols.shape[-1]
    s = np.zeros(cols.shape[:-1])
    if n > 1:
        s = np.where(np.isfinite(cols).all(axis=-1), cols.std(axis=-1, ddof=1), s)
    return cols.mean(axis=-1), s, 1.96 * s / math.sqrt(n)


def _variant_rows(cfg, var, drops, results):
    """Yield the rows of each sweep point of the variant ``var``, from its ``drops`` and units.

    ``results`` holds each drop's unit results, trials first: the honest
    means of the one homogeneous drop, or a heterogeneous drop's per-user
    rates (K last), trial by trial for drop 0 and otherwise summed over its
    first trials. theta and per_user_loss[u] spread over the trials of drop 0,
    avg_honest_loss and the _drops rows over drops, all read off whole arrays.
    """
    het = cfg.scenario == "heterogeneous"
    tracked = (range(1, var.p.K + 1) if cfg.track_users is None
               else [u for u in cfg.track_users if u <= var.p.K])
    users = np.array(tracked, dtype=np.intp) - 1
    # drop 0's (trials, points, 1 + strategies, rules[, tracked users]) baseline and attacked runs
    trial = np.ascontiguousarray((results[0][..., users] if het else results[0])[
        :, var.power[:, None], drops[0].profile])
    paired, std, ci = _mean_std_ci(_loss(trial[:, :, 1:], trial[:, :, :1]))
    if not het:
        mean = _mean_std_ci(trial)[0]
        theta = _loss(mean[:, 1:], mean[:, :1])
    else:
        # every drop's (points, 1 + strategies) profiles, numbered drop after drop
        offset = np.cumsum([0] + [len(d.scales) for d in drops[:-1]])
        profile = np.stack([d.profile for d in drops]) + offset[:, None, None]
        honest = np.concatenate([d.scales for d in drops])[profile[:, :, 1:]] == 1.0
        # each drop's rates summed row by row, as numpy sums a contiguous array's
        # leading axis; past drop 0 every drop returns as many rows: one array
        summed = [results[0].sum(axis=0)]
        if len(drops) > 1:
            summed.append(np.concatenate(results[1:], axis=2).sum(axis=0))
        total = np.concatenate(summed, axis=1)[var.power[:, None], profile]
        att, base = total[:, :, 1:], np.broadcast_to(total[:, :, :1], total[:, :, 1:].shape)
        # loss of the honest users' average rate, not the average of per-user loss
        # ratios: strong users carry their rate weight. Rows with c honest users sum
        # as one (rows, c) array, as one row's masked sum would; with none, 0 / 0 = NaN
        h = np.broadcast_to(honest[..., None, :], att.shape)
        count, sums = h.sum(axis=-1), np.zeros((2,) + att.shape[:-1])
        for c in np.flatnonzero(np.bincount(count.ravel())[1:]) + 1:
            for s, rates in zip(sums, (att, base)):
                s[count == c] = rates[h & (count == c)[..., None]].reshape(-1, c).sum(axis=-1)
        with np.errstate(invalid="ignore"):
            avg = _mean_std_ci(_loss(*sums))
        drop_user = _mean_std_ci(user := _loss(att[..., users], base[..., users]))
    for j, v in enumerate(var.points):
        rows = []

        def row(name, mean, std, ci, trials=cfg.trials, drops=1):
            rows.append(ResultRow(cfg.label, cfg.sweep, float(v), name, float(mean), float(std),
                                  float(ci), trials, drops, cfg.seed))

        for ri, rule in enumerate(cfg.grouping_rule):
            short = RULE_SHORT[rule]
            for si, tag in enumerate(cfg.strategy):
                tail = (f"__{tag}" if len(cfg.strategy) > 1 else "") + var.suffix
                at = (j, si, ri)
                if not het:
                    row(f"theta_{short}{tail}", theta[at], std[at], ci[at])
                    row(f"theta_{short}_paired{tail}", paired[at], std[at], ci[at])
                    continue
                row(f"avg_honest_loss_{short}{tail}", *(a[at] for a in avg), drops=cfg.drops)
                for k, u in enumerate(tracked):
                    at_u = (*at, k)
                    row(f"per_user_loss_{short}{tail}[{u}]", user[(0, *at_u)], std[at_u], ci[at_u])
                    row(f"per_user_loss_{short}{tail}_drops[{u}]", *(a[at_u] for a in drop_user),
                        drops=cfg.drops)
        # eq17 and eq21 cover K_M <= K_B underreporters only
        if "homogeneous_uniform" in cfg.strategy and cfg.delta <= 1:
            p, k_m = replace(var.p, P=var.powers[var.power[j]]), int(var.counts[j])
            for name, loss, k_lo in (("analytic_eq17", analytic.loss_rr_cm, 0),
                                     ("upper_bound_eq21", analytic.loss_upper_bound, 1)):
                if k_lo <= k_m <= p.K_B:
                    row(f"{name}{var.suffix}", loss(p, k_m, cfg.delta, p.beta_default), 0.0, 0.0,
                        trials=0)
        yield rows


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """Run every sweep point and return the full, deterministically ordered rows.

    With ``workers > 1`` this process and ``workers - 1`` pool processes
    share the whole run. numpy's OpenBLAS runs single-threaded in this
    process and in every pool process; the caller's thread count is
    restored, and the pool's processes are stopped, on return and on an
    exception.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    variants = _variants(cfg)
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


# the flat keys of a JSON config: every field of the three dataclasses but the
# two built from the others, plus the dB forms of P and delta
_CONFIG_KEYS = (frozenset(f.name for cls in (SystemParams, LargeScaleModel, ExperimentConfig)
                          for f in fields(cls)) - {"params", "large_scale"} | {"P_dB", "delta_dB"})


def _json_real(name: str, v) -> float:
    """A float-kind JSON value: a number, or a string such as "inf" that JSON cannot spell."""
    if isinstance(v, str):
        with contextlib.suppress(ValueError):
            v = float(v)
    return _real(name, v)


def _from_json(cls, d: dict) -> dict:
    """The fields of ``cls`` that ``d`` gives, int-kind ones as ints and float-kind ones as floats."""
    kinds = {"int": _integer, "float": _json_real}
    return {f.name: kinds[f.type](f.name, d[f.name]) if f.type in kinds else d[f.name]
            for f in fields(cls) if f.name in d}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat JSON-style mapping.

    Its keys, their kinds and their defaults are the fields of SystemParams,
    LargeScaleModel and ExperimentConfig. Only M 64, T 4, K_B 8, K = T * K_B
    and the heterogeneous scenario's strategy, drop count and cell model are
    defaults of JSON alone. dB-suffixed keys (P_dB, delta_dB) are converted
    to linear here, at the boundary; everything downstream is linear.
    """
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(d) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    d = dict(d)
    for name in ("P", "delta"):
        if name in d and f"{name}_dB" in d:
            raise ConfigError(f"give {name} or {name}_dB, not both")
        if f"{name}_dB" in d:
            d[name] = db_to_linear(_json_real(f"{name}_dB", d.pop(f"{name}_dB")))
    p = {"M": 64, "T": 4, "K_B": 8, **_from_json(SystemParams, d)}
    params = SystemParams(**{"K": p["T"] * p["K_B"], **p})
    het = {}
    if d.get("scenario") == "heterogeneous":
        het = {"strategy": "grouping_changed_under", "drops": 200,
               "large_scale": LargeScaleModel(**_from_json(LargeScaleModel, d))}
    elif cell := sorted(f.name for f in fields(LargeScaleModel) if f.name in d):
        raise ConfigError(f"{', '.join(cell)} apply to the heterogeneous scenario only")
    return ExperimentConfig(params=params, **{**het, **_from_json(ExperimentConfig, d)})
