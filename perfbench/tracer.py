"""Per-layer timing of mimosched, measured from outside the package.

``Tracer`` replaces the module attributes the engine calls through with
timing wrappers and puts the originals back on exit; nothing under ``src/``
knows it is being traced. Each wrapper records one span: calls, total
seconds, and self seconds (total minus the time covered by nested spans).
A hook whose attribute is missing is reported as absent, and every metric
that needs it reads ``None`` instead of zero.

Pool workers forked while a tracer is active inherit its wrappers. Each
batch the engine maps onto the pool returns its worker-side spans with its
result, and the parent adds them in; layer seconds of a ``workers > 1`` run
are therefore summed over workers running in parallel. Workers started by
spawn or forkserver import a clean package and report nothing.
"""
from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

# span name -> (module, attribute). experiments.* names are the ones the
# engine resolves at call time inside mimosched.experiments, so wrapping
# them there catches every call the engine makes.
HOOKS = {
    "experiments.cell": ("mimosched.experiments", "run_cell"),
    "experiments.period": ("mimosched.experiments", "run_period"),
    "zf.block": ("mimosched.experiments", "evaluate_block"),
    "zf.gains": ("mimosched.zf", "zf_effective_gains"),
    "zf.power": ("mimosched.zf", "maxmin_power"),
    "scheduling.sus": ("mimosched.scheduling", "group_by_sus"),
    "scheduling.cm": ("mimosched.scheduling", "group_by_magnitude"),
    "scheduling.rand": ("mimosched.scheduling", "group_randomly"),
    "scheduling.ls": ("mimosched.scheduling", "group_by_large_scale"),
    "channel.draw": ("mimosched.experiments", "draw_channels"),
    "channel.large_scale": ("mimosched.experiments", "draw_large_scale"),
    "channel.misreport": ("mimosched.experiments", "apply_misreport"),
    "analytic.eq17": ("mimosched.analytic", "loss_rr_cm"),
    "analytic.eq21": ("mimosched.analytic", "loss_upper_bound"),
}
POOL_HOOK = ("mimosched.experiments", "ProcessPoolExecutor")
GUARD_ERROR = ("mimosched.core", "SingularMatrixError")

# per-layer metric -> (span, field); field is calls, total or self
_SPAN_METRICS = {
    "scheduling.sus_s": ("scheduling.sus", "total"),
    "scheduling.sus_calls": ("scheduling.sus", "calls"),
    "scheduling.cm_s": ("scheduling.cm", "total"),
    "scheduling.rand_s": ("scheduling.rand", "total"),
    "scheduling.ls_s": ("scheduling.ls", "total"),
    "zf.gains_s": ("zf.gains", "total"),
    "zf.gains_calls": ("zf.gains", "calls"),
    "zf.block_calls": ("zf.block", "calls"),
    "zf.block_self_s": ("zf.block", "self"),
    "zf.power_s": ("zf.power", "total"),
    "channel.draw_s": ("channel.draw", "total"),
    "channel.large_scale_s": ("channel.large_scale", "total"),
    "channel.misreport_s": ("channel.misreport", "total"),
    "channel.misreport_calls": ("channel.misreport", "calls"),
    "analytic.eq17_s": ("analytic.eq17", "total"),
    "analytic.eq21_s": ("analytic.eq21", "total"),
    "experiments.cell_self_s": ("experiments.cell", "self"),
    "experiments.period_self_s": ("experiments.period", "self"),
    "experiments.pool_spawn_s": ("experiments.pool_spawn", "total"),
    "experiments.pool_shutdown_s": ("experiments.pool_shutdown", "total"),
}
_FIELD = {"calls": 0, "total": 1, "self": 2}


# The tracer that is active in this process. A forked pool worker finds its
# inherited copy here; a spawned one finds None.
_active = None


def _traced_batch(fn, *args):
    """Run one pool batch in a worker; return (result, the batch's spans)."""
    t = _active
    if t is None:
        return fn(*args), None
    t._take()                  # drop state inherited from the parent at fork
    result = fn(*args)
    return result, t._take()


def _resolve(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Context manager that times mimosched's layers while it is active.

    One tracer may be active per process at a time.
    """

    def __init__(self) -> None:
        self.spans = {}            # span -> [calls, total_s, self_s]
        self.absent = set()        # spans whose hook could not be installed
        self.gram_flop = 0         # computed real flops of the Gram builds
        self.guard_trips = 0
        self.pool_spawns = 0
        self.pool_batches = 0
        self._stack = []           # child seconds of each open span
        self._saved = []           # (module, attr, original) to restore
        self._guard = _resolve(*GUARD_ERROR)

    # -- install / uninstall -------------------------------------------
    def __enter__(self) -> "Tracer":
        global _active
        if _active is not None:
            raise RuntimeError("another Tracer is already active")
        _active = self
        for span, (module, attr) in HOOKS.items():
            fn = _resolve(module, attr)
            if fn is None:
                self.absent.add(span)
                continue
            self._patch(module, attr, self._wrap(span, fn))
        pool_cls = _resolve(*POOL_HOOK)
        if pool_cls is None:
            self.absent.update(("experiments.pool_spawn", "experiments.pool_shutdown"))
        else:
            self._patch(*POOL_HOOK, self._traced_pool(pool_cls))
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module: str, attr: str, replacement) -> None:
        mod = importlib.import_module(module)
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    # -- spans ----------------------------------------------------------
    def _take(self):
        """Return and reset the worker-mergeable state."""
        state = (self.spans, self.gram_flop, self.guard_trips)
        self.spans, self.gram_flop, self.guard_trips = {}, 0, 0
        self._stack = []
        return state

    def _merge(self, state) -> None:
        spans, gram_flop, guard_trips = state
        for span, (calls, total, own) in spans.items():
            stat = self.spans.setdefault(span, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        self.gram_flop += gram_flop
        self.guard_trips += guard_trips

    def _timed(self, span: str, fn, args, kwargs):
        stat = self.spans.setdefault(span, [0, 0.0, 0.0])
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as e:
            # count a guard trip once per process it passes through: a
            # worker's count is lost with its batch, so the parent recounts
            if (self._guard is not None and isinstance(e, self._guard)
                    and getattr(e, "_perfbench_pid", None) != os.getpid()):
                e._perfbench_pid = os.getpid()
                self.guard_trips += 1
            raise
        finally:
            dt = perf_counter() - t0
            child = self._stack.pop()
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - child
            if self._stack:
                self._stack[-1] += dt

    def _wrap(self, span: str, fn):
        tracer = self
        gram = span == "zf.gains"

        def traced(*args, **kwargs):
            if gram and args:
                kb, m = getattr(args[0], "shape", (0, 0))[-2:]
                # complex (K_B x M)(M x K_B): K_B^2 M complex multiply-adds,
                # 8 real flops each
                tracer.gram_flop += 8 * kb * kb * m
            return tracer._timed(span, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pool_spawns += 1
                tracer._timed("experiments.pool_spawn",
                              super().__init__, args, kwargs)

            def submit(self, fn, /, *args, **kwargs):
                tracer.pool_batches += 1
                return super().submit(fn, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                # map submits every item at once; with the fork start method
                # the first submit starts all worker processes
                results = tracer._timed(
                    "experiments.pool_spawn", super().map,
                    (functools.partial(_traced_batch, fn), *iterables), kwargs)
                return tracer._unpack(results)

            def shutdown(self, *args, **kwargs):
                return tracer._timed("experiments.pool_shutdown",
                                     super().shutdown, args, kwargs)

        TracedPool.__wrapped__ = base
        return TracedPool

    def _unpack(self, results):
        for result, state in results:
            if state is not None:
                self._merge(state)
            yield result

    # -- results --------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (one pass)."""
        out = {}
        for name, (span, field) in _SPAN_METRICS.items():
            if span in self.absent:
                out[name] = None
            else:
                out[name] = self.spans.get(span, [0, 0.0, 0.0])[_FIELD[field]]
        gains, blocks = out["zf.gains_calls"], out["zf.block_calls"]
        out["zf.factorizations_per_block"] = (
            gains / blocks if gains is not None and blocks else None)
        out["zf.gram_gflop"] = None if "zf.gains" in self.absent else self.gram_flop / 1e9
        out["zf.guard_trips"] = None if self._guard is None else self.guard_trips
        pool_absent = "experiments.pool_spawn" in self.absent
        out["experiments.pool_spawns"] = None if pool_absent else self.pool_spawns
        out["experiments.pool_batches"] = None if pool_absent else self.pool_batches
        return out
