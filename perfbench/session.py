"""One benchmark session: import once, then fork one child per pass.

    python3 perfbench/session.py --workload hom_sweep --seed 42 --seconds 24 --trace 0
    python3 perfbench/session.py --workload hom_sweep --seed 42 --setup-only

A fresh interpreter imports the package from the ``src/`` directory next to
this benchmark (and from nowhere else), builds the workload's config and
notes the monotonic time (``ready``): the set-up a ``mimosched run`` pays.
With ``--setup-only`` it stops there. Otherwise it forks one child per pass.
Each child is a copy of that freshly imported state, so every pass starts
with the caches a new ``mimosched run`` starts with (notably the eq17
quadrature cache) and pays no import time. A child runs one
``run_experiment`` + ``emit_csv`` and sends back its wall and CPU seconds,
peak RSS, CSV and, when traced, its per-layer metrics. An untraced pass of
a workload in ``workloads.SPEED_PROBED`` runs under perfbench/probe.py's
speed probe; its seconds exclude the probe's and it sends the probe's
samples along.

When the workload's timed passes use more than one worker, a first untimed
pass at ``workers=1`` is the in-run reference for the byte-identical-across-
workers check. Timed passes follow back to back until ``--seconds`` is used
up, at least ``--min-passes``; with ``--trace 1`` untraced and traced passes
alternate. One JSON object goes to stdout at the end.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (the benchmark's own modules, next to this file)
from probe import SpeedProbe  # noqa: E402


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _openblas_libs() -> list:
    """Every OpenBLAS loaded in this process, with its live thread count.

    numpy and scipy each bundle their own scipy_openblas build, with
    different symbol suffixes; both are read through ctypes.
    """
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in paths:
                paths.append(path)
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, stem, restype in (("threads", "get_num_threads", ctypes.c_int),
                                   ("config", "get_config", ctypes.c_char_p),
                                   ("corename", "get_corename", ctypes.c_char_p)):
            names = [pre + stem + suf for pre in ("scipy_openblas_", "openblas_")
                     for suf in ("64_", "")]
            fn = next((f for f in (getattr(lib, n, None) for n in names) if f), None)
            if fn is None:
                info[key] = None
                continue
            fn.argtypes = []
            fn.restype = restype
            value = fn()
            info[key] = value.decode() if isinstance(value, bytes) else value
        libs.append(info)
    return libs


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_libs(),
    }


def _pass(cfg, workers: int, trace: bool, probed: bool) -> dict:
    """Body of one forked pass; a traced pass is never probed."""
    from mimosched import SimulationError, emit_csv, run_experiment

    rec = {"workers": workers, "trace": trace, "csv": None, "error": None}
    if trace:
        from tracer import Tracer
        around = Tracer()
    elif probed:
        around = SpeedProbe()
    else:
        around = contextlib.nullcontext()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with around:
            rows = run_experiment(cfg, workers=workers)
        buf = io.StringIO()
        emit_csv(rows, buf)
        rec["csv"] = buf.getvalue()
    except SimulationError as e:
        rec["error"] = f"{type(e).__name__}: {e}"
    rec["wall_s"] = time.perf_counter() - t0
    rec["cpu_s"] = _cpu_s() - cpu0
    rec["peak_rss_kb"] = _peak_rss_kb()
    if trace:
        rec["layers"] = around.metrics()
    elif probed:
        rec["wall_s"] -= sum(around.wall)
        rec["cpu_s"] -= sum(around.cpu)
        rec["probe_s"] = around.wall
        rec["probe_cpu_s"] = around.cpu
    return rec


def fork_pass(cfg, workers: int, trace: bool, probed: bool = False) -> dict:
    """Run one pass in a forked child and return its record.

    The child stays in this process group, so whoever started the session
    can stop it, and any pool workers, with one signal.
    """
    rfd, wfd = os.pipe()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        # the child must never return into the session's own code
        status = 1
        try:
            os.close(rfd)
            data = json.dumps(_pass(cfg, workers, trace, probed)).encode()
            with os.fdopen(wfd, "wb") as out:
                out.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"pass child exited with status {status}")
    rec = json.loads(data)
    rec["elapsed_s"] = time.perf_counter() - started
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=3)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=None,
                    help="override the workload's worker count")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import mimosched

    if not Path(mimosched.__file__).resolve().is_relative_to(SRC):
        print(f"mimosched imported from {mimosched.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cfg, workers = workloads.build(args.workload, args.seed)
    if args.workers is not None:
        workers = args.workers
    out = {"ready": time.monotonic(), "paired_trials": workloads.paired_trials(cfg)}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    out["env"] = _environment()
    out["reference_pass"] = fork_pass(cfg, 1, False) if workers != 1 else None
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        trace = bool(args.trace) and len(passes) % 2 == 1
        passes.append(fork_pass(cfg, workers, trace, args.workload in workloads.SPEED_PROBED))
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= args.min_passes and time.perf_counter() + typical > deadline:
            break
    out["passes"] = passes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
