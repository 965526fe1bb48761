"""mimosched benchmark: one workload, closed loop, one pass at a time.

    python3 perfbench/run.py --workload hom_sweep --seed 42 --seconds 24 --trace 0

A pass is one ``run_experiment`` + ``emit_csv`` call. perfbench/session.py
imports the package once in a fresh interpreter and forks one child per
pass, so every pass starts from the state a new ``mimosched run`` starts
from. Set-up (fresh interpreter to first ``run_experiment``) is sampled by
that session and by a few set-up-only interpreters started before it.

Every CSV is checked per cell (sweep point) against the stored reference
for the seed, within rtol 1e-12; for a seed without one, against the
README invariants (header, sorted rows, the same metrics and row count as
the default-seed reference, finite values where it has them,
seed-independent analytic rows).
Every pass must also emit the same bytes as the run's first pass, which for
``het_pool`` is an extra untimed ``workers=1`` pass: the byte-identical-
across-workers contract.

On the Python-bound workloads (``workloads.SPEED_PROBED``) the pass seconds
behind ``trials_per_s`` and ``cpu_s_per_trial`` are scaled to a reference
interpreter speed measured during the pass (perfbench/probe.py); the
unscaled figures are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. Human-readable
lines and an environment record come first; the last stdout line is the
JSON result. BLAS threading is left as the user would have it and recorded.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads  # noqa: E402

RTOL = 1e-12
SETUP_PROBES = 3
RUN_BUDGET_S = 170.0
CSV_HEADER = "scenario,sweep,sweep_value,metric,mean,std,ci95,trials,drops,seed"
_KEY_COLS = (0, 1, 2, 3, 7, 8)        # every column but the values and the seed
_VALUE_COLS = (4, 5, 6)

END_TO_END_UNITS = {"trials_per_s": "1/s", "cpu_s_per_trial": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class SessionFailed(RuntimeError):
    """A session crashed or timed out; the run cannot give a result."""


def session(workload: str, seed: int, *args: str, timeout: float) -> dict:
    """Run perfbench/session.py and return its record, with ``setup_s`` added."""
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SessionFailed(f"{workload} session timed out after {timeout:.0f} s") from None
    finally:
        # the session, its pass children and their pool workers share one
        # process group: stop whatever is left of it on every way out
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise SessionFailed(f"{workload} session exited {proc.returncode}:\n{err[-2000:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - spawned
    return rec


# -- correctness ---------------------------------------------------------
def _reference_text(workload: str, seed: int):
    path = REFERENCE / workload / f"seed{seed}.csv"
    return path.read_text() if path.is_file() else None


def _numbers_parse(row) -> bool:
    try:
        for i in (2, *_VALUE_COLS):
            float(row[i])
    except ValueError:
        return False
    return True


def _cells(text: str) -> dict:
    """sweep_value -> list of parsed rows, or None if the CSV is malformed.

    Malformed means a wrong header, a row without ten fields or a number
    that does not parse, or rows not sorted by (sweep value, metric).
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    rows = list(csv.reader(lines[1:]))
    if any(len(r) != 10 or not _numbers_parse(r) for r in rows):
        return None
    order = [(float(r[2]), r[3]) for r in rows]
    if order != sorted(order):
        return None
    cells = {}
    for r in rows:
        cells.setdefault(r[2], []).append(r)
    return cells


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if x == y:
        return True
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


def _row_ok(got, want, seed: int, exact_reference: bool) -> bool:
    if any(got[i] != want[i] for i in _KEY_COLS) or got[9] != str(seed):
        return False
    if exact_reference or want[7] == "0":
        # stored reference for this seed, or an analytic row (trials 0),
        # which no seed changes
        return all(_close(got[i], want[i]) for i in _VALUE_COLS)
    # finite wherever the default-seed reference is: a layout whose users
    # all misreport has no honest users and a NaN loss at every seed
    return all(math.isfinite(float(got[i])) == math.isfinite(float(want[i]))
               for i in _VALUE_COLS)


def failed_cells(rec: dict, workload: str, seed: int, in_run_reference) -> tuple:
    """(failed cell count, attempted cell count) of one pass."""
    stored = _reference_text(workload, seed)
    exact = stored is not None
    want = _cells(stored if exact else _reference_text(workload, workloads.DEFAULT_SEED))
    if rec["csv"] is None:
        return len(want), len(want)
    got = _cells(rec["csv"])
    if got is None:
        return len(want), len(want)
    same = _cells(in_run_reference) if in_run_reference is not None else None
    failed = 0
    for cell in set(want) | set(got):
        g, w = got.get(cell, []), want.get(cell, [])
        ok = (len(g) == len(w)
              and all(_row_ok(a, b, seed, exact) for a, b in zip(g, w))
              and (same is None or same.get(cell) == g))
        failed += not ok
    return failed, len(set(want) | set(got))


# -- environment ---------------------------------------------------------
def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


# -- metrics ---------------------------------------------------------------
def speed_scale(p: dict, probe_clock: str = "probe_s") -> float:
    """Factor that brings a pass's seconds to the probe's reference speed.

    ``probe_clock`` is ``probe_s`` (the probe's wall seconds) to scale wall
    time, or ``probe_cpu_s`` (its CPU seconds) to scale CPU time: on
    ``het_pool`` the pass's own pool workers delay the probe's wall clock
    but not its CPU clock. 1 for a pass that was not probed (see
    perfbench/probe.py).
    """
    if probe_clock not in p:
        return 1.0
    return probe.REF_S / statistics.fmean(p[probe_clock])


def end_to_end(passes: list, paired_trials: int, setups: list) -> dict:
    return {
        "trials_per_s": statistics.median(paired_trials / (p["wall_s"] * speed_scale(p))
                                          for p in passes),
        "cpu_s_per_trial": statistics.median(
            p["cpu_s"] * speed_scale(p, "probe_cpu_s") / paired_trials for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024.0 for p in passes),
    }


def per_layer(passes: list, names: list) -> dict:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (statistics.median(p["wall_s"] for p in traced)
                         - statistics.median(p["wall_s"] for p in plain))
            continue
        values = [p["layers"][name] for p in traced]
        out[name] = None if None in values else statistics.median(values)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed length of the run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so session() stops the session it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mimosched" / "__init__.py").is_file():
        print(f"no mimosched package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    started = time.monotonic()
    env = environment()

    def budget() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    try:
        setups = [session(args.workload, args.seed, "--setup-only", timeout=budget())["setup_s"]
                  for _ in range(SETUP_PROBES)]
        rec = session(args.workload, args.seed, "--seconds", str(seconds),
                      "--trace", str(args.trace), timeout=budget())
    except SessionFailed as e:
        print(e, file=sys.stderr)
        return 1
    setups.append(rec["setup_s"])
    env.update(rec["env"])
    passes = rec["passes"]
    checked = ([rec["reference_pass"]] if rec["reference_pass"] else []) + passes
    attempted = failed = 0
    for p in checked:
        f, a = failed_cells(p, args.workload, args.seed,
                            None if p is checked[0] else checked[0]["csv"])
        failed += f
        attempted += a
    stored = _reference_text(args.workload, args.seed)
    hashes = sorted({hashlib.sha256(p["csv"].encode()).hexdigest()
                     for p in checked if p["csv"] is not None})
    errors = sorted({p["error"] for p in checked if p["error"]})

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(passes, list(units))
    else:
        units = END_TO_END_UNITS
        values = end_to_end(passes, rec["paired_trials"], setups)
    traced = sum(p["trace"] for p in passes)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} timed passes ({traced} traced) at workers {passes[0]['workers']}"
          f"{', 1 untimed workers=1 pass' if rec['reference_pass'] else ''}; "
          f"{rec['paired_trials']} paired trials per pass; {len(setups)} set-ups")
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"#   {name:32s} {shown:>12s} {units[name]}")
    untraced = [p for p in passes if not p["trace"]]
    raw = [rec["paired_trials"] / p["wall_s"] for p in untraced]
    print(f"#   unscaled trials_per_s of the {len(raw)} untraced passes: min {min(raw):.6g}, "
          f"median {statistics.median(raw):.6g}, max {max(raw):.6g}")
    if any("probe_s" in p for p in untraced):
        scales = [speed_scale(p) for p in untraced]
        print(f"#   speed scale ({probe.REF_S} s / mean probe loop time) of those passes: "
              f"min {min(scales):.4g}, median {statistics.median(scales):.4g}, "
              f"max {max(scales):.4g}; probe samples per pass "
              f"{statistics.median(len(p['probe_s']) for p in untraced):.0f}")
    print(f"#   {'error_rate':32s} {failed / attempted:12.6g} failed/attempted cells "
          f"({failed}/{attempted})")
    if stored is None:
        status = "none stored for this seed, invariants checked"
    elif hashes == [hashlib.sha256(stored.encode()).hexdigest()]:
        status = "stored, byte-identical"
    else:
        status = "stored, not byte-identical"
    print(f"# reference: {status}; csv sha256 {', '.join(hashes)}")
    for e in errors:
        print(f"# error: {e}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
