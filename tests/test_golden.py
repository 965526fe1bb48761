"""Golden CSVs: reduced presets compared cell by cell against stored output.

Each golden file holds the CSV one reduced configuration emitted when it was
recorded. A run must reproduce every cell within a relative tolerance of
1e-12, NaN where the golden has NaN, and every text and count field
exactly, at one worker and at two, whose trial chunks and slices differ.
The CSV at two and at three workers must match the one at one worker byte
for byte.
Rewrite the named files with ``PYTHONPATH=src python tests/test_golden.py
NAME...`` only when a change of their numbers is intended;
``PYTHONPATH=src python tests/test_golden.py --sha256`` prints the SHA-256
of every config's CSV at one, two and three workers, to compare two trees, and
``--sha256 --presets`` does the same for the six full presets (about a
minute on two cores). ``--start-method spawn`` after either starts the pool
processes with that method, so that its hashes can be set beside the default
method's. ``--max-rel`` prints, per config and worker count, the largest
relative deviation of its value cells from the golden, for analytic rows
(``trials`` 0) and Monte Carlo rows apart: inf where a row's keys differ.
"""
import csv
import hashlib
import io
import itertools
import math
import multiprocessing
import pathlib
import sys
from dataclasses import replace

import pytest

from mimosched import (ExperimentConfig, LargeScaleModel, SystemParams, emit_csv, preset,
                       preset_names, run_experiment)

GOLDEN = pathlib.Path(__file__).parent / "golden"
RTOL = 1e-12
_VALUE_COLS = (2, 4, 5, 6)       # sweep_value, mean, std, ci95


def _configs() -> dict:
    reduced = {
        "fig2": dict(trials=12),
        "fig3": dict(trials=10),
        "fig4": dict(trials=5, drops=10),
        "fig5": dict(trials=3, drops=5),
        "fig6": dict(trials=3, drops=5),
        "fig7": dict(trials=2, drops=3),
    }
    cfgs = {name: replace(preset(name), **kw) for name, kw in reduced.items()}
    # more than 8 trials with per-user rows: their per-trial spread sums pairwise
    cfgs["fig4_spread"] = replace(preset("fig4"), trials=12, drops=3)
    # no preset promotes weak users under magnitude grouping
    cfgs["het_over_cm"] = ExperimentConfig(
        params=SystemParams(M=64, K=32, K_B=8, T=4, P=10.0),
        scenario="heterogeneous", grouping_rule="channel_magnitude",
        strategy="grouping_changed_over", beta_high_factor=2.0,
        large_scale=LargeScaleModel(), sweep="K_M", sweep_values=(1, 2, 4, 8),
        trials=5, drops=5, seed=7, track_users=(1, 16, 32), label="het_over_cm")
    return cfgs


CONFIGS = _configs()


def _csv(cfg, workers=1) -> str:
    buf = io.StringIO()
    emit_csv(run_experiment(cfg, workers), buf)
    return buf.getvalue()


def _rel(a: str, b: str) -> float:
    """Relative deviation of two cells: 0 if equal or both NaN, inf if one is NaN."""
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def _close(a: str, b: str) -> bool:
    return _rel(a, b) <= RTOL


def _max_rel(name: str, workers: int) -> dict:
    """The largest relative deviation of a config's value cells from its golden, for
    analytic rows (trials 0) and Monte Carlo rows apart; None where it has none."""
    want = list(csv.reader(io.StringIO((GOLDEN / f"{name}.csv").read_text())))
    got = list(csv.reader(io.StringIO(_csv(CONFIGS[name], workers))))
    text = [[[c for i, c in enumerate(r) if i not in _VALUE_COLS] for r in rows] for rows in (got, want)]
    if text[0] != text[1]:
        return {"analytic": math.inf, "monte_carlo": math.inf}
    worst = {"analytic": None, "monte_carlo": None}
    for g, w in zip(got[1:], want[1:]):
        kind = "analytic" if w[7] == "0" else "monte_carlo"
        worst[kind] = max(worst[kind] or 0.0, *(_rel(g[i], w[i]) for i in _VALUE_COLS))
    return worst


@pytest.mark.parametrize("name, workers",
                         [pytest.param(n, 1, id=n) for n in sorted(CONFIGS)]
                         + [pytest.param(n, 2, id=f"{n}-workers2") for n in sorted(CONFIGS)])
def test_csv_matches_golden(name, workers):
    want = list(csv.reader(io.StringIO((GOLDEN / f"{name}.csv").read_text())))
    got = list(csv.reader(io.StringIO(_csv(CONFIGS[name], workers))))
    assert got[0] == want[0]
    assert len(got) == len(want)
    bad = [(g[3], i) for g, w in zip(got[1:], want[1:])
           for i in range(len(w))
           if not (_close(g[i], w[i]) if i in _VALUE_COLS else g[i] == w[i])]
    assert not bad, f"{len(bad)} cells differ, first: {bad[:5]}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_is_byte_identical_across_workers(name):
    one = _csv(CONFIGS[name], 1)
    assert _csv(CONFIGS[name], 2) == one
    assert _csv(CONFIGS[name], 3) == one


if __name__ == "__main__":
    if sys.argv[-2:-1] == ["--start-method"] and sys.argv[1:2] == ["--sha256"]:
        multiprocessing.set_start_method(sys.argv.pop())
        sys.argv.pop()
    if sys.argv[1:] in (["--sha256"], ["--sha256", "--presets"]):
        cfgs = {n: preset(n) for n in preset_names()} if "--presets" in sys.argv else CONFIGS
        for name, workers in itertools.product(sorted(cfgs), (1, 2, 3)):
            digest = hashlib.sha256(_csv(cfgs[name], workers).encode()).hexdigest()
            print(f"{name}/workers{workers} {digest}")
        sys.exit()
    if sys.argv[1:] == ["--max-rel"]:
        for name, workers in itertools.product(sorted(CONFIGS), (1, 2)):
            worst = _max_rel(name, workers)
            print(f"{name}/workers{workers} "
                  + " ".join(f"{k} {'-' if v is None else f'{v:.3g}'}" for k, v in worst.items()))
        sys.exit()
    if not sys.argv[1:] or set(sys.argv[1:]) - set(CONFIGS):
        sys.exit(f"usage: test_golden.py --sha256 [--presets] [--start-method METHOD] | "
                 f"--max-rel | NAME...; names: {' '.join(sorted(CONFIGS))}")
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:]:
        (GOLDEN / f"{name}.csv").write_text(_csv(CONFIGS[name]))
