"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

About two minutes on two cores: three cases run real passes of the
het_pool and single_block workloads.
"""
from __future__ import annotations

import importlib
import io
import json
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mimosched import (ExperimentConfig, LargeScaleModel, SystemParams,  # noqa: E402
                       emit_csv, run_experiment)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def _small_homogeneous():
    return ExperimentConfig(
        params=SystemParams(M=16, K=8, K_B=4, T=2), K_M=1,
        grouping_rule=("channel_magnitude", "sus", "random"),
        sweep="P_dB", sweep_values=(0.0, 10.0), trials=3, seed=7)


def _small_heterogeneous():
    return ExperimentConfig(
        params=SystemParams(M=16, K=8, K_B=4, T=2), scenario="heterogeneous",
        grouping_rule=("large_scale", "random"), strategy="grouping_unchanged_under",
        large_scale=LargeScaleModel(500.0, 200.0, 3.8, 8.0),
        sweep="K_M", sweep_values=(1, 2), trials=2, drops=2, seed=7, track_users=())


def _csv(cfg, workers=1, trace=None):
    buf = io.StringIO()
    if trace is None:
        emit_csv(run_experiment(cfg, workers=workers), buf)
    else:
        with trace:
            emit_csv(run_experiment(cfg, workers=workers), buf)
    return buf.getvalue()


def _originals():
    targets = list(tracer.HOOKS.values()) + [tracer.POOL_HOOK]
    return {t: getattr(importlib.import_module(t[0]), t[1]) for t in targets}


def test_hooks_removed_after_traced_run():
    before = _originals()
    t = tracer.Tracer()
    with t:
        assert all(getattr(importlib.import_module(m), a) is not fn
                   for (m, a), fn in before.items())
        _csv(_small_homogeneous())
    assert _originals() == before
    assert t.metrics()["scheduling.sus_calls"] > 0


@pytest.mark.parametrize("cfg, workers", [(_small_homogeneous(), 1),
                                          (_small_heterogeneous(), 2)])
def test_traced_and_untraced_runs_emit_identical_csv(cfg, workers):
    t = tracer.Tracer()
    assert _csv(cfg, workers, trace=t) == _csv(cfg, workers)
    layers = t.metrics()
    assert layers["zf.block_calls"] > 0
    assert layers["experiments.pool_spawns"] == (cfg.drops * len(cfg.sweep_values)
                                                 if workers > 1 else 0)


def test_speed_probe_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as p:
        deadline = time.perf_counter() + 3 * probe.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(p.wall) >= 3 and len(p.cpu) == len(p.wall)
    assert all(w > 0 for w in p.wall)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("cfg, workers", [(_small_homogeneous(), 1),
                                          (_small_heterogeneous(), 2)])
def test_probed_and_unprobed_passes_emit_identical_csv(cfg, workers):
    plain = session.fork_pass(cfg, workers, False)
    probed = session.fork_pass(cfg, workers, False, probed=True)
    assert probed["csv"] == plain["csv"] and probed["error"] is None
    assert "probe_s" not in plain and run.speed_scale(plain) == 1.0
    assert run.speed_scale(plain, "probe_cpu_s") == 1.0
    assert len(probed["probe_s"]) >= 1 and len(probed["probe_cpu_s"]) == len(probed["probe_s"])
    assert run.speed_scale(probed) > 0 and run.speed_scale(probed, "probe_cpu_s") > 0
    assert probed["wall_s"] > 0 and probed["cpu_s"] > 0


def test_absent_hook_reads_null_and_run_carries_on(monkeypatch):
    from mimosched import experiments, scheduling

    monkeypatch.delattr(scheduling, "group_by_sus")
    monkeypatch.delattr(experiments, "ProcessPoolExecutor")
    cfg = replace(_small_homogeneous(), grouping_rule=("channel_magnitude",))
    t = tracer.Tracer()
    _csv(cfg, trace=t)
    layers = t.metrics()
    assert not hasattr(scheduling, "group_by_sus")
    for name in ("scheduling.sus_s", "scheduling.sus_calls", "experiments.pool_spawns",
                 "experiments.pool_batches", "experiments.pool_spawn_s",
                 "experiments.pool_shutdown_s"):
        assert layers[name] is None, name
    assert layers["scheduling.cm_s"] > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_guard_trip_is_counted_once(monkeypatch, workers):
    from mimosched import SingularMatrixError, zf

    def singular(rows):
        raise SingularMatrixError("forced")

    monkeypatch.setattr(zf, "_gram_inverse_diag", singular)
    t = tracer.Tracer()
    with pytest.raises(SingularMatrixError):
        _csv(_small_heterogeneous(), workers, trace=t)
    assert t.metrics()["zf.guard_trips"] == 1


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"] for m in SPEC["per_layer"]}
            == set(tracer.Tracer().metrics()) | {"trace.overhead_s"})


def _perturbed(text, rel, line=1):
    lines = text.splitlines(keepends=True)
    cols = lines[line].split(",")
    cols[4] = repr(float(cols[4]) * (1 + rel))
    lines[line] = ",".join(cols)
    return "".join(lines)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 10**6])
def test_cell_check_flags_a_wrong_row(seed):
    ref = run._reference_text("hom_sweep", workloads.DEFAULT_SEED)
    text = ref.replace(f",{workloads.DEFAULT_SEED}\n", f",{seed}\n")
    cells = len(run._cells(ref))
    assert text.splitlines()[1].split(",")[3] == "analytic_eq17"
    assert text.splitlines()[2].split(",")[3] == "theta_cm"

    def failed(csv_text, in_run=None):
        return run.failed_cells({"csv": csv_text}, "hom_sweep", seed, in_run)[0]

    assert run.failed_cells({"csv": text}, "hom_sweep", seed, None) == (0, cells)
    # analytic rows are checked against the reference at every seed, Monte
    # Carlo rows only where a reference for the seed is stored
    assert failed(_perturbed(text, 1e-9)) == 1
    assert failed(_perturbed(text, 1e-9, line=2)) == (seed == workloads.DEFAULT_SEED)
    assert failed(_perturbed(text, 1e-14)) == 0
    assert failed(_perturbed(text, float("nan"), line=2)) == 1
    assert failed(text, in_run=_perturbed(text, 1e-14)) == 1
    assert failed("\n".join(text.splitlines()[:-1]) + "\n") == 1
    assert failed(text.replace(",theta_cm,", ",theta_cm,x", 1)) == cells
    assert run.failed_cells({"csv": None}, "hom_sweep", seed, None) == (cells, cells)


def test_nan_where_the_reference_has_nan_passes_at_any_seed():
    ref = run._reference_text("het_pool", workloads.DEFAULT_SEED)
    assert ",nan," in ref          # K_M = K = 16: no honest users
    text = ref.replace(f",{workloads.DEFAULT_SEED}\n", ",1000000\n")
    assert run.failed_cells({"csv": text}, "het_pool", 10**6, None)[0] == 0


def test_counts_repeat_exactly_across_runs():
    runs = [run.session("het_pool", workloads.DEFAULT_SEED, "--trace", "1",
                        "--min-passes", "2", timeout=170) for _ in range(2)]
    first, second = ([p["layers"] for p in r["passes"] if p["trace"]][0] for r in runs)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["experiments.pool_spawns"] == 320
    assert first["scheduling.sus_calls"] == 0


@pytest.mark.parametrize("workload, trace", [("single_block", 0), ("het_pool", 1)])
def test_command_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    assert all(v["value"] is not None for v in result["metrics"].values())
    for m in want:
        assert m["name"] in out.split("\n# env")[0]
