"""Command-line interface: formulas, runs, config handling, exit codes."""
import io
import json
import math
import multiprocessing
import shutil
import subprocess

import numpy as np
import pytest

from mimosched import (
    QuadratureError,
    RngStream,
    SingularMatrixError,
    config_from_dict,
    emit_csv,
    loss_rr_cm,
    loss_single_block,
    loss_upper_bound,
    run_experiment,
)
from mimosched import db_to_linear, experiments
from mimosched.analytic import _orderstat_moments
from mimosched.experiments import pack_stream
from mimosched.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err


def test_eq6_default_output(capsys):
    code, out, _ = _run(capsys, "analytic", "--formula", "eq6")
    assert code == 0
    assert out == "3.4594316186372973"


def test_eq11_default_output(capsys):
    code, out, _ = _run(capsys, "analytic", "--formula", "eq11")
    assert code == 0
    assert float(out) == pytest.approx(math.log2(1.0 + 320.0 / 131.0), rel=1e-15)


def test_eq12_matches_library(capsys):
    code, out, _ = _run(capsys, "analytic", "--formula", "eq12")
    assert code == 0
    # 17 significant digits round-trip the float exactly
    assert float(out) == loss_single_block(64, 32, 1, 0.01, 10.0)


def test_eq12_power_flags(capsys):
    _, linear, _ = _run(capsys, "analytic", "--formula", "eq12", "--P", "100")
    _, db, _ = _run(capsys, "analytic", "--formula", "eq12", "--P_dB", "20")
    assert float(linear) == pytest.approx(float(db), rel=1e-12)
    _, base, _ = _run(capsys, "analytic", "--formula", "eq12")
    _, deep, _ = _run(capsys, "analytic", "--formula", "eq12", "--delta", "0.001")
    assert float(deep) > float(base)


def test_eq17_matches_library(capsys, p_default):
    code, out, _ = _run(capsys, "analytic", "--formula", "eq17")
    assert code == 0
    assert float(out) == loss_rr_cm(p_default, 1, 0.01)


def test_eq21_matches_library(capsys, p_default):
    code, out, _ = _run(capsys, "analytic", "--formula", "eq21")
    assert code == 0
    assert float(out) == loss_upper_bound(p_default, 1, 0.01)
    assert float(out) == pytest.approx(0.1288681265059230, rel=1e-12)


def test_eq22_block_rate(capsys):
    code, out, _ = _run(capsys, "analytic", "--formula", "eq22",
                        "--betas", "0.5,0.2,0.1")
    assert code == 0
    assert float(out) == pytest.approx(math.log2(627.0 / 17.0), rel=1e-12)


def test_eq22_requires_betas(capsys):
    code, _, err = _run(capsys, "analytic", "--formula", "eq22")
    assert code == 2
    assert "configuration error" in err


def test_eq17_rejects_ragged_layout(capsys):
    code, _, err = _run(capsys, "analytic", "--formula", "eq17",
                        "--K", "30", "--K_B", "8")
    assert code == 2
    assert "multiple" in err


@pytest.mark.parametrize("formula", ["eq17", "eq21"])
def test_round_robin_formulas_reject_empty_blocks(capsys, formula):
    # K % K_B divided by zero: a ZeroDivisionError traceback, exit 1
    code, out, err = _run(capsys, "analytic", "--formula", formula, "--K_B", "0")
    assert code == 2 and out == ""
    assert "configuration error" in err and "K_B must satisfy" in err


def test_unknown_formula_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["analytic", "--formula", "eq99"])


def test_run_preset_with_overrides(tmp_path, capsys):
    out = tmp_path / "a.csv"
    code = main(["run", "--preset", "fig2", "--trials", "4", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("scenario,sweep,sweep_value,metric,mean,std,ci95,trials,drops,seed\n")
    assert ",4," in text          # the trial override reached the rows
    again = tmp_path / "b.csv"
    assert main(["run", "--preset", "fig2", "--trials", "4", "--out", str(again)]) == 0
    assert again.read_text() == text
    pooled = tmp_path / "c.csv"
    assert main(["run", "--preset", "fig2", "--trials", "4", "--workers", "2",
                 "--out", str(pooled)]) == 0
    assert pooled.read_text() == text


def test_run_config_file_round_trip(tmp_path, capsys):
    d = {"trials": 6, "seed": 3, "sweep": "K_M", "sweep_values": [0, 1],
         "label": "cli-test"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    buf = io.StringIO()
    emit_csv(run_experiment(config_from_dict(d)), buf)
    assert out.read_text() == buf.getvalue()


def test_run_rejects_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"power": 3}))
    assert main(["run", "--config", str(unknown), "--out", str(out)]) == 2
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"K": 30}))
    assert main(["run", "--config", str(ragged), "--out", str(out)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 2
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"trials": 2.7}))
    assert main(["run", "--config", str(fractional), "--out", str(out)]) == 2
    assert "trials must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"variants": [{"foo": 1}]}, "unknown variant key 'foo'"),
    ({"variants": [{"P": "abc"}]}, "variant P must be a number"),
    ({"P": "inf"}, "P must be positive and finite"),            # wrote nan,0,0 rows
    ({"beta_default": "inf"}, "beta_default must be positive and finite"),
    ({"noise_var": "inf"}, "noise_var must be positive and finite"),
    ({"P_dB": 4000}, "overflows"),
    ({"delta_dB": 4000}, "overflows"),
    ({"sweep": "P_dB", "sweep_values": [0, 4000]}, "overflows"),
    ({"scenario": "heterogeneous", "beta_low_factor": 1.5}, "beta_low_factor must lie in (0, 1)"),
    ({"scenario": "heterogeneous", "cell_radius": "inf"},                # OverflowError, exit 1
     "cell_radius must be positive and finite"),
])
def test_run_rejects_bad_physical_inputs(tmp_path, capsys, config, message):
    # each ended in a traceback or wrote a CSV; now a configuration error
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps({**config, "trials": 2}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--formula", "eq6", "--P", "inf"], "snr must be positive and finite"),   # printed inf
    (["--formula", "eq6", "--P_dB", "4000"], "overflows"),
    (["--formula", "eq11", "--delta_dB", "4000"], "overflows"),
    (["--formula", "eq17", "--P", "inf"], "P must be positive and finite"),
    (["--formula", "eq22", "--betas", "0.5,inf"], "positive and finite"),        # printed 8.28
    (["--formula", "eq22", "--P", "inf", "--betas", "0.5,0.2"],
     "snr must be positive and finite"),                                        # printed inf
    (["--formula", "eq11", "--delta", "inf"], "delta must be positive and finite"),  # 3.50
    (["--formula", "eq12", "--delta", "inf"], "delta must be positive and finite"),  # -0.012
])
def test_analytic_rejects_bad_physical_inputs(capsys, argv, message):
    code, out, err = _run(capsys, "analytic", *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("formula", ["eq6", "eq11", "eq12", "eq17", "eq21", "eq22"])
def test_analytic_rejects_zero_noise_variance(capsys, formula):
    # divided by zero before any check: a ZeroDivisionError traceback, exit 1
    code, out, err = _run(capsys, "analytic", "--formula", formula, "--noise_var", "0",
                          "--betas", "0.5,0.2")
    assert code == 2 and out == ""
    assert "noise_var must be positive" in err


def test_run_rejects_more_block_members_than_antennas_before_any_trial(tmp_path, capsys,
                                                                       monkeypatch):
    # K_B > M was caught by the zero-forcing row check, after set-up; it is a
    # configuration error before the first channel draw
    monkeypatch.setattr(experiments, "draw_channels", lambda *a: pytest.fail("a trial ran"))
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps({"M": 4, "K": 16, "K_B": 8, "T": 2, "trials": 2}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "K_B <= M" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_rejects_bad_worker_count(tmp_path, capsys, workers):
    out = tmp_path / "x.csv"
    assert main(["run", "--preset", "fig2", "--trials", "2", "--workers", workers,
                 "--out", str(out)]) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_run_rejects_unwritable_out_before_any_trial(tmp_path, capsys, monkeypatch, out):
    # the whole preset ran first, and only writing the CSV failed
    monkeypatch.setattr("mimosched.cli.run_experiment", lambda *a, **kw: pytest.fail("ran"))
    assert main(["run", "--preset", "fig2", "--out", str(tmp_path / out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []


def test_run_requires_source(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--out", "x.csv"])


def test_numerical_failure_exit_code(capsys, monkeypatch):
    def boom(*a, **k):
        raise SingularMatrixError("synthetic breakdown")
    monkeypatch.setattr("mimosched.analytic.loss_rr_cm", boom)
    code, _, err = _run(capsys, "analytic", "--formula", "eq17")
    assert code == 3
    assert "numerical failure" in err


def test_unresolvable_quadrature_exits_3(capsys):
    # the smallest of 1e12 draws sits on the 1e-12 quantile where the range
    # is cut: a spike the ladder's 1536 nodes cannot resolve (12 kB arrays)
    with pytest.raises(QuadratureError, match="between orders 768 and 1536"):
        _orderstat_moments(64, 1.0, 10**12, np.array([1]))
    code, out, err = _run(capsys, "analytic", "--formula", "eq17", "--M", "64",
                          "--K", str(10**12), "--K_B", "1", "--K_M", "0")
    assert code == 3 and out == ""
    assert "numerical failure: order-statistic quadrature differs" in err


def test_unresolvable_spike_and_missing_mass_exit_3(capsys):
    # 100 of 1e14 Gamma(8) draws fall below the 1e-12 quantile where the
    # range is cut, so the smallest one's density in the range is a spike
    # about 2e-4 wide at the lower end of a range 46 wide, which the
    # ladder's 1536 nodes cannot resolve; at 1e12 Gamma(64) draws the
    # density is smooth enough, but 63 % of its mass lies below the cut
    with pytest.raises(QuadratureError, match=r"differs by 0\.00\d+ \(relative\)"):
        _orderstat_moments(8, 1.0, 10**14, np.array([1]))
    with pytest.raises(QuadratureError, match=r"and by 0\.63\d+ from unit rank mass"):
        _orderstat_moments(64, 1.0, 10**12, np.array([1]))
    code, out, err = _run(capsys, "analytic", "--formula", "eq17", "--M", "8",
                          "--K", str(10**14), "--K_B", "1", "--K_M", "0")
    assert code == 3 and out == ""
    assert "numerical failure: order-statistic quadrature differs" in err


def test_guard_trip_names_drop_and_trial(tmp_path, capsys, monkeypatch):
    # the channel of drop 1, trial 1 gives its two strongest users one row,
    # so the honest large-scale plan's first block has a singular Gram matrix
    calls = iter(range(100))
    draw = experiments.draw_channels

    def degenerate_at_drop1_trial1(p, betas, rng):
        gains = draw(p, betas, rng)
        if next(calls) != 4:          # draws run drop by drop, 3 trials each
            return gains
        gains[1] = gains[0]
        return gains

    monkeypatch.setattr(experiments, "draw_channels", degenerate_at_drop1_trial1)
    d = {"scenario": "heterogeneous", "M": 16, "T": 3, "K_B": 3,
         "grouping_rule": "large_scale", "K_M": 1, "trials": 3, "drops": 2}
    with pytest.raises(SingularMatrixError) as err:
        run_experiment(config_from_dict(d))
    assert err.value.args[0].startswith("block 0: Gram matrix condition number")
    assert err.value.args[1:] == ("variant 0, drop 1, trial 1", "sweep point 0.0")
    calls = iter(range(100))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    code, _, msg = _run(capsys, "run", "--config", str(cfg_path),
                        "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert "numerical failure" in msg and "variant 0, drop 1, trial 1" in msg
    assert "sweep point 0.0" in msg


@pytest.mark.parametrize("workers", [
    1, pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched draw reaches pool workers only by fork"))])
def test_guard_trip_keeps_its_context_in_a_multi_cell_run(workers, monkeypatch):
    # two sweep points x two layouts x five drops, each trial drawn once for
    # both sweep points. Variant 0, drop 1, trial 1 draws users 2 and 4 with
    # one row. Honestly and at K_M = 1 they sit in different blocks; at K_M = 2
    # the two strongest users demote themselves and 2 and 4 share block 0, so
    # only the attacked period of sweep point 2 fails. At 2 workers the 10
    # units go out 2 to a submission
    target = RngStream(42, pack_stream(0, 0, 1, 1)).generator().bit_generator.state
    draw = experiments.draw_channels

    def degenerate_at(p, betas, rng):
        gains = draw(p, betas, rng)
        if not np.array_equal(rng.bit_generator.state["state"]["key"], target["state"]["key"]):
            return gains
        gains[4] = gains[2]
        return gains

    monkeypatch.setattr(experiments, "draw_channels", degenerate_at)
    cfg = config_from_dict({
        "scenario": "heterogeneous", "M": 16, "T": 3, "K_B": 3,
        "grouping_rule": "large_scale", "trials": 3, "drops": 5,
        "sweep": "K_M", "sweep_values": [1, 2], "variants": [None, {"T": 1, "K_B": 9}]})
    with pytest.raises(SingularMatrixError) as err:
        run_experiment(cfg, workers=workers)
    assert err.value.args[0].startswith("block 0: Gram matrix condition number")
    assert err.value.args[1:] == ("variant 0, drop 1, trial 1", "sweep point 2")
    assert multiprocessing.active_children() == []


def test_guard_trip_on_a_shared_plan_names_the_first_sweep_point(monkeypatch):
    # a power sweep shares every plan of a trial across its sweep points: the
    # honest plan of drop 0, trial 2 fails at all three, and the trip names
    # the first point of the sweep as given
    target = RngStream(42, pack_stream(0, 0, 0, 2)).generator().bit_generator.state
    draw = experiments.draw_channels

    def degenerate_at(p, betas, rng):
        gains = draw(p, betas, rng)
        if not np.array_equal(rng.bit_generator.state["state"]["key"], target["state"]["key"]):
            return gains
        gains[1] = gains[0]
        return gains

    monkeypatch.setattr(experiments, "draw_channels", degenerate_at)
    cfg = config_from_dict({
        "scenario": "heterogeneous", "M": 16, "T": 3, "K_B": 3,
        "grouping_rule": "large_scale", "K_M": 1, "trials": 3, "drops": 2,
        "sweep": "P_dB", "sweep_values": [20.0, 0.0, 10.0]})
    with pytest.raises(SingularMatrixError) as err:
        run_experiment(cfg)
    assert err.value.args[0].startswith("block 0: Gram matrix condition number")
    assert err.value.args[1:] == ("variant 0, drop 0, trial 2", "sweep point 20.0")


@pytest.mark.skipif(shutil.which("mimosched") is None,
                    reason="the mimosched console script is not installed on PATH")
def test_installed_entry_point():
    r = subprocess.run(["mimosched", "analytic", "--formula", "eq6"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.strip() == "3.4594316186372973"
