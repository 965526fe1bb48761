"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .core import (
    ConfigError,
    DomainError,
    QuadratureError,
    SimulationError,
    SingularMatrixError,
    SystemParams,
    db_to_linear,
)
from . import analytic
from .experiments import config_from_dict, emit_csv, run_experiment
from .presets import preset, preset_names


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mimosched")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo experiment and write CSV")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=preset_names(),
                     help="named experiment configuration")
    src.add_argument("--config", help="path to a flat JSON experiment config")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--trials", type=int, help="override trial count")
    run.add_argument("--drops", type=int, help="override drop count")
    run.add_argument("--seed", type=int, help="override RNG seed")
    run.add_argument("--workers", type=int, default=1, help="worker processes, this one included")

    an = sub.add_parser("analytic", help="evaluate one closed-form expression")
    an.add_argument("--formula", required=True,
                    choices=("eq6", "eq11", "eq12", "eq17", "eq21", "eq22"),
                    help="eq6/eq11/eq12: single-block rate and loss; "
                         "eq17/eq21: round-robin magnitude-scheduler loss and bound; "
                         "eq22: heterogeneous block rate")
    an.add_argument("--M", type=int, default=64)
    an.add_argument("--K", type=int, default=32)
    an.add_argument("--K_B", type=int, default=8)
    an.add_argument("--K_M", type=int, default=1)
    an.add_argument("--beta", type=float, default=1.0)
    an.add_argument("--betas", help="comma-separated block gains (eq22)")
    an.add_argument("--noise_var", type=float, default=1.0)
    pw = an.add_mutually_exclusive_group()
    pw.add_argument("--P_dB", type=float)
    pw.add_argument("--P", type=float)
    dl = an.add_mutually_exclusive_group()
    dl.add_argument("--delta_dB", type=float)
    dl.add_argument("--delta", type=float)
    return ap


def _cmd_run(args) -> int:
    # before any trial runs, which may take minutes
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {args.out} must name a file in an existing directory")
    if args.preset:
        cfg = preset(args.preset)
    else:
        with open(args.config) as fh:
            cfg = config_from_dict(json.load(fh))
    overrides = {k: getattr(args, k) for k in ("trials", "drops", "seed")
                 if getattr(args, k) is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    rows = run_experiment(cfg, workers=args.workers)
    emit_csv(rows, args.out)
    return 0


def _cmd_analytic(args) -> int:
    power = args.P if args.P is not None else db_to_linear(
        args.P_dB if args.P_dB is not None else 10.0)
    # an infinite noise_var leaves snr 0, which every formula rejects
    if not args.noise_var > 0:
        raise DomainError(f"noise_var must be positive, got {args.noise_var}")
    snr = power / args.noise_var
    delta = args.delta if args.delta is not None else db_to_linear(
        args.delta_dB if args.delta_dB is not None else -20.0)
    f = args.formula
    if f == "eq6":
        value = analytic.rate_accurate_single_block(args.M, args.K, snr, args.beta)
    elif f == "eq11":
        value = analytic.rate_misreport_single_block(
            args.M, args.K, args.K_M, delta, snr, args.beta)
    elif f == "eq12":
        value = analytic.loss_single_block(
            args.M, args.K, args.K_M, delta, snr, args.beta)
    elif f == "eq22":
        if not args.betas:
            raise DomainError("eq22 needs --betas, e.g. --betas 0.5,0.2,0.1")
        betas = [float(x) for x in args.betas.split(",")]
        value = analytic.rate_heterogeneous_block(args.M, len(betas), snr, betas)
    else:
        # a K_B below 1 is SystemParams' to name, before T is checked
        if args.K_B > 0 and args.K % args.K_B != 0:
            raise DomainError(f"K={args.K} must be a multiple of K_B={args.K_B}")
        p = SystemParams(M=args.M, K=args.K, K_B=args.K_B, T=args.K // max(args.K_B, 1),
                         P=power, noise_var=args.noise_var, beta_default=args.beta)
        if f == "eq17":
            value = analytic.loss_rr_cm(p, args.K_M, delta, args.beta)
        else:
            value = analytic.loss_upper_bound(p, args.K_M, delta, args.beta)
    print(f"{value:.17g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_analytic(args)
    except (SingularMatrixError, QuadratureError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (SimulationError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
