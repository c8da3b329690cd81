"""Command line entry point: gen-data, train, run, sweep, report."""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, check_models, check_seeds, load_config
from .containers import ContainerError
from .harness import cmd_gen_data, cmd_report, cmd_run, cmd_sweep, cmd_train
from .nn import TrainingDiverged
from .samplers import SamplerError


def _parse_seeds(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from exc
    return check_seeds(seeds, "--seeds")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="equiguide",
                                description="Equivariance-regularized diffusion posterior sampling")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--out", default=None, help="output directory override")

    sp = sub.add_parser("gen-data", help="generate train/test datasets")
    add_common(sp)

    sp = sub.add_parser("train", help="train denoiser and/or probe checkpoints")
    add_common(sp)

    sp = sub.add_parser("run", help="run the configured sampler over the seeds")
    add_common(sp)
    sp.add_argument("--seeds", default=None, help="comma-separated seed override")

    sp = sub.add_parser("sweep", help="sweep the configured axes")
    add_common(sp)
    sp.add_argument("--seeds", default=None, help="comma-separated seed override")

    sp = sub.add_parser("report", help="aggregate run/sweep outputs")
    sp.add_argument("run_dir", help="directory containing sweep.csv / run_summary.json")
    sp.add_argument("--out", default=None, help="report path override")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            report = cmd_report(args.run_dir, out_path=args.out)
            print(json.dumps({"cells": len(report.get("cells", [])),
                              "source": report["source"]}))
            return 0
        cfg = load_config(args.config)
        check_models(cfg)
        if args.command == "gen-data":
            info = cmd_gen_data(cfg, out_dir=args.out)
            print(json.dumps(info))
        elif args.command == "train":
            written = cmd_train(cfg, out_dir=args.out)
            print(json.dumps(written))
        elif args.command == "run":
            summary = cmd_run(cfg, out_dir=args.out, seeds=_parse_seeds(args.seeds))
            print(json.dumps({"hash": summary["hash"]}))
        elif args.command == "sweep":
            path = cmd_sweep(cfg, out_dir=args.out, seeds=_parse_seeds(args.seeds))
            print(str(path))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except (ContainerError, SamplerError, TrainingDiverged) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
