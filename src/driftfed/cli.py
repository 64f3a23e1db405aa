"""Command-line entry point.

Subcommands:
  run       execute the experiments described by a JSON run config
  validate  print config diagnostics without running anything
  gen-data  write a synthetic dataset (and its column spec) to disk
  report    re-render the delimited tables from a stored metrics document
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import DriftFedError
from .runner import (desk_scale, load_config, rerender_reports, run_experiment,
                     validate_config)
from .synth import default_drift_scenario, generate, write_delimited


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftfed",
        description="Federated-learning drift simulator for intrusion detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiments")
    run.add_argument("--config", required=True, help="JSON run config")
    run.add_argument("--output-dir", help="override the config output directory")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--strategies", help="comma-separated strategy filter "
                                          "(labels like cumulative,retain_100)")
    run.add_argument("--task", choices=("binary", "sixclass"), help="task filter")
    run.add_argument("--desk-scale", action="store_true",
                     help="apply the laptop preset (1x16 LSTM, 3 rounds, 5 epochs)")

    val = sub.add_parser("validate", help="check a run config")
    val.add_argument("--config", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rows", type=int, default=1200,
                     help="rows per sub-attack class")

    rep = sub.add_parser("report", help="re-render tables from stored metrics")
    rep.add_argument("--run-dir", required=True)
    return parser


def _apply_overrides(cfg, args):
    if args.output_dir:
        cfg = replace(cfg, output_dir=args.output_dir)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.task:
        cfg = replace(cfg, task=args.task)
    if args.strategies:
        wanted = {s.strip() for s in args.strategies.split(",") if s.strip()}
        kept = tuple(s for s in cfg.strategies if s.label in wanted)
        unknown = wanted - {s.label for s in cfg.strategies}
        if unknown:
            raise DriftFedError(f"unknown strategy label(s): {sorted(unknown)}")
        cfg = replace(cfg, strategies=kept)
    if args.desk_scale:
        cfg = desk_scale(cfg)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _apply_overrides(load_config(args.config), args)
            result = run_experiment(cfg)
            for label in result.metrics["strategy_order"]:
                print(f"ok: {label}")
            for label, msg in result.failures.items():
                print(f"failed: {label}: {msg}", file=sys.stderr)
            print(f"artifacts in {result.output_dir}")
            return 0 if result.ok else 1

        if args.command == "validate":
            problems = validate_config(load_config(args.config))
            for problem in problems:
                print(problem)
            if not problems:
                print("config ok")
            return 0 if not problems else 1

        if args.command == "gen-data":
            spec = default_drift_scenario(args.seed, rows_per_subattack=args.rows)
            records = generate(spec)
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            colspec = write_delimited(records, out)
            colspec.to_json(out.with_suffix(".columns.json"))
            print(f"wrote {len(records)} rows to {out}")
            return 0

        if args.command == "report":
            written = rerender_reports(args.run_dir)
            for name in written:
                print(f"rendered {name}")
            return 0
    except DriftFedError as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"error [{module}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
