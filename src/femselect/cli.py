"""Command-line entry points.

femselect run --config FILE [--seed N] [--out DIR]
femselect preset --simulation {1,2,3,4} --seed N --out DIR
femselect sweep --simulation {1,2,3,4} [--seed FIRST] [--seeds COUNT] --out DIR
femselect describe {geometry,catalog,modal} [--model ID] [--position E1,..,E5]

`sweep` runs one preset for seeds FIRST .. FIRST+COUNT-1 into DIR/seed<k>/,
prints each run's outcome as `preset` does, then a tally of the winners.

Exit codes: 0 success, 2 configuration problem (a run too large to
allocate included), 3 I/O problem, 4 a numerical failure that aborted the
run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .modal import EigenSolveError
from .runner import (
    ConfigError,
    describe,
    load_config,
    preset_config,
    run_experiment,
)
from .swarm import RunRecord


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femselect",
        description="Swarm-based stiffness model selection on the measured H-beam.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment described by a JSON file")
    run_parser.add_argument("--config", required=True, type=Path, help="JSON config file")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--out", type=Path, default=None, help="override the output directory")

    preset_parser = sub.add_parser("preset", help="run one of the four standard simulations")
    preset_parser.add_argument("--simulation", required=True, type=int, choices=[1, 2, 3, 4])
    preset_parser.add_argument("--seed", required=True, type=int)
    preset_parser.add_argument("--out", required=True, type=Path)

    sweep_parser = sub.add_parser("sweep", help="run one standard simulation over a seed range")
    sweep_parser.add_argument("--simulation", required=True, type=int, choices=[1, 2, 3, 4])
    sweep_parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    sweep_parser.add_argument("--seeds", type=int, default=10, help="number of seeds (default 10)")
    sweep_parser.add_argument("--out", required=True, type=Path, help="one seed<k>/ per run here")

    describe_parser = sub.add_parser("describe", help="dump structure, catalog, or modal data")
    describe_parser.add_argument("what", choices=["geometry", "catalog", "modal"])
    describe_parser.add_argument("--model", type=int, default=None, help="model id (modal only)")
    describe_parser.add_argument(
        "--position",
        type=str,
        default=None,
        help="five comma-separated moduli (modal only; defaults to nominal)",
    )
    return parser


def _print_outcome(record: RunRecord, output_dir: Path) -> None:
    best = record.ranking[0]
    print(f"best model m{best.model_id} (d={best.d}) fitness {best.fitness:.6g}")
    print(f"converged at iteration {record.converged_at}, "
          f"{len(record.failures)} failed evaluations")
    print(f"artifacts written to {output_dir}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(
            config, swarm=dataclasses.replace(config.swarm, seed=args.seed)
        )
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    record = run_experiment(config)
    _print_outcome(record, Path(config.output_dir))
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    config = preset_config(args.simulation, seed=args.seed, output_dir=args.out)
    record = run_experiment(config)
    _print_outcome(record, Path(config.output_dir))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    winners: Counter[int] = Counter()
    for seed in range(args.seed, args.seed + args.seeds):
        config = preset_config(args.simulation, seed=seed, output_dir=args.out / f"seed{seed}")
        record = run_experiment(config)
        _print_outcome(record, Path(config.output_dir))
        winners[record.ranking[0].model_id] += 1
    print("winners: " + "  ".join(f"m{mid}:{count}" for mid, count in winners.most_common()))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    position = None
    if args.position is not None:
        parts = args.position.split(",")
        if len(parts) != 5:
            raise ValueError("--position needs exactly five comma-separated values")
        position = np.array([float(p) for p in parts])
    sys.stdout.write(describe(args.what, model_id=args.model, position=position))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_describe(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"configuration error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (EigenSolveError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
