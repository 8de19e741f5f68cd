"""Command-line sweep runner: ``ff <task> --config <file> [options]``.

The subcommand must match the task declared in the config file; command-line
options override the config's execution keys (never its physics).  Exit
codes: 0 success, 1 config error (including usage errors), 2 the sweep ran
but some cells or the grid step failed, 3 fatal I/O or solver breakdown.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import FORMATS, TASKS, emit_config, parse_config
from .errors import ConfigError, ExportError, FloqluxError
from .sweeps import export, run_sweep
from .tasks import REGISTRY


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (config error); argparse's default 2 is taken."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ff", description="run one floqlux task over a parameter grid")
    sub = parser.add_subparsers(dest="task", required=True, metavar="task")
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=True, metavar="FILE",
                       help="run configuration file")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides the config)")
        p.add_argument("--workers", type=int, metavar="N",
                       help="worker processes, at most one per usable core "
                            "(default: config value)")
        p.add_argument("--format", choices=FORMATS,
                       help="export format (overrides the config)")
        p.add_argument("--overwrite", action="store_true",
                       help="replace existing export files")
    return parser


def _apply_overrides(config, args):
    updates = {}
    if args.out is not None:
        updates["output"] = args.out
    if args.format is not None:
        updates["format"] = args.format
    if args.overwrite:
        updates["overwrite"] = True
    if args.workers is not None:
        updates["workers"] = args.workers
    if not updates:
        return config
    try:
        return replace(config, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if config.task != args.task:
            raise ConfigError(
                f"config declares task {config.task!r} but the "
                f"{args.task!r} subcommand was invoked"
            )
        config = _apply_overrides(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    # echo the fully resolved configuration this run is keyed on
    sys.stdout.write(emit_config(config))

    try:
        result = run_sweep(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FloqluxError, OSError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 3
    try:
        paths = export(result, config.output, config.format, config.overwrite)
    except (ExportError, OSError, ValueError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 3

    for path in paths:
        print(f"wrote {path}")
    n_failed = int(result.mask.sum())
    if n_failed:
        print(f"{n_failed} of {result.mask.size} cells failed "
              "(masked rows; reasons in the json export):", file=sys.stderr)
        for row in sorted(result.reasons)[:5]:
            print(f"  row {row}: {result.reasons[row]}", file=sys.stderr)
    step = REGISTRY[config.task].grid_key
    step_error = step and result.extra.get(step, {}).get("error")
    if step_error:
        print(f"the whole-grid step failed ({step}): {step_error}", file=sys.stderr)
    return 2 if n_failed or step_error else 0


if __name__ == "__main__":
    sys.exit(main())
