"""Command-line front end for the experiment harness.

Subcommands: ``run`` (method comparison over seeds), ``sensitivity``
(corrupted-model robustness), ``correlate`` (weights vs per-model target
accuracy), and ``rate-check`` (convergence of the learned weights to the
oracle weights). Every ``ExperimentConfig`` field ``k`` is the flag ``--k``
(underscores as dashes) and takes the config-file value syntax; flags
override values from an optional ``--config`` file.

Exit codes: 0 on success, 1 for configuration problems, 2 when the runs
completed but some seeds or methods failed.
"""

import argparse
from dataclasses import fields
import sys

from . import harness
from .errors import ConfigError, CsvFormatError

# Subcommand -> (help, name of the harness function it runs, that function's
# keyword flags as flag -> (keyword, value type, help)). The function is
# looked up on ``harness`` at call time, so a rebound ``harness.run_*`` is
# the one that runs.
COMMANDS = {
    "run": ("compare aggregation and selection methods over seeds", "run_experiment", {}),
    "sensitivity": ("robustness to appended corrupted models", "run_sensitivity", {
        "--counts": ("added_counts", tuple[int, ...],
                     "comma-separated corrupted-model counts (0 baseline always included)"),
    }),
    "correlate": ("correlate weights with per-model target accuracy", "run_correlation", {}),
    "rate-check": ("weight-vector convergence against sample size", "run_rate_check", {
        "--sizes": ("sizes", tuple[int, ...], "comma-separated n = m sizes"),
        "--oracle-draws": ("oracle_draws", int, "labeled target draws used for the oracle weights"),
    }),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shiftagg",
        description="Aggregate prediction models for a shifted target domain.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, keywords) in COMMANDS.items():
        sub_parser = sub.add_parser(command, help=help_text, allow_abbrev=False)
        sub_parser.add_argument("--config", help="key = value config file")
        sub_parser.add_argument("--out", help="output directory for results and plots")
        for field in fields(harness.ExperimentConfig):
            sub_parser.add_argument(
                "--" + field.name.replace("_", "-"),
                help=f"config key {field.name} (default {field.default!r})",
            )
        for flag, (keyword, _, flag_help) in keywords.items():
            sub_parser.add_argument(flag, dest=keyword, help=flag_help)
    return parser


def _config_from_args(args):
    file_values = harness.load_config_file(args.config) if args.config else {}
    overrides = {
        field.name: harness.parse_config_value(field.name, getattr(args, field.name))
        for field in fields(harness.ExperimentConfig)
        if getattr(args, field.name) is not None
    }
    return harness.build_config(file_values, overrides)


def _dispatch(args, cfg):
    _, function, keywords = COMMANDS[args.command]
    kwargs = {
        keyword: harness.parse_value(keyword, kind, getattr(args, keyword))
        for keyword, kind, _ in keywords.values()
        if getattr(args, keyword) is not None
    }
    return getattr(harness, function)(cfg, **kwargs)


def _print_summary(table, stream):
    for line in harness.KINDS[table.kind].summary_lines(table):
        print(line, file=stream)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        table = _dispatch(args, _config_from_args(args))
    except (ConfigError, CsvFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        harness.write_outputs(table, args.out)
    _print_summary(table, sys.stdout)
    if table.has_failures:
        failed = [r for r in table.rows if r.error is not None]
        print(f"warning: {len(failed)} row(s) failed; see results for details", file=sys.stderr)
        for row in failed[:5]:
            print(f"  {row!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
