"""Command-line front end for the experiment harness.

Subcommands: ``run`` (method comparison over seeds), ``sensitivity``
(corrupted-model robustness), ``correlate`` (weights vs per-model target
accuracy), and ``rate-check`` (convergence of the learned weights to the
oracle weights). Every subcommand takes the same settings: each
``ExperimentConfig`` field ``k`` (the study knobs ``counts``, ``sizes`` and
``oracle_draws`` included) is the flag ``--k`` (underscores as dashes) and
takes the config-file value syntax; flags override values from an optional
``--config`` file, and the results record every field.

Exit codes: 0 on success, 1 for configuration problems (usage errors
included), 2 when the runs completed but some seeds or methods failed.
"""

import argparse
from dataclasses import fields
import sys

from . import harness
from .errors import ConfigError, CsvFormatError

# Subcommand -> (help, name of the harness function it runs on the config).
# The function is looked up on ``harness`` at call time, so a rebound
# ``harness.run_*`` is the one that runs.
COMMANDS = {
    "run": ("compare aggregation and selection methods over seeds", "run_experiment"),
    "sensitivity": ("robustness to appended corrupted models", "run_sensitivity"),
    "correlate": ("correlate weights with per-model target accuracy", "run_correlation"),
    "rate-check": ("weight-vector convergence against sample size", "run_rate_check"),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, the code of a configuration error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="shiftagg",
        description="Aggregate prediction models for a shifted target domain.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in COMMANDS.items():
        sub_parser = sub.add_parser(command, help=help_text, allow_abbrev=False)
        sub_parser.add_argument("--config", help="key = value config file")
        sub_parser.add_argument("--out", help="output directory for results and plots")
        for field in fields(harness.ExperimentConfig):
            sub_parser.add_argument(
                "--" + field.name.replace("_", "-"),
                help=f"config key {field.name} (default {field.default!r})",
            )
    return parser


def _config_from_args(args):
    file_values = harness.load_config_file(args.config) if args.config else {}
    overrides = {
        field.name: harness.parse_config_value(field.name, getattr(args, field.name))
        for field in fields(harness.ExperimentConfig)
        if getattr(args, field.name) is not None
    }
    return harness.build_config(file_values, overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        table = getattr(harness, COMMANDS[args.command][1])(_config_from_args(args))
    except (ConfigError, CsvFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        harness.write_outputs(table, args.out)
    for line in harness.KINDS[table.kind].summary_lines(table):
        print(line)
    if table.has_failures:
        failed = [r for r in table.rows if r.error is not None]
        print(f"warning: {len(failed)} row(s) failed; see results for details", file=sys.stderr)
        for row in failed[:5]:
            print(f"  {row!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
