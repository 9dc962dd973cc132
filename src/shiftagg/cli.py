"""Command-line front end for the experiment harness.

Subcommands: ``run`` (method comparison over seeds), ``sensitivity``
(corrupted-model robustness), ``correlate`` (weights vs per-model target
accuracy), and ``rate-check`` (convergence of the learned weights to the
oracle weights). Flags override values from an optional ``--config`` file.

Exit codes: 0 on success, 1 for configuration problems, 2 when the runs
completed but some seeds or methods failed.
"""

import argparse
import sys

from . import harness
from .errors import ConfigError, CsvFormatError


def _int_list(text):
    return harness._parse_int_tuple(text, "value")


def _str_list(text):
    return harness._parse_str_tuple(text, "value")


def _add_shared_flags(parser):
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--dataset", choices=harness.DATASETS, default=None)
    parser.add_argument("--n", type=int, default=None, help="labeled source sample size")
    parser.add_argument("--m", type=int, default=None, help="unlabeled target sample size")
    parser.add_argument("--eval-size", type=int, default=None, help="labeled evaluation draws")
    parser.add_argument("--l", type=int, default=None, help="number of models in the sequence")
    parser.add_argument("--beta", choices=harness.BETAS, default=None, help="density-ratio estimator")
    parser.add_argument("--beta-bound", type=float, default=None, help="clip for the density ratio")
    parser.add_argument("--rcond", type=float, default=None, help="relative eigenvalue cutoff")
    parser.add_argument("--oracle-rcond", type=float, default=None, help="cutoff for the oracle solve")
    parser.add_argument("--seeds", type=_int_list, default=None, help="comma-separated seeds")
    parser.add_argument("--methods", type=_str_list, default=None, help="comma-separated methods")
    parser.add_argument("--out", default=None, help="output directory for results and plots")
    parser.add_argument("--sinc-widths", choices=("std", "variance"), default=None,
                        help="read the sinc domain widths as standard deviations or variances")
    parser.add_argument("--moons-noise", type=float, default=None, help="moons jitter scale")
    parser.add_argument("--ridge", type=float, default=None, help="ridge strength for regression fits")
    parser.add_argument("--source-csv", default=None)
    parser.add_argument("--target-csv", default=None)
    parser.add_argument("--eval-csv", default=None)
    parser.add_argument("--model-csv", action="append", default=None,
                        help="precomputed model prediction table (repeatable)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shiftagg",
        description="Aggregate prediction models for a shifted target domain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="compare aggregation and selection methods over seeds")
    sens = sub.add_parser("sensitivity", help="robustness to appended corrupted models")
    sens.add_argument("--counts", type=_int_list, default=None,
                      help="comma-separated corrupted-model counts (0 baseline always included)")
    corr = sub.add_parser("correlate", help="correlate weights with per-model target accuracy")
    rate = sub.add_parser("rate-check", help="weight-vector convergence against sample size")
    rate.add_argument("--sizes", type=_int_list, default=None, help="comma-separated n = m sizes")
    rate.add_argument("--oracle-draws", type=int, default=None,
                      help="labeled target draws used for the oracle weights")
    for command in (run, sens, corr, rate):
        _add_shared_flags(command)
    return parser


def _config_from_args(args):
    file_values = harness.load_config_file(args.config) if args.config else {}
    overrides = {
        "dataset": args.dataset,
        "n": args.n,
        "m": args.m,
        "eval_size": args.eval_size,
        "l": args.l,
        "beta": args.beta,
        "beta_bound": args.beta_bound,
        "rcond": args.rcond,
        "oracle_rcond": args.oracle_rcond,
        "seeds": args.seeds,
        "methods": args.methods,
        "out": args.out,
        "moons_noise": args.moons_noise,
        "ridge": args.ridge,
        "source_csv": args.source_csv,
        "target_csv": args.target_csv,
        "eval_csv": args.eval_csv,
    }
    if args.sinc_widths is not None:
        overrides["sinc_interpret_std"] = args.sinc_widths == "std"
    if args.model_csv:
        overrides["model_csvs"] = tuple(args.model_csv)
    return harness.build_config(file_values, overrides)


def _dispatch(args, cfg):
    if args.command == "sensitivity":
        if args.counts is not None:
            return harness.run_sensitivity(cfg, added_counts=args.counts)
        return harness.run_sensitivity(cfg)
    if args.command == "correlate":
        return harness.run_correlation(cfg)
    if args.command == "rate-check":
        kwargs = {}
        if args.sizes is not None:
            kwargs["sizes"] = args.sizes
        if args.oracle_draws is not None:
            kwargs["oracle_draws"] = args.oracle_draws
        return harness.run_rate_check(cfg, **kwargs)
    return harness.run_experiment(cfg)


def _print_summary(table, stream):
    for line in harness.KINDS[table.kind].summary_lines(table):
        print(line, file=stream)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        cfg.validate()
        table = _dispatch(args, cfg)
    except (ConfigError, CsvFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        harness.write_outputs(table, cfg.out)
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
