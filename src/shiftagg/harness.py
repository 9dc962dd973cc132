"""Experiment harness: configuration, seed loops, result tables, plots.

The harness owns everything the aggregation and selection layers must not
see: labeled evaluation splits, reference rows, diagnostics, and artifact
emission. Methods receive only the labeled source sample, unlabeled target
inputs, and a density-ratio estimate; evaluation labels are used strictly
for scoring, references (oracle, target-best), and the corrupted-model
gate of the sensitivity study.
"""

from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, cached_property, partial
import json
import math
import os
from typing import Callable, NamedTuple, get_args, get_origin

import numpy as np

from . import aggregation, metrics, selection
from .datasets import (
    MOONS_ROTATION_DEG,
    SINC_NOISE_STD,
    SINC_RULE_NODES,
    SINC_TARGET_MEAN,
    SINC_TARGET_STD,
    load_csv_instance,
    load_model_csv,
    make_sinc_shift,
    make_transformed_moons,
    sinc_ratio,
)
from .density_ratio import fit_domain_classifier
from .errors import INPUT_FAULTS, ConfigError, CsvFormatError, DimensionError, NumericalError
from .linalg import DEFAULT_RCOND
from .metrics import one_hot, pearson_with_flag, quartiles
from .models import (
    FeatureModel,
    add_corruption,
    corrupt,
    fit_ridge,
    fit_softmax_classifier,
    polynomial_features,
    stack_predictions,
)
from . import plots

# Hyper-parameter grid for the moons classifier sequence; entry i scales the
# weight-decay strength, so the first model (0) is plain source training.
LAMBDA_GRID = (0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0, 10.0)
# Each grid entry multiplies this decay; every polynomial fit of the sinc ladder uses RIDGE.
BASE_WEIGHT_DECAY = 0.5
RIDGE = 1e-6

# METHODS (further down) defines the method names and their order; these are
# subsets of it. Methods that need classification outputs:
CLASSIFICATION_ONLY_METHODS = ("tmv", "tmr", "tcr")
# Methods whose weight vectors are meaningful for the correlation study.
WEIGHT_METHODS = ("iwa", "sor", "tmr", "tcr")

DATASETS = ("sinc", "moons", "csv")

# Stream tags for deriving independent sub-seeds from an experiment seed.
_CORRUPTION_STREAM = 0xC0421
_PICK_STREAM = 0x9B1C5
_RATE_STREAM = 0xA7E51
# The rate check's oracle rule: one draw per run, whatever the seeds.
_RATE_RULE_STREAM = 0x0AC1E

# Redraw budget per corrupted-model slot in the sensitivity study.
MAX_CORRUPTION_REDRAWS = 25
# Rows of corrupted-model noise computed at once (16 models on the moons eval
# split): larger batches raise the sensitivity study's peak memory.
_NOISE_BATCH_ROWS = 32_000


@dataclass
class ExperimentConfig:
    """What a run may vary.

    Each field is both a config-file key and a CLI flag; its annotation
    decides how the text value is parsed (see ``parse_value``). A setting no
    study varies is not a field: it is a constant above (``RIDGE``,
    ``BASE_WEIGHT_DECAY``), a library constant such as
    ``datasets.MOONS_EVAL_SIZE`` or the ratio clip, or the default of the
    library function it feeds, such as the oracle's rcond and the training
    epochs. The density ratio follows ``dataset`` (see ``build_beta``).
    """

    dataset: str = "sinc"
    n: int = 1000
    m: int = 1000
    l: int = 5
    rcond: float = DEFAULT_RCOND
    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = ()
    # instance knobs: how the sinc widths read, how far the moons target turns
    sinc_interpret_std: bool = True
    moons_rotation_deg: float = MOONS_ROTATION_DEG
    # csv-dataset knobs
    source_csv: str = ""
    target_csv: str = ""
    eval_csv: str = ""
    model_csvs: tuple[str, ...] = ()
    # study knobs: corrupted models added (sensitivity; 0 is always run),
    # n = m sample sizes and the size of the per-run noise-free oracle rule
    # (rate-check)
    counts: tuple[int, ...] = (0, 10, 50, 100)
    sizes: tuple[int, ...] = (250, 1000, 4000)
    oracle_draws: int = 100_000

    def validate(self):
        """Raise ConfigError naming every bad field.

        Every float field must be finite; a non-finite one is reported once,
        and its range check is skipped.
        """
        non_finite = [
            f.name
            for f in fields(self)
            if f.type is float and not math.isfinite(getattr(self, f.name))
        ]
        problems = [f"{name}: must be finite, got {getattr(self, name)}" for name in non_finite]
        if self.dataset not in DATASETS:
            problems.append(f"dataset: expected one of {DATASETS}, got {self.dataset!r}")
        for name, low in (("n", 1), ("m", 1), ("l", 1), ("oracle_draws", 1)):
            if getattr(self, name) < low:
                problems.append(f"{name}: must be >= {low}, got {getattr(self, name)}")
        if "rcond" not in non_finite and not 0 <= self.rcond < 1:
            problems.append(f"rcond: must lie in [0, 1), got {self.rcond}")
        if not self.seeds:
            problems.append("seeds: need at least one seed")
        elif len(set(self.seeds)) != len(self.seeds):
            problems.append(f"seeds: each seed may appear once, got {list(self.seeds)}")
        elif min(self.seeds) < 0:
            problems.append(f"seeds: must be non-negative, got {list(self.seeds)}")
        if len(set(self.methods)) != len(self.methods):
            problems.append(f"methods: each method may appear once, got {list(self.methods)}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            problems.append(f"methods: unknown {unknown}; allowed {sorted(METHODS)}")
        for name in ("source_csv", "target_csv", "eval_csv", "model_csvs"):
            if self.dataset != "csv" and getattr(self, name):
                problems.append(f"{name}: only read when dataset = csv, not {self.dataset}")
            elif self.dataset == "csv" and not getattr(self, name) and name != "model_csvs":
                problems.append(f"{name}: required when dataset = csv")
        if any(c < 0 for c in self.counts):
            problems.append(f"counts: must be non-negative, got {list(self.counts)}")
        if len(set(self.sizes)) < 2 or min(self.sizes) < 2:
            problems.append(f"sizes: need at least two distinct sizes >= 2, got {list(self.sizes)}")
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def as_dict(self):
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


def parse_value(key, kind, text):
    """Parse ``text`` as ``kind``: bool, int, float, str or ``tuple[item, ...]``.

    A tuple is written as comma-separated items; errors name ``key``.
    """
    text = text.strip()
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(parse_value(key, item, part) for part in text.split(",") if part.strip())
    if kind is bool:
        if text.lower() in _TRUE:
            return True
        if text.lower() in _FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean (true/false), got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key}: could not parse {text!r} as {kind.__name__}") from None


def parse_config_value(key, text):
    """Parse one ``key = value`` pair into a field value, by the field's annotation."""
    by_name = {f.name: f.type for f in fields(ExperimentConfig)}
    if key not in by_name:
        raise ConfigError(f"{key}: unknown config key")
    return parse_value(key, by_name[key], text)


def load_config_file(path):
    """Read ``key = value`` lines ('#' comments and blank lines ignored; a key may appear once)."""
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
                key, text = line.split("=", 1)
                key = key.strip()
                if key in values:
                    raise ConfigError(f"{path}: line {lineno}: {key}: repeated config key")
                values[key] = parse_config_value(key, text)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    return values


def build_config(file_values=None, overrides=None):
    """Config from defaults, then file values, then explicit overrides (flags win)."""
    merged = {}
    merged.update(file_values or {})
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(merged) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return ExperimentConfig(**merged)


# --- instance / model / ratio builders -------------------------------------


def build_instance(cfg, seed):
    """The seed's instance; a sinc instance's eval split is the target law's quadrature rule."""
    if cfg.dataset == "sinc":
        return make_sinc_shift(cfg.n, cfg.m, seed=seed, interpret_std=cfg.sinc_interpret_std)
    if cfg.dataset == "moons":
        return make_transformed_moons(cfg.n, cfg.m, seed=seed,
                                      rotation_deg=cfg.moons_rotation_deg)
    return load_csv_instance(cfg.source_csv, cfg.target_csv, cfg.eval_csv)


def _sinc_sequence(cfg, instance):
    models = []
    for degree in range(cfg.l):
        feature_fn = partial(polynomial_features, degree=degree)
        base = fit_ridge(feature_fn(instance.source_x), instance.source_y, RIDGE)
        models.append(FeatureModel(feature_fn, base))
    return models


def _moons_sequence(cfg, instance):
    decays = [lam * BASE_WEIGHT_DECAY for lam in LAMBDA_GRID[: cfg.l]]
    labels = instance.source_y.argmax(axis=1)
    return fit_softmax_classifier(instance.source_x, labels, instance.label_dim,
                                  weight_decay=decays)


def build_models(cfg, instance):
    """Model sequence (a list) for an instance; ConfigError if it cannot carry the ladder.

    A prediction table must have the labels' width and every key's row, else CsvFormatError.
    A split file's keys are read as float64, exact only below 2^53 in magnitude, so a larger
    one, which may have been rounded onto another key, is a CsvFormatError too.
    """
    if cfg.dataset == "csv" and cfg.model_csvs:
        splits = instance.source_x, instance.target_x, instance.target_eval_x
        for path, xs in zip((cfg.source_csv, cfg.target_csv, cfg.eval_csv), splits):
            if (np.abs(xs) >= 2.0**53).any():
                raise CsvFormatError("a key at or beyond 2^53 in magnitude, which float64"
                                     " cannot hold exactly", path=path)
        models = [load_model_csv(path) for path in cfg.model_csvs]
        keys = np.concatenate(splits)
        for path, model in zip(cfg.model_csvs, models):
            if model.output_dim != instance.label_dim:
                raise CsvFormatError(f"a table of width {model.output_dim} for labels of width"
                                     f" {instance.label_dim}", path=path)
            try:
                model.predict_many(keys)
            except (KeyError, DimensionError) as exc:
                raise CsvFormatError(exc.args[0], path=path) from None
        return models
    if cfg.dataset == "sinc" or (cfg.dataset == "csv" and instance.label_dim == 1):
        if instance.input_dim != 1:
            raise ConfigError(
                f"dataset: the polynomial ladder needs univariate inputs, got"
                f" {instance.input_dim} columns; give model_csvs for wider inputs"
            )
        return _sinc_sequence(cfg, instance)
    if cfg.l > len(LAMBDA_GRID):
        raise ConfigError(
            f"l: the moons sequence has at most {len(LAMBDA_GRID)} settings, got {cfg.l}"
        )
    return _moons_sequence(cfg, instance)


def build_beta(cfg, instance):
    """The density ratio: analytic for sinc, a domain classifier fitted on the inputs otherwise."""
    if cfg.dataset == "sinc":
        return sinc_ratio(cfg.sinc_interpret_std)
    return fit_domain_classifier(instance.source_x, instance.target_x)


def resolve_methods(cfg, classification):
    """Requested methods plus the SO/TB reference rows, deduplicated.

    Without a request, every method of METHODS that the instance's outputs
    support (``classification``: they are class scores).
    """
    if cfg.methods:
        requested = [*cfg.methods, "source_only", "target_best"]
    else:
        skip = () if classification else CLASSIFICATION_ONLY_METHODS
        requested = [m for m in METHODS if m not in skip]
    return tuple(dict.fromkeys(requested))


# --- result rows and the one table ------------------------------------------------


@dataclass
class ResultRow:
    """One evaluated method on one seed (plus sensitivity's corrupted count)."""

    method: str
    seed: int
    risk: float = math.nan
    accuracy: float = None
    excess: float = math.nan
    count: int = None
    weights: list = None
    gram_condition: float = None
    rank_retained: int = None
    chosen_index: int = None
    scores: list = None
    error: str = None

    def sort_key(self):
        return (self.count if self.count is not None else 0, self.method, self.seed)


@dataclass
class CorrelationRow:
    method: str
    seed: int
    pearson_r: float = math.nan
    degenerate: bool = False
    error: str = None


@dataclass
class RateRow:
    seed: int
    size: int
    deviation: float
    error: str = None


def _csv_line(values, columns):
    """One CSV line of the named values: 17-digit floats, true/false flags, nan for None."""
    cells = []
    for column in columns:
        value = values[column]
        if isinstance(value, bool):
            cells.append("true" if value else "false")
        elif isinstance(value, (str, int)):
            cells.append(str(value))
        else:
            cells.append("nan" if value is None else f"{float(value):.17g}")
    return ",".join(cells)


def _strict_json(value):
    """``value`` with every non-finite float, at any depth, as the string nan, inf or -inf."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


@dataclass
class ResultTable:
    """One study's rows; ``KINDS[kind]`` says how to sort, summarise and plot them."""

    rows: list
    config: dict
    kind: str = "run"
    extra: dict = field(default_factory=dict)

    def sorted_rows(self):
        return sorted(self.rows, key=KINDS[self.kind].sort_key)

    def ok_rows(self):
        return [r for r in self.rows if r.error is None]

    @property
    def has_failures(self):
        return any(r.error is not None for r in self.rows)

    @cached_property
    def summary(self):
        """The kind's statistics, computed once; its "rows" key holds None (see ``write_json``)."""
        return KINDS[self.kind].summarise(self)

    def write_csv(self, path):
        """The kind's columns, one line per sorted row, then the kind's summary lines."""
        kind = KINDS[self.kind]
        body = [vars(row) for row in self.sorted_rows()] + kind.csv_tail(self.summary)
        lines = [",".join(kind.columns)] + [_csv_line(values, kind.columns) for values in body]
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")

    def write_json(self, path):
        """Kind, config and summary; a row leaves out its unset fields, except accuracy."""
        rows = [{name: value for name, value in vars(row).items()
                 if value is not None or name == "accuracy"} for row in self.sorted_rows()]
        payload = {"kind": self.kind, "config": self.config, **self.summary, "rows": rows}
        with open(path, "w") as handle:
            json.dump(_strict_json(payload), handle, indent=2, allow_nan=False)
            handle.write("\n")


# --- per-kind summaries ----------------------------------------------------------


def _groups(rows, key, value):
    """``value(row)`` of each row, listed under ``key(row)`` in row order."""
    groups = {}
    for row in rows:
        groups.setdefault(key(row), []).append(value(row))
    return groups


def aggregates(table):
    """Mean and median of (risk, accuracy, excess) per (count, method) of a run table."""
    groups = _groups(table.ok_rows(), lambda r: (r.count, r.method), lambda r: r)
    out = []
    for (count, method) in sorted(groups, key=lambda k: (k[0] if k[0] is not None else 0, k[1])):
        rows = groups[(count, method)]
        risks = np.array([r.risk for r in rows], dtype=float)
        accs = (
            np.array([r.accuracy for r in rows], dtype=float)
            if all(r.accuracy is not None for r in rows)
            else None
        )
        excesses = np.array([r.excess for r in rows], dtype=float)
        for stat, reduce in (("mean", np.mean), ("median", lambda v: quartiles(v)[1])):
            out.append(
                {
                    "method": method,
                    "count": count,
                    "stat": stat,
                    "risk": float(reduce(risks)),
                    "accuracy": float(reduce(accs)) if accs is not None else None,
                    "excess": float(reduce(excesses)),
                }
            )
    return out


def _correlations(table):
    """Each method's correlations over the successful rows."""
    return _groups(table.ok_rows(), lambda r: r.method, lambda r: r.pearson_r)


def _deviations(table):
    """Each size's deviations over the successful rows."""
    return _groups(table.ok_rows(), lambda r: r.size, lambda r: r.deviation)


def _aggregate_summary(table):
    summary = {"rows": None, "aggregates": aggregates(table)}
    if table.extra:
        summary["extra"] = table.extra
    return summary


def _correlation_summary(table):
    """Quartiles of the correlation per method."""
    groups = _correlations(table)
    return {"rows": None, "summary": [
        dict(zip(("method", "q25", "median", "q75"), (method, *quartiles(groups[method]))))
        for method in sorted(groups)
    ]}


def _rate_summary(table):
    """Median deviation per size, the log-log slope of the medians, and whether they fall."""
    deviations = _deviations(table)
    medians = {size: quartiles(deviations.get(size, []))[1] for size in table.extra["sizes"]}
    values = list(medians.values())
    logs = np.log(values)
    summary = {
        "sizes": list(table.extra["sizes"]),
        "rows": None,
        "medians": medians,
        "slope": (float(np.polyfit(np.log(list(medians)), logs, 1)[0])
                  if np.all(np.isfinite(logs)) else math.nan),
        "strictly_decreasing": all(later < earlier for earlier, later in zip(values, values[1:])),
    }
    if "c_star" in table.extra:
        summary["extra"] = {"c_star": table.extra["c_star"]}
    return summary


def _aggregate_tail(summary):
    """Aggregate CSV values; the statistic name sits in the seed column."""
    return [{**agg, "seed": agg["stat"]} for agg in summary["aggregates"]]


def _aggregate_lines(summary):
    return [
        ("" if agg["count"] is None else f"count={agg['count']} ")
        + f"{agg['method']}: risk={agg['risk']:.6g} excess={agg['excess']:.6g}"
        + ("" if agg["accuracy"] is None else f" accuracy={agg['accuracy']:.4f}")
        for agg in summary["aggregates"] if agg["stat"] == "median"
    ]


def _correlation_lines(summary):
    return [
        f"{entry['method']}: median_r={entry['median']:.4f} "
        f"iqr=[{entry['q25']:.4f}, {entry['q75']:.4f}]"
        for entry in summary["summary"]
    ]


def _rate_lines(summary):
    lines = [f"size={size} median_deviation={m:.6g}" for size, m in summary["medians"].items()]
    lines.append(
        f"slope={summary['slope']:.4f} strictly_decreasing={summary['strictly_decreasing']}"
    )
    return lines


# --- per-kind plot panels ----------------------------------------------------------


def scaled_weights(weights):
    """Display scaling: w / sum |w| (identity for an all-zero vector)."""
    weights = np.asarray(weights, dtype=float)
    total = np.abs(weights).sum()
    return weights / total if total > 0 else weights


def _run_plots(table, plots_dir):
    aggs = [a for a in table.summary["aggregates"] if a["stat"] == "median"]
    if aggs:
        labels = [a["method"] for a in aggs]
        plots.bar_chart(
            os.path.join(plots_dir, "risk_by_method.svg"),
            labels,
            [a["risk"] for a in aggs],
            title="Median target risk by method",
            y_label="target risk",
        )
        if all(a["accuracy"] is not None for a in aggs):
            plots.bar_chart(
                os.path.join(plots_dir, "accuracy_by_method.svg"),
                labels,
                [a["accuracy"] for a in aggs],
                title="Median target accuracy by method",
                y_label="target accuracy",
            )
    weighted = [r for r in table.ok_rows() if r.weights is not None]
    by_method = _groups(weighted, lambda r: r.method, lambda r: scaled_weights(r.weights))
    for method, weight_rows in sorted(by_method.items()):
        stacked = np.vstack(weight_rows)
        mean_weights = stacked.mean(axis=0)
        plots.bar_chart(
            os.path.join(plots_dir, f"weights_{method}.svg"),
            [str(i) for i in range(mean_weights.shape[0])],
            list(mean_weights),
            title=f"Mean scaled aggregation weights: {method}",
            y_label="scaled weight",
        )


def _sensitivity_plots(table, plots_dir):
    counts = sorted({r.count for r in table.ok_rows() if r.count is not None})
    scored = [r for r in table.ok_rows() if r.accuracy is not None]
    accuracies = _groups(scored, lambda r: (r.method, r.count), lambda r: r.accuracy)
    samples = {
        method: [accuracies[(method, count)] for count in counts]
        for method in sorted({method for method, _ in accuracies})
        if counts and all((method, count) in accuracies for count in counts)
    }
    if samples:
        plots.line_chart(
            os.path.join(plots_dir, "sensitivity.svg"),
            counts,
            samples,
            title="Target accuracy vs corrupted models added (median, IQR band)",
            x_label="corrupted models added",
            y_label="target accuracy",
        )


def _correlation_plots(table, plots_dir):
    groups = _correlations(table)
    if groups:
        labels = sorted(groups)
        plots.box_plot(
            os.path.join(plots_dir, "correlation.svg"),
            labels,
            [groups[label] for label in labels],
            title="Weight vs per-model accuracy correlation",
            y_label="Pearson r",
        )


def _rate_plots(table, plots_dir):
    deviations = dict(sorted(_deviations(table).items()))
    if not deviations:
        return
    plots.line_chart(
        os.path.join(plots_dir, "rate.svg"),
        list(deviations),
        {"iwa": list(deviations.values())},
        title="Weight-vector deviation from oracle vs sample size",
        x_label="n = m",
        y_label="||c_tilde - c_star||",
        log_x=True,
    )


class TableKind(NamedTuple):
    """What differs between the studies' tables; everything else is ResultTable's."""

    sort_key: Callable  # row -> sort key
    columns: tuple  # CSV header, named after the row fields
    summarise: Callable  # table -> summary: the results.json keys after "config"
    csv_tail: Callable  # summary -> values of the CSV lines after the rows, by column
    summary_lines: Callable  # summary -> CLI summary lines
    plot: Callable  # (table, plots_dir) -> None


# Column order of the run study's results.csv; sensitivity prefixes "count".
CSV_COLUMNS = ("method", "risk", "accuracy", "excess", "seed")


KINDS = {
    "run": TableKind(
        ResultRow.sort_key, CSV_COLUMNS, _aggregate_summary, _aggregate_tail,
        _aggregate_lines, _run_plots,
    ),
    "sensitivity": TableKind(
        ResultRow.sort_key, ("count",) + CSV_COLUMNS, _aggregate_summary, _aggregate_tail,
        _aggregate_lines, _sensitivity_plots,
    ),
    "correlation": TableKind(
        lambda r: (r.method, r.seed), ("method", "pearson_r", "degenerate", "seed"),
        _correlation_summary, lambda summary: [], _correlation_lines, _correlation_plots,
    ),
    "rate": TableKind(
        lambda r: (r.size, r.seed), ("size", "deviation", "seed"), _rate_summary,
        lambda summary: [
            {"size": size, "deviation": m, "seed": "median"}
            for size, m in summary["medians"].items()
        ],
        _rate_lines, _rate_plots,
    ),
}


# --- methods ---------------------------------------------------------------------


# Each method maps the seed context to (weights, diagnostics); the diagnostics
# name ResultRow fields. A method without a weight vector returns None and its
# eval predictions under "predictions".
# The aggregation and selection functions are looked up on their modules at
# call time, so anything that rebinds them there (a tracer) sees every call.


def _solved(result):
    """A least-squares ``AggregationResult`` as (weights, its other fields as diagnostics)."""
    diagnostics = dict(vars(result))
    return diagnostics.pop("weights"), diagnostics


def _iwa(ctx):
    inst = ctx.instance
    return _solved(aggregation.iwa(
        ctx.models, inst.source_x, inst.source_y, inst.target_x, ctx.beta, ctx.cfg.rcond,
        source_predictions=ctx.source_stack, target_predictions=ctx.target_stack,
    ))


def _sor(ctx):
    return _solved(aggregation.sor(ctx.source_stack, ctx.instance.source_y, ctx.cfg.rcond))


def _tmv(ctx):
    votes = aggregation.majority_votes(ctx.eval_stack)
    return None, {"predictions": one_hot(votes, ctx.eval_stack.shape[2])}


def _pseudo_label(name, ctx):
    return _solved(getattr(aggregation, name)(ctx.target_stack, ctx.cfg.rcond))


def _selected(name, ctx):
    inst = ctx.instance
    result = getattr(selection, name)(
        ctx.source_stack, inst.source_y, ctx.beta.weights(inst.source_x)
    )
    weights = one_hot(result.chosen_index, len(ctx.models))
    scores = [float(s) for s in result.scores]
    return weights, {"chosen_index": result.chosen_index, "scores": scores}


def _target_best(ctx):
    if ctx.classification:
        best = int(np.argmax(ctx.model_accuracies()))
    else:
        best = int(np.argmin([ctx.risk(preds) for preds in ctx.eval_stack]))
    return one_hot(best, len(ctx.models)), {}


METHODS = {
    "iwa": _iwa,
    "sor": _sor,
    "tmv": _tmv,
    "tmr": partial(_pseudo_label, "tmr"),
    "tcr": partial(_pseudo_label, "tcr"),
    "iwv": partial(_selected, "iwv_select"),
    "dev": partial(_selected, "dev_select"),
    "oracle": lambda ctx: _solved(ctx.oracle),
    "source_only": lambda ctx: (one_hot(0, len(ctx.models)), {}),
    "target_best": _target_best,
}


class _SeedContext:
    """Everything shared by the methods evaluated on one (instance, models) pair.

    ``stacks`` holds the (source, target, eval) prediction stacks of
    ``models``, and ``accuracies`` each model's eval accuracy when the caller
    has scored them already. The oracle is solved on first use. Risks follow
    the eval split: a sample's mean squared error, or on a quadrature rule
    the exact target risk, noise variance included.
    """

    def __init__(self, cfg, instance, models, beta, stacks, accuracies=None):
        self.cfg = cfg
        self.instance = instance
        self.models = models
        self.beta = beta
        self.classification = instance.label_dim >= 2
        self.source_stack, self.target_stack, self.eval_stack = stacks
        self.eval_y = np.asarray(instance.target_eval_y, dtype=float)
        self.eval_labels = self.eval_y.argmax(axis=1) if self.classification else None
        self.accuracies = accuracies

    @cached_property
    def oracle(self):
        inst = self.instance
        return aggregation.oracle_weights(
            self.eval_stack, inst.target_eval_y, weights=inst.target_eval_weights
        )

    @cached_property
    def oracle_risk(self):
        return self.risk(aggregation.aggregate_predictions(self.oracle.weights, self.eval_stack))

    def risk(self, preds):
        """Target risk of eval-split predictions."""
        inst = self.instance
        return metrics.risk(preds, self.eval_y, inst.target_eval_weights) + inst.eval_noise_var

    def model_accuracies(self):
        """Each model's accuracy on the evaluation labels."""
        if self.accuracies is None:
            return metrics.accuracies(self.eval_stack, self.eval_labels)
        return self.accuracies

    def evaluate(self, blank):
        """``blank``, one method's unfilled row, filled in with that method's result here."""
        method = blank.method
        weights, diagnostics = METHODS[method](self)
        preds = diagnostics.pop("predictions", None)
        if preds is None:
            preds = aggregation.aggregate_predictions(weights, self.eval_stack)
        risk = self.risk(preds)
        if not math.isfinite(risk) or (weights is not None and not np.all(np.isfinite(weights))):
            raise NumericalError(f"{method} produced a non-finite risk or weight vector")
        return replace(
            blank,
            risk=risk,
            accuracy=metrics.accuracy(preds, self.eval_labels) if self.classification else None,
            excess=risk - self.oracle_risk,
            weights=None if weights is None else [float(w) for w in weights],
            **diagnostics,
        )


# --- the seed loop -----------------------------------------------------------------


def _study(cfg, kind, prepare, blanks, fill, extra=None):
    """A ``kind`` table over the seeds of ``cfg``: ``fill(prepare(seed), blank)`` per row.

    ``blanks(seed)`` lists a seed's rows once, unfilled, from the settings
    alone. An input fault (``INPUT_FAULTS``) stops the run. Any other error
    fails the rows it kept from being computed, with its description as
    their error: every row of the seed when ``prepare`` raised, else the one
    row whose ``fill`` did. The other rows still run.
    """

    def attempt(compute, *args):
        try:
            return compute(*args), None
        except INPUT_FAULTS:
            raise
        except Exception as exc:  # failure isolation
            return None, f"{type(exc).__name__}: {exc}"

    def seed_rows(seed):
        prepared, failed = attempt(prepare, seed)
        for blank in blanks(seed):
            row, error = (None, failed) if failed else attempt(fill, prepared, blank)
            yield row if error is None else replace(blank, error=error)

    rows = [row for seed in cfg.seeds for row in seed_rows(seed)]
    return ResultTable(rows=rows, config=cfg.as_dict(), kind=kind, extra=extra or {})


def _prepare(cfg, instance):
    """The instance's context: model sequence, density ratio and prediction stacks.

    Each model is predicted once per split here.
    """
    models = build_models(cfg, instance)
    beta = build_beta(cfg, instance)
    stacks = tuple(
        stack_predictions(models, xs)
        for xs in (instance.source_x, instance.target_x, instance.target_eval_x)
    )
    return _SeedContext(cfg, instance, models, beta, stacks)


def _contexts(cfg, study=None):
    """``(seed -> context, classification)`` for one run of a study, or a ConfigError.

    Whether the outputs are class scores (moons, or a CSV instance with two
    or more label columns) is decided here, once; on other outputs a
    ``study`` or a method of ``CLASSIFICATION_ONLY_METHODS`` is refused. A
    CSV instance is one fixed sample: it is read here, once, and its context
    is prepared on first use and shared. Only the sensitivity study draws
    anything from the seed; the others refuse a second seed on a CSV
    instance before any file is read, rather than repeat the same rows.
    """
    instance = None
    if cfg.dataset == "csv":
        if study != "sensitivity" and len(cfg.seeds) > 1:
            raise ConfigError(
                f"seeds: a CSV instance is one fixed sample, so every seed would repeat the same"
                f" rows; give one seed, got {list(cfg.seeds)}"
            )
        instance = build_instance(cfg, cfg.seeds[0])
    classification = cfg.dataset == "moons" if instance is None else instance.label_dim >= 2
    bad = [m for m in cfg.methods if m in CLASSIFICATION_ONLY_METHODS]
    if not classification and (study or bad):
        needs = f"dataset: the {study} study needs" if study else f"methods: {bad} need"
        raise ConfigError(f"{needs} classification outputs; {cfg.dataset} labels have one column")
    if instance is None:
        return (lambda seed: _prepare(cfg, build_instance(cfg, seed))), classification
    shared = cache(partial(_prepare, cfg, instance))
    return (lambda seed: shared()), classification


def run_experiment(cfg):
    """One table of (method, seed) evaluation rows plus aggregates.

    The methods are resolved once, before the first seed: without a request,
    every method the outputs support (see ``_contexts``).
    """
    cfg.validate()
    context_of, classification = _contexts(cfg)
    methods = resolve_methods(cfg, classification)
    extra = {"target_risk": _sinc_target_risk()} if cfg.dataset == "sinc" else None
    return _study(cfg, "run", context_of, lambda seed: [ResultRow(m, seed) for m in methods],
                  _SeedContext.evaluate, extra)


def _sinc_target_risk():
    """How a sinc run computes its risks: the quadrature rule of its target law."""
    return {
        "rule": "gauss-hermite",
        "nodes": SINC_RULE_NODES,
        "target_mean": SINC_TARGET_MEAN,
        "target_std": SINC_TARGET_STD,
        "noise_var": SINC_NOISE_STD**2,
    }


# --- sensitivity study -------------------------------------------------------


def _subseeds(stream, seed, count):
    """``count`` independent 64-bit seeds for one stream of an experiment seed."""
    ss = np.random.SeedSequence([stream, int(seed)])
    return [int(v) for v in ss.generate_state(count, dtype=np.uint64)]


def _corrupted_rows(stack, xs, picks, corrupted):
    """``stack[picks]`` with the noise of ``corrupted`` added to its last blocks.

    ``stack`` holds the base models' predictions on ``xs``, and the last
    ``len(corrupted)`` picks are those models' base indices. The gather is
    the one allocation; the noise is added to it in place, at most
    _NOISE_BATCH_ROWS rows of noise per call of ``add_corruption``.
    """
    rows = stack[picks]
    noisy = rows[len(rows) - len(corrupted) :]
    step = max(1, _NOISE_BATCH_ROWS // max(1, xs.shape[0]))
    for start in range(0, len(corrupted), step):
        add_corruption(noisy[start : start + step], corrupted[start : start + step], xs)
    return rows


def _draw_corrupted(ctx, seed, total):
    """Corrupted models of ``ctx.models`` with the accuracy redraw gate.

    Returns (models, picks, eval stack, accuracies, gate stats): ``picks``
    holds each kept model's base index into ``ctx.models``, the eval stack
    holds ``ctx.eval_stack`` followed by the predictions the gate computed
    for each kept model, in slot order, and ``accuracies`` each model's
    accuracy on that stack. The candidate sequence does not depend on which
    candidates pass, so it is drawn and scored a batch at a time, leaving
    at most one batch over-drawn. A kept model is flagged when its accuracy
    is below the threshold; otherwise its slot ran out of redraws.
    """
    models, base_eval, eval_x = ctx.models, ctx.eval_stack, ctx.instance.target_eval_x
    base = len(models)

    def candidates():
        pick_rng = np.random.default_rng(np.random.SeedSequence([_PICK_STREAM, int(seed)]))
        cseeds = _subseeds(_CORRUPTION_STREAM, seed, total * MAX_CORRUPTION_REDRAWS)
        step = max(1, _NOISE_BATCH_ROWS // max(1, eval_x.shape[0]))
        for start in range(0, len(cseeds), step):
            chunk = cseeds[start : start + step]
            picks = pick_rng.integers(base, size=len(chunk)).tolist()
            batch = [corrupt(models[p], s) for p, s in zip(picks, chunk)]
            preds = _corrupted_rows(base_eval, eval_x, picks, batch)
            yield from zip(picks, batch, preds, metrics.accuracies(preds, ctx.eval_labels))

    accuracies = np.empty(base + total)
    accuracies[:base] = ctx.model_accuracies()
    threshold = 0.8 * float(accuracies[0])
    stream = candidates()
    drawn, picks = [], []
    eval_stack = np.empty((base + total, *base_eval.shape[1:]))
    eval_stack[:base] = base_eval
    for slot in range(base, base + total):
        for _ in range(MAX_CORRUPTION_REDRAWS):
            pick, candidate, preds, acc = next(stream)
            if acc < threshold:
                break
        drawn.append(candidate)
        picks.append(pick)
        eval_stack[slot] = preds
        accuracies[slot] = acc
    stats = {
        "seed": int(seed),
        "so_accuracy": float(accuracies[0]),
        "threshold": threshold,
        "flagged": int(np.sum(accuracies[base:] < threshold)),
        "total": total,
    }
    return drawn, picks, eval_stack, accuracies, stats


def run_sensitivity(cfg):
    """Re-run the methods while appending corrupted models to the sequence.

    Corrupted models take a uniformly chosen base model plus unit Gaussian
    noise on half of its output coordinates, and are redrawn (bounded
    retries) until target accuracy falls below 80% of the source-only
    model's accuracy. ``cfg.counts`` always gains the 0 baseline.

    Every base model is predicted and scored once per seed. Every corrupted
    row comes from ``_corrupted_rows``, its base's row plus its noise: the
    gate's fill the eval stack and are scored there, and the kept models'
    extend the source and target stacks. Each count evaluates the leading
    slices of those stacks and scores.
    """
    cfg.validate()
    counts = sorted({0, *cfg.counts})
    context_of, classification = _contexts(cfg, "sensitivity")
    methods = resolve_methods(cfg, classification)
    gate_stats = []

    def prepare(seed):
        """Each count's context, on the leading slices of the seed's extended stacks."""
        ctx = context_of(seed)
        instance, models, beta = ctx.instance, ctx.models, ctx.beta
        corrupted, picks, eval_stack, accuracies, stats = _draw_corrupted(ctx, seed, max(counts))
        gate_stats.append(stats)
        full = models + corrupted
        order = [*range(len(models)), *picks]
        source = _corrupted_rows(ctx.source_stack, instance.source_x, order, corrupted)
        target = _corrupted_rows(ctx.target_stack, instance.target_x, order, corrupted)
        stacks = (source, target, eval_stack)

        def prefix(size):
            return _SeedContext(cfg, instance, full[:size], beta,
                                tuple(stack[:size] for stack in stacks), accuracies[:size])

        return {count: prefix(len(models) + count) for count in counts}

    return _study(
        cfg, "sensitivity", prepare,
        lambda seed: [ResultRow(m, seed, count=c) for c in counts for m in methods],
        lambda contexts, blank: contexts[blank.count].evaluate(blank),
        {"corruption_gate": gate_stats, "added_counts": counts},
    )


# --- correlation study ---------------------------------------------------------


def run_correlation(cfg):
    """Correlate aggregation weights with per-model target accuracies.

    Only weight-producing aggregation methods participate (majority vote has
    no weight vector), on a sequence of at least two models. Degenerate
    (constant) weight vectors are flagged and contribute a correlation of 0.
    No row reads the oracle, so none is solved.
    """
    cfg.validate()
    methods = tuple(cfg.methods) or WEIGHT_METHODS
    bad = [m for m in methods if m not in WEIGHT_METHODS]
    if bad:
        raise ConfigError(
            f"methods: correlation needs weight-producing methods {WEIGHT_METHODS}, got {bad}"
        )
    context_of, _ = _contexts(cfg, "correlation")
    models = len(cfg.model_csvs) or cfg.l
    if models < 2:
        key = "model_csvs" if cfg.model_csvs else "l"
        raise ConfigError(f"{key}: correlation needs at least two models, got {models}")

    def prepare(seed):
        ctx = context_of(seed)
        return ctx, ctx.model_accuracies()

    def fill(prepared, blank):
        ctx, accuracies = prepared
        weights, _ = METHODS[blank.method](ctx)
        pearson_r, degenerate = pearson_with_flag(weights, accuracies)
        return replace(blank, pearson_r=pearson_r, degenerate=degenerate)

    return _study(cfg, "correlation", prepare,
                  lambda seed: [CorrelationRow(m, seed) for m in methods], fill)


# --- convergence-rate check ---------------------------------------------------


def _rate_rule(cfg):
    """The rate check's oracle rule: (inputs, labels) of cfg.oracle_draws target draws.

    The inputs come from their own stream, ``_RATE_RULE_STREAM``, so every
    seed of a run, and every run, shares them; the labels are the noise-free
    sinc, the labels' conditional mean.
    """
    rng = np.random.default_rng(_RATE_RULE_STREAM)
    rule_x = rng.normal(SINC_TARGET_MEAN, SINC_TARGET_STD, size=(cfg.oracle_draws, 1))
    return rule_x, np.sinc(rule_x)


def _rate_gauss_rule(rule_x, rule_y, count):
    """(nodes, labels, weights) of the count-node Gauss rule of the draws' empirical law.

    A Stieltjes recurrence over the draws gives the recurrence coefficients
    of their orthonormal polynomials p_k and the projection coefficients
    mean(p_k * y); the Jacobi matrix's eigenvectors give the nodes, the
    weights and that projection's values at the nodes, which are the labels.
    For polynomials f, g of degree < count the rule reproduces mean(f * g)
    and mean(f * y) over the draws exactly, so a least squares of a ladder
    of such models on it equals the one on all the draws. Needs count <= the
    number of draws; with count equal to it the rule is the draws.
    """
    x, y = rule_x[:, 0], rule_y[:, 0]
    alpha, coef, off = np.empty(count), np.empty(count), np.zeros(count)
    prev, p = np.zeros_like(x), np.ones_like(x)
    for k in range(count):
        alpha[k] = np.mean(x * p * p)
        coef[k] = np.mean(p * y)
        if k + 1 < count:
            q = (x - alpha[k]) * p - off[k] * prev
            off[k + 1] = math.sqrt(np.mean(q * q))
            prev, p = p, q / off[k + 1]
    jacobi = np.diag(alpha) + np.diag(off[1:], 1) + np.diag(off[1:], -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes[:, None], (coef @ vectors / vectors[0])[:, None], vectors[0] ** 2


def _rate_nodes(cfg):
    """Nodes of the rate check's Gauss rule: one per ladder model, at most one per draw."""
    return min(cfg.l, cfg.oracle_draws)


def _rate_oracle(cfg):
    """How a rate check computes c_star, for its results.json."""
    return {
        "rule": "monte-carlo",
        "draws": cfg.oracle_draws,
        "nodes": _rate_nodes(cfg),
        "labels": "noise-free sinc",
        "stream": _RATE_RULE_STREAM,
        "target_mean": SINC_TARGET_MEAN,
        "target_std": SINC_TARGET_STD,
    }


def run_rate_check(cfg):
    """Convergence of the importance-weighted weights to the oracle weights.

    The model sequence is trained once per seed on an independent source
    draw (size cfg.n) and held fixed; c_star is its least-squares fit on the
    run's oracle rule, cfg.oracle_draws target inputs drawn once per run and
    labeled with the noise-free sinc (``_rate_rule``), solved exactly on the
    rule's l-node Gauss rule (``_rate_gauss_rule``), since every ladder model
    is a polynomial of degree < l; c_tilde is recomputed on fresh
    source/target samples of each size in cfg.sizes. Both solves use
    cfg.rcond so the comparison is apples to apples. Requires the sinc
    dataset, whose ratio is analytic.
    """
    cfg.validate()
    if cfg.dataset != "sinc":
        raise ConfigError("rate check requires dataset = sinc")
    sizes = tuple(sorted(set(cfg.sizes)))
    beta = sinc_ratio(cfg.sinc_interpret_std)
    nodes, labels, weights = _rate_gauss_rule(*_rate_rule(cfg), _rate_nodes(cfg))

    def sinc(n, m, seed):
        return make_sinc_shift(n, m, seed, interpret_std=cfg.sinc_interpret_std)

    def deviations(seed):
        """Each size's deviation: the sizes share the seed's models and c_star, so fail together."""
        # Subseed 0 draws the models' sample, 2 onward the size draws; 1 is unused.
        subseeds = _subseeds(_RATE_STREAM, seed, 2 + len(sizes))
        models = _sinc_sequence(cfg, sinc(cfg.n, 1, subseeds[0]))
        c_star = aggregation.oracle_weights(
            stack_predictions(models, nodes), labels, cfg.rcond, weights
        ).weights
        found = {}
        for size, sub in zip(sizes, subseeds[2:]):
            inst = sinc(size, size, sub)
            c_tilde = aggregation.iwa(
                models, inst.source_x, inst.source_y, inst.target_x, beta, cfg.rcond
            ).weights
            found[size] = float(np.linalg.norm(c_tilde - c_star))
        return found

    return _study(
        cfg, "rate", deviations,
        lambda seed: [RateRow(seed, size, math.nan) for size in sizes],
        lambda found, blank: replace(blank, deviation=found[blank.size]),
        {"sizes": sizes, "c_star": _rate_oracle(cfg)},
    )


# --- artifact emission ---------------------------------------------------------


def write_outputs(table, out_dir):
    """results.csv, results.json, and the table kind's plots/*.svg (with CSVs) under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    table.write_csv(os.path.join(out_dir, "results.csv"))
    table.write_json(os.path.join(out_dir, "results.json"))
    plots_dir = os.path.join(out_dir, "plots")
    os.makedirs(plots_dir, exist_ok=True)
    KINDS[table.kind].plot(table, plots_dir)
