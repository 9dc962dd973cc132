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
    SINC_NOISE_STD,
    SINC_RULE_NODES,
    SINC_TARGET_MEAN,
    load_csv_instance,
    make_sinc_shift,
    make_transformed_moons,
    one_hot,
    sinc_ratio,
    sinc_sigmas,
)
from .density_ratio import fit_domain_classifier
from .errors import INPUT_FAULTS, ConfigError, NumericalError
from .metrics import CSV_COLUMNS, pearson_with_flag
from .models import (
    FeatureModel,
    PrecomputedModel,
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
# Rows of the labeled moons evaluation draw (sinc scores on SINC_RULE_NODES).
MOONS_EVAL_SIZE = 2000

# METHODS (further down) defines the method names and their order; these are
# subsets of it. Methods that need classification outputs:
CLASSIFICATION_ONLY_METHODS = ("tmv", "tmr", "tcr")
# Methods whose weight vectors are meaningful for the correlation study.
WEIGHT_METHODS = ("iwa", "sor", "tmr", "tcr")

DATASETS = ("sinc", "moons", "csv")
BETAS = ("analytic", "learned")

# Stream tags for deriving independent sub-seeds from an experiment seed.
_CORRUPTION_STREAM = 0xC0421
_PICK_STREAM = 0x9B1C5
_RATE_STREAM = 0xA7E51

# Redraw budget per corrupted-model slot in the sensitivity study.
MAX_CORRUPTION_REDRAWS = 25


@dataclass
class ExperimentConfig:
    """What a run may vary.

    Each field is both a config-file key and a CLI flag; its annotation
    decides how the text value is parsed (see ``parse_value``). A setting no
    study varies is not a field: it is a constant above (``RIDGE``,
    ``BASE_WEIGHT_DECAY``, ``MOONS_EVAL_SIZE``) or the default of the library
    function it feeds, such as the ratio clip, the oracle's rcond and the
    training epochs.
    """

    dataset: str = "sinc"
    n: int = 1000
    m: int = 1000
    l: int = 5
    beta: str = "analytic"
    rcond: float = 0.1
    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = ()
    # instance knobs: how the sinc widths read, how far the moons target turns
    sinc_interpret_std: bool = True
    moons_rotation_deg: float = 35.0
    # csv-dataset knobs
    source_csv: str = ""
    target_csv: str = ""
    eval_csv: str = ""
    model_csvs: tuple[str, ...] = ()
    # study knobs: corrupted models added (sensitivity; 0 is always run),
    # n = m sample sizes and labeled target draws for the oracle (rate-check)
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
        if self.beta not in BETAS:
            problems.append(f"beta: expected one of {BETAS}, got {self.beta!r}")
        if self.beta == "analytic" and self.dataset != "sinc":
            problems.append("beta: the analytic ratio is only available for dataset = sinc")
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
            problems.append(f"methods: unknown {unknown}; allowed {sorted(ALL_METHODS)}")
        bad = [m for m in self.methods if m in CLASSIFICATION_ONLY_METHODS]
        if self.dataset == "sinc" and bad:
            problems.append(f"methods: {bad} need classification outputs, dataset is sinc")
        if self.dataset == "csv":
            for name in ("source_csv", "target_csv", "eval_csv"):
                if not getattr(self, name):
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
        return make_sinc_shift(cfg.n, cfg.m, seed=seed, interpret_std=cfg.sinc_interpret_std,
                               eval_nodes=SINC_RULE_NODES)
    if cfg.dataset == "moons":
        return make_transformed_moons(cfg.n, cfg.m, MOONS_EVAL_SIZE, seed=seed,
                                      rotation_deg=cfg.moons_rotation_deg)
    return load_csv_instance(cfg.source_csv, cfg.target_csv, cfg.eval_csv)


def _sinc_sequence(cfg, instance):
    models = []
    for degree in range(cfg.l):
        feature_fn = partial(polynomial_features, degree=degree)
        base = fit_ridge(feature_fn(instance.source_x), instance.source_y, RIDGE)
        models.append(FeatureModel(feature_fn, base, input_dim=1))
    return models


def _moons_sequence(cfg, instance):
    decays = [lam * BASE_WEIGHT_DECAY for lam in LAMBDA_GRID[: cfg.l]]
    labels = instance.source_y.argmax(axis=1)
    return fit_softmax_classifier(instance.source_x, labels, instance.label_dim,
                                  weight_decay=decays)


def build_models(cfg, instance):
    """Model sequence (a list) for an instance; ConfigError if it cannot carry the ladder."""
    if cfg.dataset == "csv" and cfg.model_csvs:
        return [PrecomputedModel.from_csv(path) for path in cfg.model_csvs]
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
    if cfg.beta == "analytic":
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
    pearson_r: float
    degenerate: bool
    error: str = None


@dataclass
class RateRow:
    seed: int
    size: int
    deviation: float
    error: str = None


def _fmt(value):
    if value is None:
        return "nan"
    return f"{float(value):.17g}"


def _csv_line(values, columns):
    """One CSV line of the named values: 17-digit floats, true/false flags."""
    cells = []
    for column in columns:
        value = values[column]
        if isinstance(value, bool):
            cells.append("true" if value else "false")
        elif isinstance(value, (str, int)):
            cells.append(str(value))
        else:
            cells.append(_fmt(value))
    return ",".join(cells)


def _json_value(value):
    """JSON form of a row or summary value; non-finite floats, in lists too, become strings."""
    if isinstance(value, list):
        return [_json_value(float(v)) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _row_json(row):
    """A row's fields in order; unset ones are left out, except a regression row's null accuracy."""
    return {
        name: _json_value(value)
        for name, value in vars(row).items()
        if value is not None or name == "accuracy"
    }


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

    def write_csv(self, path):
        """The kind's columns, one line per sorted row, then the kind's summary lines."""
        kind = KINDS[self.kind]
        lines = [",".join(kind.columns)]
        lines += [_csv_line(vars(row), kind.columns) for row in self.sorted_rows()]
        lines += kind.csv_tail(self)
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")

    def write_json(self, path):
        rows = [_row_json(row) for row in self.sorted_rows()]
        body = KINDS[self.kind].json_body(self, rows)
        payload = {"kind": self.kind, "config": self.config, **body}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
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
        for stat, reduce in (("mean", np.mean), ("median", np.median)):
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


def _spread(values):
    """(25th percentile, median, 75th percentile) of a sample; nan for an empty one."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return (float("nan"),) * 3
    quartiles = np.percentile(values, 25), np.median(values), np.percentile(values, 75)
    return tuple(float(q) for q in quartiles)


def _correlations(table):
    """Each method's correlations over the successful rows."""
    return _groups(table.ok_rows(), lambda r: r.method, lambda r: r.pearson_r)


def correlation_summary(table):
    """Quartiles of the correlation per method."""
    groups = _correlations(table)
    return [
        dict(zip(("method", "q25", "median", "q75"), (method, *_spread(groups[method]))))
        for method in sorted(groups)
    ]


def rate_spread(table):
    """(q25, median, q75) of the deviation per size; nan for a size without successful rows."""
    deviations = _groups(table.ok_rows(), lambda r: r.size, lambda r: r.deviation)
    return {size: _spread(deviations.get(size, [])) for size in table.extra["sizes"]}


def rate_medians(table):
    return {size: median for size, (_, median, _) in rate_spread(table).items()}


def rate_slope(table):
    """Least-squares slope of log median deviation against log size."""
    med = rate_medians(table)
    xs = np.log([float(s) for s in med])
    ys = np.log(list(med.values()))
    if not np.all(np.isfinite(ys)):
        return float("nan")
    return float(np.polyfit(xs, ys, 1)[0])


def rate_strictly_decreasing(table):
    values = list(rate_medians(table).values())
    return all(later < earlier for earlier, later in zip(values, values[1:]))


def _aggregate_lines(table):
    """Aggregate CSV lines; the statistic name sits in the seed column."""
    columns = KINDS[table.kind].columns
    return [_csv_line({**agg, "seed": agg["stat"]}, columns) for agg in aggregates(table)]


def _aggregates_json(table, rows):
    body = {
        "rows": rows,
        "aggregates": [{k: _json_value(v) for k, v in agg.items()} for agg in aggregates(table)],
    }
    if table.extra:
        body["extra"] = table.extra
    return body


def _rate_json(table, rows):
    return {
        "sizes": list(table.extra["sizes"]),
        "rows": rows,
        "medians": {str(k): _json_value(v) for k, v in rate_medians(table).items()},
        "slope": _json_value(rate_slope(table)),
        "strictly_decreasing": rate_strictly_decreasing(table),
    }


def _aggregate_summary(table):
    lines = []
    for agg in aggregates(table):
        if agg["stat"] != "median":
            continue
        prefix = f"count={agg['count']} " if agg["count"] is not None else ""
        acc = "" if agg["accuracy"] is None else f" accuracy={agg['accuracy']:.4f}"
        lines.append(
            f"{prefix}{agg['method']}: risk={agg['risk']:.6g} excess={agg['excess']:.6g}{acc}"
        )
    return lines


def _correlation_lines(table):
    return [
        f"{entry['method']}: median_r={entry['median']:.4f} "
        f"iqr=[{entry['q25']:.4f}, {entry['q75']:.4f}]"
        for entry in correlation_summary(table)
    ]


def _rate_lines(table):
    lines = [f"size={size} median_deviation={m:.6g}" for size, m in rate_medians(table).items()]
    lines.append(
        f"slope={rate_slope(table):.4f} strictly_decreasing={rate_strictly_decreasing(table)}"
    )
    return lines


# --- per-kind plot panels ----------------------------------------------------------


def scaled_weights(weights):
    """Display scaling: w / sum |w| (identity for an all-zero vector)."""
    weights = np.asarray(weights, dtype=float)
    total = np.abs(weights).sum()
    return weights / total if total > 0 else weights


def _run_plots(table, plots_dir):
    aggs = [a for a in aggregates(table) if a["stat"] == "median"]
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
    series, bands = {}, {}
    for method in sorted({method for method, _ in accuracies}):
        if counts and all((method, count) in accuracies for count in counts):
            lows, medians, highs = zip(*(_spread(accuracies[(method, c)]) for c in counts))
            series[method], bands[method] = list(medians), (list(lows), list(highs))
    if series:
        plots.line_chart(
            os.path.join(plots_dir, "sensitivity.svg"),
            counts,
            series,
            title="Target accuracy vs corrupted models added (median, IQR band)",
            x_label="corrupted models added",
            y_label="target accuracy",
            bands=bands,
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
    spread = rate_spread(table)
    lows, medians, highs = (list(column) for column in zip(*spread.values()))
    plots.line_chart(
        os.path.join(plots_dir, "rate.svg"),
        list(spread),
        {"iwa": medians},
        title="Weight-vector deviation from oracle vs sample size",
        x_label="n = m",
        y_label="||c_tilde - c_star||",
        bands={"iwa": (lows, highs)},
        log_x=True,
    )


class TableKind(NamedTuple):
    """What differs between the studies' tables; everything else is ResultTable's."""

    sort_key: Callable  # row -> sort key
    columns: tuple  # CSV header, named after the row fields
    csv_tail: Callable  # table -> CSV lines after the rows
    json_body: Callable  # (table, JSON rows) -> results.json keys after "config"
    plot: Callable  # (table, plots_dir) -> None
    summary_lines: Callable  # table -> CLI summary lines


KINDS = {
    "run": TableKind(
        ResultRow.sort_key, CSV_COLUMNS, _aggregate_lines, _aggregates_json,
        _run_plots, _aggregate_summary,
    ),
    "sensitivity": TableKind(
        ResultRow.sort_key, ("count",) + CSV_COLUMNS, _aggregate_lines, _aggregates_json,
        _sensitivity_plots, _aggregate_summary,
    ),
    "correlation": TableKind(
        lambda r: (r.method, r.seed), ("method", "pearson_r", "degenerate", "seed"),
        lambda table: [],
        lambda table, rows: {"rows": rows, "summary": correlation_summary(table)},
        _correlation_plots, _correlation_lines,
    ),
    "rate": TableKind(
        lambda r: (r.size, r.seed), ("size", "deviation", "seed"),
        lambda table: [f"{size},{_fmt(m)},median" for size, m in rate_medians(table).items()],
        _rate_json, _rate_plots, _rate_lines,
    ),
}


# --- methods ---------------------------------------------------------------------


# Each method maps the seed context to (weights, diagnostics); the diagnostics
# name ResultRow fields. A method without a weight vector returns None and its
# eval predictions under "predictions".
# The aggregation and selection functions are looked up on their modules at
# call time, so anything that rebinds them there (a tracer) sees every call.


def _iwa(ctx):
    inst = ctx.instance
    result = aggregation.iwa(
        ctx.models,
        inst.source_x,
        inst.source_y,
        inst.target_x,
        ctx.beta,
        ctx.cfg.rcond,
        source_predictions=ctx.source_stack,
        target_predictions=ctx.target_stack,
    )
    diagnostics = {"gram_condition": result.gram_condition, "rank_retained": result.rank_retained}
    return result.weights, diagnostics


def _sor(ctx):
    return aggregation.sor(ctx.source_stack, ctx.instance.source_y, ctx.cfg.rcond), {}


def _tmv(ctx):
    votes = aggregation.majority_votes(ctx.eval_stack)
    return None, {"predictions": one_hot(votes, ctx.eval_stack.shape[2])}


def _pseudo_label(name, ctx):
    return getattr(aggregation, name)(ctx.target_stack, ctx.cfg.rcond), {}


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
    "oracle": lambda ctx: (ctx.oracle, {}),
    "source_only": lambda ctx: (one_hot(0, len(ctx.models)), {}),
    "target_best": _target_best,
}
ALL_METHODS = tuple(METHODS)


class _SeedContext:
    """Everything shared by the methods evaluated on one (instance, models) pair.

    ``stacks`` holds the (source, target, eval) prediction stacks of
    ``models``. The oracle is solved on first use. Risks follow the eval
    split: a sample's mean squared error, or on a quadrature rule the exact
    target risk, noise variance included.
    """

    def __init__(self, cfg, instance, models, beta, stacks):
        self.cfg = cfg
        self.instance = instance
        self.models = models
        self.beta = beta
        self.classification = instance.label_dim >= 2
        self.source_stack, self.target_stack, self.eval_stack = stacks
        self.eval_y = np.asarray(instance.target_eval_y, dtype=float)
        self.eval_labels = self.eval_y.argmax(axis=1) if self.classification else None

    @cached_property
    def oracle(self):
        inst = self.instance
        return aggregation.oracle_weights(
            self.eval_stack, inst.target_eval_y, weights=inst.target_eval_weights
        )

    @cached_property
    def oracle_risk(self):
        return self.risk(aggregation.aggregate_predictions(self.oracle, self.eval_stack))

    def risk(self, preds):
        """Target risk of eval-split predictions."""
        inst = self.instance
        return metrics.risk(preds, self.eval_y, inst.target_eval_weights) + inst.eval_noise_var

    def model_accuracies(self):
        """Each model's accuracy on the evaluation labels."""
        return [metrics.accuracy(preds, self.eval_labels) for preds in self.eval_stack]

    def evaluate(self, method, seed, count=None):
        weights, diagnostics = METHODS[method](self)
        preds = diagnostics.pop("predictions", None)
        if preds is None:
            preds = aggregation.aggregate_predictions(weights, self.eval_stack)
        risk = self.risk(preds)
        if not math.isfinite(risk) or (weights is not None and not np.all(np.isfinite(weights))):
            raise NumericalError(f"{method} produced a non-finite risk or weight vector")
        return ResultRow(
            method=method,
            seed=seed,
            risk=risk,
            accuracy=metrics.accuracy(preds, self.eval_labels) if self.classification else None,
            excess=risk - self.oracle_risk,
            count=count,
            weights=None if weights is None else [float(w) for w in weights],
            **diagnostics,
        )

    def rows(self, seed, methods, count=None):
        """Rows for ``methods``; per-method failures become error rows, the rest still run."""
        rows = []
        for method in methods:
            try:
                rows.append(self.evaluate(method, seed, count=count))
            except Exception as exc:  # failure isolation per method
                rows.append(ResultRow(method=method, seed=seed, count=count, error=_describe(exc)))
        return rows


# --- the seed loop -----------------------------------------------------------------


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _study(cfg, kind, seed_rows, blank_rows, extra=None):
    """A ``kind`` table of ``seed_rows(seed)`` over the seeds of ``cfg``.

    A seed that raises gets ``blank_rows(seed)`` with their error set, and
    the other seeds still run; an input fault (``INPUT_FAULTS``) stops the run.
    """
    rows = []
    for seed in cfg.seeds:
        try:
            rows.extend(seed_rows(seed))
        except INPUT_FAULTS:
            raise
        except Exception as exc:  # failure isolation per seed
            rows.extend(replace(row, error=_describe(exc)) for row in blank_rows(seed))
    return ResultTable(rows=rows, config=cfg.as_dict(), kind=kind, extra=extra or {})


def _prepare(cfg, seed, study=None):
    """The seed's context: instance, model sequence, density ratio and prediction stacks.

    Each model is predicted once per split here. A ``study`` name requires
    classification outputs.
    """
    instance = build_instance(cfg, seed)
    if study and instance.label_dim < 2:
        raise ConfigError(f"dataset: the {study} study needs classification outputs")
    models = build_models(cfg, instance)
    beta = build_beta(cfg, instance)
    stacks = tuple(
        stack_predictions(models, xs)
        for xs in (instance.source_x, instance.target_x, instance.target_eval_x)
    )
    return _SeedContext(cfg, instance, models, beta, stacks)


def _contexts(cfg, study=None):
    """``seed -> context`` for one run of a study (``study`` as for ``_prepare``).

    A CSV instance is one fixed sample, so the first seed's context is
    prepared on first use and shared: each file is read once. Only the
    sensitivity study draws anything from the seed; the others refuse a
    second seed here, before any file is read, rather than repeat the same
    rows.
    """
    if cfg.dataset != "csv":
        return partial(_prepare, cfg, study=study)
    if study != "sensitivity" and len(cfg.seeds) > 1:
        raise ConfigError(
            f"seeds: a CSV instance is one fixed sample, so every seed would repeat the same"
            f" rows; give one seed, got {list(cfg.seeds)}"
        )
    shared = cache(partial(_prepare, cfg, cfg.seeds[0], study))
    return lambda seed: shared()


def run_experiment(cfg):
    """One table of (method, seed) evaluation rows plus aggregates.

    The default methods follow the prepared instance's outputs; a seed that
    fails before its instance is prepared lists them by dataset, with CSV
    outputs taken as values.
    """
    cfg.validate()
    context_of = _contexts(cfg)

    def seed_rows(seed):
        ctx = context_of(seed)
        return ctx.rows(seed, resolve_methods(cfg, ctx.classification))

    blank = resolve_methods(cfg, cfg.dataset == "moons")
    extra = {"target_risk": _sinc_target_risk(cfg)} if cfg.dataset == "sinc" else None
    return _study(cfg, "run", seed_rows, lambda seed: [ResultRow(m, seed) for m in blank], extra)


def _sinc_target_risk(cfg):
    """How a sinc run computes its risks: the quadrature rule of its target law."""
    return {
        "rule": "gauss-hermite",
        "nodes": SINC_RULE_NODES,
        "target_mean": SINC_TARGET_MEAN,
        "target_std": sinc_sigmas(cfg.sinc_interpret_std)[1],
        "noise_var": SINC_NOISE_STD**2,
    }


# --- sensitivity study -------------------------------------------------------


def _subseeds(stream, seed, count):
    """``count`` independent 64-bit seeds for one stream of an experiment seed."""
    ss = np.random.SeedSequence([stream, int(seed)])
    return [int(v) for v in ss.generate_state(count, dtype=np.uint64)]


def _draw_corrupted(instance, models, base_eval, seed, total):
    """Corrupted models with the accuracy redraw gate.

    ``base_eval`` is the prediction stack of ``models`` on the evaluation
    inputs. Returns (models, eval stack, gate stats); the eval stack holds
    ``base_eval`` followed by the predictions the gate computed for each kept
    model, in slot order.
    """
    eval_x = instance.target_eval_x
    eval_labels = instance.target_eval_y.argmax(axis=1)
    so_acc = metrics.accuracy(base_eval[0], eval_labels)
    threshold = 0.8 * so_acc
    pick_rng = np.random.default_rng(np.random.SeedSequence([_PICK_STREAM, int(seed)]))
    cseeds = iter(_subseeds(_CORRUPTION_STREAM, seed, total * MAX_CORRUPTION_REDRAWS))
    drawn, flagged_count = [], 0
    eval_stack = np.empty((len(models) + total, *base_eval.shape[1:]))
    eval_stack[: len(models)] = base_eval
    for slot in range(total):
        candidate, flagged = None, False
        for _ in range(MAX_CORRUPTION_REDRAWS):
            candidate = corrupt(models[int(pick_rng.integers(len(models)))], next(cseeds))
            preds = candidate.predict_many(eval_x)
            if metrics.accuracy(preds, eval_labels) < threshold:
                flagged = True
                break
        flagged_count += int(flagged)
        drawn.append(candidate)
        eval_stack[len(models) + slot] = preds
    stats = {
        "seed": int(seed),
        "so_accuracy": so_acc,
        "threshold": threshold,
        "flagged": flagged_count,
        "total": total,
    }
    return drawn, eval_stack, stats


def run_sensitivity(cfg):
    """Re-run the methods while appending corrupted models to the sequence.

    Corrupted models take a uniformly chosen base model plus unit Gaussian
    noise on half of its output coordinates, and are redrawn (bounded
    retries) until target accuracy falls below 80% of the source-only
    model's accuracy. ``cfg.counts`` always gains the 0 baseline.

    Every model is predicted once per split and seed: the corrupted models'
    source and target predictions follow the prepared stacks, the gate's
    predictions fill the eval stack, and each count evaluates the leading
    slices of those stacks.
    """
    cfg.validate()
    counts = sorted({0, *cfg.counts})
    methods = resolve_methods(cfg, classification=True)
    gate_stats = []
    context_of = _contexts(cfg, "sensitivity")

    def seed_rows(seed):
        ctx = context_of(seed)
        instance, models, beta = ctx.instance, ctx.models, ctx.beta
        corrupted, eval_stack, stats = _draw_corrupted(
            instance, models, ctx.eval_stack, seed, max(counts)
        )
        gate_stats.append(stats)
        full = models + corrupted
        stacks = [ctx.source_stack, ctx.target_stack]
        if corrupted:
            stacks = [
                np.concatenate([stack, stack_predictions(corrupted, xs)])
                for stack, xs in zip(stacks, (instance.source_x, instance.target_x))
            ]
        stacks.append(eval_stack)
        del ctx  # the extended stacks copy the prepared ones; free those for the count loop
        rows = []
        for count in counts:
            size = len(models) + count
            prefix = tuple(stack[:size] for stack in stacks)
            context = _SeedContext(cfg, instance, full[:size], beta, prefix)
            rows.extend(context.rows(seed, methods, count))
        return rows

    return _study(
        cfg, "sensitivity", seed_rows,
        lambda seed: [ResultRow(method=m, seed=seed, count=c) for c in counts for m in methods],
        {"corruption_gate": gate_stats, "added_counts": counts},
    )


# --- correlation study ---------------------------------------------------------


def run_correlation(cfg):
    """Correlate aggregation weights with per-model target accuracies.

    Only weight-producing aggregation methods participate (majority vote has
    no weight vector). Degenerate (constant) weight vectors are flagged and
    contribute a correlation of 0. No row reads the oracle, so none is solved.
    """
    cfg.validate()
    methods = tuple(cfg.methods) or WEIGHT_METHODS
    bad = [m for m in methods if m not in WEIGHT_METHODS]
    if bad:
        raise ConfigError(
            f"methods: correlation needs weight-producing methods {WEIGHT_METHODS}, got {bad}"
        )
    context_of = _contexts(cfg, "correlation")

    def seed_rows(seed):
        ctx = context_of(seed)
        accuracies = ctx.model_accuracies()
        rows = []
        for method in methods:
            weights, _ = METHODS[method](ctx)
            rows.append(CorrelationRow(method, seed, *pearson_with_flag(weights, accuracies)))
        return rows

    return _study(
        cfg, "correlation", seed_rows,
        lambda seed: [CorrelationRow(m, seed, float("nan"), False) for m in methods],
    )


# --- convergence-rate check ---------------------------------------------------


def run_rate_check(cfg):
    """Convergence of the importance-weighted weights to the oracle weights.

    The model sequence is trained once per seed on an independent source
    draw (size cfg.n) and held fixed; c_star comes from a large labeled
    target draw (cfg.oracle_draws); c_tilde is recomputed on fresh
    source/target samples of each size in cfg.sizes. Both solves use
    cfg.rcond so the comparison is apples to apples. Requires the sinc
    dataset with the analytic ratio.
    """
    cfg.validate()
    if cfg.dataset != "sinc" or cfg.beta != "analytic":
        raise ConfigError("rate check requires dataset = sinc with beta = analytic")
    sizes = tuple(sorted(set(cfg.sizes)))
    beta = sinc_ratio(cfg.sinc_interpret_std)

    def sinc(n, m, eval_size, seed):
        return make_sinc_shift(n, m, eval_size, seed, interpret_std=cfg.sinc_interpret_std)

    # The last seed's oracle draw stays referenced until the next seed has
    # drawn its own. Freed at the end of every seed, its rows let the
    # allocator hand the memory back to the operating system and page it in
    # again for the next seed, which made the study about a fifth slower.
    held = []

    def seed_rows(seed):
        subseeds = _subseeds(_RATE_STREAM, seed, 2 + len(sizes))
        models = _sinc_sequence(cfg, sinc(cfg.n, 1, 1, subseeds[0]))
        oracle_sample = sinc(1, 1, cfg.oracle_draws, subseeds[1])
        held[:] = [oracle_sample]
        c_star = aggregation.oracle_weights(
            stack_predictions(models, oracle_sample.target_eval_x),
            oracle_sample.target_eval_y,
            cfg.rcond,
        )
        rows = []
        for size, sub in zip(sizes, subseeds[2:]):
            inst = sinc(size, size, 1, sub)
            c_tilde = aggregation.iwa(
                models, inst.source_x, inst.source_y, inst.target_x, beta, cfg.rcond
            ).weights
            rows.append(RateRow(seed, size, float(np.linalg.norm(c_tilde - c_star))))
        return rows

    return _study(
        cfg, "rate", seed_rows,
        lambda seed: [RateRow(seed, size, float("nan")) for size in sizes],
        {"sizes": sizes},
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
