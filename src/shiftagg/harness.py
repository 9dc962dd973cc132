"""Experiment harness: configuration, seed loops, result tables, plots.

The harness owns everything the aggregation and selection layers must not
see: labeled evaluation splits, reference rows, diagnostics, and artifact
emission. Methods receive only the labeled source sample, unlabeled target
inputs, and a density-ratio estimate; evaluation labels are used strictly
for scoring, references (oracle, target-best), and the corrupted-model
gate of the sensitivity study.
"""

from dataclasses import asdict, dataclass, field, fields
from functools import partial
import json
import math
import os

import numpy as np

from . import aggregation, selection
from .datasets import (
    load_csv_instance,
    make_sinc_shift,
    make_transformed_moons,
    sinc_ratio,
)
from .density_ratio import fit_domain_classifier
from .errors import ConfigError, NumericalError
from .metrics import CSV_COLUMNS, pearson_with_flag
from .models import (
    FeatureModel,
    ModelSequence,
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

AGGREGATION_METHODS = ("iwa", "sor", "tmv", "tmr", "tcr")
SELECTION_METHODS = ("iwv", "dev")
REFERENCE_METHODS = ("oracle", "target_best", "source_only")
ALL_METHODS = AGGREGATION_METHODS + SELECTION_METHODS + REFERENCE_METHODS
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
    """Everything a run needs; file values load into the same field names."""

    dataset: str = "sinc"
    n: int = 1000
    m: int = 1000
    eval_size: int = 2000
    l: int = 5
    beta: str = "analytic"
    beta_bound: float = 50.0
    rcond: float = 0.1
    oracle_rcond: float = 1e-8
    seeds: tuple = (0,)
    methods: tuple = ()
    out: str = ""
    # sinc knobs
    sinc_interpret_std: bool = True
    sinc_noise_std: float = 0.25
    # moons knobs
    moons_noise: float = 0.1
    moons_rotation_deg: float = 35.0
    moons_translation_x: float = 0.3
    moons_translation_y: float = 0.2
    # model-sequence knobs
    ridge: float = 1e-6
    classifier_epochs: int = 300
    classifier_lr: float = 0.5
    base_weight_decay: float = 0.5
    # learned-ratio knobs
    domain_epochs: int = 500
    domain_lr: float = 0.5
    # selection knob
    selection_loss: str = "squared"
    # csv-dataset knobs
    source_csv: str = ""
    target_csv: str = ""
    eval_csv: str = ""
    model_csvs: tuple = ()

    def validate(self):
        problems = []
        if self.dataset not in DATASETS:
            problems.append(f"dataset: expected one of {DATASETS}, got {self.dataset!r}")
        if self.n < 1:
            problems.append(f"n: must be >= 1, got {self.n}")
        if self.m < 1:
            problems.append(f"m: must be >= 1, got {self.m}")
        if self.eval_size < 2:
            problems.append(f"eval_size: must be >= 2, got {self.eval_size}")
        if self.l < 1:
            problems.append(f"l: must be >= 1, got {self.l}")
        if self.dataset == "moons" and self.l > len(LAMBDA_GRID):
            problems.append(
                f"l: the moons sequence has at most {len(LAMBDA_GRID)} settings, got {self.l}"
            )
        if self.beta not in BETAS:
            problems.append(f"beta: expected one of {BETAS}, got {self.beta!r}")
        if self.beta == "analytic" and self.dataset != "sinc":
            problems.append("beta: the analytic ratio is only available for dataset = sinc")
        if self.beta_bound <= 0:
            problems.append(f"beta_bound: must be positive, got {self.beta_bound}")
        if not 0 <= self.rcond < 1:
            problems.append(f"rcond: must lie in [0, 1), got {self.rcond}")
        if not 0 <= self.oracle_rcond < 1:
            problems.append(f"oracle_rcond: must lie in [0, 1), got {self.oracle_rcond}")
        if not self.seeds:
            problems.append("seeds: need at least one seed")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            problems.append(f"methods: unknown {unknown}; allowed {sorted(ALL_METHODS)}")
        if self.dataset == "sinc":
            bad = [m for m in self.methods if m in CLASSIFICATION_ONLY_METHODS]
            if bad:
                problems.append(f"methods: {bad} need classification outputs, dataset is sinc")
            if self.selection_loss == "zero_one":
                problems.append("selection_loss: zero_one needs classification outputs")
        if self.selection_loss not in selection.LOSSES:
            problems.append(
                f"selection_loss: expected one of {selection.LOSSES}, got {self.selection_loss!r}"
            )
        if self.dataset == "csv":
            for name in ("source_csv", "target_csv", "eval_csv"):
                if not getattr(self, name):
                    problems.append(f"{name}: required when dataset = csv")
        for name in ("ridge", "base_weight_decay", "sinc_noise_std", "moons_noise"):
            if getattr(self, name) < 0:
                problems.append(f"{name}: must be non-negative, got {getattr(self, name)}")
        for name in ("classifier_epochs", "domain_epochs"):
            if getattr(self, name) < 0:
                problems.append(f"{name}: must be >= 0, got {getattr(self, name)}")
        for name in ("classifier_lr", "domain_lr"):
            if getattr(self, name) <= 0:
                problems.append(f"{name}: must be positive, got {getattr(self, name)}")
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def as_dict(self):
        out = asdict(self)
        out["seeds"] = list(self.seeds)
        out["methods"] = list(self.methods)
        out["model_csvs"] = list(self.model_csvs)
        return out


_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


def _parse_bool(text, key):
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean (true/false), got {text!r}")


def _parse_int_tuple(text, key):
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return tuple(int(part) for part in items)
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {text!r}") from None


def _parse_str_tuple(text, key):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def parse_config_value(key, text):
    """Parse one ``key = value`` pair from a config file into a field value."""
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    if key not in by_name:
        raise ConfigError(f"{key}: unknown config key")
    kind = by_name[key].type
    # Field annotations may surface as classes or as strings depending on
    # how the dataclass was declared; normalise to the type name.
    kind_name = kind if isinstance(kind, str) else kind.__name__
    text = text.strip()
    try:
        if key in ("seeds",):
            return _parse_int_tuple(text, key)
        if key in ("methods", "model_csvs"):
            return _parse_str_tuple(text, key)
        if kind_name == "bool":
            return _parse_bool(text, key)
        if kind_name == "int":
            return int(text)
        if kind_name == "float":
            return float(text)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{key}: could not parse {text!r} as {kind_name}") from None
    return text


def load_config_file(path):
    """Read ``key = value`` lines ('#' comments and blank lines ignored)."""
    values = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
                key, text = line.split("=", 1)
                values[key.strip()] = parse_config_value(key.strip(), text)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
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
    if cfg.dataset == "sinc":
        return make_sinc_shift(
            cfg.n,
            cfg.m,
            cfg.eval_size,
            seed,
            interpret_std=cfg.sinc_interpret_std,
            noise_std=cfg.sinc_noise_std,
        )
    if cfg.dataset == "moons":
        return make_transformed_moons(
            cfg.n,
            cfg.m,
            cfg.eval_size,
            cfg.moons_noise,
            seed,
            rotation_deg=cfg.moons_rotation_deg,
            translation=(cfg.moons_translation_x, cfg.moons_translation_y),
        )
    return load_csv_instance(cfg.source_csv, cfg.target_csv, cfg.eval_csv, seed)


def _sinc_sequence(cfg, instance):
    models, labels = [], []
    for degree in range(cfg.l):
        feature_fn = partial(polynomial_features, degree=degree)
        base = fit_ridge(feature_fn(instance.source_x), instance.source_y, cfg.ridge)
        models.append(FeatureModel(feature_fn, base, input_dim=1))
        labels.append(f"degree={degree}")
    return ModelSequence(models, labels)


def _moons_sequence(cfg, instance):
    class_labels = instance.source_y.argmax(axis=1)
    classes = instance.label_dim
    models, labels = [], []
    for lam in LAMBDA_GRID[: cfg.l]:
        model = fit_softmax_classifier(
            instance.source_x,
            class_labels,
            classes,
            cfg.classifier_epochs,
            cfg.classifier_lr,
            weight_decay=lam * cfg.base_weight_decay,
        )
        models.append(model)
        labels.append(f"lambda={lam:g}")
    return ModelSequence(models, labels)


def build_models(cfg, instance):
    """Model sequence for an instance per the dataset family."""
    if cfg.dataset == "csv" and cfg.model_csvs:
        models = [PrecomputedModel.from_csv(path) for path in cfg.model_csvs]
        labels = [os.path.basename(path) for path in cfg.model_csvs]
        return ModelSequence(models, labels)
    if cfg.dataset == "sinc" or (cfg.dataset == "csv" and instance.label_dim == 1):
        return _sinc_sequence(cfg, instance)
    return _moons_sequence(cfg, instance)


def build_beta(cfg, instance):
    if cfg.beta == "analytic":
        return sinc_ratio(cfg.sinc_interpret_std, cfg.beta_bound)
    return fit_domain_classifier(
        instance.source_x,
        instance.target_x,
        cfg.domain_epochs,
        cfg.domain_lr,
        cfg.beta_bound,
    )


def resolve_methods(cfg):
    """Requested methods plus the SO/TB reference rows, deduplicated."""
    if cfg.methods:
        requested = list(cfg.methods)
    elif cfg.dataset == "sinc":
        requested = ["iwa", "sor", "iwv", "dev", "oracle"]
    else:
        requested = ["iwa", "sor", "tmv", "tmr", "tcr", "iwv", "dev", "oracle"]
    for ref in ("source_only", "target_best"):
        if ref not in requested:
            requested.append(ref)
    seen, ordered = set(), []
    for name in requested:
        if name not in seen:
            seen.add(name)
            ordered.append(name)
    return tuple(ordered)


# --- result rows and tables --------------------------------------------------


def _nan():
    return float("nan")


@dataclass
class ResultRow:
    """One evaluated method on one seed (plus sensitivity's corrupted count)."""

    method: str
    seed: int
    risk: float = field(default_factory=_nan)
    accuracy: float = None
    excess: float = field(default_factory=_nan)
    weights: list = None
    chosen_index: int = None
    scores: list = None
    gram_condition: float = None
    rank_retained: int = None
    count: int = None
    error: str = None

    def sort_key(self):
        return (self.count if self.count is not None else 0, self.method, self.seed)


def _fmt(value):
    if value is None:
        return "nan"
    return f"{float(value):.17g}"


def _json_float(value):
    if value is None:
        return None
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _row_json(row):
    out = {
        "method": row.method,
        "seed": row.seed,
        "risk": _json_float(row.risk),
        "accuracy": _json_float(row.accuracy),
        "excess": _json_float(row.excess),
    }
    if row.count is not None:
        out["count"] = row.count
    if row.weights is not None:
        out["weights"] = [float(w) for w in row.weights]
    if row.gram_condition is not None:
        out["gram_condition"] = _json_float(row.gram_condition)
    if row.rank_retained is not None:
        out["rank_retained"] = int(row.rank_retained)
    if row.chosen_index is not None:
        out["chosen_index"] = int(row.chosen_index)
    if row.scores is not None:
        out["scores"] = [float(s) for s in row.scores]
    if row.error is not None:
        out["error"] = row.error
    return out


@dataclass
class ResultTable:
    """Rows plus aggregate mean/median rows, ready for CSV/JSON emission."""

    rows: list
    config: dict
    kind: str = "run"
    extra: dict = field(default_factory=dict)

    def sorted_rows(self):
        return sorted(self.rows, key=ResultRow.sort_key)

    def ok_rows(self):
        return [r for r in self.rows if r.error is None]

    @property
    def has_failures(self):
        return any(r.error is not None for r in self.rows)

    def aggregates(self):
        """Mean and median of (risk, accuracy, excess) per (count, method)."""
        groups = {}
        for row in self.ok_rows():
            groups.setdefault((row.count, row.method), []).append(row)
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

    def write_csv(self, path):
        """EvaluationReport rows sorted by (count, method, seed); aggregates follow.

        Aggregate rows carry the statistic name in the seed column.
        """
        with_count = any(r.count is not None for r in self.rows)
        header = (("count",) if with_count else ()) + CSV_COLUMNS
        lines = [",".join(header)]
        for row in self.sorted_rows():
            cells = [row.method, _fmt(row.risk), _fmt(row.accuracy), _fmt(row.excess), str(row.seed)]
            if with_count:
                cells = [str(row.count if row.count is not None else 0)] + cells
            lines.append(",".join(cells))
        for agg in self.aggregates():
            cells = [agg["method"], _fmt(agg["risk"]), _fmt(agg["accuracy"]), _fmt(agg["excess"]), agg["stat"]]
            if with_count:
                cells = [str(agg["count"] if agg["count"] is not None else 0)] + cells
            lines.append(",".join(cells))
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")

    def write_json(self, path):
        payload = {
            "kind": self.kind,
            "config": self.config,
            "rows": [_row_json(r) for r in self.sorted_rows()],
            "aggregates": [
                {**agg, "risk": _json_float(agg["risk"]), "accuracy": _json_float(agg["accuracy"]),
                 "excess": _json_float(agg["excess"])}
                for agg in self.aggregates()
            ],
        }
        if self.extra:
            payload["extra"] = self.extra
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


# --- method evaluation -------------------------------------------------------


def _eval_predictions(weights, eval_stack):
    return np.tensordot(np.asarray(weights, dtype=float), eval_stack, axes=(0, 0))


def _risk_from_preds(preds, eval_y):
    return float(((preds - eval_y) ** 2).sum(axis=1).mean())


def _accuracy_from_preds(preds, eval_labels):
    return float((preds.argmax(axis=1) == eval_labels).mean())


def _per_model_accuracies(eval_stack, eval_labels):
    return np.array([(eval_stack[i].argmax(axis=1) == eval_labels).mean() for i in range(eval_stack.shape[0])])


class _SeedContext:
    """Everything shared by the methods evaluated on one (instance, models) pair.

    ``stacks`` may carry the (source, target, eval) prediction stacks of
    ``models`` when the caller already holds them; otherwise they are
    predicted here.
    """

    def __init__(self, cfg, instance, models, beta, stacks=None):
        self.cfg = cfg
        self.instance = instance
        self.models = models
        self.beta = beta
        self.classification = instance.label_dim >= 2
        if stacks is None:
            stacks = tuple(
                stack_predictions(models, xs)
                for xs in (instance.source_x, instance.target_x, instance.target_eval_x)
            )
        self.source_stack, self.target_stack, self.eval_stack = stacks
        self.eval_y = np.asarray(instance.target_eval_y, dtype=float)
        self.eval_labels = self.eval_y.argmax(axis=1) if self.classification else None
        self.oracle = aggregation.oracle_weights(
            models,
            instance.target_eval_x,
            instance.target_eval_y,
            cfg.oracle_rcond,
            predictions=self.eval_stack,
        )
        self.oracle_risk = _risk_from_preds(
            _eval_predictions(self.oracle, self.eval_stack), self.eval_y
        )

    def method_weights(self, method):
        """Aggregation-weight vector for a method, plus optional diagnostics."""
        cfg, inst = self.cfg, self.instance
        diagnostics = {}
        if method == "iwa":
            result = aggregation.iwa(
                self.models,
                inst.source_x,
                inst.source_y,
                inst.target_x,
                self.beta,
                cfg.rcond,
                source_predictions=self.source_stack,
                target_predictions=self.target_stack,
            )
            weights = result.weights
            diagnostics = {
                "gram_condition": result.gram_condition,
                "rank_retained": result.rank_retained,
            }
        elif method == "sor":
            weights = aggregation.sor(
                self.models, inst.source_x, inst.source_y, cfg.rcond, predictions=self.source_stack
            )
        elif method == "tmr":
            weights = aggregation.tmr(
                self.models, inst.target_x, cfg.rcond, predictions=self.target_stack
            )
        elif method == "tcr":
            weights = aggregation.tcr(
                self.models, inst.target_x, cfg.rcond, predictions=self.target_stack
            )
        elif method in SELECTION_METHODS:
            fn = selection.iwv_select if method == "iwv" else selection.dev_select
            result = fn(
                self.models,
                inst.source_x,
                inst.source_y,
                self.beta,
                cfg.selection_loss,
                predictions=self.source_stack,
            )
            weights = selection.select_as_aggregation(result, len(self.models))
            diagnostics = {"chosen_index": result.chosen_index, "scores": list(result.scores)}
        elif method == "oracle":
            weights = self.oracle
        elif method == "source_only":
            weights = selection.select_as_aggregation(
                selection.SelectionResult(0, np.zeros(len(self.models))), len(self.models)
            )
        elif method == "target_best":
            if self.classification:
                best = int(np.argmax(_per_model_accuracies(self.eval_stack, self.eval_labels)))
            else:
                risks = [
                    _risk_from_preds(self.eval_stack[i], self.eval_y)
                    for i in range(len(self.models))
                ]
                best = int(np.argmin(risks))
            weights = np.zeros(len(self.models))
            weights[best] = 1.0
        else:
            raise ConfigError(f"methods: unknown method {method!r}")
        return np.asarray(weights, dtype=float), diagnostics

    def evaluate(self, method, seed, count=None):
        if method == "tmv":
            votes = aggregation.majority_votes(self.eval_stack)
            preds = np.eye(self.eval_stack.shape[2])[votes]
            weights, diagnostics = None, {}
        else:
            weights, diagnostics = self.method_weights(method)
            preds = _eval_predictions(weights, self.eval_stack)
        risk = _risk_from_preds(preds, self.eval_y)
        if not math.isfinite(risk) or (weights is not None and not np.all(np.isfinite(weights))):
            raise NumericalError(f"{method} produced a non-finite risk or weight vector")
        acc = _accuracy_from_preds(preds, self.eval_labels) if self.classification else None
        return ResultRow(
            method=method,
            seed=seed,
            risk=risk,
            accuracy=acc,
            excess=risk - self.oracle_risk,
            weights=None if weights is None else [float(w) for w in weights],
            chosen_index=diagnostics.get("chosen_index"),
            scores=(
                [float(s) for s in diagnostics["scores"]] if "scores" in diagnostics else None
            ),
            gram_condition=diagnostics.get("gram_condition"),
            rank_retained=diagnostics.get("rank_retained"),
            count=count,
        )


def evaluate_methods(cfg, instance, models, beta, seed, methods=None, count=None, *, stacks=None):
    """Rows for every method on one prepared (instance, models, beta) triple.

    Per-method failures become error rows; the rest of the methods still run.
    ``stacks`` optionally carries the models' (source, target, eval)
    prediction stacks.
    """
    context = _SeedContext(cfg, instance, models, beta, stacks)
    rows = []
    for method in methods or resolve_methods(cfg):
        try:
            rows.append(context.evaluate(method, seed, count=count))
        except Exception as exc:  # failure isolation per method
            rows.append(
                ResultRow(
                    method=method, seed=seed, count=count, error=f"{type(exc).__name__}: {exc}"
                )
            )
    return rows


def run_single_seed(cfg, seed, instance=None):
    """All method rows for one seed; ``instance`` may be supplied explicitly."""
    if instance is None:
        instance = build_instance(cfg, seed)
    models = build_models(cfg, instance)
    beta = build_beta(cfg, instance)
    return evaluate_methods(cfg, instance, models, beta, seed)


def run_experiment(cfg):
    """One table of (method, seed) evaluation rows plus aggregates."""
    cfg.validate()
    rows = []
    for seed in cfg.seeds:
        try:
            rows.extend(run_single_seed(cfg, seed))
        except Exception as exc:  # failure isolation per seed
            message = f"{type(exc).__name__}: {exc}"
            for method in resolve_methods(cfg):
                rows.append(ResultRow(method=method, seed=seed, error=message))
    return ResultTable(rows=rows, config=cfg.as_dict(), kind="run")


# --- sensitivity study -------------------------------------------------------


def _corruption_seeds(seed, total):
    ss = np.random.SeedSequence([_CORRUPTION_STREAM, int(seed)])
    return [int(v) for v in ss.generate_state(total, dtype=np.uint64)]


def _draw_corrupted(instance, models, base_eval, seed, total):
    """Corrupted models with the accuracy redraw gate.

    ``base_eval`` is the prediction stack of ``models`` on the evaluation
    inputs. Returns (models, labels, eval stack, gate stats); the eval stack
    holds ``base_eval`` followed by the predictions the gate computed for
    each kept model, in slot order.
    """
    eval_x = instance.target_eval_x
    eval_labels = instance.target_eval_y.argmax(axis=1)
    so_acc = float((base_eval[0].argmax(axis=1) == eval_labels).mean())
    threshold = 0.8 * so_acc
    pick_rng = np.random.default_rng(np.random.SeedSequence([_PICK_STREAM, int(seed)]))
    cseeds = iter(_corruption_seeds(seed, total * MAX_CORRUPTION_REDRAWS))
    drawn, labels, flagged_count = [], [], 0
    eval_stack = np.empty((len(models) + total, *base_eval.shape[1:]))
    eval_stack[: len(models)] = base_eval
    for slot in range(total):
        candidate, flagged, base_index = None, False, 0
        for _ in range(MAX_CORRUPTION_REDRAWS):
            base_index = int(pick_rng.integers(len(models)))
            candidate = corrupt(models[base_index], next(cseeds))
            preds = candidate.predict_many(eval_x)
            acc = float((preds.argmax(axis=1) == eval_labels).mean())
            if acc < threshold:
                flagged = True
                break
        flagged_count += int(flagged)
        drawn.append(candidate)
        eval_stack[len(models) + slot] = preds
        labels.append(f"corrupt_{slot}[{models.labels[base_index]}]")
    stats = {
        "seed": int(seed),
        "so_accuracy": so_acc,
        "threshold": threshold,
        "flagged": flagged_count,
        "total": total,
    }
    return drawn, labels, eval_stack, stats


def run_sensitivity(cfg, added_counts=(0, 10, 50, 100)):
    """Re-run the methods while appending corrupted models to the sequence.

    Corrupted models take a uniformly chosen base model plus unit Gaussian
    noise on half of its output coordinates, and are redrawn (bounded
    retries) until target accuracy falls below 80% of the source-only
    model's accuracy. Counts always include the 0 baseline.

    Every model is predicted once per seed: the sequence with the largest
    count is stacked on source and target, the gate's predictions fill the
    eval stack, and each count evaluates the leading slices of those stacks.
    """
    cfg.validate()
    if cfg.dataset == "sinc":
        raise ConfigError("dataset: the sensitivity study needs classification outputs")
    counts = sorted({0, *(int(c) for c in added_counts)})
    if any(c < 0 for c in counts):
        raise ConfigError(f"added_counts: must be non-negative, got {added_counts}")
    rows, gate_stats = [], []
    for seed in cfg.seeds:
        try:
            instance = build_instance(cfg, seed)
            if instance.label_dim < 2:
                raise ConfigError("dataset: the sensitivity study needs classification outputs")
            models = build_models(cfg, instance)
            beta = build_beta(cfg, instance)
            base_eval = stack_predictions(models, instance.target_eval_x)
            corrupted, corrupt_labels, eval_stack, stats = _draw_corrupted(
                instance, models, base_eval, seed, max(counts)
            )
            gate_stats.append(stats)
            full = models.extended(corrupted, corrupt_labels)
            stacks = (
                stack_predictions(full, instance.source_x),
                stack_predictions(full, instance.target_x),
                eval_stack,
            )
            for count in counts:
                sequence = (
                    models
                    if count == 0
                    else models.extended(corrupted[:count], corrupt_labels[:count])
                )
                prefix = tuple(stack[: len(sequence)] for stack in stacks)
                rows.extend(
                    evaluate_methods(
                        cfg, instance, sequence, beta, seed, count=count, stacks=prefix
                    )
                )
        except Exception as exc:  # failure isolation per seed
            message = f"{type(exc).__name__}: {exc}"
            for count in counts:
                for method in resolve_methods(cfg):
                    rows.append(ResultRow(method=method, seed=seed, count=count, error=message))
    return ResultTable(
        rows=rows,
        config=cfg.as_dict(),
        kind="sensitivity",
        extra={"corruption_gate": gate_stats, "added_counts": counts},
    )


# --- correlation study ---------------------------------------------------------


@dataclass
class CorrelationRow:
    method: str
    seed: int
    pearson_r: float
    degenerate: bool
    error: str = None


@dataclass
class CorrelationTable:
    """Per-(method, seed) Pearson correlations between weights and accuracies."""

    rows: list
    config: dict
    kind: str = "correlation"

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.method, r.seed))

    def ok_rows(self):
        return [r for r in self.rows if r.error is None]

    @property
    def has_failures(self):
        return any(r.error is not None for r in self.rows)

    def summary(self):
        """Quartiles of the correlation per method."""
        groups = {}
        for row in self.ok_rows():
            groups.setdefault(row.method, []).append(row.pearson_r)
        out = []
        for method in sorted(groups):
            values = np.array(groups[method], dtype=float)
            out.append(
                {
                    "method": method,
                    "q25": float(np.percentile(values, 25)),
                    "median": float(np.median(values)),
                    "q75": float(np.percentile(values, 75)),
                }
            )
        return out

    def write_csv(self, path):
        lines = ["method,pearson_r,degenerate,seed"]
        for row in self.sorted_rows():
            if row.error is not None:
                lines.append(f"{row.method},nan,false,{row.seed}")
                continue
            flag = "true" if row.degenerate else "false"
            lines.append(f"{row.method},{row.pearson_r:.17g},{flag},{row.seed}")
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")

    def write_json(self, path):
        payload = {
            "kind": self.kind,
            "config": self.config,
            "rows": [
                {
                    "method": r.method,
                    "seed": r.seed,
                    "pearson_r": _json_float(r.pearson_r),
                    "degenerate": bool(r.degenerate),
                    **({"error": r.error} if r.error else {}),
                }
                for r in self.sorted_rows()
            ],
            "summary": self.summary(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def run_correlation(cfg):
    """Correlate aggregation weights with per-model target accuracies.

    Only weight-producing aggregation methods participate (majority vote has
    no weight vector). Degenerate (constant) weight vectors are flagged and
    contribute a correlation of 0.
    """
    cfg.validate()
    if cfg.dataset == "sinc":
        raise ConfigError("dataset: the correlation study needs classification outputs")
    if cfg.methods:
        bad = [m for m in cfg.methods if m not in WEIGHT_METHODS]
        if bad:
            raise ConfigError(
                f"methods: correlation needs weight-producing methods {WEIGHT_METHODS}, got {bad}"
            )
        methods = tuple(cfg.methods)
    else:
        methods = WEIGHT_METHODS
    rows = []
    for seed in cfg.seeds:
        try:
            instance = build_instance(cfg, seed)
            if instance.label_dim < 2:
                raise ConfigError("dataset: the correlation study needs classification outputs")
            models = build_models(cfg, instance)
            beta = build_beta(cfg, instance)
            context = _SeedContext(cfg, instance, models, beta)
            accuracies = _per_model_accuracies(context.eval_stack, context.eval_labels)
            for method in methods:
                weights, _ = context.method_weights(method)
                r, degenerate = pearson_with_flag(weights, accuracies)
                rows.append(CorrelationRow(method, seed, r, degenerate))
        except Exception as exc:  # failure isolation per seed
            message = f"{type(exc).__name__}: {exc}"
            for method in methods:
                rows.append(CorrelationRow(method, seed, float("nan"), False, error=message))
    return CorrelationTable(rows=rows, config=cfg.as_dict())


# --- convergence-rate check ---------------------------------------------------


@dataclass
class RateRow:
    seed: int
    size: int
    deviation: float
    error: str = None


@dataclass
class RateTable:
    """||c_tilde - c_star|| against n = m, per seed, plus medians and slope."""

    rows: list
    config: dict
    sizes: tuple
    kind: str = "rate"

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.size, r.seed))

    def ok_rows(self):
        return [r for r in self.rows if r.error is None]

    @property
    def has_failures(self):
        return any(r.error is not None for r in self.rows)

    def medians(self):
        out = {}
        for size in self.sizes:
            values = [r.deviation for r in self.ok_rows() if r.size == size]
            out[size] = float(np.median(values)) if values else float("nan")
        return out

    def quartiles(self):
        out = {}
        for size in self.sizes:
            values = np.array([r.deviation for r in self.ok_rows() if r.size == size])
            if values.size:
                out[size] = (float(np.percentile(values, 25)), float(np.percentile(values, 75)))
            else:
                out[size] = (float("nan"), float("nan"))
        return out

    def slope(self):
        """Least-squares slope of log median deviation against log size."""
        med = self.medians()
        xs = np.log([float(s) for s in self.sizes])
        ys = np.log([med[s] for s in self.sizes])
        if not np.all(np.isfinite(ys)):
            return float("nan")
        return float(np.polyfit(xs, ys, 1)[0])

    def strictly_decreasing(self):
        med = self.medians()
        values = [med[s] for s in self.sizes]
        return all(later < earlier for earlier, later in zip(values, values[1:]))

    def write_csv(self, path):
        lines = ["size,deviation,seed"]
        for row in self.sorted_rows():
            lines.append(f"{row.size},{_fmt(row.deviation)},{row.seed}")
        for size, median in self.medians().items():
            lines.append(f"{size},{_fmt(median)},median")
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")

    def write_json(self, path):
        payload = {
            "kind": self.kind,
            "config": self.config,
            "sizes": list(self.sizes),
            "rows": [
                {
                    "seed": r.seed,
                    "size": r.size,
                    "deviation": _json_float(r.deviation),
                    **({"error": r.error} if r.error else {}),
                }
                for r in self.sorted_rows()
            ],
            "medians": {str(k): _json_float(v) for k, v in self.medians().items()},
            "slope": _json_float(self.slope()),
            "strictly_decreasing": self.strictly_decreasing(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def _rate_subseeds(seed, count):
    ss = np.random.SeedSequence([_RATE_STREAM, int(seed)])
    return [int(v) for v in ss.generate_state(count, dtype=np.uint64)]


def run_rate_check(cfg, sizes=(250, 1000, 4000), oracle_draws=100_000):
    """Convergence of the importance-weighted weights to the oracle weights.

    The model sequence is trained once per seed on an independent source
    draw (size cfg.n) and held fixed; c_star comes from a large labeled
    target draw; c_tilde is recomputed on fresh source/target samples of
    each size. Both solves use cfg.rcond so the comparison is apples to
    apples. Requires the sinc dataset with the analytic ratio.
    """
    cfg.validate()
    if cfg.dataset != "sinc" or cfg.beta != "analytic":
        raise ConfigError("rate check requires dataset = sinc with beta = analytic")
    sizes = tuple(sorted({int(s) for s in sizes}))
    if len(sizes) < 2 or sizes[0] < 2:
        raise ConfigError(f"sizes: need at least two distinct sizes >= 2, got {sizes}")
    beta = sinc_ratio(cfg.sinc_interpret_std, cfg.beta_bound)
    rows = []
    for seed in cfg.seeds:
        try:
            subseeds = _rate_subseeds(seed, 2 + len(sizes))
            train = make_sinc_shift(
                cfg.n, 1, 1, subseeds[0],
                interpret_std=cfg.sinc_interpret_std, noise_std=cfg.sinc_noise_std,
            )
            models = _sinc_sequence(cfg, train)
            oracle_sample = make_sinc_shift(
                1, 1, oracle_draws, subseeds[1],
                interpret_std=cfg.sinc_interpret_std, noise_std=cfg.sinc_noise_std,
            )
            c_star = aggregation.oracle_weights(
                models, oracle_sample.target_eval_x, oracle_sample.target_eval_y, cfg.rcond
            )
            for size, sub in zip(sizes, subseeds[2:]):
                inst = make_sinc_shift(
                    size, size, 1, sub,
                    interpret_std=cfg.sinc_interpret_std, noise_std=cfg.sinc_noise_std,
                )
                c_tilde = aggregation.iwa(
                    models, inst.source_x, inst.source_y, inst.target_x, beta, cfg.rcond
                ).weights
                rows.append(RateRow(seed, size, float(np.linalg.norm(c_tilde - c_star))))
        except Exception as exc:  # failure isolation per seed
            message = f"{type(exc).__name__}: {exc}"
            for size in sizes:
                rows.append(RateRow(seed, size, float("nan"), error=message))
    return RateTable(rows=rows, config=cfg.as_dict(), sizes=sizes)


# --- artifact emission ---------------------------------------------------------


def scaled_weights(weights):
    """Display scaling: w / sum |w| (identity for an all-zero vector)."""
    weights = np.asarray(weights, dtype=float)
    total = np.abs(weights).sum()
    return weights / total if total > 0 else weights


def _emit_run_plots(table, plots_dir):
    aggs = [a for a in table.aggregates() if a["stat"] == "median"]
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
    by_method = {}
    for row in table.ok_rows():
        if row.weights is not None:
            by_method.setdefault(row.method, []).append(scaled_weights(row.weights))
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


def _emit_sensitivity_plots(table, plots_dir):
    counts = sorted({r.count for r in table.ok_rows() if r.count is not None})
    methods = sorted({r.method for r in table.ok_rows()})
    series, bands = {}, {}
    for method in methods:
        medians, lows, highs = [], [], []
        for count in counts:
            values = np.array(
                [
                    r.accuracy
                    for r in table.ok_rows()
                    if r.method == method and r.count == count and r.accuracy is not None
                ]
            )
            if values.size == 0:
                break
            medians.append(float(np.median(values)))
            lows.append(float(np.percentile(values, 25)))
            highs.append(float(np.percentile(values, 75)))
        if len(medians) == len(counts):
            series[method] = medians
            bands[method] = (lows, highs)
    if counts and series:
        plots.line_chart(
            os.path.join(plots_dir, "sensitivity.svg"),
            counts,
            series,
            title="Target accuracy vs corrupted models added (median, IQR band)",
            x_label="corrupted models added",
            y_label="target accuracy",
            bands=bands,
        )


def _emit_correlation_plots(table, plots_dir):
    groups = {}
    for row in table.ok_rows():
        groups.setdefault(row.method, []).append(row.pearson_r)
    if groups:
        labels = sorted(groups)
        plots.box_plot(
            os.path.join(plots_dir, "correlation.svg"),
            labels,
            [groups[label] for label in labels],
            title="Weight vs per-model accuracy correlation",
            y_label="Pearson r",
        )


def _emit_rate_plots(table, plots_dir):
    medians = table.medians()
    quartiles = table.quartiles()
    sizes = list(table.sizes)
    plots.line_chart(
        os.path.join(plots_dir, "rate.svg"),
        sizes,
        {"iwa": [medians[s] for s in sizes]},
        title="Weight-vector deviation from oracle vs sample size",
        x_label="n = m",
        y_label="||c_tilde - c_star||",
        bands={"iwa": ([quartiles[s][0] for s in sizes], [quartiles[s][1] for s in sizes])},
        log_x=True,
    )


def emit_plots(table, plots_dir):
    """SVG panels (plus companion CSVs) appropriate to the table's kind."""
    os.makedirs(plots_dir, exist_ok=True)
    if table.kind == "sensitivity":
        _emit_sensitivity_plots(table, plots_dir)
    elif table.kind == "correlation":
        _emit_correlation_plots(table, plots_dir)
    elif table.kind == "rate":
        _emit_rate_plots(table, plots_dir)
    else:
        _emit_run_plots(table, plots_dir)


def write_outputs(table, out_dir):
    """results.csv, results.json, and plots/*.svg under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    table.write_csv(os.path.join(out_dir, "results.csv"))
    table.write_json(os.path.join(out_dir, "results.json"))
    emit_plots(table, os.path.join(out_dir, "plots"))
