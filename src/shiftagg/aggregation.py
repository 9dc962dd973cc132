"""Least-squares aggregation of model sequences.

The importance-weighted aggregate solves G c = g where the Gram matrix G is
estimated on unlabeled target inputs and the moment vector g on
beta-weighted labeled source samples; everything is solved through the
rcond-truncated pseudo-inverse. The label-free baselines (source-only
regression, target majority vote, and the two pseudo-label regressions)
share the same machinery.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGramError, DimensionError, NumericalError
from .linalg import DEFAULT_RCOND, spectral_pinv
from .models import Model, stack_predictions


def _prediction_stack(models, xs, predictions):
    if predictions is None:
        predictions = stack_predictions(models, xs)
    predictions = np.asarray(predictions, dtype=float)
    if predictions.ndim != 3 or predictions.shape[0] != len(models):
        raise DimensionError(
            f"prediction stack of shape {predictions.shape} does not cover {len(models)} models"
        )
    return predictions


def _require_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} contain NaN or inf")


def _gram(preds):
    l, k, d2 = preds.shape
    flat = preds.reshape(l, k * d2)
    gram = flat @ flat.T / k
    return 0.5 * (gram + gram.T)


def _moment(preds, weighted_y):
    return np.tensordot(preds, weighted_y, axes=([1, 2], [0, 1])) / preds.shape[1]


def empirical_gram(models, target_x, *, predictions=None):
    """Gram matrix G[i, j] = mean_k <f_i(x_k), f_j(x_k)> over the rows of target_x.

    Exactly symmetric by construction and positive semi-definite up to
    rounding. ``predictions`` may carry a precomputed stack of model outputs
    (shape (l, k, d2)) to avoid re-evaluating the models. Non-finite
    predictions raise NumericalError.
    """
    preds = _prediction_stack(models, target_x, predictions)
    if preds.shape[1] == 0:
        raise ValueError("cannot form a Gram matrix from an empty sample")
    _require_finite(preds, "target predictions")
    return _gram(preds)


def empirical_moment(models, source_x, source_y, beta, *, predictions=None):
    """Moment vector g[i] = mean_k beta(x_k) <y_k, f_i(x_k)> over labeled source rows.

    Non-finite predictions, labels or ratio weights raise NumericalError.
    """
    preds = _prediction_stack(models, source_x, predictions)
    source_y = np.asarray(source_y, dtype=float)
    l, n, d2 = preds.shape
    if n == 0:
        raise ValueError("cannot form a moment vector from an empty sample")
    if source_y.shape != (n, d2):
        raise DimensionError(
            f"labels of shape {source_y.shape} do not match predictions {(n, d2)}"
        )
    w = np.asarray(beta.weights(source_x), dtype=float)
    if w.shape != (n,):
        raise DimensionError(f"beta produced weights of shape {w.shape}, expected ({n},)")
    _require_finite(preds, "source predictions")
    _require_finite(source_y, "source labels")
    _require_finite(w, "density-ratio weights")
    return _moment(preds, w[:, None] * source_y)


@dataclass(frozen=True)
class AggregationResult:
    """Aggregation weights plus the linear system and its spectrum diagnostics."""

    weights: np.ndarray
    gram: np.ndarray
    moment: np.ndarray
    gram_condition: float
    rank_retained: int


class AggregatedModel(Model):
    """Weighted sum of a model sequence's outputs."""

    def __init__(self, models, weights):
        self.models = list(models)
        self.coefficients = np.asarray(weights, dtype=float)
        if not self.models:
            raise ValueError("need at least one model to aggregate")
        if self.coefficients.shape != (len(self.models),):
            raise DimensionError(
                f"{len(self.models)} models but weight vector of shape {self.coefficients.shape}"
            )
        dims = {m.output_dim for m in self.models}
        if len(dims) != 1:
            raise DimensionError(f"models disagree on output_dim: {sorted(dims)}")
        self.output_dim = dims.pop()
        in_dims = {m.input_dim for m in self.models if m.input_dim is not None}
        self.input_dim = in_dims.pop() if len(in_dims) == 1 else None

    def predict_many(self, xs):
        preds = stack_predictions(self.models, xs)
        return np.tensordot(self.coefficients, preds, axes=(0, 0))


def _label_regression(preds, labels, rcond):
    """Unweighted least squares of (pseudo-)labels onto one prediction stack.

    The stack feeds both the Gram matrix and the moment vector, so it is
    checked once. With unit ratio weights ``iwa`` computes the same Gram and
    moment from the same kernels, so the two agree bitwise.
    """
    labels = np.asarray(labels, dtype=float)
    _, k, d2 = preds.shape
    if k == 0:
        raise ValueError("cannot fit weights on an empty sample")
    if labels.shape != (k, d2):
        raise DimensionError(f"labels of shape {labels.shape} do not match predictions {(k, d2)}")
    _require_finite(preds, "predictions")
    _require_finite(labels, "labels")
    return _solve_aggregation(_gram(preds), _moment(preds, labels), rcond).weights


def _solve_aggregation(gram, moment, rcond):
    info = spectral_pinv(gram, rcond)
    if info.rank_retained == 0:
        raise DegenerateGramError(
            "every Gram eigenvalue fell at or below the rcond cutoff; the model "
            "sequence is numerically redundant - prune near-duplicate models or lower rcond"
        )
    return AggregationResult(
        weights=info.inverse @ moment,
        gram=gram,
        moment=moment,
        gram_condition=info.condition,
        rank_retained=info.rank_retained,
    )


def iwa(
    models,
    source_x,
    source_y,
    target_x,
    beta,
    rcond=DEFAULT_RCOND,
    *,
    source_predictions=None,
    target_predictions=None,
):
    """Importance-weighted least-squares aggregation weights.

    The Gram matrix is estimated on the unlabeled target inputs, the moment
    vector on beta-weighted labeled source samples, and the weights solve
    the resulting system through the rcond-truncated pseudo-inverse. Uses no
    target labels.
    """
    gram = empirical_gram(models, target_x, predictions=target_predictions)
    moment = empirical_moment(models, source_x, source_y, beta, predictions=source_predictions)
    return _solve_aggregation(gram, moment, rcond)


def oracle_weights(models, target_x, target_y, rcond=1e-8, *, predictions=None):
    """Least squares of labeled target draws onto the model outputs.

    Evaluation-only reference: this is the aggregation a labeled target
    sample would pick, solved with the same truncated pseudo-inverse. The
    default rcond is small because the reference should only drop numerically
    empty directions, not regularize.
    """
    return _label_regression(_prediction_stack(models, target_x, predictions), target_y, rcond)


def sor(models, source_x, source_y, rcond=DEFAULT_RCOND, *, predictions=None):
    """Source-only least-squares aggregation.

    Identical to ``iwa`` with beta == 1 and the source sample standing in
    for the target inputs (the no-shift reduction), so the two agree bitwise
    in that configuration.
    """
    return _label_regression(_prediction_stack(models, source_x, predictions), source_y, rcond)


def _check_classification(d2):
    if d2 < 2:
        raise DimensionError(f"classification baselines need output_dim >= 2, got {d2}")


def majority_votes(predictions):
    """Per-sample majority vote over the models' argmax classes (ties -> lowest index)."""
    predictions = np.asarray(predictions, dtype=float)
    l, k, d2 = predictions.shape
    _check_classification(d2)
    votes = predictions.argmax(axis=2)
    counts = np.zeros((k, d2), dtype=int)
    rows = np.arange(k)
    for i in range(l):
        counts[rows, votes[i]] += 1
    return counts.argmax(axis=1)


def _one_hot(labels, classes):
    return np.eye(classes)[labels]


def tmr(models, target_x, rcond=DEFAULT_RCOND, *, predictions=None):
    """Majority-vote pseudo-labels, then least squares onto the model outputs."""
    preds = _prediction_stack(models, target_x, predictions)
    _check_classification(preds.shape[2])
    pseudo = _one_hot(majority_votes(preds), preds.shape[2])
    return _label_regression(preds, pseudo, rcond)


def tcr(models, target_x, rcond=DEFAULT_RCOND, *, predictions=None):
    """Pseudo-labels from the argmax of the model-averaged output, then least squares."""
    preds = _prediction_stack(models, target_x, predictions)
    _check_classification(preds.shape[2])
    mean_output = preds.mean(axis=0)
    pseudo = _one_hot(mean_output.argmax(axis=1), preds.shape[2])
    return _label_regression(preds, pseudo, rcond)
