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

from .datasets import one_hot
from .errors import DegenerateGramError, DimensionError, NumericalError
from .linalg import DEFAULT_RCOND, spectral_pinv
from .models import stack_predictions


def _prediction_stack(models, xs, predictions):
    """The models' outputs on xs: a given stack, checked to cover them, or a fresh one."""
    if predictions is None:
        predictions = stack_predictions(models, xs)
    predictions = np.asarray(predictions, dtype=float)
    if predictions.ndim != 3 or predictions.shape[:2] != (len(models), len(xs)):
        raise DimensionError(
            f"prediction stack of shape {predictions.shape} does not cover "
            f"{len(models)} models on {len(xs)} rows"
        )
    return predictions


def _require_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} contain NaN or inf")


def _checked_stack(predictions, labels=None):
    """A non-empty, finite (l, k, d2) prediction stack and its (k, d2) labels, as floats.

    Without labels only the stack is checked and the labels come back None.
    """
    preds = np.asarray(predictions, dtype=float)
    if preds.ndim != 3:
        raise DimensionError(f"prediction stack of shape {preds.shape} is not (l, k, d2)")
    if preds.shape[1] == 0:
        raise ValueError("cannot fit or score on an empty sample")
    _require_finite(preds, "predictions")
    if labels is not None:
        labels = np.asarray(labels, dtype=float)
        if labels.shape != preds.shape[1:]:
            raise DimensionError(
                f"labels of shape {labels.shape} do not match predictions {preds.shape[1:]}"
            )
        _require_finite(labels, "labels")
    return preds, labels


def _ratio_weights(weights, n):
    """Density-ratio weights on the n source rows, checked for shape and finiteness."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DimensionError(f"ratio weights of shape {w.shape}, expected ({n},)")
    _require_finite(w, "density-ratio weights")
    return w


def _gram(preds):
    l, k, d2 = preds.shape
    flat = preds.reshape(l, k * d2)
    gram = flat @ flat.T / k
    return 0.5 * (gram + gram.T)


def _moment(preds, weighted_y):
    return np.tensordot(preds, weighted_y, axes=([1, 2], [0, 1])) / preds.shape[1]


def empirical_gram(target_predictions):
    """Gram matrix G[i, j] = mean_k <f_i(x_k), f_j(x_k)> over an (l, k, d2) stack.

    Exactly symmetric by construction and positive semi-definite up to
    rounding. Non-finite predictions raise NumericalError.
    """
    preds, _ = _checked_stack(target_predictions)
    return _gram(preds)


def empirical_moment(source_predictions, source_y, source_weights):
    """Moment vector g[i] = mean_k w_k <y_k, f_i(x_k)> over labeled source rows.

    ``source_weights`` holds the density ratio on the source rows,
    beta(source_x). Non-finite predictions, labels or weights raise
    NumericalError.
    """
    preds, source_y = _checked_stack(source_predictions, source_y)
    w = _ratio_weights(source_weights, preds.shape[1])
    return _moment(preds, w[:, None] * source_y)


@dataclass(frozen=True)
class AggregationResult:
    """Aggregation weights plus the spectrum diagnostics of their Gram matrix."""

    weights: np.ndarray
    gram_condition: float
    rank_retained: int


def aggregate_predictions(weights, predictions):
    """The aggregate's outputs sum_i weights[i] * predictions[i], shape (k, d2)."""
    weights = np.asarray(weights, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if predictions.ndim != 3 or weights.shape != predictions.shape[:1]:
        raise DimensionError(
            f"weight vector of shape {weights.shape} does not match a prediction stack "
            f"of shape {predictions.shape}"
        )
    return np.tensordot(weights, predictions, axes=(0, 0))


def _label_regression(preds, labels, rcond):
    """Unweighted least squares of (pseudo-)labels onto one prediction stack.

    The stack feeds both the Gram matrix and the moment vector, so it is
    checked once. With unit ratio weights ``iwa`` computes the same Gram and
    moment from the same kernels, so the two agree bitwise.
    """
    preds, labels = _checked_stack(preds, labels)
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
    target labels. The models are predicted here unless their source and
    target stacks are given; a given stack must cover the models and rows.
    """
    gram = empirical_gram(_prediction_stack(models, target_x, target_predictions))
    source = _prediction_stack(models, source_x, source_predictions)
    moment = empirical_moment(source, source_y, beta.weights(source_x))
    return _solve_aggregation(gram, moment, rcond)


def oracle_weights(target_predictions, target_y, rcond=1e-8):
    """Least squares of labeled target draws onto the models' (l, k, d2) outputs.

    Evaluation-only reference: this is the aggregation a labeled target
    sample would pick, solved with the same truncated pseudo-inverse. The
    default rcond is small because the reference should only drop numerically
    empty directions, not regularize.
    """
    return _label_regression(target_predictions, target_y, rcond)


def sor(source_predictions, source_y, rcond=DEFAULT_RCOND):
    """Source-only least-squares aggregation.

    Identical to ``iwa`` with beta == 1 and the source sample standing in
    for the target inputs (the no-shift reduction), so the two agree bitwise
    in that configuration.
    """
    return _label_regression(source_predictions, source_y, rcond)


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


def tmr(target_predictions, rcond=DEFAULT_RCOND):
    """Majority-vote pseudo-labels, then least squares onto the model outputs."""
    preds, _ = _checked_stack(target_predictions)
    _check_classification(preds.shape[2])
    pseudo = one_hot(majority_votes(preds), preds.shape[2])
    return _label_regression(preds, pseudo, rcond)


def tcr(target_predictions, rcond=DEFAULT_RCOND):
    """Pseudo-labels from the argmax of the model-averaged output, then least squares."""
    preds, _ = _checked_stack(target_predictions)
    _check_classification(preds.shape[2])
    mean_output = preds.mean(axis=0)
    pseudo = one_hot(mean_output.argmax(axis=1), preds.shape[2])
    return _label_regression(preds, pseudo, rcond)
