"""Least-squares aggregation of model sequences.

The importance-weighted aggregate solves G c = g where the Gram matrix G is
estimated on unlabeled target inputs and the moment vector g on
beta-weighted labeled source samples; everything is solved through the
rcond-truncated pseudo-inverse. Every estimator here (``iwa``, the
source-only and pseudo-label regressions ``sor``, ``tmr`` and ``tcr``, and
the labeled-target ``oracle_weights``) checks its inputs and then makes one
call to the weighted least-squares core ``_weighted_ls``; they differ only
in the stacks, row weights and labels they hand it, and each returns the
core's ``AggregationResult``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGramError, DimensionError, checked_stack, row_weights, sample_matrix
from .linalg import DEFAULT_RCOND, spectral_pinv
from .metrics import one_hot, picks_class1
from .models import stack_predictions


def _prediction_stack(models, xs, predictions):
    """The models' outputs on xs: a given stack, checked to cover them, or a fresh one."""
    if predictions is None:
        predictions = stack_predictions(models, xs)
    predictions = np.asarray(predictions, dtype=float)
    # Models that disagree on output_dim leave no 3-d shape to match.
    dims = {m.output_dim for m in models}
    if predictions.shape != (len(models), len(xs), *dims):
        raise DimensionError(
            f"prediction stack of shape {predictions.shape} does not cover "
            f"{len(models)} models of output_dim {sorted(dims)} on {len(xs)} rows"
        )
    return predictions


def _gram(preds, weights=None):
    """sum_k w_k F_k F_k^T over the rows of an (l, k, d2) stack; w_k = 1/k without weights."""
    l, k, d2 = preds.shape
    flat = preds.reshape(l, k * d2)
    if weights is None:
        gram = flat @ flat.T / k
    else:
        gram = (preds * weights[:, None]).reshape(l, k * d2) @ flat.T
    return 0.5 * (gram + gram.T)


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


def _weighted_ls(gram_preds, moment_preds, labels, rcond, weights=None):
    """c = G+ g from stacks and (k, d2) labels that ``checked_stack`` has checked.

    G = sum_k w_k F_k F_k^T over the rows of ``gram_preds`` and
    g[i] = sum_k w_k <F_ik, y_k> over ``moment_preds`` and ``labels``. Without
    ``weights`` every row counts 1/k; per-row probability ``weights`` weight
    both sums, so the two stacks must then hold the same rows.
    """
    axes = ([1, 2], [0, 1])
    if weights is None:
        moment = np.tensordot(moment_preds, labels, axes=axes) / moment_preds.shape[1]
    else:
        moment = np.tensordot(moment_preds, weights[:, None] * labels, axes=axes)
    info = spectral_pinv(_gram(gram_preds, weights), rcond)
    if info.rank_retained == 0:
        raise DegenerateGramError(
            "every Gram eigenvalue fell at or below the rcond cutoff; the model "
            "sequence is numerically redundant - prune near-duplicate models or lower rcond"
        )
    return AggregationResult(info.inverse @ moment, info.condition, info.rank_retained)


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
    target stacks are given; a given stack must cover the models, their
    output_dim and the rows.
    """
    source_x = sample_matrix(source_x, "source_x")
    target_x = sample_matrix(target_x, "target_x")
    target, _ = checked_stack(_prediction_stack(models, target_x, target_predictions))
    source = _prediction_stack(models, source_x, source_predictions)
    source, source_y = checked_stack(source, source_y)
    w = row_weights(beta.weights(source_x), source.shape[1])
    return _weighted_ls(target, source, w[:, None] * source_y, rcond)


def oracle_weights(target_predictions, target_y, rcond=1e-8, weights=None):
    """Least squares of labeled target draws onto the models' (l, k, d2) outputs.

    Evaluation-only reference: this is the aggregation a labeled target
    sample would pick, solved with the same truncated pseudo-inverse. The
    default rcond is small because the reference should only drop numerically
    empty directions, not regularize. With per-row probability ``weights``
    (a quadrature rule of the target law and its noise-free labels) it is the
    weighted least squares that minimises the exact target risk.
    """
    preds, target_y = checked_stack(target_predictions, target_y)
    if weights is not None:
        weights = row_weights(weights, preds.shape[1], "row weights")
    return _weighted_ls(preds, preds, target_y, rcond, weights)


def sor(source_predictions, source_y, rcond=DEFAULT_RCOND):
    """Source-only least-squares aggregation.

    Identical to ``iwa`` with beta == 1 and the source sample standing in
    for the target inputs (the no-shift reduction), so the two agree bitwise
    in that configuration.
    """
    preds, source_y = checked_stack(source_predictions, source_y)
    return _weighted_ls(preds, preds, source_y, rcond)


def _check_classification(d2):
    if d2 < 2:
        raise DimensionError(f"classification baselines need output_dim >= 2, got {d2}")


def majority_votes(predictions):
    """Per-sample majority vote over the models' argmax classes (ties -> lowest index).

    A NaN or inf output raises NumericalError rather than casting a vote.
    """
    preds, _ = checked_stack(predictions)
    return _majority_votes(preds)


def _majority_votes(preds):
    """``majority_votes`` of a stack that ``checked_stack`` has checked."""
    l, k, d2 = preds.shape
    _check_classification(d2)
    if d2 == 2:
        return (2 * picks_class1(preds).sum(axis=0) > l).astype(int)
    votes = preds.argmax(axis=2)
    counts = np.zeros((k, d2), dtype=int)
    rows = np.arange(k)
    for i in range(l):
        counts[rows, votes[i]] += 1
    return counts.argmax(axis=1)


def tmr(target_predictions, rcond=DEFAULT_RCOND):
    """Majority-vote pseudo-labels, then least squares onto the model outputs."""
    preds, _ = checked_stack(target_predictions)
    pseudo = one_hot(_majority_votes(preds), preds.shape[2])
    return _weighted_ls(preds, preds, pseudo, rcond)


def tcr(target_predictions, rcond=DEFAULT_RCOND):
    """Pseudo-labels from the argmax of the model-averaged output, then least squares."""
    preds, _ = checked_stack(target_predictions)
    _check_classification(preds.shape[2])
    mean_output = preds.mean(axis=0)
    pseudo = one_hot(mean_output.argmax(axis=1), preds.shape[2])
    return _weighted_ls(preds, preds, pseudo, rcond)
