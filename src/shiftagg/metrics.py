"""Evaluation metrics on prediction arrays and the column order of run results."""

import math

import numpy as np

from .errors import DimensionError

# Column order of every results.csv emitted by the harness.
CSV_COLUMNS = ("method", "risk", "accuracy", "excess", "seed")


def risk(preds, ys, weights=None):
    """Mean squared output-space distance: mean_k ||preds_k - ys_k||^2.

    With per-row probability ``weights`` (a quadrature rule, say) it is the
    weighted sum sum_k weights_k ||preds_k - ys_k||^2 instead.
    """
    preds = np.asarray(preds, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if preds.ndim != 2 or ys.shape != preds.shape:
        raise DimensionError(f"labels of shape {ys.shape} do not match predictions {preds.shape}")
    if ys.shape[0] == 0:
        raise ValueError("cannot evaluate risk on an empty sample")
    losses = ((preds - ys) ** 2).sum(axis=1)
    if weights is None:
        return float(losses.mean())
    weights = np.asarray(weights, dtype=float)
    if weights.shape != losses.shape:
        raise DimensionError(
            f"weights of shape {weights.shape} do not match {losses.shape[0]} rows"
        )
    return float(weights @ losses)


def accuracy(preds, labels):
    """Fraction of rows whose argmax prediction matches the integer label.

    argmax ties resolve to the lowest class index.
    """
    preds = np.asarray(preds, dtype=float)
    if preds.ndim != 2:
        raise DimensionError(f"predictions must be (rows, classes), got shape {preds.shape}")
    return float(accuracies(preds[None], labels)[0])


def accuracies(stack, labels):
    """Each model's accuracy (see ``accuracy``) from a (models, rows, classes) stack."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError(f"labels must be a 1-d class-index vector, got shape {labels.shape}")
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != labels.shape[0]:
        raise DimensionError(f"predictions of shape {stack.shape} but {labels.shape[0]} labels")
    if labels.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on an empty sample")
    labels = labels.astype(int)
    # One model at a time: a whole stack's argmax holds a (models, rows)
    # index array, which on the sensitivity study's 114-model stack raised
    # its peak RSS by about 0.6 MB.
    return np.array([(preds.argmax(axis=1) == labels).mean() for preds in stack])


def pearson_with_flag(a, b):
    """Pearson correlation plus a degeneracy flag.

    A constant input vector makes the correlation undefined; it is reported
    as 0.0 with the flag set.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"inputs must be equal-length vectors, got {a.shape} and {b.shape}")
    if a.shape[0] < 2:
        raise ValueError("correlation needs at least two samples")
    if a.max() == a.min() or b.max() == b.min():
        return 0.0, True
    ca = a - a.mean()
    cb = b - b.mean()
    denom = math.sqrt(float((ca**2).sum()) * float((cb**2).sum()))
    if denom == 0.0:
        return 0.0, True
    r = float((ca * cb).sum()) / denom
    return max(-1.0, min(1.0, r)), False
