"""Evaluation metrics, sample quartiles and the one-hot class code."""

import math

import numpy as np

from .errors import DimensionError, NumericalError, class_labels, row_weights


def risk(preds, ys, weights=None):
    """Mean squared output-space distance: mean_k ||preds_k - ys_k||^2.

    With per-row probability ``weights`` (a quadrature rule, say) it is the
    weighted sum sum_k weights_k ||preds_k - ys_k||^2 instead; weights off
    shape (rows,) raise DimensionError, NaN or inf weights NumericalError.
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
    return float(row_weights(weights, losses.shape[0], "weights") @ losses)


def accuracy(preds, labels):
    """Fraction of rows whose argmax prediction matches the integer label.

    argmax ties resolve to the lowest class index.
    """
    preds = np.asarray(preds, dtype=float)
    if preds.ndim != 2:
        raise DimensionError(f"predictions must be (rows, classes), got shape {preds.shape}")
    return float(accuracies(preds[None], labels)[0])


def accuracies(stack, labels):
    """Each model's accuracy (see ``accuracy``) from a (models, rows, classes) stack.

    Labels must be integers in [0, classes).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError(f"labels must be a 1-d class-index vector, got shape {labels.shape}")
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != labels.shape[0]:
        raise DimensionError(f"predictions of shape {stack.shape} but {labels.shape[0]} labels")
    if labels.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on an empty sample")
    labels = class_labels(labels, stack.shape[2])
    if stack.shape[2] == 2:
        return (picks_class1(stack) == (labels == 1)).mean(axis=1)
    # One model at a time: a whole stack's argmax holds a (models, rows)
    # int64 index array, eight times the two-class path's boolean one.
    return np.array([(preds.argmax(axis=1) == labels).mean() for preds in stack])


def quartiles(values):
    """(25th percentile, median, 75th percentile) of a sample, bit for bit as numpy gives them.

    ``np.percentile``'s linear method interpolates the sorted sample at
    (n - 1) q, and ``np.median`` takes the middle value or the mean of the
    middle two; both import ``numpy.ma`` on first use, this does not. Only
    the sign of a zero can differ, where +0 and -0 tie in the middle. A NaN
    anywhere, or an empty sample, gives nan for all three.
    """
    values = np.sort(np.asarray(values, dtype=float).ravel())
    n = values.size
    if n == 0 or np.isnan(values[-1]):
        return (math.nan,) * 3
    half = n // 2
    median = values[half] if n % 2 else (values[half - 1] + values[half]) / 2

    def percentile(q):
        low, t = divmod((n - 1) * q, 1)
        a, b = values[int(low)], values[min(int(low) + 1, n - 1)]
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)

    return float(percentile(0.25)), float(median), float(percentile(0.75))


def one_hot(labels, classes):
    """One-hot rows of class labels (see ``errors.class_labels``); a scalar gives one vector.

    Also the aggregation-weight view of a single chosen model.
    """
    return np.eye(classes)[class_labels(labels, classes)]


def picks_class1(preds):
    """Where ``preds.argmax(axis=-1)`` is 1 on a (..., 2) array, without the argmax.

    argmax takes the first maximum and counts NaN above every number, so
    class 1 wins only when column 0 is not NaN and not >= column 1.
    """
    p0, p1 = preds[..., 0], preds[..., 1]
    return ~(p0 >= p1) & (p0 == p0)


def pearson_with_flag(a, b):
    """Pearson correlation plus a degeneracy flag.

    A constant input vector makes the correlation undefined; it is reported
    as 0.0 with the flag set. A NaN or inf input raises NumericalError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"inputs must be equal-length vectors, got {a.shape} and {b.shape}")
    if a.shape[0] < 2:
        raise ValueError("correlation needs at least two samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericalError("correlation inputs contain NaN or inf")
    if a.max() == a.min() or b.max() == b.min():
        return 0.0, True
    ca = a - a.mean()
    cb = b - b.mean()
    denom = math.sqrt(float((ca**2).sum()) * float((cb**2).sum()))
    if denom == 0.0:
        return 0.0, True
    r = float((ca * cb).sum()) / denom
    return max(-1.0, min(1.0, r)), False
