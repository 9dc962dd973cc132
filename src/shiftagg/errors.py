"""Shared exception types and the input rules every module checks against.

A sample matrix, a prediction stack, a row-weight vector and a vector of
class labels are each checked by one function here; every message names
the argument at fault.
"""

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class NumericalError(RuntimeError):
    """A numerical routine failed (non-convergence, singular system, ...)."""


class DegenerateGramError(NumericalError):
    """Every Gram eigenvalue fell at or below the rcond cutoff."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


class CsvFormatError(ConfigError):
    """A CSV file violated the expected format.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: "
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


# What stops a run instead of failing one seed: a bad setting, or an input
# file that is missing, unreadable or malformed.
INPUT_FAULTS = (ConfigError, OSError)


def sample_matrix(x, name, columns=None, *, fitting=False):
    """``x`` as a float (rows, columns) sample matrix named ``name``.

    A wrong rank or column count raises DimensionError. A ``fitting`` sample
    must also have at least one row and only finite entries, else ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d sample matrix, got shape {x.shape}")
    if columns is not None and x.shape[1] != columns:
        raise DimensionError(f"{name} has {x.shape[1]} columns, expected {columns}")
    if fitting:
        if x.shape[0] == 0:
            raise ValueError(f"{name} is empty: need at least one row")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} contains non-finite entries")
    return x


def _require_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} contain NaN or inf")


def checked_stack(predictions, labels=None):
    """A non-empty, finite (l, k, d2) prediction stack and its (k, d2) labels, as floats.

    Without labels only the stack is checked and the labels come back None.
    Shape faults raise DimensionError, a stack with no models, no rows or no
    output columns ValueError, and NaN or inf NumericalError.
    """
    preds = np.asarray(predictions, dtype=float)
    if preds.ndim != 3:
        raise DimensionError(f"prediction stack of shape {preds.shape} is not (l, k, d2)")
    if preds.shape[0] == 0:
        raise ValueError("predictions hold no models: need at least one model")
    if preds.shape[1] == 0:
        raise ValueError("predictions are empty: need at least one row")
    if preds.shape[2] == 0:
        raise ValueError("predictions have no output columns: need at least one")
    _require_finite(preds, "predictions")
    if labels is not None:
        labels = np.asarray(labels, dtype=float)
        if labels.shape != preds.shape[1:]:
            raise DimensionError(
                f"labels of shape {labels.shape} do not match predictions {preds.shape[1:]}"
            )
        _require_finite(labels, "labels")
    return preds, labels


def row_weights(weights, n, what="density-ratio weights"):
    """Per-row weights on n rows: DimensionError off shape (n,), NumericalError on NaN or inf."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DimensionError(f"{what} of shape {w.shape}, expected ({n},)")
    _require_finite(w, what)
    return w


def class_labels(labels, classes):
    """``labels`` as ints; ValueError unless every one is a whole number in range(classes)."""
    labels = np.asarray(labels)
    if labels.size:
        if labels.dtype.kind not in "iub" and not np.array_equal(labels, np.round(labels)):
            raise ValueError("labels must be integers")
        if labels.min() < 0 or labels.max() >= classes:
            raise ValueError("labels out of range: must lie in [0, classes)")
    return labels.astype(int, copy=False)
