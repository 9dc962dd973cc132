"""Importance-weighted model selection.

Selection baselines score every model by a beta-weighted squared source
loss and pick the argmin. The control-variate variant reduces the variance
of the importance-weighted estimate using the weights themselves as the
control. Neither route sees target labels, and non-finite predictions,
labels or ratio weights raise NumericalError instead of ranking NaN scores.
"""

from dataclasses import dataclass

import numpy as np

from .errors import checked_stack, row_weights

# Below this weight variance the control variate is undefined and the plain
# importance-weighted score is used unchanged.
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class SelectionResult:
    """Chosen model index plus the per-model scores that ranked it first."""

    chosen_index: int
    scores: np.ndarray


def _per_model_losses(source_predictions, source_y):
    preds, source_y = checked_stack(source_predictions, source_y)
    return ((preds - source_y[None, :, :]) ** 2).sum(axis=2)


def iwv_select(source_predictions, source_y, source_weights):
    """Pick argmin_i mean_k w_k * ||f_i(x_k) - y_k||^2; ties -> lowest index.

    ``source_weights`` holds the density ratio on the source rows, beta(source_x).
    """
    losses = _per_model_losses(source_predictions, source_y)
    w = row_weights(source_weights, losses.shape[1])
    scores = (losses * w).mean(axis=1)
    return SelectionResult(chosen_index=int(np.argmin(scores)), scores=scores)


def dev_select(source_predictions, source_y, source_weights):
    """Control-variate variant of importance-weighted validation.

    Per model: score = mean(w*l) + eta * (mean(w) - 1) with
    eta = -Cov(w*l, w) / Var(w), population (1/n) normalizers throughout.
    Falls back to the plain importance-weighted score when Var(w) is below
    VARIANCE_FLOOR. Takes the same arguments as ``iwv_select``.
    """
    losses = _per_model_losses(source_predictions, source_y)
    w = row_weights(source_weights, losses.shape[1])
    weighted = losses * w
    base = weighted.mean(axis=1)
    var_w = float(w.var())
    if var_w < VARIANCE_FLOOR:
        scores = base
    else:
        centered_w = w - w.mean()
        cov = ((weighted - base[:, None]) * centered_w).mean(axis=1)
        eta = -cov / var_w
        scores = base + eta * (float(w.mean()) - 1.0)
    return SelectionResult(chosen_index=int(np.argmin(scores)), scores=scores)
