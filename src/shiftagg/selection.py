"""Importance-weighted model selection.

Selection baselines score every model by a beta-weighted source loss and
pick the argmin. The control-variate variant reduces the variance of the
importance-weighted estimate using the weights themselves as the control.
Neither route sees target labels, and non-finite predictions, labels or
ratio weights raise NumericalError instead of ranking NaN scores.
"""

from dataclasses import dataclass

import numpy as np

from .aggregation import _prediction_stack, _ratio_weights, _require_finite
from .errors import DimensionError

LOSSES = ("squared", "zero_one")

# Below this weight variance the control variate is undefined and the plain
# importance-weighted score is used unchanged.
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class SelectionResult:
    """Chosen model index plus the per-model scores that ranked it first."""

    chosen_index: int
    scores: np.ndarray


def _per_model_losses(models, source_x, source_y, loss, predictions):
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
    preds = _prediction_stack(models, source_x, predictions)
    source_y = np.asarray(source_y, dtype=float)
    l, n, d2 = preds.shape
    if n == 0:
        raise ValueError("cannot score models on an empty sample")
    if source_y.shape != (n, d2):
        raise DimensionError(
            f"labels of shape {source_y.shape} do not match predictions {(n, d2)}"
        )
    _require_finite(preds, "source predictions")
    _require_finite(source_y, "source labels")
    if loss == "squared":
        diff = preds - source_y[None, :, :]
        return (diff**2).sum(axis=2)
    if d2 < 2:
        raise DimensionError("zero_one loss needs classification outputs (d2 >= 2)")
    truth = source_y.argmax(axis=1)
    return (preds.argmax(axis=2) != truth[None, :]).astype(float)


def iwv_select(models, source_x, source_y, beta, loss="squared", *, predictions=None):
    """Pick argmin_i mean_k beta(x_k) * loss(f_i(x_k), y_k); ties -> lowest index."""
    losses = _per_model_losses(models, source_x, source_y, loss, predictions)
    w = _ratio_weights(beta, source_x, losses.shape[1])
    scores = (losses * w).mean(axis=1)
    return SelectionResult(chosen_index=int(np.argmin(scores)), scores=scores)


def dev_select(models, source_x, source_y, beta, loss="squared", *, predictions=None):
    """Control-variate variant of importance-weighted validation.

    Per model: score = mean(w*l) + eta * (mean(w) - 1) with
    eta = -Cov(w*l, w) / Var(w), population (1/n) normalizers throughout.
    Falls back to the plain importance-weighted score when Var(w) is below
    VARIANCE_FLOOR.
    """
    losses = _per_model_losses(models, source_x, source_y, loss, predictions)
    w = _ratio_weights(beta, source_x, losses.shape[1])
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
