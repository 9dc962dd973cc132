"""Density-ratio estimators.

A ratio estimate beta: X -> [0, B] reweights labeled source samples so that
source averages approximate target expectations. A ratio is any object with
a ``weights(xs)`` method returning beta on every row of the sample matrix
``xs``. Two routes: the analytic ratio of two known Gaussians (the 1-d
regression benchmark) and a learned logistic source-vs-target domain
classifier.
"""

import numpy as np

from .errors import DimensionError

DEFAULT_BOUND = 50.0

# Classifier probabilities are clamped away from {0, 1} before forming odds.
PROB_CLAMP = 1e-6
# Full-batch gradient steps of the domain classifier, and their step size.
DOMAIN_EPOCHS = 500
DOMAIN_LR = 0.5


class ConstantRatio:
    """beta == value everywhere (value 1 recovers unweighted averaging)."""

    def __init__(self, value=1.0):
        value = float(value)
        if value < 0:
            raise ValueError(f"ratio value must be non-negative, got {value}")
        self.value = value
        self.bound = max(value, 1.0)

    def weights(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2:
            raise DimensionError(f"xs must be a 2-d sample matrix, got shape {xs.shape}")
        return np.full(xs.shape[0], self.value)


class GaussianRatio:
    """Analytic ratio of two univariate Gaussian densities, clipped to [0, bound]."""

    def __init__(self, source_mean, source_std, target_mean, target_std, bound=DEFAULT_BOUND):
        if source_std <= 0 or target_std <= 0:
            raise ValueError("standard deviations must be positive")
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        self.source_mean = float(source_mean)
        self.source_std = float(source_std)
        self.target_mean = float(target_mean)
        self.target_std = float(target_std)
        self.bound = float(bound)

    def _log_ratio(self, values):
        zp = (values - self.source_mean) / self.source_std
        zq = (values - self.target_mean) / self.target_std
        return np.log(self.source_std / self.target_std) + 0.5 * (zp**2 - zq**2)

    def weights(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 1:
            raise DimensionError(
                f"the Gaussian ratio is univariate; xs must be (k, 1), got shape {xs.shape}"
            )
        with np.errstate(over="ignore"):
            raw = np.exp(self._log_ratio(xs[:, 0]))
        return np.clip(raw, 0.0, self.bound)


class LearnedRatio:
    """Domain-classifier ratio: prior_ratio * d(x) / (1 - d(x)), clipped to [0, bound].

    d(x) is the logistic probability that x came from the target domain,
    clamped to [PROB_CLAMP, 1 - PROB_CLAMP]; prior_ratio = n/m corrects for
    the source/target sample imbalance in the classifier's training set.
    """

    def __init__(self, weights, intercept, prior_ratio, bound=DEFAULT_BOUND):
        self.coef = np.asarray(weights, dtype=float)
        if self.coef.ndim != 1:
            raise DimensionError(f"classifier weights must be 1-d, got shape {self.coef.shape}")
        self.intercept = float(intercept)
        if prior_ratio <= 0:
            raise ValueError(f"prior_ratio must be positive, got {prior_ratio}")
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        self.prior_ratio = float(prior_ratio)
        self.bound = float(bound)

    def weights(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2:
            raise DimensionError(f"xs must be a 2-d sample matrix, got shape {xs.shape}")
        if xs.shape[1] != self.coef.shape[0]:
            raise DimensionError(
                f"input has {xs.shape[1]} columns but the classifier expects {self.coef.shape[0]}"
            )
        with np.errstate(over="ignore"):
            probs = 1.0 / (1.0 + np.exp(-(xs @ self.coef + self.intercept)))
        d = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
        return np.clip(self.prior_ratio * d / (1.0 - d), 0.0, self.bound)


def fit_domain_classifier(source_x, target_x):
    """Logistic source-vs-target classifier trained by full-batch gradient descent.

    Source rows get label 0, target rows label 1; parameters start at zero
    and take DOMAIN_EPOCHS steps of size DOMAIN_LR, so the fit is
    deterministic and (up to float summation order) invariant under
    reordering of the training rows. The ratio is clipped at DEFAULT_BOUND.
    """
    source_x = np.asarray(source_x, dtype=float)
    target_x = np.asarray(target_x, dtype=float)
    if source_x.ndim != 2 or target_x.ndim != 2:
        raise DimensionError("source_x and target_x must be 2-d sample matrices")
    if source_x.shape[1] != target_x.shape[1]:
        raise DimensionError(
            f"source has {source_x.shape[1]} columns but target has {target_x.shape[1]}"
        )
    n, m = source_x.shape[0], target_x.shape[0]
    if n == 0 or m == 0:
        raise ValueError("both domains need at least one sample")
    if not (np.all(np.isfinite(source_x)) and np.all(np.isfinite(target_x))):
        raise ValueError("training data must be finite")
    x = np.vstack([source_x, target_x])
    y = np.concatenate([np.zeros(n), np.ones(m)])
    total = n + m
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(DOMAIN_EPOCHS):
        with np.errstate(over="ignore"):
            probs = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        resid = probs - y
        w = w - DOMAIN_LR * (x.T @ resid) / total
        b = b - DOMAIN_LR * float(resid.mean())
    return LearnedRatio(w, b, n / m)
