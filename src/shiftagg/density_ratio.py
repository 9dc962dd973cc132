"""Density-ratio estimators.

A ratio estimate beta: X -> [0, DEFAULT_BOUND] reweights labeled source
samples so that source averages approximate target expectations. A ratio
is any object with a ``weights(xs)`` method returning beta on every row of
the sample matrix ``xs``. Two routes: the analytic ratio of two known
Gaussians (the 1-d regression benchmark) and a learned logistic
source-vs-target domain classifier.
"""

import numpy as np

from .errors import DimensionError, NumericalError, sample_matrix

DEFAULT_BOUND = 50.0

# Classifier probabilities are clamped away from {0, 1} before forming odds.
PROB_CLAMP = 1e-6
# The domain classifier minimises its mean log-loss plus DOMAIN_PENALTY / 2
# times the squared norm of its standardized slopes and intercept. Newton's
# method stops once the decrement grad @ step falls to DOMAIN_TOL, and
# DOMAIN_STEPS steps without that raise NumericalError.
DOMAIN_PENALTY = 1e-6
DOMAIN_TOL = 1e-20
DOMAIN_STEPS = 100


class ConstantRatio:
    """beta == value everywhere (value 1 recovers unweighted averaging)."""

    def __init__(self, value=1.0):
        value = float(value)
        if not 0 <= value < np.inf:
            raise ValueError(f"ratio value must be non-negative and finite, got {value}")
        self.value = value

    def weights(self, xs):
        return np.full(sample_matrix(xs, "xs").shape[0], self.value)


class GaussianRatio:
    """Analytic ratio of two univariate Gaussian densities, clipped to [0, DEFAULT_BOUND]."""

    def __init__(self, source_mean, source_std, target_mean, target_std):
        if not np.all(np.isfinite([source_mean, target_mean])):
            raise ValueError("means must be finite")
        if not (0 < source_std < np.inf and 0 < target_std < np.inf):
            raise ValueError("standard deviations must be positive and finite")
        self.source_mean = float(source_mean)
        self.source_std = float(source_std)
        self.target_mean = float(target_mean)
        self.target_std = float(target_std)

    def _log_ratio(self, values):
        zp = (values - self.source_mean) / self.source_std
        zq = (values - self.target_mean) / self.target_std
        return np.log(self.source_std / self.target_std) + 0.5 * (zp**2 - zq**2)

    def weights(self, xs):
        xs = sample_matrix(xs, "xs of the univariate Gaussian ratio", 1)
        with np.errstate(over="ignore"):
            raw = np.exp(self._log_ratio(xs[:, 0]))
        return np.clip(raw, 0.0, DEFAULT_BOUND)


class LearnedRatio:
    """Domain-classifier ratio: prior_ratio * d(x) / (1 - d(x)), clipped to [0, DEFAULT_BOUND].

    d(x) is the logistic probability that x came from the target domain,
    clamped to [PROB_CLAMP, 1 - PROB_CLAMP]; prior_ratio = n/m corrects for
    the source/target sample imbalance in the classifier's training set.
    The classifier reads standardized rows, ``(x - center) / spread`` column
    by column, times ``weights`` plus ``intercept``; centre 0 and spread 1
    read the rows as they are.
    """

    def __init__(self, weights, intercept, prior_ratio, *, center=0.0, spread=1.0):
        self.coef = np.asarray(weights, dtype=float)
        if self.coef.ndim != 1:
            raise DimensionError(f"classifier weights must be 1-d, got shape {self.coef.shape}")
        self.intercept = float(intercept)
        if not (np.all(np.isfinite(self.coef)) and np.isfinite(self.intercept)):
            raise ValueError("classifier weights and intercept must be finite")
        self.center = np.asarray(center, dtype=float)
        self.spread = np.asarray(spread, dtype=float)
        if {self.center.shape, self.spread.shape} - {(), self.coef.shape}:
            raise DimensionError(f"center {self.center.shape} and spread {self.spread.shape}"
                                 f" must be scalars or match the weights {self.coef.shape}")
        spread_ok = np.all((self.spread > 0) & (self.spread < np.inf))
        if not (np.all(np.isfinite(self.center)) and spread_ok):
            raise ValueError("center must be finite and spread positive and finite")
        if not prior_ratio > 0:
            raise ValueError(f"prior_ratio must be positive, got {prior_ratio}")
        self.prior_ratio = float(prior_ratio)

    def weights(self, xs):
        xs = sample_matrix(xs, "xs", self.coef.shape[0])
        z = (xs - self.center) / self.spread
        with np.errstate(over="ignore"):
            probs = 1.0 / (1.0 + np.exp(-(z @ self.coef + self.intercept)))
        d = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
        return np.clip(self.prior_ratio * d / (1.0 - d), 0.0, DEFAULT_BOUND)


def fit_domain_classifier(source_x, target_x):
    """Logistic source-vs-target classifier fitted by Newton's method.

    Source rows get label 0, target rows label 1. The fit runs on the pooled
    sample standardized column by column (a constant column is centred on
    its value and keeps spread 1), so the ratio does not depend on the
    inputs' scale or offset; the ratio keeps the centre and spread and
    evaluates the standardized rows, so no raw-scale slope and intercept
    cancel each other. It minimises the mean log-loss plus
    DOMAIN_PENALTY / 2 times the squared norm of the standardized slopes and
    intercept; the penalty makes the minimiser exist, and the Hessian
    positive definite, even when the domains separate. Newton's method starts
    at zero, so the fit is deterministic and (up to float summation order)
    invariant under reordering of the training rows. It stops once its
    decrement falls to DOMAIN_TOL, and raises NumericalError if DOMAIN_STEPS
    steps pass without that. The ratio is clipped at DEFAULT_BOUND.
    """
    source_x = sample_matrix(source_x, "source_x", fitting=True)
    target_x = sample_matrix(target_x, "target_x", source_x.shape[1], fitting=True)
    n, m = source_x.shape[0], target_x.shape[0]
    x = np.vstack([source_x, target_x])
    y = np.concatenate([np.zeros(n), np.ones(m)])
    center, spread = x.mean(axis=0), x.std(axis=0)
    constant = x.min(axis=0) == x.max(axis=0)
    center[constant], spread[constant] = x[0, constant], 1.0
    z = np.hstack([(x - center) / spread, np.ones((n + m, 1))])
    penalty = DOMAIN_PENALTY * np.eye(z.shape[1])
    theta = np.zeros(z.shape[1])
    for _ in range(DOMAIN_STEPS):
        # the logistic function through tanh, which no logit can overflow
        probs = 0.5 + 0.5 * np.tanh(0.5 * (z @ theta))
        grad = z.T @ (probs - y) / (n + m) + DOMAIN_PENALTY * theta
        hess = (z.T * (probs * (1.0 - probs))) @ z / (n + m) + penalty
        step = np.linalg.solve(hess, grad)
        theta -= step
        if grad @ step <= DOMAIN_TOL:
            break
    else:
        raise NumericalError(f"domain classifier did not converge in {DOMAIN_STEPS} Newton steps")
    return LearnedRatio(theta[:-1], theta[-1], n / m, center=center, spread=spread)
