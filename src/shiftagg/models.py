"""Vector-valued prediction models.

Everything the aggregation layer consumes implements the small ``Model``
interface: ``predict_many`` maps the rows of a sample matrix to output
vectors of a fixed dimension, and ``predict`` is its one-row case. Fitted
families (ridge regression, linear softmax classifiers), file-backed
predictions, and the seeded corruption wrapper used by the sensitivity study
all live here.
"""

from abc import ABC, abstractmethod
import csv

import numpy as np

from .errors import CsvFormatError, DimensionError, NumericalError
from .linalg import sym_eig


def _sample_matrix(x, name="sample"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d array, got shape {x.shape}")
    return x


class Model(ABC):
    """A predictor mapping R^d1 -> R^d2.

    ``output_dim`` is always known; ``input_dim`` may be None when the
    model does not constrain it.
    """

    output_dim: int
    input_dim = None

    @abstractmethod
    def predict_many(self, xs):
        """Predictions of shape (k, output_dim) for the k rows of ``xs``."""

    def predict(self, x):
        """Output vector of shape (output_dim,) for a single input vector."""
        return self.predict_many(np.asarray(x, dtype=float)[None])[0]


class LinearModel(Model):
    """x -> x @ weights + intercept."""

    def __init__(self, weights, intercept):
        self.weights = np.asarray(weights, dtype=float)
        self.intercept = np.asarray(intercept, dtype=float)
        if (
            self.weights.ndim != 2
            or self.intercept.ndim != 1
            or self.weights.shape[1] != self.intercept.shape[0]
        ):
            raise DimensionError(
                f"weights {self.weights.shape} and intercept {self.intercept.shape} do not align"
            )
        self.input_dim = self.weights.shape[0]
        self.output_dim = self.weights.shape[1]

    def predict_many(self, xs):
        return np.asarray(xs, dtype=float) @ self.weights + self.intercept


def fit_ridge(x, y, ridge=0.0):
    """Least squares of y onto x with an L2 penalty on the slopes.

    Returns a LinearModel computing ``x @ W + b`` where W minimizes
    ||Xc W - Yc||^2 + ridge ||W||^2 on mean-centered data; the intercept b
    is left unpenalized. With ridge = 0 the centered normal matrix must be
    numerically invertible.
    """
    x = _sample_matrix(x, "x")
    y = _sample_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty sample")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    d1 = x.shape[1]
    if d1 == 0:
        return LinearModel(np.zeros((0, y.shape[1])), y_mean)
    xc = x - x_mean
    yc = y - y_mean
    normal = xc.T @ xc + ridge * np.eye(d1)
    if ridge == 0.0:
        values, _ = sym_eig(normal)
        if values[-1] <= 1e-12 * values[0]:
            raise NumericalError(
                "design matrix is numerically singular with ridge = 0; "
                "add a ridge penalty or drop collinear features"
            )
    w = np.linalg.solve(normal, xc.T @ yc)
    return LinearModel(w, y_mean - x_mean @ w)


def softmax_probabilities(logits):
    """Row-wise softmax, shifted for overflow safety."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def softmax_cross_entropy_grad(weights, intercept, x, labels):
    """Mean cross-entropy of a linear softmax classifier and its gradients.

    Returns ``(loss, grad_weights, grad_intercept)``. Single source of truth
    for the trainer and for finite-difference checks.
    """
    x = _sample_matrix(x, "x")
    labels = np.asarray(labels)
    n = x.shape[0]
    probs = softmax_probabilities(x @ weights + intercept)
    picked = np.clip(probs[np.arange(n), labels], 1e-300, None)
    loss = float(-np.log(picked).mean())
    resid = probs.copy()
    resid[np.arange(n), labels] -= 1.0
    return loss, x.T @ resid / n, resid.mean(axis=0)


class SoftmaxModel(Model):
    """Linear softmax classifier; predictions are probability vectors."""

    def __init__(self, weights, intercept):
        self.weights = np.asarray(weights, dtype=float)
        self.intercept = np.asarray(intercept, dtype=float)
        if self.weights.ndim != 2 or self.weights.shape[1] != self.intercept.shape[0]:
            raise DimensionError("softmax parameter shapes do not align")
        self.input_dim = self.weights.shape[0]
        self.output_dim = self.weights.shape[1]

    def predict_many(self, xs):
        logits = np.asarray(xs, dtype=float) @ self.weights + self.intercept
        return softmax_probabilities(logits)


def fit_softmax_classifier(x, labels, classes, epochs=300, lr=0.5, *, weight_decay=0.0):
    """Full-batch gradient descent on mean cross-entropy from all-zero init.

    Deterministic: zero initialization plus full-batch updates leave nothing
    to chance. ``weight_decay`` is an L2 penalty on the slopes (not the
    intercept), applied as a proximal step: after each gradient update the
    slopes are scaled by 1/(1 + lr * weight_decay). Unlike adding the decay
    to the gradient, this cannot diverge however large the penalty.
    """
    x = _sample_matrix(x, "x")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
        raise DimensionError(f"labels of shape {labels.shape} do not match x {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty sample")
    classes = int(classes)
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError("labels must lie in [0, classes)")
    if epochs < 0 or lr <= 0 or weight_decay < 0:
        raise ValueError("epochs must be >= 0, lr > 0, weight_decay >= 0")
    labels = labels.astype(int)
    w = np.zeros((x.shape[1], classes))
    b = np.zeros(classes)
    shrink = 1.0 / (1.0 + lr * weight_decay)
    for _ in range(int(epochs)):
        _, gw, gb = softmax_cross_entropy_grad(w, b, x, labels)
        w = shrink * (w - lr * gw)
        b = b - lr * gb
    return SoftmaxModel(w, b)


class FeatureModel(Model):
    """Compose a (batch) feature map with a fitted base model."""

    def __init__(self, feature_fn, base, input_dim=None):
        self.feature_fn = feature_fn
        self.base = base
        self.output_dim = base.output_dim
        self.input_dim = input_dim

    def predict_many(self, xs):
        return self.base.predict_many(self.feature_fn(np.asarray(xs, dtype=float)))


def polynomial_features(xs, degree):
    """Columns x^1 .. x^degree of a univariate sample (degree 0 -> no columns)."""
    xs = _sample_matrix(xs, "xs")
    if xs.shape[1] != 1:
        raise DimensionError(f"polynomial features need univariate input, got {xs.shape[1]} columns")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    flat = xs[:, 0]
    return np.column_stack([flat**p for p in range(1, degree + 1)]) if degree else np.zeros((xs.shape[0], 0))


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """SplitMix64 finaliser, applied elementwise to a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash_normals(seed, xs, count):
    """Standard normal draws of shape (rows, count), a pure function of (seed, row).

    Each row's float64 bit patterns are folded column by column into a
    SplitMix64 state keyed by ``seed``. Counter-indexed mixes of that state
    give ceil(count/2) pairs of uniforms in (0, 1), and Box-Muller turns each
    pair into two normals. Every operation is elementwise over rows, so a
    row's noise does not depend on the batch it arrives in: identical
    queries always see identical noise, distinct inputs get
    independent-looking draws.
    """
    bits = np.ascontiguousarray(xs, dtype=np.float64).view(np.uint64)
    state = np.full(bits.shape[0], seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    for column in bits.T:
        state = _mix64((state ^ column) + _GOLDEN)
    pairs = (count + 1) // 2
    counters = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _GOLDEN
    # Counters lead the axes so every transcendental call sees a contiguous
    # block. The top 53 bits of each draw, offset by half a step, lie
    # strictly in (0, 1).
    uniforms = ((_mix64(counters[:, None] + state) >> np.uint64(11)) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(uniforms[:pairs]))
    angle = 2.0 * np.pi * uniforms[pairs:]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return normals.reshape(2 * pairs, bits.shape[0])[:count].T


class CorruptedModel(Model):
    """Base model plus N(0,1) noise on a fixed subset of output coordinates.

    The noise is a deterministic function of (seed, input vector): repeated
    identical queries return identical output, and the draws across distinct
    inputs have mean 0 and variance 1 per masked coordinate.
    """

    def __init__(self, base, seed, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1 or mask.shape[0] != base.output_dim:
            raise DimensionError(
                f"mask of shape {mask.shape} does not match output_dim {base.output_dim}"
            )
        self.base = base
        self.seed = int(seed)
        self.mask = mask
        self.output_dim = base.output_dim
        self.input_dim = base.input_dim
        self._n_masked = int(mask.sum())

    def predict_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        ys = np.array(self.base.predict_many(xs), dtype=float, copy=True)
        if self._n_masked:
            ys[:, self.mask] += _hash_normals(self.seed, xs, self._n_masked)
        return ys


def corrupt(base, seed):
    """Corrupt ceil(d2/2) output coordinates of ``base``, chosen at seed time."""
    d2 = base.output_dim
    k = -(-d2 // 2)
    rng = np.random.default_rng(seed)
    idx = rng.choice(d2, size=k, replace=False)
    mask = np.zeros(d2, dtype=bool)
    mask[idx] = True
    return CorruptedModel(base, seed, mask)


SPLIT_CODES = {0: "source", 1: "target"}
SPLIT_NAMES = {name: code for code, name in SPLIT_CODES.items()}


class PrecomputedModel(Model):
    """Predictions computed elsewhere, stored per (split, sample index).

    Queries are keyed rather than evaluated: the input vector is
    ``(split_code, index)`` with split code 0 = source and 1 = target. This
    is how externally trained predictors feed the aggregator; the matching
    instance must carry key pairs in its x matrices.
    """

    input_dim = 2

    def __init__(self, tables, output_dim):
        self.output_dim = int(output_dim)
        self.tables = {}
        for split, rows in tables.items():
            if split not in SPLIT_NAMES:
                raise ValueError(f"unknown split {split!r}; expected one of {sorted(SPLIT_NAMES)}")
            checked = {}
            for index, row in rows.items():
                row = np.asarray(row, dtype=float)
                if row.shape != (self.output_dim,):
                    raise DimensionError(
                        f"stored prediction for ({split}, {index}) has shape {row.shape},"
                        f" expected ({self.output_dim},)"
                    )
                checked[int(index)] = row
            self.tables[split] = checked

    def predict_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != 2:
            raise DimensionError(f"expected (split_code, index) key rows, got shape {xs.shape}")
        out = np.empty((xs.shape[0], self.output_dim))
        for row, key in enumerate(xs):
            code, index = int(round(key[0])), int(round(key[1]))
            split = SPLIT_CODES.get(code)
            if split is None:
                raise KeyError(f"unknown split code {code}; expected one of {sorted(SPLIT_CODES)}")
            table = self.tables.get(split, {})
            if index not in table:
                raise KeyError(f"no stored prediction for split '{split}', index {index}")
            out[row] = table[index]
        return out

    @classmethod
    def from_csv(cls, path):
        """Load a prediction table from CSV with header ``split,index,y0,...``."""
        tables = {"source": {}, "target": {}}
        output_dim = None
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError("file is empty", path=path) from None
            if len(header) < 3 or header[0] != "split" or header[1] != "index":
                raise CsvFormatError(
                    f"expected header 'split,index,y0,...', got {','.join(header)}",
                    path=path,
                    line=1,
                )
            expected_y = [f"y{i}" for i in range(len(header) - 2)]
            if header[2:] != expected_y:
                raise CsvFormatError(
                    f"expected prediction columns {','.join(expected_y)}, got {','.join(header[2:])}",
                    path=path,
                    line=1,
                )
            output_dim = len(header) - 2
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"expected {len(header)} fields, got {len(row)}", path=path, line=lineno
                    )
                split = row[0]
                if split not in tables:
                    raise CsvFormatError(f"unknown split {split!r}", path=path, line=lineno)
                try:
                    index = int(row[1])
                    values = [float(v) for v in row[2:]]
                except ValueError as exc:
                    raise CsvFormatError(f"unparseable number: {exc}", path=path, line=lineno) from None
                if index in tables[split]:
                    raise CsvFormatError(
                        f"duplicate entry for split '{split}', index {index}", path=path, line=lineno
                    )
                tables[split][index] = np.asarray(values)
        return cls(tables, output_dim)

    def write_csv(self, path):
        """Inverse of from_csv; rows sorted by (split, index)."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["split", "index"] + [f"y{i}" for i in range(self.output_dim)])
            for split in sorted(self.tables):
                for index in sorted(self.tables[split]):
                    row = self.tables[split][index]
                    writer.writerow([split, index] + [f"{v:.17g}" for v in row])


class ModelSequence:
    """Ordered collection of models with homogeneous dimensions."""

    def __init__(self, models, labels=None):
        self.models = list(models)
        if not self.models:
            raise ValueError("a model sequence needs at least one model")
        out_dims = {m.output_dim for m in self.models}
        if len(out_dims) != 1:
            raise DimensionError(f"models disagree on output_dim: {sorted(out_dims)}")
        in_dims = {m.input_dim for m in self.models if m.input_dim is not None}
        if len(in_dims) > 1:
            raise DimensionError(f"models disagree on input_dim: {sorted(in_dims)}")
        if labels is None:
            labels = [f"model_{i}" for i in range(len(self.models))]
        labels = [str(lab) for lab in labels]
        if len(labels) != len(self.models):
            raise DimensionError(
                f"{len(labels)} labels for {len(self.models)} models"
            )
        self.labels = labels

    @property
    def output_dim(self):
        return self.models[0].output_dim

    def __len__(self):
        return len(self.models)

    def __iter__(self):
        return iter(self.models)

    def __getitem__(self, i):
        return self.models[i]

    def extended(self, more_models, more_labels):
        """New sequence with extra models appended."""
        return ModelSequence(self.models + list(more_models), self.labels + list(more_labels))


def predict_batch(model, xs):
    """Predictions for every row of ``xs``, shape (k, output_dim).

    Checks the input and output shapes around ``model.predict_many``.
    """
    xs = _sample_matrix(xs, "xs")
    if model.input_dim is not None and xs.shape[1] != model.input_dim:
        raise DimensionError(
            f"input has {xs.shape[1]} columns but the model expects {model.input_dim}"
        )
    if xs.shape[0] == 0:
        return np.zeros((0, model.output_dim))
    out = np.asarray(model.predict_many(xs), dtype=float)
    if out.shape != (xs.shape[0], model.output_dim):
        raise DimensionError(
            f"model returned predictions of shape {out.shape}, "
            f"expected {(xs.shape[0], model.output_dim)}"
        )
    return out


def stack_predictions(models, xs):
    """Stack predict_batch over a model sequence: shape (l, k, output_dim)."""
    return np.stack([predict_batch(m, xs) for m in models])
