"""Vector-valued prediction models.

Everything the aggregation layer consumes implements the small ``Model``
interface: ``predict_many`` maps the rows of a sample matrix to output
vectors of a fixed dimension. A model sequence is a plain list;
``stack_predictions`` checks it and turns it into the (l, k, output_dim)
prediction stack everything downstream reads. Fitted
families (ridge regression, linear softmax classifiers), file-backed
predictions, and the seeded corruption wrapper used by the sensitivity study
all live here.
"""

from abc import ABC, abstractmethod
from functools import reduce

import numpy as np

from .datasets import _parse_number, _read_csv
from .errors import CsvFormatError, DimensionError


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


def fit_ridge(x, y, ridge):
    """Least squares of y onto x with an L2 penalty on the slopes.

    Returns a LinearModel computing ``x @ W + b`` where W minimizes
    ||Xc W - Yc||^2 + ridge ||W||^2 on mean-centered data; the intercept b
    is left unpenalized. ``ridge`` must be positive and finite, so the
    penalized normal matrix is positive definite.
    """
    x = _sample_matrix(x, "x")
    y = _sample_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty sample")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
    if not 0 < ridge < np.inf:
        raise ValueError(f"ridge must be positive and finite, got {ridge}")
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    d1 = x.shape[1]
    if d1 == 0:
        return LinearModel(np.zeros((0, y.shape[1])), y_mean)
    xc = x - x_mean
    yc = y - y_mean
    w = np.linalg.solve(xc.T @ xc + ridge * np.eye(d1), xc.T @ yc)
    return LinearModel(w, y_mean - x_mean @ w)


def softmax_probabilities(logits):
    """Softmax over the last axis, shifted for overflow safety."""
    return _softmax_in_place(np.array(logits, dtype=float), -1)


def _softmax_in_place(z, axis):
    """Overwrite the float array ``z`` with its softmax over ``axis``.

    The class max and sum run over the classes in order: faster than numpy's
    reductions on few classes, and the same bits below 8.
    """
    lead = (slice(None),) * (axis % z.ndim)
    # The ``...`` keeps each block a view, even of a 1-d ``z``, so the sum sees the exp.
    blocks = [z[lead + (k, ...)] for k in range(z.shape[axis])]
    z -= reduce(np.maximum, blocks)[lead + (None,)]
    np.exp(z, out=z)
    z /= reduce(np.add, blocks)[lead + (None,)]
    return z


def _labelled_sample(x, labels, classes, models):
    """The checked sample ``x`` and each row's label as a (rows, classes, models) indicator."""
    x = _sample_matrix(x, "x")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
        raise DimensionError(f"labels of shape {labels.shape} do not match x {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("training data must be finite")
    if labels.dtype.kind not in "iub" and not np.array_equal(labels, np.round(labels)):
        raise ValueError("labels must be integers")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError("labels must lie in [0, classes)")
    hits = labels.astype(int)[:, None, None] == np.arange(classes)[:, None]
    return x, np.repeat(hits, models, axis=2).astype(float)


def _softmax_grads(weights, intercept, x, one_hot):
    """Mean cross-entropy gradients of a ladder of l linear softmax classifiers.

    Rows lead: ``weights`` is a C-contiguous (d, c, l) array and
    ``intercept`` (c, l), so one (n, d) @ (d, c·l) product gives every
    model's logits as one (n, c, l) array. The softmax runs in place on it,
    one class block at a time, the residual subtracts the (n, c, l)
    ``one_hot`` labels, and the intercept gradient sums the rows in order
    from row 0. The slope gradient is one (d, n) @ (n, c) product per model
    on an (l, n, c) copy of the residual, the product a lone model makes: a
    single (d, n) @ (n, c·l) product would change the bits when d = 1.

    Returns ``(grad_w, grad_b)``: grad_w as a (d, c, l) view and grad_b as
    (c, l).
    """
    n = x.shape[0]
    d, c, l = weights.shape
    z = (x @ weights.reshape(d, c * l)).reshape(n, c, l)
    z += intercept
    _softmax_in_place(z, 1)
    z -= one_hot
    grad_w = np.matmul(x.T, z.transpose(2, 0, 1).copy()) / n
    return grad_w.transpose(1, 2, 0), z.sum(axis=0) / n


class SoftmaxModel(LinearModel):
    """Linear softmax classifier; predictions are probability vectors."""

    def predict_many(self, xs):
        return softmax_probabilities(super().predict_many(xs))


# Step size of the softmax trainer.
SOFTMAX_LR = 0.5


def fit_softmax_classifier(x, labels, classes, epochs=300, *, weight_decay):
    """Full-batch gradient descent on mean cross-entropy from all-zero init.

    Deterministic: zero initialization plus full-batch updates of step
    SOFTMAX_LR leave nothing to chance. ``weight_decay`` is a non-empty 1-d
    sequence of L2 penalties on the slopes (not the intercept), one model
    per decay, each applied as a proximal step: after each gradient update
    the slopes are scaled by 1/(1 + SOFTMAX_LR * decay). Unlike adding the
    decay to the gradient, this cannot diverge however large the penalty.
    The models train together in one stacked loop and come back as a list;
    on two or more rows each equals its own one-decay fit bit for bit (on
    one row numpy's vector-matrix product makes the last bits depend on the
    ladder's length). The loop holds the ladder with rows leading, as
    (d, c, l) slopes and (c, l) intercepts, so each pass makes one forward
    product for all models; each returned model owns C-contiguous (d, c)
    weights.
    """
    decays = np.asarray(weight_decay, dtype=float)
    classes = int(classes)
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if decays.ndim != 1 or decays.size == 0:
        raise ValueError(f"weight_decay must be a non-empty 1-d sequence, got {decays}")
    x, one_hot = _labelled_sample(x, labels, classes, decays.size)
    if not (epochs >= 0 and np.all((decays >= 0) & (decays < np.inf))):
        raise ValueError("epochs must be >= 0, weight_decay >= 0 and finite")
    w = np.zeros((x.shape[1], classes, decays.size))
    b = np.zeros((classes, decays.size))
    shrink = 1.0 / (1.0 + SOFTMAX_LR * decays)
    for _ in range(int(epochs)):
        gw, gb = _softmax_grads(w, b, x, one_hot)
        w -= SOFTMAX_LR * gw
        w *= shrink
        b -= SOFTMAX_LR * gb
    return [SoftmaxModel(w[..., j].copy(), b[:, j].copy()) for j in range(decays.size)]


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
        header, rows = _read_csv(
            path,
            "split,index,y0,...",
            lambda header: header[:3] == ["split", "index", "y0"]
            and header[2:] == [f"y{i}" for i in range(len(header) - 2)],
        )
        tables = {"source": {}, "target": {}}
        for lineno, (split, index, *values) in rows:
            if split not in tables:
                raise CsvFormatError(f"unknown split {split!r}", path=path, line=lineno)
            index = _parse_number(int, index, path, lineno)
            values = [_parse_number(float, v, path, lineno) for v in values]
            if index in tables[split]:
                raise CsvFormatError(
                    f"duplicate entry for split '{split}', index {index}", path=path, line=lineno
                )
            tables[split][index] = np.asarray(values)
        return cls(tables, len(header) - 2)


def stack_predictions(models, xs):
    """Predictions of every model on the rows of ``xs``, shape (l, k, output_dim).

    The model sequence must be non-empty and agree on ``output_dim``. Each
    model's input width and returned shape are checked around its
    ``predict_many``.
    """
    if not models:
        raise ValueError("a model sequence needs at least one model")
    dims = {m.output_dim for m in models}
    if len(dims) != 1:
        raise DimensionError(f"models disagree on output_dim: {sorted(dims)}")
    xs = _sample_matrix(xs, "xs")
    expected = (xs.shape[0], dims.pop())
    stack = []
    for model in models:
        if model.input_dim is not None and xs.shape[1] != model.input_dim:
            raise DimensionError(
                f"input has {xs.shape[1]} columns but the model expects {model.input_dim}"
            )
        out = np.asarray(model.predict_many(xs), dtype=float) if xs.shape[0] else np.zeros(expected)
        if out.shape != expected:
            raise DimensionError(
                f"model returned predictions of shape {out.shape}, expected {expected}"
            )
        stack.append(out)
    # One np.stack of the per-model outputs: filling a preallocated stack
    # instead made the rate check fault in about five times as many pages.
    return np.stack(stack)
