"""Vector-valued prediction models.

A model is any object with an ``output_dim`` and a ``predict_many(xs)``
that checks its own sample and maps its rows to output vectors of that
dimension (no base class). A model sequence is a plain list;
``stack_predictions`` checks it and turns it into the (l, k, output_dim)
prediction stack everything downstream reads. Fitted
families (ridge regression, linear softmax classifiers), file-backed
predictions, and the seeded corruption wrapper used by the sensitivity study
all live here.
"""

from functools import reduce
import numbers

import numpy as np

from .errors import DimensionError, sample_matrix
from .metrics import one_hot


class LinearModel:
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
        # The intercept is added in place: one output array, not two.
        out = sample_matrix(xs, "xs", self.input_dim) @ self.weights
        out += self.intercept
        return out


def fit_ridge(x, y, ridge):
    """Least squares of y onto x with an L2 penalty on the slopes.

    Returns a LinearModel computing ``x @ W + b`` where W minimizes
    ||Xc W - Yc||^2 + ridge ||W||^2 on mean-centered data; the intercept b
    is left unpenalized. ``ridge`` must be positive and finite, so the
    penalized normal matrix is positive definite.
    """
    x = sample_matrix(x, "x", fitting=True)
    y = sample_matrix(y, "y", fitting=True)
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if not 0 < ridge < np.inf:
        raise ValueError(f"ridge must be positive and finite, got {ridge}")
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    w = np.linalg.solve(xc.T @ xc + ridge * np.eye(x.shape[1]), xc.T @ yc)
    return LinearModel(w, y_mean - x_mean @ w)


def _softmax_in_place(z):
    """Overwrite the float array ``z`` with its softmax over the last axis.

    The class max and sum run over the classes in order: faster than numpy's
    reductions on few classes, and the same bits below 8.
    """
    # The ``...`` keeps each block a view, even of a 1-d ``z``, so the sum sees the exp.
    blocks = [z[..., k] for k in range(z.shape[-1])]
    z -= reduce(np.maximum, blocks)[..., None]
    np.exp(z, out=z)
    z /= reduce(np.add, blocks)[..., None]
    return z


class SoftmaxModel(LinearModel):
    """Linear softmax classifier; predictions are probability vectors."""

    def predict_many(self, xs):
        # The logits are a fresh array, so the softmax may overwrite them.
        return _softmax_in_place(super().predict_many(xs))


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

    ``x`` gains a ones column once, so each model's slopes over its
    intercept are one (d+1, k) θ and its logits ``x₁·θ``. The models train
    together in one loop over the (l, d+1, k) ladder: an epoch subtracts
    ``_ladder_gradient`` scaled by SOFTMAX_LR / n from θ, then multiplies θ
    by the proximal factor, which is 1 on the intercept row. Every product
    is one matmul per model, the one its lone fit makes, so each model
    equals its own one-decay fit bit for bit on any number of rows. The
    models come back as a list, each owning C-contiguous (d, c) weights.

    Two classes train one logit column (k = 1). From the zero start the
    softmax's two residual columns are negatives of each other at every
    step, so its slopes and intercepts stay ``[-w, w]`` and ``[-b, b]``:
    class 1 takes ``p₁ = σ(2s)`` on ``s = x₁·θ``, whose residual
    ``p₁ - y₁ = ½·tanh(s) + (½ - y₁)`` no logit overflows. More classes
    train all c logit columns (k = c).
    """
    decays = np.asarray(weight_decay, dtype=float)
    if not (isinstance(classes, numbers.Integral) and classes >= 2):
        raise ValueError(f"classes must be an integer >= 2, got {classes!r}")
    if decays.ndim != 1 or decays.size == 0 or not np.all((decays >= 0) & (decays < np.inf)):
        raise ValueError(f"weight_decay must be a non-empty 1-d sequence of finite values >= 0,"
                         f" got {decays}")
    if not (isinstance(epochs, numbers.Integral) and epochs >= 0):
        raise ValueError(f"epochs must be an integer >= 0, got {epochs!r}")
    x = sample_matrix(x, "x", fitting=True)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
        raise DimensionError(f"labels of shape {labels.shape} do not match x {x.shape}")
    targets = one_hot(labels, classes)
    n, d = x.shape
    x1 = np.hstack([x, np.ones((n, 1))])
    # The residual's label part, summed over the rows once: x₁ᵀ(½ - y₁) or -x₁ᵀY.
    constant = x1.T @ (0.5 - targets[:, 1:] if classes == 2 else -targets)
    factor = np.ones((decays.size, d + 1, 1))
    factor[:, :d] = 1.0 / (1.0 + SOFTMAX_LR * decays[:, None, None])
    theta = np.zeros((decays.size, d + 1, constant.shape[1]))
    s = np.empty((decays.size, n, constant.shape[1]))
    g = np.empty_like(theta)
    for _ in range(epochs):
        _ladder_gradient(theta, x1, constant, s, g)
        g *= SOFTMAX_LR / n
        theta -= g
        theta *= factor
    if classes == 2:
        theta = np.concatenate([-theta, theta], axis=2)
    return [SoftmaxModel(t[:d].copy(), t[d].copy()) for t in theta]


def _ladder_gradient(theta, x1, constant, s, g):
    """``x₁ᵀ(residual)`` of each model of the ladder at its θ, written into ``g``.

    That is n times the model's mean cross-entropy gradient; with one logit
    column, the gradient of class 1's column of the softmax model [-θ, θ].
    ``theta`` is the (l, d+1, k) ladder of ``fit_softmax_classifier``, ``x1``
    its (n, d+1) sample with the ones column, ``constant`` the (d+1, k)
    label part, and ``s`` an (l, n, k) work array for the logits. The
    residual kernel alone tells one column from c: ``½·tanh(s)`` on one, the
    softmax on c. Returns ``g``.
    """
    np.matmul(x1, theta, out=s)
    if theta.shape[2] == 1:
        np.matmul(x1.T, np.tanh(s, out=s), out=g)
        g *= 0.5
    else:
        np.matmul(x1.T, _softmax_in_place(s), out=g)
    g += constant
    return g


class FeatureModel:
    """A batch feature map, then a fitted base model, each checking its own input."""

    def __init__(self, feature_fn, base):
        self.feature_fn = feature_fn
        self.base = base
        self.output_dim = base.output_dim

    def predict_many(self, xs):
        return self.base.predict_many(self.feature_fn(xs))


def polynomial_features(xs, degree):
    """Columns x^1 .. x^degree of a univariate sample (degree 0 -> no columns)."""
    xs = sample_matrix(xs, "xs of the univariate polynomial features", 1)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    flat = xs[:, 0]
    return np.column_stack([flat**p for p in range(1, degree + 1)]) if degree else np.zeros((xs.shape[0], 0))


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """SplitMix64 finaliser, applied in place to a uint64 array, which it returns."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _hash_normals(seeds, xs, count):
    """Standard normal draws of shape (seeds, rows, count), a pure function of (seed, row).

    Each row's float64 bit patterns, with -0.0 made 0.0 by adding 0.0, are
    folded column by column into a SplitMix64 state keyed by the seed.
    Counter-indexed mixes of that state give ceil(count/2) pairs of uniforms
    in (0, 1), and Box-Muller turns pair p into normals 2p (its cosine) and
    2p + 1 (its sine); only the ``count`` normals returned are computed.
    Every operation is elementwise over seeds and rows, so a row's noise does
    not depend on the batch or the other seeds it arrives with: rows equal
    under ``==`` always see identical noise, distinct inputs get
    independent-looking draws.
    """
    bits = (np.asarray(xs, dtype=np.float64) + 0.0).view(np.uint64)
    keys = np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)
    state = np.repeat(keys[:, None], bits.shape[0], axis=1)
    for column in bits.T:
        state ^= column
        state += _GOLDEN
        _mix64(state)
    pairs = (count + 1) // 2
    counters = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _GOLDEN
    # Counters lead the axes so every transcendental call sees a contiguous
    # block. The top 53 bits of each draw, offset by half a step, lie
    # strictly in (0, 1).
    draws = _mix64(counters[:, None, None] + state)
    draws >>= np.uint64(11)
    uniforms = draws + 0.5
    uniforms *= 2.0**-53
    radius, angle = uniforms[:pairs], uniforms[pairs:]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    sines = np.sin(angle[: count // 2])
    sines *= radius[: count // 2]
    np.cos(angle, out=angle)
    angle *= radius
    if count == 1:
        return angle.transpose(1, 2, 0)
    normals = np.empty((count, *state.shape))
    normals[0::2] = angle
    normals[1::2] = sines
    return normals.transpose(1, 2, 0)


def add_corruption(predictions, corrupted, xs):
    """Add each corrupted model's noise on ``xs`` to its base predictions, in place.

    ``predictions`` is an (S, rows, output_dim) array: block s holds the
    predictions of ``corrupted[s].base`` on the rows of ``xs``. All masks
    must cover the same number of coordinates; one call of the noise kernel
    serves every model.
    """
    masks = np.array([model.mask for model in corrupted], dtype=bool)
    count = int(masks[0].sum())
    if np.any(masks.sum(axis=1) != count):
        raise DimensionError("corrupted models in one batch must mask equally many coordinates")
    columns = np.nonzero(masks)[1].reshape(len(corrupted), count)
    noise = _hash_normals([model.seed for model in corrupted], xs, count)
    # Outputs lead the rows, so each (model, coordinate) pair is one strided row.
    by_output = predictions.transpose(0, 2, 1)
    by_output[np.arange(len(corrupted))[:, None], columns] += noise.transpose(0, 2, 1)
    return predictions


class CorruptedModel:
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

    def predict_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        ys = np.array(self.base.predict_many(xs), dtype=float, copy=True)
        return add_corruption(ys[None], [self], xs)[0]


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
_KEY = np.dtype([("split", np.int64), ("index", np.int64)])  # ordered by split, then index


class PrecomputedModel:
    """Predictions computed elsewhere: one (rows, output_dim) array keyed by (split, index).

    ``tables`` maps a split name to ``{index: row}``. A query row is a key
    ``(split_code, index)``, split code 0 = source and 1 = target, so the
    matching instance carries key pairs in its x matrices. Keys are exact
    64-bit integers. One that is not a pair of integers, has an unknown
    split code or names no stored row raises KeyError.
    """

    def __init__(self, tables, output_dim):
        self.output_dim = int(output_dim)
        if tables.keys() - SPLIT_CODES.values():
            raise ValueError(f"unknown split in {sorted(tables)}; expected source or target")
        keys = [(code, index) for code, split in SPLIT_CODES.items()
                for index in sorted(tables.get(split, ()))]
        rows = [tables[SPLIT_CODES[code]][index] for code, index in keys]
        # The reshape fails unless every row has output_dim entries.
        self._rows = np.array(rows, dtype=float).reshape(len(keys), self.output_dim)
        self._keys = np.array(keys, dtype=_KEY)

    def predict_many(self, xs):
        xs = sample_matrix(xs, "xs of (split_code, index) key rows", 2)
        whole = (np.isfinite(xs) & (xs == np.trunc(xs))).all(axis=1)
        if not whole.all():
            key = tuple(xs[~whole][0].tolist())
            raise KeyError(f"key {key} is not an integer (split code, index)")
        # A key beyond the 64-bit range names no row; it is not cast onto one.
        inside = ((xs >= -(2.0**63)) & (xs < 2.0**63)).all(axis=1)
        keys = np.rec.fromarrays(np.where(inside, xs.T, 0), dtype=_KEY)
        at = np.searchsorted(self._keys, keys)
        found = inside & (at < len(self._keys))
        found[found] = self._keys[at[found]] == keys[found]
        if not found.all():
            code, index = xs[~found][0]
            if code not in SPLIT_CODES:
                raise KeyError(f"unknown split code {code:.0f}; expected 0 (source) or 1 (target)")
            raise KeyError(
                f"no stored prediction for split '{SPLIT_CODES[code]}', index {int(index)}")
        return self._rows[at]


def stack_predictions(models, xs):
    """Predictions of every model on the rows of ``xs``, shape (l, k, output_dim).

    The model sequence must be non-empty and agree on ``output_dim``. Each
    model's ``predict_many`` checks the sample's width; its returned shape
    is checked here.
    """
    if not models:
        raise ValueError("a model sequence needs at least one model")
    dims = {m.output_dim for m in models}
    if len(dims) != 1:
        raise DimensionError(f"models disagree on output_dim: {sorted(dims)}")
    xs = sample_matrix(xs, "xs")
    expected = (xs.shape[0], dims.pop())
    stack = []
    for model in models:
        out = np.asarray(model.predict_many(xs), dtype=float)
        if out.shape != expected:
            raise DimensionError(
                f"model returned predictions of shape {out.shape}, expected {expected}"
            )
        stack.append(out)
    # One np.stack of the per-model outputs: filling a preallocated stack
    # instead made the rate check fault in about five times as many pages.
    return np.stack(stack)
