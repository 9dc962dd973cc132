"""Model families: ridge fits, softmax classifiers, corruption, precomputed tables."""

from functools import reduce
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg.datasets import load_model_csv, make_transformed_moons
from shiftagg.errors import CsvFormatError, DimensionError
from shiftagg.harness import BASE_WEIGHT_DECAY, LAMBDA_GRID
from shiftagg.models import (
    SOFTMAX_LR,
    CorruptedModel,
    FeatureModel,
    LinearModel,
    PrecomputedModel,
    SoftmaxModel,
    _hash_normals,
    _ladder_gradient,
    _softmax_in_place,
    add_corruption,
    corrupt,
    fit_ridge,
    fit_softmax_classifier,
    polynomial_features,
    stack_predictions,
)


def fit_one(x, labels, classes, epochs=300, decay=0.0):
    """The trainer's one-decay ladder, as its single model."""
    return fit_softmax_classifier(x, labels, classes, epochs, weight_decay=[decay])[0]


def constant_model(output):
    """A model that ignores its input and returns ``output``."""
    output = np.asarray(output, dtype=float)
    return LinearModel(np.zeros((1, output.shape[0])), output)


class TestFitRidge:
    def test_exact_line_through_two_points(self):
        model = fit_ridge(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), ridge=1e-14)
        assert model.predict_many(np.array([[2.0]]))[0] == pytest.approx([2.0], abs=1e-12)

    def test_constant_labels_give_constant_model(self):
        model = fit_ridge(np.array([[0.0], [1.0]]), np.array([[1.0], [1.0]]), ridge=1e-6)
        assert model.predict_many(np.array([[5.0]]))[0] == pytest.approx([1.0], abs=1e-12)

    def test_recovers_slope_of_noisy_line(self, rng):
        x = rng.uniform(-2, 2, size=(20, 1))
        y = 3.0 * x + 1.0 + rng.normal(0, 0.1, size=(20, 1))
        model = fit_ridge(x, y, ridge=1e-6)
        assert abs(model.weights[0, 0] - 3.0) <= 0.2

    def test_matches_normal_equations_oracle(self, rng):
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=(30, 2))
        ridge = 0.7
        model = fit_ridge(x, y, ridge=ridge)
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        w_expected = np.linalg.solve(xc.T @ xc + ridge * np.eye(3), xc.T @ yc)
        assert np.allclose(model.weights, w_expected, atol=1e-10)
        assert np.allclose(
            model.intercept, y.mean(axis=0) - x.mean(axis=0) @ w_expected, atol=1e-10
        )

    def test_singular_design_without_ridge_rejected(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="ridge"):
            fit_ridge(x, y, ridge=0.0)
        # The penalized normal matrix is positive definite on any design.
        model = fit_ridge(x, y, ridge=1e-6)
        assert model.predict_many(np.array([[4.0, 4.0]]))[0] == pytest.approx([4.0], abs=1e-5)

    def test_constant_design_without_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            fit_ridge(np.ones((5, 2)), np.arange(5.0)[:, None], ridge=0.0)
        constant = fit_ridge(np.ones((5, 2)), np.arange(5.0)[:, None], ridge=1e-6)
        assert np.array_equal(constant.weights, np.zeros((2, 1)))
        assert np.array_equal(constant.intercept, [2.0])

    def test_shrinkage_monotone_in_ridge(self, rng):
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=(40, 1))
        norms = [
            float(np.linalg.norm(fit_ridge(x, y, ridge=r).weights)) for r in (0.01, 1.0, 100.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_zero_feature_columns_give_mean_model(self):
        model = fit_ridge(np.zeros((3, 0)), np.array([[1.0], [2.0], [3.0]]), ridge=1e-6)
        assert np.allclose(model.predict_many(np.zeros((2, 0))), [[2.0], [2.0]])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_ridge(np.zeros((0, 1)), np.zeros((0, 1)), ridge=1e-6)

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            fit_ridge(np.zeros((3, 1)), np.zeros((2, 1)), ridge=1e-6)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            fit_ridge(np.zeros((2, 1)), np.zeros((2, 1)), ridge=-1.0)

    @pytest.mark.parametrize("ridge", [0.0, np.nan, np.inf])
    def test_zero_or_nonfinite_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="ridge"):
            fit_ridge(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), ridge=ridge)


class TestSoftmaxClassifier:
    def test_separable_data_reaches_full_train_accuracy(self):
        x = np.array([[-1.0], [-1.2], [-0.8], [1.0], [1.2], [0.8]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        model = fit_one(x, labels, 2, epochs=500)
        preds = model.predict_many(x).argmax(axis=1)
        assert np.array_equal(preds, labels)

    def test_single_class_dominates_output(self):
        x = np.array([[0.5], [1.5], [-0.3]])
        model = fit_one(x, np.array([0, 0, 0]), 2, epochs=300)
        probs = model.predict_many(x)
        assert np.all(probs[:, 0] > 0.9)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=5))
    def test_probability_simplex(self, logits):
        probs = _softmax_in_place(np.array(logits))
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_model_outputs_on_simplex(self, rng):
        x = rng.normal(size=(30, 2))
        labels = rng.integers(0, 3, size=30)
        model = fit_one(x, labels, 3, epochs=50)
        probs = model.predict_many(rng.normal(size=(20, 2)))
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        # A two-class ladder of one model, then a three-class ladder of three:
        # each model's slice of the trainer's gradient against central
        # differences of its own mean cross-entropy, read off its predictions.
        # A two-class θ is the class-1 column of the softmax model [-θ, θ],
        # whose gradient is then [-g, g].
        rng = np.random.default_rng(11)
        cases = (
            (np.array([[0.4, -1.2], [1.0, 0.3], [-0.7, 0.9]]), np.array([0, 1, 0]), 2,
             np.array([[[-0.1], [0.3], [-0.2]]])),
            (rng.normal(size=(7, 2)), np.array([0, 1, 2, 2, 1, 0, 2]), 3,
             rng.normal(size=(3, 3, 3))),
        )
        eps = 1e-6
        for x, labels, classes, theta in cases:
            grad = _trainer_gradient(theta, x, labels, classes) / x.shape[0]
            assert grad.shape == theta.shape
            for theta_j, grad_j in zip(theta, grad):
                params, expected = ((np.hstack([-theta_j, theta_j]), np.hstack([-grad_j, grad_j]))
                                    if classes == 2 else (theta_j, grad_j))
                for index in np.ndindex(params.shape):
                    bump = np.zeros(params.shape)
                    bump[index] = eps
                    fd = (_theta_loss(params + bump, x, labels)
                          - _theta_loss(params - bump, x, labels)) / (2 * eps)
                    assert abs(fd - expected[index]) <= 1e-5 * max(1.0, abs(fd))

    def test_training_deterministic(self, rng):
        x = rng.normal(size=(25, 2))
        labels = rng.integers(0, 2, size=25)
        first = fit_one(x, labels, 2, epochs=40)
        second = fit_one(x, labels, 2, epochs=40)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.intercept, second.intercept)

    def test_weight_decay_monotonically_shrinks_slopes(self, rng):
        x = rng.normal(size=(40, 2))
        labels = (x[:, 0] > 0).astype(int)
        norms = [
            np.linalg.norm(fit_one(x, labels, 2, epochs=200, decay=decay).weights)
            for decay in (0.0, 1.0, 5.0)
        ]
        assert norms[0] > norms[1] > norms[2]
        assert np.isfinite(norms[2])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_one(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError, match="classes"):
            fit_one(np.zeros((2, 1)), np.array([0, 0]), 1)
        with pytest.raises(ValueError, match="labels"):
            fit_one(np.zeros((2, 1)), np.array([0, 5]), 2)
        with pytest.raises(DimensionError, match="labels"):
            fit_one(np.zeros((3, 1)), np.array([0, 1]), 2)

    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("count", [1, 3, 14])
    def test_decay_ladder_equals_scalar_fits_bitwise(self, classes, count):
        rng = np.random.default_rng(classes * 100 + count)
        x = rng.normal(size=(60, 2))
        labels = rng.integers(0, classes, size=60)
        decays = [0.5 * lam for lam in LAMBDA_GRID[:count]]
        ladder = fit_softmax_classifier(x, labels, classes, epochs=40, weight_decay=decays)
        assert isinstance(ladder, list) and len(ladder) == count
        for decay, model in zip(decays, ladder):
            alone = fit_one(x, labels, classes, epochs=40, decay=decay)
            assert model.weights.tobytes() == alone.weights.tobytes()
            assert model.intercept.tobytes() == alone.intercept.tobytes()

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(epochs=-1), "epochs"),
            (dict(epochs=np.nan), "epochs"),
            (dict(weight_decay=[np.nan]), "weight_decay"),
            (dict(weight_decay=[0.1, np.nan]), "weight_decay"),
            (dict(weight_decay=[0.1, -1.0]), "weight_decay"),
            (dict(weight_decay=[]), "weight_decay"),
            (dict(weight_decay=[[0.1], [0.2]]), "weight_decay"),
            (dict(x=np.array([[0.0], [np.nan], [1.0]])), "finite"),
            (dict(labels=np.array([0, 0.7, 1.2])), "integers"),
            (dict(labels=np.array([0.0, np.nan, 1.0])), "integers"),
            # 2.7 used to train a two-class model silently and inf to overflow int().
            (dict(classes=2.7), "classes"),
            (dict(classes=np.inf), "classes"),
        ],
    )
    def test_bad_training_inputs_raise(self, change, message):
        args = dict(x=np.array([[0.0], [0.5], [1.0]]), labels=np.array([0, 1, 1]), classes=2,
                    weight_decay=[0.0])
        with pytest.raises(ValueError, match=message):
            fit_softmax_classifier(**{**args, **change})

    @pytest.mark.parametrize("epochs", [np.inf, 2.7, -1])
    def test_epochs_must_be_a_whole_count(self, epochs):
        # np.inf used to overflow range() and 2.7 to train 2 epochs silently.
        with pytest.raises(ValueError, match="epochs"):
            fit_one(np.array([[0.0], [0.5], [1.0]]), np.array([0, 1, 1]), 2, epochs=epochs)

    def test_numpy_integer_epochs_accepted(self):
        x = np.array([[0.0], [0.5], [1.0]])
        labels = np.array([0, 1, 1])
        assert (fit_one(x, labels, 2, epochs=np.int64(5)).weights.tobytes()
                == fit_one(x, labels, 2, epochs=5).weights.tobytes())

    def test_whole_float_labels_accepted(self):
        x = np.array([[0.0], [0.5], [1.0]])
        as_floats = fit_one(x, np.array([0.0, 1.0, 1.0]), 2, epochs=5)
        as_ints = fit_one(x, np.array([0, 1, 1]), 2, epochs=5)
        assert np.array_equal(as_floats.weights, as_ints.weights)

    @pytest.mark.parametrize(
        "labels, message", [([-1, 0, 1], r"\[0, classes\)"), ([2, 0, 1], r"\[0, classes\)"),
                            ([0.7, 0, 1], "integers")],
    )
    def test_trainer_rejects_bad_labels(self, labels, message):
        # -1 used to wrap to the last class and give [1, 0, 1]'s loss.
        x = np.array([[0.4, -1.2], [1.0, 0.3], [-0.7, 0.9]])
        with pytest.raises(ValueError, match=message):
            fit_one(x, np.array(labels), 2, epochs=1)

    @pytest.mark.parametrize("decay", [0.3, [0.0, 0.3, 2.0]])
    def test_one_epoch_is_one_step_of_the_gradient(self, decay):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 2))
        labels = rng.integers(0, 3, size=9)
        decays = np.atleast_1d(decay)
        fitted = fit_softmax_classifier(x, labels, 3, epochs=1, weight_decay=decays)
        grad = _trainer_gradient(np.zeros((decays.size, 3, 3)), x, labels, 3)
        for model, g, d in zip(fitted, grad, decays):
            shrink = 1.0 / (1.0 + SOFTMAX_LR * d)
            step = 0 - g * (SOFTMAX_LR / 9)
            assert model.weights.tobytes() == (shrink * step[:2]).tobytes()
            assert model.intercept.tobytes() == step[2].tobytes()

    @pytest.mark.parametrize("decay", [0.3, [0.0, 0.3, 2.0]])
    @pytest.mark.parametrize("start", [0, 7])
    def test_one_two_class_epoch_is_one_proximal_gradient_step(self, decay, start):
        # Epoch start + 1 from epoch start's class-1 column, computed directly:
        # p₁ = σ(2s) on s = x·w + b, then the proximal step on the slopes.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(9, 2))
        labels = rng.integers(0, 2, size=9)
        decays = np.atleast_1d(decay)
        before = fit_softmax_classifier(x, labels, 2, epochs=start, weight_decay=decays)
        after = fit_softmax_classifier(x, labels, 2, epochs=start + 1, weight_decay=decays)
        for model, stepped, d in zip(before, after, decays):
            w, b = model.weights[:, 1], model.intercept[1]
            resid = 1.0 / (1.0 + np.exp(-2.0 * (x @ w + b))) - (labels == 1)
            shrink = 1.0 / (1.0 + SOFTMAX_LR * d)
            assert np.allclose(stepped.weights[:, 1], shrink * (w - SOFTMAX_LR * x.T @ resid / 9),
                               rtol=0, atol=1e-15)
            assert np.allclose(stepped.intercept[1], b - SOFTMAX_LR * resid.sum() / 9,
                               rtol=0, atol=1e-15)

    def test_study_size_ladder_tracks_row_major_reference(self):
        # The correlation study's ladder: seed 0's 600 source rows, 14 decays
        # and the full 300 epochs, so drift over the whole run stays pinned.
        moons = make_transformed_moons(600, 600, seed=0)
        labels = moons.source_y.argmax(axis=1)
        decays = [BASE_WEIGHT_DECAY * lam for lam in LAMBDA_GRID]
        w, b = _row_major_reference_fit(moons.source_x, labels, 2, 300, SOFTMAX_LR, decays)
        ladder = fit_softmax_classifier(moons.source_x, labels, 2, weight_decay=decays)
        assert len(ladder) == 14
        for model, w_i, b_i in zip(ladder, w, b):
            assert np.allclose(model.weights, w_i, rtol=1e-12, atol=0)
            assert np.allclose(model.intercept, b_i[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("classes", [2, 3, 4])
    @pytest.mark.parametrize("count", [1, 3, 14])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_matches_row_major_reference_loop_bitwise(self, classes, count, dim):
        # Bitwise against a plain loop on the ones-column design, and against
        # the softmax loop up to its rounding: the worst gap seen on this grid
        # is 1.1e-15, with four classes.
        rng = np.random.default_rng(classes * 100 + count * 10 + dim)
        decays = [0.5 * lam for lam in LAMBDA_GRID[:count]]
        for rows in (3, 61, 199):
            x = rng.normal(size=(rows, dim))
            labels = rng.integers(0, classes, size=rows)
            w, b = _row_major_reference_fit(x, labels, classes, 25, SOFTMAX_LR, decays)
            ladder = fit_softmax_classifier(x, labels, classes, epochs=25, weight_decay=decays)
            alone = fit_one(x, labels, classes, epochs=25, decay=decays[0])
            for model, w_i, b_i, decay in zip([alone] + ladder, np.concatenate([w[:1], w]),
                                              np.concatenate([b[:1], b]), decays[:1] + decays):
                assert model.weights.flags.c_contiguous and model.weights.flags.owndata
                w_1, b_1 = _ones_column_reference_fit(x, labels, classes, 25, SOFTMAX_LR, decay)
                if classes == 2:
                    # One logit column: class 0 holds the negatives of class 1.
                    assert np.array_equal(model.weights[:, 0], -model.weights[:, 1])
                    assert model.intercept[0] == -model.intercept[1]
                assert model.weights[:, -w_1.shape[1]:].tobytes() == w_1.tobytes()
                assert model.intercept[-b_1.size:].tobytes() == b_1.tobytes()
                assert np.allclose(model.weights, w_i, rtol=1e-12, atol=1e-15)
                assert np.allclose(model.intercept, b_i[0], rtol=1e-12, atol=1e-15)

    def test_one_row_ladder_equals_scalar_fits_bitwise(self):
        # Each model makes its own products, so numpy's vector-matrix path on
        # one row gives it the bits of its lone fit, whatever the ladder's width.
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 5))
        decays = [0.5 * lam for lam in LAMBDA_GRID]
        for classes in (3, 5):
            ladder = fit_softmax_classifier(x, np.array([2]), classes, epochs=25,
                                            weight_decay=decays)
            for decay, model in zip(decays, ladder):
                alone = fit_one(x, np.array([2]), classes, epochs=25, decay=decay)
                assert model.weights.tobytes() == alone.weights.tobytes()
                assert model.intercept.tobytes() == alone.intercept.tobytes()

    @pytest.mark.parametrize("count", [2, 3, 14])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_one_row_two_class_ladder_equals_scalar_fits_bitwise(self, dim, count):
        # One logit column makes one product per model, so one row is exact too.
        rng = np.random.default_rng(dim * 10 + count)
        x = rng.normal(size=(1, dim))
        decays = [0.5 * lam for lam in LAMBDA_GRID[:count]]
        ladder = fit_softmax_classifier(x, np.array([1]), 2, epochs=25, weight_decay=decays)
        for decay, model in zip(decays, ladder):
            alone = fit_one(x, np.array([1]), 2, epochs=25, decay=decay)
            assert model.weights.tobytes() == alone.weights.tobytes()
            assert model.intercept.tobytes() == alone.intercept.tobytes()

    def test_two_class_fit_on_separated_data_does_not_overflow(self):
        # Rows a thousand apart drive the logits far past exp's float range.
        x = np.array([[-1000.0], [-900.0], [900.0], [1000.0]])
        labels = np.array([0, 0, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = fit_one(x, labels, 2, epochs=2000)
            probs = model.predict_many(x)
        logits = x @ model.weights + model.intercept
        assert np.all(np.isfinite(logits)) and np.abs(logits).max() > 1000
        assert probs.tobytes() == _softmax_in_place(logits.copy()).tobytes()
        assert np.array_equal(probs, np.eye(2)[labels])


def _cross_entropy(weights, intercept, x, labels):
    """Mean cross-entropy of one linear softmax classifier, from its predictions."""
    probs = SoftmaxModel(weights, intercept).predict_many(x)
    return -np.log(probs[np.arange(labels.size), labels]).mean()


def _theta_loss(theta, x, labels):
    """``_cross_entropy`` of the model whose slopes sit over its intercept in ``theta``."""
    return _cross_entropy(theta[:-1], theta[-1], x, labels)


def _label_part(x1, labels, classes):
    """The trainer's (d+1, k) label part of ``x₁ᵀ(residual)``: ``x₁ᵀ(½ − y₁)`` or ``−x₁ᵀY``."""
    targets = np.eye(classes)[labels]
    return x1.T @ (0.5 - targets[:, 1:] if classes == 2 else -targets)


def _trainer_gradient(theta, x, labels, classes):
    """``_ladder_gradient`` at each (d+1, k) θ of a ladder: n times the mean gradient."""
    n = x.shape[0]
    x1 = np.hstack([x, np.ones((n, 1))])
    return _ladder_gradient(theta, x1, _label_part(x1, labels, classes),
                            np.empty((theta.shape[0], n, theta.shape[2])), np.empty_like(theta))


def _row_major_reference_fit(x, labels, classes, epochs, lr, decays):
    """The stacked trainer as it was before rows led: (l, n, c) logits, one product per model."""
    rows = np.arange(x.shape[0])
    decays = np.asarray(decays, dtype=float)
    w = np.zeros((decays.size, x.shape[1], classes))
    b = np.zeros((decays.size, 1, classes))
    shrink = 1.0 / (1.0 + lr * decays.reshape(-1, 1, 1))
    for _ in range(epochs):
        logits = np.matmul(x, w) + b
        expd = np.exp(logits - reduce(np.maximum, np.moveaxis(logits, -1, 0))[..., None])
        resid = expd / sum(np.moveaxis(expd, -1, 0))[..., None]
        resid[..., rows, labels] -= 1.0
        gw, gb = np.matmul(x.T, resid) / rows.size, resid.sum(axis=-2, keepdims=True) / rows.size
        w = shrink * (w - lr * gw)
        b = b - lr * gb
    return w, b


def _ones_column_reference_fit(x, labels, classes, epochs, lr, decay):
    """One model as a plain loop on its logits ``s = x₁ @ θ``.

    ``x₁`` is ``x`` with a ones column and θ the slopes over the intercept;
    the gradient's label part is computed once, and the proximal factor is 1
    on the intercept row. A two-class θ is class 1's logit column alone,
    whose residual is ``½·tanh(s) + (½ − y₁)``; more classes take the softmax
    of all c columns, its max and sum run over the classes in order. Returns
    the (d, k) slopes and (k,) intercept; class 0 of a two-class model holds
    the negatives of class 1.
    """
    n, d = x.shape
    x1 = np.hstack([x, np.ones((n, 1))])
    constant = _label_part(x1, labels, classes)
    factor = np.append(np.full(d, 1.0 / (1.0 + lr * decay)), 1.0)[:, None]
    theta = np.zeros((d + 1, constant.shape[1]))
    for _ in range(epochs):
        s = x1 @ theta
        if classes == 2:
            g = 0.5 * (x1.T @ np.tanh(s))
        else:
            expd = np.exp(s - s.max(axis=1, keepdims=True))
            g = x1.T @ (expd / sum(expd.T)[:, None])
        theta = factor * (theta - lr / n * (g + constant))
    return theta[:d], theta[d]


class TestPolynomialFeatures:
    def test_degree_columns(self):
        xs = np.array([[2.0], [3.0]])
        feats = polynomial_features(xs, 3)
        assert np.array_equal(feats, [[2.0, 4.0, 8.0], [3.0, 9.0, 27.0]])

    def test_degree_zero_empty_features(self):
        assert polynomial_features(np.array([[1.0], [2.0]]), 0).shape == (2, 0)
        with pytest.raises(ValueError, match="degree must be >= 0"):
            polynomial_features(np.array([[1.0], [2.0]]), -1)

    def test_multivariate_rejected(self):
        with pytest.raises(DimensionError):
            polynomial_features(np.zeros((2, 2)), 2)

    def test_feature_model_composes(self):
        base = fit_ridge(polynomial_features(np.array([[1.0], [2.0], [3.0]]), 2),
                         np.array([[1.0], [4.0], [9.0]]), ridge=1e-12)
        model = FeatureModel(lambda xs: polynomial_features(xs, 2), base)
        assert model.predict_many(np.array([[4.0]]))[0] == pytest.approx([16.0], abs=1e-9)
        assert model.predict_many(np.array([[4.0], [5.0]]))[1] == pytest.approx([25.0], abs=1e-9)


class TestCorruption:
    def test_unmasked_coordinate_untouched(self):
        base = constant_model([1.0, 2.0])
        model = CorruptedModel(base, seed=3, mask=np.array([True, False]))
        out = model.predict_many(np.array([[0.7]]))[0]
        assert out[1] == 2.0
        assert out[0] != 1.0

    def test_identical_queries_identical_noise(self):
        model = corrupt(constant_model([1.0, 2.0]), seed=11)
        x = np.array([[0.31]])
        assert np.array_equal(model.predict_many(x), model.predict_many(x))
        batch = model.predict_many(np.array([[0.31], [0.31]]))
        assert np.array_equal(batch[0], batch[1])

    def test_same_seed_reproduces_model(self):
        base = constant_model([1.0, 2.0, 3.0])
        first = corrupt(base, seed=7)
        second = corrupt(base, seed=7)
        assert np.array_equal(first.mask, second.mask)
        xs = np.array([[0.1], [0.2]])
        assert np.array_equal(first.predict_many(xs), second.predict_many(xs))

    def test_mask_size_is_half_rounded_up(self):
        assert corrupt(constant_model([0.0, 0.0]), 0).mask.sum() == 1
        assert corrupt(constant_model([0.0, 0.0, 0.0]), 0).mask.sum() == 2

    def test_noise_moments(self):
        base = constant_model([0.0, 0.0])
        model = corrupt(base, seed=5)
        xs = np.linspace(-3, 3, 10_000)[:, None]
        deviations = model.predict_many(xs)[:, model.mask].ravel()
        assert abs(deviations.mean()) <= 0.05
        assert abs(deviations.var() - 1.0) <= 0.1

    def test_all_false_mask_equals_base(self, rng):
        base = constant_model([1.5, -0.5])
        model = CorruptedModel(base, seed=9, mask=np.array([False, False]))
        xs = rng.normal(size=(5, 1))
        assert np.array_equal(model.predict_many(xs), base.predict_many(xs))

    def test_batch_matches_per_row_predictions(self, rng):
        model = corrupt(constant_model([1.0, 2.0, 3.0]), seed=13)
        xs = rng.normal(size=(6, 1))
        looped = np.stack([model.predict_many(row[None])[0] for row in xs])
        assert np.array_equal(model.predict_many(xs), looped)

    def test_wrong_mask_shape_rejected(self):
        with pytest.raises(DimensionError):
            CorruptedModel(constant_model([0.0, 0.0]), 0, np.array([True]))

    @staticmethod
    def pure_noise(seed, input_dim=2, output_dim=3):
        """A corrupted all-zero model: its output is the noise itself."""
        base = LinearModel(np.zeros((input_dim, output_dim)), np.zeros(output_dim))
        return CorruptedModel(base, seed, np.ones(output_dim, dtype=bool))

    def test_row_noise_independent_of_batch(self, rng):
        model = self.pure_noise(21)
        xs = rng.normal(size=(257, 2))
        reference = np.stack([model.predict_many(row[None])[0] for row in xs])
        assert np.array_equal(model.predict_many(xs), reference)
        larger = np.vstack([rng.normal(size=(40, 2)), xs, rng.normal(size=(9, 2))])
        assert np.array_equal(model.predict_many(larger)[40:-9], reference)
        order = rng.permutation(xs.shape[0])
        assert np.array_equal(model.predict_many(xs[order]), reference[order])

    def test_seeds_give_uncorrelated_noise(self):
        xs = np.linspace(-3, 3, 10_000)[:, None]
        first = self.pure_noise(1, input_dim=1, output_dim=1).predict_many(xs).ravel()
        second = self.pure_noise(2, input_dim=1, output_dim=1).predict_many(xs).ravel()
        assert abs(np.corrcoef(first, second)[0, 1]) < 0.05

    def test_pinned_noise_values(self):
        # Fails loudly if the input folding, the mixing or Box-Muller change.
        noise = self.pure_noise(2024).predict_many(np.array([[0.5, -1.25], [0.0, 3.0]]))
        expected = [
            [-1.0905181314534862, -0.941558135167457, 0.7487969452275093],
            [3.1249765787592465, -2.1426053887885566, 0.5531625420636757],
        ]
        assert noise == pytest.approx(np.array(expected), rel=1e-12)

    def test_signed_zeros_draw_the_same_noise(self):
        # -0.0 == 0.0, so the two rows are one query and see one draw.
        model = corrupt(LinearModel(np.zeros((2, 2)), np.zeros(2)), 5)
        noise = model.predict_many([[0.0, 1.0], [-0.0, 1.0]])
        assert np.array_equal(noise[0], noise[1])

    @pytest.mark.parametrize("columns", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_seed_vector_kernel_equals_per_seed_calls(self, columns, count):
        xs = np.random.default_rng(10 * columns + count).normal(size=(37, columns))
        seeds = [0, 1, -1, -(2**63), 2**63, 2**64 - 2, 2**64 - 1, 987654321]
        batch = _hash_normals(seeds, xs, count)
        assert batch.shape == (len(seeds), xs.shape[0], count)
        for noise, seed in zip(batch, seeds):
            assert np.array_equal(float_bits(noise), float_bits(_hash_normals([seed], xs, count)[0]))
            assert np.array_equal(float_bits(noise), float_bits(reference_normals(seed, xs, count)))

    @pytest.mark.parametrize("mask", [[True, False, True], [False, True, False],
                                      [True, True, False, False, True]])
    def test_noise_lands_on_the_masked_coordinates(self, mask, rng):
        base = LinearModel(rng.normal(size=(2, len(mask))), rng.normal(size=len(mask)))
        model = CorruptedModel(base, seed=2**64 - 3, mask=mask)
        xs = rng.normal(size=(50, 2))
        expected = base.predict_many(xs)
        expected[:, model.mask] += reference_normals(model.seed, xs, sum(mask))
        assert np.array_equal(float_bits(model.predict_many(xs)), float_bits(expected))

    def test_batch_masks_must_cover_equally_many_coordinates(self):
        base = constant_model([0.0, 0.0, 0.0])
        models = [CorruptedModel(base, 1, [True, False, False]), CorruptedModel(base, 2, [True] * 3)]
        with pytest.raises(DimensionError, match="equally many"):
            add_corruption(np.zeros((2, 4, 3)), models, np.zeros((4, 1)))


def float_bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def reference_normals(seed, xs, count):
    """The noise formula for one seed, computing both Box-Muller halves of every pair."""

    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    golden = np.uint64(0x9E3779B97F4A7C15)
    bits = np.ascontiguousarray(xs, dtype=np.float64).view(np.uint64)
    state = np.full(bits.shape[0], seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    for column in bits.T:
        state = mix((state ^ column) + golden)
    pairs = (count + 1) // 2
    counters = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * golden
    uniforms = ((mix(counters[:, None] + state) >> np.uint64(11)) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(uniforms[:pairs]))
    angle = 2.0 * np.pi * uniforms[pairs:]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return normals.reshape(2 * pairs, bits.shape[0])[:count].T


class TestPrecomputedModel:
    @staticmethod
    def example():
        return PrecomputedModel(
            {
                "source": {0: [1.0, 0.0], 1: [0.25, 0.75]},
                "target": {0: [0.5, 0.5]},
            },
            output_dim=2,
        )

    def test_key_pair_lookup(self):
        model = self.example()
        assert np.array_equal(model.predict_many(np.array([[0.0, 1.0]]))[0], [0.25, 0.75])
        assert np.array_equal(model.predict_many(np.array([[1.0, 0.0]]))[0], [0.5, 0.5])

    def test_missing_index_rejected(self):
        with pytest.raises(KeyError, match="index 7"):
            self.example().predict_many(np.array([[0.0, 7.0]]))

    def test_unknown_split_code_rejected(self):
        with pytest.raises(KeyError, match="split code"):
            self.example().predict_many(np.array([[2.0, 0.0]]))

    @pytest.mark.parametrize("key", [(0.0, 0.5), (0.0, 1.5), (0.4, 0.6), (np.nan, 0.0),
                                     (0.0, np.inf)])
    def test_non_integer_key_rejected(self, key):
        # A fractional split code or index names no stored row; it is not
        # rounded to a neighbouring one.
        with pytest.raises(KeyError, match="not an integer"):
            self.example().predict_many(np.array([key]))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text(
            "split,index,y0,y1\nsource,0,1,0\nsource,1,0.25,0.75\ntarget,0,0.5,0.5\n"
        )
        keys = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        loaded = load_model_csv(path)
        assert loaded.output_dim == 2
        assert np.array_equal(loaded.predict_many(keys), self.example().predict_many(keys))

    def test_csv_header_cells_are_stripped(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("split, index, y0\nsource,0,1.5\n")
        loaded = load_model_csv(path)
        assert loaded.output_dim == 1
        assert np.array_equal(loaded.predict_many([[0.0, 0.0]]), [[1.5]])

    def test_csv_data_cells_are_stripped(self, tmp_path):
        # The split cell too, like the number cells beside it.
        path = tmp_path / "spaced.csv"
        path.write_text("split,index,y0\nsource , 0 , 1.5\n target,1,2.5\n")
        loaded = load_model_csv(path)
        assert np.array_equal(loaded.predict_many([[0.0, 0.0], [1.0, 1.0]]), [[1.5], [2.5]])

    def test_indices_beyond_float_precision_stay_apart(self, tmp_path):
        # 2^53 and 2^53 + 1 are one float but two stored rows.
        path = tmp_path / "wide.csv"
        path.write_text(f"split,index,y0\ntarget,{2**53},1.0\ntarget,{2**53 + 1},2.0\n")
        loaded = load_model_csv(path)
        assert np.array_equal(loaded.predict_many([[1.0, 2.0**53]]), [[1.0]])
        with pytest.raises(KeyError, match="no stored prediction"):
            PrecomputedModel({"target": {2**53 + 1: [2.0]}}, 1).predict_many([[1.0, 2.0**53]])

    @pytest.mark.parametrize("index", [2**63, -(2**63) - 1])
    def test_csv_index_beyond_64_bits_rejected(self, tmp_path, index):
        path = tmp_path / "bad.csv"
        path.write_text(f"split,index,y0\nsource,0,1.0\nsource,{index},2.0\n")
        with pytest.raises(CsvFormatError, match="line 3: unparseable number"):
            load_model_csv(path)

    def test_csv_index_at_the_ends_of_64_bits_is_read(self, tmp_path):
        path = tmp_path / "ends.csv"
        path.write_text(f"split,index,y0\nsource,{-(2**63)},1.0\nsource,{2**63 - 1},2.0\n")
        loaded = load_model_csv(path)
        assert np.array_equal(loaded.predict_many([[0.0, -(2.0**63)]]), [[1.0]])

    @pytest.mark.parametrize("index", [1e300, -1e300, 2.0**63])
    def test_key_beyond_64_bits_names_no_row(self, index):
        # Not cast onto the rows nearest the ends of the 64-bit range.
        model = PrecomputedModel({"target": {0: [1.0], 2**63 - 1: [2.0], -(2**63): [3.0]}}, 1)
        with pytest.raises(KeyError, match="no stored prediction for split 'target'"):
            model.predict_many(np.array([[1.0, index]]))

    def test_unknown_split_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown split in \\['eval', 'source'\\]"):
            PrecomputedModel({"source": {}, "eval": {0: [1.0]}}, 1)
        path = tmp_path / "eval.csv"
        path.write_text("split,index,y0\nsource,0,1.0\neval,0,2.0\n")
        with pytest.raises(CsvFormatError, match="line 3: unknown split 'eval'"):
            load_model_csv(path)

    def test_empty_table(self):
        model = PrecomputedModel({}, 1)
        assert model.predict_many(np.zeros((0, 2))).shape == (0, 1)
        with pytest.raises(KeyError, match="no stored prediction for split 'source', index 0"):
            model.predict_many(np.zeros((1, 2)))

    def test_csv_header_must_match(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,split,y0\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_model_csv(path)

    def test_csv_field_count_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,index,y0\nsource,0,1.0\nsource,1\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_model_csv(path)

    def test_csv_bad_number_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,index,y0\nsource,0,oops\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_model_csv(path)

    def test_csv_duplicate_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,index,y0\nsource,0,1.0\nsource,0,2.0\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            load_model_csv(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_model_csv(path)


def predict_batch(model, xs):
    return stack_predictions([model], xs)[0]


# One maker per model family, with the width of the samples it takes.
EVERY_FAMILY = [
    pytest.param(lambda: LinearModel(np.ones((2, 3)), np.zeros(3)), 2, id="LinearModel"),
    pytest.param(lambda: SoftmaxModel(np.ones((2, 3)), np.zeros(3)), 2, id="SoftmaxModel"),
    pytest.param(lambda: FeatureModel(lambda xs: polynomial_features(xs, 2),
                                      LinearModel(np.ones((2, 3)), np.zeros(3))), 1,
                 id="FeatureModel"),
    pytest.param(lambda: corrupt(LinearModel(np.ones((2, 3)), np.zeros(3)), seed=5), 2,
                 id="CorruptedModel"),
    pytest.param(lambda: PrecomputedModel({"source": {0: [1.0, 2.0, 3.0]}}, 3), 2,
                 id="PrecomputedModel"),
]


class TestBatchPrediction:
    def test_constant_model_rows_identical(self):
        out = predict_batch(constant_model([1.0, 2.0]), np.zeros((3, 1)))
        assert np.array_equal(out, np.tile([1.0, 2.0], (3, 1)))

    def test_empty_batch_keeps_output_dim(self):
        assert predict_batch(constant_model([1.0, 2.0]), np.zeros((0, 1))).shape == (0, 2)

    @pytest.mark.parametrize("make, columns", EVERY_FAMILY)
    def test_every_model_predicts_zero_rows(self, make, columns):
        # stack_predictions calls predict_many on a zero-row sample too.
        model = make()
        assert model.predict_many(np.zeros((0, columns))).shape == (0, 3)
        assert predict_batch(model, np.zeros((0, columns))).shape == (0, 3)

    @pytest.mark.parametrize("make, columns", EVERY_FAMILY)
    def test_every_model_rejects_a_sample_of_the_wrong_width(self, make, columns):
        # stack_predictions leaves the width to each model's predict_many.
        with pytest.raises(DimensionError, match="columns"):
            predict_batch(make(), np.zeros((3, columns + 1)))

    def test_matches_per_row_loop(self, rng):
        model = LinearModel(rng.normal(size=(3, 2)), rng.normal(size=2))
        xs = rng.normal(size=(8, 3))
        looped = np.stack([model.predict_many(row[None])[0] for row in xs])
        assert np.allclose(predict_batch(model, xs), looped, atol=1e-12)

    def test_input_dim_mismatch_rejected(self):
        model = LinearModel(np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(DimensionError):
            predict_batch(model, np.zeros((3, 5)))
        with pytest.raises(DimensionError, match="do not align"):
            LinearModel(np.zeros((2, 1)), np.zeros(2))

    def test_output_shape_checked(self):
        class Truncating:
            output_dim = 2

            def predict_many(self, xs):
                return np.zeros((len(xs) - 1, 2))

        with pytest.raises(DimensionError, match="expected"):
            predict_batch(Truncating(), np.zeros((3, 1)))

    def test_sample_must_be_a_matrix(self):
        with pytest.raises(DimensionError, match="2-d"):
            predict_batch(constant_model([1.0]), np.zeros(3))

    def test_stack_shape(self, rng):
        models = [constant_model([1.0, 0.0]), constant_model([0.0, 1.0])]
        stack = stack_predictions(models, rng.normal(size=(4, 1)))
        assert stack.shape == (2, 4, 2)


class TestModelSequence:
    """A model sequence is a plain list; ``stack_predictions`` checks it."""

    def test_basic_container_behavior(self):
        models = [constant_model([1.0]), constant_model([2.0])]
        xs = np.zeros((3, 1))
        stack = stack_predictions(models, xs)
        assert len(stack) == 2
        assert np.array_equal(stack[1], models[1].predict_many(xs))
        assert stack.shape[2] == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            stack_predictions([], np.zeros((3, 1)))

    def test_heterogeneous_output_dims_rejected(self):
        with pytest.raises(DimensionError, match="output_dim"):
            stack_predictions([constant_model([1.0]), constant_model([1.0, 2.0])], np.zeros((3, 1)))
