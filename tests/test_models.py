"""Model families: ridge fits, softmax classifiers, corruption, precomputed tables."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg.errors import CsvFormatError, DimensionError
from shiftagg.harness import LAMBDA_GRID
from shiftagg.models import (
    SOFTMAX_LR,
    CorruptedModel,
    FeatureModel,
    LinearModel,
    Model,
    PrecomputedModel,
    SoftmaxModel,
    _labelled_sample,
    _softmax_grads,
    corrupt,
    fit_ridge,
    fit_softmax_classifier,
    polynomial_features,
    softmax_probabilities,
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
        probs = softmax_probabilities(np.array(logits))
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
        # A (d, c, 1) ladder, then a (d, c, 3) one: each model's slice of the
        # trainer's gradient against central differences of its own mean
        # cross-entropy, read off its predictions.
        rng = np.random.default_rng(11)
        cases = (
            (np.array([[0.4, -1.2], [1.0, 0.3], [-0.7, 0.9]]), np.array([0, 1, 0]),
             np.array([[0.2, -0.1], [0.5, 0.3]])[..., None], np.array([[0.05], [-0.2]])),
            (rng.normal(size=(7, 2)), np.array([0, 1, 2, 2, 1, 0, 2]),
             rng.normal(size=(2, 3, 3)), rng.normal(size=(3, 3))),
        )
        eps = 1e-6
        for x, labels, w, b in cases:
            _, c, l = w.shape
            gw, gb = _softmax_grads(w, b, *_labelled_sample(x, labels, c, l))
            assert gw.shape == w.shape and gb.shape == b.shape
            for j in range(l):
                w_j, b_j = w[..., j], b[:, j]
                for params, grad, loss_at in (
                    (w_j, gw[..., j], lambda p: _cross_entropy(p, b_j, x, labels)),
                    (b_j, gb[:, j], lambda p: _cross_entropy(w_j, p, x, labels)),
                ):
                    for index in np.ndindex(params.shape):
                        bump = np.zeros(params.shape)
                        bump[index] = eps
                        fd = (loss_at(params + bump) - loss_at(params - bump)) / (2 * eps)
                        assert abs(fd - grad[index]) <= 1e-5 * max(1.0, abs(fd))

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
        ],
    )
    def test_bad_training_inputs_raise(self, change, message):
        args = dict(x=np.array([[0.0], [0.5], [1.0]]), labels=np.array([0, 1, 1]), classes=2,
                    weight_decay=[0.0])
        with pytest.raises(ValueError, match=message):
            fit_softmax_classifier(**{**args, **change})

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
        gw, gb = _softmax_grads(np.zeros((2, 3, decays.size)), np.zeros((3, decays.size)),
                                *_labelled_sample(x, labels, 3, decays.size))
        for j, (model, d) in enumerate(zip(fitted, decays)):
            shrink = 1.0 / (1.0 + SOFTMAX_LR * d)
            assert model.weights.tobytes() == (shrink * (0 - SOFTMAX_LR * gw[..., j])).tobytes()
            assert model.intercept.tobytes() == (0 - SOFTMAX_LR * gb[:, j]).tobytes()

    @pytest.mark.parametrize("classes", [2, 3, 4])
    @pytest.mark.parametrize("count", [1, 3, 14])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_matches_row_major_reference_loop_bitwise(self, classes, count, dim):
        rng = np.random.default_rng(classes * 100 + count * 10 + dim)
        decays = [0.5 * lam for lam in LAMBDA_GRID[:count]]
        for rows in (3, 61, 199):
            x = rng.normal(size=(rows, dim))
            labels = rng.integers(0, classes, size=rows)
            w, b = _row_major_reference_fit(x, labels, classes, 25, SOFTMAX_LR, decays)
            ladder = fit_softmax_classifier(x, labels, classes, epochs=25, weight_decay=decays)
            alone = fit_one(x, labels, classes, epochs=25, decay=decays[0])
            for model, w_i, b_i in zip([alone] + ladder, np.concatenate([w[:1], w]),
                                       np.concatenate([b[:1], b])):
                assert model.weights.flags.c_contiguous and model.weights.flags.owndata
                assert model.weights.tobytes() == w_i.tobytes()
                assert model.intercept.tobytes() == b_i[0].tobytes()

    def test_one_row_ladder_matches_scalar_fits_to_rounding(self):
        # With one row numpy multiplies through its vector-matrix path, whose
        # last bits depend on the ladder's width; two or more rows are exact.
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 5))
        decays = [0.5 * lam for lam in LAMBDA_GRID]
        ladder = fit_softmax_classifier(x, np.array([2]), 3, epochs=25, weight_decay=decays)
        for decay, model in zip(decays, ladder):
            alone = fit_one(x, np.array([2]), 3, epochs=25, decay=decay)
            assert np.allclose(model.weights, alone.weights, rtol=1e-12, atol=1e-15)
            assert np.allclose(model.intercept, alone.intercept, rtol=1e-12, atol=1e-15)


def _cross_entropy(weights, intercept, x, labels):
    """Mean cross-entropy of one linear softmax classifier, from its predictions."""
    probs = SoftmaxModel(weights, intercept).predict_many(x)
    return -np.log(probs[np.arange(labels.size), labels]).mean()


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


class TestPolynomialFeatures:
    def test_degree_columns(self):
        xs = np.array([[2.0], [3.0]])
        feats = polynomial_features(xs, 3)
        assert np.array_equal(feats, [[2.0, 4.0, 8.0], [3.0, 9.0, 27.0]])

    def test_degree_zero_empty_features(self):
        assert polynomial_features(np.array([[1.0], [2.0]]), 0).shape == (2, 0)

    def test_multivariate_rejected(self):
        with pytest.raises(DimensionError):
            polynomial_features(np.zeros((2, 2)), 2)

    def test_feature_model_composes(self):
        base = fit_ridge(polynomial_features(np.array([[1.0], [2.0], [3.0]]), 2),
                         np.array([[1.0], [4.0], [9.0]]), ridge=1e-12)
        model = FeatureModel(lambda xs: polynomial_features(xs, 2), base, input_dim=1)
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

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text(
            "split,index,y0,y1\nsource,0,1,0\nsource,1,0.25,0.75\ntarget,0,0.5,0.5\n"
        )
        model = self.example()
        loaded = PrecomputedModel.from_csv(path)
        for split in model.tables:
            assert loaded.tables[split].keys() == model.tables[split].keys()
            for index in model.tables[split]:
                assert np.array_equal(loaded.tables[split][index], model.tables[split][index])

    def test_csv_header_cells_are_stripped(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("split, index, y0\nsource,0,1.5\n")
        loaded = PrecomputedModel.from_csv(path)
        assert loaded.output_dim == 1
        assert np.array_equal(loaded.tables["source"][0], [1.5])

    def test_csv_header_must_match(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,split,y0\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            PrecomputedModel.from_csv(path)

    def test_csv_field_count_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,index,y0\nsource,0,1.0\nsource,1\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            PrecomputedModel.from_csv(path)

    def test_csv_bad_number_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,index,y0\nsource,0,oops\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            PrecomputedModel.from_csv(path)

    def test_csv_duplicate_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,index,y0\nsource,0,1.0\nsource,0,2.0\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            PrecomputedModel.from_csv(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            PrecomputedModel.from_csv(path)


def predict_batch(model, xs):
    return stack_predictions([model], xs)[0]


class TestBatchPrediction:
    def test_constant_model_rows_identical(self):
        out = predict_batch(constant_model([1.0, 2.0]), np.zeros((3, 1)))
        assert np.array_equal(out, np.tile([1.0, 2.0], (3, 1)))

    def test_empty_batch_keeps_output_dim(self):
        assert predict_batch(constant_model([1.0, 2.0]), np.zeros((0, 1))).shape == (0, 2)

    def test_matches_per_row_loop(self, rng):
        model = LinearModel(rng.normal(size=(3, 2)), rng.normal(size=2))
        xs = rng.normal(size=(8, 3))
        looped = np.stack([model.predict_many(row[None])[0] for row in xs])
        assert np.allclose(predict_batch(model, xs), looped, atol=1e-12)

    def test_input_dim_mismatch_rejected(self):
        model = LinearModel(np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(DimensionError):
            predict_batch(model, np.zeros((3, 5)))

    def test_output_shape_checked(self):
        class Truncating(Model):
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
