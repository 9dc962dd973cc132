"""Model families: ridge fits, softmax classifiers, corruption, precomputed tables."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg.errors import CsvFormatError, DimensionError, NumericalError
from shiftagg.models import (
    CorruptedModel,
    FeatureModel,
    LinearModel,
    ModelSequence,
    PrecomputedModel,
    corrupt,
    fit_ridge,
    fit_softmax_classifier,
    polynomial_features,
    predict_batch,
    softmax_cross_entropy_grad,
    softmax_probabilities,
    stack_predictions,
)


def constant_model(output):
    """A model that ignores its input and returns ``output``."""
    output = np.asarray(output, dtype=float)
    return LinearModel(np.zeros((1, output.shape[0])), output)


class TestFitRidge:
    def test_exact_line_through_two_points(self):
        model = fit_ridge(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
        assert model.predict(np.array([2.0])) == pytest.approx([2.0], abs=1e-12)

    def test_constant_labels_give_constant_model(self):
        model = fit_ridge(np.array([[0.0], [1.0]]), np.array([[1.0], [1.0]]))
        assert model.predict(np.array([5.0])) == pytest.approx([1.0], abs=1e-12)

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
        with pytest.raises(NumericalError, match="ridge"):
            fit_ridge(x, y, ridge=0.0)
        fit_ridge(x, y, ridge=1e-6)  # a ridge penalty rescues the same data

    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8])
    def test_singularity_check_is_relative_to_the_design_scale(self, scale):
        x = np.random.default_rng(5).normal(size=(50, 2))
        y = x @ np.array([[1.0], [2.0]])
        model = fit_ridge(scale * x, y, ridge=0.0)
        assert np.allclose(model.weights.ravel() * scale, [1.0, 2.0], rtol=1e-8, atol=0.0)
        column = scale * x[:, 0]
        with pytest.raises(NumericalError, match="singular"):
            fit_ridge(np.column_stack([column, 2.0 * column]), y, ridge=0.0)

    def test_constant_design_without_ridge_rejected(self):
        with pytest.raises(NumericalError, match="singular"):
            fit_ridge(np.ones((5, 2)), np.ones((5, 1)), ridge=0.0)

    def test_shrinkage_monotone_in_ridge(self, rng):
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=(40, 1))
        norms = [
            float(np.linalg.norm(fit_ridge(x, y, ridge=r).weights)) for r in (0.01, 1.0, 100.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_zero_feature_columns_give_mean_model(self):
        model = fit_ridge(np.zeros((3, 0)), np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(model.predict_many(np.zeros((2, 0))), [[2.0], [2.0]])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_ridge(np.zeros((0, 1)), np.zeros((0, 1)))

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            fit_ridge(np.zeros((3, 1)), np.zeros((2, 1)))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            fit_ridge(np.zeros((2, 1)), np.zeros((2, 1)), ridge=-1.0)


class TestSoftmaxClassifier:
    def test_separable_data_reaches_full_train_accuracy(self):
        x = np.array([[-1.0], [-1.2], [-0.8], [1.0], [1.2], [0.8]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        model = fit_softmax_classifier(x, labels, 2, epochs=500, lr=0.5)
        preds = model.predict_many(x).argmax(axis=1)
        assert np.array_equal(preds, labels)

    def test_single_class_dominates_output(self):
        x = np.array([[0.5], [1.5], [-0.3]])
        model = fit_softmax_classifier(x, np.array([0, 0, 0]), 2, epochs=300, lr=0.5)
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
        model = fit_softmax_classifier(x, labels, 3, epochs=50, lr=0.5)
        probs = model.predict_many(rng.normal(size=(20, 2)))
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        x = np.array([[0.4, -1.2], [1.0, 0.3], [-0.7, 0.9]])
        labels = np.array([0, 1, 0])
        w = np.array([[0.2, -0.1], [0.5, 0.3]])
        b = np.array([0.05, -0.2])
        _, gw, gb = softmax_cross_entropy_grad(w, b, x, labels)
        eps = 1e-6

        def loss_at(w_mod, b_mod):
            return softmax_cross_entropy_grad(w_mod, b_mod, x, labels)[0]

        for index in np.ndindex(w.shape):
            bump = np.zeros_like(w)
            bump[index] = eps
            fd = (loss_at(w + bump, b) - loss_at(w - bump, b)) / (2 * eps)
            assert abs(fd - gw[index]) <= 1e-5 * max(1.0, abs(fd))
        for i in range(b.shape[0]):
            bump = np.zeros_like(b)
            bump[i] = eps
            fd = (loss_at(w, b + bump) - loss_at(w, b - bump)) / (2 * eps)
            assert abs(fd - gb[i]) <= 1e-5 * max(1.0, abs(fd))

    def test_training_deterministic(self, rng):
        x = rng.normal(size=(25, 2))
        labels = rng.integers(0, 2, size=25)
        first = fit_softmax_classifier(x, labels, 2, epochs=40, lr=0.3)
        second = fit_softmax_classifier(x, labels, 2, epochs=40, lr=0.3)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.intercept, second.intercept)

    def test_weight_decay_monotonically_shrinks_slopes(self, rng):
        x = rng.normal(size=(40, 2))
        labels = (x[:, 0] > 0).astype(int)
        norms = [
            np.linalg.norm(
                fit_softmax_classifier(x, labels, 2, epochs=200, lr=0.5, weight_decay=decay).weights
            )
            for decay in (0.0, 1.0, 5.0)
        ]
        assert norms[0] > norms[1] > norms[2]
        assert np.isfinite(norms[2])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_softmax_classifier(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError, match="classes"):
            fit_softmax_classifier(np.zeros((2, 1)), np.array([0, 0]), 1)
        with pytest.raises(ValueError, match="labels"):
            fit_softmax_classifier(np.zeros((2, 1)), np.array([0, 5]), 2)


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
                         np.array([[1.0], [4.0], [9.0]]))
        model = FeatureModel(lambda xs: polynomial_features(xs, 2), base, input_dim=1)
        assert model.predict(np.array([4.0])) == pytest.approx([16.0], abs=1e-9)
        assert model.predict_many(np.array([[4.0], [5.0]]))[1] == pytest.approx([25.0], abs=1e-9)


class TestCorruption:
    def test_unmasked_coordinate_untouched(self):
        base = constant_model([1.0, 2.0])
        model = CorruptedModel(base, seed=3, mask=np.array([True, False]))
        out = model.predict(np.array([0.7]))
        assert out[1] == 2.0
        assert out[0] != 1.0

    def test_identical_queries_identical_noise(self):
        model = corrupt(constant_model([1.0, 2.0]), seed=11)
        x = np.array([0.31])
        assert np.array_equal(model.predict(x), model.predict(x))
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
        looped = np.stack([model.predict(row) for row in xs])
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
        reference = np.stack([model.predict(row) for row in xs])
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
        assert np.array_equal(model.predict(np.array([0.0, 1.0])), [0.25, 0.75])
        assert np.array_equal(model.predict(np.array([1.0, 0.0])), [0.5, 0.5])

    def test_missing_index_rejected(self):
        with pytest.raises(KeyError, match="index 7"):
            self.example().predict(np.array([0.0, 7.0]))

    def test_unknown_split_code_rejected(self):
        with pytest.raises(KeyError, match="split code"):
            self.example().predict(np.array([2.0, 0.0]))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "model.csv"
        model = self.example()
        model.write_csv(path)
        loaded = PrecomputedModel.from_csv(path)
        for split in model.tables:
            assert loaded.tables[split].keys() == model.tables[split].keys()
            for index in model.tables[split]:
                assert np.array_equal(loaded.tables[split][index], model.tables[split][index])

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


class TestBatchPrediction:
    def test_constant_model_rows_identical(self):
        out = predict_batch(constant_model([1.0, 2.0]), np.zeros((3, 1)))
        assert np.array_equal(out, np.tile([1.0, 2.0], (3, 1)))

    def test_empty_batch_keeps_output_dim(self):
        assert predict_batch(constant_model([1.0, 2.0]), np.zeros((0, 1))).shape == (0, 2)

    def test_matches_per_row_loop(self, rng):
        model = LinearModel(rng.normal(size=(3, 2)), rng.normal(size=2))
        xs = rng.normal(size=(8, 3))
        looped = np.stack([model.predict(row) for row in xs])
        assert np.allclose(predict_batch(model, xs), looped, atol=1e-12)

    def test_input_dim_mismatch_rejected(self):
        model = LinearModel(np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(DimensionError):
            predict_batch(model, np.zeros((3, 5)))

    def test_stack_shape(self, rng):
        models = [constant_model([1.0, 0.0]), constant_model([0.0, 1.0])]
        stack = stack_predictions(models, rng.normal(size=(4, 1)))
        assert stack.shape == (2, 4, 2)


class TestModelSequence:
    def test_basic_container_behavior(self):
        models = [constant_model([1.0]), constant_model([2.0])]
        seq = ModelSequence(models, labels=["a", "b"])
        assert len(seq) == 2
        assert seq[1] is models[1]
        assert [m for m in seq] == models
        assert seq.output_dim == 1

    def test_default_labels(self):
        seq = ModelSequence([constant_model([1.0])])
        assert seq.labels == ["model_0"]

    def test_extended_appends(self):
        seq = ModelSequence([constant_model([1.0])], labels=["a"])
        longer = seq.extended([constant_model([2.0])], ["b"])
        assert len(longer) == 2
        assert longer.labels == ["a", "b"]
        assert len(seq) == 1  # original untouched

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ModelSequence([])

    def test_heterogeneous_output_dims_rejected(self):
        with pytest.raises(DimensionError, match="output_dim"):
            ModelSequence([constant_model([1.0]), constant_model([1.0, 2.0])])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="labels"):
            ModelSequence([constant_model([1.0])], labels=["a", "b"])
