"""Risk, accuracy, and correlation metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg.errors import DimensionError, NumericalError
from shiftagg.metrics import (
    accuracies,
    accuracy,
    pearson_with_flag,
    picks_class1,
    quartiles,
    risk,
)
from shiftagg.models import LinearModel, stack_predictions


def constant_model(output):
    output = np.asarray(output, dtype=float)
    return LinearModel(np.zeros((1, output.shape[0])), output)


def predictions(model, xs):
    return stack_predictions([model], xs)[0]


def pearson(a, b):
    return pearson_with_flag(a, b)[0]


class TestEmpiricalRisk:
    def test_perfect_predictions_have_zero_risk(self):
        model = LinearModel([[1.0]], [0.0])
        xs = np.array([[1.0], [2.0]])
        assert risk(predictions(model, xs), xs.copy()) == 0.0

    def test_hand_computed_value(self):
        # Constant (0, 0) against rows (1, 0) and (0, 2):
        # mean of 1 and 4 is 2.5.
        model = constant_model([0.0, 0.0])
        ys = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert risk(predictions(model, np.zeros((2, 1))), ys) == 2.5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.normal(size=(1, 3)), rng.normal(size=3))
        xs = rng.normal(size=(11, 1))
        ys = rng.normal(size=(11, 3))
        expected = np.mean(
            [np.sum((model.predict_many(x[None])[0] - y) ** 2) for x, y in zip(xs, ys)]
        )
        assert risk(predictions(model, xs), ys) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        model = constant_model([0.0, 0.0])
        with pytest.raises(DimensionError):
            risk(predictions(model, np.zeros((2, 1))), np.zeros((2, 3)))

    def test_empty_sample_rejected(self):
        model = constant_model([0.0])
        with pytest.raises(ValueError, match="empty"):
            risk(predictions(model, np.zeros((0, 1))), np.zeros((0, 1)))

    def test_row_weights_checked(self):
        preds, ys = np.zeros((2, 1)), np.ones((2, 1))
        assert risk(preds, ys, np.array([0.25, 0.75])) == 1.0
        with pytest.raises(DimensionError, match="weights"):
            risk(preds, ys, np.ones(3))
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericalError, match="weights"):
                risk(preds, ys, np.array([1.0, bad]))


class TestAccuracy:
    def test_all_correct(self):
        model = constant_model([0.9, 0.1])
        assert accuracy(predictions(model, np.zeros((3, 1))), [0, 0, 0]) == 1.0

    def test_all_wrong(self):
        model = constant_model([0.9, 0.1])
        assert accuracy(predictions(model, np.zeros((3, 1))), [1, 1, 1]) == 0.0

    def test_half_right(self):
        model = constant_model([0.9, 0.1])
        assert accuracy(predictions(model, np.zeros((4, 1))), [0, 1, 0, 1]) == 0.5

    def test_argmax_tie_counts_lowest_class(self):
        model = constant_model([0.5, 0.5])
        assert accuracy(predictions(model, np.zeros((2, 1))), [0, 1]) == 0.5

    def test_label_vector_shape_checked(self):
        model = constant_model([0.9, 0.1])
        with pytest.raises(DimensionError, match="1-d"):
            accuracy(predictions(model, np.zeros((2, 1))), np.zeros((2, 2)))
        with pytest.raises(DimensionError, match="labels"):
            accuracy(predictions(model, np.zeros((2, 1))), [0])

    def test_empty_sample_rejected(self):
        model = constant_model([0.9, 0.1])
        with pytest.raises(ValueError, match="empty"):
            accuracy(predictions(model, np.zeros((0, 1))), [])


class TestAccuracies:
    def test_each_model_matches_accuracy(self):
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(5, 40, 3))
        stack[0, :, 1:] = stack[0, :, :1]  # ties resolve to the lowest class
        labels = rng.integers(3, size=40)
        result = accuracies(stack, labels)
        assert result.shape == (5,)
        assert result.tolist() == [accuracy(preds, labels) for preds in stack]

    def test_shapes_checked(self):
        with pytest.raises(DimensionError, match="1-d"):
            accuracies(np.zeros((2, 3, 2)), np.zeros((3, 1)))
        with pytest.raises(DimensionError, match="labels"):
            accuracies(np.zeros((3, 2)), [0, 0, 0])
        with pytest.raises(DimensionError, match="labels"):
            accuracies(np.zeros((2, 3, 2)), [0, 0])
        with pytest.raises(DimensionError, match="rows, classes"):
            accuracy(np.zeros(3), [0, 0, 0])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracies(np.zeros((2, 0, 2)), [])

    @pytest.mark.parametrize("labels", [[0.9, 0, 1], [0, np.nan, 1]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="integers"):
            accuracies(np.zeros((2, 3, 2)), labels)

    @pytest.mark.parametrize("classes, bad", [(2, -1), (2, 2), (3, 3)])
    def test_labels_outside_the_classes_rejected(self, classes, bad):
        with pytest.raises(ValueError, match=r"\[0, classes\)"):
            accuracies(np.zeros((2, 3, classes)), [0, 1, bad])

    def test_integer_valued_float_labels_accepted(self):
        stack = np.array([[[0.9, 0.1], [0.2, 0.8]]])
        assert accuracies(stack, [0.0, 1.0]).tolist() == [1.0]


# Every ordered pair of these values: ties, NaN in either column or both,
# and equal and mixed infinities.
SPECIAL = np.array([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf, np.nan])
SPECIAL_PAIRS = np.stack(np.meshgrid(SPECIAL, SPECIAL, indexing="ij"), axis=-1).reshape(-1, 2)


def random_two_class_stack(seed, models=6, rows=300):
    """Rounded outputs (so many ties) with NaN and +-inf entries sprinkled in."""
    rng = np.random.default_rng(seed)
    stack = np.round(rng.normal(size=(models, rows, 2)), 1)
    spots = rng.uniform(size=stack.shape)
    stack[spots < 0.03] = np.nan
    stack[(spots >= 0.03) & (spots < 0.05)] = np.inf
    stack[(spots >= 0.05) & (spots < 0.07)] = -np.inf
    return stack


class TestTwoClassRule:
    def test_special_pairs_match_argmax(self):
        expected = SPECIAL_PAIRS.argmax(axis=1) == 1
        assert np.array_equal(picks_class1(SPECIAL_PAIRS), expected)

    @pytest.mark.parametrize("pair, class1", [
        ((0.5, 0.5), False), ((np.inf, np.inf), False), ((-np.inf, -np.inf), False),
        ((np.nan, 1.0), False), ((1.0, np.nan), True), ((np.nan, np.nan), False),
        ((-np.inf, np.inf), True), ((np.inf, -np.inf), False),
    ])
    def test_named_cases(self, pair, class1):
        assert np.argmax(pair) == int(class1)
        assert bool(picks_class1(np.array(pair))) is class1

    @pytest.mark.parametrize("seed", range(4))
    def test_random_stacks_match_argmax(self, seed):
        stack = random_two_class_stack(seed)
        assert np.array_equal(picks_class1(stack), stack.argmax(axis=2) == 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_accuracies_match_per_model_argmax(self, seed):
        stack = random_two_class_stack(seed)
        labels = np.random.default_rng(seed).integers(2, size=stack.shape[1])
        expected = [float((preds.argmax(axis=1) == labels).mean()) for preds in stack]
        assert accuracies(stack, labels).tolist() == expected

    def test_accuracies_on_special_pairs(self):
        stack = SPECIAL_PAIRS[None]
        for label in (0, 1):
            labels = np.full(len(SPECIAL_PAIRS), label)
            expected = float((SPECIAL_PAIRS.argmax(axis=1) == label).mean())
            assert accuracies(stack, labels).tolist() == [expected]


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # a = (0, 1, 2), b = (0, 0, 3): centered a = (-1, 0, 1),
        # centered b = (-1, -1, 2); r = 3 / sqrt(2 * 6).
        expected = 3.0 / np.sqrt(12.0)
        assert pearson([0.0, 1.0, 2.0], [0.0, 0.0, 3.0]) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        a = [0.3, 1.7, -2.0, 0.4]
        b = [1.0, 0.0, 0.5, 2.5]
        assert pearson(a, b) == pytest.approx(pearson(b, a), abs=1e-15)

    def test_affine_invariance(self):
        a = np.array([0.1, 0.9, 0.4, 0.7])
        b = np.array([2.0, -1.0, 0.5, 0.0])
        assert pearson(3.0 * a + 5.0, b) == pytest.approx(pearson(a, b), abs=1e-12)
        assert pearson(-2.0 * a, b) == pytest.approx(-pearson(a, b), abs=1e-12)

    def test_constant_input_flagged_degenerate(self):
        r, degenerate = pearson_with_flag([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        assert (r, degenerate) == (0.0, True)
        r, degenerate = pearson_with_flag([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        assert (r, degenerate) == (0.0, True)
        # Not constant, but its centred sum of squares underflows to zero.
        r, degenerate = pearson_with_flag([1e-200, 2e-200, 3e-200], [1.0, 2.0, 4.0])
        assert (r, degenerate) == (0.0, True)

    def test_informative_inputs_not_flagged(self):
        _, degenerate = pearson_with_flag([0.0, 1.0], [1.0, 0.0])
        assert not degenerate

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            pearson([1.0], [2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # min(1.0, nan) is 1.0, so a NaN used to read as a perfect correlation.
        with pytest.raises(NumericalError, match="NaN or inf"):
            pearson_with_flag([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(NumericalError, match="NaN or inf"):
            pearson_with_flag([1.0, 2.0, 3.0], [1.0, bad, 3.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            pearson(np.zeros((2, 2)), np.zeros((2, 2)))

    @given(
        st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=20),
        st.integers(0, 2**32 - 1),
    )
    def test_always_within_unit_interval(self, values, seed):
        a = np.array(values)
        b = np.random.default_rng(seed).normal(size=a.shape[0])
        r, _ = pearson_with_flag(a, b)
        assert -1.0 <= r <= 1.0


def assert_numpy_bits(values):
    # Adding 0.0 turns -0.0 into 0.0: where +0 and -0 tie, which of them
    # numpy's partition leaves in the middle is its own choice.
    expected = (np.percentile(values, 25), np.median(values), np.percentile(values, 75))
    got = quartiles(values)
    assert all(type(q) is float for q in got)
    assert (np.array(got) + 0.0).tobytes() == (np.array(expected) + 0.0).tobytes()


class TestQuartiles:
    @given(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1.0, -2.5, 0.1]),
                    min_size=1, max_size=400))
    def test_bits_match_numpy(self, values):
        # The sampled constants make ties.
        assert_numpy_bits(np.array(values))

    def test_bits_match_numpy_at_every_size(self):
        rng = np.random.default_rng(23)
        for n in range(1, 401):
            assert_numpy_bits(np.round(rng.normal(scale=3.0, size=n), 1))

    def test_hand_cases(self):
        assert quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert quartiles([4.0, 1.0]) == (1.75, 2.5, 3.25)
        assert quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)

    @pytest.mark.parametrize("values", [[], [1.0, np.nan, 2.0], [np.nan]])
    def test_nan_or_empty_gives_nan(self, values):
        assert all(np.isnan(q) for q in quartiles(values))
