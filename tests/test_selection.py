"""Importance-weighted model selection and its control-variate variant."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg.datasets import one_hot
from shiftagg.density_ratio import ConstantRatio, DensityRatio
from shiftagg.errors import DimensionError, NumericalError
from shiftagg.models import LinearModel
from shiftagg.selection import SelectionResult, dev_select, iwv_select


class InputRatio(DensityRatio):
    """beta(x) = first input coordinate (test-only, lets scores weight rows)."""

    bound = 10.0

    def weights(self, xs):
        return np.asarray(xs, dtype=float)[:, 0]


def constant_models(*outputs):
    return [LinearModel(np.zeros((1, len(out))), np.asarray(out, dtype=float)) for out in outputs]


MODELS_2D = constant_models([1.0, 0.0], [0.0, 1.0])


class TestIwvSelect:
    def test_hand_computed_squared_scores(self):
        # Model (1,0) misses only row 2 (loss 2); model (0,1) misses rows 1
        # and 3: means are 2/3 and 4/3.
        xs = np.zeros((3, 1))
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        result = iwv_select(MODELS_2D, xs, ys, ConstantRatio(1.0))
        assert result.chosen_index == 0
        assert np.allclose(result.scores, [2.0 / 3.0, 4.0 / 3.0], atol=1e-12)

    def test_beta_reweights_rows(self):
        # Row weights (1, 2, 3): model (1,0) pays 2*2, model (0,1) pays
        # 1*2 + 3*2, so the weighted means are 4/3 and 8/3.
        xs = np.array([[1.0], [2.0], [3.0]])
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        result = iwv_select(MODELS_2D, xs, ys, InputRatio())
        assert result.chosen_index == 0
        assert np.allclose(result.scores, [4.0 / 3.0, 8.0 / 3.0], atol=1e-12)

    def test_zero_loss_model_chosen(self):
        models = constant_models([0.5, 0.5], [1.0, 0.0])
        ys = np.tile([1.0, 0.0], (4, 1))
        result = iwv_select(models, np.zeros((4, 1)), ys, ConstantRatio(1.0))
        assert result.chosen_index == 1
        assert result.scores[1] == 0.0

    def test_ties_break_to_lowest_index(self):
        models = constant_models([1.0, 0.0], [1.0, 0.0])
        ys = np.tile([0.0, 1.0], (3, 1))
        result = iwv_select(models, np.zeros((3, 1)), ys, ConstantRatio(1.0))
        assert result.chosen_index == 0

    def test_zero_one_loss(self):
        # Argmax mistakes: model (0.9,0.1) errs on the two class-1 rows,
        # model (0.1,0.9) on the single class-0 row.
        models = constant_models([0.9, 0.1], [0.1, 0.9])
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        result = iwv_select(models, np.zeros((3, 1)), ys, ConstantRatio(1.0), loss="zero_one")
        assert result.chosen_index == 1
        assert np.allclose(result.scores, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_zero_one_needs_classification_outputs(self):
        models = [LinearModel([[1.0]], [0.0])]
        with pytest.raises(DimensionError, match="zero_one"):
            iwv_select(models, np.ones((2, 1)), np.ones((2, 1)), ConstantRatio(1.0), loss="zero_one")

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="loss must be one of"):
            iwv_select(MODELS_2D, np.zeros((2, 1)), np.zeros((2, 2)), ConstantRatio(1.0), loss="huber")

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            iwv_select(MODELS_2D, np.zeros((0, 1)), np.zeros((0, 2)), ConstantRatio(1.0))

    def test_label_shape_checked(self):
        with pytest.raises(DimensionError, match="labels"):
            iwv_select(MODELS_2D, np.zeros((2, 1)), np.zeros((2, 3)), ConstantRatio(1.0))

    def test_bad_beta_shape_rejected(self):
        class MatrixRatio(DensityRatio):
            bound = 1.0

            def weights(self, xs):
                return np.ones((len(xs), 2))

        with pytest.raises(DimensionError, match="beta"):
            iwv_select(MODELS_2D, np.zeros((2, 1)), np.zeros((2, 2)), MatrixRatio())


class TestDevSelect:
    def test_constant_beta_matches_iwv_bitwise(self):
        # Var(w) = 0 takes the fallback path: identical scores, same pick.
        xs = np.array([[1.0], [2.0], [3.0]])
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        plain = iwv_select(MODELS_2D, xs, ys, ConstantRatio(1.0))
        controlled = dev_select(MODELS_2D, xs, ys, ConstantRatio(1.0))
        assert np.array_equal(plain.scores, controlled.scores)
        assert plain.chosen_index == controlled.chosen_index

    def test_mean_one_weights_leave_scores_unchanged(self):
        # mean(w) == 1 exactly zeroes the control term even though Var(w) > 0.
        xs = np.array([[0.5], [1.5]])
        ys = np.array([[1.0, 0.0], [0.0, 1.0]])
        plain = iwv_select(MODELS_2D, xs, ys, InputRatio())
        controlled = dev_select(MODELS_2D, xs, ys, InputRatio())
        assert np.array_equal(plain.scores, controlled.scores)

    def test_control_variate_formula(self):
        # Re-derive score = mean(wl) - Cov(wl, w)/Var(w) * (mean(w) - 1)
        # with population normalizers, independently of the implementation.
        xs = np.array([[1.0], [2.0], [1.0], [4.0]])
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        w = xs[:, 0]
        result = dev_select(MODELS_2D, xs, ys, InputRatio())
        losses = np.array(
            [((np.asarray(m.predict_many(xs)) - ys) ** 2).sum(axis=1) for m in MODELS_2D]
        )
        expected = []
        for row in losses:
            wl = row * w
            cov = np.mean((wl - wl.mean()) * (w - w.mean()))
            eta = -cov / w.var()
            expected.append(wl.mean() + eta * (w.mean() - 1.0))
        assert np.allclose(result.scores, expected, atol=1e-12)

    def test_single_sample_uses_fallback(self):
        # One sample has zero weight variance by definition.
        xs = np.array([[3.0]])
        ys = np.array([[1.0, 0.0]])
        plain = iwv_select(MODELS_2D, xs, ys, InputRatio())
        controlled = dev_select(MODELS_2D, xs, ys, InputRatio())
        assert np.array_equal(plain.scores, controlled.scores)



class TestSelectAsAggregation:
    """A selection's aggregation-weight view is the one-hot vector of its index."""

    def test_one_hot_weights(self):
        result = SelectionResult(chosen_index=2, scores=np.zeros(4))
        assert np.array_equal(one_hot(result.chosen_index, 4), [0.0, 0.0, 1.0, 0.0])

    def test_round_trip_from_selection(self):
        models = constant_models([0.5, 0.5], [1.0, 0.0])
        ys = np.tile([1.0, 0.0], (3, 1))
        result = iwv_select(models, np.zeros((3, 1)), ys, ConstantRatio(1.0))
        weights = one_hot(result.chosen_index, len(models))
        assert weights[result.chosen_index] == 1.0
        assert weights.sum() == 1.0

    def test_out_of_range_rejected(self):
        result = SelectionResult(chosen_index=3, scores=np.zeros(4))
        with pytest.raises(ValueError, match="out of range"):
            one_hot(result.chosen_index, 3)


class NanRatio(DensityRatio):
    """A ratio whose first weight is NaN."""

    bound = 10.0

    def weights(self, xs):
        w = np.ones(len(xs))
        w[0] = np.nan
        return w


class TestNonFiniteInputs:
    @pytest.mark.parametrize("select", [iwv_select, dev_select])
    def test_nan_ratio_weight_rejected(self, select):
        ys = np.tile([1.0, 0.0], (3, 1))
        with pytest.raises(NumericalError, match="density-ratio weights"):
            select(MODELS_2D, np.zeros((3, 1)), ys, NanRatio())

    @pytest.mark.parametrize("select", [iwv_select, dev_select])
    @pytest.mark.parametrize("loss", ["squared", "zero_one"])
    def test_non_finite_predictions_rejected(self, select, loss):
        stack = np.full((2, 3, 2), 0.5)
        stack[1, 2, 0] = np.nan
        ys = np.tile([1.0, 0.0], (3, 1))
        with pytest.raises(NumericalError, match="source predictions"):
            select([object()] * 2, np.zeros((3, 1)), ys, ConstantRatio(1.0), loss,
                   predictions=stack)

    def test_non_finite_labels_rejected(self):
        ys = np.tile([1.0, 0.0], (3, 1))
        ys[1, 1] = np.nan
        with pytest.raises(NumericalError, match="source labels"):
            iwv_select(MODELS_2D, np.zeros((3, 1)), ys, ConstantRatio(1.0))


@given(
    st.integers(2, 5),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_chosen_index_is_argmin_of_scores(l, k, seed):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(size=(l, k, 2))
    ys = np.eye(2)[rng.integers(0, 2, size=k)]
    result = iwv_select([object()] * l, np.zeros((k, 1)), ys, ConstantRatio(1.0), predictions=stack)
    assert result.scores.shape == (l,)
    assert result.chosen_index == int(np.argmin(result.scores))


@given(
    st.integers(2, 5),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.25, 4.0),
)
def test_dev_equals_iwv_for_any_constant_beta(l, k, seed, value):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(size=(l, k, 2))
    ys = np.eye(2)[rng.integers(0, 2, size=k)]
    beta = ConstantRatio(value)
    plain = iwv_select([object()] * l, np.zeros((k, 1)), ys, beta, predictions=stack)
    controlled = dev_select([object()] * l, np.zeros((k, 1)), ys, beta, predictions=stack)
    assert np.array_equal(plain.scores, controlled.scores)


@pytest.mark.parametrize("select", [iwv_select, dev_select])
def test_stack_must_cover_the_models(select):
    stack = np.zeros((3, 4, 2))
    ys = np.tile([1.0, 0.0], (4, 1))
    with pytest.raises(DimensionError, match="does not cover 2 models"):
        select([object()] * 2, np.zeros((4, 1)), ys, ConstantRatio(1.0), predictions=stack)
