"""Importance-weighted model selection and its control-variate variant."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg.errors import DimensionError, NumericalError
from shiftagg.metrics import one_hot
from shiftagg.models import LinearModel, stack_predictions
from shiftagg.selection import SelectionResult, dev_select, iwv_select


def constant_models(*outputs):
    return [LinearModel(np.zeros((1, len(out))), np.asarray(out, dtype=float)) for out in outputs]


def constant_stack(k, *outputs):
    """Prediction stack of constant models on k rows."""
    return stack_predictions(constant_models(*outputs), np.zeros((k, 1)))


def stack_2d(k):
    """The (1,0) and (0,1) constant models on k rows."""
    return constant_stack(k, [1.0, 0.0], [0.0, 1.0])


class TestIwvSelect:
    def test_hand_computed_squared_scores(self):
        # Model (1,0) misses only row 2 (loss 2); model (0,1) misses rows 1
        # and 3: means are 2/3 and 4/3.
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        result = iwv_select(stack_2d(3), ys, np.ones(3))
        assert result.chosen_index == 0
        assert np.allclose(result.scores, [2.0 / 3.0, 4.0 / 3.0], atol=1e-12)

    def test_beta_reweights_rows(self):
        # Row weights (1, 2, 3): model (1,0) pays 2*2, model (0,1) pays
        # 1*2 + 3*2, so the weighted means are 4/3 and 8/3.
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        result = iwv_select(stack_2d(3), ys, np.array([1.0, 2.0, 3.0]))
        assert result.chosen_index == 0
        assert np.allclose(result.scores, [4.0 / 3.0, 8.0 / 3.0], atol=1e-12)

    def test_zero_loss_model_chosen(self):
        ys = np.tile([1.0, 0.0], (4, 1))
        result = iwv_select(constant_stack(4, [0.5, 0.5], [1.0, 0.0]), ys, np.ones(4))
        assert result.chosen_index == 1
        assert result.scores[1] == 0.0

    def test_ties_break_to_lowest_index(self):
        ys = np.tile([0.0, 1.0], (3, 1))
        result = iwv_select(constant_stack(3, [1.0, 0.0], [1.0, 0.0]), ys, np.ones(3))
        assert result.chosen_index == 0

    def test_unknown_loss_rejected(self):
        # The squared loss is the only one; a loss keyword is an error, not ignored.
        for select in (iwv_select, dev_select):
            with pytest.raises(TypeError, match="loss"):
                select(stack_2d(2), np.zeros((2, 2)), np.ones(2), loss="zero_one")

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            iwv_select(stack_2d(0), np.zeros((0, 2)), np.ones(0))

    def test_label_shape_checked(self):
        with pytest.raises(DimensionError, match="labels"):
            iwv_select(stack_2d(2), np.zeros((2, 3)), np.ones(2))

    def test_bad_beta_shape_rejected(self):
        with pytest.raises(DimensionError, match="ratio weights"):
            iwv_select(stack_2d(2), np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(DimensionError, match="ratio weights"):
            iwv_select(stack_2d(2), np.zeros((2, 2)), np.ones(3))


class TestDevSelect:
    def test_constant_beta_matches_iwv_bitwise(self):
        # Var(w) = 0 takes the fallback path: identical scores, same pick.
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        plain = iwv_select(stack_2d(3), ys, np.ones(3))
        controlled = dev_select(stack_2d(3), ys, np.ones(3))
        assert np.array_equal(plain.scores, controlled.scores)
        assert plain.chosen_index == controlled.chosen_index

    def test_mean_one_weights_leave_scores_unchanged(self):
        # mean(w) == 1 exactly zeroes the control term even though Var(w) > 0.
        w = np.array([0.5, 1.5])
        ys = np.array([[1.0, 0.0], [0.0, 1.0]])
        plain = iwv_select(stack_2d(2), ys, w)
        controlled = dev_select(stack_2d(2), ys, w)
        assert np.array_equal(plain.scores, controlled.scores)

    def test_control_variate_formula(self):
        # Re-derive score = mean(wl) - Cov(wl, w)/Var(w) * (mean(w) - 1)
        # with population normalizers, independently of the implementation.
        ys = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        w = np.array([1.0, 2.0, 1.0, 4.0])
        result = dev_select(stack_2d(4), ys, w)
        losses = np.array([((np.array(out) - ys) ** 2).sum(axis=1) for out in ([1, 0], [0, 1])])
        expected = []
        for row in losses:
            wl = row * w
            cov = np.mean((wl - wl.mean()) * (w - w.mean()))
            eta = -cov / w.var()
            expected.append(wl.mean() + eta * (w.mean() - 1.0))
        assert np.allclose(result.scores, expected, atol=1e-12)

    def test_single_sample_uses_fallback(self):
        # One sample has zero weight variance by definition.
        ys = np.array([[1.0, 0.0]])
        plain = iwv_select(stack_2d(1), ys, np.array([3.0]))
        controlled = dev_select(stack_2d(1), ys, np.array([3.0]))
        assert np.array_equal(plain.scores, controlled.scores)



class TestSelectAsAggregation:
    """A selection's aggregation-weight view is the one-hot vector of its index."""

    def test_one_hot_weights(self):
        result = SelectionResult(chosen_index=2, scores=np.zeros(4))
        assert np.array_equal(one_hot(result.chosen_index, 4), [0.0, 0.0, 1.0, 0.0])

    def test_round_trip_from_selection(self):
        ys = np.tile([1.0, 0.0], (3, 1))
        result = iwv_select(constant_stack(3, [0.5, 0.5], [1.0, 0.0]), ys, np.ones(3))
        weights = one_hot(result.chosen_index, 2)
        assert weights[result.chosen_index] == 1.0
        assert weights.sum() == 1.0

    def test_out_of_range_rejected(self):
        result = SelectionResult(chosen_index=3, scores=np.zeros(4))
        with pytest.raises(ValueError, match="out of range"):
            one_hot(result.chosen_index, 3)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("select", [iwv_select, dev_select])
    def test_nan_ratio_weight_rejected(self, select):
        ys = np.tile([1.0, 0.0], (3, 1))
        with pytest.raises(NumericalError, match="density-ratio weights"):
            select(stack_2d(3), ys, np.array([np.nan, 1.0, 1.0]))

    @pytest.mark.parametrize("select", [iwv_select, dev_select])
    def test_non_finite_predictions_rejected(self, select):
        stack = np.full((2, 3, 2), 0.5)
        stack[1, 2, 0] = np.nan
        ys = np.tile([1.0, 0.0], (3, 1))
        with pytest.raises(NumericalError, match="predictions"):
            select(stack, ys, np.ones(3))

    def test_non_finite_labels_rejected(self):
        ys = np.tile([1.0, 0.0], (3, 1))
        ys[1, 1] = np.nan
        with pytest.raises(NumericalError, match="labels"):
            iwv_select(stack_2d(3), ys, np.ones(3))


@given(
    st.integers(2, 5),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_chosen_index_is_argmin_of_scores(l, k, seed):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(size=(l, k, 2))
    ys = np.eye(2)[rng.integers(0, 2, size=k)]
    result = iwv_select(stack, ys, np.ones(k))
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
    weights = np.full(k, value)
    plain = iwv_select(stack, ys, weights)
    controlled = dev_select(stack, ys, weights)
    assert np.array_equal(plain.scores, controlled.scores)
