"""Least-squares aggregation: Gram/moment estimators, IWA, and the label-free baselines."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg.aggregation import (
    AggregatedModel,
    AggregationResult,
    empirical_gram,
    empirical_moment,
    iwa,
    majority_votes,
    oracle_weights,
    sor,
    tcr,
    tmr,
)
from shiftagg.density_ratio import ConstantRatio, DensityRatio
from shiftagg.errors import (
    DegenerateGramError,
    DegenerateGramWarning,
    DimensionError,
    NumericalError,
)
from shiftagg.models import LinearModel, stack_predictions

# f_A(x) = (x, 2x) and f_B(x) = (1, x): cheap models with hand-checkable
# inner products on integer inputs.
MODEL_A = LinearModel([[1.0, 2.0]], [0.0, 0.0])
MODEL_B = LinearModel([[0.0, 1.0]], [1.0, 0.0])
XS_12 = np.array([[1.0], [2.0]])


class InputRatio(DensityRatio):
    """beta(x) = first input coordinate; lets moment tests weight rows unequally."""

    bound = 10.0

    def weights(self, xs):
        return np.asarray(xs, dtype=float)[:, 0]


def constant_models(*outputs):
    return [LinearModel(np.zeros((1, len(out))), np.asarray(out, dtype=float)) for out in outputs]


class TestEmpiricalGram:
    def test_hand_computed_two_models(self):
        # A -> (1,2),(2,4); B -> (1,1),(1,2); all Gram entries are halves of
        # small integers, so the equality is exact.
        gram = empirical_gram([MODEL_A, MODEL_B], XS_12)
        assert np.array_equal(gram, [[12.5, 6.5], [6.5, 3.5]])

    def test_single_model_mean_squared_norm(self):
        gram = empirical_gram([MODEL_A], XS_12)
        assert np.array_equal(gram, [[12.5]])

    def test_accepts_precomputed_stack(self):
        stack = np.array([[[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 2.0]]])
        gram = empirical_gram([MODEL_A, MODEL_B], None, predictions=stack)
        assert np.array_equal(gram, [[12.5, 6.5], [6.5, 3.5]])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_gram([MODEL_A], np.zeros((0, 1)))

    def test_stack_must_cover_models(self):
        with pytest.raises(DimensionError, match="cover"):
            empirical_gram([MODEL_A, MODEL_B], None, predictions=np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predictions_rejected(self, bad):
        stack = np.ones((2, 3, 2))
        stack[1, 2, 0] = bad
        with pytest.raises(NumericalError, match="target predictions"):
            empirical_gram([MODEL_A, MODEL_B], None, predictions=stack)

    @given(
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_symmetric_and_psd(self, l, k, d2, seed):
        stack = np.random.default_rng(seed).normal(size=(l, k, d2))
        gram = empirical_gram([object()] * l, None, predictions=stack)
        assert np.array_equal(gram, gram.T)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-9 * max(1.0, eigenvalues.max())


class TestEmpiricalMoment:
    def test_hand_computed_weighted_rows(self):
        # beta = (1, 2) on rows; y = (1,0),(0,2):
        # g_A = (1*<(1,0),(1,2)> + 2*<(0,2),(2,4)>)/2 = (1 + 16)/2
        # g_B = (1*<(1,0),(1,1)> + 2*<(0,2),(1,2)>)/2 = (1 + 8)/2
        ys = np.array([[1.0, 0.0], [0.0, 2.0]])
        moment = empirical_moment([MODEL_A, MODEL_B], XS_12, ys, InputRatio())
        assert np.array_equal(moment, [8.5, 4.5])

    def test_unit_beta_reduces_to_plain_mean(self):
        ys = np.array([[1.0, 0.0], [0.0, 2.0]])
        moment = empirical_moment([MODEL_A, MODEL_B], XS_12, ys, ConstantRatio(1.0))
        assert np.array_equal(moment, [(1.0 + 8.0) / 2.0, (1.0 + 4.0) / 2.0])

    def test_zero_labels_give_zero_moment(self):
        moment = empirical_moment([MODEL_A, MODEL_B], XS_12, np.zeros((2, 2)), ConstantRatio(1.0))
        assert np.array_equal(moment, [0.0, 0.0])

    def test_label_shape_checked(self):
        with pytest.raises(DimensionError, match="labels"):
            empirical_moment([MODEL_A], XS_12, np.zeros((2, 3)), ConstantRatio(1.0))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_moment([MODEL_A], np.zeros((0, 1)), np.zeros((0, 2)), ConstantRatio(1.0))

    def test_non_finite_predictions_rejected(self):
        stack = np.ones((2, 2, 2))
        stack[0, 1, 1] = np.nan
        with pytest.raises(NumericalError, match="source predictions"):
            empirical_moment(
                [MODEL_A, MODEL_B], XS_12, np.ones((2, 2)), ConstantRatio(1.0), predictions=stack
            )

    def test_non_finite_labels_rejected(self):
        ys = np.array([[1.0, 0.0], [np.nan, 2.0]])
        with pytest.raises(NumericalError, match="source labels"):
            empirical_moment([MODEL_A, MODEL_B], XS_12, ys, ConstantRatio(1.0))

    def test_non_finite_ratio_weights_rejected(self):
        xs = np.array([[1.0], [np.inf]])
        with pytest.raises(NumericalError, match="density-ratio weights"):
            empirical_moment(
                [MODEL_B], xs, np.ones((2, 2)), InputRatio(), predictions=np.ones((1, 2, 2))
            )

    def test_iwa_with_one_nan_label_raises(self):
        ys = np.array([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(NumericalError):
            iwa([MODEL_A, MODEL_B], XS_12, ys, XS_12, ConstantRatio(1.0), 0.1)


class TestIwa:
    def test_perfect_single_model_gets_weight_one(self):
        # Identity model with y = x on {0, 2}: Gram and moment are both
        # exactly 2, so the weight is exactly 1.
        identity = LinearModel([[1.0]], [0.0])
        xs = np.array([[0.0], [2.0]])
        result = iwa([identity], xs, xs.copy(), xs, ConstantRatio(1.0), 0.1)
        assert np.array_equal(result.weights, [1.0])
        assert result.rank_retained == 1
        assert result.gram_condition == 1.0

    def test_duplicate_models_share_weight(self):
        ys = np.array([[1.0, 1.0], [2.0, 2.0]])
        result = iwa([MODEL_A, MODEL_A, MODEL_B], XS_12, ys, XS_12, ConstantRatio(1.0), 0.1)
        assert result.rank_retained < 3
        assert abs(result.weights[0] - result.weights[1]) <= 1e-8

    def test_converges_to_population_optimum_without_shift(self):
        # Models {x, 1} with y = 3x + 2 + noise and matched domains: the
        # population least-squares aggregation is (3, 2). Worst observed
        # deviation at this sample size is ~0.2.
        f_line = LinearModel([[1.0]], [0.0])
        f_const = LinearModel([[0.0]], [1.0])
        rng = np.random.default_rng(0)
        sx = rng.normal(0.0, 1.0, size=(4000, 1))
        sy = 3.0 * sx + 2.0 + rng.normal(0.0, 0.1, size=(4000, 1))
        tx = rng.normal(0.0, 1.0, size=(4000, 1))
        result = iwa([f_line, f_const], sx, sy, tx, ConstantRatio(1.0), rcond=1e-3)
        assert np.linalg.norm(result.weights - [3.0, 2.0]) <= 0.35

    def test_zero_models_raise_degenerate_error(self):
        zero = LinearModel([[0.0]], [0.0])
        with pytest.warns(DegenerateGramWarning):
            with pytest.raises(DegenerateGramError, match="prune"):
                iwa([zero], XS_12, np.ones((2, 1)), XS_12, ConstantRatio(1.0), 0.1)

    def test_weights_linear_in_labels(self):
        ys = np.array([[1.0, 0.0], [0.0, 2.0]])
        base = iwa([MODEL_A, MODEL_B], XS_12, ys, XS_12, ConstantRatio(1.0), 1e-6)
        doubled = iwa([MODEL_A, MODEL_B], XS_12, 2.0 * ys, XS_12, ConstantRatio(1.0), 1e-6)
        assert np.array_equal(doubled.weights, 2.0 * base.weights)

    def test_model_permutation_permutes_weights(self):
        ys = np.array([[1.0, 0.0], [0.0, 2.0]])
        ab = iwa([MODEL_A, MODEL_B], XS_12, ys, XS_12, ConstantRatio(1.0), 1e-6)
        ba = iwa([MODEL_B, MODEL_A], XS_12, ys, XS_12, ConstantRatio(1.0), 1e-6)
        assert np.allclose(ab.weights, ba.weights[::-1], atol=1e-10)

    @given(
        st.integers(1, 4),
        st.integers(8, 30),
        st.integers(1, 3),
        st.floats(-8.0, 8.0),
        st.integers(0, 2**32 - 1),
    )
    def test_weights_scale_inversely_with_predictions(self, l, k, d2, log_scale, seed):
        # Scaling every model output by s scales G by s^2 and g by s, so
        # c = G+ g becomes c / s; the retained spectrum is unchanged.
        rng = np.random.default_rng(seed)
        source = rng.normal(size=(l, k, d2))
        target = rng.normal(size=(l, k, d2))
        ys = rng.normal(size=(k, d2))
        xs = np.zeros((k, 1))
        scale = 10.0**log_scale

        def weights(s):
            return iwa(
                [object()] * l, xs, ys, xs, ConstantRatio(1.0), 1e-6,
                source_predictions=s * source, target_predictions=s * target,
            ).weights

        base = weights(1.0)
        scaled = weights(scale)
        assert np.abs(scale * scaled - base).max() <= 1e-8 * np.abs(base).max()


class TestOracleWeights:
    def test_perfect_model_in_span(self):
        # y = 3x + 2 over models {x, 1}: normal equations
        # [[2.5, 1.5], [1.5, 1.0]] c = (10.5, 6.5) solve to exactly (3, 2).
        f_line = LinearModel([[1.0]], [0.0])
        f_const = LinearModel([[0.0]], [1.0])
        ys = 3.0 * XS_12 + 2.0
        weights = oracle_weights([f_line, f_const], XS_12, ys)
        assert np.allclose(weights, [3.0, 2.0], atol=1e-9)

    def test_single_perfect_model(self):
        identity = LinearModel([[1.0]], [0.0])
        xs = np.array([[0.0], [2.0]])
        weights = oracle_weights([identity], xs, xs.copy())
        assert np.array_equal(weights, [1.0])

    def test_zero_labels_give_zero_weights(self):
        weights = oracle_weights([MODEL_A, MODEL_B], XS_12, np.zeros((2, 2)))
        assert np.array_equal(weights, [0.0, 0.0])

    def test_matches_lstsq_on_random_instance(self):
        # Independent oracle: flatten the stacked predictions into a design
        # matrix and let lstsq solve the same least-squares problem.
        rng = np.random.default_rng(42)
        xs = rng.normal(size=(30, 1))
        ys = rng.normal(size=(30, 2))
        models = [MODEL_A, MODEL_B]
        weights = oracle_weights(models, xs, ys, rcond=1e-10)
        design = np.stack(
            [np.asarray(m.predict_many(xs), dtype=float).ravel() for m in models], axis=1
        )
        reference = np.linalg.lstsq(design, ys.ravel(), rcond=None)[0]
        assert np.allclose(weights, reference, atol=1e-8)


class TestSor:
    def test_equals_iwa_with_unit_beta_on_source(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(20, 1))
        ys = rng.normal(size=(20, 2))
        via_sor = sor([MODEL_A, MODEL_B], xs, ys, 0.1)
        via_iwa = iwa([MODEL_A, MODEL_B], xs, ys, xs, ConstantRatio(1.0), 0.1).weights
        assert np.array_equal(via_sor, via_iwa)

    def test_recovers_perfect_model(self):
        ys = np.asarray(MODEL_A.predict_many(XS_12), dtype=float)
        weights = sor([MODEL_A, MODEL_B], XS_12, ys, 1e-10)
        assert np.allclose(weights, [1.0, 0.0], atol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_label_regressions_reject_non_finite_inputs(bad):
    stack = np.ones((2, 3, 2))
    stack[1, 0, 1] = bad
    labels = np.eye(2)[[0, 1, 0]]
    for fn in (sor, oracle_weights):
        with pytest.raises(NumericalError, match="predictions"):
            fn([MODEL_A, MODEL_B], None, labels, predictions=stack)
    for fn in (tmr, tcr):
        with pytest.raises(NumericalError, match="predictions"):
            fn([MODEL_A, MODEL_B], None, predictions=stack)
    bad_labels = labels.copy()
    bad_labels[2, 0] = bad
    for fn in (sor, oracle_weights):
        with pytest.raises(NumericalError, match="labels"):
            fn([MODEL_A, MODEL_B], None, bad_labels, predictions=np.ones((2, 3, 2)))


class TestMajorityVote:
    def test_hand_computed_votes(self):
        stack = np.array(
            [
                [[0.9, 0.1], [0.2, 0.8]],
                [[0.7, 0.3], [0.1, 0.9]],
                [[0.2, 0.8], [0.6, 0.4]],
            ]
        )
        assert np.array_equal(majority_votes(stack), [0, 1])

    def test_tie_breaks_to_lowest_class(self):
        stack = np.array([[[0.9, 0.1]], [[0.1, 0.9]]])
        assert np.array_equal(majority_votes(stack), [0])

    def test_tmv_single_input(self):
        models = constant_models([0.9, 0.1], [0.8, 0.2], [0.1, 0.9])
        assert majority_votes(stack_predictions(models, np.zeros((1, 1)))) == [0]

    def test_tmv_brute_force_on_five_models(self):
        rng = np.random.default_rng(3)
        models = constant_models(*rng.uniform(size=(5, 3)))
        x = np.array([0.0])
        votes = [int(np.argmax(m.predict(x))) for m in models]
        expected = int(np.argmax(np.bincount(votes, minlength=3)))
        assert majority_votes(stack_predictions(models, x[None])) == [expected]

    def test_regression_outputs_rejected(self):
        with pytest.raises(DimensionError, match="output_dim"):
            majority_votes(np.zeros((2, 3, 1)))


def lstsq_onto_models(models, xs, labels):
    """Independent min-norm least squares of ``labels`` onto the model outputs."""
    design = np.stack(
        [np.asarray(m.predict_many(xs), dtype=float).ravel() for m in models], axis=1
    )
    return np.linalg.lstsq(design, np.asarray(labels, dtype=float).ravel(), rcond=None)[0]


class TestPseudoLabelRegressions:
    # Votes (0, 0, 1) make the majority class 0, but the model-averaged
    # output (0.356.., 0.643..) argmaxes to class 1, so the two baselines
    # regress onto different pseudo-labels.
    MODELS = constant_models([0.55, 0.45], [0.52, 0.48], [0.0, 1.0])
    XS = np.zeros((4, 1))

    def test_tmr_matches_lstsq_on_majority_pseudo_labels(self):
        pseudo = np.tile([1.0, 0.0], (4, 1))
        expected = lstsq_onto_models(self.MODELS, self.XS, pseudo)
        assert np.allclose(tmr(self.MODELS, self.XS, rcond=1e-10), expected, atol=1e-8)

    def test_tcr_matches_lstsq_on_consensus_pseudo_labels(self):
        pseudo = np.tile([0.0, 1.0], (4, 1))
        expected = lstsq_onto_models(self.MODELS, self.XS, pseudo)
        assert np.allclose(tcr(self.MODELS, self.XS, rcond=1e-10), expected, atol=1e-8)

    def test_tmr_and_tcr_disagree_here(self):
        assert not np.allclose(
            tmr(self.MODELS, self.XS, rcond=1e-10), tcr(self.MODELS, self.XS, rcond=1e-10)
        )

    def test_single_confident_model_reproduced(self):
        # One model predicting (1, 0) every time: its own vote is the pseudo
        # label, so regression returns weight 1 exactly.
        model = constant_models([1.0, 0.0])
        assert np.array_equal(tmr(model, self.XS, rcond=1e-10), [1.0])
        assert np.array_equal(tcr(model, self.XS, rcond=1e-10), [1.0])

    def test_varying_pseudo_labels_match_lstsq(self):
        models = [MODEL_A, MODEL_B]
        xs = np.array([[0.5], [1.0], [2.0], [3.0]])
        stack = np.stack([np.asarray(m.predict_many(xs), dtype=float) for m in models])
        pseudo = np.eye(2)[majority_votes(stack)]
        expected = lstsq_onto_models(models, xs, pseudo)
        assert np.allclose(tmr(models, xs, rcond=1e-10), expected, atol=1e-8)

    def test_regression_outputs_rejected(self):
        with pytest.raises(DimensionError, match="output_dim"):
            tmr([LinearModel([[1.0]], [0.0])], XS_12)
        with pytest.raises(DimensionError, match="output_dim"):
            tcr([LinearModel([[1.0]], [0.0])], XS_12)


class TestAggregatedModel:
    def test_weighted_sum_of_outputs(self):
        aggregate = AggregatedModel([MODEL_A, MODEL_B], [2.0, -1.0])
        # 2*(1,2) - (1,1) = (1, 3) at x=1
        assert np.array_equal(aggregate.predict(np.array([1.0])), [1.0, 3.0])

    def test_predict_many_matches_predict(self):
        aggregate = AggregatedModel([MODEL_A, MODEL_B], [0.5, 0.25])
        batch = aggregate.predict_many(XS_12)
        rows = [aggregate.predict(x) for x in XS_12]
        assert np.allclose(batch, rows, atol=1e-12)

    def test_weight_count_checked(self):
        with pytest.raises(DimensionError):
            AggregatedModel([MODEL_A, MODEL_B], [1.0])

    def test_needs_at_least_one_model(self):
        with pytest.raises(ValueError, match="at least one"):
            AggregatedModel([], [])

    def test_output_dim_disagreement_rejected(self):
        with pytest.raises(DimensionError, match="output_dim"):
            AggregatedModel([MODEL_A, LinearModel([[1.0]], [0.0])], [1.0, 1.0])


@given(
    st.integers(2, 20),
    st.integers(0, 2**32 - 1),
)
def test_sor_is_iwa_without_shift(k, seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(k, 1))
    ys = rng.normal(size=(k, 2))
    via_sor = sor([MODEL_A, MODEL_B], xs, ys, 0.1)
    via_iwa = iwa([MODEL_A, MODEL_B], xs, ys, xs, ConstantRatio(1.0), 0.1).weights
    assert np.array_equal(via_sor, via_iwa)
