"""Least-squares aggregation: the Gram/moment core, IWA, and the label-free baselines."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg import aggregation, errors
from shiftagg.aggregation import (
    AggregationResult,
    aggregate_predictions,
    iwa,
    majority_votes,
    oracle_weights,
    sor,
    tcr,
    tmr,
)
from shiftagg.density_ratio import ConstantRatio
from shiftagg.errors import (
    DegenerateGramError,
    DimensionError,
    NumericalError,
)
from shiftagg.linalg import TruncatedInverse
from shiftagg.models import LinearModel, stack_predictions

# f_A(x) = (x, 2x) and f_B(x) = (1, x): cheap models with hand-checkable
# inner products on integer inputs.
MODEL_A = LinearModel([[1.0, 2.0]], [0.0, 0.0])
MODEL_B = LinearModel([[0.0, 1.0]], [1.0, 0.0])
XS_12 = np.array([[1.0], [2.0]])
AB_12 = stack_predictions([MODEL_A, MODEL_B], XS_12)


def constant_models(*outputs):
    return [LinearModel(np.zeros((1, len(out))), np.asarray(out, dtype=float)) for out in outputs]


class FixedRatio:
    """A density ratio whose weights on any rows are the given array."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def weights(self, xs):
        return self.values


def _identity_pinv(a, rcond):
    n = len(a)
    return TruncatedInverse(np.eye(n), np.ones(n), np.ones(n, dtype=bool))


def iwa_moment(source_stack, source_y, ratio_weights):
    """iwa's moment vector g on a source stack: with G+ stubbed to the identity, c = g.

    The target stack is all ones of the same shape, so every check that
    fires here fires on the source side.
    """
    l, k, d2 = np.shape(source_stack)
    models = constant_models(*np.zeros((l, d2)))
    xs = np.zeros((k, 1))
    with mock.patch.object(aggregation, "spectral_pinv", _identity_pinv):
        return iwa(models, xs, source_y, xs, FixedRatio(ratio_weights),
                   source_predictions=source_stack,
                   target_predictions=np.ones(np.shape(source_stack))).weights


class TestEmpiricalGram:
    def test_hand_computed_two_models(self):
        # A -> (1,2),(2,4); B -> (1,1),(1,2); all Gram entries are halves of
        # small integers, so the equality is exact.
        gram = aggregation._gram(AB_12)
        assert np.array_equal(gram, [[12.5, 6.5], [6.5, 3.5]])

    def test_single_model_mean_squared_norm(self):
        gram = aggregation._gram(AB_12[:1])
        assert np.array_equal(gram, [[12.5]])

    def test_accepts_precomputed_stack(self):
        stack = np.array([[[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 2.0]]])
        gram = aggregation._gram(stack)
        assert np.array_equal(gram, [[12.5, 6.5], [6.5, 3.5]])

    def test_empty_sample_rejected(self):
        for fn in (tmr, tcr):
            with pytest.raises(ValueError, match="empty"):
                fn(np.zeros((1, 0, 2)))

    def test_stack_must_cover_models(self):
        # Only iwa sees the models; a stack it is given must cover them.
        with pytest.raises(DimensionError, match="cover"):
            iwa([MODEL_A, MODEL_B], XS_12, np.ones((2, 2)), XS_12, ConstantRatio(1.0),
                target_predictions=np.zeros((1, 2, 2)))
        with pytest.raises(DimensionError, match="l, k, d2"):
            tmr(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predictions_rejected(self, bad):
        stack = np.ones((2, 3, 2))
        stack[1, 2, 0] = bad
        xs = np.zeros((3, 1))
        with pytest.raises(NumericalError, match="predictions"):
            iwa([MODEL_A, MODEL_B], xs, np.ones((3, 2)), xs, ConstantRatio(1.0),
                target_predictions=stack)

    @given(
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_symmetric_and_psd(self, l, k, d2, seed):
        stack = np.random.default_rng(seed).normal(size=(l, k, d2))
        gram = aggregation._gram(stack)
        assert np.array_equal(gram, gram.T)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-9 * max(1.0, eigenvalues.max())


class TestEmpiricalMoment:
    def test_hand_computed_weighted_rows(self):
        # beta = (1, 2) on rows; y = (1,0),(0,2):
        # g_A = (1*<(1,0),(1,2)> + 2*<(0,2),(2,4)>)/2 = (1 + 16)/2
        # g_B = (1*<(1,0),(1,1)> + 2*<(0,2),(1,2)>)/2 = (1 + 8)/2
        ys = np.array([[1.0, 0.0], [0.0, 2.0]])
        moment = iwa_moment(AB_12, ys, np.array([1.0, 2.0]))
        assert np.array_equal(moment, [8.5, 4.5])

    def test_unit_beta_reduces_to_plain_mean(self):
        ys = np.array([[1.0, 0.0], [0.0, 2.0]])
        moment = iwa_moment(AB_12, ys, np.ones(2))
        assert np.array_equal(moment, [(1.0 + 8.0) / 2.0, (1.0 + 4.0) / 2.0])

    def test_zero_labels_give_zero_moment(self):
        moment = iwa_moment(AB_12, np.zeros((2, 2)), np.ones(2))
        assert np.array_equal(moment, [0.0, 0.0])

    def test_label_shape_checked(self):
        with pytest.raises(DimensionError, match="labels"):
            iwa_moment(AB_12[:1], np.zeros((2, 3)), np.ones(2))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            iwa_moment(np.zeros((1, 0, 2)), np.zeros((0, 2)), np.ones(0))

    def test_non_finite_predictions_rejected(self):
        stack = np.ones((2, 2, 2))
        stack[0, 1, 1] = np.nan
        with pytest.raises(NumericalError, match="predictions"):
            iwa_moment(stack, np.ones((2, 2)), np.ones(2))

    def test_non_finite_labels_rejected(self):
        ys = np.array([[1.0, 0.0], [np.nan, 2.0]])
        with pytest.raises(NumericalError, match="labels"):
            iwa_moment(AB_12, ys, np.ones(2))

    def test_non_finite_ratio_weights_rejected(self):
        with pytest.raises(NumericalError, match="density-ratio weights"):
            iwa_moment(np.ones((1, 2, 2)), np.ones((2, 2)), np.array([1.0, np.inf]))
        with pytest.raises(DimensionError, match="ratio weights"):
            iwa_moment(np.ones((1, 2, 2)), np.ones((2, 2)), np.ones(3))

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
        slopes = rng.normal(size=(l, l, d2))
        intercepts = rng.normal(size=(l, d2))
        sx = rng.normal(size=(k, l))
        tx = rng.normal(size=(k, l))
        ys = rng.normal(size=(k, d2))
        scale = 10.0**log_scale

        def weights(s):
            models = [LinearModel(s * w, s * b) for w, b in zip(slopes, intercepts)]
            return iwa(models, sx, ys, tx, ConstantRatio(1.0), 1e-6).weights

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
        weights = oracle_weights(stack_predictions([f_line, f_const], XS_12), ys).weights
        assert np.allclose(weights, [3.0, 2.0], atol=1e-9)

    def test_single_perfect_model(self):
        identity = LinearModel([[1.0]], [0.0])
        xs = np.array([[0.0], [2.0]])
        weights = oracle_weights(stack_predictions([identity], xs), xs.copy()).weights
        assert np.array_equal(weights, [1.0])

    def test_zero_labels_give_zero_weights(self):
        weights = oracle_weights(AB_12, np.zeros((2, 2))).weights
        assert np.array_equal(weights, [0.0, 0.0])

    def test_matches_lstsq_on_random_instance(self):
        # Independent oracle: flatten the stacked predictions into a design
        # matrix and let lstsq solve the same least-squares problem.
        rng = np.random.default_rng(42)
        xs = rng.normal(size=(30, 1))
        ys = rng.normal(size=(30, 2))
        models = [MODEL_A, MODEL_B]
        weights = oracle_weights(stack_predictions(models, xs), ys, rcond=1e-10).weights
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
        via_sor = sor(stack_predictions([MODEL_A, MODEL_B], xs), ys, 0.1).weights
        via_iwa = iwa([MODEL_A, MODEL_B], xs, ys, xs, ConstantRatio(1.0), 0.1).weights
        assert np.array_equal(via_sor, via_iwa)

    def test_recovers_perfect_model(self):
        ys = np.asarray(MODEL_A.predict_many(XS_12), dtype=float)
        weights = sor(AB_12, ys, 1e-10).weights
        assert np.allclose(weights, [1.0, 0.0], atol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_label_regressions_reject_non_finite_inputs(bad):
    stack = np.ones((2, 3, 2))
    stack[1, 0, 1] = bad
    labels = np.eye(2)[[0, 1, 0]]
    for fn in (sor, oracle_weights):
        with pytest.raises(NumericalError, match="predictions"):
            fn(stack, labels)
    for fn in (tmr, tcr):
        with pytest.raises(NumericalError, match="predictions"):
            fn(stack)
    bad_labels = labels.copy()
    bad_labels[2, 0] = bad
    for fn in (sor, oracle_weights):
        with pytest.raises(NumericalError, match="labels"):
            fn(np.ones((2, 3, 2)), bad_labels)


@pytest.mark.parametrize("estimator, expected", [
    (lambda: sor(AB_12, np.ones((2, 2))), ["predictions", "labels"]),
    (lambda: oracle_weights(AB_12, np.ones((2, 2))), ["predictions", "labels"]),
    (lambda: oracle_weights(AB_12, np.ones((2, 2)), weights=np.full(2, 0.5)),
     ["predictions", "labels", "row weights"]),
    (lambda: iwa([MODEL_A, MODEL_B], XS_12, np.ones((2, 2)), XS_12, ConstantRatio(1.0)),
     ["predictions", "predictions", "labels", "density-ratio weights"]),
], ids=["sor", "oracle", "oracle-weighted", "iwa"])
def test_each_input_checked_once(monkeypatch, estimator, expected):
    # Each stack, label array and weight vector is scanned for non-finite
    # values exactly once on its way to the least-squares core.
    scans = record_scans(monkeypatch)
    estimator()
    assert scans == expected


def gram_and_moment(estimator):
    """(G, g) of one estimator call: G as given to the pseudo-inverse, stubbed to I so c = g."""
    grams = []

    def recorded(a, rcond):
        grams.append(np.array(a))
        return _identity_pinv(a, rcond)

    with mock.patch.object(aggregation, "spectral_pinv", recorded):
        moment = estimator().weights
    (gram,) = grams
    return gram, moment


PREFIX_RNG = np.random.default_rng(17)
PREFIX_MODELS = [LinearModel(PREFIX_RNG.normal(size=(2, 3)), PREFIX_RNG.normal(size=3))
                 for _ in range(5)]
PREFIX_XS, PREFIX_TARGET_XS = PREFIX_RNG.normal(size=(2, 40, 2))
PREFIX_YS = PREFIX_RNG.normal(size=(40, 3))
PREFIX_WEIGHTS = PREFIX_RNG.dirichlet(np.ones(40))


@pytest.mark.parametrize("estimator", [
    lambda models: iwa(models, PREFIX_XS, PREFIX_YS, PREFIX_TARGET_XS,
                       FixedRatio(40 * PREFIX_WEIGHTS)),
    lambda models: sor(stack_predictions(models, PREFIX_XS), PREFIX_YS),
    lambda models: oracle_weights(stack_predictions(models, PREFIX_TARGET_XS), PREFIX_YS,
                                  weights=PREFIX_WEIGHTS),
], ids=["iwa", "sor", "oracle-weighted"])
def test_leading_models_give_the_leading_block(estimator):
    # The Gram and moment of the first k models are the leading k x k block
    # and the first k entries of those of all l models, so a prefix of the
    # sequence (a sensitivity count) may slice the full sequence's stacks.
    full_gram, full_moment = gram_and_moment(lambda: estimator(PREFIX_MODELS))
    for k in range(1, len(PREFIX_MODELS)):
        gram, moment = gram_and_moment(lambda: estimator(PREFIX_MODELS[:k]))
        np.testing.assert_allclose(gram, full_gram[:k, :k], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(moment, full_moment[:k], rtol=1e-12, atol=1e-14)


class TestWeightedOracle:
    def test_uniform_row_weights_match_unweighted(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 25, 2))
        ys = rng.normal(size=(25, 2))
        weighted = oracle_weights(stack, ys, weights=np.full(25, 1 / 25)).weights
        assert np.allclose(weighted, oracle_weights(stack, ys).weights, rtol=1e-10, atol=1e-12)

    def test_row_weights_checked(self):
        with pytest.raises(DimensionError, match="row weights"):
            oracle_weights(AB_12, np.ones((2, 2)), weights=np.ones(3))
        with pytest.raises(NumericalError, match="row weights"):
            oracle_weights(AB_12, np.ones((2, 2)), weights=np.array([0.5, np.nan]))


@pytest.mark.parametrize("estimator", [
    lambda stack: sor(stack, np.ones((2, 2)), 1e-10),
    lambda stack: oracle_weights(stack, np.ones((2, 2)), 1e-10),
    lambda stack: tmr(stack, 1e-10),
    lambda stack: tcr(stack, 1e-10),
], ids=["sor", "oracle", "tmr", "tcr"])
def test_every_estimator_reports_its_spectrum(estimator):
    # A repeated model leaves a rank-2 Gram of three models; like iwa, each
    # estimator returns the weights with the spectrum that produced them.
    result = estimator(stack_predictions([MODEL_A, MODEL_A, MODEL_B], XS_12))
    assert isinstance(result, AggregationResult)
    assert result.weights.shape == (3,)
    assert result.rank_retained == 2
    assert result.gram_condition > 1.0


def test_nan_rcond_is_a_value_error_not_a_degenerate_gram():
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        sor(AB_12, np.ones((2, 2)), rcond=np.nan)


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
        votes = [int(np.argmax(m.predict_many(x[None])[0])) for m in models]
        expected = int(np.argmax(np.bincount(votes, minlength=3)))
        assert majority_votes(stack_predictions(models, x[None])) == [expected]

    def test_regression_outputs_rejected(self):
        with pytest.raises(DimensionError, match="output_dim"):
            majority_votes(np.zeros((2, 3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_output_casts_no_vote(self, bad):
        # argmax counts NaN above every number, so this NaN would vote class 0.
        stack = np.array([[[bad, 1.0]], [[bad, 1.0]], [[0.2, 0.8]]])
        with pytest.raises(NumericalError, match="predictions"):
            majority_votes(stack)

    @pytest.mark.parametrize("models", [1, 2, 3, 4, 7, 8])
    def test_two_classes_match_the_argmax_count_loop(self, models):
        # Rounded outputs tie within models, and an even number of models
        # ties votes on some rows; both ties go to class 0.
        rng = np.random.default_rng(models)
        stack = np.round(rng.normal(size=(models, 200, 2)), 1)
        counts = np.zeros((200, 2), dtype=int)
        for preds in stack:
            counts[np.arange(200), preds.argmax(axis=1)] += 1
        if models % 2 == 0:
            assert np.any(counts[:, 0] == counts[:, 1])
        votes = majority_votes(stack)
        assert votes.dtype.kind == "i"
        assert votes.tolist() == counts.argmax(axis=1).tolist()


def lstsq_onto_models(models, xs, labels):
    """Independent min-norm least squares of ``labels`` onto the model outputs."""
    design = np.stack(
        [np.asarray(m.predict_many(xs), dtype=float).ravel() for m in models], axis=1
    )
    return np.linalg.lstsq(design, np.asarray(labels, dtype=float).ravel(), rcond=None)[0]


def record_scans(monkeypatch):
    """The names of the arrays the input rules scan for non-finite values, in order."""
    scans = []
    original = errors._require_finite

    def counted(values, what):
        scans.append(what)
        return original(values, what)

    monkeypatch.setattr(errors, "_require_finite", counted)
    return scans


class TestPseudoLabelRegressions:
    # Votes (0, 0, 1) make the majority class 0, but the model-averaged
    # output (0.356.., 0.643..) argmaxes to class 1, so the two baselines
    # regress onto different pseudo-labels.
    MODELS = constant_models([0.55, 0.45], [0.52, 0.48], [0.0, 1.0])
    XS = np.zeros((4, 1))
    STACK = stack_predictions(MODELS, XS)

    def test_tmr_matches_lstsq_on_majority_pseudo_labels(self):
        pseudo = np.tile([1.0, 0.0], (4, 1))
        expected = lstsq_onto_models(self.MODELS, self.XS, pseudo)
        assert np.allclose(tmr(self.STACK, rcond=1e-10).weights, expected, atol=1e-8)

    def test_tcr_matches_lstsq_on_consensus_pseudo_labels(self):
        pseudo = np.tile([0.0, 1.0], (4, 1))
        expected = lstsq_onto_models(self.MODELS, self.XS, pseudo)
        assert np.allclose(tcr(self.STACK, rcond=1e-10).weights, expected, atol=1e-8)

    def test_tmr_and_tcr_disagree_here(self):
        assert not np.allclose(
            tmr(self.STACK, rcond=1e-10).weights, tcr(self.STACK, rcond=1e-10).weights
        )

    def test_single_confident_model_reproduced(self):
        # One model predicting (1, 0) every time: its own vote is the pseudo
        # label, so regression returns weight 1 exactly.
        stack = stack_predictions(constant_models([1.0, 0.0]), self.XS)
        assert np.array_equal(tmr(stack, rcond=1e-10).weights, [1.0])
        assert np.array_equal(tcr(stack, rcond=1e-10).weights, [1.0])

    def test_varying_pseudo_labels_match_lstsq(self):
        models = [MODEL_A, MODEL_B]
        xs = np.array([[0.5], [1.0], [2.0], [3.0]])
        stack = np.stack([np.asarray(m.predict_many(xs), dtype=float) for m in models])
        pseudo = np.eye(2)[majority_votes(stack)]
        expected = lstsq_onto_models(models, xs, pseudo)
        assert np.allclose(tmr(stack, rcond=1e-10).weights, expected, atol=1e-8)

    @pytest.mark.parametrize("baseline, label", [(tmr, [1.0, 0.0]), (tcr, [0.0, 1.0])])
    def test_stack_checked_once(self, monkeypatch, baseline, label):
        scans = record_scans(monkeypatch)
        weights = baseline(self.STACK, rcond=1e-10).weights
        assert scans == ["predictions"]
        pseudo = np.tile(label, (4, 1))
        assert np.array_equal(weights, oracle_weights(self.STACK, pseudo, rcond=1e-10).weights)

    def test_regression_outputs_rejected(self):
        stack = stack_predictions([LinearModel([[1.0]], [0.0])], XS_12)
        with pytest.raises(DimensionError, match="output_dim"):
            tmr(stack)
        with pytest.raises(DimensionError, match="output_dim"):
            tcr(stack)


def aggregated(models, weights, xs):
    """The aggregate's predictions: the weighted sum of the models' prediction stack."""
    return aggregate_predictions(weights, stack_predictions(models, xs))


class TestAggregatedModel:
    def test_weighted_sum_of_outputs(self):
        # 2*(1,2) - (1,1) = (1, 3) at x=1
        assert np.array_equal(aggregated([MODEL_A, MODEL_B], [2.0, -1.0], [[1.0]])[0], [1.0, 3.0])

    def test_predict_many_matches_predict(self):
        models, weights = [MODEL_A, MODEL_B], [0.5, 0.25]
        batch = aggregated(models, weights, XS_12)
        rows = [aggregated(models, weights, x[None])[0] for x in XS_12]
        assert np.allclose(batch, rows, atol=1e-12)

    def test_weight_count_checked(self):
        with pytest.raises(DimensionError):
            aggregated([MODEL_A, MODEL_B], [1.0], XS_12)

    def test_needs_at_least_one_model(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregated([], [], XS_12)

    def test_output_dim_disagreement_rejected(self):
        with pytest.raises(DimensionError, match="output_dim"):
            aggregated([MODEL_A, LinearModel([[1.0]], [0.0])], [1.0, 1.0], XS_12)

    def test_stack_must_be_three_dimensional(self):
        with pytest.raises(DimensionError):
            aggregate_predictions([1.0], np.ones((3, 2)))


@given(
    st.integers(2, 20),
    st.integers(0, 2**32 - 1),
)
def test_sor_is_iwa_without_shift(k, seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(k, 1))
    ys = rng.normal(size=(k, 2))
    via_sor = sor(stack_predictions([MODEL_A, MODEL_B], xs), ys, 0.1).weights
    via_iwa = iwa([MODEL_A, MODEL_B], xs, ys, xs, ConstantRatio(1.0), 0.1).weights
    assert np.array_equal(via_sor, via_iwa)


def test_iwa_rejects_a_stack_for_other_rows():
    # A target stack predicted on 7 of the 10 target rows stands for other
    # rows than target_x; iwa refuses it instead of returning weights.
    rng = np.random.default_rng(0)
    source_x, target_x = rng.normal(size=(10, 1)), rng.normal(size=(10, 1))
    source_y = rng.normal(size=(10, 2))
    models = [MODEL_A, MODEL_B]
    with pytest.raises(DimensionError, match="10 rows"):
        iwa(models, source_x, source_y, target_x, ConstantRatio(1.0),
            target_predictions=stack_predictions(models, target_x[:7]))
    with pytest.raises(DimensionError, match="10 rows"):
        iwa(models, source_x, source_y, target_x, ConstantRatio(1.0),
            source_predictions=stack_predictions(models, source_x[:7]))


def test_iwa_rejects_a_stack_of_other_output_width():
    # A 3-output source stack and labels cannot stand for 2-output models,
    # even when the target stack matches them.
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(6, 1))
    models = [MODEL_A, MODEL_B]
    with pytest.raises(DimensionError, match="output_dim"):
        iwa(models, xs, rng.normal(size=(6, 3)), xs, ConstantRatio(1.0),
            source_predictions=rng.normal(size=(2, 6, 3)),
            target_predictions=stack_predictions(models, xs))
