"""Density-ratio estimators: analytic Gaussian ratio and the learned domain classifier."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg import density_ratio
from shiftagg.datasets import make_transformed_moons
from shiftagg.density_ratio import (
    DEFAULT_BOUND,
    DOMAIN_PENALTY,
    PROB_CLAMP,
    ConstantRatio,
    GaussianRatio,
    LearnedRatio,
    fit_domain_classifier,
)
from shiftagg.errors import DimensionError, NumericalError

# The 1-d regression benchmark pair: source N(1, s_p^2), target N(2, s_q^2).
STD_READING = dict(source_mean=1.0, source_std=0.25, target_mean=2.0, target_std=0.25)
VARIANCE_READING = dict(source_mean=1.0, source_std=0.5, target_mean=2.0, target_std=0.25)


class TestConstantRatio:
    def test_default_is_one_everywhere(self):
        beta = ConstantRatio()
        assert beta.weights(np.array([[3.0]]))[0] == 1.0
        assert np.array_equal(beta.weights(np.zeros((4, 2))), np.ones(4))

    def test_custom_value(self):
        beta = ConstantRatio(2.5)
        assert np.array_equal(beta.weights(np.zeros((3, 1))), np.full(3, 2.5))
        assert beta.bound == 2.5

    def test_bound_never_below_one(self):
        assert ConstantRatio(0.2).bound == 1.0

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConstantRatio(-0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            ConstantRatio(value)

    def test_requires_sample_matrix(self):
        with pytest.raises(DimensionError):
            ConstantRatio().weights(np.zeros(3))


class TestGaussianRatio:
    def test_equal_stds_midpoint_is_exactly_one(self):
        # Equal widths make the log-ratio vanish at the midpoint of the means.
        beta = GaussianRatio(**STD_READING, bound=1e9)
        assert beta.weights(np.array([[1.5]]))[0] == 1.0

    def test_value_at_target_mean(self):
        # log ratio = ((x-1)^2 - (x-2)^2) / (2 * 0.25^2) = 8(2x - 3); at x = 2 it is 8.
        beta = GaussianRatio(**STD_READING, bound=1e9)
        assert beta.weights(np.array([[2.0]]))[0] == pytest.approx(np.exp(8.0), rel=1e-12)
        assert beta.weights(np.array([[1.0]]))[0] == pytest.approx(np.exp(-8.0), rel=1e-12)

    def test_default_bound_clips_target_mean_value(self):
        beta = GaussianRatio(**STD_READING)
        assert beta.bound == DEFAULT_BOUND
        assert beta.weights(np.array([[2.0]]))[0] == DEFAULT_BOUND

    def test_wide_source_maximum(self):
        # With s_p = 0.5 > s_q = 0.25 the ratio is globally bounded; the
        # stationary point of the log-ratio sits at x = 7/3 with value
        # log 2 + 8/3, so the maximum is 2 e^{8/3} ~ 28.78 < 50.
        beta = GaussianRatio(**VARIANCE_READING)
        peak = 2.0 * np.exp(8.0 / 3.0)
        assert beta.weights(np.array([[7.0 / 3.0]]))[0] == pytest.approx(peak, rel=1e-12)
        xs = np.linspace(-30.0, 30.0, 20001)[:, None]
        values = beta.weights(xs)
        assert values.max() <= peak + 1e-9

    def test_identical_distributions_give_exactly_one(self):
        beta = GaussianRatio(0.3, 0.7, 0.3, 0.7)
        xs = np.array([[-5.0], [0.0], [0.3], [12.0]])
        assert np.array_equal(beta.weights(xs), np.ones(4))

    def test_mean_weight_is_one_under_source_draws(self):
        # E_p[q/p] = 1; with the wide source the ratio never reaches the
        # bound, so clipping cannot bias the Monte Carlo average.
        beta = GaussianRatio(**VARIANCE_READING)
        rng = np.random.default_rng(7)
        draws = rng.normal(1.0, 0.5, size=200_000)
        values = beta.weights(draws[:, None])
        se = values.std() / np.sqrt(draws.size)
        assert abs(values.mean() - 1.0) <= 3.0 * se

    def test_multicolumn_input_rejected(self):
        beta = GaussianRatio(**VARIANCE_READING)
        with pytest.raises(DimensionError, match="univariate"):
            beta.weights(np.zeros((3, 2)))
        with pytest.raises(DimensionError, match="univariate"):
            beta.weights(np.zeros(3))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianRatio(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            GaussianRatio(0.0, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError, match="bound"):
            GaussianRatio(0.0, 1.0, 1.0, 1.0, bound=0.0)

    @pytest.mark.parametrize("change, message", [
        (dict(source_std=np.nan), "standard deviations"),
        (dict(target_std=np.nan), "standard deviations"),
        (dict(source_std=np.inf), "standard deviations"),
        (dict(source_mean=np.nan), "means"),
        (dict(target_mean=np.inf), "means"),
        (dict(bound=np.nan), "bound"),
    ])
    def test_non_finite_parameters_rejected(self, change, message):
        # A NaN slips past a check written as ``x <= 0`` and would make every weight NaN.
        with pytest.raises(ValueError, match=message):
            GaussianRatio(**{**STD_READING, **change})

    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.1, 2.0),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 2.0),
        st.floats(0.5, 100.0),
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20),
    )
    def test_weights_always_in_range(self, mp, sp, mq, sq, bound, xs):
        beta = GaussianRatio(mp, sp, mq, sq, bound=bound)
        values = beta.weights(np.array(xs)[:, None])
        assert values.shape == (len(xs),)
        assert np.all(values >= 0.0)
        assert np.all(values <= bound)


class TestLearnedRatio:
    def test_uninformative_classifier_gives_prior(self):
        beta = LearnedRatio(np.zeros(2), 0.0, prior_ratio=1.0)
        assert np.array_equal(beta.weights(np.ones((3, 2))), np.ones(3))
        scaled = LearnedRatio(np.zeros(2), 0.0, prior_ratio=2.0)
        assert np.array_equal(scaled.weights(np.ones((3, 2))), np.full(3, 2.0))

    def test_saturated_target_side_hits_bound(self):
        beta = LearnedRatio(np.array([0.0]), 40.0, prior_ratio=1.0)
        assert beta.weights(np.array([[0.0]]))[0] == DEFAULT_BOUND

    def test_saturated_source_side_hits_probability_clamp(self):
        beta = LearnedRatio(np.array([0.0]), -40.0, prior_ratio=1.0)
        expected = PROB_CLAMP / (1.0 - PROB_CLAMP)
        assert beta.weights(np.array([[0.0]]))[0] == pytest.approx(expected, rel=1e-9)

    def test_probabilities_are_clamped(self):
        # A bound far above the clamped odds leaves them visible in the weights.
        beta = LearnedRatio(np.array([100.0]), 0.0, prior_ratio=1.0, bound=1e12)
        low, high = beta.weights(np.array([[-50.0], [50.0]]))
        assert low == PROB_CLAMP / (1.0 - PROB_CLAMP)
        assert high == (1.0 - PROB_CLAMP) / (1.0 - (1.0 - PROB_CLAMP))

    def test_custom_bound_clips(self):
        beta = LearnedRatio(np.array([0.0]), 5.0, prior_ratio=1.0, bound=1.0)
        assert beta.weights(np.array([[0.0]]))[0] == 1.0

    def test_invalid_construction_rejected(self):
        with pytest.raises(DimensionError, match="1-d"):
            LearnedRatio(np.zeros((2, 2)), 0.0, 1.0)
        with pytest.raises(ValueError, match="prior_ratio"):
            LearnedRatio(np.zeros(2), 0.0, 0.0)
        with pytest.raises(ValueError, match="bound"):
            LearnedRatio(np.zeros(2), 0.0, 1.0, bound=-1.0)
        with pytest.raises(ValueError, match="prior_ratio"):
            LearnedRatio(np.zeros(2), 0.0, np.nan)
        with pytest.raises(ValueError, match="finite"):
            LearnedRatio(np.array([0.0, np.nan]), 0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            LearnedRatio(np.zeros(2), np.inf, 1.0)
        with pytest.raises(ValueError, match="bound"):
            LearnedRatio(np.zeros(2), 0.0, 1.0, bound=np.nan)

    def test_rows_are_standardized_before_the_classifier(self):
        beta = LearnedRatio(np.array([2.0, -1.0]), 0.5, 1.0, bound=1e12,
                            center=np.array([10.0, -3.0]), spread=np.array([4.0, 0.5]))
        xs = np.array([[14.0, -3.0], [10.0, -2.0], [6.0, -4.5]])
        plain = LearnedRatio(np.array([2.0, -1.0]), 0.5, 1.0, bound=1e12)
        assert np.array_equal(beta.weights(xs), plain.weights((xs - [10.0, -3.0]) / [4.0, 0.5]))

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (dict(center=np.zeros(3)), DimensionError, "center"),
            (dict(spread=np.ones((2, 1))), DimensionError, "spread"),
            (dict(center=np.array([0.0, np.nan])), ValueError, "center"),
            (dict(spread=np.array([1.0, 0.0])), ValueError, "spread"),
            (dict(spread=np.inf), ValueError, "spread"),
        ],
    )
    def test_invalid_standardization_rejected(self, change, error, message):
        with pytest.raises(error, match=message):
            LearnedRatio(np.zeros(2), 0.0, 1.0, **change)

    def test_input_shape_checks(self):
        beta = LearnedRatio(np.zeros(2), 0.0, 1.0)
        with pytest.raises(DimensionError, match="2-d"):
            beta.weights(np.zeros(2))
        with pytest.raises(DimensionError, match="columns"):
            beta.weights(np.zeros((3, 4)))


class TestFitDomainClassifier:
    def test_identical_domains_learn_ratio_one(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(60, 2))
        beta = fit_domain_classifier(pts, pts)
        assert beta.prior_ratio == 1.0
        assert np.allclose(beta.weights(pts), 1.0, atol=1e-8)

    def test_prior_correction_cancels_duplicated_source(self):
        # Doubling every source row doubles n/m but halves the learned odds;
        # the estimated ratio stays ~1 for identically distributed domains.
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 2))
        beta = fit_domain_classifier(np.vstack([pts, pts]), pts)
        assert beta.prior_ratio == 2.0
        assert np.allclose(beta.weights(pts), 1.0, atol=1e-2)

    def test_separated_domains_saturate(self):
        rng = np.random.default_rng(5)
        source = rng.normal(-10.0, 0.5, size=(40, 2))
        target = rng.normal(10.0, 0.5, size=(40, 2))
        beta = fit_domain_classifier(source, target)
        assert np.all(beta.weights(target) == DEFAULT_BOUND)
        assert np.all(beta.weights(source) < 1e-2)

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(9)
        source = rng.normal(size=(30, 2))
        target = rng.normal(0.5, 1.0, size=(25, 2))
        beta_a = fit_domain_classifier(source, target)
        perm = rng.permutation(30)
        beta_b = fit_domain_classifier(source[perm], target)
        probe = rng.normal(size=(10, 2))
        assert np.allclose(beta_a.weights(probe), beta_b.weights(probe), atol=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        source = rng.normal(size=(20, 2))
        target = rng.normal(1.0, 1.0, size=(20, 2))
        beta_a = fit_domain_classifier(source, target)
        beta_b = fit_domain_classifier(source, target)
        assert np.array_equal(beta_a.coef, beta_b.coef)
        assert beta_a.intercept == beta_b.intercept

    def test_invalid_inputs_rejected(self):
        good = np.zeros((3, 2))
        with pytest.raises(DimensionError, match="2-d"):
            fit_domain_classifier(np.zeros(3), good)
        with pytest.raises(DimensionError, match="columns"):
            fit_domain_classifier(good, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="at least one"):
            fit_domain_classifier(np.zeros((0, 2)), good)

    def test_penalized_gradient_vanishes_at_the_fit(self):
        # The gradient of the objective the docstring names, in the
        # standardized coordinates the fit runs in, against the size of its
        # terms at the start.
        moons = make_transformed_moons(300, 200, seed=4)
        beta = fit_domain_classifier(moons.source_x, moons.target_x)
        x = np.vstack([moons.source_x, moons.target_x])
        y = np.concatenate([np.zeros(300), np.ones(200)])
        center, spread = x.mean(axis=0), x.std(axis=0)
        assert np.array_equal(beta.center, center) and np.array_equal(beta.spread, spread)
        z = np.hstack([(x - center) / spread, np.ones((500, 1))])
        theta = np.append(beta.coef, beta.intercept)
        probs = 1.0 / (1.0 + np.exp(-(z @ theta)))
        grad = z.T @ (probs - y) / 500 + DOMAIN_PENALTY * theta
        scale = np.abs(z).T @ np.full(500, 0.5) / 500
        assert np.all(np.abs(grad) <= 1e-10 * scale)

    @pytest.mark.parametrize("transform", [lambda x: x * 1e-3, lambda x: x * 1e3,
                                           lambda x: x + 100.0],
                             ids=["times-1e-3", "times-1e3", "plus-100"])
    def test_ratio_ignores_input_scale_and_offset(self, transform):
        moons = make_transformed_moons(300, 300, seed=3)
        plain = fit_domain_classifier(moons.source_x, moons.target_x).weights(moons.source_x)
        moved = fit_domain_classifier(transform(moons.source_x), transform(moons.target_x))
        assert np.allclose(moved.weights(transform(moons.source_x)), plain, rtol=1e-12, atol=0)

    def test_converges_on_one_row_per_domain(self):
        beta = fit_domain_classifier(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert beta.weights(np.array([[1.0, 1.0]]))[0] == DEFAULT_BOUND
        assert beta.weights(np.array([[0.0, 0.0]]))[0] < 1e-2

    def test_constant_column_is_ignored(self):
        rng = np.random.default_rng(17)
        source = np.column_stack([rng.normal(size=50), np.full(50, 0.1)])
        target = np.column_stack([rng.normal(0.5, 1.0, size=40), np.full(40, 0.1)])
        beta = fit_domain_classifier(source, target)
        alone = fit_domain_classifier(source[:, :1], target[:, :1])
        assert beta.coef[1] == 0.0
        assert np.allclose(beta.weights(source), alone.weights(source[:, :1]), rtol=1e-12)

    def test_column_constant_but_for_an_ulp_keeps_the_fitted_probabilities(self):
        # A slope of 1/spread on a 123.456 column used to become a raw-scale
        # 3e12 slope and a -4e14 intercept whose sum cancelled on every row.
        rng = np.random.default_rng(23)
        source = np.column_stack([rng.normal(size=50), np.full(50, 123.456)])
        target = np.column_stack([rng.normal(0.5, 1.0, size=40), np.full(40, 123.456)])
        target[0, 1] = np.nextafter(123.456, 200)
        beta = fit_domain_classifier(source, target)
        expected = _standardized_newton_probabilities(source, target)[:50]
        odds = 1.25 * expected / (1.0 - expected)
        assert np.allclose(beta.weights(source), odds, rtol=1e-12, atol=0)

    def test_no_convergence_within_the_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(density_ratio, "DOMAIN_STEPS", 1)
        moons = make_transformed_moons(100, 100, seed=0)
        with pytest.raises(NumericalError, match="did not converge"):
            fit_domain_classifier(moons.source_x, moons.target_x)

    def test_far_rows_raise_no_warning(self):
        rng = np.random.default_rng(19)
        source = rng.normal(-1e3, 1.0, size=(30, 2))
        target = rng.normal(1e3, 1.0, size=(30, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            beta = fit_domain_classifier(source, target)
            assert np.all(beta.weights(target) == DEFAULT_BOUND)
            assert np.all(beta.weights(source) < 1e-2)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(source_x=np.array([[0.0, 1.0], [np.nan, 0.0]])), "finite"),
            (dict(target_x=np.array([[np.inf, 1.0], [0.0, 0.0]])), "finite"),
        ],
    )
    def test_bad_training_inputs_raise(self, change, message):
        args = dict(source_x=np.zeros((2, 2)), target_x=np.ones((2, 2)))
        with pytest.raises(ValueError, match=message):
            fit_domain_classifier(**{**args, **change})


def _standardized_newton_probabilities(source, target):
    """Target-domain probabilities of the pooled rows, from a plain Newton fit in standardized space.

    The rows are standardized by their pooled mean and standard deviation
    (every test column varies), and the probabilities come from the fitted
    logits of those standardized rows, with no map back to raw scale.
    """
    x = np.vstack([source, target])
    y = np.concatenate([np.zeros(len(source)), np.ones(len(target))])
    z = np.hstack([(x - x.mean(axis=0)) / x.std(axis=0), np.ones((len(x), 1))])
    theta = np.zeros(z.shape[1])
    for _ in range(100):
        probs = 0.5 + 0.5 * np.tanh(0.5 * (z @ theta))
        grad = z.T @ (probs - y) / len(x) + DOMAIN_PENALTY * theta
        hess = (z.T * (probs * (1.0 - probs))) @ z / len(x) + DOMAIN_PENALTY * np.eye(z.shape[1])
        step = np.linalg.solve(hess, grad)
        theta -= step
        if grad @ step <= 1e-20:
            break
    return 1.0 / (1.0 + np.exp(-(z @ theta)))


class TestNormalizedWeights:
    """Raw ratio weights on a sample and their mean (the E_p[beta] = 1 check)."""

    def test_reports_values_and_mean(self):
        values = ConstantRatio(2.0).weights(np.zeros((4, 1)))
        assert np.array_equal(values, np.full(4, 2.0))
        assert values.mean() == 2.0

    def test_requires_matrix(self):
        with pytest.raises(DimensionError):
            ConstantRatio().weights(np.zeros(3))
        with pytest.raises(DimensionError):
            LearnedRatio([1.0], 0.0, 1.0).weights(np.zeros(3))
