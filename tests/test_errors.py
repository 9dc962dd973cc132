"""The shared input rules: every public entry point that takes a sample checks it the same way.

A sample is a (rows, columns) matrix. Anything else raises DimensionError
naming the argument; a sample that a model or ratio is fitted on must also
have a row and only finite entries, else ValueError naming the argument.
Class labels pass one rule too, ``errors.class_labels``, and so does a
prediction stack, ``errors.checked_stack``.
"""

import dataclasses

import numpy as np
import pytest

from shiftagg import aggregation, datasets, density_ratio, models, selection
from shiftagg.errors import DimensionError, class_labels

GOOD = np.zeros((3, 1))
LABELS = np.array([0, 1, 1])
LINEAR = models.LinearModel([[1.0]], [0.0])


def _validate(name):
    instance = datasets.make_sinc_shift(5, 5, seed=0)
    return lambda sample: dataclasses.replace(instance, **{name: sample}).validate()


# What a sample is fitted on: entry, called with the sample in one argument.
FITTING = {
    "fit_ridge-x": (lambda s: models.fit_ridge(s, GOOD, ridge=1.0), "x"),
    "fit_ridge-y": (lambda s: models.fit_ridge(GOOD, s, ridge=1.0), "y"),
    "fit_softmax_classifier-x": (
        lambda s: models.fit_softmax_classifier(s, LABELS, 2, weight_decay=[0.0]), "x"),
    "fit_domain_classifier-source_x": (
        lambda s: density_ratio.fit_domain_classifier(s, GOOD), "source_x"),
    "fit_domain_classifier-target_x": (
        lambda s: density_ratio.fit_domain_classifier(GOOD, s), "target_x"),
    **{f"validate-{name}": (_validate(name), name)
       for name in ("source_x", "source_y", "target_x", "target_eval_x", "target_eval_y")},
}

# Everything else that reads a sample.
READING = {
    "polynomial_features": (lambda s: models.polynomial_features(s, 2), "xs"),
    "LinearModel.predict_many": (lambda s: LINEAR.predict_many(s), "xs"),
    "SoftmaxModel.predict_many": (
        lambda s: models.SoftmaxModel([[1.0, 0.0]], [0.0, 0.0]).predict_many(s), "xs"),
    "stack_predictions": (lambda s: models.stack_predictions([LINEAR], s), "xs"),
    "PrecomputedModel.predict_many": (
        lambda s: models.PrecomputedModel({}, 1).predict_many(s), "xs"),
    "ConstantRatio.weights": (lambda s: density_ratio.ConstantRatio().weights(s), "xs"),
    "GaussianRatio.weights": (
        lambda s: density_ratio.GaussianRatio(1.0, 0.5, 2.0, 0.25).weights(s), "xs"),
    "LearnedRatio.weights": (
        lambda s: density_ratio.LearnedRatio(np.zeros(1), 0.0, 1.0).weights(s), "xs"),
    "moons_transform": (lambda s: datasets.moons_transform(s), "points"),
    "iwa-source_x": (lambda s: aggregation.iwa(
        [LINEAR], s, GOOD, GOOD, density_ratio.ConstantRatio()), "source_x"),
    "iwa-target_x": (lambda s: aggregation.iwa(
        [LINEAR], GOOD, GOOD, s, density_ratio.ConstantRatio()), "target_x"),
}


@pytest.mark.parametrize("entry, name", [*FITTING.values(), *READING.values()],
                         ids=[*FITTING, *READING])
def test_one_d_sample_raises_dimension_error_naming_it(entry, name):
    with pytest.raises(DimensionError, match=rf"^{name}\b.*2-d sample matrix"):
        entry(np.zeros(3))


@pytest.mark.parametrize("sample, fault", [
    (np.zeros((0, 1)), "is empty: need at least one row"),
    (np.array([[0.0], [np.nan], [1.0]]), "contains non-finite entries"),
    (np.array([[0.0], [1.0], [-np.inf]]), "contains non-finite entries"),
], ids=["empty", "nan", "inf"])
@pytest.mark.parametrize("entry, name", FITTING.values(), ids=FITTING)
def test_fitting_sample_must_have_finite_rows(entry, name, sample, fault):
    with pytest.raises(ValueError, match=rf"^{name} {fault}") as raised:
        entry(sample)
    assert raised.type is ValueError


def test_linear_model_checks_its_column_count():
    # numpy's matmul used to reject this with a plain ValueError that named no argument.
    with pytest.raises(DimensionError, match="^xs has 2 columns, expected 3"):
        models.LinearModel(np.zeros((3, 2)), np.ones(2)).predict_many(np.zeros((1, 2)))


@pytest.mark.parametrize("labels, classes", [
    ([1, 0, 2], 3), (np.array([1.0, 0.0]), 2), (np.array([True, False]), 2), ([], 3), (2, 3),
])
def test_class_labels_come_back_as_ints(labels, classes):
    out = class_labels(labels, classes)
    assert out.dtype.kind == "i"
    assert np.array_equal(out, np.asarray(labels))


# Every entry point that takes a prediction stack, called on one of the given
# shape; the labels and row weights match its rows.
STACK_READERS = {
    "sor": lambda stack: aggregation.sor(stack, np.zeros(stack.shape[1:])),
    "tmr": aggregation.tmr,
    "tcr": aggregation.tcr,
    "oracle_weights": lambda stack: aggregation.oracle_weights(stack, np.zeros(stack.shape[1:])),
    "majority_votes": aggregation.majority_votes,
    "iwv_select": lambda stack: selection.iwv_select(stack, np.zeros(stack.shape[1:]),
                                                     np.ones(stack.shape[1])),
    "dev_select": lambda stack: selection.dev_select(stack, np.zeros(stack.shape[1:]),
                                                     np.ones(stack.shape[1])),
}


@pytest.mark.parametrize("entry", STACK_READERS.values(), ids=STACK_READERS)
def test_stack_with_no_models_rejected(entry):
    # Without the rule the Gram solvers blamed near-duplicate models, the
    # vote returned class 0 with no voters and selection took an empty argmin.
    with pytest.raises(ValueError, match="need at least one model") as raised:
        entry(np.zeros((0, 4, 2)))
    assert raised.type is ValueError


@pytest.mark.parametrize("entry", STACK_READERS.values(), ids=STACK_READERS)
def test_stack_with_no_output_columns_rejected(entry):
    # Without the rule the Gram solvers blamed near-duplicate models and
    # selection picked model 0 on all-zero scores.
    with pytest.raises(ValueError, match="no output columns") as raised:
        entry(np.zeros((2, 4, 0)))
    assert raised.type is ValueError
