"""Acceptance gate: headline behaviors at their stated tolerances.

Each test prints one ``[criterion N] PASS`` line with the measured numbers
(visible under ``pytest -s``); the pytest verdict itself is the pass/fail
record. Budgeted tests assert their wall-clock limits.
"""

import dataclasses
import math
import time

import numpy as np

from shiftagg.aggregation import empirical_gram, iwa, oracle_weights, sor
from shiftagg.datasets import SINC_SOURCE_MEAN, sinc_ratio, sinc_sigmas
from shiftagg.density_ratio import ConstantRatio
from shiftagg.harness import (
    ExperimentConfig,
    _SeedContext,
    build_instance,
    build_models,
    rate_medians,
    rate_slope,
    run_correlation,
    run_experiment,
    run_rate_check,
    run_sensitivity,
)
from shiftagg.linalg import spectral_pinv
from shiftagg.models import (
    fit_softmax_classifier,
    softmax_cross_entropy_grad,
    stack_predictions,
)


def _report(number, detail):
    print(f"[criterion {number}] PASS - {detail}")


def _rows_by_method_seed(table):
    return {(r.method, r.seed): r for r in table.rows}


def test_criterion_1_aggregation_near_optimal_on_sinc():
    cfg = ExperimentConfig(
        dataset="sinc",
        n=2000,
        m=2000,
        eval_size=100_000,
        l=5,
        seeds=tuple(range(20)),
        methods=("iwa",),
    )
    start = time.perf_counter()
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    assert not table.has_failures
    rows = _rows_by_method_seed(table)
    excesses = [rows[("iwa", s)].excess for s in cfg.seeds]
    median_excess = float(np.median(excesses))
    wins = sum(
        rows[("iwa", s)].excess < rows[("target_best", s)].excess for s in cfg.seeds
    )
    assert median_excess <= 0.02, f"median excess {median_excess:.4f} > 0.02"
    assert wins >= 16, f"beats best single model in only {wins}/20 seeds"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds the 30s budget"
    _report(
        1,
        f"median excess {median_excess:.4f} <= 0.02, "
        f"beats best single model in {wins}/20 seeds, {elapsed:.1f}s",
    )


def test_criterion_2_weights_converge_with_sample_size():
    # Bounded-ratio configuration: with the variance widths the exact ratio
    # tops out below the default bound, so no clipping bias masks the rate.
    cfg = ExperimentConfig(
        dataset="sinc", n=2000, seeds=tuple(range(20)), sinc_interpret_std=False
    )
    start = time.perf_counter()
    table = run_rate_check(
        dataclasses.replace(cfg, sizes=(250, 1000, 4000), oracle_draws=100_000)
    )
    elapsed = time.perf_counter() - start
    assert not table.has_failures
    medians = rate_medians(table)
    assert medians[250] > medians[1000] > medians[4000], f"not decreasing: {medians}"
    slope = rate_slope(table)
    assert slope <= -0.35, f"log-log slope {slope:.3f} > -0.35"
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 2min budget"
    _report(
        2,
        "median deviations "
        + " > ".join(f"{medians[s]:.4f}" for s in (250, 1000, 4000))
        + f", slope {slope:.2f} <= -0.35, {elapsed:.1f}s",
    )


def test_criterion_3_oracle_aggregation_beats_every_single_model():
    configs = [
        ExperimentConfig(dataset="sinc", n=200, m=200, eval_size=1500, l=5),
        ExperimentConfig(
            dataset="moons", beta="learned", n=200, m=200, eval_size=1500, l=5
        ),
    ]
    violations = 0
    checked = 0
    worst_margin = -math.inf
    for cfg in configs:
        for seed in range(25):
            instance = build_instance(cfg, seed)
            models = build_models(cfg, instance)
            eval_x, eval_y = instance.target_eval_x, instance.target_eval_y
            stack = stack_predictions(models, eval_x)
            weights = oracle_weights(stack, eval_y, rcond=cfg.oracle_rcond)
            oracle_pred = np.tensordot(weights, stack, axes=1)
            oracle_risk = float(np.mean(((oracle_pred - eval_y) ** 2).sum(axis=1)))
            per_model_losses = ((stack - eval_y) ** 2).sum(axis=2)
            best = int(np.argmin(per_model_losses.mean(axis=1)))
            best_losses = per_model_losses[best]
            best_risk = float(best_losses.mean())
            se = float(np.std(best_losses, ddof=1) / math.sqrt(best_losses.size))
            margin = oracle_risk - (best_risk + 2.0 * se)
            worst_margin = max(worst_margin, margin)
            violations += margin > 0
            checked += 1
    assert checked == 50
    assert violations == 0, f"{violations}/50 instances violate the ordering"
    _report(
        3,
        f"oracle risk <= best single + 2 SE on 50/50 instances "
        f"(worst margin {worst_margin:.2e})",
    )


def test_criterion_4_unit_ratio_reduces_to_source_only_regression():
    configs = [
        ExperimentConfig(dataset="sinc", n=150, m=150, eval_size=300, l=5),
        ExperimentConfig(
            dataset="moons", beta="learned", n=150, m=150, eval_size=300, l=5
        ),
    ]
    checked = 0
    for cfg in configs:
        for seed in range(10):
            instance = build_instance(cfg, seed)
            models = build_models(cfg, instance)
            sx, sy = instance.source_x, instance.source_y
            reduced = iwa(models, sx, sy, sx, ConstantRatio(1.0), cfg.rcond).weights
            source_only = sor(stack_predictions(models, sx), sy, cfg.rcond)
            assert np.array_equal(reduced, source_only), f"seed {seed}: not bitwise equal"
            checked += 1
    assert checked == 20
    _report(4, "unit-ratio weights bitwise equal source-only weights on 20/20 instances")


def test_criterion_5_truncated_pseudo_inverse_behavior():
    info = spectral_pinv(np.diag([4.0, 0.2]), rcond=0.1)
    assert np.array_equal(info.inverse, np.diag([0.25, 0.0]))

    cfg = ExperimentConfig(dataset="sinc", n=300, m=300, eval_size=300, l=3)
    instance = build_instance(cfg, 0)
    models = build_models(cfg, instance)
    duplicated = [models[0], models[0], models[1]]
    result = iwa(
        duplicated,
        instance.source_x,
        instance.source_y,
        instance.target_x,
        sinc_ratio(),
        cfg.rcond,
    )
    assert result.rank_retained < len(duplicated)
    gap = abs(result.weights[0] - result.weights[1])
    assert gap <= 1e-8, f"duplicate weights differ by {gap:.2e}"
    _report(
        5,
        f"diag(4, 0.2) inverts to diag(0.25, 0) exactly; duplicate models keep "
        f"rank {result.rank_retained} < 3 with weight gap {gap:.1e} <= 1e-8",
    )


def test_criterion_6_aggregation_least_sensitive_to_corrupted_models():
    cfg = ExperimentConfig(
        dataset="moons",
        beta="learned",
        n=600,
        m=600,
        eval_size=2000,
        l=14,
        seeds=tuple(range(10)),
        methods=("iwa", "tmv", "tmr", "tcr"),
    )
    start = time.perf_counter()
    table = run_sensitivity(dataclasses.replace(cfg, counts=(10, 50, 100)))
    elapsed = time.perf_counter() - start
    assert not table.has_failures
    accuracy = {(r.method, r.seed, r.count): r.accuracy for r in table.rows}
    drops = {}
    for method in cfg.methods:
        per_seed = [
            accuracy[(method, s, 0)] - accuracy[(method, s, 100)] for s in cfg.seeds
        ]
        drops[method] = float(np.median(per_seed))
    for method in ("tmv", "tmr", "tcr"):
        assert drops["iwa"] <= drops[method], (
            f"iwa drop {drops['iwa']:.4f} exceeds {method} drop {drops[method]:.4f}"
        )
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds the 5min budget"
    _report(
        6,
        "median accuracy drops (0 -> 100 corrupted models): "
        + ", ".join(f"{m} {drops[m]:+.4f}" for m in cfg.methods)
        + f"; iwa smallest, {elapsed:.1f}s",
    )


def test_criterion_7_weights_track_model_accuracy():
    # Mild shift with a study-tuned truncation level: the decay-ladder models
    # are nearly collinear, so separating model quality needs a smaller rcond
    # than the aggregation default.
    cfg = ExperimentConfig(
        dataset="moons",
        beta="learned",
        n=600,
        m=600,
        eval_size=2000,
        l=14,
        rcond=1e-3,
        moons_rotation_deg=10.0,
        seeds=tuple(range(20)),
        methods=("iwa", "sor"),
    )
    table = run_correlation(cfg)
    assert not table.has_failures
    medians = {
        method: float(np.median([r.pearson_r for r in table.rows if r.method == method]))
        for method in cfg.methods
    }
    assert medians["iwa"] > 0.0, f"iwa median r {medians['iwa']:.3f} not positive"
    assert medians["iwa"] >= medians["sor"], (
        f"iwa median r {medians['iwa']:.3f} < sor median r {medians['sor']:.3f}"
    )
    _report(
        7,
        f"median weight-accuracy correlation over 20 runs: "
        f"iwa {medians['iwa']:+.3f} > 0 and >= sor {medians['sor']:+.3f}",
    )


def test_criterion_8_aggregation_outperforms_selection_with_learned_ratio():
    cfg = ExperimentConfig(
        dataset="moons",
        beta="learned",
        n=600,
        m=600,
        eval_size=2000,
        l=14,
        seeds=tuple(range(10)),
        methods=("iwa", "iwv", "dev"),
    )
    table = run_experiment(cfg)
    assert not table.has_failures
    rows = _rows_by_method_seed(table)
    iwa_mean = float(np.mean([rows[("iwa", s)].accuracy for s in cfg.seeds]))
    selector_mean = float(
        np.mean(
            [
                max(rows[("iwv", s)].accuracy, rows[("dev", s)].accuracy)
                for s in cfg.seeds
            ]
        )
    )
    assert iwa_mean >= selector_mean, (
        f"mean iwa accuracy {iwa_mean:.4f} < best-selector mean {selector_mean:.4f}"
    )
    _report(
        8,
        f"mean target accuracy: iwa {iwa_mean:.4f} >= "
        f"max(iwv, dev) {selector_mean:.4f} over 10 seeds",
    )


def test_criterion_9_module_invariants():
    # Gram symmetry and positive semidefiniteness on random prediction stacks.
    rng = np.random.default_rng(20240817)
    for _ in range(10):
        l, k, d2 = rng.integers(1, 6), rng.integers(1, 30), rng.integers(1, 4)
        stack = rng.normal(size=(int(l), int(k), int(d2)))
        gram = empirical_gram(stack)
        assert np.array_equal(gram, gram.T)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-9 * max(1.0, eigenvalues.max())

    # Classifier outputs live on the probability simplex.
    x = rng.normal(size=(40, 2))
    labels = rng.integers(0, 3, size=40)
    classifier = fit_softmax_classifier(x, labels, 3, epochs=60)
    probs = classifier.predict_many(rng.normal(size=(25, 2)))
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    # Analytic gradient matches central finite differences to 1e-5 relative.
    fd_x = np.array([[0.4, -1.2], [1.0, 0.3], [-0.7, 0.9]])
    fd_labels = np.array([0, 1, 0])
    w = np.array([[0.2, -0.1], [0.5, 0.3]])
    b = np.array([0.05, -0.2])
    _, gw, gb = softmax_cross_entropy_grad(w, b, fd_x, fd_labels)
    eps = 1e-6

    def loss_at(w_mod, b_mod):
        return softmax_cross_entropy_grad(w_mod, b_mod, fd_x, fd_labels)[0]

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

    # The exact density ratio integrates to one over the source distribution.
    source_std, _ = sinc_sigmas(False)
    ratio = sinc_ratio(False, bound=1e9)
    draws = rng.normal(SINC_SOURCE_MEAN, source_std, size=(200_000, 1))
    values = ratio.weights(draws)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - 1.0) <= 3.0 * se

    # Repeated runs are deterministic row for row.
    cfg = ExperimentConfig(dataset="sinc", n=60, m=60, eval_size=50, l=3, seeds=(0, 1))
    first, second = run_experiment(cfg), run_experiment(cfg)
    assert [dataclasses.asdict(r) for r in first.sorted_rows()] == [
        dataclasses.asdict(r) for r in second.sorted_rows()
    ]

    # Weight vectors never read evaluation labels (poisoning them changes nothing).
    mcfg = ExperimentConfig(
        dataset="moons", beta="learned", n=60, m=60, eval_size=40, l=3
    )
    instance = build_instance(mcfg, 0)
    models = build_models(mcfg, instance)
    methods = ("iwa", "sor", "tmr", "tcr", "iwv", "dev")
    beta = ConstantRatio(1.0)
    clean = _SeedContext(mcfg, instance, models, beta)
    poisoned_instance = dataclasses.replace(
        instance, target_eval_y=np.full_like(instance.target_eval_y, np.nan)
    )
    # Scoring turns the NaN risks into error rows, so the weight vectors are
    # compared before scoring.
    poisoned = _SeedContext(mcfg, poisoned_instance, models, beta)
    for method in methods:
        before, _ = clean.method_weights(method)
        after, _ = poisoned.method_weights(method)
        assert np.array_equal(before, after)

    _report(
        9,
        "gram symmetry/PSD, simplex outputs, finite-difference gradients, "
        "unit-mean ratio, determinism, and label-discipline checks all hold",
    )
