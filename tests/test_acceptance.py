"""Acceptance gate: headline behaviors at their stated tolerances.

Each test prints one ``[criterion N] PASS`` line with the measured numbers
(visible under ``pytest -s``); the pytest verdict itself is the pass/fail
record. Budgeted tests assert their wall-clock limits.
"""

import dataclasses
import math
import time

import numpy as np

from shiftagg.aggregation import (
    _gram,
    aggregate_predictions,
    iwa,
    oracle_weights,
    sor,
)
from shiftagg.datasets import (
    SINC_SOURCE_MEAN,
    SINC_TARGET_MEAN,
    make_sinc_shift,
    sinc_ratio,
    sinc_sigmas,
)
from shiftagg.density_ratio import ConstantRatio, GaussianRatio
from shiftagg.harness import (
    _RATE_STREAM,
    METHODS,
    ExperimentConfig,
    _SeedContext,
    _sinc_sequence,
    _subseeds,
    build_instance,
    build_models,
    run_correlation,
    run_experiment,
    run_rate_check,
    run_sensitivity,
)
from shiftagg.linalg import spectral_pinv
from shiftagg.metrics import risk
from shiftagg.models import (
    SoftmaxModel,
    _ladder_gradient,
    fit_softmax_classifier,
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
    medians = table.summary["medians"]
    assert medians[250] > medians[1000] > medians[4000], f"not decreasing: {medians}"
    slope = table.summary["slope"]
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
        ExperimentConfig(dataset="sinc", n=200, m=200, l=5),
        ExperimentConfig(dataset="moons", n=200, m=200, l=5),
    ]
    violations = 0
    checked = 0
    worst_margin = -math.inf
    for cfg in configs:
        for seed in range(25):
            instance = build_instance(cfg, seed)
            models = build_models(cfg, instance)
            eval_x, eval_y = instance.target_eval_x, instance.target_eval_y
            # Moons scores on a labeled sample, with its sampling error; sinc
            # on the target law's quadrature rule, whose risks are exact (the
            # noise variance both risks share is left out).
            rule = instance.target_eval_weights
            row_weights = np.full(len(eval_x), 1.0 / len(eval_x)) if rule is None else rule
            stack = stack_predictions(models, eval_x)
            weights = oracle_weights(stack, eval_y, weights=rule).weights
            oracle_pred = np.tensordot(weights, stack, axes=1)
            oracle_risk = float(row_weights @ ((oracle_pred - eval_y) ** 2).sum(axis=1))
            per_model_losses = ((stack - eval_y) ** 2).sum(axis=2)
            best = int(np.argmin(per_model_losses @ row_weights))
            best_losses = per_model_losses[best]
            best_risk = float(best_losses @ row_weights)
            se = 0.0
            if rule is None:
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
        ExperimentConfig(dataset="sinc", n=150, m=150, l=5),
        ExperimentConfig(dataset="moons", n=150, m=150, l=5),
    ]
    checked = 0
    for cfg in configs:
        for seed in range(10):
            instance = build_instance(cfg, seed)
            models = build_models(cfg, instance)
            sx, sy = instance.source_x, instance.source_y
            reduced = iwa(models, sx, sy, sx, ConstantRatio(1.0), cfg.rcond).weights
            source_only = sor(stack_predictions(models, sx), sy, cfg.rcond).weights
            assert np.array_equal(reduced, source_only), f"seed {seed}: not bitwise equal"
            checked += 1
    assert checked == 20
    _report(4, "unit-ratio weights bitwise equal source-only weights on 20/20 instances")


def test_criterion_5_truncated_pseudo_inverse_behavior():
    info = spectral_pinv(np.diag([4.0, 0.2]), rcond=0.1)
    assert np.array_equal(info.inverse, np.diag([0.25, 0.0]))

    cfg = ExperimentConfig(dataset="sinc", n=300, m=300, l=3)
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
        n=600,
        m=600,
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
        n=600,
        m=600,
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
        n=600,
        m=600,
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
        gram = _gram(stack)
        assert np.array_equal(gram, gram.T)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-9 * max(1.0, eigenvalues.max())

    # Classifier outputs live on the probability simplex.
    x = rng.normal(size=(40, 2))
    labels = rng.integers(0, 3, size=40)
    classifier = fit_softmax_classifier(x, labels, 3, epochs=60, weight_decay=[0.0])[0]
    probs = classifier.predict_many(rng.normal(size=(25, 2)))
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    # The gradient a two-class fit runs, on a one-model ladder at a non-zero
    # one-logit θ = (w, b), is the class-1 column of the softmax gradient of
    # SoftmaxModel([-w, w], [-b, b]), and its negative the class-0 column: it
    # matches central finite differences of the mean cross-entropy of that
    # model's predictions to 1e-5 relative.
    fd_x = np.array([[0.4, -1.2], [1.0, 0.3], [-0.7, 0.9]])
    fd_labels = np.array([0, 1, 0])
    w = np.array([[0.2], [-0.4]])
    b = np.array([0.05])
    x1 = np.hstack([fd_x, np.ones((3, 1))])
    constant = x1.T @ (0.5 - (fd_labels == 1)[:, None])
    theta = np.vstack([w, b])[None]
    grad = _ladder_gradient(theta, x1, constant, np.empty((1, 3, 1)), np.empty_like(theta))[0] / 3
    gw, gb = np.hstack([-grad[:2], grad[:2]]), np.concatenate([-grad[2], grad[2]])
    w, b = np.hstack([-w, w]), np.concatenate([-b, b])
    eps = 1e-6

    def loss_at(w_mod, b_mod):
        probs = SoftmaxModel(w_mod, b_mod).predict_many(fd_x)
        return -np.log(probs[np.arange(fd_labels.size), fd_labels]).mean()

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
    source_std, target_std = sinc_sigmas(False)
    ratio = GaussianRatio(SINC_SOURCE_MEAN, source_std, SINC_TARGET_MEAN, target_std, bound=1e9)
    draws = rng.normal(SINC_SOURCE_MEAN, source_std, size=(200_000, 1))
    values = ratio.weights(draws)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - 1.0) <= 3.0 * se

    # Repeated runs are deterministic row for row.
    cfg = ExperimentConfig(dataset="sinc", n=60, m=60, l=3, seeds=(0, 1))
    first, second = run_experiment(cfg), run_experiment(cfg)
    assert [dataclasses.asdict(r) for r in first.sorted_rows()] == [
        dataclasses.asdict(r) for r in second.sorted_rows()
    ]

    # Weight vectors never read evaluation labels (poisoning them changes
    # nothing): the moons eval sample's labels, and the sinc quadrature
    # nodes' noise-free labels.
    probes = (
        (ExperimentConfig(dataset="moons", n=60, m=60, l=3),
         ConstantRatio(1.0), ("iwa", "sor", "tmr", "tcr", "iwv", "dev")),
        (ExperimentConfig(dataset="sinc", n=60, m=60, l=3), sinc_ratio(),
         ("iwa", "sor", "iwv", "dev")),
    )

    def context(pcfg, inst, models, beta):
        stacks = tuple(
            stack_predictions(models, xs)
            for xs in (inst.source_x, inst.target_x, inst.target_eval_x)
        )
        return _SeedContext(pcfg, inst, models, beta, stacks)

    for pcfg, beta, methods in probes:
        instance = build_instance(pcfg, 0)
        models = build_models(pcfg, instance)
        clean = context(pcfg, instance, models, beta)
        poisoned_instance = dataclasses.replace(
            instance, target_eval_y=np.full_like(instance.target_eval_y, np.nan)
        )
        # Scoring turns the NaN risks into error rows, so the weight vectors
        # are compared before scoring.
        poisoned = context(pcfg, poisoned_instance, models, beta)
        for method in methods:
            before, _ = METHODS[method](clean)
            after, _ = METHODS[method](poisoned)
            assert np.array_equal(before, after), (pcfg.dataset, method)

    _report(
        9,
        "gram symmetry/PSD, simplex outputs, finite-difference gradients, "
        "unit-mean ratio, determinism, and label-discipline checks all hold",
    )


def test_criterion_10_target_risk_within_twice_the_optimal_aggregation():
    # The paper's headline bound: asymptotically the aggregate's target risk
    # is at most twice that of the best aggregation of the same models. It
    # assumes a bounded ratio, so this is the variance reading, whose exact
    # ratio stays below the clip. Under the std reading beta is clipped, the
    # weighted moment is biased, and the ratio stalls near 1.7 instead of
    # tending to 1. Risks are noise-free (the shared sigma^2 left out) and
    # exact on the target law's quadrature rule; both solves use rcond 0.1.
    cfg = ExperimentConfig(dataset="sinc", n=2000, sinc_interpret_std=False)
    sizes = (1000, 4000, 16000)
    rule = make_sinc_shift(1, 1, seed=0, interpret_std=False)
    beta = sinc_ratio(False)
    ratios = {size: [] for size in sizes}
    for seed in range(20):
        # The rate check's streams: models on an independent draw, then n = m draws.
        subseeds = _subseeds(_RATE_STREAM, seed, 2 + len(sizes))
        train = make_sinc_shift(cfg.n, 1, subseeds[0], interpret_std=False)
        models = _sinc_sequence(cfg, train)
        stack = stack_predictions(models, rule.target_eval_x)

        def target_risk(weights):
            preds = aggregate_predictions(weights, stack)
            return risk(preds, rule.target_eval_y, rule.target_eval_weights)

        optimal = target_risk(
            oracle_weights(stack, rule.target_eval_y, cfg.rcond, rule.target_eval_weights).weights
        )
        for size, sub in zip(sizes, subseeds[2:]):
            inst = make_sinc_shift(size, size, sub, interpret_std=False)
            weights = iwa(
                models, inst.source_x, inst.source_y, inst.target_x, beta, cfg.rcond
            ).weights
            ratios[size].append(target_risk(weights) / optimal)
    medians = {size: float(np.median(ratios[size])) for size in sizes}
    worst = max(ratios[16000])
    assert worst <= 2.0, f"R0(iwa)/R0(c*) reaches {worst:.3f} > 2 at n = m = 16000"
    assert medians[4000] <= 1.5, f"median ratio {medians[4000]:.3f} > 1.5 at n = m = 4000"
    assert medians[1000] > medians[4000] > medians[16000], f"not decreasing: {medians}"
    _report(
        10,
        "median R0(iwa)/R0(c*) "
        + " > ".join(f"{medians[s]:.3f}" for s in sizes)
        + f" at n = m = {', '.join(map(str, sizes))}; max {worst:.3f} <= 2 at 16000",
    )
