"""Experiment harness: config plumbing, runners, result tables, artifact emission."""

import csv
import dataclasses
import functools
import glob
import hashlib
import json
import math
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg import aggregation, datasets, harness, metrics
from shiftagg.datasets import (
    SINC_NOISE_STD,
    SINC_TARGET_MEAN,
    make_sinc_shift,
    sinc_sigmas,
)
from shiftagg.density_ratio import ConstantRatio
from shiftagg.errors import ConfigError, NumericalError
from shiftagg.harness import (
    LAMBDA_GRID,
    METHODS,
    WEIGHT_METHODS,
    ExperimentConfig,
    RateRow,
    ResultRow,
    ResultTable,
    _draw_corrupted,
    _SeedContext,
    aggregates,
    build_beta,
    build_config,
    build_instance,
    build_models,
    load_config_file,
    parse_config_value,
    resolve_methods,
    run_correlation,
    run_experiment,
    run_rate_check,
    run_sensitivity,
    scaled_weights,
    write_outputs,
)
from shiftagg.models import (
    CorruptedModel,
    corrupt,
    FeatureModel,
    LinearModel,
    SoftmaxModel,
    stack_predictions,
)

CONFIGS_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SINC_SMALL = dict(dataset="sinc", n=50, m=50, l=3, seeds=(0, 1))
MOONS_SMALL = dict(dataset="moons", n=60, m=60, l=3, seeds=(0,))


def seed_context(cfg, inst, models, beta):
    """A seed context holding the models' (source, target, eval) prediction stacks."""
    stacks = tuple(
        stack_predictions(models, xs) for xs in (inst.source_x, inst.target_x, inst.target_eval_x)
    )
    return _SeedContext(cfg, inst, models, beta, stacks)


def study_rows(context, seed, methods, count=None):
    """``context``'s rows for ``methods`` through the study loop: a raising method fails its row."""
    return harness._study(
        dataclasses.replace(context.cfg, seeds=(seed,)), "run", lambda seed: context,
        lambda seed: [ResultRow(method, seed, count=count) for method in methods],
        _SeedContext.evaluate,
    ).rows


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_problems_name_their_fields(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(n=0, rcond=1.5).validate()
        assert "n:" in str(err.value)
        assert "rcond:" in str(err.value)

    def test_moons_sequence_length_capped(self):
        cfg = ExperimentConfig(**{**MOONS_SMALL, "l": len(LAMBDA_GRID) + 1})
        with pytest.raises(ConfigError, match="l:"):
            run_experiment(cfg)

    def test_repeated_methods_rejected(self):
        with pytest.raises(ConfigError, match="methods:"):
            ExperimentConfig(methods=("iwa", "sor", "iwa")).validate()

    @pytest.mark.parametrize("name", ["source_csv", "target_csv", "eval_csv", "model_csvs"])
    def test_csv_path_outside_csv_dataset_rejected(self, name):
        value = ("a.csv",) if name == "model_csvs" else "a.csv"
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(dataset="moons", **{name: value}).validate()
        assert str(err.value) == f"{name}: only read when dataset = csv, not moons"

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS_DIR, "*.cfg"))),
                             ids=os.path.basename)
    def test_committed_config_is_valid(self, path):
        build_config(load_config_file(path)).validate()

    def test_csv_dataset_needs_all_three_paths(self):
        with pytest.raises(ConfigError, match="target_csv"):
            ExperimentConfig(dataset="csv", source_csv="s.csv", eval_csv="e.csv").validate()

    def test_classification_methods_rejected_on_sinc(self):
        with pytest.raises(ConfigError, match="classification"):
            run_experiment(ExperimentConfig(dataset="sinc", methods=("iwa", "tmv")))

    def test_unknown_methods_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig(methods=("iwa", "magic")).validate()

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds:"):
            ExperimentConfig(seeds=(0, 1, 0)).validate()

    @pytest.mark.parametrize("name, value", [
        ("dataset", "bogus"),
        ("rcond", 1.0),
        ("rcond", -1e-9),
        ("m", 0),
        ("l", 0),
        ("seeds", ()),
        ("seeds", (0, -1)),
    ])
    def test_each_bad_value_is_the_one_problem_named(self, name, value):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{name: value}).validate()
        assert str(err.value).startswith(f"{name}: ")
        assert "; " not in str(err.value)

    def test_as_dict_uses_plain_lists(self):
        cfg = ExperimentConfig(seeds=(1, 2), methods=("iwa",))
        out = cfg.as_dict()
        assert out["seeds"] == [1, 2]
        assert out["methods"] == ["iwa"]
        json.dumps(out)


class TestConfigParsing:
    def test_typed_values(self):
        assert parse_config_value("n", "250") == 250
        assert parse_config_value("rcond", "1e-3") == 1e-3
        assert parse_config_value("sinc_interpret_std", "false") is False
        for text in ("true", "Yes", "1", "ON"):
            assert parse_config_value("sinc_interpret_std", text) is True
        assert parse_config_value("seeds", "0, 1, 5") == (0, 1, 5)
        assert parse_config_value("methods", "iwa, sor") == ("iwa", "sor")
        assert parse_config_value("dataset", "moons") == "moons"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_value("gamma", "1.0")

    def test_unparseable_value_names_key(self):
        with pytest.raises(ConfigError, match="n:"):
            parse_config_value("n", "many")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_value("sinc_interpret_std", "maybe")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "dataset = sinc\n"
            "n = 33   # trailing comment\n"
            "\n"
            "seeds = 0, 2\n"
        )
        values = load_config_file(str(path))
        assert values == {"dataset": "sinc", "n": 33, "seeds": (0, 2)}

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes("n = 33\n".encode("utf-8-sig"))
        assert load_config_file(str(path)) == {"n": 33}

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(str(tmp_path / "nope.cfg"))

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset = sinc\njust words\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config_file(str(path))

    def test_build_config_precedence(self):
        cfg = build_config({"n": 10, "m": 20}, {"n": 99, "l": None})
        assert cfg.n == 99  # override wins
        assert cfg.m == 20  # file value survives
        assert cfg.l == ExperimentConfig.l  # None override ignored

    def test_build_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config({"flux": 1}, {})


class TestResolveMethods:
    def test_sinc_defaults(self):
        methods = resolve_methods(ExperimentConfig(), classification=False)
        assert methods == ("iwa", "sor", "iwv", "dev", "oracle", "source_only", "target_best")

    def test_classification_defaults_include_vote_baselines(self):
        methods = resolve_methods(ExperimentConfig(dataset="moons"), True)
        assert set(("tmv", "tmr", "tcr")).issubset(methods)

    def test_explicit_methods_keep_order_and_gain_references(self):
        cfg = ExperimentConfig(methods=("sor", "iwa", "sor"))
        for classification in (False, True):
            methods = resolve_methods(cfg, classification)
            assert methods == ("sor", "iwa", "source_only", "target_best")

    def test_all_methods_resolvable(self):
        assert set(resolve_methods(ExperimentConfig(dataset="moons"), True)) <= set(
            METHODS
        ) | {"source_only", "target_best"}

    def test_methods_mapping_defines_the_names(self):
        assert set(resolve_methods(ExperimentConfig(dataset="moons"), True)) == set(
            METHODS
        )


class TestModelBuilders:
    @pytest.mark.parametrize("base", [SINC_SMALL, MOONS_SMALL], ids=["sinc", "moons"])
    def test_sequence_is_a_list_of_l_models(self, base):
        cfg = ExperimentConfig(**base)
        models = build_models(cfg, build_instance(cfg, 0))
        assert isinstance(models, list)
        assert len(models) == cfg.l

    def test_correlation_ladder_bytes_pinned(self):
        # sha256 of every model's weights then intercept bytes, in ladder order;
        # each two-class model equals its own one-decay fit bit for bit.
        path = os.path.join(CONFIGS_DIR, "correlation.cfg")
        cfg = build_config(load_config_file(path))
        models = build_models(cfg, build_instance(cfg, 0))
        digest = hashlib.sha256()
        for model in models:
            digest.update(model.weights.tobytes())
            digest.update(model.intercept.tobytes())
        assert len(models) == 14
        assert digest.hexdigest() == (
            "75f6466aecb1091f26d8ae49538225f568bc6d461d784a5eab2d007948263500"
        )


class TestRunExperiment:
    def test_row_structure_on_sinc(self):
        cfg = ExperimentConfig(**SINC_SMALL)
        table = run_experiment(cfg)
        methods = resolve_methods(cfg, classification=False)
        assert len(table.rows) == len(methods) * len(cfg.seeds)
        assert not table.has_failures
        for row in table.rows:
            assert math.isfinite(row.risk)
            assert row.accuracy is None  # regression instance
        oracle_rows = [r for r in table.rows if r.method == "oracle"]
        assert all(r.excess == 0.0 for r in oracle_rows)

    def test_reference_rows_bracket_selections(self):
        cfg = ExperimentConfig(**SINC_SMALL)
        table = run_experiment(cfg)
        by_key = {(r.method, r.seed): r for r in table.rows}
        for seed in cfg.seeds:
            tb = by_key[("target_best", seed)].risk
            assert by_key[("source_only", seed)].risk >= tb
            assert by_key[("iwv", seed)].risk >= tb
            assert by_key[("dev", seed)].risk >= tb

    def test_classification_rows_carry_accuracy(self):
        cfg = ExperimentConfig(**MOONS_SMALL, methods=("iwa", "tmv"))
        table = run_experiment(cfg)
        assert not table.has_failures
        for row in table.rows:
            assert 0.0 <= row.accuracy <= 1.0
        tmv_row = next(r for r in table.rows if r.method == "tmv")
        assert tmv_row.weights is None

    def test_every_least_squares_row_carries_its_spectrum(self):
        table = run_experiment(ExperimentConfig(**MOONS_SMALL))
        assert not table.has_failures
        solved = {"iwa", "sor", "tmr", "tcr", "oracle"}
        for row in table.rows:
            if row.method in solved:
                assert 1 <= row.rank_retained <= 3 and row.gram_condition >= 1.0, row.method
            else:
                assert row.rank_retained is None and row.gram_condition is None, row.method
        assert solved <= {row.method for row in table.rows}

    def test_deterministic_tables(self, tmp_path):
        cfg = ExperimentConfig(**SINC_SMALL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(cfg).write_csv(str(a))
        run_experiment(cfg).write_csv(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_one_oracle_solve_per_seed(self, monkeypatch):
        calls = count_oracle_calls(monkeypatch)
        table = run_experiment(ExperimentConfig(**SINC_SMALL))
        assert not table.has_failures
        assert len(calls) == len(SINC_SMALL["seeds"])

    def test_per_method_failure_isolation(self):
        cfg = ExperimentConfig(**SINC_SMALL)
        inst = build_instance(cfg, 0)
        models = build_models(cfg, inst)
        rows = study_rows(seed_context(cfg, inst, models, ConstantRatio(1.0)), 0, ("iwa", "bogus"))
        by_method = {r.method: r for r in rows}
        assert by_method["iwa"].error is None
        assert "bogus" in by_method["bogus"].error
        assert math.isnan(by_method["bogus"].risk)

    def test_per_seed_failure_isolation(self, monkeypatch):
        build = harness.build_instance

        def fails_on_seed_one(cfg, seed):
            if seed == 1:
                raise ValueError("seed one is broken")
            return build(cfg, seed)

        monkeypatch.setattr(harness, "build_instance", fails_on_seed_one)
        cfg = ExperimentConfig(**{**SINC_SMALL, "methods": ("iwa",)})
        table = run_experiment(cfg)
        assert table.has_failures
        assert len(table.rows) == len(resolve_methods(cfg, False)) * 2
        by_seed = {seed: [r.error for r in table.rows if r.seed == seed] for seed in (0, 1)}
        assert by_seed[0] == [None] * len(resolve_methods(cfg, False))
        assert all("ValueError: seed one is broken" in error for error in by_seed[1])

    def test_missing_csv_file_stops_the_run(self, tmp_path):
        missing = str(tmp_path / "gone.csv")
        cfg = ExperimentConfig(
            dataset="csv",
            source_csv=missing,
            target_csv=missing,
            eval_csv=missing,
            methods=("iwa",),
        )
        with pytest.raises(FileNotFoundError):
            run_experiment(cfg)

    def test_non_finite_risk_becomes_error_row(self):
        cfg = ExperimentConfig(**MOONS_SMALL)
        inst = build_instance(cfg, 0)
        models = build_models(cfg, inst)
        stacks = [
            stack_predictions(models, xs)
            for xs in (inst.source_x, inst.target_x, inst.target_eval_x)
        ]
        stacks[0][1, 0, 0] = np.nan  # one source prediction poisons the moment vector
        context = _SeedContext(cfg, inst, models, ConstantRatio(1.0), tuple(stacks))
        rows = study_rows(context, 0, ("iwa", "tmv", "oracle"))
        by_method = {r.method: r for r in rows}
        assert by_method["iwa"].error.startswith("NumericalError")
        assert by_method["iwa"].weights is None
        for method in ("tmv", "oracle"):
            assert by_method[method].error is None
            assert math.isfinite(by_method[method].risk)
        assert ResultTable(rows=rows, config={}).has_failures

    def test_non_finite_weight_becomes_error_row(self, monkeypatch):
        # A finite risk does not pass an infinite weight: the method's own row fails.
        monkeypatch.setitem(harness.METHODS, "stub", lambda ctx: (
            np.array([np.inf, 0.0, 0.0]), {"predictions": ctx.eval_stack[0]}))
        cfg = ExperimentConfig(**MOONS_SMALL)
        inst = build_instance(cfg, 0)
        context = seed_context(cfg, inst, build_models(cfg, inst), ConstantRatio(1.0))
        by_method = {r.method: r for r in study_rows(context, 0, ("stub", "iwa"))}
        assert by_method["stub"].error == (
            "NumericalError: stub produced a non-finite risk or weight vector")
        assert by_method["stub"].weights is None and math.isnan(by_method["stub"].risk)
        assert by_method["iwa"].error is None

    def test_nan_model_output_fails_every_vote_method(self):
        # A NaN output casts no vote: the majority vote, like the two
        # pseudo-label regressions, reports the stack instead of scoring it.
        cfg = ExperimentConfig(**MOONS_SMALL)
        inst = build_instance(cfg, 0)
        models = build_models(cfg, inst)
        stacks = [
            stack_predictions(models, xs)
            for xs in (inst.source_x, inst.target_x, inst.target_eval_x)
        ]
        for stack in stacks[1:]:
            stack[1, 0, 0] = np.nan
        context = _SeedContext(cfg, inst, models, ConstantRatio(1.0), tuple(stacks))
        # Called directly: a scored row would also fail on the oracle's solve.
        for method in ("tmv", "tmr", "tcr"):
            with pytest.raises(NumericalError, match="predictions"):
                METHODS[method](context)


class TestNoShiftReduction:
    def test_iwa_equals_sor_when_target_is_source(self):
        cfg = ExperimentConfig(**SINC_SMALL)
        inst = build_instance(cfg, 0)
        inst = dataclasses.replace(inst, target_x=inst.source_x)
        models = build_models(cfg, inst)
        rows = study_rows(seed_context(cfg, inst, models, ConstantRatio(1.0)), 0, ("iwa", "sor"))
        by_method = {r.method: r for r in rows}
        assert by_method["iwa"].weights == by_method["sor"].weights
        assert by_method["iwa"].risk == by_method["sor"].risk


class TestUnsupervisedDiscipline:
    def test_weight_vectors_ignore_eval_labels(self):
        # The moons eval split is a labeled sample; the sinc one is the target
        # law's quadrature nodes, labeled with the noise-free sinc.
        probes = (
            (MOONS_SMALL, ConstantRatio(1.0), ("iwa", "sor", "tmr", "tcr", "iwv", "dev")),
            (SINC_SMALL, None, ("iwa", "sor", "iwv", "dev")),
        )
        for settings, beta, methods in probes:
            cfg = ExperimentConfig(**settings)
            inst = build_instance(cfg, 0)
            models = build_models(cfg, inst)
            beta = beta or build_beta(cfg, inst)
            clean = seed_context(cfg, inst, models, beta)
            poisoned_inst = dataclasses.replace(
                inst, target_eval_y=np.full_like(inst.target_eval_y, np.nan)
            )
            # Scored rows turn NaN risks into error rows, so compare the weight
            # vectors before scoring.
            poisoned = seed_context(cfg, poisoned_inst, models, beta)
            for method in methods:
                before, _ = METHODS[method](clean)
                after, _ = METHODS[method](poisoned)
                assert np.array_equal(before, after), (cfg.dataset, method)


SINC_STUDY = dict(
    dataset="sinc", n=2000, m=2000, l=5, methods=("iwa", "sor", "iwv", "dev", "oracle")
)


def _risks(table):
    assert not table.has_failures
    return {(r.method, r.seed): r.risk for r in table.rows}


class TestExactSincRisk:
    def test_risks_settle_at_eighty_nodes(self, monkeypatch):
        # The aggregate weights themselves are not pinned: the oracle's Gram is
        # near-singular at rcond 1e-8, so c* moves by up to 6e-10 relative
        # when the nodes double, while every risk moves by a few 1e-15.
        cfg = ExperimentConfig(**SINC_STUDY, seeds=tuple(range(10)))
        coarse = _risks(run_experiment(cfg))
        for module in (datasets, harness):
            monkeypatch.setattr(module, "SINC_RULE_NODES", 2 * module.SINC_RULE_NODES)
        fine = _risks(run_experiment(cfg))
        assert coarse.keys() == fine.keys() and len(coarse) == 70
        worst = max(abs(coarse[key] - fine[key]) for key in coarse)
        assert worst <= 1e-12, worst

    @pytest.mark.parametrize("interpret_std", [True, False])
    def test_exact_risk_within_sampling_error_of_a_large_draw(self, interpret_std):
        cfg = ExperimentConfig(**SINC_STUDY, sinc_interpret_std=interpret_std)
        rows = [r for r in run_experiment(cfg).rows if r.error is None]
        assert len(rows) == 7
        models = build_models(cfg, build_instance(cfg, 0))
        # An independent reference: 10^6 noisy draws of the target law.
        rng = np.random.default_rng(12345)
        draw_x = rng.normal(SINC_TARGET_MEAN, sinc_sigmas(interpret_std)[1], size=(10**6, 1))
        draw_y = np.sinc(draw_x) + rng.normal(0.0, SINC_NOISE_STD, size=draw_x.shape)
        stack = stack_predictions(models, draw_x)
        for row in rows:
            losses = ((np.tensordot(row.weights, stack, axes=1) - draw_y) ** 2)[:, 0]
            standard_error = losses.std(ddof=1) / math.sqrt(losses.size)
            assert abs(row.risk - losses.mean()) <= 4 * standard_error, row.method

    def test_results_json_records_how_risks_were_computed(self, tmp_path):
        sinc = run_experiment(ExperimentConfig(**{**SINC_SMALL, "sinc_interpret_std": False}))
        moons = run_experiment(ExperimentConfig(**MOONS_SMALL, methods=("iwa",)))
        write_outputs(sinc, str(tmp_path / "sinc"))
        write_outputs(moons, str(tmp_path / "moons"))
        payload = json.loads((tmp_path / "sinc" / "results.json").read_text())
        assert payload["extra"] == {
            "target_risk": {
                "rule": "gauss-hermite",
                "nodes": 80,
                "target_mean": 2.0,
                "target_std": 0.25,
                "noise_var": 0.0625,
            }
        }
        assert "extra" not in json.loads((tmp_path / "moons" / "results.json").read_text())


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


class TestResultTable:
    def make_rows(self):
        return [
            ResultRow(method="sor", seed=1, risk=0.5, accuracy=None, excess=0.25),
            ResultRow(method="iwa", seed=0, risk=0.25, accuracy=None, excess=0.0),
            ResultRow(method="iwa", seed=1, risk=0.75, accuracy=None, excess=0.5),
        ]

    def test_csv_layout_and_aggregates(self, tmp_path):
        table = ResultTable(rows=self.make_rows(), config={})
        path = tmp_path / "results.csv"
        table.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "method,risk,accuracy,excess,seed"
        assert lines[1].startswith("iwa,0.25,nan,0,0")
        # data rows sorted by (method, seed); aggregates follow with the
        # statistic name in the seed column
        assert [l.split(",")[0] for l in lines[1:4]] == ["iwa", "iwa", "sor"]
        stats = [l.split(",")[-1] for l in lines[4:]]
        assert stats == ["mean", "median", "mean", "median"]
        iwa_mean = next(l for l in lines[4:] if l.startswith("iwa") and l.endswith("mean"))
        assert float(iwa_mean.split(",")[1]) == 0.5

    def test_count_column_added_for_sensitivity_rows(self, tmp_path):
        rows = [ResultRow(method="iwa", seed=0, risk=0.5, excess=0.0, count=10)]
        table = ResultTable(rows=rows, config={}, kind="sensitivity")
        path = tmp_path / "results.csv"
        table.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "count,method,risk,accuracy,excess,seed"
        assert lines[1].split(",")[0] == "10"

    def test_17_digit_round_trip(self, tmp_path):
        value = 1.0 / 3.0
        table = ResultTable(
            rows=[ResultRow(method="iwa", seed=0, risk=value, excess=value)], config={}
        )
        path = tmp_path / "r.csv"
        table.write_csv(str(path))
        cells = path.read_text().strip().split("\n")[1].split(",")
        assert float(cells[1]) == value

    def test_json_maps_non_finite_to_strings(self, tmp_path):
        rows = [ResultRow(method="iwa", seed=0, error="Boom: failed")]
        table = ResultTable(rows=rows, config={"n": 5})
        path = tmp_path / "results.json"
        table.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["kind"] == "run"
        assert payload["config"] == {"n": 5}
        assert payload["rows"][0]["risk"] == "nan"
        assert payload["rows"][0]["error"] == "Boom: failed"

    def test_json_of_non_finite_list_items_is_strict(self, tmp_path):
        rows = [ResultRow(method="iwv", seed=0, risk=1.0, excess=0.0, chosen_index=1,
                          scores=[math.inf, 0.5, -math.inf, math.nan])]
        path = tmp_path / "results.json"
        ResultTable(rows=rows, config={}).write_json(str(path))

        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert payload["rows"][0]["scores"] == ["inf", 0.5, "-inf", "nan"]

    def test_json_of_non_finite_extra_is_strict(self, tmp_path):
        gate = {"seed": 0, "so_accuracy": math.nan, "threshold": math.inf, "total": 2}
        table = ResultTable(rows=[ResultRow(method="iwa", seed=0, count=0, risk=1.0, excess=0.0)],
                            config={}, kind="sensitivity", extra={"corruption_gate": [gate]})
        path = tmp_path / "results.json"
        table.write_json(str(path))

        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert payload["extra"]["corruption_gate"][0] == {**gate, "so_accuracy": "nan",
                                                          "threshold": "inf"}

    def test_sorted_rows_by_count_method_seed(self):
        rows = [
            ResultRow(method="sor", seed=0, count=10),
            ResultRow(method="iwa", seed=1, count=0),
            ResultRow(method="iwa", seed=0, count=0),
        ]
        ordered = ResultTable(rows=rows, config={}).sorted_rows()
        assert [(r.count, r.method, r.seed) for r in ordered] == [
            (0, "iwa", 0),
            (0, "iwa", 1),
            (10, "sor", 0),
        ]


class TestScaledWeights:
    def test_scales_by_absolute_sum(self):
        assert np.array_equal(scaled_weights([2.0, -2.0]), [0.5, -0.5])

    def test_zero_vector_unchanged(self):
        assert np.array_equal(scaled_weights([0.0, 0.0]), [0.0, 0.0])


class TestSensitivity:
    def test_counts_structure_and_gate(self):
        cfg = ExperimentConfig(**MOONS_SMALL, methods=("iwa", "tmv"))
        table = run_sensitivity(dataclasses.replace(cfg, counts=(2,)))
        assert table.kind == "sensitivity"
        assert table.extra["added_counts"] == [0, 2]
        counts = {r.count for r in table.rows}
        assert counts == {0, 2}
        gate = table.extra["corruption_gate"]
        assert len(gate) == len(cfg.seeds)
        assert set(gate[0]) == {"seed", "so_accuracy", "threshold", "flagged", "total"}
        assert gate[0]["total"] == 2

    def test_failed_seed_gets_error_rows_and_no_gate(self, monkeypatch):
        build = harness.build_instance

        def fails_on_seed_one(cfg, seed):
            if seed == 1:
                raise ValueError("seed one is broken")
            return build(cfg, seed)

        monkeypatch.setattr(harness, "build_instance", fails_on_seed_one)
        cfg = ExperimentConfig(**{**MOONS_SMALL, "seeds": (0, 1)}, methods=("iwa", "tmv"))
        table = run_sensitivity(dataclasses.replace(cfg, counts=(2,)))
        cells = len(table.extra["added_counts"]) * len(resolve_methods(cfg, True))
        by_seed = {seed: [r for r in table.rows if r.seed == seed] for seed in (0, 1)}
        assert [r.error for r in by_seed[0]] == [None] * cells
        assert len(by_seed[1]) == cells
        assert {(r.count, r.method) for r in by_seed[1]} == {
            (r.count, r.method) for r in by_seed[0]
        }
        assert all(r.error == "ValueError: seed one is broken" for r in by_seed[1])
        assert all(math.isnan(r.risk) and r.weights is None for r in by_seed[1])
        assert [stats["seed"] for stats in table.extra["corruption_gate"]] == [0]

    def test_failing_method_leaves_the_others(self, monkeypatch):
        def boom(*args, **kwargs):
            raise FloatingPointError("boom")

        monkeypatch.setattr(aggregation, "tcr", boom)
        cfg = ExperimentConfig(**MOONS_SMALL, methods=("iwa", "tcr"), counts=(2,))
        table = run_sensitivity(cfg)
        errors = {(r.count, r.method): r.error for r in table.rows}
        assert len(errors) == len(table.rows) == 2 * len(resolve_methods(cfg, True))
        assert {key: error for key, error in errors.items() if error} == {
            (0, "tcr"): "FloatingPointError: boom", (2, "tcr"): "FloatingPointError: boom"}

    def test_deterministic(self, tmp_path):
        cfg = ExperimentConfig(**MOONS_SMALL, methods=("iwa",), counts=(2,))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sensitivity(cfg).write_csv(str(a))
        run_sensitivity(cfg).write_csv(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_prefix_slices_match_per_count_reference(self):
        # The study predicts every model once and slices the stacks per
        # count; the reference re-predicts the extended sequence per count.
        cfg = ExperimentConfig(**{**MOONS_SMALL, "seeds": (0, 1)})
        table = run_sensitivity(dataclasses.replace(cfg, counts=(2, 5)))
        reference = []
        for seed in cfg.seeds:
            inst = build_instance(cfg, seed)
            models = build_models(cfg, inst)
            beta = build_beta(cfg, inst)
            corrupted = _draw_corrupted(seed_context(cfg, inst, models, beta), seed, 5)[0]
            for count in (0, 2, 5):
                sequence = models + corrupted[:count]
                context = seed_context(cfg, inst, sequence, beta)
                reference.extend(study_rows(context, seed, resolve_methods(cfg, True), count))
        assert not table.has_failures
        assert [repr(dataclasses.asdict(r)) for r in table.rows] == [
            repr(dataclasses.asdict(r)) for r in reference
        ]

    @pytest.mark.parametrize("instance", ["moons-0", "moons-1", "moons-2", "three-class"])
    @pytest.mark.parametrize("redraws", [1, 2, 25])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_batched_gate_matches_per_candidate_reference(
        self, monkeypatch, instance, redraws, batch
    ):
        inst, models, seed = gate_instance(instance)
        monkeypatch.setattr(harness, "MAX_CORRUPTION_REDRAWS", redraws)
        if batch is not None:  # a few models per batch, so slots straddle batches
            monkeypatch.setattr(harness, "_NOISE_BATCH_ROWS", batch * inst.target_eval_x.shape[0])
        total = 7
        ctx = gate_context(inst, models)
        base_eval = ctx.eval_stack
        drawn, picks, eval_stack, accuracies, stats = _draw_corrupted(ctx, seed, total)
        ref_drawn, ref_stack, ref_stats = reference_gate(inst, models, base_eval, seed, total)
        labels = inst.target_eval_y.argmax(axis=1)
        assert accuracies.tolist() == [argmax_accuracy(preds, labels) for preds in ref_stack]
        assert [m.seed for m in drawn] == [m.seed for m in ref_drawn]
        assert [m.mask.tolist() for m in drawn] == [m.mask.tolist() for m in ref_drawn]
        assert [models[p] for p in picks] == [m.base for m in ref_drawn]
        assert float_bits(eval_stack).tobytes() == float_bits(ref_stack).tobytes()
        assert stats == ref_stats
        xs = inst.source_x
        order = [*range(len(models)), *picks]
        extended = harness._corrupted_rows(stack_predictions(models, xs), xs, order, drawn)
        expected = stack_predictions(models + ref_drawn, xs)
        assert float_bits(extended).tobytes() == float_bits(expected).tobytes()

    def test_gate_reference_covers_flagged_and_exhausted_slots(self, monkeypatch):
        # Under a one-draw budget some slots keep an unflagged candidate.
        monkeypatch.setattr(harness, "MAX_CORRUPTION_REDRAWS", 1)
        flagged = []
        for instance in ("moons-0", "moons-1", "moons-2", "three-class"):
            inst, models, seed = gate_instance(instance)
            flagged.append(_draw_corrupted(gate_context(inst, models), seed, 7)[-1]["flagged"])
        assert 0 < sum(flagged) < 7 * len(flagged)

    def test_each_model_scored_once_per_seed(self, monkeypatch):
        # Every model passed to metrics.accuracies is a base model or a gate
        # candidate; the counts slice those scores instead of scoring again.
        # metrics.accuracy scores an aggregate's predictions through
        # accuracies, one stack of one, and those are not models.
        scored, aggregates, candidates = [], [], []
        accuracies, accuracy, corrupt_ = metrics.accuracies, metrics.accuracy, harness.corrupt

        def counted_accuracies(stack, labels):
            scored.append(len(stack))
            return accuracies(stack, labels)

        def counted_accuracy(preds, labels):
            aggregates.append(1)
            return accuracy(preds, labels)

        def counted_corrupt(model, seed):
            candidates.append(seed)
            return corrupt_(model, seed)

        monkeypatch.setattr(metrics, "accuracies", counted_accuracies)
        monkeypatch.setattr(metrics, "accuracy", counted_accuracy)
        monkeypatch.setattr(harness, "corrupt", counted_corrupt)
        cfg = ExperimentConfig(**MOONS_SMALL, methods=("iwa", "tmv", "target_best"))
        table = run_sensitivity(dataclasses.replace(cfg, counts=(2, 5)))
        assert not table.has_failures
        assert len(candidates) >= 5
        assert sum(scored) - len(aggregates) == cfg.l + len(candidates)

    def test_sinc_rejected(self):
        with pytest.raises(ConfigError, match="classification"):
            run_sensitivity(ExperimentConfig(**SINC_SMALL))

    def test_negative_counts_rejected(self):
        cfg = ExperimentConfig(**MOONS_SMALL)
        with pytest.raises(ConfigError, match="counts: must be non-negative"):
            run_sensitivity(dataclasses.replace(cfg, counts=(-1,)))


def float_bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@functools.cache
def gate_instance(name):
    """(instance, models, seed) for the corruption gate.

    ``moons-<seed>`` is a sensitivity-sized moons seed with its 14-model
    ladder; ``three-class`` has masks of two coordinates. Under a budget of
    one or two draws both leave some slots unflagged.
    """
    if name.startswith("moons-"):
        seed = int(name.split("-")[1])
        cfg = ExperimentConfig(dataset="moons", n=600, m=600, l=14)
        inst = build_instance(cfg, seed)
        return inst, build_models(cfg, inst), seed
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(400, 2))
    slopes = rng.normal(size=(2, 3))
    labels = np.argmax(xs @ slopes + 0.3 * rng.normal(size=(400, 3)), axis=1)
    inst = types.SimpleNamespace(
        source_x=rng.normal(size=(50, 2)), target_eval_x=xs, target_eval_y=np.eye(3)[labels],
        label_dim=3,
    )
    models = [
        SoftmaxModel(10 * (slopes + 0.3 * rng.normal(size=(2, 3))), np.zeros(3)) for _ in range(4)
    ]
    return inst, models, 11


def gate_context(instance, models):
    """A seed context holding what the gate reads: the models and their eval stack."""
    stacks = (None, None, stack_predictions(models, instance.target_eval_x))
    return _SeedContext(None, instance, models, None, stacks)


def argmax_accuracy(preds, labels):
    """A model's accuracy by the per-row argmax rule that ``metrics.accuracies`` follows."""
    return float((np.asarray(preds).argmax(axis=1) == labels).mean())


def reference_gate(instance, models, base_eval, seed, total):
    """The corruption gate one candidate at a time: predict, score, redraw.

    Returns (kept models, eval stack, gate stats) as the gate made them
    before it scored its candidates in batches.
    """
    eval_x = instance.target_eval_x
    eval_labels = instance.target_eval_y.argmax(axis=1)
    so_acc = argmax_accuracy(base_eval[0], eval_labels)
    threshold = 0.8 * so_acc
    pick_rng = np.random.default_rng(np.random.SeedSequence([harness._PICK_STREAM, seed]))
    budget = harness.MAX_CORRUPTION_REDRAWS
    cseeds = iter(harness._subseeds(harness._CORRUPTION_STREAM, seed, total * budget))
    drawn, stack, flagged_count = [], list(base_eval), 0
    for _ in range(total):
        flagged = False
        for _ in range(budget):
            candidate = corrupt(models[int(pick_rng.integers(len(models)))], next(cseeds))
            preds = candidate.predict_many(eval_x)
            if argmax_accuracy(preds, eval_labels) < threshold:
                flagged = True
                break
        flagged_count += int(flagged)
        drawn.append(candidate)
        stack.append(preds)
    stats = {"seed": seed, "so_accuracy": so_acc, "threshold": threshold,
             "flagged": flagged_count, "total": total}
    return drawn, np.array(stack), stats


@given(
    st.integers(2, 6),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(1, 40),
    st.floats(-8.0, 8.0),
    st.integers(0, 2**31 - 1),
)
def test_prefix_gram_is_leading_block(l, prefix, d2, k, log_scale, seed):
    prefix = min(prefix, l)
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    models = [
        LinearModel(scale * rng.normal(size=(2, d2)), scale * rng.normal(size=d2))
        for _ in range(l)
    ]
    xs = rng.normal(size=(k, 2))
    full = aggregation._gram(stack_predictions(models, xs))
    lead = aggregation._gram(stack_predictions(models[:prefix], xs))
    assert np.abs(lead - full[:prefix, :prefix]).max() <= 1e-12 * np.abs(full).max()


def count_oracle_calls(monkeypatch):
    """Record every aggregation.oracle_weights call made through the module."""
    calls = []
    original = aggregation.oracle_weights

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(aggregation, "oracle_weights", counted)
    return calls


def count_predictions(monkeypatch):
    """Count top-level ``predict_many`` calls per (model, input matrix).

    A model's calls into its own base model are part of its prediction and
    are not counted. Every model seen is kept alive, so ids stay distinct.
    """
    counts, seen, depth = {}, [], [0]
    for cls in (LinearModel, SoftmaxModel, FeatureModel, CorruptedModel):
        original = cls.__dict__["predict_many"]

        def counted(self, xs, original=original):
            if depth[0] == 0:
                seen.append(self)
                key = (id(self), np.asarray(xs, dtype=float).tobytes())
                counts[key] = counts.get(key, 0) + 1
            depth[0] += 1
            try:
                return original(self, xs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "predict_many", counted)
    return counts


@pytest.mark.parametrize(
    "study, counts",
    [
        (run_experiment, (0,)),
        (run_correlation, (0,)),
        (run_sensitivity, (0,)),
        (run_sensitivity, (0, 2)),
    ],
    ids=["run", "correlation", "sensitivity-0", "sensitivity-0-2"],
)
def test_each_model_predicted_once_per_split(monkeypatch, study, counts):
    predictions = count_predictions(monkeypatch)
    table = study(ExperimentConfig(**MOONS_SMALL, counts=counts))
    assert not table.has_failures
    assert predictions and max(predictions.values()) == 1


class TestCorrelation:
    def test_row_structure(self):
        cfg = ExperimentConfig(**{**MOONS_SMALL, "seeds": (0, 1)}, methods=("iwa", "sor"))
        table = run_correlation(cfg)
        assert len(table.rows) == 4
        assert not table.has_failures
        for row in table.rows:
            assert -1.0 <= row.pearson_r <= 1.0
        summary = {entry["method"] for entry in table.summary["summary"]}
        assert summary == {"iwa", "sor"}

    def test_csv_layout(self, tmp_path):
        cfg = ExperimentConfig(**MOONS_SMALL, methods=("iwa",))
        table = run_correlation(cfg)
        path = tmp_path / "corr.csv"
        table.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "method,pearson_r,degenerate,seed"
        assert lines[1].split(",")[0] == "iwa"

    def test_sinc_rejected(self):
        with pytest.raises(ConfigError, match="classification"):
            run_correlation(ExperimentConfig(**SINC_SMALL))

    def test_no_oracle_solve(self, monkeypatch):
        calls = count_oracle_calls(monkeypatch)
        run_correlation(ExperimentConfig(**{**MOONS_SMALL, "seeds": (0, 1)}, methods=("iwa",)))
        assert calls == []

    def test_non_finite_accuracy_gives_error_rows(self, monkeypatch):
        monkeypatch.setattr(_SeedContext, "model_accuracies",
                            property(lambda ctx: np.full(len(ctx.models), np.nan)))
        table = run_correlation(ExperimentConfig(**MOONS_SMALL, methods=("iwa", "sor")))
        assert [row.error for row in table.rows] == [
            "NumericalError: correlation inputs contain NaN or inf"] * 2
        assert all(math.isnan(row.pearson_r) for row in table.rows)

    def test_failing_method_leaves_the_others(self, monkeypatch):
        def boom(*args, **kwargs):
            raise FloatingPointError("boom")

        monkeypatch.setattr(aggregation, "tcr", boom)
        table = run_correlation(ExperimentConfig(**MOONS_SMALL, methods=("iwa", "tcr")))
        assert {row.method: row.error for row in table.rows} == {
            "iwa": None, "tcr": "FloatingPointError: boom"}
        failed = next(row for row in table.rows if row.method == "tcr")
        assert math.isnan(failed.pearson_r) and failed.degenerate is False

    def test_non_weight_methods_rejected(self):
        cfg = ExperimentConfig(**MOONS_SMALL, methods=("tmv",))
        with pytest.raises(ConfigError, match="weight-producing"):
            run_correlation(cfg)
        assert "tmv" not in WEIGHT_METHODS


def _expression_form_gauss_rule(rule_x, rule_y, count):
    """harness._rate_gauss_rule with a fresh array for every product: the bits it keeps."""
    x, y = rule_x[:, 0], rule_y[:, 0]
    alpha, coef, off = np.empty(count), np.empty(count), np.zeros(count)
    prev, p = np.zeros_like(x), np.ones_like(x)
    for k in range(count):
        alpha[k] = np.mean(x * p * p)
        coef[k] = np.mean(p * y)
        if k + 1 < count:
            q = (x - alpha[k]) * p - off[k] * prev
            off[k + 1] = math.sqrt(np.mean(q * q))
            prev, p = p, q / off[k + 1]
    jacobi = np.diag(alpha) + np.diag(off[1:], 1) + np.diag(off[1:], -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes[:, None], (coef @ vectors / vectors[0])[:, None], vectors[0] ** 2


class TestRateCheck:
    def test_row_structure(self):
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0,))
        table = run_rate_check(dataclasses.replace(cfg, sizes=(50, 120), oracle_draws=1500))
        assert table.extra["sizes"] == (50, 120)
        assert len(table.rows) == 2
        assert not table.has_failures
        medians = table.summary["medians"]
        assert set(medians) == {50, 120}
        assert all(v >= 0 for v in medians.values())
        assert isinstance(table.summary["slope"], float)
        for size, median in medians.items():
            assert median == np.median([r.deviation for r in table.rows if r.size == size])

    def test_csv_layout(self, tmp_path):
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0,))
        table = run_rate_check(dataclasses.replace(cfg, sizes=(50, 120), oracle_draws=1500))
        path = tmp_path / "rate.csv"
        table.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "size,deviation,seed"
        assert lines[-1].split(",")[-1] == "median"

    def test_requires_sinc_with_analytic_beta(self):
        with pytest.raises(ConfigError, match="rate check"):
            run_rate_check(ExperimentConfig(**MOONS_SMALL))

    def test_plot_skips_a_size_without_successful_seeds(self, tmp_path):
        rows = [RateRow(0, 20, math.nan, error="ValueError: x"), RateRow(0, 40, 0.5),
                RateRow(1, 20, math.nan, error="ValueError: x"), RateRow(1, 40, 0.25)]
        table = ResultTable(rows=rows, config={}, kind="rate", extra={"sizes": (20, 40)})
        write_outputs(table, str(tmp_path))
        assert "nan" not in (tmp_path / "plots" / "rate.svg").read_text()
        with open(tmp_path / "plots" / "rate.csv", newline="") as handle:
            lines = list(csv.reader(handle))
        assert [[float(v) for v in line] for line in lines[1:]] == [[40, 0.375, 0.3125, 0.4375]]

    def test_no_plot_when_every_size_fails(self, tmp_path, monkeypatch):
        def iwa(*args, **kwargs):
            raise ValueError("no weights")

        monkeypatch.setattr(aggregation, "iwa", iwa)
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0, 1))
        table = run_rate_check(dataclasses.replace(cfg, sizes=(20, 40), oracle_draws=1500))
        assert all(row.error == "ValueError: no weights" for row in table.rows)
        write_outputs(table, str(tmp_path))
        assert (tmp_path / "results.csv").exists()
        assert not (tmp_path / "plots" / "rate.svg").exists()
        assert not (tmp_path / "plots" / "rate.csv").exists()

    def test_requires_two_distinct_sizes(self):
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0,))
        with pytest.raises(ConfigError, match="sizes"):
            run_rate_check(dataclasses.replace(cfg, sizes=(100, 100)))

    @pytest.mark.parametrize("draws", [1, 3, 1500, 100_000])
    @pytest.mark.parametrize("interpret_std", [False, True])
    @pytest.mark.parametrize("l", [1, 2, 5, 8])
    def test_gauss_rule_solves_the_full_rule(self, l, interpret_std, draws):
        cfg = ExperimentConfig(dataset="sinc", n=2000, l=l, sinc_interpret_std=interpret_std,
                               oracle_draws=draws)
        rule_x, rule_y = harness._rate_rule(cfg)
        nodes, labels, weights = harness._rate_gauss_rule(rule_x, rule_y, harness._rate_nodes(cfg))
        reference = _expression_form_gauss_rule(rule_x, rule_y, harness._rate_nodes(cfg))
        assert all(np.array_equal(a, b) for a, b in zip((nodes, labels, weights), reference))
        assert nodes.shape == labels.shape == (min(l, draws), 1)
        assert abs(weights.sum() - 1.0) <= 1e-14
        for seed in range(3):
            models = harness._sinc_sequence(
                cfg, make_sinc_shift(cfg.n, 1, seed, interpret_std=interpret_std)
            )
            full = aggregation.oracle_weights(stack_predictions(models, rule_x), rule_y, 0.1)
            fast = aggregation.oracle_weights(stack_predictions(models, nodes), labels, 0.1,
                                              weights)
            scale = np.max(np.abs(full.weights))
            assert np.max(np.abs(fast.weights - full.weights)) <= 1e-12 * scale

    def test_gauss_rule_build_holds_five_draw_length_arrays(self):
        # x, y, p_k, p_{k-1} and one work array: 40 bytes per draw.
        draws = 1_000_000
        cfg = ExperimentConfig(dataset="sinc", oracle_draws=draws)
        tracemalloc.start()
        try:
            harness._rate_gauss_rule(*harness._rate_rule(cfg), harness._rate_nodes(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 44 * draws

    @pytest.mark.parametrize("l, draws", [(2, 1500), (5, 3)])
    def test_each_seed_solves_on_the_gauss_rule_only(self, monkeypatch, l, draws):
        # A per-seed solve on the full oracle rule would hand over `draws` rows.
        solves = count_oracle_calls(monkeypatch)
        cfg = ExperimentConfig(dataset="sinc", n=80, l=l, seeds=(0, 1, 2), sizes=(50, 120),
                               oracle_draws=draws)
        assert not run_rate_check(cfg).has_failures
        assert [np.shape(args[0]) for args in solves] == [(l, min(l, draws), 1)] * 3

    def test_rule_is_the_noise_free_target_law(self):
        cfg = ExperimentConfig(dataset="sinc", sinc_interpret_std=False)
        rule_x, rule_y = harness._rate_rule(cfg)
        assert rule_x.shape == rule_y.shape == (cfg.oracle_draws, 1)
        assert np.array_equal(rule_y, np.sinc(rule_x))
        assert abs(rule_x.mean() - 2.0) < 0.01 and abs(rule_x.std() - 0.25) < 0.01
        again_x, _ = harness._rate_rule(dataclasses.replace(cfg, seeds=(5, 6)))
        assert np.array_equal(again_x, rule_x)

    def test_rule_drawn_once_per_run(self, monkeypatch):
        draws = []
        original = harness._rate_rule

        def counted(cfg):
            draws.append(cfg)
            return original(cfg)

        monkeypatch.setattr(harness, "_rate_rule", counted)
        solves = count_oracle_calls(monkeypatch)
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0, 1, 2))
        table = run_rate_check(dataclasses.replace(cfg, sizes=(50, 120), oracle_draws=1500))
        assert not table.has_failures
        assert len(draws) == 1
        assert len(solves) == 3

    def test_seed_rows_do_not_depend_on_the_seed_list(self):
        cfg = ExperimentConfig(dataset="sinc", n=80, l=3, sizes=(50, 120), oracle_draws=1500)
        alone = run_rate_check(dataclasses.replace(cfg, seeds=(3,))).rows
        listed = run_rate_check(dataclasses.replace(cfg, seeds=(0, 1, 2, 3, 4))).rows
        assert not any(row.error for row in alone)
        assert alone == [row for row in listed if row.seed == 3]

    def test_results_record_how_c_star_was_computed(self, tmp_path):
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0,), sinc_interpret_std=False)
        table = run_rate_check(dataclasses.replace(cfg, sizes=(50, 120), oracle_draws=1500))
        write_outputs(table, str(tmp_path))
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["extra"]["c_star"] == {
            "rule": "monte-carlo",
            "draws": 1500,
            "nodes": 2,
            "labels": "noise-free sinc",
            "stream": harness._RATE_RULE_STREAM,
            "target_mean": 2.0,
            "target_std": 0.25,
        }


class TestWriteOutputs:
    def test_run_artifacts(self, tmp_path):
        cfg = ExperimentConfig(**{**SINC_SMALL, "seeds": (0,)})
        table = run_experiment(cfg)
        out = tmp_path / "out"
        write_outputs(table, str(out))
        assert (out / "results.csv").exists()
        assert (out / "results.json").exists()
        assert (out / "plots" / "risk_by_method.svg").exists()
        assert (out / "plots" / "risk_by_method.csv").exists()
        assert (out / "plots" / "weights_iwa.svg").exists()
        payload = json.loads((out / "results.json").read_text())
        assert payload["kind"] == "run"
        with open(out / "plots" / "risk_by_method.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        medians = {
            a["method"]: a["risk"] for a in aggregates(table) if a["stat"] == "median"
        }
        assert {r[0] for r in rows[1:]} == set(medians)
        for label, value in rows[1:]:
            assert float(value) == medians[label]

    def test_rate_artifacts(self, tmp_path):
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0,))
        table = run_rate_check(dataclasses.replace(cfg, sizes=(50, 120), oracle_draws=1500))
        out = tmp_path / "rate_out"
        write_outputs(table, str(out))
        assert (out / "plots" / "rate.svg").exists()
        with open(out / "plots" / "rate.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "iwa", "iwa_lo", "iwa_hi"]
        medians = table.summary["medians"]
        for row in rows[1:]:
            assert float(row[1]) == medians[int(float(row[0]))]
