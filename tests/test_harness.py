"""Experiment harness: config plumbing, runners, result tables, artifact emission."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg import aggregation
from shiftagg.aggregation import empirical_gram
from shiftagg.density_ratio import ConstantRatio
from shiftagg.errors import ConfigError
from shiftagg.harness import (
    ALL_METHODS,
    LAMBDA_GRID,
    METHODS,
    WEIGHT_METHODS,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    _draw_corrupted,
    _SeedContext,
    aggregates,
    build_beta,
    build_config,
    build_instance,
    build_models,
    correlation_summary,
    evaluate_methods,
    load_config_file,
    parse_config_value,
    rate_medians,
    rate_slope,
    rate_spread,
    resolve_methods,
    run_correlation,
    run_experiment,
    run_rate_check,
    run_sensitivity,
    run_single_seed,
    scaled_weights,
    write_outputs,
)
from shiftagg.models import LinearModel, stack_predictions

SINC_SMALL = dict(dataset="sinc", n=50, m=50, eval_size=40, l=3, seeds=(0, 1))
MOONS_SMALL = dict(
    dataset="moons", beta="learned", n=60, m=60, eval_size=40, l=3, seeds=(0,)
)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_problems_name_their_fields(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(n=0, rcond=1.5).validate()
        assert "n:" in str(err.value)
        assert "rcond:" in str(err.value)

    def test_moons_sequence_length_capped(self):
        with pytest.raises(ConfigError, match="l:"):
            ExperimentConfig(dataset="moons", beta="learned", l=len(LAMBDA_GRID) + 1).validate()

    def test_analytic_beta_needs_sinc(self):
        with pytest.raises(ConfigError, match="analytic"):
            ExperimentConfig(dataset="moons", beta="analytic").validate()

    def test_csv_dataset_needs_all_three_paths(self):
        with pytest.raises(ConfigError, match="target_csv"):
            ExperimentConfig(dataset="csv", beta="learned", source_csv="s.csv", eval_csv="e.csv").validate()

    def test_classification_methods_rejected_on_sinc(self):
        with pytest.raises(ConfigError, match="classification"):
            ExperimentConfig(dataset="sinc", methods=("iwa", "tmv")).validate()

    def test_unknown_methods_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig(methods=("iwa", "magic")).validate()

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds:"):
            ExperimentConfig(seeds=(0, 1, 0)).validate()

    def test_zero_one_loss_needs_classification(self):
        with pytest.raises(ConfigError, match="zero_one"):
            ExperimentConfig(dataset="sinc", selection_loss="zero_one").validate()

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
        methods = resolve_methods(ExperimentConfig())
        assert methods == ("iwa", "sor", "iwv", "dev", "oracle", "source_only", "target_best")

    def test_classification_defaults_include_vote_baselines(self):
        methods = resolve_methods(ExperimentConfig(dataset="moons", beta="learned"))
        assert set(("tmv", "tmr", "tcr")).issubset(methods)

    def test_explicit_methods_keep_order_and_gain_references(self):
        cfg = ExperimentConfig(methods=("sor", "iwa", "sor"))
        assert resolve_methods(cfg) == ("sor", "iwa", "source_only", "target_best")

    def test_all_methods_resolvable(self):
        assert set(resolve_methods(ExperimentConfig(dataset="moons", beta="learned"))) <= set(
            ALL_METHODS
        ) | {"source_only", "target_best"}

    def test_methods_mapping_defines_the_names(self):
        assert ALL_METHODS == tuple(METHODS)
        assert set(resolve_methods(ExperimentConfig(dataset="moons", beta="learned"))) == set(
            METHODS
        )


class TestModelBuilders:
    @pytest.mark.parametrize("base", [SINC_SMALL, MOONS_SMALL], ids=["sinc", "moons"])
    def test_sequence_is_a_list_of_l_models(self, base):
        cfg = ExperimentConfig(**base)
        models = build_models(cfg, build_instance(cfg, 0))
        assert isinstance(models, list)
        assert len(models) == cfg.l


class TestRunExperiment:
    def test_row_structure_on_sinc(self):
        cfg = ExperimentConfig(**SINC_SMALL)
        table = run_experiment(cfg)
        methods = resolve_methods(cfg)
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
        rows = evaluate_methods(
            cfg, inst, models, ConstantRatio(1.0), 0, methods=("iwa", "bogus")
        )
        by_method = {r.method: r for r in rows}
        assert by_method["iwa"].error is None
        assert "bogus" in by_method["bogus"].error
        assert math.isnan(by_method["bogus"].risk)

    def test_per_seed_failure_isolation(self, tmp_path):
        missing = str(tmp_path / "gone.csv")
        cfg = ExperimentConfig(
            dataset="csv",
            beta="learned",
            source_csv=missing,
            target_csv=missing,
            eval_csv=missing,
            seeds=(0, 1),
            methods=("iwa",),
        )
        table = run_experiment(cfg)
        assert table.has_failures
        assert len(table.rows) == len(resolve_methods(cfg)) * 2
        assert all("FileNotFoundError" in r.error for r in table.rows)

    def test_non_finite_risk_becomes_error_row(self):
        cfg = ExperimentConfig(**MOONS_SMALL)
        inst = build_instance(cfg, 0)
        models = build_models(cfg, inst)
        stacks = [
            stack_predictions(models, xs)
            for xs in (inst.source_x, inst.target_x, inst.target_eval_x)
        ]
        stacks[0][1, 0, 0] = np.nan  # one source prediction poisons the moment vector
        rows = evaluate_methods(
            cfg, inst, models, ConstantRatio(1.0), 0,
            methods=("iwa", "tmv", "oracle"), stacks=tuple(stacks),
        )
        by_method = {r.method: r for r in rows}
        assert by_method["iwa"].error.startswith("NumericalError")
        assert by_method["iwa"].weights is None
        for method in ("tmv", "oracle"):
            assert by_method[method].error is None
            assert math.isfinite(by_method[method].risk)
        assert ResultTable(rows=rows, config={}).has_failures


class TestNoShiftReduction:
    def test_iwa_equals_sor_when_target_is_source(self):
        cfg = ExperimentConfig(**SINC_SMALL)
        inst = build_instance(cfg, 0)
        inst = dataclasses.replace(inst, target_x=inst.source_x)
        models = build_models(cfg, inst)
        rows = evaluate_methods(
            cfg, inst, models, ConstantRatio(1.0), 0, methods=("iwa", "sor")
        )
        by_method = {r.method: r for r in rows}
        assert by_method["iwa"].weights == by_method["sor"].weights
        assert by_method["iwa"].risk == by_method["sor"].risk


class TestUnsupervisedDiscipline:
    def test_weight_vectors_ignore_eval_labels(self):
        cfg = ExperimentConfig(**MOONS_SMALL)
        inst = build_instance(cfg, 0)
        models = build_models(cfg, inst)
        beta = ConstantRatio(1.0)
        methods = ("iwa", "sor", "tmr", "tcr", "iwv", "dev")
        clean = _SeedContext(cfg, inst, models, beta)
        poisoned_inst = dataclasses.replace(
            inst, target_eval_y=np.full_like(inst.target_eval_y, np.nan)
        )
        # Scored rows turn NaN risks into error rows, so compare the weight
        # vectors before scoring.
        poisoned = _SeedContext(cfg, poisoned_inst, models, beta)
        for method in methods:
            before, _ = clean.method_weights(method)
            after, _ = poisoned.method_weights(method)
            assert np.array_equal(before, after)


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

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["rows"][0]["scores"] == ["inf", 0.5, "-inf", "nan"]

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
            base_eval = stack_predictions(models, inst.target_eval_x)
            corrupted, _, _ = _draw_corrupted(inst, models, base_eval, seed, 5)
            for count in (0, 2, 5):
                sequence = models + corrupted[:count]
                reference.extend(evaluate_methods(cfg, inst, sequence, beta, seed, count=count))
        assert not table.has_failures
        assert [repr(dataclasses.asdict(r)) for r in table.rows] == [
            repr(dataclasses.asdict(r)) for r in reference
        ]

    def test_sinc_rejected(self):
        with pytest.raises(ConfigError, match="classification"):
            run_sensitivity(ExperimentConfig(**SINC_SMALL))

    def test_negative_counts_rejected(self):
        cfg = ExperimentConfig(**MOONS_SMALL)
        with pytest.raises(ConfigError, match="counts: must be non-negative"):
            run_sensitivity(dataclasses.replace(cfg, counts=(-1,)))


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
    full = empirical_gram(stack_predictions(models, xs))
    lead = empirical_gram(stack_predictions(models[:prefix], xs))
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


class TestCorrelation:
    def test_row_structure(self):
        cfg = ExperimentConfig(**{**MOONS_SMALL, "seeds": (0, 1)}, methods=("iwa", "sor"))
        table = run_correlation(cfg)
        assert len(table.rows) == 4
        assert not table.has_failures
        for row in table.rows:
            assert -1.0 <= row.pearson_r <= 1.0
        summary = {entry["method"] for entry in correlation_summary(table)}
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

    def test_non_weight_methods_rejected(self):
        cfg = ExperimentConfig(**MOONS_SMALL, methods=("tmv",))
        with pytest.raises(ConfigError, match="weight-producing"):
            run_correlation(cfg)
        assert "tmv" not in WEIGHT_METHODS


class TestRateCheck:
    def test_row_structure(self):
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0,))
        table = run_rate_check(dataclasses.replace(cfg, sizes=(50, 120), oracle_draws=1500))
        assert table.extra["sizes"] == (50, 120)
        assert len(table.rows) == 2
        assert not table.has_failures
        medians = rate_medians(table)
        assert set(medians) == {50, 120}
        assert all(v >= 0 for v in medians.values())
        assert isinstance(rate_slope(table), float)
        for size, (q25, median, q75) in rate_spread(table).items():
            assert q25 <= median == medians[size] <= q75

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

    def test_requires_two_distinct_sizes(self):
        cfg = ExperimentConfig(dataset="sinc", n=80, l=2, seeds=(0,))
        with pytest.raises(ConfigError, match="sizes"):
            run_rate_check(dataclasses.replace(cfg, sizes=(100, 100)))


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
        medians = rate_medians(table)
        for row in rows[1:]:
            assert float(row[1]) == medians[int(float(row[0]))]
