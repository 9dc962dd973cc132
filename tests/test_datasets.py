"""Synthetic covariate-shift generators and the CSV instance loader."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg import datasets
from shiftagg.cli import main
from shiftagg.datasets import (
    MOONS_CENTROID,
    MOONS_EVAL_SIZE,
    MOONS_ROTATION_DEG,
    MOONS_TRANSLATION,
    SINC_NOISE_STD,
    SINC_RULE_NODES,
    SINC_SOURCE_MEAN,
    SINC_TARGET_MEAN,
    DomainAdaptationInstance,
    _split_rngs,
    gauss_hermite,
    load_csv_instance,
    load_model_csv,
    make_sinc_shift,
    make_transformed_moons,
    moons_points,
    moons_transform,
    sinc_ratio,
    sinc_sigmas,
)
from shiftagg.errors import CsvFormatError, DimensionError
from shiftagg.metrics import one_hot


class TestSincShift:
    def test_noise_free_labels_are_sinc(self):
        # Source labels are the sinc plus SINC_NOISE_STD draws from the
        # source stream; the quadrature rule's labels are the sinc itself.
        inst = make_sinc_shift(50, 50, seed=3)
        rng_source = _split_rngs(3)[0]
        source_x = rng_source.normal(SINC_SOURCE_MEAN, sinc_sigmas(True)[0], size=(50, 1))
        noise = rng_source.normal(0.0, SINC_NOISE_STD, size=(50, 1))
        assert inst.source_y.tobytes() == (np.sinc(source_x) + noise).tobytes()
        assert np.array_equal(inst.target_eval_y, np.sinc(inst.target_eval_x))

    def test_deterministic_per_seed(self):
        a = make_sinc_shift(20, 30, seed=7)
        b = make_sinc_shift(20, 30, seed=7)
        assert np.array_equal(a.source_x, b.source_x)
        assert np.array_equal(a.source_y, b.source_y)
        assert np.array_equal(a.target_x, b.target_x)
        assert np.array_equal(a.target_eval_y, b.target_eval_y)

    def test_different_seeds_differ(self):
        a = make_sinc_shift(20, 20, seed=0)
        b = make_sinc_shift(20, 20, seed=1)
        assert not np.array_equal(a.source_x, b.source_x)

    def test_split_means_within_sampling_error(self):
        inst = make_sinc_shift(4000, 4000, seed=5)
        source_std, target_std = sinc_sigmas(True)
        # 4 standard errors of the mean
        assert abs(inst.source_x.mean() - SINC_SOURCE_MEAN) < 4 * source_std / 63.0
        assert abs(inst.target_x.mean() - SINC_TARGET_MEAN) < 4 * target_std / 63.0

    def test_width_readings(self):
        assert sinc_sigmas(True) == (0.25, 0.25)
        assert sinc_sigmas(False) == (0.5, 0.25)
        wide = make_sinc_shift(20000, 10, seed=2, interpret_std=False)
        narrow = make_sinc_shift(20000, 10, seed=2, interpret_std=True)
        assert wide.source_x.std() > 1.5 * narrow.source_x.std()

    def test_ratio_matches_generator_parameters(self):
        beta = sinc_ratio(interpret_std=False)
        assert beta.source_mean == SINC_SOURCE_MEAN
        assert beta.target_mean == SINC_TARGET_MEAN
        assert (beta.source_std, beta.target_std) == sinc_sigmas(False)

    def test_shapes_and_properties(self):
        inst = make_sinc_shift(12, 8, seed=0)
        assert (inst.source_x.shape[0], inst.target_x.shape[0]) == (12, 8)
        assert inst.input_dim == 1
        assert inst.label_dim == 1
        assert inst.target_eval_y.shape == (SINC_RULE_NODES, 1)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_sinc_shift(0, 5)


def _normal_moments(mean, std, count):
    """E[X^j] of N(mean, std^2) for j < count.

    By the recurrence E[X^j] = mean E[X^(j-1)] + (j-1) std^2 E[X^(j-2)].
    """
    moments = [1.0, mean]
    for j in range(2, count):
        moments.append(mean * moments[-1] + (j - 1) * std**2 * moments[-2])
    return moments[:count]


class TestGaussHermite:
    @pytest.mark.parametrize("count", [1, 2, 5, 20, 80])
    @pytest.mark.parametrize("mean,std", [(0.0, 1.0), (2.0, 0.25), (1.0, 0.5)])
    def test_reproduces_the_normal_moments(self, count, mean, std):
        nodes, weights = gauss_hermite(count, mean, std)
        assert nodes.shape == weights.shape == (count,)
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-15
        # Exact for degree <= 2 count - 1; odd moments of N(0, 1) are zero, so
        # the error is measured against E|X|^j under the rule.
        for j, moment in enumerate(_normal_moments(mean, std, 2 * count)):
            scale = float(weights @ np.abs(nodes) ** j)
            assert abs(float(weights @ nodes**j) - moment) <= 1e-12 * max(scale, abs(moment))

    @pytest.mark.parametrize("count", [1, 3, 10, 80, 160])
    def test_matches_numpy_hermegauss(self, count):
        from numpy.polynomial import hermite_e

        reference_nodes, reference_weights = hermite_e.hermegauss(count)
        nodes, weights = gauss_hermite(count, SINC_TARGET_MEAN, 0.25)
        assert np.max(np.abs(nodes - (SINC_TARGET_MEAN + 0.25 * reference_nodes))) <= 1e-12
        assert np.max(np.abs(weights - reference_weights / reference_weights.sum())) <= 1e-12

    def test_returned_arrays_are_the_callers(self):
        nodes, weights = gauss_hermite(5)
        nodes[:] = 0.0
        weights[:] = 0.0
        again_nodes, again_weights = gauss_hermite(5)
        assert np.all(again_weights > 0) and np.unique(again_nodes).size == 5

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError, match="count"):
            gauss_hermite(0)
        with pytest.raises(ValueError, match="std"):
            gauss_hermite(3, 0.0, 0.0)
        for std in (np.nan, np.inf):
            with pytest.raises(ValueError, match="std"):
                gauss_hermite(3, 0.0, std)
        with pytest.raises(ValueError, match="mean"):
            gauss_hermite(3, np.nan)

    @pytest.mark.parametrize("count", [2.5, 3.0, np.inf, np.nan, "3", None])
    def test_count_must_be_an_integer(self, count):
        # Like a softmax fit's epochs: an integer >= 1, never truncated.
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            gauss_hermite(count)

    def test_numpy_integer_count_accepted(self):
        nodes, weights = gauss_hermite(np.int64(4))
        expected_nodes, expected_weights = gauss_hermite(4)
        assert np.array_equal(nodes, expected_nodes) and np.array_equal(weights, expected_weights)


class TestSincRuleSplit:
    def test_eval_split_is_the_target_rule(self):
        for interpret_std in (True, False):
            inst = make_sinc_shift(30, 40, seed=4, interpret_std=interpret_std)
            target_std = sinc_sigmas(interpret_std)[1]
            nodes, weights = gauss_hermite(SINC_RULE_NODES, SINC_TARGET_MEAN, target_std)
            assert np.array_equal(inst.target_eval_x[:, 0], nodes)
            assert np.array_equal(inst.target_eval_y, np.sinc(inst.target_eval_x))
            assert np.array_equal(inst.target_eval_weights, weights)
            assert inst.eval_noise_var == SINC_NOISE_STD**2

    def test_source_and_target_draws_unchanged(self):
        # The rule draws nothing: the target inputs are the second child
        # stream's first draw, as when the third stream drew an eval sample.
        inst = make_sinc_shift(30, 40, seed=4)
        rng_target = _split_rngs(4)[1]
        target_x = rng_target.normal(SINC_TARGET_MEAN, sinc_sigmas(True)[1], size=(40, 1))
        assert inst.target_x.tobytes() == target_x.tobytes()

    def test_bad_eval_weights_rejected(self):
        inst = make_sinc_shift(5, 5, seed=0)
        with pytest.raises(DimensionError, match="target_eval_weights"):
            dataclasses.replace(inst, target_eval_weights=np.full(3, 1 / 3)).validate()
        with pytest.raises(ValueError, match="sum to one"):
            bad = np.full(SINC_RULE_NODES, 0.5)
            dataclasses.replace(inst, target_eval_weights=bad).validate()
        with pytest.raises(ValueError, match="eval_noise_var"):
            dataclasses.replace(inst, eval_noise_var=-1.0).validate()


class TestMoonsGeometry:
    def test_noise_free_points_sit_on_arcs(self, monkeypatch):
        monkeypatch.setattr(datasets, "MOONS_NOISE", 0.0)
        rng = np.random.default_rng(0)
        points, labels = moons_points(40, rng)
        upper = points[labels == 0]
        lower = points[labels == 1]
        assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-9)
        assert np.all(upper[:, 1] >= -1e-12)
        shifted = lower - np.array([1.0, 0.5])
        assert np.allclose(np.linalg.norm(shifted, axis=1), 1.0, atol=1e-9)
        assert np.all(shifted[:, 1] <= 1e-12)

    def test_class_balance_rounds_up_for_class_zero(self):
        rng = np.random.default_rng(1)
        _, labels = moons_points(7, rng)
        assert (labels == 0).sum() == 4
        assert (labels == 1).sum() == 3

    def test_transform_moves_centroid_by_translation(self):
        # The rotation pivots on the centroid, so the centroid itself only
        # feels the translation.
        center = np.array([MOONS_CENTROID])
        moved = moons_transform(center, rotation_deg=90.0)
        assert np.allclose(moved, center + MOONS_TRANSLATION, atol=1e-12)

    def test_rotation_preserves_pairwise_distances(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(10, 2))
        mapped = moons_transform(points, rotation_deg=35.0)
        original = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        transformed = np.linalg.norm(mapped[:, None] - mapped[None, :], axis=2)
        assert np.allclose(original, transformed, atol=1e-9)

    def test_invalid_arguments_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="count"):
            moons_points(0, rng)


class TestTransformedMoons:
    def test_target_supports_are_transformed_arcs(self, monkeypatch):
        # Undo the map by hand: subtract the translation, then rotate back by
        # the default angle about the centroid.
        monkeypatch.setattr(datasets, "MOONS_NOISE", 0.0)
        points, labels = moons_points(30, np.random.default_rng(4))
        angle = math.radians(-MOONS_ROTATION_DEG)
        undo = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        center = np.asarray(MOONS_CENTROID)
        centered = moons_transform(points) - np.asarray(MOONS_TRANSLATION) - center
        back = centered @ undo.T + center
        upper, lower = back[labels == 0], back[labels == 1] - np.array([1.0, 0.5])
        assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-9)
        assert np.all(upper[:, 1] >= -1e-9)
        assert np.allclose(np.linalg.norm(lower, axis=1), 1.0, atol=1e-9)
        assert np.all(lower[:, 1] <= 1e-9)

    def test_source_is_untransformed(self):
        # Each split is moons_points at MOONS_NOISE on its own stream; only
        # the target and eval points go through moons_transform.
        inst = make_transformed_moons(30, 10, seed=4)
        rng_source, rng_target, rng_eval = _split_rngs(4)
        source, source_labels = moons_points(30, rng_source)
        target, _ = moons_points(10, rng_target)
        evals, eval_labels = moons_points(MOONS_EVAL_SIZE, rng_eval)
        assert inst.source_x.tobytes() == source.tobytes()
        assert inst.target_x.tobytes() == moons_transform(target).tobytes()
        assert inst.target_eval_x.tobytes() == moons_transform(evals).tobytes()
        assert np.array_equal(inst.source_y, one_hot(source_labels, 2))
        assert np.array_equal(inst.target_eval_y, one_hot(eval_labels, 2))

    def test_labels_are_one_hot(self):
        inst = make_transformed_moons(21, 10, seed=6)
        assert inst.label_dim == 2
        assert np.array_equal(np.sort(np.unique(inst.source_y)), [0.0, 1.0])
        assert np.array_equal(inst.source_y.sum(axis=1), np.ones(21))

    def test_deterministic_per_seed(self):
        a = make_transformed_moons(15, 15, seed=9)
        b = make_transformed_moons(15, 15, seed=9)
        assert np.array_equal(a.source_x, b.source_x)
        assert np.array_equal(a.target_x, b.target_x)
        assert np.array_equal(a.target_eval_y, b.target_eval_y)

    def test_custom_rotation_respected(self):
        # With no rotation, the target draws are only translated.
        straight = make_transformed_moons(10, 40, seed=1, rotation_deg=0.0)
        target, _ = moons_points(40, _split_rngs(1)[1])
        assert np.allclose(straight.target_x, target + MOONS_TRANSLATION, atol=1e-12)
        turned = make_transformed_moons(10, 40, seed=1, rotation_deg=90.0)
        assert np.array_equal(turned.target_x, moons_transform(target, rotation_deg=90.0))


class TestOneHot:
    def test_basic_encoding(self):
        assert np.array_equal(one_hot([1, 0, 2], 3), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            one_hot([0, 3], 3)
        with pytest.raises(ValueError, match="labels"):
            one_hot([-1], 2)

    def test_fractional_labels_rejected(self):
        # An int cast would read 0.7 and 1.9 as classes 0 and 1.
        with pytest.raises(ValueError, match="integers"):
            one_hot([0.7, 1.9], 2)
        with pytest.raises(ValueError, match="integers"):
            one_hot([0.0, np.nan], 2)

    def test_integral_floats_scalar_and_empty(self):
        assert np.array_equal(one_hot([1.0, 0.0], 2), [[0, 1], [1, 0]])
        assert np.array_equal(one_hot(2, 3), [0, 0, 1])
        assert one_hot([], 3).shape == (0, 3)


class TestInstanceValidation:
    def test_nan_entries_rejected(self):
        inst = make_sinc_shift(5, 5, seed=0)
        poisoned = dataclasses.replace(
            inst, target_eval_y=np.full_like(inst.target_eval_y, np.nan)
        )
        with pytest.raises(ValueError, match="non-finite"):
            poisoned.validate()

    def test_row_count_mismatch_rejected(self):
        inst = make_sinc_shift(5, 5, seed=0)
        broken = dataclasses.replace(inst, source_y=inst.source_y[:3])
        with pytest.raises(DimensionError, match="row counts"):
            broken.validate()
        broken = dataclasses.replace(inst, target_eval_y=inst.target_eval_y[:3])
        with pytest.raises(DimensionError, match="target_eval_x and target_eval_y row counts"):
            broken.validate()

    def test_input_dim_mismatch_rejected(self):
        inst = make_sinc_shift(5, 5, seed=0)
        broken = dataclasses.replace(inst, target_x=np.zeros((5, 2)))
        with pytest.raises(DimensionError, match="input dimensions"):
            broken.validate()

    def test_label_dim_mismatch_rejected(self):
        inst = make_sinc_shift(5, 5, seed=0)
        broken = dataclasses.replace(inst, target_eval_y=np.zeros((SINC_RULE_NODES, 2)))
        with pytest.raises(DimensionError, match="label dimensions"):
            broken.validate()


def _write_split(path, x, y=None):
    """One split file in the loader's format: ``x0,...`` then ``y0,...`` columns."""
    columns = [x] if y is None else [x, y]
    header = [f"{name}{i}" for name, mat in zip("xy", columns) for i in range(mat.shape[1])]
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in np.hstack(columns)]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_instance(instance, source_path, target_path, eval_path):
    _write_split(source_path, instance.source_x, instance.source_y)
    _write_split(target_path, instance.target_x)
    _write_split(eval_path, instance.target_eval_x, instance.target_eval_y)


class TestCsvRoundTrip:
    def paths(self, tmp_path):
        return (
            str(tmp_path / "source.csv"),
            str(tmp_path / "target.csv"),
            str(tmp_path / "eval.csv"),
        )

    def test_round_trip_is_bitwise(self, tmp_path):
        inst = make_transformed_moons(9, 7, seed=11)
        paths = self.paths(tmp_path)
        write_instance(inst, *paths)
        loaded = load_csv_instance(*paths)
        assert np.array_equal(loaded.source_x, inst.source_x)
        assert np.array_equal(loaded.source_y, inst.source_y)
        assert np.array_equal(loaded.target_x, inst.target_x)
        assert np.array_equal(loaded.target_eval_x, inst.target_eval_x)
        assert np.array_equal(loaded.target_eval_y, inst.target_eval_y)

    def test_three_class_instance_runs_the_study(self, tmp_path):
        # Three shifted Gaussian classes: the CSV path is the one study that
        # trains a ladder of more than two classes.
        rng = np.random.default_rng(3)
        centres = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])

        def draw(rows, shift):
            labels = rng.integers(0, 3, size=rows)
            return centres[labels] + shift + rng.normal(size=(rows, 2)), one_hot(labels, 3)

        (source_x, source_y), (target_x, _), (eval_x, eval_y) = (
            draw(300, 0.0), draw(300, 0.5), draw(500, 0.5))
        paths = self.paths(tmp_path)
        write_instance(DomainAdaptationInstance(source_x, source_y, target_x, eval_x, eval_y),
                       *paths)
        args = ["run", "--dataset", "csv", "--source-csv", paths[0], "--target-csv", paths[1],
                "--eval-csv", paths[2], "--seeds", "0", "--l", "14"]
        runs = []
        for out in ("first", "second"):
            assert main(args + ["--out", str(tmp_path / out)]) == 0
            runs.append(json.loads((tmp_path / out / "results.json").read_text())["rows"])
        assert len(runs[0]) == 10 and runs[0] == runs[1]
        for row in runs[0]:
            assert row.get("error") in (None, "")
            assert math.isfinite(row["risk"]) and math.isfinite(row["excess"])

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv_instance(
                str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv")
            )

    def test_field_count_error_names_line(self, tmp_path):
        paths = self.paths(tmp_path)
        write_instance(make_sinc_shift(3, 3, seed=0), *paths)
        with open(paths[0], "a") as handle:
            handle.write("1.0\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            load_csv_instance(*paths)

    def test_unparseable_number_names_line(self, tmp_path):
        paths = self.paths(tmp_path)
        write_instance(make_sinc_shift(3, 3, seed=0), *paths)
        with open(paths[1], "a") as handle:
            handle.write("abc\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            load_csv_instance(*paths)

    def test_bad_header_names_line_one(self, tmp_path):
        paths = self.paths(tmp_path)
        write_instance(make_sinc_shift(3, 3, seed=0), *paths)
        body = open(paths[0]).read().splitlines()[1:]
        with open(paths[0], "w") as handle:
            handle.write("\n".join(["a,b"] + body) + "\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_csv_instance(*paths)

    def test_unlabeled_file_must_not_carry_labels(self, tmp_path):
        paths = self.paths(tmp_path)
        write_instance(make_sinc_shift(3, 3, seed=0), *paths)
        # hand the labeled source file in as the target split
        with pytest.raises(CsvFormatError, match="line 1"):
            load_csv_instance(paths[0], paths[0], paths[2])

    def test_empty_file_rejected(self, tmp_path):
        paths = self.paths(tmp_path)
        write_instance(make_sinc_shift(3, 3, seed=0), *paths)
        open(paths[2], "w").close()
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv_instance(*paths)

    def test_header_only_file_rejected(self, tmp_path):
        paths = self.paths(tmp_path)
        write_instance(make_sinc_shift(3, 3, seed=0), *paths)
        with open(paths[1], "w") as handle:
            handle.write("x0\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv_instance(*paths)

    def test_split_dimension_mismatch_rejected(self, tmp_path):
        source = make_sinc_shift(3, 3, seed=0)
        moons = make_transformed_moons(3, 3, seed=0)
        s_paths = self.paths(tmp_path)
        write_instance(source, *s_paths)
        m_target = str(tmp_path / "moons_target.csv")
        write_instance(moons, str(tmp_path / "ms.csv"), m_target, str(tmp_path / "me.csv"))
        with pytest.raises(CsvFormatError, match="input dimensions"):
            load_csv_instance(s_paths[0], m_target, s_paths[2])

    def test_split_label_width_mismatch_names_the_three_files(self, tmp_path):
        paths = self.paths(tmp_path)
        write_instance(make_sinc_shift(3, 3, seed=0), *paths)
        with open(paths[2], "w") as handle:
            handle.write("x0,y0,y1\n0.5,1,0\n")
        with pytest.raises(CsvFormatError, match="label dimensions") as err:
            load_csv_instance(*paths)
        assert all(path in str(err.value) for path in paths)

    def test_two_row_minimal_instance(self, tmp_path):
        paths = self.paths(tmp_path)
        inst = make_sinc_shift(2, 2, seed=1)
        write_instance(inst, *paths)
        loaded = load_csv_instance(*paths)
        assert loaded.source_x.shape[0] == 2 and loaded.target_x.shape[0] == 2


def _load_as_source_split(path):
    (path.parent / "target.csv").write_text("x0,x1\n0,0\n")
    (path.parent / "eval.csv").write_text("x0,x1,y0\n0,0,1\n")
    load_csv_instance(path, path.parent / "target.csv", path.parent / "eval.csv")


# Each loader with its header and one good row; the malformed bodies below
# are built from them, so both loaders read the same faults.
LOADERS = {
    "split": (_load_as_source_split, "x0,x1,y0", "0,1,2"),
    "table": (load_model_csv, "split,index,y0", "source,0,2"),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize(
    "body, line, message",
    [
        ("", None, "file is empty"),
        ("{header}\n{good}\n{short}\n", 3, "expected 3 fields, got 2"),
        ("{header}\n{good}\n{bad}\n", 3, "unparseable number"),
        ("{header}\n\n{good}\n\n{short}\n", 5, "expected 3 fields, got 2"),
        ("{header}\n{good}\n{short},nan\n", 3, "non-finite number 'nan'"),
        ("{header}\n{short},-inf\n", 2, "non-finite number '-inf'"),
        ('{header}\n{short},"2\n"\n{bad}\n', 4, "unparseable number"),
    ],
    ids=["empty", "short-row", "bad-number", "blank-lines-skipped", "nan-cell", "inf-cell",
         "quoted-newline"],
)
def test_loaders_cite_the_same_line(tmp_path, loader, body, line, message):
    load, header, good = LOADERS[loader]
    key = good.rsplit(",", 1)[0]
    path = tmp_path / "data.csv"
    path.write_text(body.format(header=header, good=good, short=key, bad=f"{key},oops"))
    with pytest.raises(CsvFormatError, match=message) as err:
        load(path)
    assert err.value.line == line


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loaders_reject_a_file_that_is_not_utf8(tmp_path, loader):
    load, header, good = LOADERS[loader]
    path = tmp_path / "data.csv"
    path.write_bytes(f"{header}\n{good}\n".encode() + b"\xff\xfe\x00\x01\n")
    with pytest.raises(CsvFormatError, match="not UTF-8 text") as err:
        load(path)
    assert err.value.path == path


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loaders_read_past_a_utf8_byte_order_mark(tmp_path, loader):
    # Spreadsheets write one in front of a "CSV UTF-8" export's header.
    load, header, good = LOADERS[loader]
    path = tmp_path / "data.csv"
    path.write_bytes(f"{header}\n{good}\n".encode("utf-8-sig"))
    load(path)


@given(st.integers(0, 2**31 - 1), st.integers(1, 30), st.integers(1, 30))
def test_sinc_generator_is_seed_deterministic(seed, n, m):
    a = make_sinc_shift(n, m, seed=seed)
    b = make_sinc_shift(n, m, seed=seed)
    assert np.array_equal(a.source_x, b.source_x)
    assert np.array_equal(a.target_x, b.target_x)

