"""Covariate-shift instances, synthetic or read from CSV, and every CSV format the package reads.

An instance bundles a labeled source sample, unlabeled target inputs, and a
labeled held-out target evaluation split. Generators draw from numpy's
PCG64 (``default_rng``), a named, seedable generator with documented,
platform-stable streams; each split gets its own spawned child stream so
splits can be reasoned about independently.
"""

import csv
from dataclasses import dataclass
from functools import cache
import math
import numbers

import numpy as np

from . import metrics
from .density_ratio import GaussianRatio
from .errors import CsvFormatError, DimensionError, sample_matrix
from .models import PrecomputedModel


@dataclass(frozen=True)
class DomainAdaptationInstance:
    """Labeled source sample, unlabeled target inputs, labeled target eval split.

    The eval split is a sample unless ``target_eval_weights`` holds per-row
    probability weights: then it is a quadrature rule of the target law, its
    labels are the noise-free regression function, and ``eval_noise_var`` is
    the label-noise variance that a risk on it adds back.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_eval_x: np.ndarray
    target_eval_y: np.ndarray
    target_eval_weights: np.ndarray = None
    eval_noise_var: float = 0.0

    @property
    def input_dim(self):
        return self.source_x.shape[1]

    @property
    def label_dim(self):
        return self.source_y.shape[1]

    def validate(self):
        """Check shapes, non-emptiness, and finiteness; returns self."""
        mats = {
            "source_x": self.source_x,
            "source_y": self.source_y,
            "target_x": self.target_x,
            "target_eval_x": self.target_eval_x,
            "target_eval_y": self.target_eval_y,
        }
        for name, mat in mats.items():
            sample_matrix(mat, name, fitting=True)
        if self.source_y.shape[0] != self.source_x.shape[0]:
            raise DimensionError("source_x and source_y row counts differ")
        if self.target_eval_y.shape[0] != self.target_eval_x.shape[0]:
            raise DimensionError("target_eval_x and target_eval_y row counts differ")
        d1 = {self.source_x.shape[1], self.target_x.shape[1], self.target_eval_x.shape[1]}
        if len(d1) != 1:
            raise DimensionError(f"input dimensions disagree across splits: {sorted(d1)}")
        if self.source_y.shape[1] != self.target_eval_y.shape[1]:
            raise DimensionError("label dimensions disagree between source and eval splits")
        weights = self.target_eval_weights
        if weights is not None:
            if weights.shape != self.target_eval_x.shape[:1]:
                raise DimensionError(
                    f"target_eval_weights of shape {weights.shape} do not match "
                    f"{self.target_eval_x.shape[0]} eval rows"
                )
            if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):
                raise ValueError("target_eval_weights must be non-negative and sum to one")
        if not (math.isfinite(self.eval_noise_var) and self.eval_noise_var >= 0):
            raise ValueError(f"eval_noise_var must be finite and non-negative, "
                             f"got {self.eval_noise_var}")
        return self


def _orthonormal_hermite(x, degree):
    """(p_{degree-1}(x), p_degree(x)) of the orthonormal polynomials of N(0, 1)."""
    previous, current = np.zeros_like(x), np.ones_like(x)
    for j in range(degree):
        previous, current = current, (x * current - math.sqrt(j) * previous) / math.sqrt(j + 1)
    return previous, current


@cache
def _standard_rule(count):
    off_diagonal = np.sqrt(np.arange(1.0, count))
    jacobi = np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    nodes = np.linalg.eigvalsh(jacobi)
    previous, current = _orthonormal_hermite(nodes, count)
    nodes = nodes - current / (math.sqrt(count) * previous)
    previous, _ = _orthonormal_hermite(nodes, count)
    weights = 1.0 / (count * previous**2)
    nodes, weights = 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])
    weights /= weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_hermite(count, mean=0.0, std=1.0):
    """The ``count``-node Gauss-Hermite rule of N(mean, std^2): (nodes, weights).

    ``sum_k weights[k] * f(nodes[k])`` is E[f(X)] for every polynomial ``f``
    of degree at most ``2 * count - 1``; the weights sum to one. The nodes
    are the eigenvalues of the Jacobi matrix of the probabilists' Hermite
    polynomials (Golub & Welsch, 1969), polished by one Newton step. Each
    weight is ``1 / (count * p(x_k)^2)`` with ``p`` the orthonormal
    polynomial of degree ``count - 1``, which keeps the tail weights
    accurate relative to their own size; an eigenvector's first component
    is accurate only relative to the largest weight.
    """
    if not (isinstance(count, numbers.Integral) and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean}")
    if not 0 < std < math.inf:
        raise ValueError(f"std must be positive and finite, got {std}")
    nodes, weights = _standard_rule(int(count))
    return mean + std * nodes, weights.copy()


def _split_rngs(seed):
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(child) for child in children)


# --- sinc regression under a Gaussian mean shift -------------------------

SINC_SOURCE_MEAN = 1.0
SINC_TARGET_MEAN = 2.0
# The target's input std under both readings of the benchmark (see sinc_sigmas).
SINC_TARGET_STD = 0.25
SINC_NOISE_STD = 0.25
# Gauss-Hermite nodes that score a sinc run: a risk on them changes by at
# most 1e-12 when the nodes double.
SINC_RULE_NODES = 80


def sinc_sigmas(interpret_std=True):
    """Source/target input widths under the two readings of the benchmark.

    The benchmark writes the source as N(1, 1/4) and the target as
    N(2, (1/4)^2). ``interpret_std=True`` (default) reads both as standard
    deviations of 1/4. ``interpret_std=False`` reads both literally as
    variances: source std 1/2, target std 1/4 (the only reading under which
    the analytic density ratio is bounded).
    """
    return (0.25 if interpret_std else 0.5), SINC_TARGET_STD


def sinc_ratio(interpret_std=True):
    """Analytic density ratio matching make_sinc_shift's input distributions."""
    source_std, target_std = sinc_sigmas(interpret_std)
    return GaussianRatio(SINC_SOURCE_MEAN, source_std, SINC_TARGET_MEAN, target_std)


def make_sinc_shift(n, m, seed=0, *, interpret_std=True):
    """1-d regression instance: y = sin(pi x)/(pi x) + N(0, SINC_NOISE_STD^2).

    Source inputs ~ N(1, sigma_p^2), target inputs ~ N(2, sigma_q^2) with
    the sigmas given by ``sinc_sigmas(interpret_std)``. sinc(0) = 1.

    No eval sample is drawn: the eval split is the ``SINC_RULE_NODES``-node
    Gauss-Hermite rule of the target law, labeled with the noise-free sinc
    and carrying ``SINC_NOISE_STD^2`` as its noise variance, so that a risk
    on it is the exact target expectation.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    source_std, target_std = sinc_sigmas(interpret_std)
    rng_source, rng_target, _ = _split_rngs(seed)

    source_x = rng_source.normal(SINC_SOURCE_MEAN, source_std, size=(n, 1))
    source_y = np.sinc(source_x) + rng_source.normal(0.0, SINC_NOISE_STD, size=(n, 1))
    target_x = rng_target.normal(SINC_TARGET_MEAN, target_std, size=(m, 1))
    nodes, weights = gauss_hermite(SINC_RULE_NODES, SINC_TARGET_MEAN, target_std)
    eval_x = nodes[:, None]
    return DomainAdaptationInstance(
        source_x=source_x,
        source_y=source_y,
        target_x=target_x,
        target_eval_x=eval_x,
        target_eval_y=np.sinc(eval_x),
        target_eval_weights=weights,
        eval_noise_var=SINC_NOISE_STD**2,
    ).validate()


# --- transformed two-moons classification ---------------------------------

MOONS_ROTATION_DEG = 35.0
MOONS_TRANSLATION = (0.3, 0.2)
MOONS_NOISE = 0.1
# Rows of the labeled eval draw that scores a moons run (a sinc run scores on
# SINC_RULE_NODES).
MOONS_EVAL_SIZE = 2000
# Midpoint of the two arc centers (0, 0) and (1, 0.5); rotation pivots here.
MOONS_CENTROID = (0.5, 0.25)


def moons_points(count, rng):
    """Sample the two interleaved half-circle classes.

    Class 0 lies on the upper arc of the unit circle at the origin; class 1
    on the lower arc offset by (1, 0.5). Angles are uniform on [0, pi] and
    Gaussian jitter of scale MOONS_NOISE is added. Returns
    ``(points (count, 2), labels (count,))`` with class 0 first.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    n0 = -(-count // 2)
    n1 = count - n0
    t0 = rng.uniform(0.0, math.pi, size=n0)
    t1 = rng.uniform(0.0, math.pi, size=n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    points = np.vstack([upper, lower])
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return points + rng.normal(0.0, MOONS_NOISE, size=points.shape), labels


def _rotation(rotation_deg):
    angle = math.radians(rotation_deg)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def moons_transform(points, rotation_deg=MOONS_ROTATION_DEG):
    """Rotate about the arcs' centroid, then translate by MOONS_TRANSLATION (the target map)."""
    points = sample_matrix(points, "points", 2)
    center = np.asarray(MOONS_CENTROID)
    rot = _rotation(rotation_deg)
    return (points - center) @ rot.T + center + np.asarray(MOONS_TRANSLATION, dtype=float)


def make_transformed_moons(n, m, seed=0, *, rotation_deg=MOONS_ROTATION_DEG):
    """Two-moons classification with an affinely transformed target domain.

    Source points come straight from the moons generator at MOONS_NOISE;
    target and the MOONS_EVAL_SIZE eval points are fresh generator draws
    pushed through ``moons_transform`` (labels travel with their
    pre-images). Labels are one-hot over the two classes.
    """
    rng_source, rng_target, rng_eval = _split_rngs(seed)
    source_points, source_labels = moons_points(n, rng_source)
    target_points, _ = moons_points(m, rng_target)
    eval_points, eval_labels = moons_points(MOONS_EVAL_SIZE, rng_eval)
    return DomainAdaptationInstance(
        source_x=source_points,
        source_y=metrics.one_hot(source_labels, 2),
        target_x=moons_transform(target_points, rotation_deg),
        target_eval_x=moons_transform(eval_points, rotation_deg),
        target_eval_y=metrics.one_hot(eval_labels, 2),
    ).validate()


# --- CSV-backed instances --------------------------------------------------


def _read_csv(path, form, accepts):
    """Header and numbered rows of a CSV file: ``(header, [(lineno, fields), ...])``.

    Header cells are stripped of surrounding whitespace; a header that
    ``accepts`` rejects is reported against the expected ``form``. Blank rows
    are skipped, and every other row must have as many fields as the header.
    Each row is numbered by the physical line it starts on, so a quoted cell
    that holds a newline does not shift the lines cited after it.
    A file that is not UTF-8 text is a CsvFormatError too; a leading
    byte-order mark is skipped.
    """
    records, lineno = [], 1
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            for fields in reader:
                records.append((lineno, fields))
                lineno = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"not UTF-8 text: {exc.reason}", path=path) from None
    if not records:
        raise CsvFormatError("file is empty", path=path)
    header = [cell.strip() for cell in records[0][1]]
    if not accepts(header):
        raise CsvFormatError(f"expected header '{form}', got {','.join(header)}", path=path, line=1)
    rows = []
    for lineno, fields in records[1:]:
        if not fields:
            continue
        if len(fields) != len(header):
            raise CsvFormatError(
                f"expected {len(header)} fields, got {len(fields)}", path=path, line=lineno
            )
        rows.append((lineno, fields))
    return header, rows


def _parse_number(kind, text, path, lineno):
    """``kind(text)`` if it is a finite number, or a CsvFormatError citing the line."""
    try:
        value = kind(text)
    except (ValueError, OverflowError) as exc:
        raise CsvFormatError(f"unparseable number: {exc}", path=path, line=lineno) from None
    if kind is float and not math.isfinite(value):
        raise CsvFormatError(f"non-finite number {text.strip()!r}", path=path, line=lineno)
    return value


def _read_split(path, labeled):
    """Read one split CSV; returns (x, y) with y = None for unlabeled files."""

    def accepts(header):
        x_cols = header.index("y0") if "y0" in header else len(header)
        labels = header[x_cols:]
        return (
            x_cols > 0
            and header[:x_cols] == [f"x{i}" for i in range(x_cols)]
            and bool(labels) == labeled
            and labels == [f"y{i}" for i in range(len(labels))]
        )

    header, rows = _read_csv(path, "x0,...,y0,..." if labeled else "x0,...", accepts)
    if not rows:
        raise CsvFormatError("no data rows", path=path)
    x_cols = header.index("y0") if labeled else len(header)
    values = [[_parse_number(float, v, path, lineno) for v in fields] for lineno, fields in rows]
    x = np.asarray([row[:x_cols] for row in values], dtype=float)
    y = np.asarray([row[x_cols:] for row in values], dtype=float) if labeled else None
    return x, y


def load_model_csv(path):
    """A PrecomputedModel from a prediction-table CSV with header ``split,index,y0,...``.

    Indices are 64-bit integers; ``harness.build_models`` checks a table against its instance.
    """
    header, rows = _read_csv(
        path,
        "split,index,y0,...",
        lambda header: header[:3] == ["split", "index", "y0"]
        and header[2:] == [f"y{i}" for i in range(len(header) - 2)],
    )
    tables = {"source": {}, "target": {}}
    for lineno, (split, index, *values) in rows:
        split = split.strip()
        if split not in tables:
            raise CsvFormatError(f"unknown split {split!r}", path=path, line=lineno)
        index = _parse_number(np.int64, index, path, lineno)
        values = [_parse_number(float, v, path, lineno) for v in values]
        if index in tables[split]:
            raise CsvFormatError(
                f"duplicate entry for split '{split}', index {index}", path=path, line=lineno
            )
        tables[split][index] = np.asarray(values)
    return PrecomputedModel(tables, len(header) - 2)


def load_csv_instance(source_path, target_path, eval_path):
    """Instance from three CSV files: labeled source, unlabeled target, labeled eval.

    Labeled files carry header ``x0,...,y0,...``; the target file carries
    only x columns. Malformed rows are rejected with their line numbers, and
    splits whose x or y widths disagree with a CsvFormatError naming the
    three files; missing files raise FileNotFoundError.
    """
    source_x, source_y = _read_split(source_path, labeled=True)
    target_x, _ = _read_split(target_path, labeled=False)
    eval_x, eval_y = _read_split(eval_path, labeled=True)
    sx, tx, ex, sy, ey = (a.shape[1] for a in (source_x, target_x, eval_x, source_y, eval_y))
    if not sx == tx == ex or sy != ey:
        raise CsvFormatError(
            f"input dimensions (x columns) or label dimensions (y columns) disagree across"
            f" splits: {source_path} has {sx} x, {sy} y; {target_path} {tx} x;"
            f" {eval_path} {ex} x, {ey} y"
        )
    return DomainAdaptationInstance(
        source_x=source_x,
        source_y=source_y,
        target_x=target_x,
        target_eval_x=eval_x,
        target_eval_y=eval_y,
    ).validate()
