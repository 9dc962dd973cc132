"""SVG chart emission: XML validity, companion-CSV fidelity, determinism."""

import csv
import hashlib
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from shiftagg.plots import bar_chart, box_plot, line_chart


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestBarChart:
    def test_svg_parses_and_has_one_bar_per_label(self, tmp_path):
        path = str(tmp_path / "bars.svg")
        bar_chart(path, ["a", "b", "c"], [1.0, -0.5, 2.0], title="t", y_label="y")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        bars = [el for el in root.iter() if el.tag.endswith("rect")]
        # background rectangle plus one bar per value
        assert len(bars) == 4

    def test_companion_csv_holds_plotted_values(self, tmp_path):
        path = str(tmp_path / "bars.svg")
        values = [0.25, 1.0 / 3.0]
        bar_chart(path, ["x", "y"], values, title="t", y_label="y")
        header, rows = read_csv(str(tmp_path / "bars.csv"))
        assert header == ["label", "value"]
        assert [r[0] for r in rows] == ["x", "y"]
        assert [float(r[1]) for r in rows] == values

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        bar_chart(a, ["m"], [0.7], title="t", y_label="y")
        bar_chart(b, ["m"], [0.7], title="t", y_label="y")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bar_chart(str(tmp_path / "x.svg"), ["a"], [1.0, 2.0], title="t", y_label="y")
        with pytest.raises(ValueError):
            bar_chart(str(tmp_path / "x.svg"), [], [], title="t", y_label="y")


class TestLineChart:
    def test_svg_has_one_polyline_per_series(self, tmp_path):
        path = str(tmp_path / "lines.svg")
        line_chart(
            path,
            [1, 2, 3],
            {"p": [[0.1], [0.2], [0.3]], "q": [[0.3], [0.2], [0.1]]},
            title="t",
            x_label="x",
            y_label="y",
        )
        root = ET.parse(path).getroot()
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_band_emits_polygon_with_closed_loop(self, tmp_path):
        path = str(tmp_path / "band.svg")
        line_chart(
            path,
            [1, 2],
            {"p": [[0.4, 0.5, 0.6], [0.5, 0.6, 0.7]]},
            title="t",
            x_label="x",
            y_label="y",
        )
        root = ET.parse(path).getroot()
        polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
        assert len(polygons) == 1
        # forward pass plus backward pass: 2 * len(x_values) vertices
        assert len(polygons[0].get("points").split()) == 4

    def test_companion_csv_round_trips_series_and_bands(self, tmp_path):
        path = str(tmp_path / "lines.svg")
        xs = [250.0, 1000.0]
        med = [0.5, 0.25]
        lo = [0.4, 0.2]
        hi = [0.6, 0.3]
        line_chart(
            path,
            xs,
            {"dev": [[lo[i], lo[i], med[i], hi[i], hi[i]] for i in range(len(xs))]},
            title="t",
            x_label="n",
            y_label="d",
            log_x=True,
        )
        header, rows = read_csv(str(tmp_path / "lines.csv"))
        assert header == ["x", "dev", "dev_lo", "dev_hi"]
        parsed = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(parsed[:, 0], xs)
        assert np.array_equal(parsed[:, 1], med)
        assert np.array_equal(parsed[:, 2], lo)
        assert np.array_equal(parsed[:, 3], hi)

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            line_chart(
                str(tmp_path / "x.svg"),
                [1, 2, 3],
                {"p": [[1.0]]},
                title="t",
                x_label="x",
                y_label="y",
            )

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            line_chart(str(tmp_path / "x.svg"), [], {}, title="t", x_label="x", y_label="y")

    def test_companion_csv_holds_each_samples_quartiles(self, tmp_path):
        path = str(tmp_path / "lines.svg")
        samples = [[0.1, 0.4, 0.2, 0.9], [-1.0, 0.0, 1.0], [5.0]]
        line_chart(path, [1, 2, 3], {"acc": samples}, title="t", x_label="x", y_label="y")
        header, rows = read_csv(str(tmp_path / "lines.csv"))
        assert header == ["x", "acc", "acc_lo", "acc_hi"]
        for row, values in zip(rows, samples):
            assert float(row[1]) == np.median(values)
            assert float(row[2]) == np.percentile(values, 25)
            assert float(row[3]) == np.percentile(values, 75)

    def test_empty_sample_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no samples"):
            line_chart(str(tmp_path / "x.svg"), [1, 2], {"s": [[1.0], []]},
                       title="t", x_label="x", y_label="y")


class TestBoxPlot:
    def test_companion_csv_quartiles_recompute(self, tmp_path):
        path = str(tmp_path / "box.svg")
        samples = [np.array([0.1, 0.4, 0.2, 0.9]), np.array([-1.0, 0.0, 1.0])]
        box_plot(path, ["iwa", "sor"], samples, title="t", y_label="r")
        header, rows = read_csv(str(tmp_path / "box.csv"))
        assert header == ["label", "min", "q1", "median", "q3", "max"]
        for row, values in zip(rows, samples):
            assert float(row[1]) == values.min()
            assert float(row[2]) == np.percentile(values, 25)
            assert float(row[3]) == np.median(values)
            assert float(row[4]) == np.percentile(values, 75)
            assert float(row[5]) == values.max()

    def test_svg_parses_with_box_per_label(self, tmp_path):
        path = str(tmp_path / "box.svg")
        box_plot(path, ["a", "b"], [[1.0, 2.0], [3.0, 4.0]], title="t", y_label="y")
        root = ET.parse(path).getroot()
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) == 3  # background + two boxes

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        box_plot(a, ["m"], [[0.1, 0.9]], title="t", y_label="y")
        box_plot(b, ["m"], [[0.1, 0.9]], title="t", y_label="y")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_sample_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no samples"):
            box_plot(str(tmp_path / "x.svg"), ["a"], [[]], title="t", y_label="y")

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            box_plot(str(tmp_path / "x.svg"), ["a", "b"], [[1.0]], title="t", y_label="y")


def test_all_charts_start_with_xml_declaration(tmp_path):
    bar = str(tmp_path / "bar.svg")
    bar_chart(bar, ["a"], [1.0], title="t", y_label="y")
    line = str(tmp_path / "line.svg")
    line_chart(line, [1, 2], {"s": [[1.0], [2.0]]}, title="t", x_label="x", y_label="y")
    box = str(tmp_path / "box.svg")
    box_plot(box, ["a"], [[1.0, 2.0]], title="t", y_label="y")
    for path in (bar, line, box):
        assert open(path).read(5) == "<?xml"


# sha256 of each chart and its companion CSV for the fixed inputs below; a
# change to any byte of the emitted files (element order, number formatting,
# CSV layout) changes a digest.
PINNED_DIGESTS = {
    "bar.svg": "98ce374ea6ce3739939f4583172f840aaae578fddd380be022b492f0d298371f",
    "bar.csv": "aa593ffe50ac061f3887ea1f64f02ef52c99da0d343df4165a89cf0897e0c421",
    "line.svg": "84a1cef541ced5a5337fdbee44a29eaf9a0b9b59ca19472150df287641d4faa1",
    "line.csv": "1140f506f116abdb6f796b2b3840856d3c1ef7cc8c07f4da873f89268fd05764",
    "box.svg": "ba681170386427a55405cc290c437cda10d4825c333b958a5f7582c09e16b7a2",
    "box.csv": "19261832add5176e1806d88cb0f9f204205304afa5b062378603b5571de01e44",
}


def test_chart_bytes_pinned(tmp_path):
    bar_chart(
        str(tmp_path / "bar.svg"), ["iwa", "sor", "tmv"], [0.75, -0.25, 1.5],
        title="Bars", y_label="risk",
    )
    # each x's sample [lo, lo, mid, hi, hi] has exactly lo, mid and hi as its quartiles
    bands = {"iwa": ([0.25, 0.12, 0.06], [0.3, 0.15, 0.08], [0.36, 0.19, 0.1]),
             "sor": ([0.38, 0.3, 0.27], [0.4, 0.35, 0.3], [0.45, 0.4, 0.33])}
    line_chart(
        str(tmp_path / "line.svg"),
        [250, 1000, 4000],
        {name: [[lo, lo, mid, hi, hi] for lo, mid, hi in zip(*band)]
         for name, band in bands.items()},
        title="Lines",
        x_label="n = m",
        y_label="deviation",
        log_x=True,
    )
    box_plot(
        str(tmp_path / "box.svg"), ["iwa", "tcr"], [[0.9, 0.4, 0.7, 0.95], [-0.2, 0.1, 0.5]],
        title="Boxes", y_label="Pearson r",
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_DIGESTS
    }
    assert digests == PINNED_DIGESTS


def _coordinates(root):
    """Every numeric position attribute and polyline point of an SVG tree."""
    values = []
    for el in root.iter():
        for name in ("x", "y", "x1", "y1", "x2", "y2", "width", "height"):
            if name in el.attrib:
                values.append(float(el.attrib[name]))
        for point in el.attrib.get("points", "").split():
            values.extend(float(v) for v in point.split(","))
    return values


@pytest.mark.parametrize("value", [1e17, -1e17, 1e300])
def test_constant_samples_of_large_magnitude_stay_on_the_canvas(tmp_path, value):
    bar_chart(str(tmp_path / "bar.svg"), ["a"], [value], title="t", y_label="y")
    line_chart(str(tmp_path / "line.svg"), [1, 2], {"s": [[value], [value]]},
               title="t", x_label="x", y_label="y")
    box_plot(str(tmp_path / "box.svg"), ["a"], [[value, value]], title="t", y_label="y")
    for name in ("bar.svg", "line.svg", "box.svg"):
        coords = _coordinates(ET.parse(tmp_path / name).getroot())
        assert coords and all(0 <= v <= 640 for v in coords), name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteDataRejected:
    def test_bar_value(self, tmp_path, bad):
        with pytest.raises(ValueError, match="non-finite y value"):
            bar_chart(str(tmp_path / "x.svg"), ["a", "b"], [1.0, bad], title="t", y_label="y")

    def test_line_y_value(self, tmp_path, bad):
        with pytest.raises(ValueError, match="non-finite y value"):
            line_chart(str(tmp_path / "x.svg"), [1, 2], {"s": [[1.0], [bad]]},
                       title="t", x_label="x", y_label="y")

    def test_line_band_value(self, tmp_path, bad):
        # an infinite value leaves the median 2.0 finite but not the band
        with pytest.raises(ValueError, match="non-finite y value"):
            line_chart(str(tmp_path / "x.svg"), [1, 2], {"s": [[1.0], [2.0, 2.0, 2.0, bad]]},
                       title="t", x_label="x", y_label="y")

    def test_line_x_value(self, tmp_path, bad):
        with pytest.raises(ValueError, match="x value"):
            line_chart(str(tmp_path / "x.svg"), [1.0, bad], {"s": [[1.0], [2.0]]},
                       title="t", x_label="x", y_label="y")

    def test_box_sample(self, tmp_path, bad):
        with pytest.raises(ValueError, match="non-finite y value"):
            box_plot(str(tmp_path / "x.svg"), ["a"], [[1.0, bad]], title="t", y_label="y")


def test_rejected_chart_writes_no_file(tmp_path):
    with pytest.raises(ValueError):
        bar_chart(str(tmp_path / "x.svg"), ["a"], [np.nan], title="t", y_label="y")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("draw", [
    lambda path: bar_chart(path, ["a", "b"], [1e308, -1e308], title="t", y_label="y"),
    lambda path: box_plot(path, ["a"], [[1e308, -1e308]], title="t", y_label="y"),
    lambda path: line_chart(path, [1e308, -1e308], {"s": [[1.0], [2.0]]},
                            title="t", x_label="x", y_label="y"),
    lambda path: line_chart(path, [1, 2], {"s": [[1e308], [-1e308]]},
                            title="t", x_label="x", y_label="y"),
], ids=["bar", "box", "line_x", "line_y"])
def test_span_that_overflows_a_float_is_rejected(tmp_path, draw):
    with pytest.raises(ValueError, match="span overflows"):
        draw(str(tmp_path / "x.svg"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("x", [0.0, -1.0])
def test_log_axis_rejects_x_at_or_below_zero(tmp_path, x):
    with pytest.raises(ValueError, match="log axis"):
        line_chart(str(tmp_path / "x.svg"), [x, 10.0], {"s": [[1.0], [2.0]]},
                   title="t", x_label="x", y_label="y", log_x=True)
