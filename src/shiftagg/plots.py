"""Static SVG chart emission with no rendering dependency.

Each chart writes two files: the SVG itself and a companion CSV holding
exactly the plotted data series, so every figure can be recomputed and
checked. Output is deterministic byte-for-byte for fixed inputs.
"""

import csv
import math
import os
from xml.etree import ElementTree as ET

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 48, 64

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _fmt(v):
    return f"{float(v):.6g}"


class _Frame:
    """Maps data coordinates into the plotting rectangle."""

    def __init__(self, x_domain, y_domain, log_x=False):
        self.log_x = log_x
        x_lo, x_hi = x_domain
        if log_x:
            x_lo, x_hi = math.log10(x_lo), math.log10(x_hi)
        y_lo, y_hi = y_domain
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def x(self, value):
        if self.log_x:
            value = math.log10(value)
        frac = (value - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def y(self, value):
        frac = (value - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_BOTTOM - frac * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)


def _x_label(root, x, text):
    """A label under the x axis, centred on pixel column ``x``."""
    label = ET.SubElement(
        root, "text", {"x": _fmt(x), "y": str(HEIGHT - MARGIN_BOTTOM + 16), "text-anchor": "middle"}
    )
    label.text = text


def _points(frame, xs, ys):
    """SVG point list of the data pairs (xs, ys)."""
    return " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(float(y)))}" for x, y in zip(xs, ys))


def _pad_domain(values):
    lo = float(min(values))
    hi = float(max(values))
    if lo == hi:
        # a constant sample gets a width its magnitude does not round away
        half = max(1.0, 0.5 * abs(lo))
        lo, hi = lo - half, hi + half
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


def _chart(path, title, x_domain, y_values, x_label, y_label, log_x=False):
    """Start a chart: background, caption and axes over the padded ``y_values``.

    Returns (root, frame, save); ``save(header, rows)`` writes the SVG to
    ``path`` and the companion CSV next to it.
    """
    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(WIDTH),
            "height": str(HEIGHT),
            "viewBox": f"0 0 {WIDTH} {HEIGHT}",
            "font-family": "sans-serif",
            "font-size": "12",
        },
    )
    ET.SubElement(root, "rect", {"width": str(WIDTH), "height": str(HEIGHT), "fill": "white"})
    caption = ET.SubElement(
        root, "text", {"x": str(WIDTH // 2), "y": "24", "text-anchor": "middle", "font-size": "15"}
    )
    caption.text = title
    frame = _Frame(x_domain, _pad_domain(y_values), log_x=log_x)
    axis_style = {"stroke": "#333333", "stroke-width": "1"}
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    ET.SubElement(root, "line", {"x1": str(x0), "y1": str(y0), "x2": str(x1), "y2": str(y0), **axis_style})
    ET.SubElement(root, "line", {"x1": str(x0), "y1": str(y0), "x2": str(x0), "y2": str(y1), **axis_style})
    for tick in np.linspace(frame.y_lo, frame.y_hi, 5):
        py = frame.y(tick)
        ET.SubElement(
            root,
            "line",
            {"x1": str(x0 - 4), "y1": _fmt(py), "x2": str(x1), "y2": _fmt(py),
             "stroke": "#cccccc", "stroke-width": "0.5"},
        )
        label = ET.SubElement(
            root, "text", {"x": str(x0 - 8), "y": _fmt(py + 4), "text-anchor": "end"}
        )
        label.text = _fmt(tick)
    xl = ET.SubElement(
        root, "text", {"x": str((x0 + x1) // 2), "y": str(HEIGHT - 16), "text-anchor": "middle"}
    )
    xl.text = x_label
    yl = ET.SubElement(
        root,
        "text",
        {
            "x": "18",
            "y": str((y0 + y1) // 2),
            "text-anchor": "middle",
            "transform": f"rotate(-90 18 {(y0 + y1) // 2})",
        },
    )
    yl.text = y_label

    def save(header, rows):
        ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)
        with open(os.path.splitext(path)[0] + ".csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    return root, frame, save


def bar_chart(path, labels, values, *, title, y_label):
    """Vertical bars, one per label. Companion CSV columns: label,value."""
    values = [float(v) for v in values]
    if len(labels) != len(values) or not values:
        raise ValueError("labels and values must be equal-length and non-empty")
    root, frame, save = _chart(path, title, (0.0, float(len(values))), values + [0.0], "", y_label)
    base = frame.y(max(0.0, frame.y_lo))
    span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    bar_w = 0.6 * span / len(values)
    for i, (label, value) in enumerate(zip(labels, values)):
        cx = frame.x(i + 0.5)
        top = frame.y(value)
        y = min(top, base)
        h = abs(base - top)
        ET.SubElement(
            root,
            "rect",
            {
                "x": _fmt(cx - bar_w / 2),
                "y": _fmt(y),
                "width": _fmt(bar_w),
                "height": _fmt(max(h, 0.5)),
                "fill": PALETTE[i % len(PALETTE)],
            },
        )
        _x_label(root, cx, str(label))
    return save(["label", "value"], [[l, f"{v:.17g}"] for l, v in zip(labels, values)])


def line_chart(path, x_values, series, *, title, x_label, y_label, bands=None, log_x=False):
    """One line per series; optional (lo, hi) bands drawn as translucent fills.

    ``series`` maps name -> y values aligned with ``x_values``; ``bands``
    maps name -> (lo, hi) lists. Companion CSV columns: x, then
    <name>[, <name>_lo, <name>_hi] per series.
    """
    x_values = [float(x) for x in x_values]
    if not x_values or not series:
        raise ValueError("need x values and at least one series")
    bands = bands or {}
    columns = [("x", x_values)]
    for name, ys in series.items():
        columns.append((name, ys))
        if name in bands:
            lo, hi = bands[name]
            columns += [(f"{name}_lo", lo), (f"{name}_hi", hi)]
    for name, values in columns:
        if len(values) != len(x_values):
            raise ValueError(f"series {name!r} length does not match x values")
    root, frame, save = _chart(
        path, title, (min(x_values), max(x_values)),
        [float(v) for _, values in columns[1:] for v in values], x_label, y_label, log_x,
    )
    for x in x_values:
        _x_label(root, frame.x(x), _fmt(x))
    for idx, (name, ys) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        if name in bands:
            lo, hi = bands[name]
            forward = _points(frame, x_values, lo)
            backward = _points(frame, x_values[::-1], list(hi)[::-1])
            ET.SubElement(
                root,
                "polygon",
                {"points": f"{forward} {backward}", "fill": color, "fill-opacity": "0.15",
                 "stroke": "none"},
            )
        ET.SubElement(
            root,
            "polyline",
            {"points": _points(frame, x_values, ys), "fill": "none", "stroke": color,
             "stroke-width": "2"},
        )
        legend_y = MARGIN_TOP + 16 * idx
        ET.SubElement(
            root,
            "line",
            {"x1": str(WIDTH - MARGIN_RIGHT - 120), "y1": str(legend_y),
             "x2": str(WIDTH - MARGIN_RIGHT - 96), "y2": str(legend_y),
             "stroke": color, "stroke-width": "2"},
        )
        label = ET.SubElement(
            root, "text", {"x": str(WIDTH - MARGIN_RIGHT - 90), "y": str(legend_y + 4)}
        )
        label.text = name
    header = [name for name, _ in columns]
    return save(header, zip(*([f"{float(v):.17g}" for v in values] for _, values in columns)))


def box_plot(path, labels, samples, *, title, y_label):
    """Quartile boxes with min/max whiskers, one per label.

    Companion CSV columns: label,min,q1,median,q3,max.
    """
    if len(labels) != len(samples) or not samples:
        raise ValueError("labels and samples must be equal-length and non-empty")
    stats = []
    for label, values in zip(labels, samples):
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError(f"no samples for {label!r}")
        stats.append(
            (
                str(label),
                float(values.min()),
                float(np.percentile(values, 25)),
                float(np.median(values)),
                float(np.percentile(values, 75)),
                float(values.max()),
            )
        )
    all_values = [v for row in stats for v in row[1:]]
    root, frame, save = _chart(path, title, (0.0, float(len(stats))), all_values, "", y_label)
    span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    box_w = 0.45 * span / len(stats)
    for i, (label, vmin, q1, med, q3, vmax) in enumerate(stats):
        color = PALETTE[i % len(PALETTE)]
        cx = frame.x(i + 0.5)
        for pair in ((vmin, q1), (q3, vmax)):
            ET.SubElement(
                root,
                "line",
                {"x1": _fmt(cx), "y1": _fmt(frame.y(pair[0])), "x2": _fmt(cx),
                 "y2": _fmt(frame.y(pair[1])), "stroke": color, "stroke-width": "1.5"},
            )
        ET.SubElement(
            root,
            "rect",
            {
                "x": _fmt(cx - box_w / 2),
                "y": _fmt(frame.y(q3)),
                "width": _fmt(box_w),
                "height": _fmt(max(frame.y(q1) - frame.y(q3), 0.5)),
                "fill": color,
                "fill-opacity": "0.25",
                "stroke": color,
            },
        )
        ET.SubElement(
            root,
            "line",
            {"x1": _fmt(cx - box_w / 2), "y1": _fmt(frame.y(med)), "x2": _fmt(cx + box_w / 2),
             "y2": _fmt(frame.y(med)), "stroke": color, "stroke-width": "2"},
        )
        _x_label(root, cx, label)
    return save(
        ["label", "min", "q1", "median", "q3", "max"],
        [[row[0]] + [f"{v:.17g}" for v in row[1:]] for row in stats],
    )
