"""Static SVG chart emission with no rendering dependency.

Each chart writes two files: the SVG itself and a companion CSV holding
exactly the plotted data series, so every figure can be recomputed and
checked. Output is deterministic byte-for-byte for fixed inputs. Data a
chart cannot draw (a NaN or inf, values whose span overflows a float, an
x of 0 or less on a log axis, an empty sample) raises ValueError. The
line chart and the box plot take raw samples and draw their quartiles.
"""

import csv
import math
import os
from xml.etree import ElementTree as ET

import numpy as np

from .metrics import quartiles

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 48, 64

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _fmt(v):
    return f"{float(v):.6g}"


def _add(parent, tag, text=None, **attrs):
    """Append a ``tag`` element to ``parent`` (a new root if None) and return it.

    Attributes keep their call order; a ``_`` in a keyword is written ``-``
    and every number is written by ``_fmt``.
    """
    attrs = {k.replace("_", "-"): v if isinstance(v, str) else _fmt(v) for k, v in attrs.items()}
    element = ET.Element(tag, attrs) if parent is None else ET.SubElement(parent, tag, attrs)
    element.text = text
    return element


def _line(parent, x1, y1, x2, y2, stroke, width):
    _add(parent, "line", x1=x1, y1=y1, x2=x2, y2=y2, stroke=stroke, stroke_width=width)


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
    _add(root, "text", text, x=x, y=HEIGHT - MARGIN_BOTTOM + 16, text_anchor="middle")


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
    ``path`` and the companion CSV next to it, each non-string cell with 17
    significant digits. A non-finite ``y_values`` entry, or an axis whose
    padded span is not a finite float, raises ValueError.
    """
    bad = [v for v in y_values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"chart {title!r} cannot plot the non-finite {y_label} value {bad[0]}")
    root = _add(None, "svg", xmlns="http://www.w3.org/2000/svg", width=WIDTH, height=HEIGHT,
                viewBox=f"0 0 {WIDTH} {HEIGHT}", font_family="sans-serif", font_size=12)
    _add(root, "rect", width=WIDTH, height=HEIGHT, fill="white")
    _add(root, "text", title, x=WIDTH // 2, y=24, text_anchor="middle", font_size=15)
    frame = _Frame(x_domain, _pad_domain(y_values), log_x=log_x)
    for axis, lo, hi in (("x", frame.x_lo, frame.x_hi), ("y", frame.y_lo, frame.y_hi)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"chart {title!r} cannot plot {axis} values whose span overflows")
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    _line(root, x0, y0, x1, y0, "#333333", 1)
    _line(root, x0, y0, x0, y1, "#333333", 1)
    for tick in np.linspace(frame.y_lo, frame.y_hi, 5):
        py = frame.y(tick)
        _line(root, x0 - 4, py, x1, py, "#cccccc", 0.5)
        _add(root, "text", _fmt(tick), x=x0 - 8, y=py + 4, text_anchor="end")
    _add(root, "text", x_label, x=(x0 + x1) // 2, y=HEIGHT - 16, text_anchor="middle")
    _add(root, "text", y_label, x=18, y=(y0 + y1) // 2, text_anchor="middle",
         transform=f"rotate(-90 18 {(y0 + y1) // 2})")

    def save(header, rows):
        ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)
        with open(os.path.splitext(path)[0] + ".csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows([v if isinstance(v, str) else f"{v:.17g}" for v in r] for r in rows)
        return path

    return root, frame, save


def bar_chart(path, labels, values, *, title, y_label):
    """Vertical bars, one per label. Companion CSV columns: label,value."""
    values = [float(v) for v in values]
    if len(labels) != len(values) or not values:
        raise ValueError("labels and values must be equal-length and non-empty")
    root, frame, save = _chart(path, title, (0.0, float(len(values))), values + [0.0], "", y_label)
    base = frame.y(max(0.0, frame.y_lo))
    bar_w = 0.6 * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT) / len(values)
    for i, (label, value) in enumerate(zip(labels, values)):
        cx, top = frame.x(i + 0.5), frame.y(value)
        _add(root, "rect", x=cx - bar_w / 2, y=min(top, base), width=bar_w,
             height=max(abs(base - top), 0.5), fill=PALETTE[i % len(PALETTE)])
        _x_label(root, cx, str(label))
    return save(["label", "value"], [[str(l), v] for l, v in zip(labels, values)])


def line_chart(path, x_values, samples, *, title, x_label, y_label, log_x=False):
    """One line per series through each x's sample median, over its quartile band.

    ``samples`` maps name -> one non-empty sample per x value. Each x gets
    the sample's median and its 25th-75th percentile band, as
    ``metrics.quartiles`` gives them; the band is a translucent fill.
    Companion CSV columns: x, then <name>, <name>_lo, <name>_hi per series.
    """
    x_values = [float(x) for x in x_values]
    if not x_values or not samples:
        raise ValueError("need x values and at least one series")
    bad = [x for x in x_values if not math.isfinite(x) or (log_x and x <= 0)]
    if bad:
        raise ValueError(f"cannot plot the x value {bad[0]}" + (" on a log axis" if log_x else ""))
    columns = [("x", x_values)]
    for name, per_x in samples.items():
        if len(per_x) != len(x_values) or not all(np.size(sample) for sample in per_x):
            raise ValueError(f"series {name!r} length does not match x values or has no samples")
        # an infinite value can make a quartile nan, which _chart refuses
        with np.errstate(invalid="ignore"):
            lo, median, hi = zip(*(quartiles(sample) for sample in per_x))
        columns += [(name, median), (f"{name}_lo", lo), (f"{name}_hi", hi)]
    root, frame, save = _chart(
        path, title, (min(x_values), max(x_values)),
        [float(v) for _, values in columns[1:] for v in values], x_label, y_label, log_x,
    )
    for x in x_values:
        _x_label(root, frame.x(x), _fmt(x))
    legend_x = WIDTH - MARGIN_RIGHT
    for idx, name in enumerate(samples):
        color = PALETTE[idx % len(PALETTE)]
        (_, median), (_, lo), (_, hi) = columns[1 + 3 * idx:4 + 3 * idx]
        backward = _points(frame, x_values[::-1], hi[::-1])
        _add(root, "polygon", points=f"{_points(frame, x_values, lo)} {backward}",
             fill=color, fill_opacity=0.15, stroke="none")
        _add(root, "polyline", points=_points(frame, x_values, median), fill="none", stroke=color,
             stroke_width=2)
        legend_y = MARGIN_TOP + 16 * idx
        _line(root, legend_x - 120, legend_y, legend_x - 96, legend_y, color, 2)
        _add(root, "text", name, x=legend_x - 90, y=legend_y + 4)
    return save([name for name, _ in columns], zip(*(values for _, values in columns)))


def box_plot(path, labels, samples, *, title, y_label):
    """Quartile boxes with min/max whiskers, one per label.

    Companion CSV columns: label,min,q1,median,q3,max.
    """
    if len(labels) != len(samples) or not samples:
        raise ValueError("labels and samples must be equal-length and non-empty")
    samples = [np.asarray(values, dtype=float) for values in samples]
    for label, values in zip(labels, samples):
        if values.size == 0:
            raise ValueError(f"no samples for {label!r}")
    # the quartiles lie between each sample's extremes, so the samples span the same y range
    root, frame, save = _chart(
        path, title, (0.0, float(len(samples))), np.concatenate(samples).tolist(), "", y_label
    )
    stats = [(str(label), values.min(), *quartiles(values), values.max())
             for label, values in zip(labels, samples)]
    box_w = 0.45 * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT) / len(stats)
    for i, (label, vmin, q1, med, q3, vmax) in enumerate(stats):
        color = PALETTE[i % len(PALETTE)]
        cx = frame.x(i + 0.5)
        for lo, hi in ((vmin, q1), (q3, vmax)):
            _line(root, cx, frame.y(lo), cx, frame.y(hi), color, 1.5)
        _add(root, "rect", x=cx - box_w / 2, y=frame.y(q3), width=box_w,
             height=max(frame.y(q1) - frame.y(q3), 0.5), fill=color, fill_opacity=0.25,
             stroke=color)
        _line(root, cx - box_w / 2, frame.y(med), cx + box_w / 2, frame.y(med), color, 2)
        _x_label(root, cx, label)
    return save(["label", "min", "q1", "median", "q3", "max"], stats)
