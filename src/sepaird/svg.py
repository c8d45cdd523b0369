"""Dependency-free SVG charts for aggregation tables.

All coordinates are emitted with fixed decimal formatting and nothing
time- or environment-dependent is written, so identical input always
yields identical bytes.
"""

from __future__ import annotations

import numpy as np

from .montecarlo import SCENARIO_FIELDS, DatasetError

_WIDTH = 860
_HEIGHT = 520
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 260
_MARGIN_TOP = 48
_MARGIN_BOTTOM = 56

_PALETTE = (
    "#1f6fb4",
    "#d1495b",
    "#2e8b57",
    "#b8860b",
    "#6a4fa3",
    "#0f8b8d",
    "#c2571a",
    "#5b5b5b",
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmt_tick(x: float) -> str:
    return f"{x:.6g}"


def _scenario_labels(scenarios: list) -> list:
    """Compact legend labels from the fields that actually vary; a scenario
    is a tuple of its ``SCENARIO_FIELDS`` values."""
    varying = [
        (i, name)
        for i, name in enumerate(SCENARIO_FIELDS)
        if len({s[i] for s in scenarios}) > 1
    ]
    if not varying:
        return ["all scenarios"] * len(scenarios)
    labels = []
    for s in scenarios:
        parts = []
        for i, name in varying:
            value = s[i]
            if isinstance(value, bool):
                parts.append(f"{name}={'on' if value else 'off'}")
            else:
                parts.append(f"{name}={value:g}")
        labels.append(" ".join(parts))
    return labels


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            pad = abs(y_lo) * 0.1 + 1.0
            y_lo, y_hi = y_lo - pad, y_lo + pad
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        self.plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x(self, v: float) -> float:
        return _MARGIN_LEFT + (v - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def y(self, v: float) -> float:
        return _MARGIN_TOP + (self.y_hi - v) / (self.y_hi - self.y_lo) * self.plot_h


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _line(x1, y1, x2, y2, stroke, width) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _text(x, y, anchor, size, text) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" font-size="{size}">'
        f"{_escape(text)}</text>"
    )


def _frame(parts, canvas, title, x_label, y_label, x_tick_pairs, y_values):
    middle = _MARGIN_LEFT + canvas.plot_w / 2
    bottom = _MARGIN_TOP + canvas.plot_h
    parts.append(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(canvas.plot_w)}" height="{_fmt(canvas.plot_h)}" '
        'fill="none" stroke="#222222" stroke-width="1"/>'
    )
    parts.append(_text(middle, _MARGIN_TOP - 16, "middle", 15, title))
    for value, label in x_tick_pairs:
        px = canvas.x(value)
        parts.append(_line(px, bottom, px, bottom + 5, "#222222", 1))
        parts.append(_text(px, bottom + 18, "middle", 11, label))
    for value in y_values:
        py = canvas.y(value)
        parts.append(_line(_MARGIN_LEFT - 5, py, _MARGIN_LEFT, py, "#222222", 1))
        parts.append(_text(_MARGIN_LEFT - 8, py + 4, "end", 11, _fmt_tick(value)))
        parts.append(_line(_MARGIN_LEFT, py, _MARGIN_LEFT + canvas.plot_w, py, "#dddddd", 0.5))
    parts.append(_text(middle, bottom + 40, "middle", 13, x_label))
    parts.append(
        f'<text x="18" y="{_fmt(_MARGIN_TOP + canvas.plot_h / 2)}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 18 {_fmt(_MARGIN_TOP + canvas.plot_h / 2)})">'
        f"{_escape(y_label)}</text>"
    )


def _legend(parts, labels):
    x0 = _WIDTH - _MARGIN_RIGHT + 18
    for i, label in enumerate(labels):
        y0 = _MARGIN_TOP + 10 + i * 18
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0 - 9)}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + 18)}" y="{_fmt(y0 + 1)}" font-size="11">'
            f"{_escape(label)}</text>"
        )


def _document(parts_body) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">\n'
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(parts_body) + "\n</svg>\n"


def render_quantile_lines(table: np.ndarray, metric: str) -> str:
    """Layered quantile curves of a ``QUANTILE_DTYPE`` table: one path per
    (scenario, quantile).

    The median is drawn solid and heavier; other quantiles dashed.
    """
    if table.size == 0:
        raise DatasetError("no data")
    scenarios = table[list(SCENARIO_FIELDS)]
    steps, quantiles, values = table["step"], table["quantile"], table["value"]
    # each row's scenario ordinal, in order of first appearance
    _, firsts, scenario_of = np.unique(scenarios, return_index=True, return_inverse=True)
    ordinal = np.argsort(np.argsort(firsts))[scenario_of]
    canvas = _Canvas(int(steps.min()), int(steps.max()), float(values.min()), float(values.max()))
    parts = []
    x_ticks = [(t, _fmt_tick(t)) for t in _ticks(canvas.x_lo, canvas.x_hi)]
    _frame(parts, canvas, metric, "step", metric, x_ticks, _ticks(canvas.y_lo, canvas.y_hi))
    # every row's pixel coordinates at once: the canvas's arithmetic, each
    # operation applied elementwise in the same order
    points = np.stack((canvas.x(steps), canvas.y(values)), axis=1)
    # one polyline per (scenario, quantile), its points in (step, value) order
    order = np.lexsort((values, steps, quantiles, ordinal))
    keys = np.stack([ordinal[order], quantiles[order]])
    ends = np.flatnonzero((keys[:, 1:] != keys[:, :-1]).any(axis=0)) + 1
    for line in np.split(order, ends):
        scenario_idx, quantile = int(ordinal[line[0]]), float(quantiles[line[0]])
        color = _PALETTE[scenario_idx % len(_PALETTE)]
        # "%.2f" spells a float as _fmt does
        coords = ("%.2f,%.2f " * line.size % tuple(points[line].ravel().tolist()))[:-1]
        if abs(quantile - 0.5) < 1e-9:
            style = f'stroke="{color}" stroke-width="2" fill="none"'
        else:
            style = f'stroke="{color}" stroke-width="1" fill="none" stroke-dasharray="4 3" opacity="0.7"'
        parts.append(f'<polyline points="{coords}" {style}/>')
    _legend(parts, _scenario_labels(scenarios[np.sort(firsts)].tolist()))
    return _document(parts)


def render_notched_boxes(table: np.ndarray, metric: str, step=None) -> str:
    """One notched box per scenario of a ``BOX_DTYPE`` table, with whiskers
    and outlier dots."""
    if table.size == 0:
        raise DatasetError("no data")
    labels = _scenario_labels(table[list(SCENARIO_FIELDS)].tolist())
    lows = [min((box["whisker_low"], *box["outliers"])) for box in table]
    highs = [max((box["whisker_high"], *box["outliers"])) for box in table]
    canvas = _Canvas(0.0, float(len(table)), min(lows), max(highs))
    title = metric if step is None else f"{metric} at step {step}"
    parts = []
    x_ticks = [(i + 0.5, f"S{i + 1}") for i in range(len(table))]
    _frame(parts, canvas, title, "scenario", metric, x_ticks, _ticks(canvas.y_lo, canvas.y_hi))
    half = 0.28
    notch_half = 0.14
    for i, box in enumerate(table):
        color = _PALETTE[i % len(_PALETTE)]
        cx = canvas.x(i + 0.5)
        x_l = canvas.x(i + 0.5 - half)
        x_r = canvas.x(i + 0.5 + half)
        x_nl = canvas.x(i + 0.5 - notch_half)
        x_nr = canvas.x(i + 0.5 + notch_half)
        y_q1 = canvas.y(box["q1"])
        y_q3 = canvas.y(box["q3"])
        y_med = canvas.y(box["median"])
        y_nlo = canvas.y(max(box["notch_low"], box["q1"]))
        y_nhi = canvas.y(min(box["notch_high"], box["q3"]))
        y_wlo = canvas.y(box["whisker_low"])
        y_whi = canvas.y(box["whisker_high"])
        points = [
            (x_l, y_q1),
            (x_r, y_q1),
            (x_r, y_nlo),
            (x_nr, y_med),
            (x_r, y_nhi),
            (x_r, y_q3),
            (x_l, y_q3),
            (x_l, y_nhi),
            (x_nl, y_med),
            (x_l, y_nlo),
        ]
        path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
        parts.append(
            f'<polygon points="{path}" fill="{color}" fill-opacity="0.35" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(_line(x_nl, y_med, x_nr, y_med, color, 2))
        for y_box, y_whisker in ((y_q3, y_whi), (y_q1, y_wlo)):
            parts.append(_line(cx, y_box, cx, y_whisker, color, 1))
            parts.append(_line(cx - 12, y_whisker, cx + 12, y_whisker, color, 1))
        for value in box["outliers"]:
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(canvas.y(value))}" r="2.5" '
                f'fill="none" stroke="{color}" stroke-width="1"/>'
            )
    _legend(parts, [f"S{i + 1}: {label}" for i, label in enumerate(labels)])
    return _document(parts)
