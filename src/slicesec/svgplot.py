"""Minimal self-contained SVG line/step charts (no rendering dependencies)."""

from __future__ import annotations

import math
from dataclasses import dataclass

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2", "#c7c7c7",
]

WIDTH, HEIGHT = 860, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 200, 40, 55
# How far right the rotated y label reaches: its baseline's x, plus its
# font size's quarter em of descenders.
Y_LABEL_RIGHT = 18 + 0.25 * 13


@dataclass
class Series:
    label: str
    x: list[float]
    y: list[float]
    dashed: bool = False
    step: bool = False


@dataclass
class Chart:
    title: str
    x_label: str
    y_label: str
    series: list[Series]
    y_ticks: list[tuple[float, str]] | None = None

    def render(self) -> str:
        xs = [v for s in self.series for v in s.x]
        # the y range spans the given ticks too, so each lands in the frame
        ys = [v for s in self.series for v in s.y] + [v for v, _ in self.y_ticks or ()]
        if not xs:
            raise ValueError("no data rows")
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        # pad the y range slightly so curves do not sit on the frame
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        y_ticks = self.y_ticks
        if y_ticks is None:
            steps = (y_lo + frac / 5 * (y_hi - y_lo) for frac in range(0, 6))
            y_ticks = [(yv, f"{yv:.3g}") for yv in steps]
        # the gutter grows until the widest tick starts right of the y label
        left = max(MARGIN_L, math.ceil(Y_LABEL_RIGHT + 9 + _width([t for _, t in y_ticks], 11)))

        # Every coordinate but the y label's keeps its offset from the frame's left edge.
        plot_w = WIDTH - MARGIN_L - MARGIN_R
        plot_h = HEIGHT - MARGIN_T - MARGIN_B
        bottom = MARGIN_T + plot_h
        # legend entry i sits at legend_y + 16 i; the canvas grows to hold the
        # last and the widest
        legend_x, legend_y = left + plot_w + 12, MARGIN_T + 14
        width = max(left + plot_w + MARGIN_R,
                    math.ceil(legend_x + 30 + _width([s.label for s in self.series], 11) + 12))
        height = max(HEIGHT, legend_y + 16 * len(self.series))

        def px(x: float) -> float:
            return left + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y: float) -> float:
            return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            _text(f"{left + WIDTH / 2 - MARGIN_L:.1f}", 22, 16, self.title),
            # frame
            f'<rect x="{left}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#333" stroke-width="1"/>',
        ]

        # x ticks at nice intervals
        for frac in range(0, 11):
            xv = x_lo + frac / 10 * (x_hi - x_lo)
            x = f"{px(xv):.1f}"
            parts.append(_line(x, bottom, x, bottom + 5, 'stroke="#333"'))
            parts.append(_text(x, bottom + 20, 11, f"{xv:.2f}"))
        for yv, text in y_ticks:
            y = f"{py(yv):.1f}"
            parts.append(_line(left - 5, y, left, y, 'stroke="#333"'))
            parts.append(_text(left - 9, f"{py(yv) + 4:.1f}", 11, text, "end"))

        # axis labels
        mid_y = f"{MARGIN_T + plot_h / 2:.1f}"
        parts.append(_text(f"{left + plot_w / 2:.1f}", HEIGHT - 12, 13, self.x_label))
        parts.append(_text(18, mid_y, 13, self.y_label,
                           extra=f' transform="rotate(-90 18 {mid_y})"'))

        # zero line if visible
        if y_lo < 0 < y_hi:
            y = f"{py(0):.1f}"
            parts.append(_line(left, y, left + plot_w, y,
                               'stroke="#999" stroke-dasharray="2,4"'))

        for i, s in enumerate(self.series):
            # a series' colour is its rank among the series of its stroke style
            rank = [t.dashed for t in self.series[:i]].count(s.dashed)
            color = _PALETTE[rank % len(_PALETTE)]
            pts = sorted(zip(s.x, s.y))
            if s.step:  # each y holds until the next x
                pts[1:] = [p for (_, y0), (x1, y1) in zip(pts, pts[1:])
                           for p in ((x1, y0), (x1, y1))]
            points = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in pts)
            dash = ' stroke-dasharray="6,4"' if s.dashed else ""
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} '
                f'points="{points}"/>'
            )
            ly = legend_y + 16 * i
            parts.append(_line(legend_x, ly - 4, legend_x + 24, ly - 4,
                               f'stroke="{color}" stroke-width="2"{dash}'))
            parts.append(_text(legend_x + 30, ly, 11, s.label, anchor=None))

        parts.append("</svg>")
        return "\n".join(parts)


def _width(texts: list[str], size: int) -> float:
    """The widest of ``texts`` at font ``size``, estimated at 0.6 em per character."""
    return max((0.6 * size * len(text) for text in texts), default=0.0)


def _text(x, y, size: int, text: str, anchor: str | None = "middle", extra: str = "") -> str:
    """A ``<text>`` element at (x, y), as formatted, with ``extra`` attributes after the font's."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}"{anchor_attr} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{text}</text>')


def _line(x1, y1, x2, y2, stroke: str) -> str:
    """A ``<line>`` from (x1, y1) to (x2, y2), as formatted, with its ``stroke`` attributes."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {stroke}/>'
