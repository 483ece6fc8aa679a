"""Dependency-free SVG emitters for the validation plots.

Every plot is a single self-contained SVG string: a correlation scatter, the
Clarke error grid with its canonical boundary segments and zone letters, and
a zone histogram. One circle element of class "pt" per data point, so tests
can count points straight out of the XML.
"""

from __future__ import annotations

from html import escape

import numpy as np

from .evaluation import CegResult, PairedReadings, ZONES

# Clarke grid boundary segments in data space (ref x, pred y), mg/dl.
# The classic 13-line set: identity plus the A/B/C/D/E borders on [0, 400]^2.
CEG_SEGMENTS: tuple[tuple[tuple[float, float], tuple[float, float]], ...] = (
    ((0.0, 0.0), (400.0, 400.0)),
    ((0.0, 70.0), (175.0 / 3.0, 70.0)),
    ((175.0 / 3.0, 70.0), (400.0 / 1.2, 400.0)),
    ((70.0, 84.0), (70.0, 400.0)),
    ((0.0, 180.0), (70.0, 180.0)),
    ((70.0, 180.0), (290.0, 400.0)),
    ((70.0, 0.0), (70.0, 56.0)),
    ((70.0, 56.0), (400.0, 320.0)),
    ((180.0, 0.0), (180.0, 70.0)),
    ((180.0, 70.0), (400.0, 70.0)),
    ((240.0, 70.0), (240.0, 180.0)),
    ((240.0, 180.0), (400.0, 180.0)),
    ((130.0, 0.0), (180.0, 70.0)),
)

CEG_LABELS = (
    ("A", 220.0, 200.0), ("B", 280.0, 380.0), ("B", 380.0, 260.0),
    ("C", 150.0, 380.0), ("C", 163.0, 20.0), ("D", 30.0, 130.0),
    ("D", 380.0, 120.0), ("E", 30.0, 380.0), ("E", 380.0, 30.0),
)

_W, _H = 520, 520
_ML, _MR, _MT, _MB = 60, 20, 40, 50  # margins: left, right, top, bottom


class _Canvas:
    """Minimal SVG assembly with a data-space to pixel-space mapping."""

    def __init__(self, title: str, xmax: float, ymax: float,
                 xlabel: str, ylabel: str, ticks: bool = True):
        self.xmax = xmax
        self.ymax = ymax
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" '
            f'font-size="16" font-family="sans-serif">{escape(title, quote=False)}</text>',
        ]
        self._frame(xlabel, ylabel, ticks)

    def px(self, x: float) -> float:
        return _ML + (x / self.xmax) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        return _H - _MB - (y / self.ymax) * (_H - _MT - _MB)

    def _frame(self, xlabel: str, ylabel: str, ticks: bool) -> None:
        x0, y0 = self.px(0), self.py(0)
        x1, y1 = self.px(self.xmax), self.py(self.ymax)
        self.parts.append(
            f'<rect x="{x0:.1f}" y="{y1:.1f}" width="{x1 - x0:.1f}" '
            f'height="{y0 - y1:.1f}" fill="none" stroke="black"/>'
        )
        for k in range(5 if ticks else 0):
            vx = self.xmax * k / 4
            vy = self.ymax * k / 4
            self.parts.append(
                f'<text x="{self.px(vx):.1f}" y="{y0 + 18:.1f}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{vx:g}</text>'
            )
            self.parts.append(
                f'<text x="{x0 - 8:.1f}" y="{self.py(vy) + 4:.1f}" text-anchor="end" '
                f'font-size="11" font-family="sans-serif">{vy:g}</text>'
            )
        self.parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{escape(xlabel, quote=False)}</text>'
        )
        self.parts.append(
            f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">'
            f'{escape(ylabel, quote=False)}</text>'
        )

    def line(self, x1, y1, x2, y2, color="black", dash: str | None = None) -> None:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{self.px(x1):.1f}" y1="{self.py(y1):.1f}" '
            f'x2="{self.px(x2):.1f}" y2="{self.py(y2):.1f}" '
            f'stroke="{color}" stroke-width="1.0"{d}/>'
        )

    def point(self, x, y, color="#1f6fb2") -> None:
        self.parts.append(
            f'<circle class="pt" cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" '
            f'r="3" fill="{color}" fill-opacity="0.7"/>'
        )

    def label(self, text, x, y, size=15, color="#444444") -> None:
        self.parts.append(
            f'<text x="{self.px(x):.1f}" y="{self.py(y):.1f}" text-anchor="middle" '
            f'font-size="{size}" font-family="sans-serif" fill="{color}">'
            f'{escape(text, quote=False)}</text>'
        )

    def bar(self, x, y, w, h) -> None:
        self.parts.append(
            f'<rect class="bar" x="{self.px(x):.1f}" y="{self.py(y + h):.1f}" '
            f'width="{self.px(x + w) - self.px(x):.1f}" '
            f'height="{self.py(y) - self.py(y + h):.1f}" fill="#1f6fb2"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _axis_max(p: PairedReadings) -> float:
    top = max(max(p.refs), max(p.preds))
    return max(400.0, float(np.ceil(top / 100.0) * 100.0))


def scatter_svg(p: PairedReadings, title: str = "Predicted vs reference glucose") -> str:
    """Correlation scatter with the identity line."""
    lim = _axis_max(p)
    c = _Canvas(title, lim, lim, "reference glucose (mg/dl)", "predicted glucose (mg/dl)")
    c.line(0, 0, lim, lim, color="#888888", dash="6,4")
    for r, q in zip(p.refs, p.preds):
        c.point(r, q)
    return c.render()


def ceg_svg(p: PairedReadings, title: str = "Clarke error grid") -> str:
    """Clarke error grid: boundary polylines, zone letters, one circle per point."""
    lim = _axis_max(p)
    c = _Canvas(title, lim, lim, "reference glucose (mg/dl)", "predicted glucose (mg/dl)")
    for (x1, y1), (x2, y2) in CEG_SEGMENTS:
        dash = "6,4" if (x1, y1) == (0.0, 0.0) else None
        color = "#888888" if dash else "black"
        c.line(x1, y1, x2, y2, color=color, dash=dash)
    for text, x, y in CEG_LABELS:
        c.label(text, x, y)
    for r, q in zip(p.refs, p.preds):
        c.point(min(r, lim), min(q, lim), color="#b22222")
    return c.render()


def histogram_svg(res: CegResult, title: str = "Clarke zone distribution") -> str:
    """Bar chart of zone counts; one rect of class \"bar\" per zone."""
    top = max(max(res.histogram.values()), 1)
    c = _Canvas(title, 5.0, float(top) * 1.15, "zone", "readings", ticks=False)
    for k, z in enumerate(ZONES):
        c.bar(k + 0.2, 0, 0.6, float(res.histogram[z]))
        c.label(z, k + 0.5, -top * 0.06, size=13, color="black")
        c.label(str(res.histogram[z]), k + 0.5, res.histogram[z] + top * 0.02,
                size=11, color="black")
    return c.render()
