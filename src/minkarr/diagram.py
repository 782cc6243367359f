"""Static SVG rendering of the per-pair projection plane.

The picture lives in the two-dimensional plane spanned by the projection
line (horizontal axis, r-units) and the lifting coordinate (vertical axis):
shadow intervals sit on the axis, raised centers at (alpha_k, lam_k), the
tilted lines through the touching points, and the wedge lines through the
common point.  Output is plain SVG 1.1 with the world-to-canvas mapping
documented in the header comment.
"""

from __future__ import annotations

from typing import List, Tuple

from .arrangement import Arrangement
from .lifting import ProjectionFrame, ShadowData


WIDTH = 640
HEIGHT = 420


def _fmt(v: float) -> str:
    return "%.6g" % v


class _Canvas:
    def __init__(self, xs: List[float], ys: List[float]):
        pad = 0.08
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        self.x_lo = x_lo - pad * x_span
        self.y_lo = y_lo - pad * y_span
        self.x_scale = WIDTH / (x_span * (1 + 2 * pad))
        self.y_scale = HEIGHT / (y_span * (1 + 2 * pad))

    def to(self, x: float, y: float) -> Tuple[float, float]:
        return ((x - self.x_lo) * self.x_scale,
                HEIGHT - (y - self.y_lo) * self.y_scale)

    def line(self, x1, y1, x2, y2, color, width=1.0, dash=None) -> str:
        (a, b), (c, d) = self.to(x1, y1), self.to(x2, y2)
        dash_attr = ' stroke-dasharray="%s"' % dash if dash else ""
        return ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                'stroke-width="%s"%s/>'
                % (_fmt(a), _fmt(b), _fmt(c), _fmt(d), color,
                   _fmt(width), dash_attr))

    def dot(self, x, y, color, r=3.0) -> str:
        a, b = self.to(x, y)
        return '<circle cx="%s" cy="%s" r="%s" fill="%s"/>' \
            % (_fmt(a), _fmt(b), _fmt(r), color)

    def text(self, x, y, s, dy=-6.0) -> str:
        a, b = self.to(x, y)
        return ('<text x="%s" y="%s" font-size="11" '
                'font-family="monospace">%s</text>'
                % (_fmt(a), _fmt(b + dy), s))


def render_projection_plane(arr: Arrangement, frame: ProjectionFrame,
                            sd: ShadowData) -> str:
    """SVG of the projection plane for the frame's pair: shadow segments,
    raised centers, the tilted lines, the wedge lines and the common point."""
    i, j = frame.i, frame.j
    alphas = [float(a) for a in sd.alphas]
    lams = [float(h.ratio) for h in arr.members]
    x = float(sd.x_coord)
    xs = [lo for lo, _ in sd.intervals] + [hi for _, hi in sd.intervals]
    xs = [float(v) for v in xs] + [x]
    ys = [0.0] + lams
    cv = _Canvas(xs, ys)

    parts: List[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append('<!-- projection plane of pair (%d, %d); world (t, s) with '
                 't in r-units along the center line and s the lifting '
                 'coordinate; canvas x = (t - %s) * %s, canvas y = %d - '
                 '(s - %s) * %s -->'
                 % (i, j, _fmt(cv.x_lo), _fmt(cv.x_scale), HEIGHT,
                    _fmt(cv.y_lo), _fmt(cv.y_scale)))
    parts.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 'width="%d" height="%d" viewBox="0 0 %d %d">'
                 % (WIDTH, HEIGHT, WIDTH, HEIGHT))
    axis_lo = min(float(lo) for lo, _ in sd.intervals)
    axis_hi = max(float(hi) for _, hi in sd.intervals)
    parts.append(cv.line(axis_lo, 0, axis_hi, 0, "#404040", 1.0))

    for k, (lo, hi) in enumerate(sd.intervals):
        color = "#0055cc" if k in (i, j) else "#8899bb"
        parts.append(cv.line(float(lo), 0, float(hi), 0, color, 3.0))
        parts.append(cv.dot(alphas[k], 0, color, 2.0))
        parts.append(cv.dot(alphas[k], lams[k], color, 2.5))
        parts.append(cv.text(alphas[k], lams[k], "m%d" % k))

    # tilted lines through the touching points of the chosen pair
    parts.append(cv.line(alphas[i] + lams[i], 0, alphas[i], lams[i],
                         "#cc3300", 1.2))
    parts.append(cv.line(alphas[j] - lams[j], 0, alphas[j], lams[j],
                         "#cc8800", 1.2))

    top = max(lams) * 1.15
    # wedge lines through the common point, parallel to the tilted lines
    parts.append(cv.line(x, 0, x - top, top, "#cc3300", 1.0, "4,3"))
    parts.append(cv.line(x, 0, x + top, top, "#cc8800", 1.0, "4,3"))

    parts.append(cv.dot(x, 0, "#000000", 3.5))
    parts.append(cv.text(x, 0, "x", -10.0))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
