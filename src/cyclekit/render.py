"""Deterministic SVG output for 2D cycles, figures and horocycle chains.

A cycle row draws as whatever its point metric makes of it: a circle, a
parabola or an equilateral hyperbola, with flat rows as lines.  Circles
become native ``<circle>`` elements; the other conics are sampled
polylines whose vertices sit exactly on the curve (parametric sampling,
not pixel marching), so residual checks on emitted geometry stay tight.

Output is byte-stable: fixed six-decimal formatting, no timestamps, and
element order following the figure's insertion order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import asinh, cosh, sinh, sqrt
from typing import List, Optional, Sequence, Tuple

from .cycle import Cycle
from .numerics import to_float

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

AXIS_STYLE = 'stroke="#c0c0c0" stroke-width="1"'
BOUNDARY_COLOR = "#000000"


@dataclass(frozen=True)
class Viewport:
    """World window, pixel size and sampling budget for curved conics."""

    umin: float = -5.0
    umax: float = 5.0
    vmin: float = -5.0
    vmax: float = 5.0
    width: int = 640
    height: int = 640
    samples: int = 256
    stroke_width: float = 1.5

    def __post_init__(self):
        if not (self.umax > self.umin and self.vmax > self.vmin):
            raise ValueError("viewport extents must be positive")
        if self.width <= 0 or self.height <= 0 or self.samples < 2:
            raise ValueError("pixel size and sampling must be positive")

    def scale_u(self) -> float:
        return self.width / (self.umax - self.umin)

    def scale_v(self) -> float:
        return self.height / (self.vmax - self.vmin)

    def to_px(self, u: float, v: float) -> Tuple[float, float]:
        return ((u - self.umin) * self.scale_u(),
                (self.vmax - v) * self.scale_v())

    def from_px(self, x: float, y: float) -> Tuple[float, float]:
        return (self.umin + x / self.scale_u(),
                self.vmax - y / self.scale_v())


def _fmt(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _floats(c: Cycle) -> Tuple[float, float, float, float]:
    k, l1, l2, m = (to_float(v) for v in c.row())
    return k, l1, l2, m


def _style(color: str, vp: Viewport, dashed: bool) -> str:
    bits = (f'fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(vp.stroke_width)}"')
    if dashed:
        bits += ' stroke-dasharray="6 4"'
    return bits


def _polyline(points, vp: Viewport, color: str, dashed: bool,
              cls: str) -> str:
    coords = " ".join("%s,%s" % tuple(map(_fmt, vp.to_px(u, v)))
                      for u, v in points)
    return f'<polyline class="{cls}" points="{coords}" ' \
           f'{_style(color, vp, dashed)}/>'


def _segment(p1, p2, vp: Viewport, color: str, dashed: bool,
             cls: str = "cycle") -> str:
    """A styled <line> element between two world points."""
    (x1, y1), (x2, y2) = vp.to_px(*p1), vp.to_px(*p2)
    return (f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" {_style(color, vp, dashed)}/>')


def _clip_line(u0, v0, du, dv, vp: Viewport):
    """Liang-Barsky: the parameter window where p0 + t d stays in view."""
    t0, t1 = -float("inf"), float("inf")
    for pos, d, lo, hi in ((u0, du, vp.umin, vp.umax),
                           (v0, dv, vp.vmin, vp.vmax)):
        if d == 0:
            if not lo <= pos <= hi:
                return None
            continue
        ta, tb = (lo - pos) / d, (hi - pos) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
    return (t0, t1) if t0 < t1 else None


def _line(c: Cycle, vp: Viewport, color: str, dashed: bool,
          cls: str = "cycle") -> str:
    k, l1, l2, m = _floats(c)
    if l1 == 0 and l2 == 0:
        return f'<g class="{cls} empty"/>'
    n2 = l1 * l1 + l2 * l2
    u0, v0 = m * l1 / (2 * n2), m * l2 / (2 * n2)
    window = _clip_line(u0, v0, -l2, l1, vp)
    if window is None:
        return f'<g class="{cls} empty"/>'
    t0, t1 = window
    return _segment((u0 - t0 * l2, v0 + t0 * l1), (u0 - t1 * l2, v0 + t1 * l1),
                    vp, color, dashed, cls)


def _circle(c: Cycle, vp: Viewport, color: str, dashed: bool) -> str:
    k, l1, l2, m = _floats(c)
    cu, cv = l1 / k, l2 / k
    r2 = (l1 * l1 + l2 * l2 - k * m) / (k * k)
    x, y = vp.to_px(cu, cv)
    span = max(vp.umax - vp.umin, vp.vmax - vp.vmin)
    if abs(r2) <= (1e-9 * span) ** 2:
        return (f'<circle class="dot" cx="{_fmt(x)}" cy="{_fmt(y)}" '
                f'r="2.500000" fill="{color}" stroke="none"/>')
    if r2 < 0:
        r = sqrt(-r2) * vp.scale_u()
        return (f'<circle class="cycle imaginary" cx="{_fmt(x)}" '
                f'cy="{_fmt(y)}" r="{_fmt(r)}" {_style(color, vp, True)}/>')
    r = sqrt(r2) * vp.scale_u()
    return (f'<circle class="cycle" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(r)}" {_style(color, vp, dashed)}/>')


def _parabola(c: Cycle, vp: Viewport, color: str, dashed: bool) -> str:
    k, l1, l2, m = _floats(c)
    if l2 == 0:
        # k u^2 - 2 l1 u + m = 0: the curve degenerates to vertical lines
        disc = l1 * l1 - k * m
        if disc < 0:
            return '<g class="cycle empty"/>'
        out = []
        for s in ((0,) if disc == 0 else (-1, 1)):
            u = (l1 + s * sqrt(disc)) / k
            out.append(_segment((u, vp.vmin), (u, vp.vmax), vp, color, dashed))
        return "\n".join(out)
    pts = []
    for i in range(vp.samples):
        u = vp.umin + (vp.umax - vp.umin) * i / (vp.samples - 1)
        pts.append((u, (k * u * u - 2 * l1 * u + m) / (2 * l2)))
    return _polyline(pts, vp, color, dashed, "cycle")


def _hyperbola(c: Cycle, vp: Viewport, color: str, dashed: bool) -> str:
    # (v - v0)^2 = (u - u0)^2 + rho2; sampled via cosh/sinh so every
    # vertex satisfies the equation exactly, asymptotes included
    k, l1, l2, m = _floats(c)
    u0, v0 = l1 / k, -l2 / k
    rho2 = m / k - (l1 * l1 - l2 * l2) / (k * k)
    uspan = max(abs(vp.umin - u0), abs(vp.umax - u0), 1e-9)
    vspan = max(abs(vp.vmin - v0), abs(vp.vmax - v0), 1e-9)
    span = max(uspan, vspan)
    scale = max(abs(u0), abs(v0), abs(rho2), 1.0)
    if abs(rho2) <= 1e-12 * scale:
        out = []
        for s in (-1, 1):
            out.append(_segment((vp.umin, v0 + s * (vp.umin - u0)),
                                (vp.umax, v0 + s * (vp.umax - u0)),
                                vp, color, dashed))
        return "\n".join(out)
    a = sqrt(abs(rho2))
    tmax = asinh(span / a) + 1e-6
    half = vp.samples
    out = []
    for s in (-1, 1):
        pts = []
        for i in range(half):
            t = -tmax + 2 * tmax * i / (half - 1)
            if rho2 > 0:
                pts.append((u0 + a * sinh(t), v0 + s * a * cosh(t)))
            else:
                pts.append((u0 + s * a * cosh(t), v0 + a * sinh(t)))
        out.append(_polyline(pts, vp, color, dashed, "cycle"))
    return "\n".join(out)


def render_cycle(c: Cycle, vp: Viewport, color: str = PALETTE[0],
                 dashed: bool = False, cls: str = "cycle") -> str:
    """One SVG element (or small group) for the cycle's point-metric locus."""
    k, l1, l2, m = _floats(c)
    if k == 0 == l1 == l2 and m == 0:
        raise ValueError("the zero row draws nothing")
    if k == 0:
        return _line(c, vp, color, dashed, cls)
    tau = c.metric.tau
    if tau < 0:
        return _circle(c, vp, color, dashed)
    if tau == 0:
        return _parabola(c, vp, color, dashed)
    return _hyperbola(c, vp, color, dashed)


def _axes(vp: Viewport) -> str:
    out = ['<g class="axes">']
    if vp.vmin <= 0 <= vp.vmax:
        (x1, y1), (x2, y2) = vp.to_px(vp.umin, 0), vp.to_px(vp.umax, 0)
        out.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                   f'y2="{_fmt(y2)}" {AXIS_STYLE}/>')
    if vp.umin <= 0 <= vp.umax:
        (x1, y1), (x2, y2) = vp.to_px(0, vp.vmin), vp.to_px(0, vp.vmax)
        out.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                   f'y2="{_fmt(y2)}" {AXIS_STYLE}/>')
    out.append('</g>')
    return "\n".join(out)


def svg_document(body: Sequence[str], vp: Viewport) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{vp.width}" height="{vp.height}" '
            f'viewBox="0 0 {vp.width} {vp.height}">')
    parts = [head, _axes(vp)]
    parts.extend(body)
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def _generation_color(generation: int) -> str:
    if generation < 0:
        return BOUNDARY_COLOR
    return PALETTE[generation % len(PALETTE)]


def render_figure(fig, vp: Optional[Viewport] = None,
                  labels: bool = False) -> str:
    """Whole-figure document: solved nodes drawn and colored by
    generation, anything unsolved listed in a hidden warning layer."""
    vp = vp or Viewport()
    body: List[str] = []
    warnings: List[str] = []
    for label in fig.labels():
        node = fig.node(label)
        if node.status != "solved":
            warnings.append(f'<text class="warning">{label}: '
                            f'{node.status}</text>')
            continue
        color = _generation_color(node.generation)
        cls = "boundary" if node.kind == "predefined" else "cycle"
        group = [f'<g class="node" data-label="{label}" '
                 f'data-generation="{node.generation}">']
        for inst in node.instances:
            group.append(render_cycle(inst.cycle, vp, color, cls=cls))
        if labels:
            group.append(_label_text(node, vp, color))
        group.append('</g>')
        body.append("\n".join(group))
    if warnings:
        body.append('<g class="warnings" display="none">\n'
                    + "\n".join(warnings) + '\n</g>')
    return svg_document(body, vp)


def _label_text(node, vp: Viewport, color: str) -> str:
    c = node.instances[0].cycle
    k, l1, l2, m = _floats(c)
    if k != 0:
        u, v = l1 / k, l2 / k if c.metric.tau < 0 else -l2 / k
    elif l2 != 0:
        u, v = 0.0, m / (2 * l2)
    elif l1 != 0:
        u, v = m / (2 * l1), 0.0
    else:
        u, v = vp.umin, vp.vmax
    x, y = vp.to_px(u, v)
    return (f'<text class="label" x="{_fmt(x + 4)}" y="{_fmt(y - 4)}" '
            f'fill="{color}" font-size="12">{node.label}</text>')


def render_chain(ch, vp: Optional[Viewport] = None,
                 mirrors: bool = True) -> str:
    """Horocycle chain document: boundary line, horocycles, connecting
    cycles, and (dashed) the connecting cycles' boundary mirrors."""
    vp = vp or Viewport(-0.5, 4.0, -1.5, 2.0)
    boundary = Cycle.real_line(ch.horocycles[0].metric) if ch.horocycles \
        else None
    body: List[str] = []
    if boundary is not None:
        body.append('<g class="node" data-label="boundary">\n'
                    + render_cycle(boundary, vp, BOUNDARY_COLOR,
                                   cls="boundary") + '\n</g>')
    group = ['<g class="node" data-label="horocycles">']
    for c in ch.horocycles:
        group.append(render_cycle(c, vp, PALETTE[0]))
    group.append('</g>')
    body.append("\n".join(group))
    group = ['<g class="node" data-label="connecting">']
    for c in ch.connecting:
        group.append(render_cycle(c, vp, PALETTE[1]))
    group.append('</g>')
    body.append("\n".join(group))
    if mirrors and ch.connecting:
        group = ['<g class="node" data-label="mirrors">']
        for c in ch.connecting:
            group.append(render_cycle(c.mirror(), vp, PALETTE[1],
                                      dashed=True))
        group.append('</g>')
        body.append("\n".join(group))
    return svg_document(body, vp)


_CIRCLE_RE = re.compile(
    r'<circle class="cycle" cx="([-0-9.]+)" cy="([-0-9.]+)" r="([-0-9.]+)"')


def circles_from_svg(text: str, vp: Viewport):
    """Centers and radii (world units) of the plain circle elements."""
    out = []
    for sx, sy, sr in _CIRCLE_RE.findall(text):
        u, v = vp.from_px(float(sx), float(sy))
        out.append((u, v, float(sr) / vp.scale_u()))
    return out


_POINT_RE = re.compile(r'(-?[0-9.]+),(-?[0-9.]+)')


def polyline_points_from_svg(text: str, vp: Viewport):
    """World-coordinate vertex lists of every emitted polyline."""
    out = []
    for m in re.finditer(r'<polyline class="cycle" points="([^"]*)"', text):
        pts = [vp.from_px(float(x), float(y))
               for x, y in _POINT_RE.findall(m.group(1))]
        out.append(pts)
    return out
