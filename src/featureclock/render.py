"""Deterministic SVG scenes: scatter layers, clock glyphs, inter-group lines.

Scenes collect primitives in data coordinates; a single aspect-preserving
transform maps them to pixels when the SVG text is produced. All emitted
coordinates are rounded to 2 decimals and nothing depends on randomness or
timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .clockcore import Clock, check_coverage, unit_vector
from .errors import ComputationError
from .grouping import NOISE, GroupingResult
from .ingest import CANVAS_MARGIN, Dataset, canvas_size, positive
from .intergroup import IntergroupClock

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)
DASHES = ("", "6,3", "2,2", "8,3,2,3")
NOISE_COLOR = "#999999"
_POINT_COLORS = (*PALETTE, NOISE_COLOR)  # indexed by Scene.point_slots

_ANNOTATION_STEP = 12.0  # degrees to nudge overlapping rim labels

# Scatter markers formatted by one %-operation, a chunk at a time, so the text
# of all markers never exists at once. "%.2f" formats as f"{v:.2f}" does.
_MARKER_CHUNK = 1024
_MARKER = '<circle cx="%.2f" cy="%.2f" r="3" fill="%s" fill-opacity="0.65"/>\n'


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped for SVG character data."""
    # by hand: xml.sax.saxutils imports urllib.request, http, email and ssl (~30 ms)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class ArrowSpec:
    angle_deg: float
    length: float  # data units
    color: str
    dash: str
    annotation: str


@dataclass
class ClockGlyph:
    cx: float
    cy: float
    radius: float
    arrows: list[ArrowSpec]
    caption: str | None = None


@dataclass
class SegmentGlyph:
    x1: float
    y1: float
    x2: float
    y2: float
    arrows: list[ArrowSpec]  # anchored at the segment midpoint


@dataclass
class CircleTrace:
    cx: float  # data coordinates, before pixel rounding
    cy: float
    radius: float
    color: str
    dash: str


@dataclass
class CirclesGlyph:
    cx: float
    cy: float
    radius: float
    traces: list[CircleTrace]


@dataclass
class Scene:
    width: int = 900
    height: int = 600
    feature_styles: dict[str, tuple[str, str]] = field(default_factory=dict)
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))  # embedding rows
    point_slots: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))  # in _POINT_COLORS
    clocks: list[ClockGlyph] = field(default_factory=list)
    segments: list[SegmentGlyph] = field(default_factory=list)
    circles: list[CirclesGlyph] = field(default_factory=list)
    legend: list[tuple[str, str, str]] = field(default_factory=list)

    def to_svg(self, out) -> None:
        """Write the SVG text piece by piece to the text file ``out``."""
        out.writelines(_svg_pieces(self))


def _style_for(scene: Scene, feature: str) -> tuple[str, str]:
    if feature not in scene.feature_styles:
        i = len(scene.feature_styles)
        scene.feature_styles[feature] = (
            PALETTE[i % len(PALETTE)],
            DASHES[(i // len(PALETTE)) % len(DASHES)],
        )
    return scene.feature_styles[feature]


def _add_legend(scene: Scene, label: str, color: str, dash: str = "") -> None:
    entry = (label, color, dash)
    if entry not in scene.legend:
        scene.legend.append(entry)


def render_scatter(dataset: Dataset, grouping: GroupingResult | None = None, *, canvas=(900, 600)) -> Scene:
    """Scene with one marker per embedded point, colored by group; the canvas obeys :func:`canvas_size`."""
    scene = Scene(*canvas_size(canvas), points=dataset.Y)
    for name in dataset.feature_names:
        _style_for(scene, name)
    scene.point_slots = np.zeros(len(scene.points), np.uint8)
    if grouping is None:
        return scene
    check_coverage(dataset, grouping)  # a shorter label array would broadcast over the slots
    for g in grouping.groups:
        _add_legend(scene, g.name, PALETTE[g.id % len(PALETTE)])
    # the remainder is cast into the slots as it is taken: no n-long int64 temporary
    np.remainder(grouping.labels, len(PALETTE), out=scene.point_slots, casting="unsafe")
    noise = grouping.labels == NOISE
    if noise.any():
        _add_legend(scene, "noise", NOISE_COLOR)
        scene.point_slots[noise] = len(PALETTE)
    return scene


def _arrow_specs(scene: Scene, arrows, full_length: float) -> list[ArrowSpec]:
    """Arrow specs scaled so the strongest arrow is ``full_length`` long, with legend entries."""
    top = max((a.magnitude for a in arrows), default=0.0)
    specs = []
    for a in arrows:
        color, dash = _style_for(scene, a.feature)
        _add_legend(scene, a.feature, color, dash)
        length = full_length * (a.magnitude / top if top > 0 else 0.0)
        specs.append(ArrowSpec(a.angle_deg, length, color, dash, f"{a.magnitude:.2f}"))
    return specs


def _radius(clock: Clock, clock_scale: float) -> float:
    radius = clock.scale * positive("scale", clock_scale)
    if not (math.isfinite(radius) and radius > 0):
        raise ComputationError(f"clock radius must be positive and finite, got {radius}")
    return radius


def render_clock(scene: Scene, clock: Clock, *, clock_scale: float = 1.0) -> Scene:
    """Add a clock glyph: circle, arrows scaled to the longest, rim labels; the scale obeys RunConfig's rule."""
    radius = _radius(clock, clock_scale)
    arrows = _arrow_specs(scene, clock.arrows, radius)
    caption = None if arrows else "no significant features"
    scene.clocks.append(ClockGlyph(clock.anchor[0], clock.anchor[1], radius, arrows, caption))
    return scene


def render_intergroup(scene: Scene, clocks: list[IntergroupClock]) -> Scene:
    """Add one center-to-center segment per clock, with arrows at the midpoint."""
    for clock in clocks:
        (xa, ya), (xb, yb) = clock.centers
        half = 0.5 * math.hypot(xb - xa, yb - ya)
        arrows = _arrow_specs(scene, clock.arrows, 0.85 * half)
        scene.segments.append(SegmentGlyph(xa, ya, xb, yb, arrows))
    return scene


def render_circles(scene: Scene, clock: Clock, *, clock_scale: float = 1.0) -> Scene:
    """Add the full-sweep view: one coefficient circle per drawn arrow.

    On the direction theta a feature's coefficient is
    c = beta0*cos(theta) + beta90*sin(theta), and the points
    c*(cos(theta), sin(theta)) trace the circle whose diameter runs from
    the anchor to the arrow's tip (beta0, beta90). Each circle is drawn
    exactly, scaled by the clock radius over the largest drawn magnitude,
    so the strongest feature's diameter is the radius and every circle lies
    inside the rim. Only the clock's arrows, the features that survived
    significance filtering, are drawn.
    """
    radius = _radius(clock, clock_scale)
    cx, cy = clock.anchor
    peak = max((a.magnitude for a in clock.arrows), default=0.0)
    half = 0.5 * (radius / peak if peak > 0 else 1.0)
    traces = []
    for a in clock.arrows:
        color, dash = _style_for(scene, a.feature)
        _add_legend(scene, a.feature, color, dash)
        traces.append(CircleTrace(cx + half * a.beta0, cy + half * a.beta90, half * a.magnitude, color, dash))
    scene.circles.append(CirclesGlyph(cx, cy, radius, traces))
    return scene


def _fmt(value: float) -> str:
    out = f"{value:.2f}"
    return "0.00" if out == "-0.00" else out


def _data_bounds(scene: Scene, points: np.ndarray) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    if points.size:
        (x0, y0), (x1, y1) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
        xs.extend((x0, x1))
        ys.extend((y0, y1))
    for c in scene.clocks:
        xs.extend((c.cx - c.radius, c.cx + c.radius))
        ys.extend((c.cy - c.radius, c.cy + c.radius))
    for s in scene.segments:
        xs.extend((s.x1, s.x2))
        ys.extend((s.y1, s.y2))
    for g in scene.circles:
        xs.extend((g.cx - g.radius, g.cx + g.radius))
        ys.extend((g.cy - g.radius, g.cy + g.radius))  # every trace lies inside its rim
    if not xs:
        return 0.0, 0.0, 1.0, 1.0
    return min(xs), min(ys), max(xs), max(ys)


def _nudged_angles(arrows: list[ArrowSpec]) -> list[float]:
    """Deterministic label angles: push overlaps apart in 12-degree steps."""
    used: list[float] = []
    out = []
    for arrow in arrows:
        angle = arrow.angle_deg % 360.0
        for _ in range(31):
            clash = any(
                min(abs(angle - u), 360.0 - abs(angle - u)) < _ANNOTATION_STEP
                for u in used
            )
            if not clash:
                break
            angle = (angle + _ANNOTATION_STEP) % 360.0
        used.append(angle)
        out.append(angle)
    return out


def _markers(points: np.ndarray, slots: np.ndarray, tx, ty) -> Iterator[str]:
    """The scatter markers' lines, ``_MARKER_CHUNK`` markers per piece.

    ``tx`` and ``ty`` map a whole column at once in the order they map one
    float, so every coordinate is the float ``_fmt`` would be given; "-0.00"
    becomes "0.00" as in ``_fmt``.
    """
    points = points[: len(slots)]
    for lo in range(0, len(points), _MARKER_CHUNK):
        chunk = points[lo : lo + _MARKER_CHUNK]
        values = [None] * (3 * len(chunk))
        values[0::3] = tx(chunk[:, 0]).tolist()
        values[1::3] = ty(chunk[:, 1]).tolist()
        values[2::3] = [_POINT_COLORS[slot] for slot in slots[lo : lo + len(chunk)].tolist()]
        yield (_MARKER * len(chunk) % tuple(values)).replace('"-0.00"', '"0.00"')


def _svg_pieces(scene: Scene) -> Iterator[str]:
    """The SVG text in pieces, each a run of whole lines."""
    points = np.asarray(scene.points, dtype=float).reshape(-1, 2)
    xmin, ymin, xmax, ymax = _data_bounds(scene, points)
    span_x = xmax - xmin if xmax > xmin else 1.0
    span_y = ymax - ymin if ymax > ymin else 1.0
    avail_w = scene.width - 2 * CANVAS_MARGIN
    avail_h = scene.height - 2 * CANVAS_MARGIN
    s = min(avail_w / span_x, avail_h / span_y)
    ox = CANVAS_MARGIN + (avail_w - s * span_x) / 2.0
    oy = CANVAS_MARGIN + (avail_h - s * span_y) / 2.0

    def tx(x):  # a float or an array of them
        return ox + s * (x - xmin)

    def ty(y):
        return scene.height - (oy + s * (y - ymin))

    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{scene.width}" '
        f'height="{scene.height}" viewBox="0 0 {scene.width} {scene.height}">\n'
        f'<rect x="0" y="0" width="{scene.width}" height="{scene.height}" fill="#ffffff"/>\n'
    )
    yield from _markers(points, scene.point_slots, tx, ty)

    parts = []
    for seg in scene.segments:
        parts.append(
            f'<line x1="{_fmt(tx(seg.x1))}" y1="{_fmt(ty(seg.y1))}" '
            f'x2="{_fmt(tx(seg.x2))}" y2="{_fmt(ty(seg.y2))}" '
            f'stroke="#444444" stroke-width="1.5" stroke-dasharray="4,3"/>'
        )
        for end in ((seg.x1, seg.y1), (seg.x2, seg.y2)):
            parts.append(
                f'<circle cx="{_fmt(tx(end[0]))}" cy="{_fmt(ty(end[1]))}" r="4" '
                f'fill="#444444"/>'
            )
        mx = (seg.x1 + seg.x2) / 2.0
        my = (seg.y1 + seg.y2) / 2.0
        _emit_arrows(parts, seg.arrows, mx, my, tx, ty, s)

    for glyph in scene.clocks:
        parts.append(
            f'<circle cx="{_fmt(tx(glyph.cx))}" cy="{_fmt(ty(glyph.cy))}" '
            f'r="{_fmt(s * glyph.radius)}" fill="none" stroke="#444444" '
            f'stroke-width="1.5"/>'
        )
        if glyph.caption:
            parts.append(
                f'<text x="{_fmt(tx(glyph.cx))}" y="{_fmt(ty(glyph.cy) + s * glyph.radius + 16)}" '
                f'font-family="sans-serif" font-size="12" text-anchor="middle" '
                f'fill="#444444">{_escape(glyph.caption)}</text>'
            )
        _emit_arrows(
            parts, glyph.arrows, glyph.cx, glyph.cy, tx, ty, s, rim_radius=glyph.radius
        )

    for g in scene.circles:
        parts.append(
            f'<circle cx="{_fmt(tx(g.cx))}" cy="{_fmt(ty(g.cy))}" '
            f'r="{_fmt(s * g.radius)}" fill="none" stroke="#bbbbbb" '
            f'stroke-width="1"/>'
        )
        for trace in g.traces:
            dash = f' stroke-dasharray="{trace.dash}"' if trace.dash else ""
            parts.append(
                f'<circle cx="{_fmt(tx(trace.cx))}" cy="{_fmt(ty(trace.cy))}" '
                f'r="{_fmt(s * trace.radius)}" fill="none" stroke="{trace.color}" '
                f'stroke-width="1.5"{dash}/>'
            )

    # rows 18 px apart from y = 24; a row past the bottom margin starts a new column to the
    # left, and when no column is left the last row counts the entries left out
    per_column = max(1, int((scene.height - CANVAS_MARGIN - 24) // 18) + 1)
    slots = per_column * max(1, scene.width // 160)
    rows = [(label, color) for label, color, _ in scene.legend]
    if len(rows) > slots:
        rows[slots - 1 :] = [(f"+{len(rows) - slots + 1} more", None)]
    for i, (label, color) in enumerate(rows):
        column, row = divmod(i, per_column)
        x0 = max(0, scene.width - 160 * (column + 1))
        y = 24 + 18 * row
        if color is not None:
            parts.append(
                f'<rect x="{x0}" y="{y - 9}" width="10" height="10" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{x0 + 16}" y="{y}" font-family="sans-serif" font-size="12" '
            f'fill="#222222">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    yield "\n".join(parts) + "\n"


def _emit_arrows(parts, arrows, cx, cy, tx, ty, s, *, rim_radius=None):
    label_angles = _nudged_angles(arrows)
    for arrow, label_angle in zip(arrows, label_angles):
        ux, uy = unit_vector(arrow.angle_deg)
        tip_x = cx + arrow.length * ux
        tip_y = cy + arrow.length * uy
        x1, y1 = tx(cx), ty(cy)
        x2, y2 = tx(tip_x), ty(tip_y)
        dash = f' stroke-dasharray="{arrow.dash}"' if arrow.dash else ""
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{arrow.color}" stroke-width="2"{dash}/>'
        )
        # arrowhead in pixel space
        px_len = math.hypot(x2 - x1, y2 - y1)
        if px_len > 0:
            hx = (x2 - x1) / px_len
            hy = (y2 - y1) / px_len
            head = min(10.0, 0.3 * px_len)
            bx = x2 - head * hx
            by = y2 - head * hy
            nx, ny = -hy, hx
            parts.append(
                f'<polygon points="{_fmt(x2)},{_fmt(y2)} '
                f'{_fmt(bx + 3.5 * nx)},{_fmt(by + 3.5 * ny)} '
                f'{_fmt(bx - 3.5 * nx)},{_fmt(by - 3.5 * ny)}" '
                f'fill="{arrow.color}"/>'
            )
        lux, luy = unit_vector(label_angle)
        ring = rim_radius if rim_radius is not None else arrow.length
        lx = tx(cx + ring * lux) + 14 * lux
        ly = ty(cy + ring * luy) - 14 * luy
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="{arrow.color}">'
            f'{_escape(arrow.annotation)}</text>'
        )
