"""Tessellation of the unit box by first-digit cylinders, emitted as SVG.

Each cylinder with digit (k, l) is the image of the box around k + il
under z -> 1/z, a curvilinear quadrilateral bordered by four circles
through the origin: the lines x = k +- 1/2 map to circles of radius
1/|2k +- 1| centred on the real axis, the lines y = l +- 1/2 to circles of
radius 1/|2l +- 1| centred on the imaginary axis.  Arcs are emitted with
these exact parameters rather than polyline approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .expansion import REGULAR_NORM_SQ, classify_digit
from .gaussian import GaussianInt, points_by_norm
from .ifs import separation_check


@dataclass(frozen=True)
class TessellationSpec:
    norm_sq_max: int = 8
    include_exceptional: bool = True
    stroke_width: float = 0.002

    def __post_init__(self) -> None:
        if self.norm_sq_max < 2:
            raise DomainError("norm_sq_max must be at least 2")


def region_digits(spec: TessellationSpec) -> list[GaussianInt]:
    """Digits whose cylinders are rendered, norm-lex ordered."""
    lo = 2 if spec.include_exceptional else REGULAR_NORM_SQ
    return points_by_norm(lo, spec.norm_sq_max)


def _invert(x: float, y: float) -> complex:
    z = complex(x, y)
    return 1.0 / z


def _edge_circle(axis: str, c: float) -> tuple[complex, float]:
    """Image circle of the line x = c (axis 'x') or y = c (axis 'y')."""
    r = 1.0 / (2.0 * abs(c))
    if axis == "x":
        return complex(1.0 / (2.0 * c), 0.0), r
    return complex(0.0, -1.0 / (2.0 * c)), r


def _arc_flags(p1: complex, p2: complex, center: complex) -> tuple[int, int]:
    """SVG flags for the arc from p1 to p2 avoiding the origin point."""
    a1 = math.atan2(p1.imag - center.imag, p1.real - center.real)
    a2 = math.atan2(p2.imag - center.imag, p2.real - center.real)
    a0 = math.atan2(-center.imag, -center.real)  # the origin lies on the circle
    ccw = (a2 - a1) % (2.0 * math.pi)
    origin_offset = (a0 - a1) % (2.0 * math.pi)
    if origin_offset > ccw:  # origin not on the counterclockwise arc
        sweep = 1
        large = 1 if ccw > math.pi else 0
    else:
        sweep = 0
        cw = 2.0 * math.pi - ccw
        large = 1 if cw > math.pi else 0
    return large, sweep


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def region_path(k: int, l: int) -> str:
    """Closed SVG path of four circular arcs for the cylinder of (k, l)."""
    corners_pre = [
        (k - 0.5, l - 0.5),
        (k + 0.5, l - 0.5),
        (k + 0.5, l + 0.5),
        (k - 0.5, l + 0.5),
    ]
    edges = [
        ("y", l - 0.5),  # bottom edge joins corners 0 -> 1
        ("x", k + 0.5),  # right edge joins 1 -> 2
        ("y", l + 0.5),  # top edge joins 2 -> 3
        ("x", k - 0.5),  # left edge joins 3 -> 0
    ]
    pts = [_invert(x, y) for x, y in corners_pre]
    parts = [f"M {_fmt(pts[0].real)} {_fmt(pts[0].imag)}"]
    for i, (axis, c) in enumerate(edges):
        p1 = pts[i]
        p2 = pts[(i + 1) % 4]
        center, radius = _edge_circle(axis, c)
        large, sweep = _arc_flags(p1, p2, center)
        parts.append(
            f"A {_fmt(radius)} {_fmt(radius)} 0 {large} {sweep} "
            f"{_fmt(p2.real)} {_fmt(p2.imag)}"
        )
    parts.append("Z")
    return " ".join(parts)


def render_svg(spec: TessellationSpec) -> str:
    """Full SVG document for the tessellation (no timestamps, byte-stable)."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="-0.52 -0.52 1.04 1.04">',
        "<defs>",
        '<clipPath id="unit-box"><rect x="-0.5" y="-0.5" width="1" height="1"/></clipPath>',
        "</defs>",
        '<g transform="scale(1,-1)">',
        f'<rect x="-0.5" y="-0.5" width="1" height="1" fill="none" '
        f'stroke="black" stroke-width="{_fmt(spec.stroke_width)}"/>',
    ]
    for digit in region_digits(spec):
        exceptional = classify_digit(digit) == "exceptional"
        clip = ' clip-path="url(#unit-box)"' if exceptional else ""
        hue = (37 * (digit.re * 13 + digit.im * 7)) % 360
        lines.append(
            f'<path id="cyl_{digit.re}_{digit.im}" d="{region_path(digit.re, digit.im)}" '
            f'fill="hsl({hue},60%,80%)" stroke="black" '
            f'stroke-width="{_fmt(spec.stroke_width)}"{clip}/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def soundness_check(
    spec: TessellationSpec, samples_per_region: int = 1000, seed: int = 1
) -> tuple[bool, dict | None]:
    """Sampled interior points carry their region's digit, uniquely.

    For every rendered region, each sampled point's first digit must equal
    the region label, and the point must lie in exactly one region's image
    (tested through the inverse map on every rendered digit); see
    ifs.separation_check.
    """
    return separation_check(region_digits(spec), samples_per_region, seed)
