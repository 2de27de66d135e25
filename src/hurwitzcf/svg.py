"""Tessellation of the unit box by first-digit cylinders, emitted as SVG.

Each cylinder with digit (k, l) is the image of the box around k + il
under z -> 1/z, a curvilinear quadrilateral bordered by four circles
through the origin: the lines x = k +- 1/2 map to circles of radius
1/|2k +- 1| centred on the real axis, the lines y = l +- 1/2 to circles of
radius 1/|2l +- 1| centred on the imaginary axis.  Arcs are emitted with
these exact parameters rather than polyline approximations.

The soundness check reads the regions back from the rendered document
and compares each arc with the image of its own box edge, which
region_paths names for arc i of region (k, l): the arc must end at the
image 1/w of box corner i + 1, to within the rounding of the 12 printed
digits, have the radius 1/|m| of its edge's line Re w = m/2 or
Im w = m/2 (m odd), and carry that edge's flags exactly.  Through two
distinct points pass two circles of radius r, and the flags pick one
minor arc of one of them (SVG 1.1 F.6.5), so a region whose four arcs
pass draws the image of its box's boundary, to print precision, and
fills the image of its box (soundness_check).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expansion import REGULAR_NORM_SQ, _euclid_step, _from_quotient
from .gaussian import GaussianInt, lattice_points

_GRID = 1 << 16  # grid points w = (A + iB)/2^16 of the pre-image boxes


@dataclass(frozen=True)
class TessellationSpec:
    norm_sq_max: int = 8
    include_exceptional: bool = True
    stroke_width: float = 0.002

    def __post_init__(self) -> None:
        if not isinstance(self.norm_sq_max, int) or isinstance(self.norm_sq_max, bool):
            raise DomainError(f"norm_sq_max must be an int, got {self.norm_sq_max!r}")
        if not isinstance(self.include_exceptional, bool):
            raise DomainError(f"include_exceptional must be a bool, got {self.include_exceptional!r}")
        width = self.stroke_width
        if isinstance(width, bool) or not (isinstance(width, (int, float)) and 0 <= width < math.inf):
            raise DomainError(f"stroke_width must be finite and >= 0, got {width!r}")
        if self.norm_sq_max < 2:
            raise DomainError("norm_sq_max must be at least 2")
        if self.norm_sq_max > 1 << 16:  # about 2e5 regions and 88 MB of SVG
            raise DomainError(f"norm_sq_max must be at most {1 << 16}, got {self.norm_sq_max}")


def _region_rows(spec: TessellationSpec) -> np.ndarray:
    """The (re, im) rows, int64, of the digits whose cylinders are rendered,
    norm-lex ordered."""
    return lattice_points(2 if spec.include_exceptional else REGULAR_NORM_SQ, spec.norm_sq_max)


def region_digits(spec: TessellationSpec) -> list[GaussianInt]:
    """Digits whose cylinders are rendered, norm-lex ordered."""
    return [GaussianInt(re, im) for re, im in _region_rows(spec).tolist()]


_NUMBER = ".12g"  # the format of every number in a path, and of the stroke width
_PATH = "M" + " {}" * 9 + " Z"  # corner 0, then arc i's head and end corner, i = 0..3
_BLOCK = 4096  # regions formatted at a time


def _formatted_once(keys: np.ndarray, text, *columns: np.ndarray) -> np.ndarray:
    """An object array of the shape of ``keys`` holding ``text(*values)``,
    formatted once for each distinct key from the values that ``columns``
    hold at one of its places."""
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    texts = list(map(text, *(column.ravel()[first].tolist() for column in columns)))
    return np.array(texts, dtype=object)[inverse.reshape(keys.shape)]


def region_paths(rows: np.ndarray) -> list[str]:
    """Closed SVG paths of four circular arcs for the cylinders of the int64
    digit rows (re, im).

    Corner i of the box around k + il is (k -+ 1/2, l -+ 1/2), counterclockwise
    from the bottom left, and arc i runs from corner i to corner i + 1 along the
    image of the line y = l - 1/2, x = k + 1/2, y = l + 1/2 or x = k - 1/2.  A
    corner's image 1/(x + iy) is computed with the operations of CPython's
    complex division, in their order, so it equals ``1.0 / complex(x, y)`` bit
    for bit; the line at c maps to a circle of radius 1/|2c| through 0.  The
    flags are closed-form.  The image of c + iy lies at angle -2 atan(y/c)
    about the centre 1/(2c), so an edge from y1 to y1 + 1 spans more than pi
    only if y1 (y1 + 1) < -c^2, that is l^2 + (k +- 1/2)^2 < 1/4 (and
    k^2 + (l +- 1/2)^2 < 1/4 for the lines y = c), which no integers allow:
    the large-arc flag is 0.  The arc avoids 0, the image of infinity, and
    runs counterclockwise (sweep 1) exactly when the box lies on the side of
    its line away from 0: l - 1/2 > 0, k + 1/2 < 0, l + 1/2 < 0, k - 1/2 > 0.

    Each distinct number is formatted once: a corner, shared by up to four
    boxes, is keyed by its odd pair (2x, 2y), and an arc's head
    ``A r r 0 0 sweep`` by the odd m = 2c of its line and its sweep, 2c
    being exact so that 1.0/|2c| is 1.0/|m|.
    """
    k, l = rows[:, :1], rows[:, 1:]
    twice_x, twice_y = 2 * k + [-1, 1, 1, -1], 2 * l + [-1, -1, 1, 1]  # of corner i
    x, y = twice_x / 2, twice_y / 2
    wide = np.abs(x) >= np.abs(y)
    ratio = np.where(wide, y / x, x / y)
    denom = np.where(wide, x + y * ratio, x * ratio + y)
    re, im = np.where(wide, 1.0, ratio) / denom, np.where(wide, -ratio, -1.0) / denom
    m = np.abs(np.where([False, True, False, True], twice_x, twice_y))  # of arc i's line
    sweep = np.concatenate([l > 0, k < 0, l < 0, k > 0], axis=1).astype(np.int64)
    span = 2 * int(np.abs(twice_y).max(initial=0)) + 1
    corners = _formatted_once(twice_x * span + twice_y,
                              f"{{:{_NUMBER}}} {{:{_NUMBER}}}".format, re, im)
    heads = _formatted_once(2 * m + sweep, f"A {{0:{_NUMBER}}} {{0:{_NUMBER}}} 0 0 {{1}}".format,
                            1.0 / m, sweep)
    table = np.empty((len(rows), 9), dtype=object)
    table[:, 0:8:2], table[:, 1::2], table[:, 8] = corners, heads, corners[:, 0]
    return list(map(_PATH.format, *table.T.tolist()))


def render_svg(spec: TessellationSpec) -> str:
    """Full SVG document for the tessellation (no timestamps, byte-stable)."""
    return _document(spec, _region_rows(spec))


def _document(spec: TessellationSpec, rows: np.ndarray) -> str:
    """render_svg(spec) from its region rows, _region_rows(spec)."""
    width = format(spec.stroke_width, _NUMBER)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="-0.52 -0.52 1.04 1.04">\n'
        "<defs>\n"
        '<clipPath id="unit-box"><rect x="-0.5" y="-0.5" width="1" height="1"/></clipPath>\n'
        "</defs>\n"
        '<g transform="scale(1,-1)">\n'
        '<rect x="-0.5" y="-0.5" width="1" height="1" fill="none" '
        f'stroke="black" stroke-width="{width}"/>\n'
    ]
    line = (f'<path id="cyl_{{}}_{{}}" d="{{}}" fill="hsl({{}},60%,80%)" stroke="black" '
            f'stroke-width="{width}"{{}}/>\n')
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK]
        hue = (37 * (block @ [13, 7])) % 360
        clip = np.where((block * block).sum(axis=1) < REGULAR_NORM_SQ,
                        ' clip-path="url(#unit-box)"', "")
        parts.append("".join(map(line.format, *block.T.tolist(), region_paths(block),
                                 hue.tolist(), clip.tolist())))
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


_REGION = re.compile(r'<path id="cyl_(-?\d+)_(-?\d+)" d="([^"]*)"')
# Printed to 12 digits, a number is within a relative 5e-12 of the
# renderer's float, itself a few ulp from the exact corner image or radius;
# the reference it is compared with is within 1 ulp of that.  So an arc's
# end lies within 1e-11 |1/w| of its reference, a factor 10 inside _SNAP.
# Any other corner w' has |1/w - 1/w'| >= |1/w| / (|w| + 1), and any other
# radius 1/|m'| of the family differs from 1/|m| by a relative 2/(|m| + 2)
# or more.  Up to norm_sq 2^16, |w| < 257 and |m| <= 513: both gaps, about
# 1/|w|, stay above 3.8e-3, far outside _SNAP.
_SNAP = 1e-10


# Token columns of a path M x y, four arcs A r r 0 large sweep x y, Z; arc i
# starts at column 3 + 8i.
_ARCS = np.arange(3, 35, 8)
_FIXED_AT, _FIXED = np.r_[0, _ARCS, _ARCS + 3, 35], np.array([*"MAAAA0000Z"], dtype=object)
_SAME_AT = np.r_[1, 2, _ARCS + 1], np.r_[33, 34, _ARCS + 2]  # closing point, rx == ry
_FLAGS_AT = np.r_[_ARCS + 4, _ARCS + 5]  # every large flag, then every sweep flag
_NUMBERS_AT = (_ARCS[:, None] + [1, 6, 7]).ravel()  # r, x, y of each arc
_NOT_A_PATH = "not a closed path M x y, four arcs A r r 0 large sweep x y, Z"


def _read_arcs(paths: list[str]) -> np.ndarray | tuple[int, str]:
    """Every arc of the region paths as (r, large, sweep, x, y), (x, y) its end.

    Each path must read M x y, four arcs A r r 0 large sweep x y with
    flags 0 or 1, and Z, and end where it starts.  Returns a float array
    of shape (regions, 4, 5), or (region, reason) for the first path that
    does not read so, its structure judged before its numbers.  The paths
    are split into one (regions, 36) token table: its fixed tokens, radii,
    flags and closing points are column tests, and its numbers are parsed
    in one pass.
    """
    tokens = list(map(str.split, paths))
    lengths = list(map(len, tokens))
    if lengths.count(36) < len(paths):
        short = next(region for region, length in enumerate(lengths) if length != 36)
        before = _read_arcs(paths[:short])
        return before if isinstance(before, tuple) else (short, _NOT_A_PATH)
    table = np.array(tokens, dtype=object).reshape(-1, 36)
    flags = table[:, _FLAGS_AT]
    structure = ((table[:, _FIXED_AT] == _FIXED).all(axis=1)
                 & (table[:, _SAME_AT[0]] == table[:, _SAME_AT[1]]).all(axis=1)
                 & ((flags == "0") | (flags == "1")).all(axis=1))
    numbers, failed = table[:, _NUMBERS_AT], ~structure
    try:
        values = np.array(list(map(float, numbers.ravel().tolist())))
    except ValueError:
        failed |= ~np.array(list(map(_all_parse, numbers.tolist())), dtype=bool)
    if failed.any():
        region = int(np.argmax(failed))
        return region, _NOT_A_PATH if not structure[region] else "a number does not parse"
    r, x, y = np.moveaxis(values.reshape(-1, 4, 3), 2, 0)
    large, sweep = (flags == "1").reshape(-1, 2, 4).transpose(1, 0, 2)
    return np.stack((r, large, sweep, x, y), axis=2)


def _all_parse(numbers: list[str]) -> bool:
    """Whether ``float`` reads every one of ``numbers``."""
    try:
        list(map(float, numbers))
    except ValueError:
        return False
    return True


def _arc_witness(rows: np.ndarray, arcs: np.ndarray) -> dict | None:
    """The first arc that does not draw its own box edge, or None.

    Arc i of region (k, l) must draw the line y = l - 1/2, x = k + 1/2,
    y = l + 1/2 or x = k - 1/2 as region_paths renders it: it must end at
    the image 1/w = 2 (X - iY)/(X^2 + Y^2) of corner i + 1, (X, Y) being
    its odd pair (2 Re w, 2 Im w), within _SNAP |1/w|; its radius must be
    1/|m| within _SNAP, with m = (2l - 1, 2k + 1, 2l + 1, 2k - 1)[i], its
    large flag 0 and its sweep (l > 0, k < 0, l < 0, k > 0)[i].  Arc i
    starts where arc i - 1 ends, and arc 0 at M x y, which _read_arcs holds
    to arc 3's end, so the four ends fix every corner.
    """
    k, l = rows[:, :1], rows[:, 1:]
    m = np.concatenate([2 * l - 1, 2 * k + 1, 2 * l + 1, 2 * k - 1], axis=1)
    turn = np.concatenate([l > 0, k < 0, l < 0, k > 0], axis=1)
    twice_x, twice_y = 2 * k + [1, 1, -1, -1], 2 * l + [-1, 1, 1, -1]  # of corner i + 1
    norm = twice_x * twice_x + twice_y * twice_y
    end_x, end_y = 2 * twice_x / norm, -2 * twice_y / norm
    r, large, sweep, x, y = np.moveaxis(arcs, -1, 0)
    with np.errstate(over="ignore"):
        on_edge = ((np.hypot(x - end_x, y - end_y) <= _SNAP * np.hypot(end_x, end_y))
                   & (np.abs(r * np.abs(m) - 1) <= _SNAP) & (large == 0) & (sweep == turn))
    if on_edge.all():
        return None
    region, arc = np.argwhere(~on_edge)[0].tolist()
    r, large, sweep, x, y = arcs[region, arc].tolist()
    end = f"2/({twice_x[region, arc]}{twice_y[region, arc]:+d}i)"
    return {"check": "arc", "region": rows[region].tolist(), "arc": arc,
            "reason": f"radius {r:.12g} to ({x:.12g}, {y:.12g}) with flags {large:.0f} "
                      f"{sweep:.0f} is not its box edge's arc: end {end}, "
                      f"radius 1/{abs(m[region, arc])}, flags 0 {turn[region, arc]:d}"}


def _first_digit_witness(rows: np.ndarray) -> dict | None:
    """An extreme grid corner of a pre-image box, (2k - 1, 2l - 1) 2^15 or
    (2k + 1, 2l + 1) 2^15 - 1 on 2^16 w, whose first digit is not its
    region's, or None."""
    corners = ((2 * rows[:, None, :] + [[-1], [1]]) << 15) - [[0], [1]]
    first_re, first_im = _euclid_step(_GRID, 0, corners[..., 0], corners[..., 1])[:2]
    wrong = np.argwhere((first_re != rows[:, :1]) | (first_im != rows[:, 1:]))
    if not len(wrong):
        return None
    region, corner = wrong[0].tolist()
    return {"check": "first_digit", "region": rows[region].tolist(),
            "corner": ("bottom left", "top right")[corner],
            "point": str(_from_quotient(_GRID, 0, *corners[region, corner].tolist()))}


def soundness_check(
    spec: TessellationSpec, samples_per_region: int = 1000, seed: int = 1
) -> tuple[bool, dict | None]:
    """The rendered document draws each region as the image under z -> 1/z
    of the half-open pre-image box around its digit k + il, and every grid
    point p = 1/w, 2^16 w = A + iB, of that box has first digit (k, l).

    Reads the regions back from render_svg(spec), rendered from the rows
    enumerated here: the ``<path id="cyl_k_l">`` ids must be those rows in
    order, and each path must read as four arcs (_read_arcs).  Each arc is
    compared with its own box edge (_arc_witness): its end with the image
    1/w of the edge's end corner, within _SNAP |1/w|, ten times the
    rounding of the printed digits and far inside the relative gap of
    about 1/|w| to any other corner's image; its radius and flags with the
    edge's.  So the path draws the image of its box's boundary (module
    docstring) and fills the box's image at every point of the continuum,
    not only on a grid; distinct digits have disjoint boxes.  The first
    digit of a grid point, (floor((A + h)/2^16), floor((B + h)/2^16)) with
    h = 2^15 by expansion._euclid_step, has a real part that depends on A
    alone and an imaginary part that depends on B alone, each
    nondecreasing, so it is decided on the whole box at its two extreme
    grid corners (_first_digit_witness).  As norm_sq_max <= 2^16,
    |A|, |B| < 2^31 and _euclid_step's terms stay below 2^50: all exact in
    int64.

    Witness checks: ``regions`` (ids other than the region digits),
    ``arc`` (an arc other than its box edge's, with the arc index, -1 for
    the whole path, and the reason) and ``first_digit`` (a corner with
    another first digit).  ``samples_per_region`` and ``seed`` are not
    read: they stay, validated, until the benchmark's soundness job stops
    passing them.  A sample count below 1 or a seed below 0, either one
    not an int, or a spec with no regions raises DomainError.
    """
    for name, value, least in (("samples_per_region", samples_per_region, 1), ("seed", seed, 0)):
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise DomainError(f"{name} must be an int of at least {least}, got {value!r}")
    rows = _region_rows(spec)
    if not len(rows):
        raise DomainError(f"{spec} has no regions to check")  # a check of nothing proves nothing
    found = _REGION.findall(_document(spec, rows))
    ids = [[int(k), int(l)] for k, l, _ in found]
    if ids != rows.tolist():
        return False, {"check": "regions", "expected": rows.tolist(), "found": ids}
    arcs = _read_arcs([d for _, _, d in found])
    if isinstance(arcs, tuple):
        return False, {"check": "arc", "region": ids[arcs[0]], "arc": -1, "reason": arcs[1]}
    witness = _arc_witness(rows, arcs) or _first_digit_witness(rows)
    return witness is None, witness
