"""Tessellation of the unit box by first-digit cylinders, emitted as SVG.

Each cylinder with digit (k, l) is the image of the box around k + il
under z -> 1/z, a curvilinear quadrilateral bordered by four circles
through the origin: the lines x = k +- 1/2 map to circles of radius
1/|2k +- 1| centred on the real axis, the lines y = l +- 1/2 to circles of
radius 1/|2l +- 1| centred on the imaginary axis.  Arcs are emitted with
these exact parameters rather than polyline approximations.

The soundness check reads the regions back from the rendered document.
The line Re w = m/2 (m odd) maps to the circle through 0 with centre 1/m
and radius 1/|m|, and Im w = m/2 to the one with centre -i/m; for p = 1/w,
|p - 1/m| < 1/|m| exactly when m (2 Re w - m) > 0, and |p + i/m| < 1/|m|
exactly when m (2 Im w - m) > 0.  Each arc's circle is recovered from its
printed endpoints, radius and flags and snapped to the one exact circle of
this family it matches; distinct odd m are far apart next to the rounding
of the 12 printed digits, so the snapped circle is the one the arc draws.
z -> 1/z preserves orientation, so every region's boundary runs
counterclockwise and the sweep flag says on which side of its circle the
region lies.  Membership of a dyadic sample is then a sign test on
integers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expansion import REGULAR_NORM_SQ, _euclid_step, _from_quotient
from .gaussian import GaussianInt, lattice_points

_GRID = 1 << 16  # samples u = (a + ib)/2^16 with a, b in [-2^15, 2^15)


@dataclass(frozen=True)
class TessellationSpec:
    norm_sq_max: int = 8
    include_exceptional: bool = True
    stroke_width: float = 0.002

    def __post_init__(self) -> None:
        if not isinstance(self.norm_sq_max, int) or isinstance(self.norm_sq_max, bool):
            raise DomainError(f"norm_sq_max must be an int, got {self.norm_sq_max!r}")
        if not (isinstance(self.stroke_width, (int, float)) and 0 <= self.stroke_width < math.inf):
            raise DomainError(f"stroke_width must be finite and >= 0, got {self.stroke_width!r}")
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
# Printed numbers carry a relative error below 5e-12.  A centre recovered
# from them inherits it amplified by |endpoint| / chord; _SNAP leaves a
# factor 10 over the largest error measured on the arcs of every region up
# to norm_sq 20000.  At that tolerance the snap tells neighbouring odd m
# apart while |m| < _MAX_M.
_SNAP = 1e-10
_MAX_M = 1 << 17
_UNBOUNDED = 1 << 62


# Token columns of a path M x y, four arcs A r r 0 large sweep x y, Z; arc i
# starts at column 3 + 8i.
_ARCS = np.arange(3, 35, 8)
_FIXED_AT, _FIXED = np.r_[0, _ARCS, _ARCS + 3, 35], np.array([*"MAAAA0000Z"], dtype=object)
_SAME_AT = np.r_[1, 2, _ARCS + 1], np.r_[33, 34, _ARCS + 2]  # closing point, rx == ry
_FLAGS_AT = np.r_[_ARCS + 4, _ARCS + 5]  # every large flag, then every sweep flag
_NUMBERS_AT = (_ARCS[:, None] + [1, 6, 7]).ravel()  # r, x2, y2 of each arc
_NOT_A_PATH = "not a closed path M x y, four arcs A r r 0 large sweep x y, Z"


def _read_arcs(paths: list[str]) -> np.ndarray | tuple[int, str]:
    """Every arc of the region paths as (x1, y1, r, large, sweep, x2, y2).

    Each path must read M x y, four arcs A r r 0 large sweep x y with
    flags 0 or 1, and Z, and end where it starts.  Returns a float array
    of shape (regions, 4, 7), or (region, reason) for the first path that
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
    return np.stack((np.roll(x, 1, axis=1), np.roll(y, 1, axis=1), r, large, sweep, x, y), axis=2)


def _all_parse(numbers: list[str]) -> bool:
    """Whether ``float`` reads every one of ``numbers``."""
    try:
        list(map(float, numbers))
    except ValueError:
        return False
    return True


def _exact_circles(arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(axis, m, ok) of the exact circle each arc draws.

    The centre follows SVG 1.1 F.6.5 for rx = ry = r and no rotation: with
    h = (p1 - p2)/2 it is (p1 + p2)/2 + c (h.y, -h.x), where
    c = +-sqrt(r^2/|h|^2 - 1) is positive when the flags differ; a radius
    too small for the chord is scaled up (F.6.6), so c = 0.  The centre
    must be 1/m (axis 0) or -i/m (axis 1) and r must be 1/|m|, for an odd
    m with |m| < _MAX_M, both within _SNAP; ok is False where they are not.
    """
    x1, y1, r, large, sweep, x2, y2 = np.moveaxis(arcs, -1, 0)
    hx, hy = (x1 - x2) / 2, (y1 - y2) / 2
    half_chord = np.hypot(hx, hy)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.sqrt(np.maximum(0.0, (r / half_chord) ** 2 - 1))
        c = np.where(large == sweep, -c, c)
        cx, cy = (x1 + x2) / 2 + c * hy, (y1 + y2) / 2 - c * hx
        axis = (np.abs(cy) > np.abs(cx)).astype(np.int64)
        inverse = np.where(axis == 0, 1 / cx, -1 / cy)
        finite = np.abs(inverse) < _MAX_M
        m = np.rint(np.where(finite, inverse, 1)).astype(np.int64)
        exact = np.where(axis == 0, cx - 1 / m, cy + 1 / m)
        off_axis = np.where(axis == 0, cy, cx)
        amplify = np.maximum(np.hypot(x1, y1), np.hypot(x2, y2)) / half_chord
        ok = (finite & (m % 2 == 1) & (np.abs(r * np.abs(m) - 1) <= _SNAP)
              & (np.hypot(exact, off_axis) * np.abs(m) <= _SNAP * (1 + amplify)))
    return axis, m, ok


def _region_bounds(axis: np.ndarray, m: np.ndarray,
                   sweep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer bounds lo <= (A, B) <= hi on 2^16 w of each region, shape (R, 2).

    An arc on the circle of Re w = m/2 (axis 0) or Im w = m/2 (axis 1)
    keeps its region inside the disc with sweep 1 and outside with sweep
    0, so the region lies where m (X - 2^15 m) has the sign of m, or the
    opposite sign with sweep 0, for X = A or B.  Following the half-open
    box, a positive side is a closed lower edge, X >= 2^15 m, and a
    negative side an open upper edge, X <= 2^15 m - 1.  A side that no
    arc bounds stays at -+2^62.
    """
    lower = (m > 0) == (sweep == 1)
    edge = m << 15
    lo = [np.where(lower & (axis == k), edge, -_UNBOUNDED).max(axis=1) for k in (0, 1)]
    hi = [np.where(~lower & (axis == k), edge - 1, _UNBOUNDED).min(axis=1) for k in (0, 1)]
    return np.stack(lo, axis=1), np.stack(hi, axis=1)


def _read_regions(spec: TessellationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray] | dict:
    """The region rows and their bounds lo, hi read from render_svg(spec),
    rendered from the rows enumerated here.

    Each ``<path id="cyl_k_l">`` is read as four exact circles
    (_exact_circles) and integer bounds on 2^16 w (_region_bounds); the ids
    must be the _region_rows(spec) in order.  Returns a witness dict
    instead when the document does not read so, and raises DomainError for
    a spec with no regions, since a check of nothing proves nothing.
    """
    rows = _region_rows(spec)
    if not len(rows):
        raise DomainError(f"{spec} has no regions to check")
    found = _REGION.findall(_document(spec, rows))
    ids = [[int(k), int(l)] for k, l, _ in found]
    expected = rows.tolist()
    if ids != expected:
        return {"check": "regions", "expected": expected, "found": ids}
    arcs = _read_arcs([d for _, _, d in found])
    if isinstance(arcs, tuple):
        return {"check": "arc", "region": ids[arcs[0]], "arc": -1, "reason": arcs[1]}
    axis, m, ok = _exact_circles(arcs)
    if not ok.all():
        region, arc = np.argwhere(~ok)[0].tolist()
        x1, y1, r, large, sweep, x2, y2 = arcs[region, arc].tolist()
        return {"check": "arc", "region": ids[region], "arc": arc,
                "reason": f"radius {r:.12g} from ({x1:.12g}, {y1:.12g}) to ({x2:.12g}, "
                          f"{y2:.12g}) with flags {large:.0f} {sweep:.0f} draws no circle "
                          f"1/m or -i/m through 0 with m odd"}
    lo, hi = _region_bounds(axis, m, arcs[..., 4])
    return rows, lo, hi


def _claims(A: np.ndarray, B: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo <= (A, B) <= hi, broadcast: four comparisons on the coordinate
    columns, with the pair axis last in ``lo`` and ``hi``."""
    return (A >= lo[..., 0]) & (A <= hi[..., 0]) & (B >= lo[..., 1]) & (B <= hi[..., 1])


def soundness_check(
    spec: TessellationSpec, samples_per_region: int = 1000, seed: int = 1
) -> tuple[bool, dict | None]:
    """The rendered document claims every sample for its own region alone.

    Reads the regions back from render_svg(spec) (_read_regions; see the
    module docstring).  At the middle of each edge of a region's pre-image
    box around k + il, the nearest grid point of 2^-16 Z[i] inside the
    half-open box must be claimed and the nearest one outside must not; on
    the closed lower edges the inside point lies on the edge.  Then each
    region gets ``samples_per_region`` points p = 1/w from
    _box_images, with w = (A + iB)/2^16: p must expand with first
    digit (k, l), and its region alone must claim it, that is
    lo <= (A, B) <= hi.  TessellationSpec caps norm_sq_max at 2^16, so the
    digit coordinates are at most 2^8 < 2^14, |A|, |B| < 2^31,
    2^15 |m| < 2^32 and A^2 + B^2 < 2^63: every term is exact in int64.

    Witness checks: ``regions`` (ids other than the region digits),
    ``arc`` (a path that draws no exact circle arc, with the arc index, -1
    for the whole path, and the reason), ``edge_inside`` and
    ``edge_outside`` (a probe claimed wrongly), ``first_digit`` and
    ``unique_region`` (a sample).  A sample count below 1 or a seed below
    0, or either one not an int, raises DomainError, and so does a spec
    with no regions.
    """
    for name, value, least in (("samples_per_region", samples_per_region, 1), ("seed", seed, 0)):
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise DomainError(f"{name} must be an int of at least {least}, got {value!r}")
    read = _read_regions(spec)
    if isinstance(read, dict):
        return False, read
    rows, lo, hi = read
    witness = _probe_witness(rows, lo, hi)
    if witness is not None:
        return False, witness
    rng = np.random.default_rng(seed)
    points = _box_images(rows, samples_per_region, rng)
    owner = np.repeat(np.arange(len(rows)), samples_per_region)
    step = max(1, (1 << 20) // len(rows))  # about a megabyte of claims at a time
    for start in range(0, len(points), step):
        chunk = points[start:start + step]
        claimed = _claims(chunk[:, :1], chunk[:, 1:], lo, hi)
        witness = _sample_witness(rows, owner[start:start + step], chunk, claimed)
        if witness is not None:
            return False, witness
    return True, None


_OVERSAMPLE = 4  # draws per missing sample of an exceptional digit
_STALL = 200  # draws per sample, times the factor, after which a digit stalls


def _box_images(rows: np.ndarray, samples: int, rng: np.random.Generator) -> np.ndarray:
    """``samples`` seeded points p = 1/(u + digit) of the half-open box for
    each digit row (re, im), the points in row order.

    u = (a + ib)/2^16 with a, b from [-2^15, 2^15).  Each round is one
    draw: a digit still ``need`` points short takes its next 2 c values,
    c values of a and then c values of b, the digits in order, where c is
    need for a regular digit and _OVERSAMPLE need for an exceptional one
    (norm_sq < 8), whose images may leave the box.  A Generator gives the
    same values for one call as for consecutive calls, so this is a draw
    of shape (2, c) per digit.  A digit keeps the first ``need`` of its
    images in the box, in draw order, and draws again in the next round if
    it is still short; a digit that has drawn over _STALL times its factor
    times ``samples`` points stalls.  A point is returned as the int64 row
    (A, B) = 2^16 (u + digit), so 1/p = (A + iB)/2^16 and
    p = 2^16 (A - iB)/N with N = A^2 + B^2; p lies in the box exactly when
    -N <= 2^17 A < N and -N < 2^17 B <= N.
    """
    shift = rows * _GRID
    factor = np.where((rows * rows).sum(axis=1) < REGULAR_NORM_SQ, _OVERSAMPLE, 1)
    limit = _STALL * samples * factor
    need = np.full(len(rows), samples, dtype=np.int64)
    drawn = np.zeros_like(need)
    kept = []
    while (short := np.flatnonzero(need)).size:
        counts = need[short] * factor[short]
        drawn[short] += counts
        if (over := drawn > limit).any():
            stalled = GaussianInt(*rows[np.argmax(over)].tolist())
            raise DomainError(f"rejection sampling stalled for digit {stalled}")
        owner = np.repeat(short, counts)
        starts = np.cumsum(counts) - counts  # of each short digit's draws
        a_at = np.arange(len(owner)) + np.repeat(starts, counts)
        values = rng.integers(-_GRID // 2, _GRID // 2, size=2 * len(owner))
        A = values[a_at] + shift[owner, 0]
        B = values[a_at + np.repeat(counts, counts)] + shift[owner, 1]
        n = A * A + B * B
        a, b = (2 * _GRID) * A, (2 * _GRID) * B
        inside = (-n <= a) & (a < n) & (-n < b) & (b <= n)
        rank = np.cumsum(inside)  # images in the box so far, this one included
        rank -= np.repeat(rank[starts] - inside[starts], counts)
        keep = inside & (rank <= np.repeat(need[short], counts))
        kept.append((owner[keep], A[keep], B[keep]))
        need -= np.bincount(kept[-1][0], minlength=len(rows))
    owner, A, B = (np.concatenate(column) for column in zip(*kept))
    return np.stack((A, B), axis=1)[np.argsort(owner, kind="stable")]


def _sample_witness(rows: np.ndarray, owner: np.ndarray, points: np.ndarray,
                    claimed: np.ndarray) -> dict | None:
    """The first sample whose first digit is not its own, or that its own
    region does not claim alone.

    Sample s is the _box_images row points[s] = (A, B) of the digit row
    rows[owner[s]], and ``claimed[s, r]`` says whether region r claims
    it.  The first digits of p = 2^16/(A + iB) come from one
    expansion._euclid_step on the int64 columns, whose terms stay below
    2^50 for |A|, |B| < 2^31; only a witness builds p.
    """
    own = rows[owner]
    first_re, first_im = _euclid_step(_GRID, 0, points[:, 0], points[:, 1])[:2]
    wrong_digit = (first_re != own[:, 0]) | (first_im != own[:, 1])
    counts = claimed.sum(axis=1)
    alone = (counts == 1) & claimed[np.arange(len(owner)), owner]
    failed = np.flatnonzero(wrong_digit | ~alone)
    if failed.size == 0:
        return None
    s = failed[0]
    A, B = points[s].tolist()
    found = {"region": own[s].tolist(), "point": str(_from_quotient(_GRID, 0, A, B))}
    if wrong_digit[s]:
        return {"check": "first_digit", **found}
    return {"check": "unique_region", **found, "claims": int(counts[s])}


def _probe_witness(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> dict | None:
    """A probe at the middle of a pre-image box edge that its region claims
    from outside the box or misses from inside it."""
    half = _GRID // 2
    offsets = [(-half, 0), (half - 1, 0), (0, -half), (0, half - 1),  # inside
               (-half - 1, 0), (half, 0), (0, -half - 1), (0, half)]  # outside
    probes = (rows * _GRID)[:, None, :] + np.array(offsets, dtype=np.int64)
    held = _claims(probes[..., 0], probes[..., 1], lo[:, None], hi[:, None])
    wrong = np.argwhere(held != (np.arange(len(offsets)) < 4))
    if len(wrong) == 0:
        return None
    r, j = wrong[0].tolist()
    A, B = probes[r, j].tolist()
    return {"check": "edge_inside" if j < 4 else "edge_outside", "region": rows[r].tolist(),
            "edge": ("left", "right", "bottom", "top")[j % 4],
            "point": str(_from_quotient(_GRID, 0, A, B))}
