import functools
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hurwitzcf import DomainError, TessellationSpec, render_svg, soundness_check
from hurwitzcf import gaussian, svg
from hurwitzcf.svg import region_digits, region_paths


def region_path(k, l):
    return region_paths(np.array([[k, l]]))[0]


class TestRegionEnumeration:
    def test_counts_at_norm_8(self):
        spec = TessellationSpec(norm_sq_max=8, include_exceptional=True)
        digits = region_digits(spec)
        assert len(digits) == 20  # sixteen exceptional + four of norm_sq 8
        assert sum(1 for d in digits if d.norm_sq() == 8) == 4

    def test_counts_at_norm_2(self):
        spec = TessellationSpec(norm_sq_max=2)
        digits = region_digits(spec)
        assert len(digits) == 4
        assert all(d.norm_sq() == 2 for d in digits)

    def test_regular_only(self):
        spec = TessellationSpec(norm_sq_max=10, include_exceptional=False)
        digits = region_digits(spec)
        assert {d.norm_sq() for d in digits} == {8, 9, 10}

    def test_bad_cutoff(self):
        with pytest.raises(DomainError):
            TessellationSpec(norm_sq_max=1)

    @pytest.mark.parametrize("norm_sq_max", [8.5, 8.0, True, "8"])
    def test_cutoff_must_be_an_int(self, norm_sq_max):
        with pytest.raises(DomainError, match="norm_sq_max"):
            TessellationSpec(norm_sq_max=norm_sq_max)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, -1.0, "0.002"])
    def test_stroke_width_must_be_finite_and_non_negative(self, width):
        with pytest.raises(DomainError, match="stroke_width"):
            TessellationSpec(stroke_width=width)

    def test_zero_stroke_width_renders(self):
        assert 'stroke-width="0"' in render_svg(TessellationSpec(norm_sq_max=2, stroke_width=0))


class TestArcGeometry:
    def parse_arcs(self, path: str):
        """(start, [(radius, large, sweep, end), ...]) from a path string."""
        tokens = path.split()
        assert tokens[0] == "M" and tokens[-1] == "Z"
        start = complex(float(tokens[1]), float(tokens[2]))
        arcs = []
        i = 3
        while i < len(tokens) - 1:
            assert tokens[i] == "A"
            rx, ry = float(tokens[i + 1]), float(tokens[i + 2])
            assert rx == ry
            large, sweep = int(tokens[i + 4]), int(tokens[i + 5])
            end = complex(float(tokens[i + 6]), float(tokens[i + 7]))
            arcs.append((rx, large, sweep, end))
            i += 8
        return start, arcs

    def test_corners_are_inverted_box_corners(self):
        k, l = 3, 1
        start, arcs = self.parse_arcs(region_path(k, l))
        expected = [
            1.0 / complex(k - 0.5, l - 0.5),
            1.0 / complex(k + 0.5, l - 0.5),
            1.0 / complex(k + 0.5, l + 0.5),
            1.0 / complex(k - 0.5, l + 0.5),
        ]
        assert abs(start - expected[0]) < 1e-12
        ends = [a[3] for a in arcs]
        assert abs(ends[0] - expected[1]) < 1e-12
        assert abs(ends[1] - expected[2]) < 1e-12
        assert abs(ends[2] - expected[3]) < 1e-12
        assert abs(ends[3] - expected[0]) < 1e-12

    def test_radii_are_exact_circle_parameters(self):
        for k, l in ((2, 2), (3, 0), (-2, 1), (0, -2), (4, -3)):
            _, arcs = self.parse_arcs(region_path(k, l))
            radii = [a[0] for a in arcs]
            expected = [
                1.0 / abs(2 * l - 1),  # bottom edge, line y = l - 1/2
                1.0 / abs(2 * k + 1),  # right edge, line x = k + 1/2
                1.0 / abs(2 * l + 1),  # top edge, line y = l + 1/2
                1.0 / abs(2 * k - 1),  # left edge, line x = k - 1/2
            ]
            assert np.allclose(radii, expected, atol=1e-12)

    def test_corners_lie_on_their_circles(self):
        k, l = 2, 2
        start, arcs = self.parse_arcs(region_path(k, l))
        pts = [start] + [a[3] for a in arcs[:-1]]
        circles = [
            (complex(0, -1.0 / (2 * (l - 0.5))), 1.0 / abs(2 * l - 1)),
            (complex(1.0 / (2 * (k + 0.5)), 0), 1.0 / abs(2 * k + 1)),
            (complex(0, -1.0 / (2 * (l + 0.5))), 1.0 / abs(2 * l + 1)),
            (complex(1.0 / (2 * (k - 0.5)), 0), 1.0 / abs(2 * k - 1)),
        ]
        for i, (center, radius) in enumerate(circles):
            p1 = pts[i]
            p2 = pts[(i + 1) % 4]
            assert abs(abs(p1 - center) - radius) < 1e-12
            assert abs(abs(p2 - center) - radius) < 1e-12
            # arc midpoint sanity: a point of the pre-image edge maps onto
            # the arc between the endpoints
            assert abs(abs(complex(0, 0) - center) - radius) < 1e-12  # through origin


def _ref_invert(x, y):
    return 1.0 / complex(x, y)


def _ref_edge_circle(axis, c):
    """Image circle of the line x = c (axis 'x') or y = c (axis 'y')."""
    r = 1.0 / (2.0 * abs(c))
    if axis == "x":
        return complex(1.0 / (2.0 * c), 0.0), r
    return complex(0.0, -1.0 / (2.0 * c)), r


def _ref_arc_flags(p1, p2, center):
    """SVG flags for the arc from p1 to p2 avoiding the origin point."""
    a1 = math.atan2(p1.imag - center.imag, p1.real - center.real)
    a2 = math.atan2(p2.imag - center.imag, p2.real - center.real)
    a0 = math.atan2(-center.imag, -center.real)  # the origin lies on the circle
    ccw = (a2 - a1) % (2.0 * math.pi)
    origin_offset = (a0 - a1) % (2.0 * math.pi)
    if origin_offset > ccw:  # origin not on the counterclockwise arc
        return (1 if ccw > math.pi else 0), 1
    return (1 if 2.0 * math.pi - ccw > math.pi else 0), 0


def _ref_edges(k, l):
    """The corners 1/(x + iy) of the box around k + il, counterclockwise
    from the bottom left, and its edges as (axis, c), edge i from corner i."""
    corners = [(k - 0.5, l - 0.5), (k + 0.5, l - 0.5), (k + 0.5, l + 0.5), (k - 0.5, l + 0.5)]
    edges = [("y", l - 0.5), ("x", k + 0.5), ("y", l + 0.5), ("x", k - 0.5)]
    return [_ref_invert(x, y) for x, y in corners], edges


@functools.lru_cache(maxsize=None)
def _ref_region_path(k, l):
    """The per-region renderer: each arc's flags from the angles of its ends."""
    pts, edges = _ref_edges(k, l)
    parts = [f"M {pts[0].real:.12g} {pts[0].imag:.12g}"]
    for i, (axis, c) in enumerate(edges):
        p1, p2 = pts[i], pts[(i + 1) % 4]
        center, radius = _ref_edge_circle(axis, c)
        large, sweep = _ref_arc_flags(p1, p2, center)
        parts.append(f"A {radius:.12g} {radius:.12g} 0 {large} {sweep} "
                     f"{p2.real:.12g} {p2.imag:.12g}")
    return " ".join(parts + ["Z"])


def _ref_render_svg(spec):
    width = f"{spec.stroke_width:.12g}"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="-0.52 -0.52 1.04 1.04">',
        "<defs>",
        '<clipPath id="unit-box"><rect x="-0.5" y="-0.5" width="1" height="1"/></clipPath>',
        "</defs>",
        '<g transform="scale(1,-1)">',
        f'<rect x="-0.5" y="-0.5" width="1" height="1" fill="none" '
        f'stroke="black" stroke-width="{width}"/>',
    ]
    for d in region_digits(spec):
        clip = ' clip-path="url(#unit-box)"' if d.norm_sq() < 8 else ""
        hue = (37 * (d.re * 13 + d.im * 7)) % 360
        lines.append(f'<path id="cyl_{d.re}_{d.im}" d="{_ref_region_path(d.re, d.im)}" '
                     f'fill="hsl({hue},60%,80%)" stroke="black" stroke-width="{width}"{clip}/>')
    return "\n".join(lines + ["</g>", "</svg>"]) + "\n"


class TestRendererReference:
    """The array renderer against the per-region one it replaced."""

    @pytest.mark.parametrize("include_exceptional", [True, False])
    def test_documents_are_byte_identical(self, include_exceptional):
        for norm_sq_max in [*range(2, 201), 5000]:
            spec = TessellationSpec(norm_sq_max=norm_sq_max,
                                    include_exceptional=include_exceptional)
            assert render_svg(spec) == _ref_render_svg(spec), norm_sq_max

    def test_stroke_width_is_printed_as_before(self):
        spec = TessellationSpec(norm_sq_max=9, stroke_width=1 / 3)
        assert render_svg(spec) == _ref_render_svg(spec)

    def test_corners_and_radii_are_bit_for_bit(self, monkeypatch):
        # printed to 17 digits, every number reads back as the float the
        # per-region code computed
        monkeypatch.setattr(svg, "_NUMBER", ".17g")
        rows = gaussian.lattice_points(2, 5000)
        for d, path in zip(rows.tolist(), region_paths(rows)):
            pts, edges = _ref_edges(*d)
            t = [float(token) for token in path.split()[1:-1] if token != "A"]
            assert t[:2] == [pts[0].real, pts[0].imag], d
            assert [t[2 + 7 * i: 4 + 7 * i] for i in range(4)] == [
                [_ref_edge_circle(*edge)[1]] * 2 for edge in edges], d
            assert [t[7 + 7 * i: 9 + 7 * i] for i in range(4)] == [
                [p.real, p.imag] for p in pts[1:] + pts[:1]], d

    def test_closed_form_flags_match_the_angles(self):
        # every region up to norm_sq 2^14: the flags of each rendered arc are
        # those its angles give
        rows = gaussian.lattice_points(2, 1 << 14)
        assert len(rows) > 51_000
        for d, path in zip(rows.tolist(), region_paths(rows)):
            pts, edges = _ref_edges(*d)
            tokens = path.split()
            assert [(int(tokens[7 + 8 * i]), int(tokens[8 + 8 * i])) for i in range(4)] == [
                _ref_arc_flags(pts[i], pts[(i + 1) % 4], _ref_edge_circle(*edge)[0])
                for i, edge in enumerate(edges)], d


class TestSvgDocument:
    def test_structure_and_clipping(self):
        spec = TessellationSpec(norm_sq_max=8)
        doc = render_svg(spec)
        root = ET.fromstring(doc)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        paths = root.findall(".//svg:path", ns)
        assert len(paths) == 20
        clipped = [p for p in paths if p.get("clip-path")]
        assert len(clipped) == 16  # exactly the exceptional regions
        ids = {p.get("id") for p in paths}
        assert "cyl_2_2" in ids and "cyl_1_1" in ids

    def test_byte_determinism(self):
        spec = TessellationSpec(norm_sq_max=10)
        assert render_svg(spec) == render_svg(spec)

    def test_no_timestamp_content(self):
        doc = render_svg(TessellationSpec(norm_sq_max=5))
        assert not re.search(r"\d{4}-\d{2}-\d{2}", doc)


class TestSoundness:
    @pytest.mark.parametrize("samples", [0, -1, 2.5, True, None])
    def test_samples_must_be_a_positive_int(self, samples):
        with pytest.raises(DomainError, match="samples_per_region"):
            soundness_check(TessellationSpec(norm_sq_max=2), samples_per_region=samples, seed=1)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(DomainError, match="seed"):
            soundness_check(TessellationSpec(norm_sq_max=2), samples_per_region=5, seed=seed)

    def test_regions_are_their_boxes(self):
        ok, witness = soundness_check(TessellationSpec(norm_sq_max=9))
        assert ok, witness

    @pytest.mark.parametrize("norm_sq_max", [8, 13, 25])
    def test_regions_are_enumerated_once(self, monkeypatch, norm_sq_max):
        # the document the check reads is rendered from the rows it compares
        # the ids against, so the lattice is walked once per check
        calls = []
        real = svg.lattice_points
        monkeypatch.setattr(svg, "lattice_points", lambda *a: calls.append(a) or real(*a))
        spec = TessellationSpec(norm_sq_max=norm_sq_max)
        assert soundness_check(spec) == (True, None)
        assert len(calls) == 1
        calls.clear()
        render_svg(spec)
        assert len(calls) == 1

    def test_spec_without_regions_is_refused(self):
        # regular digits start at norm_sq 8: a check that judges nothing
        # must not report ok
        with pytest.raises(DomainError, match="no regions"):
            soundness_check(TessellationSpec(norm_sq_max=5, include_exceptional=False))

    def test_exceptional_regions_are_their_boxes(self):
        # the norm_sq 2 regions are exceptional: part of each branch image
        # leaves the box, yet each region is still its digit's pre-image box
        spec = TessellationSpec(norm_sq_max=2)
        assert all(d.norm_sq() == 2 for d in region_digits(spec))
        ok, witness = soundness_check(spec)
        assert ok, witness


def _mutate(monkeypatch, digit, change):
    """Render the region of ``digit`` through ``change`` on its path tokens."""
    real = svg.region_paths

    def region_paths_mutated(rows):
        return [" ".join(change(path.split()) if d == list(digit) else path.split())
                for d, path in zip(rows.tolist(), real(rows))]

    monkeypatch.setattr(svg, "region_paths", region_paths_mutated)


def _flip(tokens, index):
    tokens[index] = "1" if tokens[index] == "0" else "0"
    return tokens


def _scale_radius(tokens, arc, factor=1.05):
    radius = f"{float(tokens[4 + 8 * arc]) * factor:.12g}"
    tokens[4 + 8 * arc] = tokens[5 + 8 * arc] = radius
    return tokens


def _swap_corners(tokens):
    # the ends of arcs 0 and 1, the corners (k + 1/2, l - 1/2) and (k + 1/2, l + 1/2)
    tokens[9:11], tokens[17:19] = tokens[17:19], tokens[9:11]
    return tokens


MUTATIONS = {
    "sweep": lambda t: _flip(t, 8 + 8),
    "large_arc": lambda t: _flip(t, 7 + 8),
    "both_flags": lambda t: _flip(_flip(t, 7 + 16), 8 + 16),
    "radius": lambda t: _scale_radius(t, 2),
    "swapped_corners": _swap_corners,
    "dropped_arc": lambda t: t[:19] + t[27:],
}


class TestSoundnessReadsTheSvg:
    """Each mutation of a rendered path must fail the check."""

    spec = TessellationSpec(norm_sq_max=13)

    @pytest.mark.parametrize("digit", [(2, 1), (3, 0), (-2, -2)])
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutated_path_fails(self, monkeypatch, digit, name):
        assert soundness_check(self.spec) == (True, None)
        _mutate(monkeypatch, digit, MUTATIONS[name])
        ok, witness = soundness_check(self.spec)
        assert not ok
        assert witness["region"] == list(digit), witness
        assert witness["check"] == "arc"

    def test_empty_path_fails(self, monkeypatch):
        monkeypatch.setattr(svg, "region_paths", lambda rows: ["M 0 0 Z"] * len(rows))
        ok, witness = soundness_check(self.spec)
        assert not ok
        assert witness["check"] == "arc" and witness["arc"] == -1

    def test_path_of_another_region_fails(self, monkeypatch):
        real = svg.region_paths
        monkeypatch.setattr(svg, "region_paths", lambda rows: real(
            np.where((rows == [3, 2]).all(axis=1, keepdims=True), [3, 1], rows)))
        ok, witness = soundness_check(self.spec)
        assert not ok
        # arcs 1 and 3 lie on the same lines x = 5/2, 7/2; arc 0 on y = 1/2, not 3/2
        assert (witness["check"], witness["region"], witness["arc"]) == ("arc", [3, 2], 0)

    def test_missing_region_fails(self, monkeypatch):
        render = svg._document  # the check reads render_svg's document through it
        monkeypatch.setattr(svg, "_document", lambda spec, rows: render(spec, rows).replace(
            '<path id="cyl_2_1"', "<path"))
        ok, witness = soundness_check(self.spec)
        assert not ok and witness["check"] == "regions"

    def test_arc_witness_names_region_and_arc(self, monkeypatch):
        _mutate(monkeypatch, (3, 1), MUTATIONS["radius"])
        ok, witness = soundness_check(self.spec)
        assert not ok
        assert witness["check"] == "arc" and witness["region"] == [3, 1] and witness["arc"] == 2
        assert witness["reason"].endswith("centre -i/3, radius 1/3, flags 0 0")

    def test_radius_is_held_to_print_rounding(self, monkeypatch):
        # a relative 5e-10 moves the recovered centre of (3, 1)'s arc 2 by
        # less than the centre's tolerance, which grows with |endpoint| / chord
        _mutate(monkeypatch, (3, 1), lambda t: _scale_radius(t, 2, 1 + 5e-10))
        ok, witness = soundness_check(self.spec)
        assert not ok and (witness["region"], witness["arc"]) == ([3, 1], 2)

    @pytest.mark.parametrize("shift, corner", [(-1, "bottom left"), (1, "top right")])
    def test_first_digit_witness_names_the_corner(self, monkeypatch, shift, corner):
        # a rounding one grid step off moves one of the two extreme corners
        # of the first box into its neighbour's
        real = svg._euclid_step
        monkeypatch.setattr(svg, "_euclid_step",
                            lambda ar, ai, br, bi: real(ar, ai, br + shift, bi + shift))
        ok, witness = soundness_check(self.spec)
        assert not ok
        assert (witness["check"], witness["region"], witness["corner"]) == (
            "first_digit", svg._region_rows(self.spec)[0].tolist(), corner)


def _ref_read_arcs(paths):
    """The per-region parser that the token table replaced."""
    rows = []
    for region, d in enumerate(paths):
        t = d.split()
        arcs = [t[3 + 8 * i: 11 + 8 * i] for i in range(4)]
        if len(t) != 36 or t[0] != "M" or t[-1] != "Z" or t[33:35] != t[1:3] or any(
            a[0] != "A" or a[1] != a[2] or a[3] != "0" or {a[4], a[5]} - {"0", "1"} for a in arcs
        ):
            return region, "not a closed path M x y, four arcs A r r 0 large sweep x y, Z"
        try:
            ends = [(float(a[6]), float(a[7])) for a in arcs]
            rows.append([(*start, float(a[1]), int(a[4]), int(a[5]), *end)
                         for a, start, end in zip(arcs, ends[-1:] + ends[:-1], ends)])
        except ValueError:
            return region, "a number does not parse"
    return np.array(rows, dtype=np.float64)


def _reads_as_before(paths):
    arcs, ref = svg._read_arcs(paths), _ref_read_arcs(paths)
    if isinstance(ref, tuple):
        return arcs == ref
    return arcs.shape == ref.shape and arcs.tobytes() == ref.tobytes()


def _set(index, token):
    def change(tokens):
        tokens[index] = token(tokens[index])
        return tokens
    return change


MALFORMED = {
    **MUTATIONS,
    "unparsed_number": _set(9, lambda _: "1e5x"),
    "flag_2": _set(8, lambda _: "2"),
    "rx_not_ry": _set(5, lambda ry: ry + "0"),  # the same radius, printed otherwise
    "missing_z": lambda t: t[:-1],
    "lowercase_z": _set(35, lambda _: "z"),
    "35_tokens": lambda t: t[:20] + t[21:],
    "end_not_start": _set(33, lambda x: x + "0"),
}


class TestArcReader:
    """The token table against the per-region parser it replaced."""

    paths = region_paths(svg._region_rows(TessellationSpec(norm_sq_max=13)))

    def with_changed(self, *changes):
        paths = list(self.paths)
        for region, change in changes:
            paths[region] = " ".join(change(paths[region].split()))
        return paths

    @pytest.mark.parametrize("include_exceptional", [True, False])
    def test_arrays_are_bit_for_bit(self, include_exceptional):
        for norm_sq_max in [*range(2, 101), 5000]:
            rows = svg._region_rows(TessellationSpec(norm_sq_max=norm_sq_max,
                                                     include_exceptional=include_exceptional))
            if len(rows):
                assert _reads_as_before(region_paths(rows)), norm_sq_max

    @pytest.mark.parametrize("region", [0, 7, -1])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_path_reads_as_before(self, name, region):
        paths = self.with_changed((region, MALFORMED[name]))
        assert _reads_as_before(paths)
        if name not in MUTATIONS:
            assert svg._read_arcs(paths)[0] == region % len(paths)

    @pytest.mark.parametrize("first, second", [("unparsed_number", "flag_2"),
                                               ("flag_2", "unparsed_number"),
                                               ("35_tokens", "unparsed_number"),
                                               ("unparsed_number", "35_tokens")])
    def test_first_of_two_bad_regions_wins(self, first, second):
        paths = self.with_changed((3, MALFORMED[first]), (9, MALFORMED[second]))
        assert _reads_as_before(paths) and svg._read_arcs(paths)[0] == 3

    def test_structure_is_judged_before_numbers(self):
        paths = self.with_changed((5, MALFORMED["unparsed_number"]), (5, MALFORMED["flag_2"]))
        assert _reads_as_before(paths)
        assert svg._read_arcs(paths) == (5, _ref_read_arcs(paths)[1])
        assert "closed path" in _ref_read_arcs(paths)[1]


class TestFirstDigitOnBoxEdges:
    def test_closed_edges_round_into_their_box(self):
        # every 1001st grid point of each box's closed left and bottom edges,
        # corners included, has its region's first digit; the grid point one
        # step left of or below it, on the open edge of the next box, has
        # that box's
        rows = svg._region_rows(TessellationSpec(norm_sq_max=13))
        half = 1 << 15
        steps = np.arange(-half, half, 1001)
        for normal in ([1, 0], [0, 1]):
            edge = -half * np.array(normal) + steps[:, None] * normal[::-1]
            points = (rows << 16)[:, None, :] + edge  # (region, point, (A, B))
            for shift, digit in ((0, rows), (1, rows - normal)):
                A, B = np.moveaxis(points - shift * np.array(normal), 2, 0)
                first_re, first_im = svg._euclid_step(1 << 16, 0, A, B)[:2]
                assert (first_re == digit[:, :1]).all() and (first_im == digit[:, 1:]).all()


class TestRegionBounds:
    # a region is its digit's half-open box: a point on a shared edge or
    # corner rounds to one first digit, that of the box whose closed side it is on
    def claims(self, A, B):
        return [list(svg._euclid_step(1 << 16, 0, A, B)[:2])]

    def test_point_on_vertical_edge_claimed_once(self):
        # w = 3.5 + i: the open right edge of (3, 1), the closed left edge of (4, 1)
        assert self.claims((3 << 16) + (1 << 15), 1 << 16) == [[4, 1]]
        assert self.claims((3 << 16) + (1 << 15) - 1, 1 << 16) == [[3, 1]]

    def test_point_on_horizontal_edge_claimed_once(self):
        # w = 3 + 1.5i: the open top edge of (3, 1), the closed bottom edge of (3, 2)
        assert self.claims(3 << 16, (1 << 16) + (1 << 15)) == [[3, 2]]
        assert self.claims(3 << 16, (1 << 16) + (1 << 15) - 1) == [[3, 1]]

    def test_corner_claimed_once(self):
        # w = -2.5 - 1.5i: the closed corner of (-2, -1) only
        assert self.claims(-(5 << 15), -(3 << 15)) == [[-2, -1]]
