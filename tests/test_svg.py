import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from hurwitzcf import DomainError, GaussianInt, TessellationSpec, render_svg, soundness_check
from hurwitzcf import svg
from hurwitzcf.expansion import _from_quotient
from hurwitzcf.gaussian import ExactComplexRational
from hurwitzcf.ifs import _box_images
from hurwitzcf.svg import region_digits, region_path


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
    def test_sampled_points_carry_region_digit(self):
        ok, witness = soundness_check(
            TessellationSpec(norm_sq_max=9), samples_per_region=40, seed=3
        )
        assert ok, witness

    def test_region_sampler_stays_in_cylinder(self):
        # the norm_sq 2 regions are exceptional: part of each branch image
        # leaves the box, so their samples go through rejection
        spec = TessellationSpec(norm_sq_max=2)
        assert all(d.norm_sq() == 2 for d in region_digits(spec))
        ok, witness = soundness_check(spec, samples_per_region=25, seed=12)
        assert ok, witness


def _mutate(monkeypatch, digit, change):
    """Render the region of ``digit`` through ``change`` on its path tokens."""
    real = svg.region_path

    def region_path_mutated(k, l):
        tokens = real(k, l).split()
        return " ".join(change(tokens) if (k, l) == digit else tokens)

    monkeypatch.setattr(svg, "region_path", region_path_mutated)


def _flip(tokens, index):
    tokens[index] = "1" if tokens[index] == "0" else "0"
    return tokens


def _scale_radius(tokens, arc):
    radius = f"{float(tokens[4 + 8 * arc]) * 1.05:.12g}"
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
        assert soundness_check(self.spec, samples_per_region=20, seed=1) == (True, None)
        _mutate(monkeypatch, digit, MUTATIONS[name])
        ok, witness = soundness_check(self.spec, samples_per_region=20, seed=1)
        assert not ok
        assert witness["region"] == list(digit), witness
        assert witness["check"] in ("arc", "edge_inside", "edge_outside", "unique_region")

    def test_empty_path_fails(self, monkeypatch):
        monkeypatch.setattr(svg, "region_path", lambda k, l: "M 0 0 Z")
        ok, witness = soundness_check(self.spec, samples_per_region=20, seed=1)
        assert not ok
        assert witness["check"] == "arc" and witness["arc"] == -1

    def test_path_of_another_region_fails(self, monkeypatch):
        real = svg.region_path
        monkeypatch.setattr(svg, "region_path",
                            lambda k, l: real(3, 1) if (k, l) == (3, 2) else real(k, l))
        ok, witness = soundness_check(self.spec, samples_per_region=20, seed=1)
        assert not ok
        assert witness["check"] == "edge_inside" and witness["region"] == [3, 2]

    def test_missing_region_fails(self, monkeypatch):
        render = svg.render_svg
        monkeypatch.setattr(svg, "render_svg",
                            lambda spec: render(spec).replace('<path id="cyl_2_1"', "<path"))
        ok, witness = soundness_check(self.spec, samples_per_region=20, seed=1)
        assert not ok and witness["check"] == "regions"

    def test_arc_witness_names_region_and_arc(self, monkeypatch):
        _mutate(monkeypatch, (3, 1), MUTATIONS["radius"])
        ok, witness = soundness_check(self.spec, samples_per_region=20, seed=1)
        assert not ok
        assert witness["check"] == "arc" and witness["region"] == [3, 1] and witness["arc"] == 2


class TestRegionBounds:
    spec = TessellationSpec(norm_sq_max=25)

    def claims(self, A, B):
        digits, lo, hi = svg._read_regions(self.spec)
        point = np.array([A, B])
        return [d.to_pair() for d, held in zip(digits, np.all((lo <= point) & (point <= hi), axis=1))
                if held]

    def test_bounds_are_the_half_open_boxes(self):
        digits, lo, hi = svg._read_regions(self.spec)
        centres = np.array([d.to_pair() for d in digits]) << 16
        assert (lo == centres - (1 << 15)).all()
        assert (hi == centres + (1 << 15) - 1).all()

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

    def test_samples_on_closed_edges_pass(self):
        # seed 0 draws four samples on a closed edge, one of them
        # 2^16 w = (2^15, 132646) of (1, 2): on the closed left edge of its
        # box and on the open right edge of (0, 2)
        rng = np.random.default_rng(0)
        points = np.concatenate([_box_images(d, 1000, rng) for d in region_digits(self.spec)])
        on_edge = (points % (1 << 16) == 1 << 15).any(axis=1)
        assert on_edge.any()
        assert soundness_check(self.spec, samples_per_region=1000, seed=0) == (True, None)


def _sample_box_rationals(rng, count, grid=1 << 16):
    """Seeded exact rational samples of the half-open unit box: the
    per-point sampler whose stream ``_box_images`` draws in one call."""
    res = rng.integers(-grid // 2, grid // 2, size=count)
    ims = rng.integers(-grid // 2, grid // 2, size=count)
    return [ExactComplexRational(Fraction(int(a), grid), Fraction(int(b), grid))
            for a, b in zip(res, ims)]


def test_box_images_take_the_sample_box_rationals_draws():
    for digit, seed in ((GaussianInt(1, 1), 5), (GaussianInt(3, -2), 6), (GaussianInt(0, 2), 7)):
        rng = np.random.default_rng(seed)
        expected = []
        while len(expected) < 40:
            images = [u.add_gaussian(digit).reciprocal()
                      for u in _sample_box_rationals(rng, 40 - len(expected))]
            expected += [p for p in images if p.in_unit_box()]
        points = _box_images(digit, 40, np.random.default_rng(seed))
        assert [str(_from_quotient(1 << 16, 0, A, B)) for A, B in points.tolist()] == [
            str(p) for p in expected
        ]
