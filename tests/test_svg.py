import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hurwitzcf import DomainError, TessellationSpec, render_svg, soundness_check
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
