import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitzcf import (
    DigitSet,
    DomainError,
    ExactComplexRational,
    GaussianInt,
    nearest_round,
    parse_exact_complex,
)
from hurwitzcf.gaussian import first_on_shell, norm_sq_shells, points_by_norm


def ecr(re, im) -> ExactComplexRational:
    return ExactComplexRational(Fraction(re), Fraction(im))


class TestGaussianInt:
    def test_ring_ops(self):
        a = GaussianInt(2, 3)
        b = GaussianInt(-1, 4)
        assert a + b == GaussianInt(1, 7)
        assert a - b == GaussianInt(3, -1)
        assert a * b == GaussianInt(-14, 5)  # (2+3i)(-1+4i) = -2+8i-3i-12
        assert -a == GaussianInt(-2, -3)
        assert a.conj() == GaussianInt(2, -3)
        assert a.norm_sq() == 13

    def test_str(self):
        assert str(GaussianInt(3, 0)) == "3"
        assert str(GaussianInt(-2, 0)) == "-2"
        assert str(GaussianInt(0, 1)) == "i"
        assert str(GaussianInt(0, -1)) == "-i"
        assert str(GaussianInt(2, 2)) == "2+2i"
        assert str(GaussianInt(-1, -2)) == "-1-2i"

    def test_pair_roundtrip(self):
        g = GaussianInt(-7, 11)
        assert GaussianInt.from_pair(g.to_pair()) == g

    @pytest.mark.parametrize("pair", [[2.5, 2], [2, 2.0], [True, 2], [1], [1, 2, 3], 1, "ab", None])
    def test_from_pair_is_strict(self, pair):
        with pytest.raises(DomainError):
            GaussianInt.from_pair(pair)

    def test_from_pairs_needs_a_list(self):
        assert GaussianInt.from_pairs([[3, 0], [-2, 2]]) == (GaussianInt(3, 0), GaussianInt(-2, 2))
        for data in ({}, {"a": 1}, "[[3, 0]]", 3, [[3, 0], 4]):
            with pytest.raises(DomainError):
                GaussianInt.from_pairs(data)


class TestExactComplexRational:
    def test_field_ops(self):
        z = ecr(Fraction(1, 3), Fraction(-1, 2))
        w = z.reciprocal()
        assert (z * w) == ecr(1, 0)
        assert z / z == ecr(1, 0)

    def test_reciprocal_zero(self):
        with pytest.raises(ZeroDivisionError):
            ecr(0, 0).reciprocal()

    def test_unit_box_half_open(self):
        assert ecr(Fraction(-1, 2), Fraction(-1, 2)).in_unit_box()
        assert not ecr(Fraction(1, 2), 0).in_unit_box()
        assert not ecr(0, Fraction(1, 2)).in_unit_box()
        assert ecr(Fraction(499, 1000), Fraction(-1, 2)).in_unit_box()


class TestNearestRound:
    def test_fixed_points(self):
        assert nearest_round(ecr(0, 0)) == GaussianInt(0, 0)

    def test_half_integer_ties_round_up(self):
        assert nearest_round(ecr(Fraction(1, 2), Fraction(1, 2))) == GaussianInt(1, 1)
        assert nearest_round(ecr(Fraction(-1, 2), Fraction(-1, 2))) == GaussianInt(0, 0)

    def test_example_value(self):
        # floor(-3/10 + 1/2) = 0, floor(17/10 + 1/2) = 2
        assert nearest_round(ecr(Fraction(-3, 10), Fraction(17, 10))) == GaussianInt(0, 2)

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=997),
        st.fractions(min_value=-50, max_value=50, max_denominator=997),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_in_box(self, re, im):
        z = ExactComplexRational(re, im)
        assert z.sub_gaussian(nearest_round(z)).in_unit_box()


class TestEnumerateByNorm:
    def test_zero_first(self):
        assert points_by_norm(0, 0) == [GaussianInt(0, 0)]
        assert points_by_norm(0, 2)[0] == GaussianInt(0, 0)

    def test_norm_le_2_count(self):
        pts = points_by_norm(0, 5)[:20]
        assert sum(1 for p in pts if p.norm_sq() <= 2) == 9
        assert GaussianInt(0, 0) not in points_by_norm(1, 5)

    def test_units_lex_order(self):
        assert points_by_norm(1, 1) == [
            GaussianInt(-1, 0),
            GaussianInt(0, -1),
            GaussianInt(0, 1),
            GaussianInt(1, 0),
        ]
        pts = points_by_norm(0, 50)
        assert pts == sorted(pts, key=lambda g: (g.norm_sq(), g.re, g.im))

    def test_agrees_with_array_fast_path(self):
        pts = points_by_norm(0, 1000)[:2000]
        arr = DigitSet.lattice_with_zero().norm_sq_array(2000)
        assert np.array_equal(arr, np.array([p.norm_sq() for p in pts], dtype=float))


class TestShells:
    def test_counts_match_enumeration(self):
        values, counts = norm_sq_shells(100)
        # sum of shell counts equals lattice points with 0 < norm_sq <= 100
        total = sum(
            1
            for a in range(-10, 11)
            for b in range(-10, 11)
            if 0 < a * a + b * b <= 100
        )
        assert int(counts.sum()) == total
        for ns, cnt in zip(values.tolist(), counts.tolist()):
            members = points_by_norm(ns, ns)
            assert len(members) == cnt
            assert all(m.norm_sq() == ns for m in members)

    @pytest.mark.parametrize("limit", [1, 2, 25, 1000, (1 << 18) + 3, 600_000])
    def test_bands_match_grid_count(self, limit):
        w = int(limit**0.5)
        axis = np.arange(-w, w + 1, dtype=np.int64) ** 2
        grid = (axis[:, None] + axis[None, :]).ravel()
        for above in (0, 1, limit // 3, limit // 2, limit - 1, limit):
            values, counts = norm_sq_shells(limit, above)
            expect = np.unique(grid[(grid > above) & (grid <= limit)], return_counts=True)
            assert np.array_equal(values, expect[0]) and np.array_equal(counts, expect[1])
            assert values.dtype == counts.dtype == np.int64

    def test_grown_table_matches_one_count(self):
        # a table grown band by band holds what one count up to its limit gives
        shells = DigitSet.lattice_with_zero()._shells
        shells.cover(400_000)
        values, counts = norm_sq_shells(shells.limit)
        assert np.array_equal(shells.values, np.r_[0, values])
        assert np.array_equal(shells.ends, np.cumsum(np.r_[0, 1, counts]))


def _shell_reference(norm_sq):
    """One shell by a row scan of isqrt calls: the enumerator this package
    used before points_by_norm(ns, ns), kept as its reference."""
    out = []
    w = math.isqrt(norm_sq)
    for a in range(-w, w + 1):
        rem = norm_sq - a * a
        b = math.isqrt(rem)
        if b * b == rem:
            if b == 0:
                out.append(GaussianInt(a, 0))
            else:
                out.append(GaussianInt(a, -b))
                out.append(GaussianInt(a, b))
    return sorted(out, key=GaussianInt.lex_key)


def _band_reference(lo, hi):
    """Every point of the square around the disc of norm_sq hi, filtered and sorted."""
    w = math.isqrt(max(hi, 0))
    pts = [(a * a + b * b, a, b) for a in range(-w, w + 1) for b in range(-w, w + 1)]
    return [GaussianInt(a, b) for ns, a, b in sorted(pts) if lo <= ns <= hi]


class TestPointsByNorm:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(-3, 3000), st.integers(-3, 3000))
    @example(0, 0)
    @example(-3, -1)
    @example(5, 4)
    @example(3, 3)
    @example(1, 1)
    @example(-3, 3000)
    @example(3000, 3000)
    def test_band_matches_square_scan(self, lo, hi):
        assert points_by_norm(lo, hi) == _band_reference(lo, hi)

    @pytest.mark.parametrize("ns", [1, 2, 25, 65, 3, (1 << 22) + 1, 5**10, 65**2 * 13, 1 << 22])
    def test_single_shell_matches_row_scan(self, ns):
        assert points_by_norm(ns, ns) == _shell_reference(ns)

    def test_first_on_shell_is_first_point(self):
        for ns in range(3000):
            shell = points_by_norm(ns, ns)
            if shell:
                assert first_on_shell(ns) == shell[0]
            else:
                with pytest.raises(DomainError):
                    first_on_shell(ns)


class TestParse:
    def test_rational_pairs(self):
        assert parse_exact_complex("2/5+0/1 i") == ecr(Fraction(2, 5), 0)
        assert parse_exact_complex("-3/10+17/10i") == ecr(Fraction(-3, 10), Fraction(17, 10))
        assert parse_exact_complex("1/2-1/3 i") == ecr(Fraction(1, 2), Fraction(-1, 3))

    def test_plain_forms(self):
        assert parse_exact_complex("0") == ecr(0, 0)
        assert parse_exact_complex("-2") == ecr(-2, 0)
        assert parse_exact_complex("3i") == ecr(0, 3)

    def test_garbage_rejected(self):
        for bad in ("", "i+i+i", "1/0+0i", "x+yi"):
            with pytest.raises(DomainError):
                parse_exact_complex(bad)
