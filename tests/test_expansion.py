import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzcf import (
    DigitWord,
    DomainError,
    ExactComplexRational,
    GaussianInt,
    classify_digit,
    cylinder_check,
    evaluate,
    expand,
    expand_guarded,
    hurwitz_step,
    nearest_round,
)
from hurwitzcf.verify import random_box_rationals


def ecr(re, im) -> ExactComplexRational:
    return ExactComplexRational(Fraction(re), Fraction(im))


class TestHurwitzStep:
    def test_reciprocal_lattice_point(self):
        digit, nxt = hurwitz_step(ecr(Fraction(1, 4), Fraction(-1, 4)))
        assert digit == GaussianInt(2, 2)
        assert nxt.is_zero()

    def test_real_rational(self):
        digit, nxt = hurwitz_step(ecr(Fraction(2, 5), 0))
        assert digit == GaussianInt(3, 0)
        assert nxt == ecr(Fraction(-1, 2), 0)

    def test_boundary_corner(self):
        digit, nxt = hurwitz_step(ecr(Fraction(-1, 2), Fraction(-1, 2)))
        assert digit == GaussianInt(-1, 1)
        assert nxt.is_zero()

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hurwitz_step(ecr(0, 0))
        with pytest.raises(DomainError):
            hurwitz_step(ecr(Fraction(3, 4), 0))


class TestExpand:
    def test_zero_is_empty(self):
        result = expand(ecr(0, 0))
        assert len(result.digits) == 0 and result.terminated

    def test_two_fifths(self):
        result = expand(ecr(Fraction(2, 5), 0))
        assert [d.to_pair() for d in result.digits] == [[3, 0], [-2, 0]]
        assert result.terminated

    def test_boundary_point_excluded(self):
        # im = 1/2 is outside the half-open box even though 1/z is a lattice point
        with pytest.raises(DomainError):
            expand(ecr(Fraction(-1, 2), Fraction(1, 2)))

    def test_boundary_conjugate_in_box(self):
        result = expand(ecr(Fraction(-1, 2), Fraction(-1, 2)))
        assert [d.to_pair() for d in result.digits] == [[-1, 1]]
        assert result.terminated

    def test_outside_box_rejected(self):
        with pytest.raises(DomainError):
            expand(ecr(Fraction(1, 2), 0))


class TestEvaluate:
    def test_empty_word(self):
        assert evaluate(DigitWord()) == ecr(0, 0)

    def test_single_digit(self):
        value = evaluate(DigitWord((GaussianInt(2, 2),)))
        assert value == ecr(Fraction(1, 4), Fraction(-1, 4))

    def test_two_digits(self):
        value = evaluate(DigitWord((GaussianInt(3, 0), GaussianInt(-2, 0))))
        assert value == ecr(Fraction(2, 5), 0)

    def test_pole_raises(self):
        # tail of [(-1,1),(1,1)] equals -(1+i), cancelling the leading digit:
        # with a = c = 1+i, b = -1+i one has abc + a + c = 0
        word = DigitWord((GaussianInt(1, 1), GaussianInt(-1, 1), GaussianInt(1, 1)))
        with pytest.raises(ZeroDivisionError):
            evaluate(word)

    def test_folding_oracle(self):
        # right-to-left folding recomputes the matrix value independently
        word = DigitWord(
            (GaussianInt(3, 2), GaussianInt(-2, 2), GaussianInt(0, 3), GaussianInt(4, -1))
        )
        value = ecr(0, 0)
        for digit in reversed(list(word)):
            value = value.add_gaussian(digit).reciprocal()
        assert evaluate(word) == value


class TestClassify:
    def test_examples(self):
        assert classify_digit(GaussianInt(1, 0)) == "invalid"
        assert classify_digit(GaussianInt(2, 1)) == "exceptional"
        assert classify_digit(GaussianInt(2, 2)) == "regular"


class TestCylinderCheck:
    def test_matching_prefix(self):
        assert cylinder_check([GaussianInt(2, 2)], ecr(Fraction(1, 4), Fraction(-1, 4)))

    def test_mismatching_prefix(self):
        assert not cylinder_check([GaussianInt(2, 2)], ecr(Fraction(2, 5), 0))

    def test_empty_prefix(self):
        assert cylinder_check([], ecr(Fraction(1, 8), Fraction(1, 8)))

    def test_non_regular_rejected(self):
        with pytest.raises(DomainError):
            cylinder_check([GaussianInt(1, 1)], ecr(0, 0))


class TestRoundtrip:
    @given(
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-60, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_rationals(self, pr, pi, qr, qi):
        if qr == 0 and qi == 0:
            return
        q = GaussianInt(qr, qi)
        p = GaussianInt(pr, pi)
        num = p * q.conj()
        n = Fraction(q.norm_sq())
        z = ExactComplexRational(num.re / n, num.im / n)
        z = z.sub_gaussian(nearest_round(z))
        result = expand(z)
        assert result.terminated
        assert evaluate(result.digits) == z
        assert all(d.norm_sq() >= 2 for d in result.digits)

    def test_expand_inverts_evaluate_on_regular_words(self):
        # evaluate lands inside the word's cylinder and the tail terminates
        # at 0, so expansion recovers exactly the word
        rng = np.random.default_rng(31)
        from hurwitzcf.ifs import d2_branches

        alphabet = [(b.re, b.im) for b in d2_branches(18)]
        for _ in range(150):
            length = int(rng.integers(1, 6))
            word = DigitWord(
                tuple(
                    GaussianInt(*alphabet[int(j)])
                    for j in rng.integers(0, len(alphabet), length)
                )
            )
            assert expand(evaluate(word)).digits == word


class TestSerialization:
    def test_json_roundtrip(self):
        word = DigitWord((GaussianInt(3, 0), GaussianInt(-2, 1)))
        assert DigitWord.from_json(json.dumps([d.to_pair() for d in word])) == word

    def test_display(self):
        word = DigitWord((GaussianInt(3, 0), GaussianInt(-2, 0)))
        assert str(word) == "3; -2"

    def test_invalid_digit_rejected(self):
        with pytest.raises(DomainError):
            DigitWord((GaussianInt(1, 0),))


class TestGuardedExpansion:
    def test_matches_exact_prefix(self):
        # 3/8 is dyadic, so the float input is the exact point and no
        # rounding decision sits on a boundary
        exact = expand(ecr(Fraction(3, 8), 0)).digits
        assert [d.to_pair() for d in exact] == [[3, 0], [-3, 0]]
        guarded = expand_guarded(0.375, 0.0, error_radius=1e-12, max_digits=8)
        assert guarded.digits.digits == exact.digits

    def test_boundary_decision_refused(self):
        # 1/(2/5) = 5/2 sits exactly on a rounding line, so no digit of 0.4
        # can be certified at any positive radius
        guarded = expand_guarded(0.4, 0.0, error_radius=1e-15, max_digits=4)
        assert guarded.status == "precision_exhausted"
        assert len(guarded.digits) == 0

    def test_never_wrong_digit(self):
        rng = np.random.default_rng(5)
        for z in random_box_rationals(rng, 40, 400):
            exact = expand(z).digits
            guarded = expand_guarded(
                float(z.re), float(z.im), error_radius=1e-13, max_digits=10
            )
            k = len(guarded.digits)
            assert guarded.digits.digits == exact.digits[:k]

    def test_coarse_radius_exhausts(self):
        guarded = expand_guarded(0.4, 0.0, error_radius=0.2, max_digits=8)
        assert guarded.status == "precision_exhausted"
        assert len(guarded.digits) == 0

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            expand_guarded(0.1, 0.1, error_radius=0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, "nan", "inf"])
    def test_non_finite_radius(self, radius):
        # a NaN radius passed every comparison and emitted huge wrong digits;
        # an infinite one returned "ok" with no digits
        with pytest.raises(DomainError, match="error_radius must be a finite number"):
            expand_guarded(0.1, 0.2, radius)

    @pytest.mark.parametrize("max_digits", [0, -5])
    def test_non_positive_max_digits(self, max_digits):
        # as in expand; it used to return no digits with status max_digits
        with pytest.raises(DomainError, match="max_digits must be positive"):
            expand_guarded(0.1, 0.2, 1e-15, max_digits=max_digits)

    @pytest.mark.parametrize(
        "re, im", [(math.nan, 0.1), (0.1, math.inf), (-math.inf, 0.0), ("nan", "0.1"), ("0.1", "x")]
    )
    def test_non_finite_coordinates(self, re, im):
        with pytest.raises(DomainError, match="must be a finite number"):
            expand_guarded(re, im, 1e-15)

    @pytest.mark.parametrize("re, im", [(0.7, 0.1), (0.1, 0.5), (-0.6, 0.0), ("0.5", "0")])
    def test_outside_box(self, re, im):
        with pytest.raises(DomainError, match="outside the half-open unit box"):
            expand_guarded(re, im, 1e-15)

    def test_string_read_as_exact_decimal(self):
        # 0.1 + 0.2i as decimals is the Gaussian rational (1 + 2i)/10, whose
        # expansion terminates; the float inputs are other points
        exact = expand(ecr(Fraction(1, 10), Fraction(2, 10)))
        assert exact.terminated
        guarded = expand_guarded("0.1", "0.2", 1e-300, max_digits=64)
        assert guarded.status == "ok"
        assert guarded.digits == exact.digits


def _mpmath_expand_guarded(re, im, error_radius, max_digits):
    """The 212-bit mpmath expansion the integer one replaced, kept as a reference.

    It rounds the centre at every step and adds 2^-204 |1/z| to the radius
    for that; its decisions match the exact-centre code except at ties
    within about 2^-200 relative, and on strings that 212 bits do not hold
    when the radius is below that rounding.
    """
    with mpmath.workprec(212):
        z = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
        rad = mpmath.mpf(error_radius)
        eps = mpmath.mpf(2) ** (8 - 212)
        digits = []
        for _ in range(max_digits):
            az = abs(z)
            if az <= rad:
                return digits, "ok", len(digits)
            w = 1 / z
            wrad = rad / (az * (az - rad)) + eps * abs(w)
            kr = mpmath.floor(w.real + mpmath.mpf(1) / 2)
            ki = mpmath.floor(w.imag + mpmath.mpf(1) / 2)
            margin_r = min(w.real + 0.5 - kr, kr + 0.5 - w.real)
            margin_i = min(w.imag + 0.5 - ki, ki + 0.5 - w.imag)
            if min(margin_r, margin_i) <= wrad:
                return digits, "precision_exhausted", len(digits)
            digit = GaussianInt(int(kr), int(ki))
            digits.append(digit)
            z = w - mpmath.mpc(digit.re, digit.im)
            rad = wrad
        return digits, "max_digits", len(digits)


def _box_points(seed: int, count: int) -> list[ExactComplexRational]:
    """Nonzero Gaussian rationals a/b of the box, N(b) log-uniform over [10, 10^18]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = math.isqrt(int(10 ** rng.uniform(1, 18)))
        b = GaussianInt(rng.randint(-size, size), rng.randint(-size, size))
        if not b:
            continue
        a = GaussianInt(rng.randint(-size, size), rng.randint(-size, size))
        z = ExactComplexRational.from_gaussian(a) / ExactComplexRational.from_gaussian(b)
        z = z.sub_gaussian(nearest_round(z))
        if not z.is_zero():
            out.append(z)
    return out


def _decimal(q: Fraction, places: int) -> str:
    n = abs(q.numerator) * 10**places // q.denominator
    return f"{'-' if q < 0 else ''}{n // 10**places}.{n % 10**places:0{places}d}"


_RADII = [1e-300, 1e-100, 1e-30, 1e-15, 1e-8, 1e-3, 0.1, 3.0]


def _guarded_corpus(seed: int, count: int):
    """(re, im, radius, max_digits) cases: floats, their repr strings, and
    40-digit decimals at radii above the 2^-212 rounding of the reference."""
    rng = random.Random(seed)
    cases = []
    for z in _box_points(seed, count):
        radius, max_digits = rng.choice(_RADII), rng.choice([1, 4, 64])
        kind = rng.choice(["float", "repr", "decimal"])
        if kind == "decimal" and radius > 1e-60:
            cases.append((_decimal(z.re, 40), _decimal(z.im, 40), radius, max_digits))
        elif kind == "repr":
            cases.append((repr(float(z.re)), repr(float(z.im)), radius, max_digits))
        else:
            cases.append((float(z.re), float(z.im), radius, max_digits))
    return cases


class TestDifferential:
    def test_guarded_matches_mpmath_reference(self):
        corpus = _guarded_corpus(1501, 1500)
        corpus += [(0.375, 0.0, r, m) for r in _RADII for m in (1, 4, 64)]
        corpus += [(0.4, 0.0, 1e-15, 4), (-0.5, -0.5, 1e-15, 4), (0.0, 0.0, 1e-15, 4)]
        statuses = set()
        for re, im, radius, max_digits in corpus:
            got = expand_guarded(re, im, radius, max_digits)
            statuses.add(got.status)
            assert (list(got.digits), got.status, len(got.digits)) == _mpmath_expand_guarded(
                re, im, radius, max_digits
            ), (re, im, radius, max_digits)
        assert statuses == {"ok", "precision_exhausted", "max_digits"}

    @staticmethod
    def _fraction_step(z: ExactComplexRational):
        # the map written out on Fractions: 1/z, floor(coordinate + 1/2), residual
        n = z.re * z.re + z.im * z.im
        w = (z.re / n, -z.im / n)
        d = GaussianInt(*(math.floor(c + Fraction(1, 2)) for c in w))
        return d, ExactComplexRational(w[0] - d.re, w[1] - d.im)

    def test_exact_layer_matches_fraction_reference(self):
        for z in _box_points(77, 300):
            digits, current = [], z
            while not current.is_zero():
                digit, nxt = self._fraction_step(current)
                assert hurwitz_step(current) == (digit, nxt)
                digits.append(digit)
                current = nxt
            result = expand(z)
            assert list(result.digits) == digits and result.terminated
            assert result.remainder.is_zero()
            value = ecr(0, 0)
            for digit in reversed(digits):
                value = value.add_gaussian(digit).reciprocal()
            assert evaluate(digits) == value == z
            cut = max(len(digits) // 2, 1)
            truncated = expand(z, max_digits=cut)
            tail = z
            for _ in range(cut):
                tail = self._fraction_step(tail)[1]
            assert list(truncated.digits) == digits[:cut]
            assert truncated.remainder == tail and truncated.terminated == tail.is_zero()
            regular = []
            for digit in digits:
                if classify_digit(digit) != "regular":
                    break
                regular.append(digit)
            assert cylinder_check(regular, z)
            if regular:
                last = regular[-1]
                # |im| >= 5 keeps the replaced digit regular and different
                wrong = GaussianInt(last.re, last.im + (5 if last.im >= 0 else -5))
                assert not cylinder_check(regular[:-1] + [wrong], z)
