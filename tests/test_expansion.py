from fractions import Fraction

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
        from hurwitzcf import nearest_round

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
        assert DigitWord.from_json(word.to_json()) == word

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
