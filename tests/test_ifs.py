import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from hurwitzcf import BranchComposition, DigitSet, DomainError, ExactComplexRational, GaussianInt
from hurwitzcf import dimension
from hurwitzcf.ifs import (
    contraction_envelope_check,
    COMPOSITION_DISTORTION_BOUND,
    DECAY_C1,
    DECAY_C2,
    DIAMETER_K1,
    DIAMETER_K2,
    ball_inclusion_holds,
    box_distortion_terms,
    d2_branches,
    max_single_branch_distortion,
    nesting_check,
    sup_deriv_by_norm_class,
)
from hurwitzcf.verify import random_box_rationals, short_words


def ecr(re, im) -> ExactComplexRational:
    return ExactComplexRational(Fraction(re), Fraction(im))


def branch(b):
    """The exact branch map z -> 1/(z + b)."""
    return BranchComposition.from_word([b]).apply


class TestBranch:
    def test_index_must_be_regular(self):
        with pytest.raises(DomainError):
            BranchComposition.from_word([(2, 1)])
        BranchComposition.from_word([(2, 2)])

    def test_apply_examples(self):
        assert branch((2, 2))(ecr(0, 0)) == ecr(Fraction(1, 4), Fraction(-1, 4))
        assert branch((-2, 2))(ecr(0, 0)) == ecr(Fraction(-1, 4), Fraction(-1, 4))
        corner = ecr(Fraction(-1, 2), Fraction(-1, 2))
        assert branch((2, 2))(corner) == ecr(Fraction(1, 3), Fraction(-1, 3))


# Each entry point that takes digits, fed one digit; the (-2, -2) and
# (3, 0) beside it are valid.
DIGIT_ENTRY_POINTS = {
    "from_branches": lambda b: DigitSet.from_branches([(-2, -2), b]),
    "from_word": lambda b: BranchComposition.from_word([(3, 0), b]),
    "extend": lambda b: BranchComposition.from_word([(3, 0)]).extend(b),
    "nesting_check": lambda b: nesting_check([(3, 0), b]),
}


class TestDigitParsing:
    # pairs go through GaussianInt.from_pair, as the CLI's do: nothing is
    # truncated by int() or read from a bool or a string
    @pytest.mark.parametrize("entry", DIGIT_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [(2.7, 2.9), (2.9, 2), (True, 3), ("3", "0"), (3, 0, 1), 3],
                             ids=["floats", "float-re", "bool", "strings", "triple", "int"])
    def test_non_int_pair_rejected(self, entry, bad):
        with pytest.raises(DomainError, match="expected"):
            DIGIT_ENTRY_POINTS[entry](bad)

    @pytest.mark.parametrize("entry", DIGIT_ENTRY_POINTS)
    def test_pair_and_gaussian_int_agree(self, entry):
        fn = DIGIT_ENTRY_POINTS[entry]
        assert fn((2, 2)) == fn([2, 2]) == fn(GaussianInt(2, 2))


class TestComposition:
    def test_matrix_vs_stepwise_apply(self):
        word = [(2, 2), (-3, 1), (0, 3)]
        comp = BranchComposition.from_word(word)
        z = ecr(Fraction(1, 7), Fraction(-2, 7))
        stepwise = z
        for digit in reversed(word):
            stepwise = branch(digit)(stepwise)
        assert comp.apply(z) == stepwise

    def test_determinant_modulus_one(self):
        for word in ([(2, 2)], [(2, 2), (-2, -2)], [(3, 1), (0, -3), (2, 2), (-3, 2)]):
            assert _RefComposition.from_word(word).det().norm_sq() == 1

    def test_derivative_examples(self):
        single = BranchComposition.from_word([(2, 2)])
        assert single.deriv_abs_exact(ecr(0, 0)) == Fraction(1, 8)
        corner = ecr(Fraction(-1, 2), Fraction(-1, 2))
        assert single.deriv_abs_exact(corner) == Fraction(2, 9)
        double = BranchComposition.from_word([(2, 2), (2, 2)])
        assert double.deriv_abs_exact(ecr(0, 0)) == Fraction(1, 65)

    def test_sup_inf_bracket_samples(self):
        rng = np.random.default_rng(9)
        comp = BranchComposition.from_word([(2, 2), (-2, 2)])
        sup = comp.sup_deriv_exact()
        inf = comp.inf_deriv_exact()
        for z in random_box_rationals(rng, 50, 10_000):
            val = comp.deriv_abs_exact(z)
            assert inf <= val <= sup


# The Fraction clamped-corner analysis that the integer closed form of
# sup/inf_deriv_exact replaced, kept as the reference for exact equality;
# it shares no code with ifs.pole_terms.
def _ref_box_extremes(comp):
    half = Fraction(1, 2)
    w = ExactComplexRational.from_gaussian(comp.d) / ExactComplexRational.from_gaussian(comp.c)

    def axis_min_sq(u):
        return Fraction(0) if abs(u) <= half else (abs(u) - half) ** 2

    def axis_max_sq(u):
        return (abs(u) + half) ** 2

    scale = Fraction(comp.c.norm_sq())
    return (
        Fraction(1) / (scale * (axis_min_sq(w.re) + axis_min_sq(w.im))),
        Fraction(1) / (scale * (axis_max_sq(w.re) + axis_max_sq(w.im))),
    )


HUGE_DIGITS = [(2**40, 3), (-5, 2**40 + 1), (-(2**40), -(2**39)), (7, -(2**41))]


@dataclass(frozen=True)
class _RefComposition:
    """The Gaussian-integer recurrence that ``BranchComposition``'s eight
    ints replaced, kept as the reference: (a, b, c, d) -> (b, a + b x, d,
    c + d x) for each digit x, and every value from Gaussian arithmetic."""

    word: tuple
    a: GaussianInt
    b: GaussianInt
    c: GaussianInt
    d: GaussianInt

    @classmethod
    def from_word(cls, word):
        comp = cls((), GaussianInt(1), GaussianInt(0), GaussianInt(0), GaussianInt(1))
        for x in word:
            digit = x if isinstance(x, GaussianInt) else GaussianInt(*x)
            if digit.norm_sq() < 8:
                raise DomainError(f"digit {digit} is not a branch index")
            comp = cls(comp.word + (digit,), comp.b, comp.a + comp.b * digit, comp.d,
                       comp.c + comp.d * digit)
        return comp

    def det(self):
        return self.a * self.d - self.b * self.c

    def box_extremes(self):
        """(sup, inf) of |Dphi| over the box from the clamped corners of d conj(c)."""
        if not self.word:
            return Fraction(1), Fraction(1)
        den, p = self.c.norm_sq(), self.d * self.c.conj()
        near = [max(2 * abs(v) - den, 0) for v in (p.re, p.im)]
        far = [2 * abs(v) + den for v in (p.re, p.im)]
        return Fraction(4 * den, sum(v * v for v in near)), Fraction(4 * den, sum(v * v for v in far))

    def apply_and_deriv(self, z):
        lift = ExactComplexRational.from_gaussian
        den = lift(self.c) * z + lift(self.d)
        return (lift(self.a) * z + lift(self.b)) / den, Fraction(1) / den.norm_sq()


class TestCompositionReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_gaussian_recurrence(self, seed):
        rng = random.Random(seed)
        small = d2_branches(50)
        pool = small + [(g.re, g.im) for g in small[:20]] + HUGE_DIGITS
        words = [rng.choices(pool, k=rng.randrange(0, 7)) for _ in range(120)]
        # the same words again with every digit a GaussianInt: equal compositions
        words += [[GaussianInt(*x) if isinstance(x, tuple) else x for x in w] for w in words[:30]]
        comps = [BranchComposition.from_word(w) for w in words]
        refs = [_RefComposition.from_word(w) for w in words]
        points = random_box_rationals(np.random.default_rng(seed), 3, 10_000)
        for comp, ref in zip(comps, refs):
            assert (comp.a, comp.b, comp.c, comp.d) == (ref.a, ref.b, ref.c, ref.d)
            assert comp.word == ref.word and len(comp) == len(ref.word)
            assert ref.det().norm_sq() == 1
            assert (comp.sup_deriv_exact(), comp.inf_deriv_exact()) == ref.box_extremes()
            assert comp.base_deriv_exact() == Fraction(1, ref.d.norm_sq())
            for z in points:
                assert (comp.apply(z), comp.deriv_abs_exact(z)) == ref.apply_and_deriv(z)
        for i, j in itertools.combinations(range(len(comps)), 2):
            assert (comps[i] == comps[j]) == (refs[i] == refs[j])
            if comps[i] == comps[j]:
                assert hash(comps[i]) == hash(comps[j])
        assert len(set(comps)) == len(set(refs)) < len(words)

    @pytest.mark.parametrize("word", [[(2, 1)], [(0, 0)], [(2, 2), (1, -2)], [(2**40, 3), (2, 0)]])
    def test_non_branch_digit_rejected(self, word):
        for cls in (BranchComposition, _RefComposition):
            with pytest.raises(DomainError, match="is not a branch index"):
                cls.from_word(word)


class TestIntegerSupInf:
    @pytest.mark.parametrize("length", range(1, 7))
    def test_equals_fraction_reference_on_seeded_words(self, length):
        alphabet = [b.to_pair() for b in d2_branches(64)]
        rng = random.Random(length)
        for _ in range(40):
            comp = BranchComposition.from_word(rng.choices(alphabet, k=length))
            sup, inf = _ref_box_extremes(comp)
            assert comp.sup_deriv_exact() == sup
            assert comp.inf_deriv_exact() == inf

    def test_equals_fraction_reference_on_huge_digits(self):
        rng = random.Random(40)
        small = [(2, 2), (0, -3), (5, -6)]
        for length in (1, 2, 3):
            for _ in range(10):
                comp = BranchComposition.from_word(rng.choices(HUGE_DIGITS + small, k=length))
                sup, inf = _ref_box_extremes(comp)
                assert comp.sup_deriv_exact() == sup
                assert comp.inf_deriv_exact() == inf


class TestContraction:
    def test_single_branch_values(self):
        # the box minimiser of |z + k + il| is the clamped projection of the
        # pole, an edge midpoint when k or l vanishes
        assert BranchComposition.from_word([(0, 3)]).sup_deriv_exact() == Fraction(4, 25)
        assert BranchComposition.from_word([(3, 0)]).sup_deriv_exact() == Fraction(4, 25)
        assert BranchComposition.from_word([(2, 2)]).sup_deriv_exact() == Fraction(2, 9)

    def test_brute_force_grid_oracle(self):
        # dense float grid never exceeds the exact corner analysis
        for word in ([(0, 3)], [(2, 2)], [(3, 1), (2, -2)]):
            comp = BranchComposition.from_word(word)
            xs = np.linspace(-0.5, 0.5, 41)
            c, d = complex(comp.c), complex(comp.d)
            grid_max = max(1.0 / abs(c * complex(x, y) + d) ** 2 for x in xs for y in xs)
            assert grid_max <= float(comp.sup_deriv_exact()) + 1e-15
            assert grid_max >= float(comp.sup_deriv_exact()) * 0.9

    def test_envelope_dominates_norm_classes(self):
        # exact class maxima fluctuate (axis-only classes dip: 4/169 at
        # norm_sq 49 against 2/81 at 50) but stay under the monotone
        # envelope, which diagonal branches attain exactly
        classes = dict(sup_deriv_by_norm_class(100))
        assert classes[49] == Fraction(4, 169)
        assert classes[50] == Fraction(2, 81)
        assert classes[49] < classes[50]
        ok, witness = contraction_envelope_check(100)
        assert ok, witness
        assert classes[8] == Fraction(2, 9)
        assert all(v <= Fraction(2, 9) for v in classes.values())

    def test_diagonal_branches_attain_envelope(self):
        for t in (2, 3, 5):
            v = BranchComposition.from_word([(t, t)]).sup_deriv_exact()
            envelope = 1.0 / (math.sqrt(2 * t * t) - math.sqrt(2) / 2.0) ** 2
            assert abs(float(v) - envelope) < 1e-14


class TestDecay:
    def test_tightness_at_diagonal_branch(self):
        comp = BranchComposition.from_word([(2, 2)])
        far = ecr(Fraction(1, 2), Fraction(1, 2))
        near = ecr(Fraction(-1, 2), Fraction(-1, 2))
        assert comp.deriv_abs_exact(far) == Fraction(2, 25)  # = c1 / 8 exactly
        assert comp.deriv_abs_exact(near) == Fraction(2, 9)  # = c2 / 8 exactly

    def test_norm_100_branch_inside(self):
        comp = BranchComposition.from_word([(10, 0)])
        val = comp.deriv_abs_exact(ecr(0, 0))
        assert Fraction(16, 25, ) / 100 <= val <= Fraction(16, 9) / 100


def _words_up_to_two():
    alphabet = d2_branches(13)
    return [(a,) for a in alphabet] + [(a, b) for a in alphabet for b in alphabet]


def _sampled_distortion(word) -> float:
    """max/min of the float |Dphi| = 1/|cz + d|^2 on a 5 x 5 box grid."""
    comp = BranchComposition.from_word(word)
    c, d = complex(comp.c), complex(comp.d)
    xs = np.linspace(-0.5, 0.5, 5)
    dens = [abs(c * complex(x, y) + d) ** 2 for x in xs for y in xs]
    return max(dens) / min(dens)


class TestDistortion:
    def test_identity_has_none(self):
        assert BranchComposition.identity().distortion_exact() == 1

    def test_single_branch_exact(self):
        comp = BranchComposition.from_word([(2, 2)])
        assert comp.distortion_exact() == Fraction(25, 9)
        assert max_single_branch_distortion() == Fraction(25, 9)

    def test_sampled_at_least_single_branch(self):
        # a float 5 x 5 grid with the corners, where single-branch extremes
        # live, reaches 25/9 and never passes the exact closed form
        sampled = {word: _sampled_distortion(word) for word in _words_up_to_two()}
        assert max(sampled.values()) >= float(Fraction(25, 9)) - 1e-12
        for word, value in sampled.items():
            exact = BranchComposition.from_word(word).distortion_exact()
            assert value <= float(exact) * (1 + 1e-12), word

    def test_uniform_bound_dominates_samples(self):
        assert max(map(_sampled_distortion, _words_up_to_two())) <= COMPOSITION_DISTORTION_BOUND
        # the bound itself is (2 sqrt2 - 1)^2
        assert abs(COMPOSITION_DISTORTION_BOUND - (2 * math.sqrt(2) - 1) ** 2) < 1e-14

    def test_uniform_bound_dominates_short_words(self):
        # exact sup/inf over the box of every word of length <= 3: the max,
        # 961/289 = 3.3253, lies between 25/9 and K0
        words, rows = short_words()
        far, near, _ = box_distortion_terms(*rows)
        assert len(words) == 14_424
        word_max = max(Fraction(f, n) for f, n in zip(far, near))
        assert word_max == Fraction(961, 289)
        assert Fraction(25, 9) < word_max < Fraction(COMPOSITION_DISTORTION_BOUND)
        for j in range(0, len(words), 97):
            assert Fraction(far[j], near[j]) == BranchComposition.from_word(words[j]).distortion_exact()

    def test_uniform_bound_rounded_up(self):
        # K0 >= (2 sqrt2 - 1)^2 = 9 - 4 sqrt2 <=> (9 - K0)^2 <= 32; the
        # nearest float to 9 - 4 sqrt2 lies below it, K0 one step above
        t = 9 - Fraction(COMPOSITION_DISTORTION_BOUND)
        assert 0 < t and t * t <= 32
        below = 9 - Fraction(math.nextafter(COMPOSITION_DISTORTION_BOUND, 0.0))
        assert below * below > 32

    def test_pole_distance_invariant(self):
        # |d/c| > sqrt2 + 1 for every branch word, the fact behind the bound:
        # with t = |d|^2 - 3 |c|^2, that is t > 0 and t^2 > 8 |c|^4
        _, (cr, ci, dr, di) = short_words()
        c2, d2 = cr * cr + ci * ci, dr * dr + di * di
        t = d2 - 3 * c2
        assert (t > 0).all() and (t * t > 8 * c2 * c2).all()


class TestDiameter:
    def test_real_axis_chord_inside_bounds(self):
        # the image of [5/2, 7/2] on the real axis is [2/7, 2/5]
        base = float(BranchComposition.from_word([(3, 0)]).base_deriv_exact())
        assert DIAMETER_K1 * base <= 2.0 / 5.0 - 2.0 / 7.0 <= DIAMETER_K2 * base


class TestCylinderIdentity:
    def test_compositions_carry_their_word(self):
        # the image of any box point under a word of regular digits expands
        # back to that word as digit prefix
        from hurwitzcf import expand
        from hurwitzcf.gaussian import GaussianInt

        rng = np.random.default_rng(23)
        alphabet = [(b.re, b.im) for b in d2_branches(16)]
        points = random_box_rationals(rng, 8, 10_000)
        words = [[a] for a in alphabet] + [[a, b] for a in alphabet for b in alphabet]
        for _ in range(120):
            idx = rng.integers(0, len(alphabet), size=3)
            words.append([alphabet[int(j)] for j in idx])
        for word in words:
            comp = BranchComposition.from_word(word)
            for u in points[: 2 if len(word) > 2 else 4]:
                image = comp.apply(u)
                digits = tuple(GaussianInt(*w) for w in word)
                assert expand(image, len(word)).digits.digits == digits, word


class TestSeparation:
    """A cylinder carries its own first digit.  The whole-grid check is
    svg.soundness_check, registered as ifs.branch_images_separated."""

    def test_center_first_digit(self):
        from hurwitzcf import expand

        p = branch((2, 2))(ecr(0, 0))
        assert expand(p, max_digits=1).digits[0].to_pair() == [2, 2]


def _rows(*words):
    comps = [BranchComposition.from_word(w) for w in words]
    return [np.array(col, dtype=object) for col in zip(*((m.c.re, m.c.im, m.d.re, m.d.im) for m in comps))]


class TestBallInclusion:
    def test_zero_radius_vacuous(self):
        assert ball_inclusion_holds(*_rows([(2, 2)]), 0, 3).all()

    def test_boundary_distance_matches_circle_samples(self):
        # min over |z| = delta of |phi(z) - phi(0)| is delta/(|d| (|d| + delta |c|))
        delta = 0.5
        for word in ([(2, 2)], [(3, 1), (-2, 2)], [(0, 3), (2, -2), (-3, 0)]):
            comp = BranchComposition.from_word(word)
            a, b, c, d = (complex(g) for g in (comp.a, comp.b, comp.c, comp.d))
            zs = delta * np.exp(2j * np.pi * np.arange(4096) / 4096)
            sampled = np.abs((a * zs + b) / (c * zs + d) - b / d).min()
            closed = delta / (abs(d) * (abs(d) + delta * abs(c)))
            assert closed <= sampled <= closed * (1 + 1e-6)

    def test_decides_three_k_against_one_plus_ratio(self):
        # (2, 2): |c|/|d| = 1/sqrt8, so 1 + |c|/(2 |d|) <= 3K <=> K >= (1 + 1/sqrt32)/3
        rows = _rows([(2, 2)])
        assert ball_inclusion_holds(*rows, Fraction(1, 2), Fraction(394, 1000)).all()
        assert not ball_inclusion_holds(*rows, Fraction(1, 2), Fraction(392, 1000)).any()


class TestNesting:
    def test_padded_boxes_shrink(self):
        # smaller pads nest too
        ok, _ = nesting_check(d2_branches(9), pad=0.1)
        assert ok


class TestEngineConstants:
    def test_relations(self):
        k0 = COMPOSITION_DISTORTION_BOUND
        assert abs(DIAMETER_K1 - 2 * 0.5 / (3 * k0)) < 1e-15
        assert abs(DIAMETER_K2 - k0 * math.sqrt(2)) < 1e-15
        assert float(DECAY_C1) == 16 / 25 and float(DECAY_C2) == 16 / 9
        # the k0 the dimension engine widens its lower brackets by
        assert dimension._LOG_K0 == math.log(k0)

    def test_diameter_constants_round_outward(self):
        # k1 is a lower bound and k2 an upper one: k1 <= 1/(3 k0) and
        # k2 >= sqrt2 k0, decided exactly; k1 is the largest such float and
        # k2 the smallest
        k0 = Fraction(COMPOSITION_DISTORTION_BOUND)
        assert Fraction(DIAMETER_K1) * 3 * k0 <= 1
        assert Fraction(math.nextafter(DIAMETER_K1, math.inf)) * 3 * k0 > 1
        assert Fraction(DIAMETER_K2) ** 2 >= 2 * k0**2
        assert Fraction(math.nextafter(DIAMETER_K2, 0.0)) ** 2 < 2 * k0**2
