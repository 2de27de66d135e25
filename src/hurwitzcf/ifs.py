"""Inverse branches of the Hurwitz map as an infinite conformal IFS.

Branches are indexed by lattice points with norm_sq >= 8 and act on the
closed unit box as z -> 1/(z + k + il).  Compositions are carried as exact
integer 2x2 matrices, so derivative moduli at rational points are exact
rationals and sup/inf over the box have an integer closed form in the
bottom row (c, d).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .expansion import REGULAR_NORM_SQ
from .gaussian import ExactComplexRational, GaussianInt, points_by_norm

# Supremum of single-branch derivative moduli over the closed unit box.
# The minimiser of |z + k + il|^2 is the clamped projection of -(k + il);
# over all branches the minimum distance squared is 9/2, at the diagonal
# branches of norm_sq 8, giving sup |Dphi| = 2/9.
CONTRACTION_SUP = Fraction(2, 9)

# Two-sided decay of |Dphi_i| against |i|^-2 over the closed box:
# |z + i| lies within sqrt(2)/2 of |i| and |i| >= 2*sqrt(2), so
# |z + i| is between (3/4)|i| and (5/4)|i|.
DECAY_C1 = Fraction(16, 25)
DECAY_C2 = Fraction(16, 9)

# Largest exact single-branch distortion (max/min derivative ratio over the
# box), attained at the diagonal branches of norm_sq 8: (25/2)/(9/2) = 25/9.
SINGLE_BRANCH_DISTORTION_MAX = Fraction(25, 9)

# Uniform distortion bound for arbitrary branch compositions.  For any
# nonempty word the continuant bottom row (c, d) satisfies |c/d| < sqrt2 - 1
# by induction (|c'/d'| = 1/|x + c/d| <= 1/(2*sqrt2 - (sqrt2-1)) = sqrt2 - 1,
# base case 1/|x| <= 1/(2*sqrt2)), so the derivative pole w = -d/c keeps
# |w| > sqrt2 + 1.  The max/min ratio of |z + w|^2 over the box is at most
# ((|w| + sqrt2/2) / (|w| - sqrt2/2))^2, decreasing in |w|, hence bounded by
# ((sqrt2 + 1 + sqrt2/2)/(sqrt2 + 1 - sqrt2/2))^2 = (2*sqrt2 - 1)^2.  That
# is 9 - 4 sqrt2, whose nearest float 3.3431457505076194 lies below it:
# (9 - K)^2 - 32 = +4.4e-15 there.  The next float up is sound, and the
# ``ifs`` distortion check decides that exactly.
COMPOSITION_DISTORTION_BOUND = math.nextafter(9.0 - 4.0 * math.sqrt(2.0), math.inf)

# Two-sided bounds k1 |Dphi(0)| <= diam <= k2 |Dphi(0)| on the diameter of
# a word's image of the box: k1 = 2 delta / (3 k0) with delta = 1/2 and
# k0 = COMPOSITION_DISTORTION_BOUND, k2 = k0 * diam of the unit box.  k1 is
# the largest float at most 1/(3 k0), since the nearest one lies above it;
# k2 rounds up.
DIAMETER_K1 = float(1 / (3 * Fraction(COMPOSITION_DISTORTION_BOUND)))
if Fraction(DIAMETER_K1) * 3 * Fraction(COMPOSITION_DISTORTION_BOUND) > 1:
    DIAMETER_K1 = math.nextafter(DIAMETER_K1, 0.0)
DIAMETER_K2 = COMPOSITION_DISTORTION_BOUND * math.sqrt(2.0)


BranchLike = GaussianInt | tuple[int, int]


def _as_digit(b: BranchLike) -> GaussianInt:
    """A digit as given, or parsed by ``GaussianInt.from_pair``."""
    return b if isinstance(b, GaussianInt) else GaussianInt.from_pair(b)


@dataclass(frozen=True)
class BranchComposition:
    """Composition of branches as an integer Moebius matrix.

    ``matrix`` holds the eight integers (ar, ai, br, bi, cr, ci, dr, di) of
    the Gaussian entries (a, b, c, d), with apply(z) = (a z + b) / (c z + d);
    it is the ordered product of the per-branch matrices [[0, 1], [1, k + il]],
    so |ad - bc| = 1 and the derivative modulus is 1/|c z + d|^2 exactly.
    """

    word: tuple[GaussianInt, ...]
    matrix: tuple[int, int, int, int, int, int, int, int]

    @classmethod
    def identity(cls) -> "BranchComposition":
        return cls((), (1, 0, 0, 0, 0, 0, 1, 0))

    @classmethod
    def from_word(cls, word: Iterable[BranchLike]) -> "BranchComposition":
        comp = cls.identity()
        for b in word:
            comp = comp.extend(b)
        return comp

    def extend(self, b: BranchLike) -> "BranchComposition":
        """Append one branch on the inside (apply it first)."""
        digit = _as_digit(b)
        xr, xi = digit.re, digit.im
        if xr * xr + xi * xi < REGULAR_NORM_SQ:
            raise DomainError(f"digit {digit} is not a branch index")
        # right-multiply by [[0,1],[1,digit]]: (a, b, c, d) -> (b, a + b digit, d, c + d digit)
        ar, ai, br, bi, cr, ci, dr, di = self.matrix
        return BranchComposition(self.word + (digit,), (
            br, bi, ar + br * xr - bi * xi, ai + br * xi + bi * xr,
            dr, di, cr + dr * xr - di * xi, ci + dr * xi + di * xr,
        ))

    @property
    def a(self) -> GaussianInt:
        return GaussianInt(self.matrix[0], self.matrix[1])

    @property
    def b(self) -> GaussianInt:
        return GaussianInt(self.matrix[2], self.matrix[3])

    @property
    def c(self) -> GaussianInt:
        return GaussianInt(self.matrix[4], self.matrix[5])

    @property
    def d(self) -> GaussianInt:
        return GaussianInt(self.matrix[6], self.matrix[7])

    def __len__(self) -> int:
        return len(self.word)

    def det(self) -> GaussianInt:
        ar, ai, br, bi, cr, ci, dr, di = self.matrix
        return GaussianInt(ar * dr - ai * di - br * cr + bi * ci, ar * di + ai * dr - br * ci - bi * cr)

    # -- application -------------------------------------------------------
    def apply(self, z: ExactComplexRational) -> ExactComplexRational:
        ar, ai, br, bi, cr, ci, dr, di = self.matrix
        num = ExactComplexRational(ar * z.re - ai * z.im + br, ar * z.im + ai * z.re + bi)
        den = ExactComplexRational(cr * z.re - ci * z.im + dr, cr * z.im + ci * z.re + di)
        if den.is_zero():
            raise DomainError(f"pole of composition at z = {z}")
        return num / den

    # -- derivative moduli ---------------------------------------------------
    def deriv_abs_exact(self, z: ExactComplexRational) -> Fraction:
        """|Dphi(z)| as an exact rational (the determinant has modulus 1)."""
        _, _, _, _, cr, ci, dr, di = self.matrix
        den = ExactComplexRational(cr * z.re - ci * z.im + dr, cr * z.im + ci * z.re + di)
        n = den.norm_sq()
        if n == 0:
            raise DomainError(f"derivative pole at z = {z}")
        return Fraction(1) / n

    def sup_deriv_exact(self) -> Fraction:
        """Exact supremum of |Dphi| over the closed unit box.

        |c z + d|^2 = den |z + (re + i im)/den|^2 (see ``pole_terms``), and
        min over x in [-1/2, 1/2] of (x + re/den)^2 is (nx/(2 den))^2 with
        nx = max(2|re| - den, 0): the sup is 4 den/(nx^2 + ny^2).
        """
        if not self.word:
            return Fraction(1)
        den, re, im = pole_terms(*self.matrix[4:])
        nx, ny = max(2 * abs(re) - den, 0), max(2 * abs(im) - den, 0)
        return Fraction(4 * den, nx * nx + ny * ny)

    def inf_deriv_exact(self) -> Fraction:
        """Exact infimum of |Dphi| over the closed unit box: as the sup, with
        the far corner mx = 2|re| + den in place of nx."""
        if not self.word:
            return Fraction(1)
        den, re, im = pole_terms(*self.matrix[4:])
        mx, my = 2 * abs(re) + den, 2 * abs(im) + den
        return Fraction(4 * den, mx * mx + my * my)

    def base_deriv_exact(self) -> Fraction:
        """|Dphi(0)| = 1/|d|^2 exactly."""
        dr, di = self.matrix[6:]
        n = dr * dr + di * di
        if n == 0:
            raise DomainError("derivative pole at 0")
        return Fraction(1, n)

    def distortion_exact(self) -> Fraction:
        """Exact sup/inf derivative ratio over the closed unit box."""
        if not self.word:
            return Fraction(1)
        return self.sup_deriv_exact() / self.inf_deriv_exact()


def pole_terms(cr, ci, dr, di):
    """(|c|^2, Re(d conj c), Im(d conj c)) of a bottom row (c, d).

    The derivative pole -d/c of the composition is -(re + i im)/|c|^2.
    Plain arithmetic, so the arguments may be ints or numpy arrays.
    """
    return cr * cr + ci * ci, dr * cr + di * ci, di * cr - dr * ci


def chain_deriv_abs_exact(
    word: Sequence[BranchLike], z: ExactComplexRational
) -> Fraction:
    """Derivative modulus by the chain rule along the orbit, exactly.

    Independent of the matrix formula: multiplies single-branch derivative
    moduli evaluated at the successive partial images.
    """
    digits = [_as_digit(b) for b in word]
    total = Fraction(1)
    point = z
    for digit in reversed(digits):
        single = BranchComposition.from_word([digit])
        total *= single.deriv_abs_exact(point)
        point = single.apply(point)
    return total


def d2_branches(norm_sq_max: int) -> list[GaussianInt]:
    """All branch indices with norm_sq in [8, norm_sq_max], norm-lex ordered."""
    return points_by_norm(REGULAR_NORM_SQ, norm_sq_max)


# ---------------------------------------------------------------------------
# constants and their verification


def validate_decay_bounds(norm_sq_max: int = 64) -> tuple[bool, dict | None]:
    """Exact check of c1/|i|^2 <= |Dphi_i| <= c2/|i|^2 over the closed box.

    Compares the exact box infimum and supremum of every branch with
    norm_sq <= norm_sq_max against the two bounds.  Branches beyond the
    cutoff satisfy them analytically: |z + i| within sqrt2/2 of |i| and
    |i| >= 2 sqrt2 give the 3/4 and 5/4 factors for every branch.  Returns
    (ok, witness).
    """
    for branch in d2_branches(norm_sq_max):
        comp = BranchComposition.from_word([branch])
        ns = branch.norm_sq()
        inf, sup = comp.inf_deriv_exact(), comp.sup_deriv_exact()
        if not DECAY_C1 / ns <= inf or not sup <= DECAY_C2 / ns:
            return False, {"branch": branch.to_pair(), "inf": str(inf), "sup": str(sup)}
    return True, None


def contraction_bound() -> Fraction:
    """Supremum of single-branch derivative moduli over all branches.

    Exact corner analysis over norm_sq <= 64; branches beyond satisfy
    sup |Dphi_i| <= 1/(|i| - sqrt2/2)^2 < 2/9, since |i| - sqrt2/2 > 3/sqrt2
    reduces to norm_sq > 8.  The analysis therefore pins the supremum to
    the exact maximum over the enumerated range, which is returned as
    computed; the ``ifs`` checks compare it with ``CONTRACTION_SUP``.
    """
    return max(BranchComposition.from_word([b]).sup_deriv_exact() for b in d2_branches(64))


def sup_deriv_by_norm_class(norm_sq_max: int) -> list[tuple[int, Fraction]]:
    """Per-norm-class supremum of single-branch derivative moduli.

    Not monotone class by class (classes holding only axis branches dip
    below their neighbours, e.g. norm_sq 49 gives 4/169 but norm_sq 50
    gives 2/81); the monotone statement is the envelope bound checked by
    contraction_envelope_check.
    """
    return [
        (ns, max(BranchComposition.from_word([g]).sup_deriv_exact() for g in shell))
        for ns, shell in itertools.groupby(d2_branches(norm_sq_max), key=GaussianInt.norm_sq)
    ]


def contraction_envelope_check(norm_sq_max: int = 100) -> tuple[bool, dict | None]:
    """Single-branch sups sit below the monotone envelope 1/(|i|-sqrt2/2)^2.

    The envelope is nonincreasing in |i| and attained exactly by diagonal
    branches, so together with envelope(9) < 2/9 it pins the global
    supremum to the minimal norm class.  Both are decided exactly: with
    |i| - sqrt2/2 > 0, v <= envelope(ns) reads t = ns + 1/2 - 1/v <=
    sqrt(2 ns), that is t <= 0 or t^2 <= 2 ns; envelope(9) < v reads
    u = 19/2 - 1/v > 3 sqrt2, that is u > 0 and u^2 > 18 (25 > 18 at 2/9).
    """
    for ns, v in sup_deriv_by_norm_class(norm_sq_max):
        t = ns + Fraction(1, 2) - 1 / v
        if t > 0 and t * t > 2 * ns:
            return False, {"norm_sq": ns, "sup": str(v)}
    u = Fraction(19, 2) - 1 / CONTRACTION_SUP
    if not (u > 0 and u * u > 18):
        return False, {"check": "envelope(9) < sup", "sup": str(CONTRACTION_SUP)}
    return True, None


def max_single_branch_distortion(norm_sq_max: int = 64) -> Fraction:
    """Exact max of single-branch distortion over all branches.

    Beyond the enumerated range the ratio is below
    ((|i| + sqrt2/2)/(|i| - sqrt2/2))^2 < 25/9 (reduces to norm_sq > 8).
    The maximum is returned as computed; the ``ifs`` checks compare it with
    ``SINGLE_BRANCH_DISTORTION_MAX``.
    """
    return max(BranchComposition.from_word([b]).distortion_exact() for b in d2_branches(norm_sq_max))


# ---------------------------------------------------------------------------
# geometric verification operations


def box_distortion_terms(cr, ci, dr, di):
    """(far, near, den) of bottom rows (c, d), object arrays of Python ints.

    A nonempty word's exact sup/inf of |Dphi| over the closed box is
    far/near, from the closed form of ``sup_deriv_exact`` and
    ``inf_deriv_exact``: near = nx^2 + ny^2 and far = mx^2 + my^2 with
    the clamped corners nx = max(2|re| - den, 0), mx = 2|re| + den and
    likewise in im, and den = |c|^2, so the sup is also 4 den/near.
    near = 0 marks a pole in the box.
    """
    den, re, im = pole_terms(cr, ci, dr, di)
    re, im = 2 * np.abs(re), 2 * np.abs(im)
    near = np.maximum(re - den, 0) ** 2 + np.maximum(im - den, 0) ** 2
    return (re + den) ** 2 + (im + den) ** 2, near, den


def ball_inclusion_holds(cr, ci, dr, di, delta, distortion) -> np.ndarray:
    """Per bottom row (c, d), whether phi(B(0, delta)) contains the ball
    B(phi(0), delta |Dphi(0)| / (3 K)), decided exactly for K = distortion.

    phi(z) - phi(0) = det z / (d (c z + d)) with |det| = 1, so on |z| =
    delta the image stays at distance delta / (|d| (|d| + delta |c|)) or
    more from phi(0), with equality where |c z + d| is largest.  When the
    pole -d/c lies outside the closed disc (delta |c| < |d|) the image is a
    disc around phi(0) and that is the distance to its boundary, so the
    inclusion holds exactly when delta |c| < |d| and 1 + delta |c|/|d| <=
    3 K, i.e. delta |c| <= (3 K - 1) |d|; both are squared into integers.
    The arguments are object arrays of Python ints; delta and K are exact
    (floats convert exactly).
    """
    delta, slack = Fraction(delta), 3 * Fraction(distortion) - 1
    c2, d2 = cr * cr + ci * ci, dr * dr + di * di
    lhs = delta.numerator**2 * c2  # (delta |c|)^2 delta.denominator^2
    rhs = (slack.numerator * delta.denominator) ** 2 * d2
    return (lhs < delta.denominator**2 * d2) & (lhs * slack.denominator**2 <= rhs) & (slack >= 0)


def nesting_check(
    branches: Sequence[BranchLike], pad: Fraction | float = Fraction(1, 4)
) -> tuple[bool, dict | None]:
    """Branch images of the box stay inside the box, decided exactly.

    Checks the closed unit box and the box padded to half-width
    h = 1/2 + pad.  Re(1/w) <= h holds exactly when |w - 1/(2h)| >= 1/(2h),
    and likewise -Re(1/w) <= h and +-Im(1/w) <= h with the centres
    -1/(2h) and -+i/(2h).  So phi_b(box_h) lies in box_h exactly when the
    square box_h + b meets none of the four open discs of radius 1/(2h)
    around +-1/(2h) and +-i/(2h); the pole 0 lies on all four boundaries,
    so such a square misses it.  The point of the square nearest a centre
    is the centre's clamped projection.
    """
    for b in branches:
        digit = _as_digit(b)
        for half in (Fraction(1, 2), Fraction(1, 2) + Fraction(pad)):
            r = 1 / (2 * half)
            for px, py in ((r, 0), (-r, 0), (0, r), (0, -r)):
                qx = min(max(px, digit.re - half), digit.re + half)
                qy = min(max(py, digit.im - half), digit.im + half)
                if (qx - px) ** 2 + (qy - py) ** 2 < r * r:
                    return False, {
                        "branch": digit.to_pair(),
                        "half_width": str(half),
                        "centre": [str(px), str(py)],
                    }
    return True, None
