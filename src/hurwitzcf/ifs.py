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
from .expansion import expand
from .gaussian import (
    ExactComplexRational,
    GaussianInt,
    norm_sq_shells,
    points_by_norm,
    shell_members,
)

BRANCH_MIN_NORM_SQ = 8

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
# ((sqrt2 + 1 + sqrt2/2)/(sqrt2 + 1 - sqrt2/2))^2 = (2*sqrt2 - 1)^2.
COMPOSITION_DISTORTION_BOUND = 9.0 - 4.0 * math.sqrt(2.0)

# Two-sided bounds k1 |Dphi(0)| <= diam <= k2 |Dphi(0)| on the diameter of
# a word's image of the box: k1 = 2 delta / (3 k0) with delta = 1/2 and
# k0 = COMPOSITION_DISTORTION_BOUND, k2 = k0 * diam of the unit box.
DIAMETER_K1 = 1.0 / (3.0 * COMPOSITION_DISTORTION_BOUND)
DIAMETER_K2 = COMPOSITION_DISTORTION_BOUND * math.sqrt(2.0)


BranchLike = GaussianInt | tuple[int, int]


def _as_digit(b: BranchLike) -> GaussianInt:
    if isinstance(b, GaussianInt):
        return b
    return GaussianInt(int(b[0]), int(b[1]))


def branch_apply(b: BranchLike, z: ExactComplexRational | complex):
    """Apply one branch; exact in, exact out (complex floats pass through)."""
    d = _as_digit(b)
    if isinstance(z, ExactComplexRational):
        shifted = z.add_gaussian(d)
        if shifted.is_zero():
            raise DomainError(f"pole of branch {d} at z = {z}")
        return shifted.reciprocal()
    w = complex(z) + complex(d.re, d.im)
    if w == 0:
        raise DomainError(f"pole of branch {d} at z = {z}")
    return 1.0 / w


@dataclass(frozen=True)
class BranchComposition:
    """Composition of branches as an integer Moebius matrix.

    ``matrix`` is (a, b, c, d) with apply(z) = (a z + b) / (c z + d); it is
    the ordered product of the per-branch matrices [[0, 1], [1, k + il]],
    so |ad - bc| = 1 and the derivative modulus is 1/|c z + d|^2 exactly.
    """

    word: tuple[GaussianInt, ...]
    a: GaussianInt
    b: GaussianInt
    c: GaussianInt
    d: GaussianInt

    @classmethod
    def identity(cls) -> "BranchComposition":
        return cls((), GaussianInt(1), GaussianInt(0), GaussianInt(0), GaussianInt(1))

    @classmethod
    def from_word(cls, word: Iterable[BranchLike]) -> "BranchComposition":
        comp = cls.identity()
        for b in word:
            comp = comp.extend(b)
        return comp

    def extend(self, b: BranchLike) -> "BranchComposition":
        """Append one branch on the inside (apply it first)."""
        digit = _as_digit(b)
        if digit.norm_sq() < BRANCH_MIN_NORM_SQ:
            raise DomainError(f"digit {digit} is not a branch index")
        # right-multiply by [[0,1],[1,digit]]
        return BranchComposition(
            self.word + (digit,),
            self.b,
            self.a + self.b * digit,
            self.d,
            self.c + self.d * digit,
        )

    def __len__(self) -> int:
        return len(self.word)

    def det(self) -> GaussianInt:
        return self.a * self.d - self.b * self.c

    # -- application -------------------------------------------------------
    def apply(self, z: ExactComplexRational | complex):
        if isinstance(z, ExactComplexRational):
            num = ExactComplexRational(
                self.a.re * z.re - self.a.im * z.im + self.b.re,
                self.a.re * z.im + self.a.im * z.re + self.b.im,
            )
            den = ExactComplexRational(
                self.c.re * z.re - self.c.im * z.im + self.d.re,
                self.c.re * z.im + self.c.im * z.re + self.d.im,
            )
            if den.is_zero():
                raise DomainError(f"pole of composition at z = {z}")
            return num / den
        zz = complex(z)
        den = complex(self.c) * zz + complex(self.d)
        if den == 0:
            raise DomainError(f"pole of composition at z = {z}")
        return (complex(self.a) * zz + complex(self.b)) / den

    def apply_inverse(self, p: complex) -> complex:
        """Exact inverse Moebius transform (d p - b) / (-c p + a), in floats."""
        pp = complex(p)
        den = -complex(self.c) * pp + complex(self.a)
        if den == 0:
            raise DomainError("pole of inverse composition")
        return (complex(self.d) * pp - complex(self.b)) / den

    # -- derivative moduli ---------------------------------------------------
    def deriv_abs_exact(self, z: ExactComplexRational) -> Fraction:
        """|Dphi(z)| as an exact rational (the determinant has modulus 1)."""
        den = ExactComplexRational(
            self.c.re * z.re - self.c.im * z.im + self.d.re,
            self.c.re * z.im + self.c.im * z.re + self.d.im,
        )
        n = den.norm_sq()
        if n == 0:
            raise DomainError(f"derivative pole at z = {z}")
        return Fraction(1) / n

    def deriv_abs(self, z: complex) -> float:
        zz = complex(z)
        den = complex(self.c) * zz + complex(self.d)
        if den == 0:
            raise DomainError(f"derivative pole at z = {z}")
        return 1.0 / abs(den) ** 2

    def sup_deriv_exact(self) -> Fraction:
        """Exact supremum of |Dphi| over the closed unit box.

        |c z + d|^2 = den |z + (re + i im)/den|^2 (see ``pole_terms``), and
        min over x in [-1/2, 1/2] of (x + re/den)^2 is (nx/(2 den))^2 with
        nx = max(2|re| - den, 0): the sup is 4 den/(nx^2 + ny^2).
        """
        if not self.word:
            return Fraction(1)
        den, re, im = pole_terms(self.c.re, self.c.im, self.d.re, self.d.im)
        nx, ny = max(2 * abs(re) - den, 0), max(2 * abs(im) - den, 0)
        return Fraction(4 * den, nx * nx + ny * ny)

    def inf_deriv_exact(self) -> Fraction:
        """Exact infimum of |Dphi| over the closed unit box: as the sup, with
        the far corner mx = 2|re| + den in place of nx."""
        if not self.word:
            return Fraction(1)
        den, re, im = pole_terms(self.c.re, self.c.im, self.d.re, self.d.im)
        mx, my = 2 * abs(re) + den, 2 * abs(im) + den
        return Fraction(4 * den, mx * mx + my * my)

    def base_deriv_exact(self) -> Fraction:
        """|Dphi(0)| = 1/|d|^2 exactly."""
        n = self.d.norm_sq()
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
    return points_by_norm(BRANCH_MIN_NORM_SQ, norm_sq_max)


# ---------------------------------------------------------------------------
# constants and their verification


def validate_decay_bounds(norm_sq_max: int = 64, grid: int = 31):
    """Exact check of c1/|i|^2 <= |Dphi_i| <= c2/|i|^2 on a rational grid.

    Grid points have coordinates -1/2 + j/grid, j = 0..grid, so corners are
    included; comparisons are cross-multiplied integers, hence exact.
    Branches with norm_sq beyond the cutoff satisfy the bounds
    analytically: |z + i| within sqrt2/2 of |i| and |i| >= 2 sqrt2 give the
    3/4 and 5/4 factors for every branch.  Returns (ok, witness).
    """
    # z = ((2j - grid) + i(2m - grid)) / (2 grid); |z + k + il|^2 has
    # integer numerator over (2 grid)^2
    two_g = 2 * grid
    offs = [2 * j - grid for j in range(grid + 1)]
    c1n, c1d = DECAY_C1.numerator, DECAY_C1.denominator
    c2n, c2d = DECAY_C2.numerator, DECAY_C2.denominator
    for branch in d2_branches(norm_sq_max):
        ns = branch.norm_sq()
        kk = two_g * branch.re
        ll = two_g * branch.im
        for u in offs:
            du = (u + kk) ** 2
            for v in offs:
                dist = du + (v + ll) ** 2  # (2g)^2 |z + k + il|^2
                # c1/ns <= (2g)^2/dist  <=>  c1 * dist <= c1d * (2g)^2 * ns
                if c1n * dist > c1d * two_g**2 * ns or c2n * dist < c2d * two_g**2 * ns:
                    return False, {
                        "branch": [branch.re, branch.im],
                        "z": [f"{u}/{two_g}", f"{v}/{two_g}"],
                    }
    return True, None


def contraction_bound(exact: bool = True) -> Fraction | float:
    """Supremum of single-branch derivative moduli over all branches.

    Exact corner analysis over norm_sq <= 64; branches beyond satisfy
    sup |Dphi_i| <= 1/(|i| - sqrt2/2)^2 < 2/9, since |i| - sqrt2/2 > 3/sqrt2
    reduces to norm_sq > 8.  The analysis therefore pins the supremum to
    the exact maximum over the enumerated range, which is returned as
    computed; the ``ifs`` checks compare it with ``CONTRACTION_SUP``.
    """
    best = max(BranchComposition.from_word([b]).sup_deriv_exact() for b in d2_branches(64))
    return best if exact else float(best)


def sup_deriv_by_norm_class(norm_sq_max: int) -> list[tuple[int, Fraction]]:
    """Per-norm-class supremum of single-branch derivative moduli.

    Not monotone class by class (classes holding only axis branches dip
    below their neighbours, e.g. norm_sq 49 gives 4/169 but norm_sq 50
    gives 2/81); the monotone statement is the envelope bound checked by
    contraction_envelope_check.
    """
    values, _ = norm_sq_shells(norm_sq_max)
    out: list[tuple[int, Fraction]] = []
    for ns in values.tolist():
        if ns < BRANCH_MIN_NORM_SQ:
            continue
        best = max(
            BranchComposition.from_word([g]).sup_deriv_exact()
            for g in shell_members(int(ns))
        )
        out.append((int(ns), best))
    return out


def contraction_envelope_check(norm_sq_max: int = 100) -> tuple[bool, dict | None]:
    """Single-branch sups sit below the monotone envelope 1/(|i|-sqrt2/2)^2.

    The envelope is nonincreasing in |i| and attained exactly by diagonal
    branches, so together with envelope(9) < 2/9 it pins the global
    supremum to the minimal norm class.
    """
    for ns, v in sup_deriv_by_norm_class(norm_sq_max):
        envelope = 1.0 / (math.sqrt(ns) - math.sqrt(2.0) / 2.0) ** 2
        if float(v) > envelope * (1.0 + 1e-12):
            return False, {"norm_sq": ns, "sup": float(v), "envelope": envelope}
    if not 1.0 / (3.0 - math.sqrt(2.0) / 2.0) ** 2 < float(CONTRACTION_SUP):
        return False, {"check": "envelope(9) < 2/9"}
    return True, None


def max_single_branch_distortion(norm_sq_max: int = 64) -> Fraction:
    """Exact max of single-branch distortion over all branches.

    Beyond the enumerated range the ratio is below
    ((|i| + sqrt2/2)/(|i| - sqrt2/2))^2 < 25/9 (reduces to norm_sq > 8).
    The maximum is returned as computed; the ``ifs`` checks compare it with
    ``SINGLE_BRANCH_DISTORTION_MAX``.
    """
    return max(BranchComposition.from_word([b]).distortion_exact() for b in d2_branches(norm_sq_max))


def distortion_estimate(max_word_len: int = 3, max_words: int = 20_000, seed: int = 1) -> float:
    """Sampled composition distortion over short words of norm_sq <= 13.

    Exhausts words as long as the alphabet power fits ``max_words``, then
    samples uniformly (seeded).  Each word's ratio is taken over a rational
    grid of 5 points per axis that includes the box corners, where
    single-branch extremes live, so the estimate is >= the exact
    single-branch maximum 25/9.  Word space is sampled, hence non-rigorous;
    ``COMPOSITION_DISTORTION_BOUND`` is the proven bound.
    """
    alphabet = d2_branches(13)
    g = 4  # coordinates (2j - g) / (2g), j = 0..g
    offs = [2 * j - g for j in range(g + 1)]
    rng = np.random.default_rng(seed)
    best = 1.0

    def ratio_of(word) -> float:
        comp = BranchComposition.from_word(word)
        # (2g)^2 |c z + d|^2 = |c (u + iv) + 2g d|^2 at z = (u + iv)/(2g)
        cr, ci = comp.c.re, comp.c.im
        dr, di = 2 * g * comp.d.re, 2 * g * comp.d.im
        lo = hi = None
        for u in offs:
            for v in offs:
                re = cr * u - ci * v + dr
                im = cr * v + ci * u + di
                q = re * re + im * im
                lo = q if lo is None or q < lo else lo
                hi = q if hi is None or q > hi else hi
        return hi / lo

    for length in range(1, max_word_len + 1):
        total = len(alphabet) ** length
        if total <= max_words:
            words = itertools.product(alphabet, repeat=length)
        else:
            idx = rng.integers(0, len(alphabet), size=(max_words, length))
            words = (tuple(alphabet[j] for j in row) for row in idx)
        for word in words:
            best = max(best, ratio_of(word))
    return best


# ---------------------------------------------------------------------------
# geometric verification operations


def word_diameter_bounds(comp: BranchComposition) -> tuple[float, float]:
    """Two-sided bounds [k1 |Dphi(0)|, k2 |Dphi(0)|] on the image diameter."""
    if not comp.word:
        raise DomainError("diameter bounds need a nonempty word")
    base = float(comp.base_deriv_exact())
    return DIAMETER_K1 * base, DIAMETER_K2 * base


def mc_diameter(comp: BranchComposition, samples: int = 1024, seed: int = 1) -> float:
    """Monte Carlo diameter of the image of the closed unit box."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.5, 0.5, size=samples)
    ys = rng.uniform(-0.5, 0.5, size=samples)
    # include the corners: extremes are often attained there
    xs = np.concatenate([xs, [-0.5, -0.5, 0.5, 0.5]])
    ys = np.concatenate([ys, [-0.5, 0.5, -0.5, 0.5]])
    pts = np.array([comp.apply(complex(x, y)) for x, y in zip(xs, ys)])
    diffs = np.abs(pts[:, None] - pts[None, :])
    return float(diffs.max())


def ball_inclusion_check(
    comp: BranchComposition,
    center: ExactComplexRational,
    delta: float,
    distortion: float,
    samples: int = 256,
) -> bool:
    """Image of a ball contains the predicted smaller ball around the image.

    Samples the boundary circle of radius delta*|Dphi(center)|/(3 K) around
    phi(center) and pulls each sample back through the exact inverse map;
    all pullbacks must land inside the original ball.
    """
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    if delta == 0:
        return True
    base = float(comp.deriv_abs_exact(center))
    radius = delta * base / (3.0 * distortion)
    image_center = complex(comp.apply(center))
    c0 = complex(center)
    for j in range(samples):
        theta = 2.0 * math.pi * j / samples
        p = image_center + radius * complex(math.cos(theta), math.sin(theta))
        back = comp.apply_inverse(p)
        if abs(back - c0) >= delta:
            return False
    return True


def sample_box_rationals(rng: np.random.Generator, count: int, grid: int = 1 << 16):
    """Seeded exact rational samples of the half-open unit box."""
    res = rng.integers(-grid // 2, grid // 2, size=count)
    ims = rng.integers(-grid // 2, grid // 2, size=count)
    return [
        ExactComplexRational(Fraction(int(a), grid), Fraction(int(b), grid))
        for a, b in zip(res, ims)
    ]


def separation_check(
    digits: Sequence[BranchLike], samples: int, seed: int
) -> tuple[bool, dict | None]:
    """Cylinders of ``digits`` carry their own first digit and are disjoint.

    Each digit d gets ``samples`` points p = 1/(u + d) from seeded
    sample_box_rationals draws u; images outside the box (only exceptional
    digits have them) are redrawn.  Every p must expand with first digit d,
    and 1/p - e must lie in the box for e = d alone.  Returns (ok, witness).
    """
    if not digits:
        raise DomainError("digit list must be nonempty")
    digits = [_as_digit(b) for b in digits]
    rng = np.random.default_rng(seed)
    for digit in digits:
        points: list[ExactComplexRational] = []
        drawn = 0
        while (need := samples - len(points)) > 0:
            drawn += need
            if drawn > 200 * samples:
                raise DomainError(f"rejection sampling stalled for digit {digit}")
            images = (u.add_gaussian(digit).reciprocal() for u in sample_box_rationals(rng, need))
            points += [p for p in images if p.in_unit_box()]
        for p in points:
            first = expand(p, max_digits=1).digits
            if len(first) == 0 or first[0] != digit:
                return False, {"check": "first_digit", "region": digit.to_pair(), "point": str(p)}
            w = p.reciprocal()
            wf = complex(w)
            # cheap float pre-filter with a wide safety margin; the
            # membership decision itself stays exact
            claims = sum(
                1
                for e in digits
                if abs(wf.real - e.re) <= 0.75
                and abs(wf.imag - e.im) <= 0.75
                and w.sub_gaussian(e).in_unit_box()
            )
            if claims != 1:
                return False, {
                    "check": "unique_region",
                    "region": digit.to_pair(),
                    "point": str(p),
                    "claims": claims,
                }
    return True, None


def boundary_points(half_width: float, per_side: int) -> list[complex]:
    """Evenly spaced points on the boundary of a centred square box."""
    ts = np.linspace(-half_width, half_width, per_side)
    pts: list[complex] = []
    for t in ts:
        pts.extend(
            [
                complex(t, -half_width),
                complex(t, half_width),
                complex(-half_width, t),
                complex(half_width, t),
            ]
        )
    return pts


def nesting_check(
    branches: Sequence[BranchLike], pad: float = 0.25, per_side: int = 64
) -> tuple[bool, dict | None]:
    """Branch images of the padded box stay inside the padded box.

    Checks the closed unit box and the padded box of half-width 1/2 + pad,
    on boundary samples.
    """
    for b in branches:
        comp = BranchComposition.from_word([_as_digit(b)])
        for half in (0.5, 0.5 + pad):
            for p in boundary_points(half, per_side):
                img = comp.apply(p)
                if max(abs(img.real), abs(img.imag)) > half + 1e-12:
                    return False, {
                        "branch": _as_digit(b).to_pair(),
                        "half_width": half,
                        "point": [p.real, p.imag],
                        "image": [img.real, img.imag],
                    }
    return True, None
