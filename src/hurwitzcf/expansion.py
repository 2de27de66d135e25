"""The Hurwitz map, digit extraction and continued fraction evaluation.

The map sends z in the half-open unit box U to 1/z - round(1/z), where
round is nearest-lattice rounding.  On a Gaussian rational z = a/b it is one
step of the Euclidean algorithm in Z[i], (a, b) -> (b - d a, a), so digits
are extracted on plain integers; a finite word is evaluated back with the
integer continuant recurrence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .gaussian import ExactComplexRational, GaussianInt, points_by_norm

DEFAULT_MAX_DIGITS = 4096

# digit classification cutoffs: norm_sq >= 2 is a legal digit, norm_sq >= 8
# additionally has its full 1-cylinder inside the unit box
MIN_DIGIT_NORM_SQ = 2
REGULAR_NORM_SQ = 8


@dataclass(frozen=True)
class DigitWord:
    """Finite string of Hurwitz digits; indexes a cylinder of its length."""

    digits: tuple[GaussianInt, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        for d in self.digits:
            if d.norm_sq() < MIN_DIGIT_NORM_SQ:
                raise DomainError(f"digit {d} has norm_sq < {MIN_DIGIT_NORM_SQ}")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, idx):
        return self.digits[idx]

    @classmethod
    def from_json(cls, text: str) -> "DigitWord":
        return cls(GaussianInt.from_pairs(json.loads(text)))

    def __str__(self) -> str:
        return "; ".join(str(d) for d in self.digits)


@dataclass(frozen=True)
class ExpansionResult:
    digits: DigitWord
    terminated: bool
    remainder: ExactComplexRational

    def __post_init__(self) -> None:
        if self.terminated and not self.remainder.is_zero():
            raise ValueError("terminated expansion must leave remainder 0")


def _require_in_box(z: ExactComplexRational) -> None:
    if z.in_unit_box():
        return
    half = Fraction(1, 2)
    for name, coord in (("re", z.re), ("im", z.im)):
        if not -half <= coord < half:
            raise DomainError(
                f"{z} is outside the half-open unit box ({name} = {coord} "
                f"not in [-1/2, 1/2))"
            )
    raise DomainError(f"{z} is outside the half-open unit box")


def _quotient(z: ExactComplexRational) -> tuple[int, int, int, int]:
    """z as a/b with Gaussian integers a and b: (a.re, a.im, b.re, b.im)."""
    q, s = z.re.denominator, z.im.denominator
    den = q // math.gcd(q, s) * s
    return z.re.numerator * (den // q), z.im.numerator * (den // s), den, 0


def _from_quotient(ar: int, ai: int, br: int, bi: int) -> ExactComplexRational:
    """The Gaussian rational a/b = a conj(b) / |b|^2."""
    n = br * br + bi * bi
    return ExactComplexRational(Fraction(ar * br + ai * bi, n), Fraction(ai * br - ar * bi, n))


def _euclid_step(ar: int, ai: int, br: int, bi: int) -> tuple[int, int, int, int]:
    """One step of the map on z = a/b with a != 0: returns (d.re, d.im, c.re, c.im).

    1/z = b conj(a) / |a|^2 = (u + iv)/n, and the digit d rounds each
    coordinate by floor(x + 1/2), as ``nearest_round`` does:
    floor(u/n + 1/2) = (2u + n) // (2n).  The next point is
    1/z - d = (b - d a)/a, so the new pair is (c, a) with c = b - d a.
    """
    n = ar * ar + ai * ai
    u = br * ar + bi * ai
    v = bi * ar - br * ai
    dr = (2 * u + n) // (2 * n)
    di = (2 * v + n) // (2 * n)
    return dr, di, br - dr * ar + di * ai, bi - dr * ai - di * ar


def hurwitz_step(z: ExactComplexRational) -> tuple[GaussianInt, ExactComplexRational]:
    """One application of the map: returns (digit, next iterate).

    The digit is the nearest lattice point to 1/z and the next iterate is
    the residual 1/z - digit, which lies in the half-open unit box again.
    """
    if z.is_zero():
        raise DomainError("the map is undefined at 0")
    result = expand(z, max_digits=1)
    return result.digits[0], result.remainder


def expand(z: ExactComplexRational, max_digits: int = DEFAULT_MAX_DIGITS) -> ExpansionResult:
    """Digit string of an exact point of the unit box.

    Gaussian rationals always terminate; ``max_digits`` only guards against
    runaway loops on malformed input.  The map keeps every iterate in the
    box (|1/z| >= sqrt(2) there, so each digit has norm_sq >= 2), so the
    box is checked once, at entry.
    """
    if max_digits < 1:
        raise DomainError("max_digits must be positive")
    _require_in_box(z)
    ar, ai, br, bi = _quotient(z)
    digits: list[GaussianInt] = []
    while (ar or ai) and len(digits) < max_digits:
        dr, di, cr, ci = _euclid_step(ar, ai, br, bi)
        digits.append(GaussianInt(dr, di))
        ar, ai, br, bi = cr, ci, ar, ai
    return ExpansionResult(
        digits=DigitWord(tuple(digits)),
        terminated=not (ar or ai),
        remainder=_from_quotient(ar, ai, br, bi),
    )


def evaluate(word: DigitWord | Sequence[GaussianInt]) -> ExactComplexRational:
    """Exact value of the finite continued fraction 1/(c1 + 1/(c2 + ...)).

    The continuant recurrence runs right to left on the second column
    (b, d) of the product of the matrices [[0,1],[1,c]]: each digit sends
    (b, d) to (d, b + c d), starting from (0, 1), and the value is b/d.
    Raises ZeroDivisionError when an intermediate tail equals the negative
    of the next digit (d = 0).
    """
    br = bi = 0
    dr, di = 1, 0
    for c in reversed(tuple(word)):
        br, bi, dr, di = dr, di, br + c.re * dr - c.im * di, bi + c.re * di + c.im * dr
        if not (dr or di):
            raise ZeroDivisionError(f"continued fraction pole: tail cancels digit {c}")
    return _from_quotient(br, bi, dr, di)


def classify_digit(d: GaussianInt) -> str:
    """Classify a lattice point as digit alphabet member.

    ``invalid``  : norm_sq < 2, never emitted by the map.
    ``exceptional``: 2 <= norm_sq < 8, legal digit whose cylinder pokes out
                     of the unit box (these break the Markov property).
    ``regular``  : norm_sq >= 8.
    """
    n = d.norm_sq()
    if n < MIN_DIGIT_NORM_SQ:
        return "invalid"
    if n < REGULAR_NORM_SQ:
        return "exceptional"
    return "regular"


def exceptional_digits() -> list[GaussianInt]:
    """The sixteen digits with 2 <= norm_sq < 8, lexicographically sorted."""
    out = points_by_norm(MIN_DIGIT_NORM_SQ, REGULAR_NORM_SQ - 1)
    return sorted(out, key=GaussianInt.lex_key)


def cylinder_check(word: DigitWord | Sequence[GaussianInt], z: ExactComplexRational) -> bool:
    """True iff the expansion of z starts with the given all-regular word."""
    digits = tuple(word)
    for d in digits:
        if classify_digit(d) != "regular":
            raise DomainError(f"digit {d} is not regular (norm_sq >= 8 required)")
    return expand(z, max(len(digits), 1)).digits.digits[: len(digits)] == digits


@dataclass(frozen=True)
class GuardedExpansion:
    """Expansion of an inexact input with a tracked error radius."""

    digits: DigitWord
    status: str  # "ok", "precision_exhausted", or "max_digits"


# bits of the radius kept below its leading bit at entry
_GUARD_BITS = 212


def _exact(value: float | str, name: str) -> Fraction:
    """A float read exactly, a string read as the exact decimal it spells."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"{name} must be a finite number, got {value!r}") from None


def expand_guarded(
    re: float | str,
    im: float | str,
    error_radius: float | str,
    max_digits: int = 64,
) -> GuardedExpansion:
    """Expand an inexact point, emitting digits only while they are certain.

    The input is a point of the unit box known to accuracy ``error_radius``.
    Its exact rational value z (a float read exactly, a string as an exact
    decimal) is iterated with the integer Euclid step, so the centre carries
    no rounding error; only the radius r is tracked.  If every true point z*
    has |z* - z| <= r < |z|, then

        |1/z* - 1/z| = |z - z*| / (|z| |z*|) <= r / (|z| (|z| - r)),

    which bounds the next radius.  It is kept as an integer R at scale 2^-P,
    with P at least 212 bits below the leading bit of the entry radius,
    and rounded up at every step, with a floor lower bound on |z| in the
    denominator.  A digit is accepted only when the distance of 1/z from
    each rounding line, 1/2 - |Re (1/z - d)| and 1/2 - |Im (1/z - d)|,
    exceeds the new radius, so the whole disc rounds to d and no true point
    within the stated radius gets a wrong digit.  Status ``ok``: |z| <= r,
    so the point cannot be told from 0; ``precision_exhausted``: a margin
    or the lower bound on |z| does not exceed the radius; ``max_digits``:
    ``max_digits`` digits were accepted.
    """
    if max_digits < 1:
        raise DomainError("max_digits must be positive")
    r = _exact(error_radius, "error_radius")
    if r <= 0:
        raise DomainError("error_radius must be positive")
    z = ExactComplexRational(_exact(re, "re"), _exact(im, "im"))
    _require_in_box(z)
    prec = max(_GUARD_BITS + 1 + r.denominator.bit_length() - r.numerator.bit_length(), 0)
    rad = -((-r.numerator << prec) // r.denominator)  # r <= rad 2^-prec
    ar, ai, br, bi = _quotient(z)
    digits: list[GaussianInt] = []
    status = "max_digits"
    for _ in range(max_digits):
        na, nb = ar * ar + ai * ai, br * br + bi * bi
        if na << 2 * prec <= rad * rad * nb:  # |z| <= r: zero is not excluded
            status = "ok"
            break
        low = math.isqrt((na << 2 * prec) // nb)  # floor(|z| 2^prec)
        if low <= rad:
            status = "precision_exhausted"
            break
        rad = -((-rad << 2 * prec) // (low * (low - rad)))
        dr, di, cr, ci = _euclid_step(ar, ai, br, bi)
        # 1/z - d = c/a = c conj(a) / na; each margin is 1/2 - |coordinate|
        x, y = cr * ar + ci * ai, ci * ar - cr * ai
        if (na - 2 * max(abs(x), abs(y))) << prec <= 2 * na * rad:
            status = "precision_exhausted"
            break
        digits.append(GaussianInt(dr, di))
        ar, ai, br, bi = cr, ci, ar, ai
    return GuardedExpansion(DigitWord(tuple(digits)), status)
