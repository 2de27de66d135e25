"""The Hurwitz map, digit extraction and continued fraction evaluation.

The map sends z in the half-open unit box U to 1/z - round(1/z), where
round is nearest-lattice rounding.  Iterating it extracts the digit string
of z; a finite word is evaluated back with integer continuant matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

from .errors import DomainError
from .gaussian import ExactComplexRational, GaussianInt, nearest_round, points_by_norm

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

    def to_json(self) -> str:
        return json.dumps([d.to_pair() for d in self.digits])

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


def hurwitz_step(z: ExactComplexRational) -> tuple[GaussianInt, ExactComplexRational]:
    """One application of the map: returns (digit, next iterate).

    The digit is the nearest lattice point to 1/z and the next iterate is
    the residual 1/z - digit, which lies in the half-open unit box again.
    """
    _require_in_box(z)
    if z.is_zero():
        raise DomainError("the map is undefined at 0")
    w = z.reciprocal()
    digit = nearest_round(w)
    nxt = w.sub_gaussian(digit)
    # |1/z| >= sqrt(2) on the box, so the digit always has norm_sq >= 2
    assert digit.norm_sq() >= MIN_DIGIT_NORM_SQ
    return digit, nxt


def expand(z: ExactComplexRational, max_digits: int = DEFAULT_MAX_DIGITS) -> ExpansionResult:
    """Digit string of an exact point of the unit box.

    Gaussian rationals always terminate; ``max_digits`` only guards against
    runaway loops on malformed input.
    """
    if max_digits < 1:
        raise DomainError("max_digits must be positive")
    _require_in_box(z)
    digits: list[GaussianInt] = []
    current = z
    while not current.is_zero() and len(digits) < max_digits:
        digit, current = hurwitz_step(current)
        digits.append(digit)
    return ExpansionResult(
        digits=DigitWord(tuple(digits)),
        terminated=current.is_zero(),
        remainder=current,
    )


def _continuant_matrices(word: Iterable[GaussianInt]):
    """Right-to-left suffix continuant matrices, oldest suffix last.

    Each digit contributes [[0,1],[1,c]]; the product over the word applied
    to 0 is the value of the finite continued fraction.
    """
    a, b = GaussianInt(1), GaussianInt(0)
    c, d = GaussianInt(0), GaussianInt(1)
    digits = list(word)
    for cj in reversed(digits):
        # left-multiply by [[0,1],[1,cj]]
        a, b, c, d = c, d, a + cj * c, b + cj * d
        if not d:
            raise ZeroDivisionError(
                f"continued fraction pole: tail cancels digit {cj}"
            )
        yield a, b, c, d


def evaluate(word: DigitWord | Sequence[GaussianInt]) -> ExactComplexRational:
    """Exact value of the finite continued fraction 1/(c1 + 1/(c2 + ...)).

    Computed through continuant matrices; raises ZeroDivisionError when an
    intermediate tail equals the negative of the next digit.
    """
    digits = tuple(word)
    if not digits:
        return ExactComplexRational()
    a = b = c = d = None
    for a, b, c, d in _continuant_matrices(digits):
        pass
    num = ExactComplexRational.from_gaussian(b)
    den = ExactComplexRational.from_gaussian(d)
    return num / den


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
    _require_in_box(z)
    current = z
    for d in digits:
        if current.is_zero():
            return False
        digit, current = hurwitz_step(current)
        if digit != d:
            return False
    return True


@dataclass(frozen=True)
class GuardedExpansion:
    """Expansion of an inexact input with a tracked error radius."""

    digits: DigitWord
    status: str  # "ok", "precision_exhausted", or "max_digits"
    steps: int


def expand_guarded(
    re: float | str,
    im: float | str,
    error_radius: float,
    max_digits: int = 64,
) -> GuardedExpansion:
    """Expand an inexact point, emitting digits only while they are certain.

    The input is a point known to accuracy ``error_radius``.  At each step
    the rounding decision is accepted only if the whole uncertainty disc
    rounds to the same lattice point; otherwise expansion stops with status
    ``precision_exhausted``.  This never emits a wrong digit for any true
    point within the stated radius.
    """
    if error_radius <= 0:
        raise DomainError("error_radius must be positive")
    precision_bits = 212
    with mpmath.workprec(precision_bits):
        z = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
        rad = mpmath.mpf(error_radius)
        eps = mpmath.mpf(2) ** (8 - precision_bits)
        digits: list[GaussianInt] = []
        for _ in range(max_digits):
            az = abs(z)
            if az <= rad:  # zero not distinguishable from the point
                return GuardedExpansion(DigitWord(tuple(digits)), "ok", len(digits))
            w = 1 / z
            # error of 1/z: |1/z - 1/z*| <= rad / (|z| (|z| - rad)), plus rounding slack
            wrad = rad / (az * (az - rad)) + eps * abs(w)
            kr = mpmath.floor(w.real + mpmath.mpf(1) / 2)
            ki = mpmath.floor(w.imag + mpmath.mpf(1) / 2)
            # distance of each coordinate from the nearest rounding boundary
            margin_r = min(w.real + 0.5 - kr, kr + 0.5 - w.real)
            margin_i = min(w.imag + 0.5 - ki, ki + 0.5 - w.imag)
            if min(margin_r, margin_i) <= wrad:
                return GuardedExpansion(
                    DigitWord(tuple(digits)), "precision_exhausted", len(digits)
                )
            digit = GaussianInt(int(kr), int(ki))
            digits.append(digit)
            z = w - mpmath.mpc(digit.re, digit.im)
            rad = wrad
        return GuardedExpansion(DigitWord(tuple(digits)), "max_digits", len(digits))
