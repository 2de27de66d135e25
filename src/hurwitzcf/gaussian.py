"""Exact Gaussian-integer and Gaussian-rational arithmetic.

Everything here is exact: integers are arbitrary precision, rational
coordinates are ``fractions.Fraction`` (always in reduced canonical form
with positive denominator).  Floating point never enters a comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class GaussianInt:
    """Element of the Gaussian-integer lattice."""

    re: int = 0
    im: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.re, int) or not isinstance(self.im, int):
            raise TypeError("GaussianInt coordinates must be ints")

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def lex_key(self) -> tuple[int, int]:
        return (self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = f"{abs(self.im)}i" if abs(self.im) != 1 else "i"
        sign = "-" if self.im < 0 else ("+" if self.re != 0 else "")
        if self.re == 0:
            return f"{sign}{imag}"
        return f"{self.re}{sign if sign else '+'}{imag}"

    def to_pair(self) -> list[int]:
        return [self.re, self.im]

    @classmethod
    def from_pair(cls, pair: Sequence[int]) -> "GaussianInt":
        """Parse [re, im]; both must be ints (bools and floats are rejected)."""
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise DomainError(f"expected [re, im] with integer re and im, got {pair!r}")
        return cls(pair[0], pair[1])

    @classmethod
    def from_pairs(cls, data: object) -> tuple["GaussianInt", ...]:
        """Parse decoded JSON that must be a list of [re, im] pairs."""
        if not isinstance(data, list):
            raise DomainError(f"expected a list of [re, im] pairs, got {data!r}")
        return tuple(cls.from_pair(p) for p in data)


@dataclass(frozen=True)
class ExactComplexRational:
    """Element of the Gaussian field with exact rational coordinates."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # normalise ints to Fractions so equality and hashing are canonical
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @classmethod
    def from_gaussian(cls, g: GaussianInt) -> "ExactComplexRational":
        return cls(Fraction(g.re), Fraction(g.im))

    # -- field operations --------------------------------------------------
    def __add__(self, other: "ExactComplexRational") -> "ExactComplexRational":
        return ExactComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplexRational") -> "ExactComplexRational":
        return ExactComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplexRational":
        return ExactComplexRational(-self.re, -self.im)

    def __mul__(self, other: "ExactComplexRational") -> "ExactComplexRational":
        return ExactComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def reciprocal(self) -> "ExactComplexRational":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return ExactComplexRational(self.re / n, -self.im / n)

    def __truediv__(self, other: "ExactComplexRational") -> "ExactComplexRational":
        return self * other.reciprocal()

    def conj(self) -> "ExactComplexRational":
        return ExactComplexRational(self.re, -self.im)

    def sub_gaussian(self, g: GaussianInt) -> "ExactComplexRational":
        return ExactComplexRational(self.re - g.re, self.im - g.im)

    def add_gaussian(self, g: GaussianInt) -> "ExactComplexRational":
        return ExactComplexRational(self.re + g.re, self.im + g.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def in_unit_box(self) -> bool:
        """Half-open fundamental box: -1/2 <= re < 1/2 and likewise for im."""
        h = Fraction(1, 2)
        return -h <= self.re < h and -h <= self.im < h

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def nearest_round(z: ExactComplexRational) -> GaussianInt:
    """Nearest lattice point, via floor(coordinate + 1/2) on each axis.

    Half-integer coordinates round up, which keeps the residual inside the
    half-open fundamental box.
    """
    h = Fraction(1, 2)
    return GaussianInt(_floor_frac(z.re + h), _floor_frac(z.im + h))


_SHELL_BAND = 1 << 18  # norm_sq values counted per pass of norm_sq_shells


def _quadrant(above: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(re, im), int64, of the points with re > 0, im >= 0 and norm_sq in
    (above, limit] in (re, im) order; every nonzero point is i^k times one.
    Each row's im form one range, found in the table of squares."""
    if limit <= max(above, 0):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    sq = np.arange(math.isqrt(limit) + 1, dtype=np.int64) ** 2
    re_sq = sq[1:]
    first = np.searchsorted(sq, above - re_sq, side="right")  # least im past above
    lengths = np.searchsorted(sq, limit - re_sq, side="right") - first
    starts = np.cumsum(lengths) - lengths  # where each row's run begins in the flat arrays
    re = np.repeat(np.arange(1, len(sq), dtype=np.int64), lengths)
    return re, np.arange(len(re)) + np.repeat(first - starts, lengths)  # im: first, first + 1, ...


def norm_sq_shells(limit_norm_sq: int, above_norm_sq: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lattice shells in a norm-squared band.

    Returns (values, counts): the distinct nonzero norm-squared values in
    (above_norm_sq, limit_norm_sq] in increasing order and the number of
    lattice points on each shell, four times that of ``_quadrant``.  The
    band is counted in slices of _SHELL_BAND values.
    """
    lo = max(above_norm_sq, 0)
    if limit_norm_sq <= lo:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    values, counts = [], []
    for band_lo in range(lo, limit_norm_sq, _SHELL_BAND):  # the slice (band_lo, band_hi]
        band_hi = min(band_lo + _SHELL_BAND, limit_norm_sq)
        re, im = _quadrant(band_lo, band_hi)
        slice_counts = np.bincount(re * re + im * im - (band_lo + 1), minlength=band_hi - band_lo)
        nonzero = np.flatnonzero(slice_counts)
        values.append(nonzero + (band_lo + 1))
        counts.append(4 * slice_counts[nonzero])
    return np.concatenate(values), np.concatenate(counts)


def lattice_points(lo: int, hi: int) -> np.ndarray:
    """(re, im) rows, int64, of the lattice points with lo <= norm_sq <= hi,
    ordered by norm, ties (re, im): the ``_quadrant`` points times 1, i, -1
    and -i, and 0 when lo <= 0 <= hi."""
    a, b = _quadrant(max(lo, 1) - 1, hi)
    re, im = np.concatenate((a, -b, -a, b)), np.concatenate((b, a, -b, -a))
    if lo <= 0 <= hi:
        re, im = np.r_[re, 0], np.r_[im, 0]
    order = np.lexsort((im, re, re * re + im * im))
    return np.stack((re[order], im[order]), axis=1)


def points_by_norm(lo: int, hi: int) -> list[GaussianInt]:
    """The ``lattice_points`` rows as Gaussian integers."""
    return [GaussianInt(x, y) for x, y in lattice_points(lo, hi).tolist()]


def first_on_shell(norm_sq: int) -> GaussianInt:
    """The least lattice point of norm_sq in (re, im) order: (a, -b) for the
    least a >= -isqrt(norm_sq) with norm_sq - a^2 = b^2 a square."""
    w = math.isqrt(norm_sq)
    for a in range(-w, w + 1):
        rem = norm_sq - a * a
        b = math.isqrt(rem)
        if b * b == rem:
            return GaussianInt(a, -b)
    raise DomainError(f"no lattice point has norm_sq {norm_sq}")


def parse_exact_complex(text: str) -> ExactComplexRational:
    """Parse strings like ``2/5+0/1 i``, ``-3/10+17/10i`` or ``1/2-1/3 i``.

    Plain integers are accepted for either coordinate; a missing imaginary
    part means zero.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise DomainError("empty complex literal")

    def parse_frac(tok: str) -> Fraction:
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad rational {tok!r} in {text!r}") from exc

    if not s.endswith("i"):
        return ExactComplexRational(parse_frac(s), Fraction(0))
    body = s[:-1]
    # the imaginary part starts at the last sign that follows a digit
    split = -1
    for idx in range(1, len(body)):
        if body[idx] in "+-" and body[idx - 1].isdigit():
            split = idx
    if split < 0:
        re_tok, im_tok = "0", body
    else:
        re_tok, im_tok = body[:split], body[split:]
    if im_tok in ("", "+", "-"):
        im_tok += "1"
    return ExactComplexRational(parse_frac(re_tok), parse_frac(im_tok))
