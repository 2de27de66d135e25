"""Partition functions, pressure brackets, Bowen dimensions,
convergence exponents, covering thresholds and non-autonomous block
schedules for restricted digit sets.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import math
import string
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, DomainError
from .expansion import REGULAR_NORM_SQ
from .gaussian import GaussianInt, first_on_shell, lattice_points, norm_sq_shells
from .ifs import (COMPOSITION_DISTORTION_BOUND, DECAY_C1, DECAY_C2, DIAMETER_K1, DIAMETER_K2,
                  _as_digit, box_distortion_terms)

SQRT2 = math.sqrt(2.0)

_LOG_K0 = math.log(COMPOSITION_DISTORTION_BOUND)  # widens a sum into a bracket on the pressure
_GROWTH_BLOCK = 1 << 14  # most steps of a growth bound evaluated at once (128 KiB of values)
_MAX_BISECTIONS = 64  # caps each root search of bowen_dimension when tol is below the float spacing
_MAX_HORIZON = 10**7  # largest tau or schedule horizon
_MAX_SHELL_NORM_SQ = 1 << 24  # shell tables end here, at 5.3e7 lattice points
_WEIGHT_WINDOW = 1 << 14  # shells of one window of shell-sum terms (128 KiB)


# ---------------------------------------------------------------------------
# digit sets


@dataclass(frozen=True)
class DigitSet:
    """Subset of the lattice digit alphabet.

    Radial sets (membership decided by norm_sq alone) are described by a
    half-open norm_sq window [norm_sq_lo, norm_sq_hi); explicit finite sets
    carry their members.  Iteration is norm-ordered with (re, im) ties.
    """

    name: str
    norm_sq_lo: int = 1
    norm_sq_hi: int | None = None  # exclusive; None = unbounded
    explicit: tuple[GaussianInt, ...] | None = None

    @classmethod
    def lattice(cls) -> "DigitSet":
        """All nonzero lattice points."""
        return cls("lattice", 1, None)

    @classmethod
    def lattice_with_zero(cls) -> "DigitSet":
        return cls("lattice0", 0, None)

    @classmethod
    def d2(cls) -> "DigitSet":
        """The branch alphabet: norm_sq >= 8."""
        return cls("d2", REGULAR_NORM_SQ, None)

    @classmethod
    def annulus(cls, norm_sq_lo: int, norm_sq_hi: int | None) -> "DigitSet":
        hi = "inf" if norm_sq_hi is None else norm_sq_hi
        return cls(f"annulus[{norm_sq_lo},{hi})", norm_sq_lo, norm_sq_hi)

    @classmethod
    def with_min_norm_sq(cls, norm_sq_lo: int) -> "DigitSet":
        return cls(f"min_norm_sq={norm_sq_lo}", norm_sq_lo, None)

    @classmethod
    def from_branches(cls, branches: Iterable) -> "DigitSet":
        members = tuple(
            sorted({_as_digit(b) for b in branches}, key=lambda g: (g.norm_sq(), g.re, g.im))
        )
        if not members:
            raise DomainError("empty digit set")
        return cls("explicit", members[0].norm_sq(), members[-1].norm_sq() + 1, members)

    @property
    def is_finite(self) -> bool:
        return self.explicit is not None or self.norm_sq_hi is not None

    @property
    def tau(self) -> float:
        """Convergence exponent: the infimum of t with sum |b|^-t finite.

        A finite set's sum converges for every t >= 0, so tau is 0.  An
        infinite set holds every lattice point beyond its least norm, and
        #{b in B : |b| <= r} = pi r^2 + O(r) (Gauss circle count), so
        sum |b|^-t converges exactly when t > 2, and tau is 2.
        """
        return 0.0 if self.is_finite else 2.0

    def contains(self, g: GaussianInt) -> bool:
        if self.explicit is not None:
            return g in self.explicit
        ns = g.norm_sq()
        if ns < self.norm_sq_lo:
            return False
        return self.norm_sq_hi is None or ns < self.norm_sq_hi

    @functools.cached_property
    def _shells(self) -> "_ShellTable":
        return _ShellTable(self)

    def members(self) -> tuple[GaussianInt, ...]:
        if self.explicit is not None:
            return self.explicit
        return tuple(GaussianInt(x, y) for x, y in self._member_coords().tolist())

    def _member_coords(self) -> np.ndarray:
        """(re, im) rows of the members in enumeration order: int64 for a
        radial set, whose norm_sq the shell cap keeps below 2^24, and Python
        ints (an object array) for explicit members, which may pass int64."""
        if self.explicit is not None:
            return np.array([(g.re, g.im) for g in self.explicit], dtype=object).reshape(-1, 2)
        if self.norm_sq_hi is None:
            raise DomainError(f"{self.name} is infinite")
        self._shells.ensure(self.norm_sq_hi - 1)  # the shell table's budget bounds the members
        return lattice_points(self.norm_sq_lo, self.norm_sq_hi - 1)

    def min_norm_sq(self) -> int:
        self._shells.cover(1)
        return int(self._shells.values[0])

    def norm_sq_array(self, count: int) -> np.ndarray:
        """Norm_sq of the first ``count`` members in enumeration order.

        Zero (when included) occupies the first slot.
        """
        shells = self._shells
        shells.cover(count)
        # repeat only the shells up to the one holding index count - 1, that
        # one cut short, so no larger array stays alive behind the result
        last = int(np.searchsorted(shells.ends, count))
        counts = np.diff(np.minimum(shells.ends[:last + 1], count))
        return np.repeat(shells.values[:last].astype(np.float64), counts)


class _ShellTable:
    """Norm_sq shells of a digit set's members, grown on demand.

    ``values`` holds the distinct member norm_sq values in increasing order
    and ``ends`` the cumulative member counts, int64, with a leading 0:
    shell j holds the members ends[j] <= i < ends[j + 1] of the enumeration,
    so a count over shells i..j-1 is the exact ends[j] - ends[i].  Both are
    complete up to ``limit``.  Radial sets grow by doubling ``limit`` and
    counting only the new band of shells; no member lies beyond ``cap``.

    A shell sum of |b|^-exponent is the numpy ``sum`` of a contiguous slice
    of one term array, count times norm_sq^(-exponent/2) per shell.  Each
    term is computed elementwise, and ``sum`` runs its pairwise summation
    on a contiguous slice of length L exactly as on a fresh array of length
    L, so a slice of a longer window gives the bits of the band's own sum.
    """

    def __init__(self, s: DigitSet):
        self.set = s
        self.values, self.ends = np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        if s.explicit is not None:
            ns = np.array([g.norm_sq() for g in s.explicit], dtype=np.int64)
            self.values, counts = np.unique(ns, return_counts=True)
            self.ends = np.r_[self.ends, np.cumsum(counts)]
            self.limit = self.cap = int(ns.max(initial=0))
        else:
            self.limit = -1
            self.cap = math.inf if s.norm_sq_hi is None else s.norm_sq_hi - 1
            self.ensure(64)

    def ensure(self, norm_sq: int) -> None:
        """Make the table complete up to norm_sq."""
        if norm_sq <= self.limit or self.limit >= self.cap:
            return
        if min(norm_sq, self.cap) > _MAX_SHELL_NORM_SQ:
            raise BudgetExceededError(f"{self.set.name} needs shells past norm_sq {_MAX_SHELL_NORM_SQ}")
        old = self.limit
        self.limit = min(max(norm_sq, 2 * old), self.cap, _MAX_SHELL_NORM_SQ)
        values, counts = norm_sq_shells(self.limit, old)  # only the shells past the old limit
        if old < 0 and self.set.norm_sq_lo <= 0:
            values, counts = np.r_[0, values], np.r_[1, counts]
        keep = values >= self.set.norm_sq_lo
        ends = np.cumsum(counts[keep])
        ends += self.ends[-1]
        self.values = np.concatenate((self.values, values[keep]))
        self.ends = np.concatenate((self.ends, ends))

    def _grow(self, shortfall: str) -> None:
        if self.limit >= self.cap:
            raise DomainError(f"{self.set.name} {shortfall}")
        self.ensure(2 * self.limit)

    def cover(self, count: int) -> None:
        """Grow until the table holds at least ``count`` members."""
        while int(self.ends[-1]) < count:
            self._grow(f"has fewer than {count} members")

    def next_shell_after(self, norm_sq: int) -> int:
        while len(self.values) == 0 or self.values[-1] <= norm_sq:
            self._grow(f"has no member beyond norm_sq {norm_sq}")
        return int(self.values[np.searchsorted(self.values, norm_sq, side="right")])

    def band(self, norm_sq_lo: int, norm_sq_hi: int) -> tuple[int, int]:
        """Shell indices i <= j, shells i..j-1 being those in [lo, hi)."""
        self.ensure(norm_sq_hi - 1)
        i, j = self.values.searchsorted((norm_sq_lo, norm_sq_hi)).tolist()
        return i, max(i, j)

    def count(self, norm_sq_lo: int, norm_sq_hi: int) -> int:
        i, j = self.band(norm_sq_lo, norm_sq_hi)
        return int(self.ends[j] - self.ends[i])

    def terms(self, i: int, j: int, exponent: float) -> np.ndarray:
        """count |b|^-exponent of shells i..j-1 (those the table holds)."""
        j = min(j, len(self.values))
        powers = np.power(self.values[i:j].astype(np.float64), -exponent / 2.0)
        return (self.ends[i + 1 : j + 1] - self.ends[i:j]) * powers

    def weights(self, bands: Sequence[tuple[int, int]], exponent: float) -> list[float]:
        """Sum of |b|^-exponent over the members with norm_sq in each band [lo, hi).

        Each sum is a slice of a window of terms, which gives the bits of
        the band's own sum (see the class docstring).  A window starts at a
        band it must hold and spans ``_WEIGHT_WINDOW`` shells, or that band,
        up to the last shell any band holds: no temporary grows with the bands.
        """
        if not bands:
            return []
        self.ensure(max(hi for _, hi in bands) - 1)
        spans = self.values.searchsorted(bands).tolist()
        reach = max(map(max, spans))
        start, window, out = 0, np.zeros(0), []
        for i, j in spans:
            j = max(i, j)
            if i < start or j > start + len(window):
                start = i
                window = self.terms(i, max(j, min(i + _WEIGHT_WINDOW, reach)), exponent)
            out.append(float(window[i - start : j - start].sum()))
        return out

    def anchor_after(self, norm_sq_lo: int, exponent: float) -> int:
        """Least shell value hi > lo with weights([(lo, hi)], exponent)[0] >= 1.

        One cumulative sum over a window of terms from lo, doubled until it
        reaches 1 and the prefix sums settling its last ulp fit, places the
        crossing.  A prefix of the window sums to ``weights``' bits, so the
        answer is the one a shell-by-shell scan with ``weights`` finds.
        """
        i = int(np.searchsorted(self.values, norm_sq_lo))
        width = 64
        while True:
            self.shell(i + width)  # the window's shells and one past it
            window = self.terms(i, i + width, exponent)
            k = int(np.searchsorted(np.cumsum(window), 1.0)) + 1  # the cumsum over k shells is >= 1
            while k <= width and window[:k].sum() < 1.0:
                k += 1
            if k <= width:
                break
            width *= 2
        while k > 1 and window[: k - 1].sum() >= 1.0:
            k -= 1
        return self.shell(i + k)

    def shell(self, j: int) -> int:
        """The j-th shell value, growing the table to reach it."""
        while len(self.values) <= j:
            self._grow(f"has fewer than {j + 1} shells")
        return int(self.values[j])


# ---------------------------------------------------------------------------
# growth functions (Python's expression parser behind a node whitelist)

# ASCII letters, digits, "_.+-*/^()," space and tab: no comment, backslash or Unicode name
_GROWTH_CHARS = frozenset(string.ascii_letters + string.digits + "_.+-*/^(), \t")
_GROWTH_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_GROWTH_CALLS = {("max", 2), ("log", 1), ("sqrt", 1)}
# the only names a compiled growth bound can reach
_GROWTH_NAMESPACE = {"__builtins__": {}, "max": max, "log": math.log, "sqrt": math.sqrt}


class GrowthFunction:
    """Growth bound f(n) read from an arithmetic expression over n.

    Supported syntax: numbers, the variable n, parentheses, + - * /, ^ for
    powers (right-associative, binding tighter than unary minus: -n^2 is
    -(n^2)), max(a,b), log(a) and sqrt(a).  Python's parser reads the text;
    a walk over the tree rejects every node outside this grammar and turns
    each numeric literal into the float of its source text.  The accepted
    tree is compiled once into ``lambda n: <expr>``, run with n as a float in
    a namespace holding only max, log and sqrt.  Evaluation is plain float
    arithmetic, so configurations stay reproducible text.
    """

    def __init__(self, source: str):
        self.source = source.strip()
        text = self.source.replace("^", "**")
        try:
            if "**" in self.source or not set(self.source) <= _GROWTH_CHARS:
                raise ValueError("'**' or a character outside the grammar")
            with warnings.catch_warnings():
                warnings.simplefilter("error", SyntaxWarning)  # "1if": no stderr line
                body = ast.parse(text, mode="eval").body
                _check_growth(body, text)
                arg = ast.copy_location(ast.arg("n"), body)
                args = ast.arguments(posonlyargs=[], args=[arg], kwonlyargs=[], kw_defaults=[],
                                     defaults=[])
                fn = ast.copy_location(ast.Lambda(args, body), body)
                code = compile(ast.Expression(fn), "<growth>", "eval")
            self._fn = eval(code, dict(_GROWTH_NAMESPACE))
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            deep = isinstance(exc, (RecursionError, MemoryError))  # a stack overflow
            reason = "nested too deeply" if deep else getattr(exc, "msg", exc)
            raise DomainError(f"bad growth bound {self.source!r} ({reason}); use numbers, n, "
                              "+ - * / ^, max(a, b), log(a) and sqrt(a)") from None

    def __call__(self, n: int) -> float:
        try:
            return float(self._fn(float(n)))
        except (ArithmeticError, ValueError, TypeError, RecursionError) as exc:
            raise DomainError(f"growth bound {self.source!r} is undefined at n = {n}: {exc}") from exc

    def __repr__(self) -> str:
        return f"GrowthFunction({self.source!r})"


def _growth_values(f: GrowthFunction | Callable[[int], float], steps: range) -> np.ndarray:
    """f at a range of steps as float64, each step evaluated once into np.fromiter.
    A GrowthFunction's compiled lambda runs over one float64 range of the steps,
    at most _GROWTH_BLOCK of them, whose floats are float(n) as the steps lie
    below 2^53; any other f gets the int steps.  If a step raises or returns no
    real number, f redoes the steps one at a time: the first raises as f does,
    or the values before the one that raises return."""
    fn, args = f, steps
    if isinstance(f, GrowthFunction):
        fn, args = f._fn, np.arange(steps.start, steps.stop, steps.step, dtype=np.float64).tolist()
    try:
        return np.fromiter(map(fn, args), dtype=np.float64, count=len(steps))
    except Exception:
        values = [f(steps[0])]
        with contextlib.suppress(Exception):
            values.extend(map(f, steps[1:]))
        return np.array(values, dtype=np.float64)


def _check_growth(node: ast.AST, text: str) -> None:
    """Check one node of the parsed text and its subtree against the grammar,
    making each numeric literal the float of its source; ValueError outside it."""
    if isinstance(node, ast.Name) and node.id == "n":
        return
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        node.value = float(ast.get_source_segment(text, node))  # ValueError for 0x10, 0o7, 0b1
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _check_growth(node.operand, text)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _GROWTH_BINARY):
        _check_growth(node.left, text)
        return _check_growth(node.right, text)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
            and (node.func.id, len(node.args)) in _GROWTH_CALLS):
        for arg in node.args:
            _check_growth(arg, text)
        return
    segment = ast.get_source_segment(text, node).replace("**", "^")
    raise ValueError(f"{segment!r} is outside the grammar")


# ---------------------------------------------------------------------------
# partition function and pressure brackets


@dataclass(frozen=True)
class PressureEstimate:
    """n-normalised log partition sum with outward brackets.

    With Z(n) the exact sum over the mode's values and P(s) the pressure:

    - lo <= (log Z(n) - s log K0)/n <= log Z_inf(n)/n <= P(s), in either
      mode.  K0 = ``COMPOSITION_DISTORTION_BOUND`` bounds every word's
      sup/inf ratio over the box, so no sup or base-point value exceeds K0
      times the word's inf, and Z_inf is supermultiplicative because every
      branch maps the box into itself.
    - P(s) <= log Z_sup(n)/n <= hi, as Z_sup is submultiplicative; in
      base_point mode hi >= (log Z(n) + s log K0)/n >= log Z_sup(n)/n.
    """

    s: float
    n: int
    log_zn_over_n: float
    lower_bracket: float
    upper_bracket: float
    word_count: int

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "n": self.n,
            "logZ_over_n": self.log_zn_over_n,
            "lo": self.lower_bracket,
            "hi": self.upper_bracket,
        }


_IDENTITY_ROW = (0, 0, 1, 0)

_INT64_LIMIT = 1 << 63  # every int64 intermediate stays strictly below this
_EXACT_CHUNK = 8192  # words in one block of a word table build
_U = 2.0**-53  # unit roundoff of float64
_E_ULPS = 8  # the cancellation bound of _table_leaves, E = _E_ULPS u (2S + den)
_ROUND_ULPS = 16  # _table_leaves rounds its values outward by a factor 1 +/- _ROUND_ULPS u
_KAPPA = 106  # every normal table value lies within a factor 1 +/- _KAPPA u of the exact one


def _word_value_table(
    digits: np.ndarray, n: int, bases_only: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-word (sup, base-point) derivative values, enumerated once.

    ``digits`` holds the (re, im) rows of ``DigitSet._member_coords``: int64
    while every norm_sq fits in int64, else Python ints.  Word order is the
    lexicographic order over the digit rows (the last digit varies
    fastest), so word i has the base-k digits of i and sums over the arrays
    are deterministic.  Every sup is at or above the word's exact sup and
    every base-point value at or below 1/|d|^2; for branch digits (norm_sq
    >= 8) each one that is a normal float lies within a factor 1 +/-
    ``_KAPPA`` u of the exact value, u = 2^-53 (``_table_leaves``,
    ``_exact_leaves``).

    With ``bases_only`` no sup is built (None in their place), and an int64
    block takes its base-point values alone (``_base_leaves``), skipping
    the pole and cancellation terms.  For branch digits every value is then
    a full build's: no branch word has a pole, as every branch maps the box
    into itself, so q > 0, and ``_table_leaves``'s tightness bound q_lo >= q
    (1 - 81.6u) > 0 leaves no int64 word to the exact path.  Object rows go
    through ``_exact_leaves`` either way.

    Words are enumerated level by level as arrays of bottom rows, in
    blocks of at most ``_EXACT_CHUNK`` words.  With t the largest length
    up to n with k^t <= ``_EXACT_CHUNK`` and tail = min(t, n - t), the
    first n - tail levels are enumerated once and held together.  Each
    run of ``_EXACT_CHUNK // k^tail`` prefixes then gets its tail levels
    and its leaf values, a contiguous slice of the table since the first
    digit varies slowest; the short tail keeps the small-array levels of a
    block, and their per-call overhead, few.  The k^(n - tail) prefixes
    number k^t <= ``_EXACT_CHUNK`` when n <= 2t, and k^(n - t) < k^(n+1) /
    ``_EXACT_CHUNK`` otherwise.  So for k > ``_EXACT_CHUNK`` (t = 0) every
    word's row is held at once beside the table: four entries a word,
    twice the table, plus the temporaries of the last level.  The digit
    columns are tiled once, as far as the longest level of more than one
    row reaches, and every level reads a prefix of that tile
    (``_extend_levels``); with no such level the columns serve untiled.

    The rows are int64 while a bound proves the entries fit: with M =
    ceil(|x|) for the digit x of largest norm_sq, after j digits |d| <= B_j
    and |c| <= B_(j-1), c being the d of the word one digit shorter, where
    B_-1 = 0, B_0 = 1 and B_(j+1) = M B_j + B_(j-1).  The next level's d is
    c + d x; by Cauchy-Schwarz |dr xr| + |di xi| <= |d| |x|, so every
    product and every partial sum of its three terms, in any order, is at
    most |c| + |d| M <= B_(j+1).  ``_table_leaves`` computes the leaf values
    of such a block; the words it leaves undecided, every possible pole
    among them, go through ``_exact_leaves`` in Python ints while the
    block's rows are at hand.  When B_n leaves int64 the rows are object
    arrays of Python ints, and every word goes through ``_exact_leaves``.
    """
    k = len(digits)
    m = math.isqrt(max(int((digits * digits).sum(axis=1).max()) - 1, 0)) + 1
    levels, b_prev, b = 0, 0, 1
    while levels < n and m * b + b_prev < _INT64_LIMIT:
        levels, b_prev, b = levels + 1, b, m * b + b_prev
    dtype = np.int64 if levels == n else object
    xr, xi = digits.astype(dtype, copy=False).T

    t = 0
    while t < n and k ** (t + 1) <= _EXACT_CHUNK:
        t += 1
    tail = min(t, n - t)
    run, width, count = _EXACT_CHUNK // k**tail, k**tail, k ** (n - tail)
    reach = max(count, min(run, count) * width)  # the longest level: the last prefix or block one
    if reach > k:
        xr, xi = np.tile(xr, reach // k), np.tile(xi, reach // k)
    rows = [np.array([v], dtype=dtype) for v in _IDENTITY_ROW]
    prefixes = _extend_levels(rows, xr, xi, k, n - tail)
    sups, bases = None if bases_only else np.empty(k**n), np.empty(k**n)
    for first in range(0, count, run):
        block = _extend_levels([a[first : first + run] for a in prefixes], xr, xi, k, tail)
        part = slice(first * width, first * width + len(block[0]))
        if dtype is object:
            slow = np.arange(len(block[0]))
        elif bases_only:
            _base_leaves(*(a.astype(np.float64) for a in block[2:]), bases[part])
            continue
        else:
            slow = _table_leaves(block, sups[part], bases[part])
        if slow.size:
            exact_sups, bases[part][slow] = _exact_leaves([a[slow].astype(object) for a in block])
            if not bases_only:
                sups[part][slow] = exact_sups
    return sups, bases


def _exact_leaves(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(sup over box of |Dphi|, |Dphi(0)|) of bottom rows of Python ints, rounded outward.

    The sup is the rational 4 den/near of ``ifs.box_distortion_terms`` and
    |Dphi(0)| = 1/|d|^2.  Python's int / int rounds each correctly, and one
    ``np.nextafter`` step then moves the sup up and the base-point value
    down: sup >= 4 den/near and base <= 1/|d|^2, each within 3u relative
    where it is a normal float.
    """
    cr, ci, dr, di = rows
    _, near, den = box_distortion_terms(cr, ci, dr, di)
    if (near == 0).any():
        raise DomainError("derivative pole inside the box; word is not a branch word")
    sups = np.nextafter((4 * den / near).astype(np.float64), np.inf)
    return sups, np.nextafter((1 / (dr * dr + di * di)).astype(np.float64), 0)


def _extend_levels(
    rows: list[np.ndarray], xr: np.ndarray, xi: np.ndarray, k: int, levels: int
) -> list[np.ndarray]:
    """Bottom rows of every ``levels``-digit extension of each row, in word
    order, in the rows' dtype (int64, or object for Python ints).

    ``xr`` and ``xi`` hold the k digits xr[:k] + i xi[:k] repeated in order
    at least as far as the longest level, so a level of L rows repeats each
    row k times and meets the first L k entries: every operation runs over
    one flat array.  A level of one row adds its c without repeating it.
    """
    for _ in range(levels):
        size = len(rows[0]) * k
        tr, ti = xr[:size], xi[:size]
        cr, ci = rows[:2] if size == k else (np.repeat(a, k) for a in rows[:2])
        dr, di = (np.repeat(a, k) for a in rows[2:])
        re = dr * tr
        re += cr
        re -= di * ti
        im = dr * ti
        im += ci
        im += di * tr
        rows = [dr, di, re, im]
    return rows


def _table_leaves(rows: list[np.ndarray], sups: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Leaf values of int64 bottom rows in float64, rounded outward, written
    into ``sups`` and ``bases``.

    ``_word_value_table`` passes one block, at most ``_EXACT_CHUNK`` rows,
    and its slices of the table.  sup >= 4 den/q and base <= 1/|d|^2, the
    exact values of ``_exact_leaves``.  Returns ``slow``, the indices of the
    words with q_lo = 0, every possible pole among them, whose values are
    not bounds (inf or nan where the word is a pole).

    Soundness, with u = 2^-53 and gamma_k = k u/(1 - k u).  Entries below
    2^63 keep every intermediate finite and each 0 or normal, so every
    operation rounds by a factor 1 + delta, |delta| <= u.  The casts and a
    product put den's terms and a = dr cr, b = di ci within a factor
    1 +- gamma_3, and a sum more gives |den~ - den| <= gamma_4 den and
    |Re~ - Re| <= gamma_4 S for Re = Re(d conj c) = a + b, S = |a| + |b|.
    With X = 2|Re| - den and T = 2S + den >= |X|, nx~ = fl(2|Re~| - den~)
    is within gamma_5 T of X, and E = _E_ULPS u fl(2 fl(|a~| + |b~|) + den~)
    >= 8u (1 - u)^5 T > gamma_6 T.  So fl(nx~ - E), where positive, is at
    most nx~ - E + u nx~ <= X + gamma_6 T - E < X: X_lo = max(fl(nx~ - E), 0)
    <= X+ = max(X, 0), however near 2|Re| comes to den.  Y_lo <= Y+ alike,
    from Im(d conj c) = di cr - dr ci.  So q_lo = fl(X_lo^2 + Y_lo^2) <=
    q (1 + u)^2; where q_lo > 0 there is no pole, and with c' = _ROUND_ULPS

        sup~ = fl(fl(den~ (4 + 4c'u))/q_lo) >= 4 den (1 - u)^6 (1 + c'u)/(q (1 + u)^2) >= 4 den/q.

    As |d|^2~ >= |d|^2 (1 - u)^4, base~ = fl((1 - c'u)/|d|^2~) lies in
    [(1 - 21u)/|d|^2, 1/|d|^2].

    Tightness, for branch digits (|x|^2 >= 8): w = d/c obeys w = x + 1/w'
    with w' of the word one digit shorter, so |w| >= 1 + sqrt2.  S <= |c||d|
    (Cauchy-Schwarz) gives T <= |c|^2 (2|w| + 1) <= (1 + sqrt2) M, with
    M = max(X+, Y+) >= |c|^2 (sqrt2 |w| - 1).  To first order in u,
    X_lo >= X+ - 14u T >= X+ - eps M for eps = 14 (1 + sqrt2) u, and Y_lo
    likewise; with m = min(X+, Y+) and M (M + m) <= (1 + sqrt2) q/2,
    q_lo >= q - 2 eps M (M + m) >= q (1 - 81.6u), so sup~ <= (4 den/q)(1 + 106u).
    """
    cr, ci, dr, di = (a.astype(np.float64) for a in rows)
    den = cr * cr
    den += ci * ci
    # X_lo^2 and Y_lo^2 in place, from the products a, b of ``pole_terms``:
    # x = 2|v| - den - E with E = _E_ULPS u (2 (|a| + |b|) + den), each
    # operation rounded in that order
    re_a, re_b, im_a, im_b = dr * cr, di * ci, di * cr, dr * ci
    squares = []
    for x, a, b in ((re_a + re_b, re_a, re_b), (im_a - im_b, im_a, im_b)):
        np.abs(x, out=x)
        x *= 2
        x -= den
        np.abs(a, out=a)
        a += np.abs(b, out=b)
        a *= 2
        a += den
        a *= _E_ULPS * _U
        x -= a
        np.maximum(x, 0, out=x)
        x *= x
        squares.append(x)
    q = squares[0]
    q += squares[1]
    den *= 4 + 4 * _ROUND_ULPS * _U
    with np.errstate(divide="ignore", invalid="ignore"):  # poles give inf or nan, then go slow
        np.divide(den, q, out=sups)
        _base_leaves(dr, di, bases)
    return np.flatnonzero(q == 0)


def _base_leaves(dr: np.ndarray, di: np.ndarray, bases: np.ndarray) -> None:
    """Base-point values fl((1 - _ROUND_ULPS u)/fl(dr^2 + di^2)) of the
    float64 casts of int64 d entries, written into ``bases``; dr and di are
    overwritten.  ``_table_leaves`` gives the bound."""
    dr *= dr
    dr += np.multiply(di, di, out=di)
    np.divide(1 - _ROUND_ULPS * _U, dr, out=bases)


def _tree_sum(terms: np.ndarray) -> float:
    """Sum of ``terms``, overwritten, as a balanced tree: each term goes
    through at most ceil(log2 len(terms)) roundings."""
    while len(terms) > 1:
        half = (len(terms) + 1) // 2
        terms[: len(terms) - half] += terms[half:]
        terms = terms[:half]
    return float(terms[0])


def _outward_log(z: float, words: int, shift: float, widen: float, n: int, toward: float) -> float:
    """A bound toward ``toward`` (+-inf) on (log Z + shift)/n; -inf where there is none.

    z is the ``_tree_sum`` of the floats t_i = v_i^s of ``words`` values, Z
    a sum of exact powers each within a factor 1 +- widen u of v_i^s, and
    shift is within 10u |shift| of its exact value, as +-s log K0 is.
    numpy's power and math.log are taken to err by at most 4 ulps, so v_i^s
    is within 8u t_i of t_i, or 4 2^-1074 where t_i is subnormal, and the
    tree's depth h = ceil(log2 words) keeps the exact sum of the t_i within
    a factor (1 +- u)^h of z (Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 4.2).  So Z is within a factor 1 +- (h + 9 + widen) u
    of z +- words 2^-1071.  The margin below adds that, and 8u |log z| for
    the log and 10u |shift| for the shift with room for its own roundings;
    every other rounding is stepped outward.
    """
    z = math.nextafter(z + math.copysign(words * 2.0**-1071, toward), toward)
    if z <= 0:
        return -math.inf
    log_z = math.log(z)
    ulps = 16 * (abs(log_z) + abs(shift)) + (words - 1).bit_length() + 10 + widen
    x = math.nextafter(math.nextafter(log_z + shift, toward) + math.copysign(ulps * _U, toward),
                       toward)
    return math.nextafter(x / n, toward)


def _branch_count(alphabet: DigitSet) -> int:
    """Member count of a nonempty finite alphabet of branch digits, read from
    its shell table (or its explicit members) before any digit is built."""
    if not alphabet.is_finite:
        raise DomainError(f"{alphabet.name} is infinite")
    if alphabet.explicit is not None:
        suspects, k = alphabet.explicit, len(alphabet.explicit)
    else:  # the first member has the least norm
        k = alphabet._shells.count(0, alphabet.norm_sq_hi)  # every shell lies below norm_sq_hi
        suspects = [first_on_shell(int(ns)) for ns in alphabet._shells.values[:1]]
    for g in suspects:
        if g.norm_sq() < REGULAR_NORM_SQ:
            raise DomainError(f"alphabet digit {g} is not a branch index")
    if not k:
        raise DomainError("alphabet must be nonempty")
    return k


def _check_budget(k: int, n: int, max_words: int) -> None:
    """Raise ``BudgetExceededError`` when the k^n words, or n itself (the
    budget of a one-digit alphabet), exceed ``max_words``.  For k >= 2, k^n
    exceeds it once n passes its bit length, so k^n is only taken for short n."""
    if n > max_words or (k > 1 and (n > int(max_words).bit_length() or k**n > max_words)):
        raise BudgetExceededError(
            f"word length {n} exceeds budget {max_words}" if n > max_words
            else f"{k}^{n} words exceed budget {max_words}"
        )


def partition_sum(
    alphabet: DigitSet, n: int, s: float, mode: str = "sup_norm", max_words: int = 1 << 18
) -> PressureEstimate:
    """Partition sum over length-n words at inverse-dimension parameter s.

    sup_norm mode bounds each word by its exact supremum derivative over
    the box; base_point mode evaluates the derivative at 0.  Every one of
    the k^n words is enumerated.  When they exceed ``max_words``, or n
    does (the budget of a one-digit alphabet), the call raises
    ``BudgetExceededError``, decided from the count k before any digit is
    built and carrying only its message.  ``_pressure_estimate`` brackets
    the sum.
    """
    if mode not in ("sup_norm", "base_point"):
        raise DomainError(f"unknown mode {mode!r}")
    if n < 1:
        raise DomainError("word length must be positive")
    if not (math.isfinite(s) and s >= 0):
        raise DomainError(f"s must be finite and nonnegative, got {s}")
    k = _branch_count(alphabet)
    _check_budget(k, n, max_words)
    sups, bases = _word_value_table(alphabet._member_coords(), n, bases_only=mode == "base_point")
    vals = sups if mode == "sup_norm" else bases
    return _pressure_estimate(vals, vals.min(), n, s, mode)


def _pressure_estimate(vals: np.ndarray, least: float, n: int, s: float, mode: str
                       ) -> PressureEstimate:
    """The bracketed sum of vals^s over a length-n word table's values of
    ``mode``, of which ``least`` is the least.

    The brackets are rounded outward (``_outward_log``).  The table bounds
    each value from the mode's side, sups from above and base-point values
    from below, and a normal one to within a factor 1 +- kappa u
    (``_KAPPA``).  The side that needs that factor (lo for sup_norm, hi for
    base_point) widens by s (kappa + 2) u, and has no bound when s > 0 and
    some value is below 2^-1022, where no relative bound holds.
    """
    z = _tree_sum(vals**s)
    widen = math.inf if s > 0 and least < 2.0**-1022 else s * (_KAPPA + 2)
    up, down, shift = (0, widen, 0.0) if mode == "sup_norm" else (widen, 0, s * _LOG_K0)
    return PressureEstimate(
        s=s,
        n=n,
        log_zn_over_n=(math.log(z) if z > 0 else -math.inf) / n,
        lower_bracket=_outward_log(z, len(vals), -s * _LOG_K0, down, n, -math.inf),
        upper_bracket=_outward_log(z, len(vals), shift, up, n, math.inf),
        word_count=len(vals),
    )


@dataclass(frozen=True)
class BowenDimResult:
    s_low: float
    s_high: float
    n_used: int
    iterations: int  # steps of the three root searches
    conclusive: bool
    upper_at_low: float  # the sup-norm hi at s_low
    lower_at_high: float  # the sup-norm lo at s_high
    enclosure: tuple[float, float]

    @property
    def width(self) -> float:
        return self.s_high - self.s_low

    def to_json(self) -> dict:
        return {"s_low": self.s_low, "s_high": self.s_high, "n_used": self.n_used,
                "enclosure": list(self.enclosure), "certified": self.conclusive}


def _bracketed_root(f: Callable[[float], float], a: float, b: float, tol: float):
    """(x, y, steps): a <= x <= y <= b with f(x) >= 0 > f(y) and y - x <= tol.

    (a, a, 0) when f(a) < 0 or NaN, (b, b, 0) when f(b) >= 0; y - x may
    exceed tol after ``_MAX_BISECTIONS`` steps.  Each step takes the secant
    point of [x, y] (the midpoint where a value is infinite) at least tol/4
    inside; where one end moves twice in a row, the value kept at the other
    is halved (Illinois), so a convex f closes in from both ends.
    """
    fa, fb = f(a), f(b)
    if not fa >= 0:
        return a, a, 0
    if fb >= 0:
        return b, b, 0
    steps = side = 0
    while b - a > tol and steps < _MAX_BISECTIONS:
        x = b - fb * (b - a) / (fb - fa) if math.isfinite(fa - fb) else 0.5 * (a + b)
        x = min(max(x, a + tol / 4), b - tol / 4)
        fx, steps = f(x), steps + 1
        if fx >= 0:
            a, fa, fb, side = x, fx, fb / 2 if side > 0 else fb, 1
        else:
            b, fb, fa, side = x, fx, fa / 2 if side < 0 else fa, -1
    return a, b, steps


def bowen_dimension(
    alphabet: DigitSet, tol: float = 1e-3, n_max: int = 12, max_words: int = 1 << 18
) -> BowenDimResult:
    """The zero of the pressure P(s) on [0, 2]: an estimate in a sound enclosure.

    Three ``_bracketed_root`` searches at the largest word length n <= n_max
    whose k^n words fit ``max_words``.  With lo <= P <= hi the sup-norm
    brackets of ``partition_sum`` and P decreasing, the enclosure [low, high]
    holds the dimension: P(low) >= lo(low) >= 0 (or low = 0) and P(high) <=
    hi(high) < 0 (or high = 2), each where it was evaluated, so nothing relies
    on monotone brackets.  The estimate [s_low, s_high] is the zero in the
    enclosure of log Z_base(n) - log Z_base(n - 1), Z_base(0) = 1, the power
    method for P(s) as Z_base(n) = (L_s^n 1)(0).  ``conclusive`` (JSON
    ``certified``) holds when the enclosure, then also the estimate, is at
    most tol wide.  A one-digit alphabet's attractor is a point: [0, 0].
    The digits are resolved once, and each word table (n, then n - 1 for
    the estimate, its base-point values alone) is built once.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    k = _branch_count(alphabet)
    if k == 1:
        return BowenDimResult(0.0, 0.0, 0, 0, True, 0.0, 0.0, (0.0, 0.0))
    n = 1
    while n < n_max and k ** (n + 1) <= max_words:
        n += 1
    _check_budget(k, n, max_words)
    digits = alphabet._member_coords()
    sups, bases = _word_value_table(digits, n)
    least = sups.min()
    sup = functools.cache(lambda s: _pressure_estimate(sups, least, n, s, "sup_norm"))

    low, _, low_steps = _bracketed_root(lambda s: sup(s).lower_bracket, 0.0, 2.0, tol)
    _, high, high_steps = _bracketed_root(lambda s: sup(s).upper_bracket, low, 2.0, tol)
    conclusive = high - low <= tol
    if conclusive:
        s_low, s_high, steps = low, high, 0
    else:
        shorter = _word_value_table(digits, n - 1, bases_only=True)[1] if n > 1 else None

        def log_z(vals: np.ndarray | None, m: int, s: float) -> float:
            # log Z_base(m) as m times partition_sum's logZ_over_n, without its brackets
            if not m:
                return 0.0
            z = _tree_sum(vals**s)
            return m * ((math.log(z) if z > 0 else -math.inf) / m)

        s_low, s_high, steps = _bracketed_root(
            lambda s: log_z(bases, n, s) - log_z(shorter, n - 1, s), low, high, tol)
    return BowenDimResult(s_low, s_high, n, low_steps + high_steps + steps, conclusive,
                          sup(s_low).upper_bracket, sup(s_high).lower_bracket, (low, high))


# ---------------------------------------------------------------------------
# convergence exponent


# trajectory rows a TauEstimate keeps (and the tau command prints): every
# max(1, horizon // TAU_ROWS)-th index
TAU_ROWS = 10_000
# steps or runs per block of every per-step sequence that tau and
# subexp_check read, 256 KiB of float64: no array is as long as the horizon
_TAU_CHUNK = 1 << 15


@dataclass(frozen=True)
class TauEstimate:
    estimate: float
    ratio_max: float
    anchor_index: int
    horizon: int
    degenerate: bool
    trajectory_n: np.ndarray = field(repr=False)
    trajectory_x: np.ndarray = field(repr=False)
    trajectory_ratio: np.ndarray = field(repr=False)

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "ratio_max": self.ratio_max,
            "anchor_index": self.anchor_index,
            "horizon": self.horizon,
            "degenerate": self.degenerate,
        }


def tau_exponent(
    norms: Sequence[float] | np.ndarray | Callable[[slice], np.ndarray], horizon: int
) -> TauEstimate:
    """Convergence exponent of a nondecreasing norm sequence.

    The limit being estimated is limsup log n / log x_n.  The plain ratio
    at a finite horizon carries a bias of order 1/log n whenever x_n has a
    power law with a constant factor, so the reported estimate is the
    maximum two-point log-log slope from the tail-window anchor (index
    horizon/10) to later indices where x has at least doubled; the raw
    ratio trajectory is kept for diagnostics at every
    max(1, horizon // TAU_ROWS)-th index.

    norms is a sequence of at least horizon values, or a function that
    maps a slice of 0-based indices to the float64 x at them.  It is
    scanned as runs of length one (``_tau_on_runs``), which checks it
    finite and nondecreasing as it reads it, _TAU_CHUNK indices at a time:
    a function is never asked for more than _TAU_CHUNK values at once (the
    trajectory's, fewer than 2 TAU_ROWS, included).
    """
    _check_tau_horizon(horizon)
    if callable(norms):
        return _tau_on_runs(norms, None, horizon)
    x = np.asarray(norms[:horizon], dtype=np.float64)
    if len(x) < horizon:
        raise DomainError(f"sequence shorter ({len(x)}) than horizon {horizon}")
    return _tau_on_runs(x.__getitem__, None, horizon)


def _tau_on_runs(
    x_at: Callable[[slice | np.ndarray], np.ndarray], ends: np.ndarray | None, horizon: int
) -> TauEstimate:
    """``tau_exponent`` of the sequence that is x at run r on the 0-based
    indices ends[r] <= i < ends[r + 1]: ends[0] = 0 and the runs reaching
    the horizon.  ends None stands for runs of length one.  x_at maps a
    slice of runs, and with ends an int array of runs, to the float64 x
    there.

    On a run of equal x > 1, log n / log x and (log n - log n0) / (log x -
    log x0) are nondecreasing in n: the float logs of the integers up to
    10^7 are strictly increasing (consecutive ones differ by about 1/n,
    far above their few ulps of error), and subtracting a constant or
    dividing by a positive one keeps that order.  So both maxima over the
    tail window sit at each run's last index inside the horizon, and the
    scan takes one ratio and one slope per run there, the floats a scan of
    every index takes.

    x is read once, through x_at in blocks of at most _TAU_CHUNK runs, each
    an elementwise slice of the whole sequence.  Each block is checked
    first: a non-finite x raises at once, and an order break once every
    block is read, so a non-finite x is reported wherever the order breaks;
    the scan stops at the first break.  As x is nondecreasing, x > 1 and
    x >= 2 x0 each hold on a suffix of the runs, whose start a block finds
    by np.searchsorted within itself.
    """
    def run_of(i):  # the run holding 0-based index i (an int or an int array)
        return i if ends is None else np.searchsorted(ends, i, side="right") - 1

    runs = int(run_of(horizon - 1)) + 1
    n0 = max(horizon // 10, 10)  # the anchor, unless x > 1 first holds past it
    first = x0 = None  # the anchor's run and its x, once x > 1 is found
    ordered, last = True, -math.inf
    ratio_max = estimate = -math.inf
    for lo in range(0, runs, _TAU_CHUNK):
        hi = min(lo + _TAU_CHUNK, runs)
        xb = x_at(slice(lo, hi))
        if not np.isfinite(xb).all():
            raise DomainError("norm sequence must be finite")
        ordered = ordered and last <= xb[0] and not np.any(xb[1:] < xb[:-1])
        last = xb[-1]
        if not ordered:
            continue
        if first is None:
            if xb[-1] <= 1.0:
                continue
            valid = lo + int(xb.searchsorted(1.0, side="right"))  # the first run with x > 1
            n0 = max(n0, (valid if ends is None else int(ends[valid])) + 1)
            first = int(run_of(n0 - 1))
        if hi <= first:
            continue
        if x0 is None:
            x0 = float(xb[first - lo])
            xb, lo = xb[first - lo :], first
        # every x in the window from run ``first`` on is at least x0 > 1;
        # that run itself has x = x0 < 2 x0, so it never contributes a slope
        if ends is None:
            log_n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        else:  # each run's last index inside the horizon, as the count n
            log_n = np.minimum(ends[lo + 1 : hi + 1], horizon).astype(np.float64)
        np.log(log_n, out=log_n)
        log_x = np.log(xb)
        ratio_max = max(ratio_max, float((log_n / log_x).max()))
        k = int(xb.searchsorted(2.0 * x0))  # xb[k:] >= 2 x0
        if k < len(xb):  # the slopes, in place on the grown suffix
            slopes, log_x = log_n[k:], log_x[k:]
            slopes -= math.log(n0)
            log_x -= math.log(x0)
            slopes /= log_x
            estimate = max(estimate, float(slopes.max()))
    if not ordered:
        raise DomainError("norm sequence must be nondecreasing")
    if first is None:
        raise DomainError("all norms <= 1 within horizon: logarithms degenerate")

    step = max(1, horizon // TAU_ROWS)
    kept = np.arange(0, horizon, step)
    n = kept + 1.0
    # a copy, as x_at may return a view of the caller's sequence
    xk = np.array(x_at(slice(0, horizon, step) if ends is None else run_of(kept)))
    valid = int(xk.searchsorted(1.0, side="right"))  # xk[valid:] > 1
    ratio = np.full(len(kept), np.nan)
    ratio[valid:] = np.log(n[valid:]) / np.log(xk[valid:])
    degenerate = estimate == -math.inf
    return TauEstimate(
        estimate=ratio_max if degenerate else estimate,
        ratio_max=ratio_max,
        anchor_index=n0,
        horizon=horizon,
        degenerate=degenerate,
        trajectory_n=n,
        trajectory_x=xk,
        trajectory_ratio=ratio,
    )


def _check_tau_horizon(horizon: int) -> None:
    if horizon < 1000:
        raise DomainError("horizon must be at least 1000")
    if horizon > _MAX_HORIZON:
        raise DomainError(f"horizon must be at most {_MAX_HORIZON}, got {horizon}")


def tau_of_digit_set(s: DigitSet, horizon: int = 200_000) -> TauEstimate:
    """Estimate of the convergence exponent from the moduli of a digit
    set's enumeration, scanned on its shells; ``DigitSet.tau`` is the exact
    value it estimates."""
    _check_tau_horizon(horizon)
    shells = s._shells
    shells.cover(horizon)
    return _tau_on_runs(lambda r: np.sqrt(shells.values[r], dtype=np.float64), shells.ends,
                        horizon)


# ---------------------------------------------------------------------------
# covering threshold


@dataclass(frozen=True)
class ThresholdResult:
    norm_cutoff: int
    factor: float
    tau: float
    eps: float
    sum_at_cutoff: float
    sum_before_cutoff: float

    def to_json(self) -> dict:
        return {
            "N": self.norm_cutoff,
            "factor": self.factor,
            "tau": self.tau,
            "eps": self.eps,
            "sum_at_N": self.sum_at_cutoff,
            "sum_at_N_minus_1": self.sum_before_cutoff,
        }


def tail_integral_bound(a: float, p: float) -> float:
    """Upper bound on the lattice sum of |i|^-p over |i| >= a, for p > 2.

    Each lattice point owns a unit square within sqrt2/2 of it, so the sum
    is at most the integral of (|x| - sqrt2/2)^-p over |x| >= a - sqrt2/2:
    2 pi [ (a - sqrt2)^(2-p)/(p-2) + (sqrt2/2)(a - sqrt2)^(1-p)/(p-1) ].
    """
    if p <= 2.0:
        raise DomainError("tail bound needs exponent > 2")
    u = a - SQRT2
    if u <= 0:
        raise DomainError("tail bound needs a > sqrt(2)")
    return 2.0 * math.pi * (u ** (2.0 - p) / (p - 2.0) + (SQRT2 / 2.0) * u ** (1.0 - p) / (p - 1.0))


_ENUM_NORM_MAX = 300  # _restricted_power_sums enumerates the shells with |i| up to this


def _restricted_power_sums(s: DigitSet, p: float) -> Callable[[int], float]:
    """Estimator of the sum of |i|^-p over the members with |i| >= N, as a function of N.

    Shells up to ``_ENUM_NORM_MAX`` are enumerated exactly; the remainder is
    covered by the integral tail bound (an upper bound over the full
    lattice, hence over any subset).  Every head (the shells from N^2 on)
    sums a suffix slice of one term array over the shells up to
    ``_ENUM_NORM_MAX``^2: the bits of the head's own sum (``_ShellTable``)."""
    shells = s._shells
    terms = shells.terms(0, shells.band(0, _ENUM_NORM_MAX**2 + 1)[1], p)
    finite = s.is_finite and s.norm_sq_hi is not None and s.norm_sq_hi <= _ENUM_NORM_MAX**2 + 1

    def power_sum(norm_cutoff: int) -> float:
        if norm_cutoff < 1:
            raise DomainError("norm cutoff must be positive")
        head = 0.0
        if norm_cutoff <= _ENUM_NORM_MAX:
            head = float(terms[shells.values.searchsorted(norm_cutoff * norm_cutoff):].sum())
        if finite:
            return head
        tail_start = math.sqrt(max(norm_cutoff, _ENUM_NORM_MAX) ** 2 + 1)
        return head + tail_integral_bound(tail_start, p)

    return power_sum


def upper_threshold(s: DigitSet, eps: float) -> ThresholdResult:
    """Least norm cutoff N making the weighted covering tail sum <= 1.

    The weight is (k0 k2 c2 / k1)^((tau+eps)/2), with tau the set's exact
    ``DigitSet.tau``; the tail sum is evaluated by shell enumeration plus
    the integral tail bound, which is monotone in N, so the crossing is
    located by doubling plus bisection.  Every step's shell head sums a
    suffix slice of one term array (``_restricted_power_sums``): numpy's
    pairwise sum of a contiguous slice gives the bits of the head summed
    alone, and the shells are powered once per call.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"eps must be finite and positive, got {eps}")
    p = s.tau + eps
    k0 = COMPOSITION_DISTORTION_BOUND
    try:
        factor = (k0 * DIAMETER_K2 * float(DECAY_C2) / DIAMETER_K1) ** (p / 2.0)
    except OverflowError:
        raise DomainError(f"eps = {eps} puts the weight factor beyond the float range") from None
    power_sum = _restricted_power_sums(s, p)

    def weighted(n: int) -> float:
        return factor * power_sum(n)

    n_min = max(1, math.isqrt(s.min_norm_sq()))
    if weighted(n_min) <= 1.0:
        cutoff = n_min
    else:
        hi = n_min + 1
        while weighted(hi) > 1.0:
            hi *= 2
            if hi > 1 << 62:
                raise DomainError("threshold search diverged")
        lo = hi // 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if weighted(mid) <= 1.0:
                hi = mid
            else:
                lo = mid
        cutoff = hi
    return ThresholdResult(
        norm_cutoff=cutoff,
        factor=factor,
        tau=s.tau,
        eps=eps,
        sum_at_cutoff=weighted(cutoff),
        sum_before_cutoff=weighted(cutoff - 1) if cutoff > n_min else float("inf"),
    )


# ---------------------------------------------------------------------------
# non-autonomous block schedules


@dataclass(frozen=True)
class ScheduleBlock:
    """Digit pool and repetition count for one stretch of steps.

    The pool is the annulus of set members with norm_sq in [norm_sq_lo,
    norm_sq_hi); the first block instead uses the single shell at the
    minimal norm (norm_sq_hi equals norm_sq_lo + 1 there).
    """

    index: int
    norm_sq_lo: int
    norm_sq_hi: int
    count: int
    t: int
    start: int

    @property
    def end(self) -> int:
        return self.start + self.t - 1

    def to_json(self) -> dict:
        return {
            "norm_lo": math.sqrt(self.norm_sq_lo),
            "norm_hi": math.sqrt(self.norm_sq_hi),
            "count": self.count,
            "t": self.t,
        }


@dataclass(frozen=True)
class NonAutSchedule:
    """Blocks (digit pool, length) realising a non-autonomous digit system."""

    digit_set: DigitSet
    anchors: tuple[GaussianInt, ...]
    blocks: tuple[ScheduleBlock, ...]
    horizon: int
    eps: float
    ratio_tol: float
    f_source: str
    truncated: bool = False
    warning: str | None = None

    def block_of(self, n: int) -> ScheduleBlock:
        if n < 1 or n > self.horizon:
            raise DomainError(f"step {n} outside horizon {self.horizon}")
        for blk in self.blocks:
            if blk.start <= n <= blk.end:
                return blk
        raise DomainError(f"step {n} lies in no block")

    def to_json(self) -> dict:
        return {
            "anchors": [a.to_pair() for a in self.anchors],
            "blocks": [b.to_json() for b in self.blocks],
            "horizon": self.horizon,
            "eps": self.eps,
            "ratio_tol": self.ratio_tol,
            "tau": self.digit_set.tau,
            "f": self.f_source,
            "truncated": self.truncated,
        }


def _clearance_query(
    f: Callable[[int], float], horizon: int
) -> Callable[[float], int | None]:
    """Clearance query for one growth bound on [1, horizon].

    The query maps a level to the smallest n0 with f(n) >= level for every
    n in [n0, horizon], or None when f(horizon) < level; NaN fails every
    level.  It keeps neg[k + 1] = -min f over [horizon - k, horizon], which
    is nondecreasing, in a preallocated array, by _growth_values blocks that
    double up to _GROWTH_BLOCK steps while every value so far clears the
    queried level.  So f is evaluated at most once per step, and raises only
    at a step the one-step backward scan for that level reaches.
    """
    neg = np.empty(horizon + 1)
    neg[0], filled, block = -math.inf, 0, 1  # neg[: filled + 1] is known

    def clearance(level: float) -> int | None:
        nonlocal filled, block
        while filled < horizon and neg[filled] <= -level:
            x = -_growth_values(f, range(horizon - filled, max(horizon - filled - block, 0), -1))
            x[np.isnan(x)] = math.inf
            x[0] = max(x[0], neg[filled])
            np.maximum.accumulate(x, out=neg[filled + 1 : filled + 1 + x.size])
            filled, block = filled + x.size, min(2 * block, _GROWTH_BLOCK)
        cleared = int(np.searchsorted(neg[1 : filled + 1], -level, side="right"))
        return horizon - cleared + 1 if cleared else None

    return clearance


def build_schedule(
    s: DigitSet,
    f: GrowthFunction | Callable[[int], float],
    eps: float,
    horizon: int,
    ratio_tol: float = 0.1,
) -> NonAutSchedule:
    """Greedy block schedule matching a growth bound.

    Anchors are chosen minimally so each norm annulus [|z_m|, |z_{m+1}|)
    carries weight sum |i|^-(tau-eps) >= 1; block lengths are minimal
    subject to (i) every step of block m+1 clearing the growth bound at
    level |z_{m+2}| and (ii) the size/length ratio log(#pool)/start falling
    below ratio_tol/m.  Construction stops at the horizon; an unreachable
    clearance level truncates the schedule with a warning instead of
    failing.  The growth bound is evaluated at most once per step.  tau
    is the set's exact convergence exponent, ``DigitSet.tau``.
    """
    if s.is_finite:
        raise DomainError("schedule construction needs an infinite digit set")
    if s.contains(GaussianInt(0, 0)):
        raise DomainError(f"digit set {s.name} contains the pole digit 0")
    if not 10 <= horizon <= _MAX_HORIZON:
        raise DomainError(f"horizon must lie in [10, {_MAX_HORIZON}], got {horizon}")
    if not (math.isfinite(ratio_tol) and ratio_tol > 0):
        raise DomainError(f"ratio_tol must be finite and positive, got {ratio_tol}")
    f_source = f.source if isinstance(f, GrowthFunction) else getattr(f, "__name__", "callable")
    clearance_of = _clearance_query(f, horizon)
    if not 0.0 < eps < s.tau:
        raise DomainError(f"eps must lie in (0, tau={s.tau:g})")
    p = s.tau - eps

    shells = s._shells
    min_ns = s.min_norm_sq()

    # anchors: z_1 at the minimal norm, then minimal norms making each
    # annulus weight reach 1
    anchor_ns: list[int] = [min_ns]
    anchors: list[GaussianInt] = [first_on_shell(min_ns)]

    def extend_anchors(upto: int) -> None:
        while len(anchor_ns) < upto:
            nxt = shells.anchor_after(anchor_ns[-1], p)
            anchor_ns.append(nxt)
            anchors.append(first_on_shell(nxt))

    blocks: list[ScheduleBlock] = []
    start = 1
    m = 1
    truncated = False
    warning = None
    while start <= horizon:
        extend_anchors(m + 2)
        if m == 1:
            lo, hi = anchor_ns[0], shells.next_shell_after(anchor_ns[0])
        else:
            lo, hi = anchor_ns[m - 1], anchor_ns[m]
        count = shells.count(lo, hi)

        # start of the next block: clearance for its growth level plus the
        # ratio requirement for its pool size
        nxt_lo, nxt_hi = anchor_ns[m], anchor_ns[m + 1]
        nxt_count = shells.count(nxt_lo, nxt_hi)
        level = math.sqrt(anchor_ns[m + 1])  # |z_{m+2}|, the bound block m+1 must clear
        clearance = clearance_of(level)
        if clearance is None:  # the last block runs to the horizon
            next_start, truncated = horizon + 1, True
            warning = (
                f"growth bound never reaches level {level:.3f} within horizon; "
                f"schedule truncated at block {m}"
            )
        else:
            # a tiny ratio_tol can overflow the quotient; past the horizon is past it
            ratio_need = math.ceil(
                min((m + 1) * math.log(max(nxt_count, 2)) / ratio_tol, horizon + 1))
            next_start = max(start + 1, clearance, ratio_need)
        blocks.append(ScheduleBlock(m, lo, hi, count, min(next_start, horizon + 1) - start, start))
        start = next_start
        m += 1

    return NonAutSchedule(
        digit_set=s,
        anchors=tuple(anchors[: len(blocks) + 1]),
        blocks=tuple(blocks),
        horizon=horizon,
        eps=eps,
        ratio_tol=ratio_tol,
        f_source=f_source,
        truncated=truncated,
        warning=warning,
    )


def check_entry(name: str, ok: bool, witness: dict | None = None) -> dict:
    """Report entry {check, status, witness?}; the witness shows on failure only."""
    entry = {"check": name, "status": "pass" if ok else "fail"}
    if witness is not None and not ok:
        entry["witness"] = witness
    return entry


def _anchor_start_at_min_norm(sched: NonAutSchedule, f) -> tuple[bool, dict | None]:
    anchor, min_ns = sched.anchors[0], sched.digit_set.min_norm_sq()
    return anchor.norm_sq() == min_ns, {"anchor": anchor.to_pair(), "min_norm_sq": min_ns}


def _anchors_strictly_increasing(sched: NonAutSchedule, f) -> tuple[bool, dict | None]:
    ns = [a.norm_sq() for a in sched.anchors]
    return all(a < b for a, b in zip(ns, ns[1:])), None


def _annulus_weight_at_least_one(sched: NonAutSchedule, f) -> tuple[bool, dict | None]:
    ns = [a.norm_sq() for a in sched.anchors]
    annuli = list(zip(ns, ns[1:]))
    weights = sched.digit_set._shells.weights(annuli, sched.digit_set.tau - sched.eps)
    for (lo, hi), w in zip(annuli, weights):
        if w < 1.0:
            return False, {"annulus": [lo, hi], "weight": w}
    return True, None


def _block_membership(sched: NonAutSchedule, f) -> tuple[bool, dict | None]:
    """Block pools match the stated annuli, counts re-derived from the shells."""
    shells = sched.digit_set._shells
    for blk in sched.blocks:
        expect_lo = sched.anchors[blk.index - 1].norm_sq()
        if blk.index == 1:
            expect_hi = shells.next_shell_after(expect_lo)
        else:
            expect_hi = sched.anchors[blk.index].norm_sq()
        count = shells.count(blk.norm_sq_lo, blk.norm_sq_hi)
        if (blk.norm_sq_lo, blk.norm_sq_hi, blk.count) != (expect_lo, expect_hi, count):
            return False, {
                "block": blk.index,
                "stated": [blk.norm_sq_lo, blk.norm_sq_hi, blk.count],
                "expected": [expect_lo, expect_hi, count],
            }
    return True, None


def _growth_domination(sched: NonAutSchedule, f) -> tuple[bool, dict | None]:
    """Every step of block m >= 2 clears the growth bound at the next anchor;
    scanned in _growth_values chunks of up to _GROWTH_BLOCK steps, so f runs
    once per step and raises only at a step the one-step scan reaches."""
    for blk in sched.blocks[1:]:
        if blk.index >= len(sched.anchors):
            continue
        level = math.sqrt(sched.anchors[blk.index].norm_sq())
        n = blk.start
        while n <= blk.end:
            values = _growth_values(f, range(n, min(n + _GROWTH_BLOCK, blk.end + 1)))
            i = int(np.argmax(values < level))  # the first failing step, if any
            if values[i] < level:
                return False, {"block": blk.index, "n": n + i, "f": values[i].item(), "level": level}
            n += values.size
    return True, None


def _ratio_tolerance_schedule(sched: NonAutSchedule, f) -> tuple[bool, dict | None]:
    for blk in sched.blocks:
        if blk.index < 2:
            continue
        tol = sched.ratio_tol / blk.index
        ratio_start = math.log(max(blk.count, 1)) / blk.start
        ratio_end = math.log(max(blk.count, 1)) / blk.end
        if ratio_start > tol or ratio_end > tol:
            return False, {"block": blk.index, "ratio": ratio_start, "tol": tol}
    return True, None


def _blocks_tile_horizon(sched: NonAutSchedule, f) -> tuple[bool, dict | None]:
    b = sched.blocks
    ok = b[0].start == 1 and b[-1].end == sched.horizon
    return ok and all(x.end + 1 == y.start for x, y in zip(b, b[1:])), None


# (name, check), in report order; check(schedule, growth bound) -> (ok, witness)
SCHEDULE_CHECKS = (
    ("anchor_start_at_min_norm", _anchor_start_at_min_norm),
    ("anchors_strictly_increasing", _anchors_strictly_increasing),
    ("annulus_weight_at_least_one", _annulus_weight_at_least_one),
    ("block_membership", _block_membership),
    ("growth_domination", _growth_domination),
    ("ratio_tolerance_schedule", _ratio_tolerance_schedule),
    ("blocks_tile_horizon", _blocks_tile_horizon),
)


def validate_schedule(
    sched: NonAutSchedule, f: GrowthFunction | Callable[[int], float]
) -> list[dict]:
    """Re-derive every schedule requirement from scratch.

    Checks, independently of the builder: the first anchor sits at the
    set's minimal norm; every anchor annulus carries weight >= 1 at
    exponent -(tau - eps); block pools match the stated annuli member for
    member; every step of block m >= 2 clears the growth bound at the next
    anchor level; and the size/length ratios respect the declared
    tolerance schedule.  Returns a list of {check, status, witness?}, one
    per entry of SCHEDULE_CHECKS.
    """
    return [check_entry(name, *check(sched, f)) for name, check in SCHEDULE_CHECKS]


@dataclass(frozen=True)
class SubexpTrajectory:
    """log(pool size)/n over the steps n = 1..horizon, kept per block: block
    m holds the steps starts[m] <= n < starts[m + 1] and has log(size)
    log_sizes[m]; starts ends with horizon + 1."""

    starts: np.ndarray
    log_sizes: np.ndarray
    final_window_max: float
    ratio_tol: float

    @property
    def ok(self) -> bool:
        return self.final_window_max < self.ratio_tol

    def rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(n, log(size)/n) over n = 1..horizon, _TAU_CHUNK steps at a time:
        each block's log size repeated over its steps, divided by n as a
        float, the values a division of whole per-step arrays gives."""
        starts = self.starts
        for lo in range(1, int(starts[-1]), _TAU_CHUNK):
            n = np.arange(lo, min(lo + _TAU_CHUNK, int(starts[-1])))
            i, j = starts.searchsorted((lo, n[-1]), side="right") - 1
            steps = np.diff(np.clip(starts[i : j + 2], lo, n[-1] + 1))  # of each block here
            ratio = np.repeat(self.log_sizes[i : j + 1], steps)
            ratio /= n
            yield n, ratio

    def to_json(self) -> dict:
        return {
            "final_window_max": self.final_window_max,
            "ratio_tol": self.ratio_tol,
            "ok": self.ok,
        }


def subexp_check(sched: NonAutSchedule) -> SubexpTrajectory:
    """Trajectory of log(pool size)/n over the horizon, kept per block; its
    rows come _TAU_CHUNK steps at a time (``SubexpTrajectory.rows``).

    The final-window maximum (last tenth of the horizon) must stay below
    the schedule's ratio tolerance for the system to count as
    subexponentially bounded at desk scale.  It is the maximum over the
    blocks of log(size) / (the block's first step inside the window),
    exactly the maximum over every step: log(size) >= 0 is constant on a
    block, and a correctly rounded division of it by a larger n is no
    larger.  The log of each pool size is taken once, by np.log over the
    blocks, the elementwise operation a per-step array of sizes would get.
    The blocks must tile [1, horizon] (``_blocks_tile_horizon``), or the
    call raises ``DomainError``.
    """
    if not _blocks_tile_horizon(sched, None)[0]:
        raise DomainError(f"schedule blocks do not tile [1, {sched.horizon}]")
    starts = np.array([b.start for b in sched.blocks] + [sched.horizon + 1])
    log_sizes = np.log([float(max(b.count, 1)) for b in sched.blocks])
    window = max(int(0.9 * sched.horizon), 1)  # the first step of the final window
    inside = starts[1:] > window  # the blocks that reach into it
    heads = np.maximum(starts[:-1][inside], window).astype(np.float64)
    return SubexpTrajectory(
        starts=starts,
        log_sizes=log_sizes,
        final_window_max=float((log_sizes[inside] / heads).max()),
        ratio_tol=sched.ratio_tol,
    )


@dataclass(frozen=True)
class ChainResult:
    """Outcome of the explicit partition-sum lower bound."""

    s_value: float
    block_cutoff: int
    n_independent_from: int
    log_lower_bound: float
    positive: bool

    def to_json(self) -> dict:
        return {
            "s": self.s_value,
            "N": self.block_cutoff,
            "n_independent_from": self.n_independent_from,
            "log_lower_bound": self.log_lower_bound,
            "positive": self.positive,
        }


def verify_lower_bound_chain(
    sched: NonAutSchedule, eps: float, delta: float, n: int
) -> ChainResult:
    """Evaluate the explicit n-independent lower bound on the partition sum.

    With s = (tau - eps)/(2 + delta), each step owes a factor c1^s, so the
    first N blocks, which hold n_N = t_1 + ... + t_N steps, contribute the
    explicit product c1^(s n_N) |z_1|^(-2 s t_1) prod_m (sum over pool of
    |i|^-2s)^(t_m); blocks beyond N carry exponent -(2+delta)s = -(tau-eps)
    and each contributes a factor >= 1 by the annulus weight construction,
    so the bound does not depend on n.  N is the first block index from
    which c1/|i|^2 >= |i|^-(2+delta) holds for all later digits; c1 = 16/25
    is the decay constant ``ifs.DECAY_C1``.  Precondition: c1/|i|^2 <=
    |Dphi_i| on the box, which ``ifs.DECAY_C1`` proves only for norm_sq >=
    8, so a set with smaller members (``lattice``, ``minnormsq:N`` with
    N < 8) gets a value that is not a proven bound.
    """
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    if delta <= 0:
        raise DomainError("delta must be positive")
    if n > sched.horizon:
        raise DomainError(f"n = {n} beyond schedule horizon {sched.horizon}")
    tau = sched.digit_set.tau
    if not 0 < eps < tau:
        raise DomainError("eps must lie in (0, tau)")
    s_val = (tau - eps) / (2.0 + delta)
    log_c1 = math.log(float(DECAY_C1))

    # smallest anchor index from which the decay floor dominates the
    # (2+delta)-power: |z_{N+1}|^delta >= 1/c1; no norm_sq reaches one
    # beyond the float range
    try:
        ns_threshold = math.exp(-2.0 * log_c1 / delta)
    except OverflowError:
        ns_threshold = math.inf
    cutoff = None
    for idx in range(1, len(sched.anchors)):
        if sched.anchors[idx].norm_sq() >= ns_threshold:
            cutoff = idx
            break
    if cutoff is None:
        raise DomainError(
            "schedule anchors never reach the decay-floor threshold "
            f"(norm_sq >= {ns_threshold:.1f}); build with a larger horizon"
        )
    if cutoff > len(sched.blocks):
        raise DomainError("decay-floor block index beyond built blocks")

    end_cutoff = sched.blocks[cutoff - 1].end
    if n <= end_cutoff:
        raise DomainError(
            f"n = {n} lies inside the first {cutoff} blocks (ends at {end_cutoff}); "
            "the n-independent bound needs n beyond them"
        )

    shells = sched.digit_set._shells
    t1 = sched.blocks[0].t
    z1_ns = sched.anchors[0].norm_sq()
    log_bound = end_cutoff * s_val * log_c1  # c1^s per step of the first N blocks
    log_bound += -s_val * t1 * math.log(z1_ns)  # |z_1|^(-2 s t_1)
    head = sched.blocks[1:cutoff]
    for blk, w in zip(head, shells.weights([(b.norm_sq_lo, b.norm_sq_hi) for b in head],
                                           2.0 * s_val)):
        log_bound += blk.t * math.log(w)

    # blocks after the cutoff must each contribute a factor >= 1
    later = sched.blocks[cutoff : sched.block_of(n).index]
    weights = shells.weights([(b.norm_sq_lo, b.norm_sq_hi) for b in later], (2.0 + delta) * s_val)
    positive = math.isfinite(log_bound) and not any(w < 1.0 - 1e-9 for w in weights)
    return ChainResult(
        s_value=s_val,
        block_cutoff=cutoff,
        n_independent_from=end_cutoff + 1,
        log_lower_bound=log_bound,
        positive=positive,
    )
