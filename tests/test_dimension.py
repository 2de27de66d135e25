import itertools
import math
import random
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest

from hurwitzcf import (
    BranchComposition,
    BudgetExceededError,
    DigitSet,
    DomainError,
    bowen_dimension,
    partition_sum,
    tau_exponent,
    tau_of_digit_set,
    upper_threshold,
)
from hurwitzcf import cli as climod
from hurwitzcf import dimension
from hurwitzcf.dimension import _restricted_power_sums, _word_value_table, tail_integral_bound
from hurwitzcf.gaussian import GaussianInt, lattice_points, norm_sq_shells
from hurwitzcf.ifs import COMPOSITION_DISTORTION_BOUND, DECAY_C2, DIAMETER_K1, DIAMETER_K2


PAIR = DigitSet.from_branches([(2, 2), (-2, -2)])
QUAD = DigitSet.from_branches([(2, 2), (-2, -2), (3, 0), (0, 3)])
SINGLE = DigitSet.from_branches([(2, 2)])


def _shell_counts(s, limit_norm_sq):
    """Norm_sq shell values and member counts of a digit set up to the cutoff,
    read from its shell table."""
    shells = s._shells
    i, j = shells.band(0, limit_norm_sq + 1)
    return shells.values[i:j], np.diff(shells.ends[i : j + 1])


class TestDigitSet:
    def test_d2_membership(self):
        d2 = DigitSet.d2()
        assert d2.contains(GaussianInt(2, 2))
        assert not d2.contains(GaussianInt(2, 1))
        assert not d2.is_finite
        assert d2.min_norm_sq() == 8

    def test_annulus_members(self):
        ann = DigitSet.annulus(8, 11)
        members = ann.members()
        assert {m.norm_sq() for m in members} == {8, 9, 10}
        assert len(members) == 4 + 4 + 8

    def test_explicit_ordering(self):
        s = DigitSet.from_branches([(3, 0), (2, 2), (-2, -2)])
        assert [m.to_pair() for m in s.members()] == [[-2, -2], [2, 2], [3, 0]]

    def test_shell_counts_vs_enumeration(self):
        d2 = DigitSet.d2()
        values, counts = _shell_counts(d2, 64)
        brute = {}
        for a in range(-8, 9):
            for b in range(-8, 9):
                ns = a * a + b * b
                if 8 <= ns <= 64:
                    brute[ns] = brute.get(ns, 0) + 1
        assert dict(zip(values.tolist(), counts.tolist())) == brute

    def test_norm_sq_array_prefix(self):
        d2 = DigitSet.d2()
        arr = d2.norm_sq_array(100)
        assert arr[0] == 8.0 and len(arr) == 100
        assert np.all(np.diff(arr) >= 0)

    @pytest.mark.parametrize("count", [0, 1, 4, 5, 100, 4097])
    def test_norm_sq_array_owns_its_memory(self, count):
        # the result is not a slice of the repeated shell table
        s = DigitSet.lattice_with_zero()
        arr = s.norm_sq_array(count)
        assert arr.base is None and arr.dtype == np.float64
        values, counts = s._shells.values, np.diff(s._shells.ends)
        assert arr.tolist() == np.repeat(values.astype(np.float64), counts)[:count].tolist()


R_BRUTE = 40  # every case below is checked on norm_sq <= R_BRUTE^2
EXPLICIT = {(3, 0), (2, 2), (0, -3), (-2, -2)}

# (id, set, membership, tau): tau is 0 for a finite set and 2 for a set
# holding every lattice point beyond some norm
DIGIT_SET_CASES = [
    ("explicit", DigitSet.from_branches(EXPLICIT), lambda ns, a, b: (a, b) in EXPLICIT, 0.0),
    ("annulus", DigitSet.annulus(5, 30), lambda ns, a, b: 5 <= ns < 30, 0.0),
    ("d2", DigitSet.d2(), lambda ns, a, b: ns >= 8, 2.0),
    ("lattice", DigitSet.lattice(), lambda ns, a, b: ns >= 1, 2.0),
    ("lattice0", DigitSet.lattice_with_zero(), lambda ns, a, b: True, 2.0),
    ("min_norm_sq=50", DigitSet.with_min_norm_sq(50), lambda ns, a, b: ns >= 50, 2.0),
]


@pytest.mark.parametrize("s, member, tau", [c[1:] for c in DIGIT_SET_CASES],
                         ids=[c[0] for c in DIGIT_SET_CASES])
def test_digit_set_tau(s, member, tau):
    assert s.tau == tau
    if not s.is_finite:  # the log-log estimate approaches the exact value
        assert abs(tau_of_digit_set(s, 100_000).estimate - tau) < 0.02


@pytest.mark.parametrize("s, member", [c[1:3] for c in DIGIT_SET_CASES],
                         ids=[c[0] for c in DIGIT_SET_CASES])
def test_digit_set_against_brute_force(s, member):
    brute = sorted(
        (a * a + b * b, a, b)
        for a in range(-R_BRUTE, R_BRUTE + 1)
        for b in range(-R_BRUTE, R_BRUTE + 1)
        if a * a + b * b <= R_BRUTE**2 and member(a * a + b * b, a, b)
    )
    norms = [ns for ns, _, _ in brute]
    if s.is_finite:
        assert [(g.norm_sq(), g.re, g.im) for g in s.members()] == brute
    else:
        with pytest.raises(DomainError):
            s.members()
    assert s.norm_sq_array(len(brute)).tolist() == norms
    assert s.min_norm_sq() == norms[0]
    values, counts = _shell_counts(s, 1000)
    shells = Counter(ns for ns in norms if ns <= 1000)
    assert dict(zip(values.tolist(), counts.tolist())) == shells


@pytest.mark.parametrize("s", [DigitSet.annulus(3, 4), DigitSet("empty", 1, None, ())],
                         ids=["annulus", "explicit"])
def test_empty_finite_set_raises(s):
    assert s.members() == ()
    with pytest.raises(DomainError):
        s.min_norm_sq()
    with pytest.raises(DomainError):
        s.norm_sq_array(1)


@pytest.mark.parametrize("s", [DigitSet.d2(), DigitSet.annulus(8, 1 << 30)], ids=["d2", "annulus"])
def test_shell_table_budget(s):
    # shells past norm_sq 2^24 are a budget, reached before any grid is built
    with pytest.raises(BudgetExceededError, match=r"needs shells past norm_sq 16777216$"):
        _shell_counts(s, (1 << 24) + 1)
    assert _shell_counts(DigitSet.annulus(8, 100), 1 << 30)[0][-1] == 98  # a finite cap stays in


# The recursive enumeration over full 8-tuple composition matrices that
# the level-by-level word table replaced; the reference for containment:
# each word's exact sup 4 den/q and base-point value 1/|d|^2 as integer pairs.
def _ref_leaf_values(mat):
    _, _, _, _, cr, ci, dr, di = mat
    den = cr * cr + ci * ci
    wr = dr * cr + di * ci
    wi = di * cr - dr * ci
    nx = 2 * abs(wr) - den
    ny = 2 * abs(wi) - den
    nx = nx if nx > 0 else 0
    ny = ny if ny > 0 else 0
    q = nx * nx + ny * ny
    if q == 0:
        raise DomainError("derivative pole inside the box; word is not a branch word")
    return (4 * den, q), (1, dr * dr + di * di)


def _is_pole(row):
    try:
        _ref_leaf_values((0, 0, 0, 0, *row))
    except DomainError:
        return True
    return False


def _ref_extend_mat(mat, xr, xi):
    ar, ai, br, bi, cr, ci, dr, di = mat
    return (
        br,
        bi,
        ar + br * xr - bi * xi,
        ai + br * xi + bi * xr,
        dr,
        di,
        cr + dr * xr - di * xi,
        ci + dr * xi + di * xr,
    )


def _ref_word_value_table(digits, n):
    sups, bases = [], []

    def rec(mat, depth):
        if depth == n:
            sup, base = _ref_leaf_values(mat)
            sups.append(sup)
            bases.append(base)
            return
        for xr, xi in digits:
            rec(_ref_extend_mat(mat, xr, xi), depth + 1)

    rec((1, 0, 0, 0, 0, 0, 1, 0), 0)
    return sups, bases


def _ref_extend_levels(rows, xr, xi, levels):
    """``_extend_levels`` as the broadcast its flat form replaced, kept as
    the reference: each row against the k digit columns at once."""
    k = len(xr)
    for _ in range(levels):
        cr, ci, dr, di = (a[:, None] for a in rows)
        rows = [
            np.repeat(dr.ravel(), k),
            np.repeat(di.ravel(), k),
            (cr + dr * xr - di * xi).ravel(),
            (ci + dr * xi + di * xr).ravel(),
        ]
    return rows


def _tiled(digits, dtype, reach):
    """(xr, xi, k): the digit columns in ``dtype`` repeated to ``reach`` entries."""
    xr, xi = np.array(digits, dtype=dtype).reshape(-1, 2).T
    return np.tile(xr, reach // len(xr)), np.tile(xi, reach // len(xi)), len(xr)


def _digits(s):
    return tuple((g.re, g.im) for g in s.members())


def _table(digits, n):
    """``_word_value_table`` over (re, im) pairs passed as Python ints, as
    an explicit alphabet's digits are."""
    return _word_value_table(np.array(digits, dtype=object).reshape(-1, 2), n)


POOL = _digits(DigitSet.annulus(8, 65))  # the 176 digits with norm_sq in [8, 64]


def _seeded(k, seed, include=()):
    rng = random.Random(seed)
    rest = [d for d in POOL if d not in include]
    return tuple(include) + tuple(rng.sample(rest, k - len(include)))


# Digits of norm_sq 58-64: all 4^8 words have entries below 2^30 and
# q = nx^2 + ny^2 >= 2^53, so no quotient has operands exact in float64.
NEAR_64 = ((8, 0), (0, -8), (-7, 3), (5, 6))

# Digits of norm_sq 3e9 and 6e9 beside small ones: at n = 4 the bound on
# the bottom-row entries is just below 2^63, so the table is the last one
# enumerated in int64, with entries up to 2^62.99.
NEAR_INT64 = ((38966, 38966), (0, -55107), (2, 2), (-3, 1))

# Tables with entries exact in float64 and entries >= 2^30 whose squares
# and products round (over two 8k chunks for the norm-64 pair at n = 14),
# enumeration that outgrows int64 part way or at once, a table whose
# quotients all have inexact operands; then digits of real part +-1,
# whose poles come nearest the box and so give the most cancellation in
# 2|Re(d conj c)| - |c|^2 (entries up to 2^31.7 for the pair at n = 18,
# below 2^30 for the triple at n = 10, up to 2^52 beside a large digit),
# entries near 2^48 throughout, and the last table enumerated in int64;
# then two tables built in blocks whose last one is partial: 5^5 prefixes
# in runs of 327 (3125 = 9 * 327 + 182) and 7^4 in runs of 167
# (2401 = 14 * 167 + 63), each prefix with 2 tail levels.
TABLE_CASES = (
    [(_digits(PAIR), n) for n in range(1, 13)]
    + [
        (_digits(PAIR), 18),
        (_digits(DigitSet.annulus(8, 17)), 3),
        (_seeded(2, 1, include=[(8, 0)]), 12),
        (_seeded(3, 2), 11),
        (_seeded(4, 3), 9),
        (_seeded(8, 4), 6),
        (_seeded(16, 5), 4),
        (((8, 0), (0, -8)), 14),
        (((3000, 0), (-2, 2)), 14),
        (((2**40, 1), (2, 2), (0, -3)), 3),
        (((2**70, 3), (2, 2)), 2),
        (NEAR_64, 8),
        (((1, 3), (-1, -3)), 18),
        (((1, 3), (-1, 3), (1, -3), (1, 400)), 6),
        (((1, 3), (-1, 3), (1, -3)), 10),
        (((8, 0), (0, -8)), 16),
        (NEAR_INT64, 4),
        (_seeded(5, 6), 7),
        (_seeded(7, 7), 6),
    ]
)


def encloses(values, nums, dens, upward, tight=True):
    """Which word-table values bound the exact nums/dens (> 0) outward, from
    above when ``upward``, and, when ``tight`` and the value is a normal
    float, lie within a factor 1 +- kappa u of it (u = 2^-53, kappa
    ``dimension._KAPPA``).  Exact: a finite value is m 2^(e - 53) with m an
    integer, and both sides are compared as Python ints."""
    values = np.asarray(values, dtype=np.float64)
    mant, exp = np.frexp(np.where(np.isfinite(values), values, 0))
    m = (mant * 2.0**53).astype(np.int64).astype(object)
    got = np.left_shift(m * np.asarray(dens, dtype=object), np.maximum(exp - 53, 0).astype(object))
    exact = np.left_shift(np.asarray(nums, dtype=object), np.maximum(53 - exp, 0).astype(object))
    one, kappa = 1 << 53, dimension._KAPPA
    loose = (not tight) | (values < 2.0**-1022)
    if upward:
        ok = (got >= exact) & (loose | (got * one <= exact * (one + kappa)))
    else:
        ok = (got <= exact) & (loose | (got * one >= exact * (one - kappa)))
    return ok.astype(bool) & np.isfinite(values)


def _assert_encloses(sups, bases, ref_sups, ref_bases):
    """Every value of a table bounds the exact one outward (``encloses``)."""
    assert sups.dtype == bases.dtype == np.float64
    for values, ref, upward in ((sups, ref_sups, True), (bases, ref_bases, False)):
        ok = encloses(values, *zip(*ref), upward=upward)
        assert ok.all(), [(i, values[i], ref[i]) for i in np.flatnonzero(~ok)[:3]]


def _exact_values(words):
    """Exact (sup, base-point) values of the words' compositions, as integer pairs."""
    comps = [BranchComposition.from_word(word) for word in words]
    sups = [comp.sup_deriv_exact() for comp in comps]
    return ([(f.numerator, f.denominator) for f in sups],
            [(1, comp.d.norm_sq()) for comp in comps])


def _cancellation_rows(rng, count):
    """Synthetic rows d = c w with Re w or Im w at or near +-1/2, which put
    2|Re(d conj c)| or 2|Im(d conj c)| within about |c| of |c|^2 = den,
    with entries up to 2^62."""
    rows = []
    for _ in range(count):
        bits = rng.randrange(28, 61)
        cr, ci = rng.randrange(-(1 << bits), 1 << bits), rng.randrange(-(1 << bits), 1 << bits)
        half = [1 << 40, rng.randrange(1 << 36, 1 << 42)]  # 1/2 and about 1/2, over 2^41
        wr, wi = rng.choice(half), rng.randrange(-(3 << 41), 3 << 41)
        if rng.random() < 0.5:
            wr, wi = wi, rng.choice(half)
        wr, wi = rng.choice((wr, -wr)), rng.choice((wi, -wi))
        dr, di = (cr * wr - ci * wi) >> 41, (cr * wi + ci * wr) >> 41
        rows.append((cr, ci, dr, di))
    return rows


CANCELLATION_ROWS = _cancellation_rows(random.Random(8), 6000)


def _ref_table_leaves(rows):
    """``_table_leaves`` as the out-of-place expressions its in-place form
    replaced, kept as the reference: the same roundings in the same order."""
    cr, ci, dr, di = (a.astype(np.float64) for a in rows)
    den, re, im = cr * cr + ci * ci, dr * cr + di * ci, di * cr - dr * ci
    e, r = dimension._E_ULPS * dimension._U, dimension._ROUND_ULPS * dimension._U
    q = 0
    for v, a, b in ((re, dr * cr, di * ci), (im, di * cr, dr * ci)):
        x = 2 * np.abs(v) - den - e * (2 * (np.abs(a) + np.abs(b)) + den)
        q = q + np.maximum(x, 0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        sups = (4 + 4 * r) * den / q
        bases = (1 - r) / (dr * dr + di * di)
    return sups, bases, np.flatnonzero(q == 0)


def _leaves(rows):
    """(sups, bases, slow) of ``_table_leaves`` writing into fresh arrays."""
    sups, bases = np.empty(len(rows[0])), np.empty(len(rows[0]))
    slow = dimension._table_leaves(rows, sups, bases)
    return sups, bases, slow


def _cancellation_leaves():
    """(decided words, how many of them bound their exact values outward,
    whether every pole is left undecided) of ``CANCELLATION_ROWS``."""
    sups, bases, slow = _leaves([np.array(c, dtype=np.int64) for c in zip(*CANCELLATION_ROWS)])
    exact, poles_slow = {}, True
    for i, row in enumerate(CANCELLATION_ROWS):
        try:
            exact[i] = _ref_leaf_values((0, 0, 0, 0, *row))
        except DomainError:
            poles_slow = poles_slow and i in slow
    decided = np.setdiff1d(np.arange(len(CANCELLATION_ROWS)), slow)
    known = [i for i in decided.tolist() if i in exact]  # a decided pole is never enclosed
    (nums, qs), (ones, dsqs) = (zip(*c) for c in zip(*(exact[i] for i in known)))
    # no tightness here: these rows are not branch words
    ok = (encloses(sups[known], nums, qs, upward=True, tight=False)
          & encloses(bases[known], ones, dsqs, upward=False, tight=False))
    return len(decided), int(ok.sum()), poles_slow


def _count_builds(monkeypatch):
    """The word length of each ``_word_value_table`` build, as the builds come."""
    builds = []
    build = dimension._word_value_table

    def counting(digits, n, bases_only=False):
        builds.append(n)
        return build(digits, n, bases_only)

    monkeypatch.setattr(dimension, "_word_value_table", counting)
    return builds


def _record_blocks(monkeypatch):
    """(rows, undecided words) of each ``_table_leaves`` call, as the calls come."""
    blocks = []
    table_leaves = dimension._table_leaves

    def recording(rows, sups, bases):
        slow = table_leaves(rows, sups, bases)
        blocks.append((len(rows[0]), len(slow)))
        return slow

    monkeypatch.setattr(dimension, "_table_leaves", recording)
    return blocks


class TestWordValueTable:
    @pytest.mark.parametrize("digits, n", TABLE_CASES,
                             ids=[f"k{len(d)}-n{n}-{i}" for i, (d, n) in enumerate(TABLE_CASES)])
    def test_bit_identical_to_recursion(self, digits, n):
        sups, bases = _table(digits, n)
        _assert_encloses(sups, bases, *_ref_word_value_table(digits, n))
        # a base-only build gives the same base-point values, bit for bit
        none, base_only = _word_value_table(np.array(digits, dtype=object), n, bases_only=True)
        assert none is None and base_only.tobytes() == bases.tobytes()
        if max(x * x + y * y for x, y in digits) < 1 << 63:
            # int64 digit rows, as a radial alphabet passes them, give the same table
            int64 = np.array(digits, dtype=np.int64)
            int64_sups, int64_bases = _word_value_table(int64, n)
            assert np.array_equal(int64_sups, sups) and np.array_equal(int64_bases, bases)
            assert _word_value_table(int64, n, bases_only=True)[1].tobytes() == bases.tobytes()

    def test_leaves_bit_identical_to_reference(self):
        # synthetic rows near the poles, and the int64 rows of a deep table
        identity = [np.array([v], dtype=np.int64) for v in dimension._IDENTITY_ROW]
        blocks = [[np.array(c, dtype=np.int64) for c in zip(*CANCELLATION_ROWS)],
                  dimension._extend_levels(identity, *_tiled(_digits(PAIR), np.int64, 1 << 13), 13)]
        for rows in blocks:
            for got, ref in zip(_leaves(rows), _ref_table_leaves(rows)):
                assert np.array_equal(got, ref, equal_nan=True)

    # (digits, dtype, prefix levels, tail levels, prefixes a block): one tile
    # serves the prefix levels from one row and every block, the last one
    # shorter; NEAR_INT64's entries reach 2^62.99, the others are Python ints,
    # and the split of 5^5 prefixes into runs of 327 is the build's own, up
    # to a whole block of 8175 words
    @pytest.mark.parametrize("digits, dtype, prefix, tail, run", [
        (NEAR_INT64, np.int64, 2, 2, 5),
        (((2**40, 1), (2, 2), (0, -3)), object, 2, 1, 4),
        (((2**70, 3), (2, 2)), object, 2, 1, 3),
        (_seeded(5, 6), np.int64, 5, 2, 327),
    ], ids=["near-int64", "2^40", "2^70", "k5-n7"])
    def test_flat_levels_match_broadcast(self, digits, dtype, prefix, tail, run):
        k = len(digits)
        xr, xi, _ = _tiled(digits, dtype, k)
        tiles = _tiled(digits, dtype, max(k**prefix, run * k**tail))
        identity = [np.array([v], dtype=dtype) for v in dimension._IDENTITY_ROW]
        prefixes = dimension._extend_levels(identity, *tiles, prefix)
        blocks = [dimension._extend_levels([a[i : i + run] for a in prefixes], *tiles, tail)
                  for i in range(0, k**prefix, run)]
        assert len(blocks[-1][0]) < len(blocks[0][0]) == run * k**tail
        for got, ref in ((prefixes, _ref_extend_levels(identity, xr, xi, prefix)),
                         ([np.concatenate(c) for c in zip(*blocks)],
                          _ref_extend_levels(identity, xr, xi, prefix + tail))):
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype == dtype and np.array_equal(a, b)

    def test_cancellation_bound_is_sound(self):
        # every pole is left to the Python ints, and every value the float64
        # step decides bounds the exact one outward, however near the pole
        decided, enclosed, poles_slow = _cancellation_leaves()
        assert poles_slow
        assert 0.5 * len(CANCELLATION_ROWS) < decided == enclosed

    # Half the cancellation bound, 4u T, is the first-order maximum of
    # |nx~ - X|, reached only when all ten roundings are extreme at once
    # (these rows reach 2.6u T), so an eighth is the weakening they can show.
    @pytest.mark.parametrize("name, value", [("_E_ULPS", 1), ("_ROUND_ULPS", 0)],
                             ids=["eighth-cancellation-bound", "no-outward-factor"])
    def test_weakened_bound_fails(self, monkeypatch, name, value):
        monkeypatch.setattr(dimension, name, value)
        decided, enclosed, _ = _cancellation_leaves()
        assert enclosed < decided

    def test_large_entries_rarely_reach_python(self, monkeypatch):
        # no int64 word of these tables, with entries up to 2^54, is a possible pole
        exact_rows = []
        exact_leaves = dimension._exact_leaves

        def counting(rows):
            exact_rows.append(len(rows[0]))
            return exact_leaves(rows)

        monkeypatch.setattr(dimension, "_exact_leaves", counting)
        for digits, n in ((_digits(PAIR), 18), (((4, 1), (7, 3)), 16), (((8, 0), (0, -8)), 18)):
            _table(digits, n)
        assert sum(exact_rows) == 0
        _table(((2**40, 1), (7, 3)), 2)  # object rows: every word takes the exact path
        assert exact_rows == [4]

    def test_exact_path_matches_reference(self):
        # object rows of 2^40-sized digits, and the int64 rows _table_leaves
        # leaves undecided that are not poles: one correctly rounded
        # quotient each, stepped one float outward
        tiles = _tiled(_seeded(7, 9) + ((2**40, 1), (-5, 2**40 + 1)), object, 9**3)
        identity = [np.array([v], dtype=object) for v in dimension._IDENTITY_ROW]
        huge = list(zip(*dimension._extend_levels(identity, *tiles, 3)))
        int64_rows = [np.array(c, dtype=np.int64) for c in zip(*CANCELLATION_ROWS)]
        slow = _leaves(int64_rows)[2]
        near_poles = [CANCELLATION_ROWS[i] for i in slow.tolist()
                      if not _is_pole(CANCELLATION_ROWS[i])]
        assert len(huge) == 729 and len(near_poles) > 0
        for rows in (huge, near_poles):
            ref = [_ref_leaf_values((0, 0, 0, 0, *row)) for row in rows]
            sups, bases = dimension._exact_leaves([np.array(c, dtype=object) for c in zip(*rows)])
            assert np.array_equal(sups, [math.nextafter(a / b, math.inf) for (a, b), _ in ref])
            assert np.array_equal(bases, [math.nextafter(a / b, 0) for _, (a, b) in ref])

    def test_exact_path_pole_raises_as_reference(self):
        pole = (0, 0, 1, 0)  # the identity's bottom row: the pole sits at the origin
        with pytest.raises(DomainError) as ref:
            _ref_leaf_values((0, 0, 0, 0, *pole))
        rows = [np.array([2, v], dtype=object) for v in pole]
        rows[2][0] = 5  # a row with no pole first, then the pole
        with pytest.raises(DomainError) as got:
            dimension._exact_leaves(rows)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("n", [150, 2000])
    def test_deep_one_digit_table_matches_exact_composition(self, n):
        # rows of Python ints far past int64, against the exact rationals of
        # the composition; at n 2000 the sup is the least positive float and
        # the base-point value 0
        sups, bases = _table(((2, 2),), n)
        _assert_encloses(sups, bases, *_exact_values([[(2, 2)] * n]))
        assert (sups[0] < 2.0**-1022) == (bases[0] == 0) == (n == 2000)

    def test_build_keeps_bounded_working_memory(self, monkeypatch):
        # 2^18 words: beyond the table itself a build holds one block of
        # working arrays, and no block exceeds _EXACT_CHUNK words
        blocks = _record_blocks(monkeypatch)
        tracemalloc.start()
        try:
            sups, bases = _table(_seeded(4, 3), 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (sups.nbytes + bases.nbytes)
        sizes = [size for size, _ in blocks]
        assert sum(sizes) == len(sups) and max(sizes) <= dimension._EXACT_CHUNK

    @pytest.mark.parametrize("digits, n", [(_digits(QUAD), 4), (_seeded(3, 2), 11)])
    def test_word_i_has_base_k_digits_of_i(self, digits, n):
        sups, bases = _table(digits, n)
        k = len(digits)
        sample = random.Random(n).sample(range(k**n), 200)
        words = [[digits[(i // k ** (n - 1 - j)) % k] for j in range(n)] for i in sample]
        _assert_encloses(sups[sample], bases[sample], *_exact_values(words))

    def test_base_value_beyond_float_range(self):
        # |d|^2 of (2,2)^400 is too large for a float: 1.0 / |d|^2 overflows
        sups, bases = _table(((2, 2),), 400)
        comp = BranchComposition.from_word([(2, 2)] * 400)
        with pytest.raises(OverflowError):
            1.0 / comp.d.norm_sq()
        _assert_encloses(sups, bases, *_exact_values([[(2, 2)] * 400]))

    @pytest.mark.parametrize("digits, n", [(((0, 0), (2, 2)), 2), (((0, 0), (2**70, 0)), 1)],
                             ids=["int64", "python-ints"])
    def test_pole_raises(self, digits, n):
        with pytest.raises(DomainError, match="derivative pole"):
            _table(digits, n)


class TestPartitionSum:
    def test_counting_at_s_zero(self):
        est = partition_sum(PAIR, 1, 0.0)
        assert math.isclose(math.exp(est.log_zn_over_n), 2.0)

    def test_single_branch_values(self):
        est = partition_sum(SINGLE, 1, 1.0)
        assert math.isclose(math.exp(est.log_zn_over_n), 2.0 / 9.0, rel_tol=1e-14)
        est2 = partition_sum(SINGLE, 2, 1.0)
        z2 = math.exp(2 * est2.log_zn_over_n)
        assert z2 <= (2.0 / 9.0) ** 2 + 1e-15
        # and the base-point value 1/65 bounds it below through distortion
        assert z2 >= (1.0 / 65.0) / 3.3432

    def test_brute_force_oracle(self):
        # independent enumeration through exact per-word box analysis
        branches = [m.to_pair() for m in QUAD.members()]
        for n, s in ((2, 0.7), (3, 1.0)):
            brute = 0.0
            for word in itertools.product(branches, repeat=n):
                comp = BranchComposition.from_word(word)
                brute += float(comp.sup_deriv_exact()) ** s
            est = partition_sum(QUAD, n, s, "sup_norm")
            assert math.isclose(math.exp(n * est.log_zn_over_n), brute, rel_tol=1e-12)

    def test_base_point_oracle(self):
        branches = [m.to_pair() for m in PAIR.members()]
        brute = 0.0
        for word in itertools.product(branches, repeat=3):
            comp = BranchComposition.from_word(word)
            brute += float(comp.base_deriv_exact())
        est = partition_sum(PAIR, 3, 1.0, "base_point")
        assert math.isclose(math.exp(3 * est.log_zn_over_n), brute, rel_tol=1e-12)

    def test_bracket_structure(self):
        est = partition_sum(PAIR, 5, 0.9)
        assert est.lower_bracket <= est.log_zn_over_n <= est.upper_bracket

    @pytest.mark.parametrize("mode", ["sup_norm", "base_point"])
    def test_brackets_enclose_exact_log_sum(self, mode):
        # at s = 1 and 2 Z_n is an exact rational; its log, at 50 digits,
        # lies inside the outward brackets
        for n in range(1, 7):
            ref_sups, ref_bases = _ref_word_value_table(_digits(QUAD), n)
            exact = ref_sups if mode == "sup_norm" else ref_bases
            for s in (1, 2):
                est = partition_sum(QUAD, n, float(s), mode)
                with mpmath.workdps(50):
                    middle = mpmath.log(mpmath.fsum((mpmath.mpf(p) / q) ** s for p, q in exact)) / n
                    assert est.lower_bracket <= middle <= est.upper_bracket, (n, s)

    def test_budget_error_payload(self):
        with pytest.raises(BudgetExceededError, match="^4\\^10 words exceed budget 1000$"):
            partition_sum(QUAD, 10, 1.0, max_words=1000)
        with pytest.raises(BudgetExceededError, match="^4\\^9 words exceed budget 1000$"):
            partition_sum(QUAD, 9, 1.0, max_words=1000)
        with pytest.raises(BudgetExceededError, match="^4\\^600 words exceed budget 262144$"):
            partition_sum(QUAD, 600, 0.0)

    def test_refused_before_digits_are_built(self, monkeypatch):
        # a refusal is decided from the count alone: no digit is resolved
        monkeypatch.setattr(DigitSet, "_member_coords", lambda self: pytest.fail("digits built"))
        for call in (lambda: partition_sum(QUAD, 10, 1.0, max_words=1000),
                     lambda: partition_sum(SINGLE, 1001, 0.0, max_words=1000),
                     lambda: bowen_dimension(QUAD, max_words=3)):
            with pytest.raises(BudgetExceededError):
                call()

    @pytest.mark.parametrize("max_words", [1, 2, 1000, 1 << 18, 1 << 24])
    def test_check_budget_refuses_exactly_past_the_count(self, max_words):
        for k in range(1, 21):
            for n in range(1, 41):
                if n > max_words:
                    message = f"word length {n} exceeds budget {max_words}"
                elif k**n > max_words:
                    message = f"{k}^{n} words exceed budget {max_words}"
                else:
                    dimension._check_budget(k, n, max_words)
                    continue
                with pytest.raises(BudgetExceededError) as info:
                    dimension._check_budget(k, n, max_words)
                assert str(info.value) == message, (k, n)

    def test_base_point_upper_bracket_bounds_the_pressure(self):
        # annulus:8:16 has dimension 1.41903, so P(1.418) > 0; log Z_base(3)/3
        # alone falls below 0 there
        est = partition_sum(DigitSet.annulus(8, 17), 3, 1.418, "base_point")
        assert est.log_zn_over_n < 0 <= est.upper_bracket

    def test_value_below_normal_range_leaves_its_side_unbounded(self):
        # the word of eight 2^70-sized digits has values below 2^-1022 beside
        # normal ones: for s > 0 the side that needs a relative bound has none
        mixed = DigitSet.from_branches([(2**70, 3), (2, 2)])
        sup, base = partition_sum(mixed, 8, 1.0), partition_sum(mixed, 8, 1.0, "base_point")
        assert sup.lower_bracket == -math.inf < sup.log_zn_over_n < sup.upper_bracket < math.inf
        assert -math.inf < base.lower_bracket < base.log_zn_over_n < base.upper_bracket == math.inf
        at_zero = partition_sum(mixed, 8, 0.0)
        assert math.isfinite(at_zero.lower_bracket) and math.isfinite(at_zero.upper_bracket)
        assert partition_sum(mixed, 7, 1.0).lower_bracket > -math.inf  # all normal at n 7
        assert bowen_dimension(mixed, n_max=8).lower_at_high == -math.inf

    def test_alphabet_counted_before_digits_are_built(self, monkeypatch):
        # 314,176 digits exceed the budget from their count alone: no member is built
        big = DigitSet.annulus(8, 100_001)
        monkeypatch.setattr(DigitSet, "members", lambda self: pytest.fail("members built"))
        for call in (lambda: partition_sum(big, 1, 1.0), lambda: bowen_dimension(big)):
            with pytest.raises(BudgetExceededError, match="^314176\\^1 words exceed budget 262144$"):
                call()
        # a digit of norm_sq below 8 is a usage error first, named as before
        with pytest.raises(DomainError, match="alphabet digit -1 is not a branch index"):
            partition_sum(DigitSet.annulus(1, 100_001), 1, 1.0)

    def test_digits_past_int64_norms(self):
        # a norm_sq past 2^63 stays off the int64 shell table
        digit = DigitSet.from_branches([(0, 3037000500)])
        assert partition_sum(digit, 1, 0.0).word_count == 1

    def test_word_length_budget_of_one_digit_alphabet(self):
        with pytest.raises(BudgetExceededError, match="word length 1001"):
            partition_sum(SINGLE, 1001, 0.0, max_words=1000)
        assert partition_sum(SINGLE, 1000, 0.0, max_words=1000).word_count == 1

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            partition_sum(PAIR, 0, 1.0)
        with pytest.raises(DomainError):
            partition_sum(PAIR, 2, -0.5)
        with pytest.raises(DomainError):
            partition_sum(PAIR, 2, 1.0, mode="median")
        with pytest.raises(DomainError):
            partition_sum(DigitSet.from_branches([(1, 1)]), 1, 1.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(DomainError):
            partition_sum(PAIR, 3, s)


class TestBowen:
    def test_nested_monotone(self):
        mids = []
        for digit_set in (
            PAIR,
            DigitSet.from_branches([(2, 2), (-2, -2), (2, -2), (-2, 2)]),
            DigitSet.from_branches(
                [(2, 2), (-2, -2), (2, -2), (-2, 2), (3, 0), (0, 3), (-3, 0), (0, -3)]
            ),
        ):
            result = bowen_dimension(digit_set, tol=1e-3, n_max=6)
            mids.append(0.5 * (result.s_low + result.s_high))
        assert mids[0] < mids[1] < mids[2]

    def test_infinite_alphabet_rejected(self):
        with pytest.raises(DomainError):
            bowen_dimension(DigitSet.d2())

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-3])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(DomainError):
            bowen_dimension(PAIR, tol=tol)

    def test_brackets_computed_once_per_s_and_n(self, monkeypatch):
        # the power-method search reads log Z alone and builds no brackets
        calls = []
        original = dimension._pressure_estimate

        def counting(vals, least, n, s, mode):
            calls.append((n, s, mode))
            return original(vals, least, n, s, mode)

        monkeypatch.setattr(dimension, "_pressure_estimate", counting)
        result = bowen_dimension(PAIR, tol=1e-3, n_max=12)
        assert result.iterations == 6 and not result.conclusive
        assert len(calls) == len(set(calls))
        assert {(n, mode) for n, _, mode in calls} == {(12, "sup_norm")}

    def test_estimate_reads_the_base_point_sums(self):
        # log Z_base(m) is m times partition_sum's logZ_over_n, bit for bit
        result = bowen_dimension(PAIR, tol=1e-3, n_max=12)

        def log_z(m, s):
            return m * partition_sum(PAIR, m, s, "base_point").log_zn_over_n

        low, high = result.enclosure
        s_low, s_high, _ = dimension._bracketed_root(
            lambda s: log_z(12, s) - log_z(11, s), low, high, 1e-3)
        assert (s_low, s_high) == (result.s_low, result.s_high)

    def test_base_only_builds_skip_the_leaf_kernel(self, monkeypatch):
        # the n - 1 table of the estimate and a base_point sum hold base-point
        # values alone; the n table and a sup_norm sum go through _table_leaves
        blocks = _record_blocks(monkeypatch)
        partition_sum(QUAD, 6, 1.0, "base_point")
        assert blocks == []
        partition_sum(QUAD, 6, 1.0, "sup_norm")
        assert sum(size for size, _ in blocks) == 4**6
        blocks.clear()
        result = bowen_dimension(PAIR, tol=1e-3, n_max=12)
        assert not result.conclusive and sum(size for size, _ in blocks) == 2**12

    def test_each_word_table_built_once_per_call(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        bowen_dimension(PAIR, tol=1e-3, n_max=12)
        assert builds == [12, 11]  # the sup-norm roots at n, then the estimate at n - 1

    def test_digits_resolved_once(self, monkeypatch):
        resolved = []
        original = DigitSet._member_coords

        def counting(self):
            resolved.append(self.name)
            return original(self)

        monkeypatch.setattr(DigitSet, "_member_coords", counting)
        builds = _count_builds(monkeypatch)
        result = bowen_dimension(DigitSet.annulus(8, 17), tol=1e-3)
        assert resolved == ["annulus[8,17)"]
        assert builds == [3, 2] and result.n_used == 3

    def test_one_digit_alphabet_is_a_point(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        result = bowen_dimension(SINGLE, tol=1e-3, n_max=5000)
        assert (result.s_low, result.s_high, result.enclosure) == (0.0, 0.0, (0.0, 0.0))
        assert result.conclusive and result.n_used == 0
        assert builds == []
        with pytest.raises(DomainError):
            bowen_dimension(DigitSet.from_branches([(1, 1)]))

    def test_enclosure_not_refuted_by_exact_sums(self):
        # Z_sup(4) < 1 at low would prove the dimension below low, and
        # Z_inf(4) > 1 at high would prove it above high; each word's sup
        # and inf are exact rationals, summed at 50 digits
        result = bowen_dimension(QUAD, tol=1e-3, n_max=4)
        assert result.n_used == 4
        low, high = result.enclosure
        assert low <= result.s_low <= result.s_high <= high
        assert result.width <= 1e-3 < high - low and not result.conclusive
        assert result.upper_at_low >= 0.0 >= result.lower_at_high
        comps = [BranchComposition.from_word(w) for w in itertools.product(QUAD.members(), repeat=4)]

        def z(values, s):
            with mpmath.workdps(50):
                return mpmath.fsum((mpmath.mpf(v.numerator) / v.denominator) ** s for v in values)

        assert z([c.sup_deriv_exact() for c in comps], low) >= 1
        assert z([c.inf_deriv_exact() for c in comps], high) <= 1


class TestTau:
    def test_power_laws(self):
        n = np.arange(1, 100_001, dtype=float)
        assert abs(tau_exponent(n, 100_000).estimate - 1.0) < 1e-9
        assert abs(tau_exponent(n**2, 100_000).estimate - 0.5) < 1e-9
        assert abs(tau_exponent(n**0.5, 100_000).estimate - 2.0) < 1e-9
        # a longer int list is read only up to the horizon, past which it holds no number
        longer = [*range(1, 100_001), "past the horizon"]
        assert tau_exponent(longer, 100_000).estimate == tau_exponent(n, 100_000).estimate

    def test_lattice_moduli(self):
        est = tau_of_digit_set(DigitSet.lattice_with_zero(), 100_000)
        assert abs(est.estimate - 2.0) < 0.02
        # the raw ratio at this horizon is visibly biased upward
        assert est.ratio_max > 2.2

    def test_tie_order_irrelevant(self):
        # the estimator sees norms only, so any tie permutation gives the
        # same value: two enumerations with identical norm multisets agree
        ns = DigitSet.lattice_with_zero().norm_sq_array(50_000)
        est1 = tau_exponent(np.sqrt(ns), 50_000)
        est2 = tau_exponent(np.sqrt(ns.copy()), 50_000)
        assert est1.estimate == est2.estimate

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            tau_exponent(np.ones(2000), 2000)
        with pytest.raises(DomainError):
            tau_exponent(np.arange(1, 100, dtype=float), 99)
        with pytest.raises(DomainError):
            tau_exponent(np.arange(5000, 0, -1, dtype=float), 5000)
        # an order break at the first block edge, then a non-finite norm
        # blocks past it, which is reported first
        x = np.arange(1, 100_001, dtype=float)
        x[dimension._TAU_CHUNK] = 1.0
        with pytest.raises(DomainError, match="must be nondecreasing"):
            tau_exponent(x, 100_000)
        x[90_000] = math.inf
        for norms in (x, x.__getitem__):
            with pytest.raises(DomainError, match="must be finite"):
                tau_exponent(norms, 100_000)

    def test_trajectory_shape(self):
        est = tau_exponent(np.arange(1, 2001, dtype=float), 2000)
        assert len(est.trajectory_ratio) == 2000
        assert est.anchor_index == 200

    @pytest.mark.parametrize("source", ["lattice", "power", "plateau"])
    def test_blocked_scan_matches_whole_arrays(self, source):
        # the estimator over whole horizon-long arrays, kept as the reference
        # for the blocked scan and the thinned trajectory (600_000 indices
        # span three blocks of the tail window)
        horizon = 600_000
        n = np.arange(1, horizon + 1, dtype=np.float64)
        x = {
            "lattice": np.sqrt(DigitSet.lattice_with_zero().norm_sq_array(horizon)),
            "power": n**1.5,
            "plateau": np.minimum(n, 5000.0) + 1.0,  # never doubles past the anchor
        }[source]
        valid = x > 1.0
        ratio = np.full(horizon, np.nan)
        ratio[valid] = np.log(n[valid]) / np.log(x[valid])
        n0 = max(horizon // 10, 10, int(np.argmax(valid)) + 1)
        x0 = float(x[n0 - 1])
        ratio_max = float(np.nanmax(ratio[n0 - 1:]))
        idx = np.arange(n0, horizon)
        sel = idx[x[idx] >= 2.0 * x0]
        slopes = (np.log(sel + 1.0) - math.log(n0)) / (np.log(x[sel]) - math.log(x0))
        est = tau_exponent(x, horizon)
        assert est.degenerate == (len(sel) == 0) == (source == "plateau")
        assert est.estimate == (ratio_max if len(sel) == 0 else float(np.max(slopes)))
        assert est.ratio_max == ratio_max and est.anchor_index == n0
        step = horizon // 10_000
        assert np.array_equal(est.trajectory_n, n[::step])
        assert np.array_equal(est.trajectory_x, x[::step])
        assert np.array_equal(est.trajectory_ratio, ratio[::step], equal_nan=True)


def _ref_tau_exponent(x, horizon):
    """The window scan that suffix starts replaced: x > 1 by argmax over the
    whole sequence and x >= 2 x0 by a boolean mask in every chunk."""
    x = np.asarray(x, dtype=np.float64)[:horizon]
    kept = np.arange(0, horizon, max(1, horizon // dimension.TAU_ROWS))
    n = kept + 1.0
    xk = x[kept]
    valid = xk > 1.0
    ratio = np.full(len(kept), np.nan)
    ratio[valid] = np.log(n[valid]) / np.log(xk[valid])
    n0 = max(horizon // 10, 10)
    n0 = max(n0, int(np.argmax(x > 1.0)) + 1)
    x0 = float(x[n0 - 1])
    ratio_max = estimate = -math.inf
    for lo in range(n0 - 1, horizon, dimension._TAU_CHUNK):
        hi = min(lo + dimension._TAU_CHUNK, horizon)
        log_n = np.log(np.arange(lo + 1, hi + 1, dtype=np.float64))
        log_x = np.log(x[lo:hi])
        ratio_max = max(ratio_max, float(np.max(log_n / log_x)))
        grown = x[lo:hi] >= 2.0 * x0
        if grown.any():
            slopes = (log_n[grown] - math.log(n0)) / (log_x[grown] - math.log(x0))
            estimate = max(estimate, float(np.max(slopes)))
    degenerate = estimate == -math.inf
    return (ratio_max if degenerate else estimate, ratio_max, n0, degenerate, n, xk, ratio)


def _assert_as_reference(x, horizon, est=None):
    est = tau_exponent(x, horizon) if est is None else est
    ref = _ref_tau_exponent(x, horizon)
    got = (est.estimate, est.ratio_max, est.anchor_index, est.degenerate)
    assert got == ref[:4]
    for array, expected in zip((est.trajectory_n, est.trajectory_x, est.trajectory_ratio), ref[4:]):
        assert array.tobytes() == expected.tobytes()
    return est


class TestTauSuffixWindow:
    """The suffix starts give what the mask scan gave, bit for bit."""

    def test_plateau_at_exactly_twice_the_anchor(self):
        n = np.arange(1, 5001, dtype=np.float64)
        # x0 = x[499] = 500, and x stays at 2 x0 = 1000 from index 999 on
        est = _assert_as_reference(np.minimum(n, 1000.0), 5000)
        assert not est.degenerate and est.anchor_index == 500
        below = np.minimum(n, np.nextafter(1000.0, 0.0))  # never doubles
        assert _assert_as_reference(below, 5000).degenerate

    # the last lead x = 1 past the first block of the scan, after the anchor it displaces
    @pytest.mark.parametrize("lead", [[0.25] * 100 + [1.0] * 700, [0.0] * 801, [1.0] * 801,
                                      [0.5] * 5 + [1.0] * 15, [1.0] * ((1 << 15) + 7)])
    def test_leading_values_at_most_one(self, lead):
        horizon = max(2000, 2 * len(lead))
        x = np.r_[lead, 1.5 + np.arange(horizon - len(lead), dtype=np.float64)]
        est = _assert_as_reference(x, horizon)
        assert est.anchor_index == max(horizon // 10, len(lead) + 1)
        assert np.isnan(est.trajectory_ratio[est.trajectory_n <= len(lead)]).all()

    # x creeps up from 2 until index g, is exactly 2 x0 there and 1e300
    # after it: the slope at g - 1 (x just over x0) would be the steepest by
    # far, and from 140 indices past the anchor on the one at g is the steepest
    @pytest.mark.parametrize("offset", [1, 2, 1 << 18, (1 << 18) - 1, (1 << 18) + 1,
                                        (2 << 18) + 5, (1 << 15) - 1, 1 << 15, (1 << 15) + 1])
    def test_first_doubled_index_past_chunk_starts(self, offset):
        assert dimension._TAU_CHUNK == 1 << 15
        horizon = 600_000
        n0 = horizon // 10
        g = n0 - 1 + offset  # the chunks start at n0 - 1 + k 2^15
        x = 2.0 + np.arange(horizon, dtype=np.float64) * 1e-9
        x0 = float(x[n0 - 1])
        x[g], x[g + 1:] = 2.0 * x0, 1e300
        est = _assert_as_reference(x, horizon)
        at_g = (math.log(g + 1) - math.log(n0)) / (math.log(x[g]) - math.log(x0))
        assert est.estimate == at_g or offset < 140

    @pytest.mark.parametrize("horizon", [1000, 4321, 150_000, 1_000_000])
    @pytest.mark.parametrize("source", ["lattice", "d2", "power:0.74"])
    def test_cli_sources(self, source, horizon):
        est = None
        if source == "power:0.74":
            # the CLI's power source, streamed in blocks, against n^p made whole
            x = np.arange(1, horizon + 1, dtype=np.float64) ** 0.74
            est = climod._tau_estimate(source, horizon)
        else:
            make = DigitSet.lattice_with_zero if source == "lattice" else DigitSet.d2
            x = np.sqrt(make().norm_sq_array(horizon))
        _assert_as_reference(x, horizon, est)


def _ref_tau_of_digit_set(s, horizon):
    """``tau_of_digit_set`` as it was before it scanned shell runs: the
    modulus of every index, sqrt of ``norm_sq_array``, through the per-index
    reference scan.  Asserts the run scan's result equals it, bit for bit,
    and the norms equal those of shells counted afresh."""
    est = tau_of_digit_set(s, horizon)
    norms = s.norm_sq_array(horizon)
    values, counts = _fresh_shells(s, s._shells.limit)
    assert norms.tobytes() == np.repeat(values.astype(np.float64), counts)[:horizon].tobytes()
    return _assert_as_reference(np.sqrt(norms), horizon, est)


def _run_places(ends, i):
    """Where index i sits in its run: a subset of {"start", "mid", "end"}."""
    r = int(np.searchsorted(ends, i, side="right")) - 1
    first, last = int(ends[r]), int(ends[r + 1]) - 1
    return {place for place, at in (("start", i == first), ("mid", first < i < last),
                                     ("end", i == last)) if at}


def _edge_horizons(s, first, last):
    """(what, place) -> the least horizon in [first, last] that puts it there.

    "last" is index H - 1 and "anchor" index n0 - 1 = H // 10 - 1, each at
    the start, inside or at the end of its run; "crossing" is H - 1 in the
    run where x first reaches 2 x0, so that the horizon cuts that run."""
    shells = s._shells
    shells.cover(last)
    ends, x = shells.ends, np.sqrt(shells.values.astype(np.float64))
    found = {}
    for h in range(first, last + 1):
        anchor_run = int(np.searchsorted(ends, h // 10 - 1, side="right")) - 1
        grown = int(np.searchsorted(x, 2.0 * x[anchor_run]))
        places = [("last", p) for p in _run_places(ends, h - 1)]
        places += [("anchor", p) for p in _run_places(ends, h // 10 - 1)]
        if grown + 1 < len(ends) and ends[grown] <= h - 1 < ends[grown + 1]:
            places += [("crossing", p) for p in _run_places(ends, h - 1)]
        for key in places:
            found.setdefault(key, h)
    return found


TAU_SETS = {
    "lattice0": DigitSet.lattice_with_zero,
    "d2": DigitSet.d2,
    "minnormsq:20": lambda: DigitSet.with_min_norm_sq(20),
    "annulus": lambda: DigitSet.annulus(40_000, 42_000),  # |b| in [200, 205): x never doubles
    # norm_sq in [1000, 1300) and [4000, 5300): x doubles in the second band,
    # late enough that a horizon can cut the run where it first does
    "explicit": lambda: DigitSet.from_branches(
        np.r_[lattice_points(1000, 1299), lattice_points(4000, 5299)].tolist()),
}


class TestTauOnShellRuns:
    """``tau_of_digit_set`` scans runs of equal norm; the per-index scan of
    the sequence it stands for gives the same result, bit for bit."""

    @pytest.mark.parametrize("name", list(TAU_SETS))
    def test_edge_horizons(self, name):
        s = TAU_SETS[name]()
        found = _edge_horizons(s, 1000, 3000)
        wanted = ["last", "anchor"] + ["crossing"] * (name == "explicit")
        assert {(what, p) for what in wanted for p in ("start", "mid", "end")} <= set(found)
        for horizon in sorted(set(found.values())):
            est = _ref_tau_of_digit_set(s, horizon)
            assert est.degenerate or name != "annulus"

    @pytest.mark.parametrize("horizon", [146_779, 316_227, 681_292])
    @pytest.mark.parametrize("name", ["lattice0", "d2", "minnormsq:20"])
    def test_bench_horizons(self, name, horizon):
        _ref_tau_of_digit_set(TAU_SETS[name](), horizon)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("name", ["lattice0", "d2", "explicit"])
    def test_blocks_of_few_runs(self, monkeypatch, name, chunk):
        # block starts fall at every offset from the anchor run and the first grown run
        monkeypatch.setattr(dimension, "_TAU_CHUNK", chunk)
        for horizon in (1000, 1777):
            _ref_tau_of_digit_set(TAU_SETS[name](), horizon)

    def test_short_set_raises(self):
        with pytest.raises(DomainError, match="has fewer than 3000 members"):
            tau_of_digit_set(DigitSet.annulus(8, 100), 3000)


def _fresh_shells(s, limit):
    """(values, counts) of a digit set's shells up to limit, counted afresh:
    by ``norm_sq_shells`` for a radial set and from the members of an explicit one."""
    if s.explicit is not None:
        shells = Counter(g.norm_sq() for g in s.explicit if g.norm_sq() <= limit)
        values = np.array(sorted(shells), dtype=np.int64)
        return values, np.array([shells[v] for v in values.tolist()], dtype=np.int64)
    values, counts = norm_sq_shells(limit)
    if s.norm_sq_lo <= 0:
        values, counts = np.r_[0, values], np.r_[1, counts]
    keep = (values >= s.norm_sq_lo) & (values < (s.norm_sq_hi or math.inf))
    return values[keep], counts[keep]


def _band_formula(shells, lo, hi, exponent):
    """(weight, count) of the band [lo, hi) by the per-call formula: the counts
    times the powers of a fresh band, summed."""
    values, counts = shells
    i, j = np.searchsorted(values, [lo, hi])
    values, counts = values[i:j], counts[i:j]
    weight = float(np.sum(counts * np.power(values.astype(np.float64), -exponent / 2.0)))
    return weight.hex(), int(counts.sum())


SHELL_SETS = {"d2": DigitSet.d2, "lattice": DigitSet.lattice,
              "minnormsq:20": lambda: DigitSet.with_min_norm_sq(20)}


class TestShellQueries:
    """``weights`` and ``count`` against the per-call formulas
    they replaced, bit for bit, on bands queried while the table grows and
    after; the reference shells are counted afresh."""

    @pytest.mark.parametrize("make", list(SHELL_SETS.values()), ids=list(SHELL_SETS))
    def test_bit_for_bit(self, make):
        table = make()._shells
        first_limit = table.limit
        rng = random.Random(3)
        exponents = [0.0, 0.5, 1.0, 4 / 3, 1.5, 2.0, 2.5, 3.9, -0.7]
        top, grown, fresh = 70, 0, {}  # limit -> the shells counted afresh up to it
        for _ in range(1500):
            if rng.random() < 0.03:  # past what the table holds: it grows first
                top = int(top * rng.uniform(1.0, 1.4)) + 1
                lo, hi = rng.randint(top // 2, top), top
                grown += hi - 1 > table.limit
            else:  # a band below the limit, or an empty or reversed one
                lo, hi = sorted(rng.randint(-3, top) for _ in range(2))
                if rng.random() < 0.1:
                    lo, hi = hi, lo
            exponent = rng.choice(exponents)
            got = table.weights([(lo, hi)], exponent)[0].hex(), table.count(lo, hi)
            if table.limit not in fresh:
                fresh[table.limit] = _fresh_shells(table.set, table.limit)
            assert got == _band_formula(fresh[table.limit], lo, hi, exponent), (lo, hi, exponent)
        assert grown >= 5 and table.limit >= 16 * first_limit

    @pytest.mark.parametrize("make", list(SHELL_SETS.values()), ids=list(SHELL_SETS))
    def test_batches_match_one_band_and_the_formula(self, make):
        # batches of consecutive annuli (as anchors and blocks give them),
        # random, empty and reversed bands, bands wider than a window, and
        # batches that reach past the table, so it grows inside the call
        table = make()._shells
        rng = random.Random(11)
        window = dimension._WEIGHT_WINDOW
        top, wide = 100, 0
        for _ in range(40):
            top = int(top * rng.uniform(1.1, 1.4))
            cuts = sorted(rng.sample(range(-2, top), rng.randint(1, 40)))
            bands = list(zip(cuts, cuts[1:]))
            bands += [(rng.randint(0, top), rng.randint(0, top)) for _ in range(rng.randint(0, 6))]
            bands.append((rng.randint(0, top // 4), top))
            if rng.random() < 0.3:
                rng.shuffle(bands)
            exponent = rng.choice([0.5, 4 / 3, 1.5, 1.9, 2.5])
            got = table.weights(bands, exponent)
            shells = _fresh_shells(table.set, table.limit)
            for (lo, hi), w in zip(bands, got, strict=True):
                assert w.hex() == table.weights([(lo, hi)], exponent)[0].hex()
                assert (w.hex(), table.count(lo, hi)) == _band_formula(shells, lo, hi, exponent)
                wide += int(np.searchsorted(shells[0], hi) - np.searchsorted(shells[0], lo)) > window
        assert wide >= 3 and table.weights([], 1.0) == []

    @pytest.mark.parametrize("make", list(SHELL_SETS.values()), ids=list(SHELL_SETS))
    @pytest.mark.parametrize("exponent", [0.5, 1.0, 1.5, 1.95])
    def test_anchor_after_matches_a_scan_of_weights(self, make, exponent):
        # the least shell hi with the band's formula weight >= 1, shell by shell
        table = make()._shells
        lo = table.shell(0)
        for _ in range(6):
            hi = table.anchor_after(lo, exponent)
            shells = _fresh_shells(table.set, table.limit)
            values = shells[0][np.searchsorted(shells[0], lo) + 1:]
            weights = [float.fromhex(_band_formula(shells, lo, v, exponent)[0]) for v in values[:4096]]
            assert max(weights) >= 1.0 and hi == values[np.argmax(np.array(weights) >= 1.0)]
            lo = hi


class TestUpperThreshold:
    def test_tail_bound_dominates_enumeration(self):
        # brute lattice sum over an annulus never exceeds the bound
        p = 2.5
        brute = 0.0
        for a in range(-60, 61):
            for b in range(-60, 61):
                ns = a * a + b * b
                if ns >= 100:  # |i| >= 10
                    brute += ns ** (-p / 2.0)
        # brute misses |i| > 60; the tail bound from 10 covers everything
        assert brute <= tail_integral_bound(10.0, p)

    def test_quadrature_oracle(self):
        from scipy.integrate import quad

        p = 2.5
        for a in (10.0, 50.0, 2000.0):
            closed = tail_integral_bound(a, p)
            integrand = lambda r: 2 * math.pi * r * (r - math.sqrt(2) / 2) ** (-p)
            numeric, err = quad(integrand, a - math.sqrt(2) / 2, np.inf)
            assert math.isclose(closed, numeric, rel_tol=1e-9)

    def test_crossing_property_d2(self):
        res = upper_threshold(DigitSet.d2(), eps=0.5)
        assert res.sum_at_cutoff <= 1.0 < res.sum_before_cutoff
        assert res.norm_cutoff > 1000

    def test_exact_tau_d2(self):
        # tau is the exact 2, not a log-log estimate (2.00169 at horizon 10^5)
        res = upper_threshold(DigitSet.d2(), eps=0.5)
        assert res.tau == 2.0
        assert res.norm_cutoff == 210_556_610

    def test_largest_eps_in_range(self):
        res = upper_threshold(DigitSet.d2(), eps=200.0)
        assert res.norm_cutoff == 18 and math.isfinite(res.factor)

    @pytest.mark.parametrize("eps", [250.0, 300.0, 1e300])
    def test_factor_beyond_the_float_range_is_a_domain_error(self, eps):
        # the factor is 281.8^((2 + eps)/2), past the float range above eps = 249.6
        with pytest.raises(DomainError, match="weight factor"):
            upper_threshold(DigitSet.d2(), eps)

    def test_huge_eps_min_norm(self):
        s = DigitSet.with_min_norm_sq(10_000)
        res = upper_threshold(s, eps=10.0)
        assert res.norm_cutoff == 100
        assert res.sum_at_cutoff <= 1.0

    def test_head_enumeration_matches_brute_force(self):
        s = DigitSet.with_min_norm_sq(10_000)
        p = 12.0
        primary = _restricted_power_sums(s, p)(100)  # enumerates |i| <= 300
        axis = np.arange(-300, 301, dtype=np.float64) ** 2
        grid = (axis[:, None] + axis[None, :]).ravel()
        brute = float(np.sum(grid[grid >= 10_000] ** (-p / 2.0)))
        tail = tail_integral_bound(math.sqrt(300**2 + 1), p)
        assert brute <= primary <= brute + tail
        assert tail < 1e-20

    def test_eps_positive_required(self):
        with pytest.raises(DomainError):
            upper_threshold(DigitSet.d2(), eps=0.0)
        with pytest.raises(DomainError):
            upper_threshold(DigitSet.d2(), eps=-1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(DomainError, match="eps must be finite and positive"):
            upper_threshold(DigitSet.d2(), eps=eps)

    @staticmethod
    def _ref_power_sum(s, shells, norm_cutoff, p):
        """_restricted_power_sums by its formula: the head over shells counted
        afresh, summed as a fresh band, then the integral tail."""
        top = dimension._ENUM_NORM_MAX
        head = 0.0
        if norm_cutoff <= top:
            head = float.fromhex(_band_formula(shells, norm_cutoff**2, top**2 + 1, p)[0])
        if s.is_finite and s.norm_sq_hi <= top**2 + 1:
            return head
        return head + tail_integral_bound(math.sqrt(max(norm_cutoff, top) ** 2 + 1), p)

    @pytest.mark.parametrize("eps", [0.3, 2.0, 10.0])
    @pytest.mark.parametrize("make", [DigitSet.d2, DigitSet.lattice,
                                      lambda: DigitSet.with_min_norm_sq(16),
                                      lambda: DigitSet.with_min_norm_sq(24),
                                      lambda: DigitSet.with_min_norm_sq(10_000),
                                      lambda: DigitSet.annulus(8, 2000),
                                      lambda: DigitSet.from_branches(lattice_points(50, 400).tolist())],
                             ids=["d2", "lattice", "minnormsq:16", "minnormsq:24",
                                  "minnormsq:10000", "annulus", "explicit"])
    def test_matches_a_reference_bisection(self, make, eps):
        # the doubling and bisection of upper_threshold over the formula's
        # sums, and _restricted_power_sums against the formula at every cutoff
        s = make()
        p = s.tau + eps
        shells = _fresh_shells(s, dimension._ENUM_NORM_MAX**2)
        power_sum = _restricted_power_sums(s, p)
        for n in [*range(1, 302), 1000, 1 << 20]:
            assert power_sum(n).hex() == self._ref_power_sum(s, shells, n, p).hex()
        factor = (COMPOSITION_DISTORTION_BOUND * DIAMETER_K2 * float(DECAY_C2)
                  / DIAMETER_K1) ** (p / 2.0)

        def weighted(n):
            return factor * self._ref_power_sum(s, shells, n, p)

        n_min = cutoff = max(1, math.isqrt(s.min_norm_sq()))
        if weighted(n_min) > 1.0:
            cutoff = n_min + 1
            while weighted(cutoff) > 1.0:
                cutoff *= 2
            lo = cutoff // 2
            while lo + 1 < cutoff:
                mid = (lo + cutoff) // 2
                lo, cutoff = (lo, mid) if weighted(mid) <= 1.0 else (mid, cutoff)
        res = upper_threshold(s, eps)
        before = weighted(cutoff - 1) if cutoff > n_min else math.inf
        assert (res.norm_cutoff, res.factor) == (cutoff, factor)
        assert (res.sum_at_cutoff.hex(), res.sum_before_cutoff.hex()) == (weighted(cutoff).hex(),
                                                                          before.hex())
