import itertools
import math
import random
import tracemalloc
from collections import Counter

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
from hurwitzcf import dimension
from hurwitzcf.dimension import _word_value_table, restricted_power_sum, tail_integral_bound
from hurwitzcf.gaussian import GaussianInt


PAIR = DigitSet.from_branches([(2, 2), (-2, -2)])
QUAD = DigitSet.from_branches([(2, 2), (-2, -2), (3, 0), (0, 3)])
SINGLE = DigitSet.from_branches([(2, 2)])


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
        values, counts = d2.shell_counts(64)
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


R_BRUTE = 40  # every case below is checked on norm_sq <= R_BRUTE^2
EXPLICIT = {(3, 0), (2, 2), (0, -3), (-2, -2)}

DIGIT_SET_CASES = [
    ("explicit", DigitSet.from_branches(EXPLICIT), lambda ns, a, b: (a, b) in EXPLICIT),
    ("annulus", DigitSet.annulus(5, 30), lambda ns, a, b: 5 <= ns < 30),
    ("d2", DigitSet.d2(), lambda ns, a, b: ns >= 8),
    ("lattice", DigitSet.lattice(), lambda ns, a, b: ns >= 1),
    ("lattice0", DigitSet.lattice_with_zero(), lambda ns, a, b: True),
    ("min_norm_sq=50", DigitSet.with_min_norm_sq(50), lambda ns, a, b: ns >= 50),
]


@pytest.mark.parametrize("s, member", [c[1:] for c in DIGIT_SET_CASES],
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
    values, counts = s.shell_counts(1000)
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


# The recursive enumeration over full 8-tuple composition matrices that
# the level-by-level word table replaced; the reference for bit identity.
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
    return (4 * den) / q, 1.0 / (dr * dr + di * di)


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
    return np.asarray(sups), np.asarray(bases)


def _digits(s):
    return tuple((g.re, g.im) for g in s.members())


POOL = _digits(DigitSet.annulus(8, 65))  # the 176 digits with norm_sq in [8, 64]


def _seeded(k, seed, include=()):
    rng = random.Random(seed)
    rest = [d for d in POOL if d not in include]
    return tuple(include) + tuple(rng.sample(rest, k - len(include)))


# Digits of norm_sq 58-64: all 4^8 words have entries below 2^30 and
# q = nx^2 + ny^2 >= 2^53, so every quotient is off the float64 tier.
NEAR_64 = ((8, 0), (0, -8), (-7, 3), (5, 6))

# Digits of norm_sq 3e9 and 6e9 beside small ones: at n = 4 the bound on
# the bottom-row entries is just below 2^63, so the table is the last one
# enumerated in int64, with entries up to 2^62.99.
NEAR_INT64 = ((38966, 38966), (0, -55107), (2, 2), (-3, 1))

# Tables whose words fall in every tier of the table: float64 quotients,
# int64 integers with a long double or Python quotient, long double terms
# for entries >= 2^30 (over two 8k chunks for the norm-64 pair at n = 14),
# enumeration that outgrows int64 part way or at once, a table whose
# quotients all leave the float64 tier; then digits of real part +-1,
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


def _near_midpoint_triples(rng, count):
    """(den, nx, ny) whose 4 den/(nx^2 + ny^2) lies within 2^-65 relative of
    m = r + ulp(r)/2, a float64 rounding midpoint, and two exact ties."""
    triples = []
    while len(triples) < count:
        e = rng.randrange(-60, 0)
        m_num, m_shift = 2 * rng.randrange(1 << 52, 1 << 53) + 1, 53 - e + 2  # m/4
        t = (60 - e) // 2
        nx, ny = rng.randrange(1 << (t - 1), 1 << t), rng.randrange(1 << (t - 1), 1 << t)
        q = nx * nx + ny * ny
        den = (m_num * q + (1 << (m_shift - 1))) >> m_shift
        if abs((den << m_shift) - m_num * q) << 65 < m_num * q:
            triples.append((den, nx, ny))
    return triples + [(m << 5, 1 << 60, 0) for m in (2**53 + 1, 2**54 - 1)]


def _leaf_or_pole(row):
    try:
        return dimension._leaf_values(*row)
    except DomainError:
        return None


def _record_blocks(monkeypatch):
    """(rows, undecided words) of each ``_table_leaves`` call, as the calls come."""
    blocks = []
    table_leaves = dimension._table_leaves

    def recording(rows, bound):
        result = table_leaves(rows, bound)
        blocks.append((len(rows[0]), len(result[2])))
        return result

    monkeypatch.setattr(dimension, "_table_leaves", recording)
    return blocks


class TestWordValueTable:
    @pytest.mark.parametrize("digits, n", TABLE_CASES,
                             ids=[f"k{len(d)}-n{n}-{i}" for i, (d, n) in enumerate(TABLE_CASES)])
    def test_bit_identical_to_recursion(self, digits, n):
        sups, bases = _word_value_table.__wrapped__(digits, n)
        ref_sups, ref_bases = _ref_word_value_table(digits, n)
        for got, ref in ((sups, ref_sups), (bases, ref_bases)):
            assert got.dtype == np.float64
            assert np.array_equal(got, ref)

    def test_long_double_tier_accepts_most_quotients(self, monkeypatch):
        if not dimension._EXTENDED_QUOTIENT:
            pytest.skip("long double has no 64-bit significand here")
        calls = []
        leaf_values = dimension._leaf_values
        monkeypatch.setattr(dimension, "_leaf_values", lambda *a: calls.append(a) or leaf_values(*a))
        blocks = _record_blocks(monkeypatch)
        sups, bases = _word_value_table.__wrapped__(NEAR_64, 8)
        # the rounding test accepts all but a few: the Python fallback runs,
        # for words of more than one block
        assert 0 < len(calls) < len(sups) // 50
        assert sum(slow > 0 for _, slow in blocks) > 1
        calls.clear()
        monkeypatch.setattr(dimension, "_EXTENDED_QUOTIENT", False)
        plain_sups, plain_bases = _word_value_table.__wrapped__(NEAR_64, 8)
        assert len(calls) == len(sups)
        assert np.array_equal(sups, plain_sups)
        assert np.array_equal(bases, plain_bases)

    @pytest.mark.skipif(not dimension._EXTENDED_QUOTIENT, reason="no 64-bit long double")
    def test_long_double_rounding_test_near_midpoints(self):
        # quotients near a float64 rounding midpoint, or exactly on one: the
        # long double error can put them on either side of it
        rng = random.Random(6)
        triples = _near_midpoint_triples(rng, 2000)
        den, nx, ny = (np.array(c, dtype=np.int64) for c in zip(*triples))
        exact = np.array([(4 * d) / (x * x + y * y) for d, x, y in triples])
        r, ok = dimension._long_double_quotients(den, nx, ny)
        assert np.array_equal(r[ok], exact[ok])
        assert not ok[-2:].any()
        # away from midpoints the test accepts
        far = den + np.array([rng.randrange(1 << 20, 1 << 40) for _ in triples])
        exact = np.array([(4 * int(d)) / (x * x + y * y) for d, (_, x, y) in zip(far, triples)])
        r, ok = dimension._long_double_quotients(far, nx, ny)
        assert ok.mean() > 0.95
        assert np.array_equal(r[ok], exact[ok])

    @pytest.mark.skipif(not dimension._EXTENDED_QUOTIENT, reason="no 64-bit long double")
    def test_long_double_bound_near_midpoints(self):
        # the same quotients with nx and ny known only to within err: an
        # accepted r must be the rounding of every quotient the bound allows,
        # and 4 den/q is monotone in each of nx and ny, so the corners decide
        rng = random.Random(7)
        triples = _near_midpoint_triples(rng, 2000)
        triples += [(d + rng.randrange(1 << 20, 1 << 40), x, y) for d, x, y in triples]
        errs = [x >> rng.randrange(36, 70) for _, x, _ in triples]
        den, nx, ny, err = (np.array(c, dtype=np.int64) for c in (*zip(*triples), errs))
        r, ok = dimension._long_double_quotients(den, nx, ny, err, err)
        for i in np.flatnonzero(ok).tolist():
            d, x, y = triples[i]
            for sign in (-1, 1):
                cx, cy = max(x + sign * errs[i], 0), max(y + sign * errs[i], 0)
                assert (4 * d) / (cx * cx + cy * cy) == r[i]
        assert not ok[2000:2002].any()
        # errors up to 2^-36 nx reject more, most of all near midpoints
        _, ok_exact = dimension._long_double_quotients(den, nx, ny)
        assert ok[:2000].mean() < ok[2002:].mean() < ok_exact[2002:].mean()
        assert ok[2002:].mean() > 0.5

    @pytest.mark.skipif(not dimension._EXTENDED_QUOTIENT, reason="no 64-bit long double")
    def test_long_double_terms_under_cancellation(self):
        # synthetic rows d = c w with Re w or Im w at or near 1/2 put
        # 2|Re(d conj c)| or 2|Im(d conj c)| within about |c| of |c|^2 = den,
        # with entries up to 2^62: every value the tier returns must match
        # the Python ints, and poles must be left to them
        rng = random.Random(8)
        rows = []
        for _ in range(6000):
            bits = rng.randrange(28, 61)
            cr, ci = rng.randrange(-(1 << bits), 1 << bits), rng.randrange(-(1 << bits), 1 << bits)
            half = [1 << 40, rng.randrange(1 << 36, 1 << 42)]  # 1/2 and about 1/2, over 2^41
            wr, wi = rng.choice(half), rng.randrange(-(3 << 41), 3 << 41)
            if rng.random() < 0.5:
                wr, wi = wi, rng.choice(half)
            wr, wi = rng.choice((wr, -wr)), rng.choice((wi, -wi))
            dr, di = (cr * wr - ci * wi) >> 41, (cr * wi + ci * wr) >> 41
            rows.append((cr, ci, dr, di))
        bound = max(map(abs, itertools.chain(*rows)))
        sups, bases, slow = dimension._table_leaves(
            [np.array(c, dtype=np.int64) for c in zip(*rows)], bound)
        decided = np.setdiff1d(np.arange(len(rows)), slow)
        assert 0.5 * len(rows) < len(decided) < len(rows)
        for i in decided.tolist():
            assert (sups[i], bases[i]) == _leaf_or_pole(rows[i])

    @pytest.mark.skipif(not dimension._EXTENDED_QUOTIENT, reason="no 64-bit long double")
    def test_large_entries_rarely_reach_python(self, monkeypatch):
        calls = []
        leaf_values = dimension._leaf_values
        monkeypatch.setattr(dimension, "_leaf_values", lambda *a: calls.append(a) or leaf_values(*a))
        sups, _ = _word_value_table.__wrapped__(((8, 0), (0, -8)), 14)
        assert 0 < len(calls) < len(sups) / 20

    @pytest.mark.parametrize("digits, n", [(((1, 3), (-1, -3)), 16), (((8, 0), (0, -8)), 14),
                                           (NEAR_INT64, 4), (NEAR_64, 6)])
    def test_plain_format_gives_the_same_tables(self, monkeypatch, digits, n):
        sups, bases = _word_value_table.__wrapped__(digits, n)
        monkeypatch.setattr(dimension, "_EXTENDED_QUOTIENT", False)
        plain_sups, plain_bases = _word_value_table.__wrapped__(digits, n)
        assert np.array_equal(sups, plain_sups)
        assert np.array_equal(bases, plain_bases)

    @pytest.mark.parametrize("n", [150, 2000])
    def test_deep_one_digit_table_matches_exact_composition(self, n):
        # rows of Python ints far past int64, against the exact rationals of
        # the composition; 1.0 / |d|^2 rounds |d|^2 first, so the base-point
        # value may be one rounding off the exact one (both are 0 at n 2000)
        sups, bases = _word_value_table.__wrapped__(((2, 2),), n)
        comp = BranchComposition.from_word([(2, 2)] * n)
        base = float(comp.base_deriv_exact())
        assert sups.tolist() == [float(comp.sup_deriv_exact())]
        assert abs(bases[0] - base) <= math.ulp(base)

    def test_build_keeps_bounded_working_memory(self, monkeypatch):
        # 2^18 words: beyond the table itself a build holds one block of
        # working arrays, and no block exceeds _EXACT_CHUNK words
        blocks = _record_blocks(monkeypatch)
        tracemalloc.start()
        try:
            sups, bases = _word_value_table.__wrapped__(_seeded(4, 3), 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (sups.nbytes + bases.nbytes)
        sizes = [size for size, _ in blocks]
        assert sum(sizes) == len(sups) and max(sizes) <= dimension._EXACT_CHUNK

    @pytest.mark.parametrize("digits, n", [(_digits(QUAD), 4), (_seeded(3, 2), 11)])
    def test_word_i_has_base_k_digits_of_i(self, digits, n):
        sups, bases = _word_value_table.__wrapped__(digits, n)
        k = len(digits)
        for i in random.Random(n).sample(range(k**n), 200):
            word = [digits[(i // k ** (n - 1 - j)) % k] for j in range(n)]
            comp = BranchComposition.from_word(word)
            assert sups[i] == float(comp.sup_deriv_exact())
            assert bases[i] == 1.0 / comp.d.norm_sq()

    def test_base_value_beyond_float_range(self):
        # |d|^2 of (2,2)^400 is too large for a float: 1.0 / |d|^2 overflows
        sups, bases = _word_value_table.__wrapped__(((2, 2),), 400)
        comp = BranchComposition.from_word([(2, 2)] * 400)
        with pytest.raises(OverflowError):
            1.0 / comp.d.norm_sq()
        assert bases[0] == 1 / comp.d.norm_sq()
        assert sups[0] == float(comp.sup_deriv_exact())

    @pytest.mark.parametrize("digits, n", [(((0, 0), (2, 2)), 2), (((0, 0), (2**70, 0)), 1)],
                             ids=["int64", "python-ints"])
    def test_pole_raises(self, digits, n):
        with pytest.raises(DomainError, match="derivative pole"):
            _word_value_table.__wrapped__(digits, n)


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

    def test_budget_error_payload(self):
        with pytest.raises(BudgetExceededError) as info:
            partition_sum(QUAD, 10, 1.0, max_words=1000)
        assert info.value.truncation_bound > 0
        # the bound is (sum of single-branch sups)^n, at or above the exact Z_n
        with pytest.raises(BudgetExceededError) as info:
            partition_sum(QUAD, 9, 1.0, max_words=1000)
        singles = math.fsum(
            float(BranchComposition.from_word([d]).sup_deriv_exact()) for d in QUAD.members()
        )
        assert info.value.truncation_bound == singles**9
        assert info.value.truncation_bound >= math.exp(9 * partition_sum(QUAD, 9, 1.0).log_zn_over_n)
        # at s = 0 the bound is 4^n, past the float range at n = 600
        with pytest.raises(BudgetExceededError) as info:
            partition_sum(QUAD, 600, 0.0)
        assert info.value.truncation_bound == math.inf

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
            mids.append(result.midpoint)
        assert mids[0] < mids[1] < mids[2]

    def test_infinite_alphabet_rejected(self):
        with pytest.raises(DomainError):
            bowen_dimension(DigitSet.d2())

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-3])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(DomainError):
            bowen_dimension(PAIR, tol=tol)

    def test_brackets_computed_once_per_s_and_n(self, monkeypatch):
        calls = []
        original = dimension.partition_sum

        def counting(alphabet, n, s, mode, *args):
            calls.append((n, s, mode))
            return original(alphabet, n, s, mode, *args)

        monkeypatch.setattr(dimension, "partition_sum", counting)
        result = bowen_dimension(PAIR, tol=1e-3, n_max=12)
        assert result.iterations == 11
        assert len(calls) == len(set(calls))

    def test_base_point_bracket_read_only_where_needed(self, monkeypatch):
        # a negative sup-norm upper bracket certifies the sign, so the only
        # base-point sum taken where it is negative is the reported
        # lower bracket at s_high
        calls = []
        original = dimension.partition_sum

        def recording(alphabet, n, s, mode, *args):
            calls.append((mode, s, n))
            return original(alphabet, n, s, mode, *args)

        monkeypatch.setattr(dimension, "partition_sum", recording)
        result = bowen_dimension(PAIR, tol=1e-3, n_max=12)
        base = [(s, n) for mode, s, n in calls if mode == "base_point"]
        assert len(base) < len(calls) - len(base)
        for s, n in base:
            if original(PAIR, n, s, "sup_norm").upper_bracket < 0:
                assert (s, n) == (result.s_high, result.n_used)

    def test_each_word_table_built_once_per_call(self):
        # every build is a cache miss; with no eviction each stays cached,
        # so as many misses as entries means no (digits, n) was built twice
        _word_value_table.cache_clear()
        bowen_dimension(PAIR, tol=1e-3, n_max=12)
        info = _word_value_table.cache_info()
        assert info.misses == info.currsize == 5  # word lengths 1, 2, 4, 8, 12
        assert info.hits > 0


class TestTau:
    def test_power_laws(self):
        n = np.arange(1, 100_001, dtype=float)
        assert abs(tau_exponent(n, 100_000).estimate - 1.0) < 1e-9
        assert abs(tau_exponent(n**2, 100_000).estimate - 0.5) < 1e-9
        assert abs(tau_exponent(n**0.5, 100_000).estimate - 2.0) < 1e-9

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

    def test_trajectory_shape(self):
        est = tau_exponent(np.arange(1, 2001, dtype=float), 2000)
        assert len(est.trajectory_ratio) == 2000
        assert est.anchor_index == 200


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
        res = upper_threshold(DigitSet.d2(), eps=0.5, tau=2.0)
        assert res.sum_at_cutoff <= 1.0 < res.sum_before_cutoff
        assert res.norm_cutoff > 1000

    def test_huge_eps_min_norm(self):
        s = DigitSet.with_min_norm_sq(10_000)
        res = upper_threshold(s, eps=10.0, tau=2.0)
        assert res.norm_cutoff == 100
        assert res.sum_at_cutoff <= 1.0

    def test_head_enumeration_matches_brute_force(self):
        s = DigitSet.with_min_norm_sq(10_000)
        p = 12.0
        primary = restricted_power_sum(s, 100, p, enum_norm_max=200)
        brute = 0.0
        for a in range(-200, 201):
            for b in range(-200, 201):
                ns = a * a + b * b
                if ns >= 10_000:
                    brute += ns ** (-p / 2.0)
        tail = tail_integral_bound(math.sqrt(200**2 + 1), p)
        assert brute <= primary <= brute + tail
        assert tail < 1e-20

    def test_eps_positive_required(self):
        with pytest.raises(DomainError):
            upper_threshold(DigitSet.d2(), eps=0.0, tau=2.0)
        with pytest.raises(DomainError):
            upper_threshold(DigitSet.d2(), eps=-1.0, tau=2.0)
