"""Named invariant checks behind ``hurwitzcf verify`` and the test suite.

Every check is a function ``(seed) -> (ok, witness)`` registered under
its suite with ``@check(suite, name)``; registration order is report
order.  ``run_suite`` turns each result into a {check, status, witness?}
entry, and pytest runs every registered check under its ``suite.name``
id, so adding a check means adding one registered function.  A suite
passes when every entry does.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from . import dimension, expansion, gaussian, ifs, svg
from .gaussian import ExactComplexRational, GaussianInt

Check = Callable[[int], tuple[bool, dict | None]]

# suite -> check name -> check, in report order
CHECKS: dict[str, dict[str, Check]] = {}


def check(suite: str, name: str) -> Callable[[Check], Check]:
    """Register a check under ``suite`` as ``name``."""

    def register(fn: Check) -> Check:
        CHECKS.setdefault(suite, {})[name] = fn
        return fn

    return register


def random_box_rationals(rng: np.random.Generator, count: int, max_denom_norm_sq: int):
    """Random Gaussian rationals p/q in the unit box, reduced exactly."""
    out = []
    while len(out) < count:
        qr = int(rng.integers(-100, 101))
        qi = int(rng.integers(-100, 101))
        if qr * qr + qi * qi == 0 or qr * qr + qi * qi > max_denom_norm_sq:
            continue
        pr = int(rng.integers(-200, 201))
        pi = int(rng.integers(-200, 201))
        q = GaussianInt(qr, qi)
        p = GaussianInt(pr, pi)
        n = Fraction(q.norm_sq())
        pc = p * q.conj()
        z = ExactComplexRational(pc.re / n, pc.im / n)
        z = z.sub_gaussian(gaussian.nearest_round(z))
        if z.in_unit_box():
            out.append(z)
    return out


@check("arith", "nearest_round_residual_in_box")
def _nearest_round_residual_in_box(seed: int):
    # each coordinate p/q of the corpus is drawn in the box, -q <= 2p < q,
    # not reduced into it by the rounding under test
    rng = np.random.default_rng(seed)
    q = rng.integers(1, 101, size=(200, 2))
    p = rng.integers(-(q // 2), (q + 1) // 2)
    for (pr, pi), (qr, qi) in zip(p.tolist(), q.tolist()):
        z = ExactComplexRational(Fraction(pr, qr), Fraction(pi, qi))
        g = gaussian.nearest_round(z)
        if not z.sub_gaussian(g).in_unit_box():
            # z already in the box rounds to 0; test a shifted copy too
            return False, {"z": str(z), "round": g.to_pair()}
        shifted = z.add_gaussian(GaussianInt(3, -2))
        if not shifted.sub_gaussian(gaussian.nearest_round(shifted)).in_unit_box():
            return False, {"z": str(shifted)}
    return True, None


@check("arith", "enumeration_monotone_duplicate_free")
def _enumeration_monotone_duplicate_free(seed: int):
    # (norm_sq, re, im) strictly increasing: norms never fall, no point
    # repeats, and ties come in (re, im) order
    keys = [(p.norm_sq(), p.re, p.im) for p in gaussian.points_by_norm(0, 5000)[:10_000]]
    return all(a < b for a, b in zip(keys, keys[1:])), None


@check("arith", "enumeration_index_norm_sandwich")
def _enumeration_index_norm_sandwich(seed: int):
    # for 10 <= n in ((2N+1)^2, (2N+2)^2]: N < |z_n| <= sqrt2 (N+1), in integers
    pts = gaussian.points_by_norm(0, 5000)[:10_000]
    checked = 0
    for bign in range(1, 50):
        for n in range(max((2 * bign + 1) ** 2 + 1, 10), (2 * bign + 2) ** 2 + 1):
            ns = pts[n - 1].norm_sq()
            if not bign * bign < ns <= 2 * (bign + 1) ** 2:
                return False, {"n": n, "N": bign, "norm_sq": ns}
            checked += 1
    return checked > 1000, {"checked": checked}


def _expansion_corpus(seed: int):
    return random_box_rationals(np.random.default_rng(seed), 300, 10_000)


@check("expansion", "expansion_roundtrip_exact")
def _expansion_roundtrip_exact(seed: int):
    for z in _expansion_corpus(seed):
        result = expansion.expand(z)
        if not result.terminated:
            return False, {"z": str(z), "reason": "no termination"}
        if expansion.evaluate(result.digits) != z:
            return False, {"z": str(z), "reason": "roundtrip mismatch"}
        if any(d.norm_sq() < 2 for d in result.digits):
            return False, {"z": str(z), "reason": "digit norm_sq < 2"}
    return True, None


@check("expansion", "shift_removes_first_digit")
def _shift_removes_first_digit(seed: int):
    checked = 0
    for z in _expansion_corpus(seed)[:120]:
        result = expansion.expand(z)
        if len(result.digits) < 2:
            continue
        if expansion.classify_digit(result.digits[0]) != "regular":
            continue
        _, shifted_z = expansion.hurwitz_step(z)
        shifted = expansion.expand(shifted_z)
        if shifted.digits.digits != result.digits.digits[1:]:
            return False, {"z": str(z)}
        checked += 1
    return checked > 10, {"checked": checked}


@check("expansion", "exceptional_set_is_the_sixteen")
def _exceptional_set_is_the_sixteen(seed: int):
    exc = expansion.exceptional_digits()
    expected = sorted(
        (
            GaussianInt(k, l)
            for k in range(-2, 3)
            for l in range(-2, 3)
            if 2 <= k * k + l * l < 8
        ),
        key=GaussianInt.lex_key,
    )
    return exc == expected and len(exc) == 16, {"got": [d.to_pair() for d in exc]}


@check("ifs", "contraction_sup_two_ninths")
def _contraction_sup_two_ninths(seed: int):
    sup = ifs.contraction_bound()
    ok = sup == ifs.CONTRACTION_SUP and sup < Fraction(2, 3)
    return ok, {"sup": str(sup), "expected": str(ifs.CONTRACTION_SUP)}


@check("ifs", "contraction_envelope_monotone")
def _contraction_envelope_monotone(seed: int):
    return ifs.contraction_envelope_check(100)


@check("ifs", "decay_bounds_over_box")
def _decay_bounds_over_box(seed: int):
    return ifs.validate_decay_bounds(norm_sq_max=64)


@check("ifs", "chain_rule_matches_matrix_exactly")
def _chain_rule_matches_matrix_exactly(seed: int):
    rng = np.random.default_rng(seed)
    words = [
        [(2, 2)],
        [(2, 2), (2, 2)],
        [(2, 2), (-2, 2), (3, 0)],
        [(0, 3), (3, 1), (-2, -2)],
        [(0, 3), (3, -1), (-2, -2)],
        [(4, 1), (2, 3)],
    ]
    for word in words:
        comp = ifs.BranchComposition.from_word(word)
        for z in random_box_rationals(rng, 5, 10_000):
            if comp.deriv_abs_exact(z) != ifs.chain_deriv_abs_exact(word, z):
                return False, {"word": [list(w) for w in word], "z": str(z)}
    return True, None


@check("ifs", "branch_images_separated")
def _branch_images_separated(seed: int):
    # cylinders of the 24 regular digits up to norm_sq 13: first digit and region read back
    spec = svg.TessellationSpec(norm_sq_max=13, include_exceptional=False)
    return svg.soundness_check(spec)


@check("ifs", "branch_images_nested")
def _branch_images_nested(seed: int):
    return ifs.nesting_check(ifs.d2_branches(25), pad=Fraction(1, 4))


@functools.lru_cache(maxsize=1)
def short_words() -> tuple[list[tuple[GaussianInt, ...]], list[np.ndarray]]:
    """Every word of length 1 to 3 over ``d2_branches(13)``, in
    ``itertools.product`` order by length, with its bottom rows
    (cr, ci, dr, di) as object arrays of Python ints.  Each level extends
    every composition of the level before by each branch, last digit
    fastest."""
    alphabet = ifs.d2_branches(13)
    comps, level = [], [ifs.BranchComposition.identity()]
    for _ in range(3):
        level = [prefix.extend(b) for prefix in level for b in alphabet]
        comps.extend(level)
    return [c.word for c in comps], list(np.array([c.matrix[4:] for c in comps], dtype=object).T)


@check("ifs", "distortion_words_within_k0")
def _distortion_words_within_k0(seed: int):
    # 25/9 <= the exact max of sup/inf |Dphi| over short words <= K0, and
    # K0 >= (2 sqrt2 - 1)^2 = 9 - 4 sqrt2, i.e. t = 9 - K0 <= 0 or t^2 <= 32
    words, rows = short_words()
    far, near, _ = ifs.box_distortion_terms(*rows)
    worst = max(range(len(words)), key=lambda j: Fraction(far[j], near[j]))
    word_max = Fraction(far[worst], near[worst])
    single = ifs.max_single_branch_distortion()
    k0 = Fraction(ifs.COMPOSITION_DISTORTION_BOUND)
    t = 9 - k0
    ok = single == ifs.SINGLE_BRANCH_DISTORTION_MAX <= word_max <= k0 and (t <= 0 or t * t <= 32)
    return ok, {
        "max": str(single),
        "expected": str(ifs.SINGLE_BRANCH_DISTORTION_MAX),
        "word": [g.to_pair() for g in words[worst]],
        "word_max": str(word_max),
        "k0": ifs.COMPOSITION_DISTORTION_BOUND,
    }


@check("ifs", "ball_inclusion")
def _ball_inclusion(seed: int):
    words, rows = short_words()
    holds = ifs.ball_inclusion_holds(*rows, Fraction(1, 2), ifs.COMPOSITION_DISTORTION_BOUND)
    bad = np.flatnonzero(~holds)
    return not bad.size, {"word": [g.to_pair() for g in words[bad[0]]]} if bad.size else None


_PAIR = dimension.DigitSet.from_branches([(2, 2), (-2, -2)])
_QUAD = dimension.DigitSet.from_branches([(2, 2), (-2, -2), (3, 0), (0, 3)])


@check("pressure", "partition_submultiplicative")
def _partition_submultiplicative(seed: int):
    for s in (0.4, 0.5, 0.8, 1.0, 1.3):
        z = {
            n: math.exp(dimension.partition_sum(_QUAD, n, s, "sup_norm").log_zn_over_n * n)
            for n in range(1, 7)
        }
        for m in range(1, 6):
            for n in range(1, 7 - m):
                if z[m + n] > z[m] * z[n] * (1 + 1e-12):
                    return False, {"s": s, "m": m, "n": n}
    return True, None


@check("pressure", "single_branch_dimension_zero")
def _single_branch_dimension_zero(seed: int):
    single = dimension.bowen_dimension(dimension.DigitSet.from_branches([(2, 2)]), n_max=8)
    return (single.s_low, single.s_high, single.conclusive) == (0.0, 0.0, True), single.to_json()


@check("pressure", "two_branch_bisection_sign_invariants")
def _two_branch_bisection_sign_invariants(seed: int):
    pair = dimension.bowen_dimension(_PAIR, tol=1e-3)
    ok = pair.upper_at_low >= 0.0 >= pair.lower_at_high and 0.0 < pair.s_low <= pair.s_high < 2.0
    return ok and pair.width <= 1e-3, pair.to_json()


@check("pressure", "dimension_references_enclosed")
def _dimension_references_enclosed(seed: int):
    # transfer-operator dimensions that agree to 1e-10 between two
    # discretisations; the annulus estimate, at word length 3, within 5e-5
    for alphabet, reference, slack in ((_PAIR, 0.330994621888, 0.0),
                                       (dimension.DigitSet.annulus(8, 17), 1.41902644, 5e-5)):
        r = dimension.bowen_dimension(alphabet, tol=1e-3)
        if not (r.enclosure[0] <= reference <= r.enclosure[1]
                and r.s_low - slack <= reference <= r.s_high + slack):
            return False, dict(r.to_json(), reference=reference)
    return True, None


@check("pressure", "word_table_encloses_exact")
def _word_table_encloses_exact(seed: int):
    # exact <= sup <= exact (1 + kappa u) and exact (1 - kappa u) <= base <= exact
    members = _QUAD.members()
    sups, bases = dimension._word_value_table(_QUAD._member_coords(), 4)
    kappa_u = Fraction(dimension._KAPPA, 1 << 53)
    for word, sup, base in zip(itertools.product(members, repeat=4), sups, bases):
        comp = ifs.BranchComposition.from_word(word)
        exact_sup, exact_base = comp.sup_deriv_exact(), comp.base_deriv_exact()
        if not (exact_sup <= sup <= exact_sup * (1 + kappa_u)
                and exact_base * (1 - kappa_u) <= base <= exact_base):
            return False, {"word": [g.to_pair() for g in word], "sup": sup, "base": base}
    return True, None


@functools.lru_cache(maxsize=1)
def _d2_schedule():
    """The d2 schedule for growth sqrt(n) at horizon 10^4, built once per run.

    The bound binds: block m must clear |z_{m+1}|, which sqrt(n) reaches
    only from step |z_{m+1}|^2 on, so clearance rather than the ratio rule
    sets 19 of the 98 block starts, and a builder that clears a larger bound
    than the one checked fails growth_domination.  Under n+3 the ratio rule
    set every start, and no such builder could fail.  The schedule truncates
    at block 98, past the chain's cutoff block (91 at delta 0.1)."""
    growth = dimension.GrowthFunction("sqrt(n)")
    sched = dimension.build_schedule(
        dimension.DigitSet.d2(), growth, eps=0.5, horizon=10_000, ratio_tol=0.1
    )
    return sched, growth


for _name, _fn in dimension.SCHEDULE_CHECKS:
    check("schedule", _name)(lambda seed, fn=_fn: fn(*_d2_schedule()))


@check("schedule", "subexponential_final_window")
def _subexponential_final_window(seed: int):
    # the maximum subexp_check reads at block heads is the maximum of
    # log(size)/n over every step of the final window, and below tolerance
    sched = _d2_schedule()[0]
    traj = dimension.subexp_check(sched)
    ns = np.arange(max(int(0.9 * sched.horizon), 1), sched.horizon + 1)
    scan = float((np.log([float(max(sched.block_of(n).count, 1)) for n in ns]) / ns).max())
    return traj.ok and traj.final_window_max == scan, {"max": traj.final_window_max, "scan": scan}


@check("schedule", "lower_bound_chain_n_independent")
def _lower_bound_chain_n_independent(seed: int):
    sched = _d2_schedule()[0]
    last = sched.blocks[-1]
    results = [
        dimension.verify_lower_bound_chain(sched, eps=0.5, delta=0.1, n=n)
        for n in (last.start, last.start + 1, last.start + last.t // 2, last.end)
    ]
    ok = (
        all(r.positive and math.isfinite(r.log_lower_bound) for r in results)
        and len({r.log_lower_bound for r in results}) == 1
    )
    return ok, results[0].to_json()


SUITES = (*CHECKS, "all")


def run_check(fn: Check, seed: int) -> tuple[bool, dict | None]:
    """Run one check; an exception becomes a failure with its message."""
    try:
        return fn(seed)
    except Exception as exc:
        return False, {"error": str(exc)}


def run_suite(name: str, seed: int = 1) -> list[dict]:
    """{check, status, witness?} entries of a suite; ``all`` prefixes suite names."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    suites = list(CHECKS) if name == "all" else [name]
    return [
        dimension.check_entry(
            f"{suite}.{check_name}" if name == "all" else check_name, *run_check(fn, seed)
        )
        for suite in suites
        for check_name, fn in CHECKS[suite].items()
    ]
