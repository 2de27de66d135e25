"""Every check that ``hurwitzcf verify all`` reports, one test id per check.

The ids are the ``verify all`` names (``suite.check``), so a check
registered in ``hurwitzcf.verify`` runs here with no further test code.
"""

import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hurwitzcf import dimension, expansion, gaussian, ifs, svg, verify
from hurwitzcf.config import RunConfig
from hurwitzcf.gaussian import GaussianInt
from hurwitzcf.verify import CHECKS, short_words

NAMES = [f"{suite}.{name}" for suite, checks in CHECKS.items() for name in checks]

# the names `verify all` reports, in report order
VERIFY_ALL = [
    "arith.nearest_round_residual_in_box",
    "arith.enumeration_monotone_duplicate_free",
    "arith.enumeration_index_norm_sandwich",
    "expansion.expansion_roundtrip_exact",
    "expansion.shift_removes_first_digit",
    "expansion.exceptional_set_is_the_sixteen",
    "ifs.contraction_sup_two_ninths",
    "ifs.contraction_envelope_monotone",
    "ifs.decay_bounds_over_box",
    "ifs.chain_rule_matches_matrix_exactly",
    "ifs.branch_images_separated",
    "ifs.branch_images_nested",
    "ifs.distortion_words_within_k0",
    "ifs.ball_inclusion",
    "pressure.partition_submultiplicative",
    "pressure.single_branch_dimension_zero",
    "pressure.two_branch_bisection_sign_invariants",
    "pressure.dimension_references_enclosed",
    "pressure.word_table_encloses_exact",
    "schedule.anchor_start_at_min_norm",
    "schedule.anchors_strictly_increasing",
    "schedule.annulus_weight_at_least_one",
    "schedule.block_membership",
    "schedule.growth_domination",
    "schedule.ratio_tolerance_schedule",
    "schedule.blocks_tile_horizon",
    "schedule.subexponential_final_window",
    "schedule.lower_bound_chain_n_independent",
]


def test_verify_all_names_pinned():
    # a fold that drops, renames or reorders a reported check changes this list
    assert NAMES == VERIFY_ALL


@pytest.mark.parametrize("name", NAMES)
def test_registered_check(name):
    suite, _, check = name.partition(".")
    ok, witness = CHECKS[suite][check](RunConfig())
    assert ok, witness


def test_ifs_checks_survive_optimised_python():
    # `python -O` strips assert statements; the checks must not rely on them
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-m", "hurwitzcf.cli", "verify", "ifs"],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_contraction_check_names_both_values(monkeypatch):
    monkeypatch.setattr(ifs, "CONTRACTION_SUP", Fraction(1, 5))
    ok, witness = CHECKS["ifs"]["contraction_sup_two_ninths"](RunConfig())
    assert not ok
    assert witness == {"sup": "2/9", "expected": "1/5"}


def test_distortion_check_names_both_values(monkeypatch):
    monkeypatch.setattr(ifs, "SINGLE_BRANCH_DISTORTION_MAX", Fraction(3, 1))
    ok, witness = CHECKS["ifs"]["distortion_words_within_k0"](RunConfig())
    assert not ok
    assert (witness["max"], witness["expected"]) == ("25/9", "3")


# each exact ifs check fails once its input is mutated


def test_distortion_check_refutes_k0_below_word_max(monkeypatch):
    # the exact max over words of length <= 3 is 961/289 = 3.3253
    monkeypatch.setattr(ifs, "COMPOSITION_DISTORTION_BOUND", 3.3)
    ok, witness = CHECKS["ifs"]["distortion_words_within_k0"](RunConfig())
    assert not ok
    assert Fraction(witness["word_max"]) == Fraction(961, 289) > Fraction(3.3)


@pytest.mark.parametrize("name, value", [("DECAY_C1", Fraction(17, 25)),
                                         ("DECAY_C2", Fraction(8, 5))])
def test_decay_check_refutes_mutated_constant(monkeypatch, name, value):
    monkeypatch.setattr(ifs, name, value)
    ok, witness = CHECKS["ifs"]["decay_bounds_over_box"](RunConfig())
    assert not ok
    assert witness["branch"] == [-2, -2]


def test_envelope_check_refutes_small_sup(monkeypatch):
    # envelope(9) = 1/(3 - sqrt2/2)^2 = 0.190 is not below 1/6
    monkeypatch.setattr(ifs, "CONTRACTION_SUP", Fraction(1, 6))
    ok, witness = CHECKS["ifs"]["contraction_envelope_monotone"](RunConfig())
    assert not ok and witness["check"] == "envelope(9) < sup"


def test_nesting_check_refutes_pad_whose_image_leaves():
    # for (2, 2) the corner image leaves box_h once h passes 1 + 1/sqrt2
    assert ifs.nesting_check(ifs.d2_branches(25), pad=Fraction(6, 5)) == (True, None)
    ok, witness = ifs.nesting_check(ifs.d2_branches(25), pad=Fraction(5, 4))
    assert not ok
    assert (witness["branch"], witness["half_width"]) == ([-2, -2], "7/4")


def test_separation_check_refutes_wrong_first_digit(monkeypatch):
    monkeypatch.setattr(svg, "_euclid_step", lambda ar, ai, br, bi: (0, 0, br, bi))
    ok, witness = CHECKS["ifs"]["branch_images_separated"](RunConfig())
    assert not ok
    assert (witness["check"], witness["region"]) == ("first_digit", [-2, -2])


def test_separation_check_refutes_swapped_region_ids(monkeypatch):
    render = svg._document  # the check reads render_svg's document through it
    swap = {'id="cyl_-2_-2"': 'id="cyl_2_2"', 'id="cyl_2_2"': 'id="cyl_-2_-2"'}
    monkeypatch.setattr(svg, "_document", lambda spec, rows: re.sub(
        "|".join(swap), lambda m: swap[m.group()], render(spec, rows)))
    ok, witness = CHECKS["ifs"]["branch_images_separated"](RunConfig())
    assert not ok
    assert witness["check"] == "regions"
    assert witness["found"][0] == [2, 2] and witness["expected"][0] == [-2, -2]


def test_short_words_rows_are_the_composition_matrices():
    words, rows = short_words()
    assert words == [w for n in range(1, 4) for w in itertools.product(ifs.d2_branches(13), repeat=n)]
    assert all(column.dtype == object for column in rows)
    for j, word in enumerate(words):
        got = tuple(column[j] for column in rows)
        assert all(type(v) is int for v in got)
        assert got == ifs.BranchComposition.from_word(word).matrix[4:], word


def test_ball_inclusion_refutes_k_below_one_third():
    words, rows = short_words()
    assert ifs.ball_inclusion_holds(*rows, Fraction(1, 2), ifs.COMPOSITION_DISTORTION_BOUND).all()
    assert not ifs.ball_inclusion_holds(*rows, Fraction(1, 2), Fraction(3, 10)).any()


# one mutant per schedule check: the builder, the growth bound or the chain
# goes wrong, and the check must say so; no check threshold is touched


def _builder(mutant):
    """The suite's d2 schedule built by ``mutant(build_schedule, s, f, **options)``."""
    def apply(monkeypatch):
        real = dimension.build_schedule
        monkeypatch.setattr(dimension, "build_schedule",
                            lambda s, f, **options: mutant(real, s, f, **options))
    return apply


def _built(change):
    """The real schedule passed through ``change``."""
    return _builder(lambda real, s, f, **options: change(real(s, f, **options)))


def _block_replaced(sched, index, **fields):
    blocks = list(sched.blocks)
    blocks[index] = dataclasses.replace(blocks[index], **fields)
    return dataclasses.replace(sched, blocks=tuple(blocks))


def _anchor_one_shell_short(monkeypatch):
    # each anchor stops at the shell before the one where the weight reaches 1
    real = dimension._ShellTable.anchor_after

    def short(self, norm_sq_lo, exponent):
        return self.shell(int(self.values.searchsorted(real(self, norm_sq_lo, exponent))) - 1)

    monkeypatch.setattr(dimension._ShellTable, "anchor_after", short)


def _chain_charges_every_step(monkeypatch):
    # the decay factor c1^s charged at every step up to n, not only in the first N blocks
    real = dimension.verify_lower_bound_chain

    def chain(sched, eps, delta, n):
        r = real(sched, eps, delta, n)
        extra = (n - r.n_independent_from) * r.s_value * math.log(float(ifs.DECAY_C1))
        return dataclasses.replace(r, log_lower_bound=r.log_lower_bound + extra)

    monkeypatch.setattr(dimension, "verify_lower_bound_chain", chain)


def _subexp_read_at_block_ends(monkeypatch):
    # subexp_check reads each block of the final window at its last step,
    # not at its first step in the window
    real = dimension.subexp_check

    def subexp(sched):
        traj = real(sched)
        ends = traj.starts[1:] - 1
        inside = ends >= max(int(0.9 * sched.horizon), 1)
        return dataclasses.replace(
            traj, final_window_max=float((traj.log_sizes[inside] / ends[inside]).max()))

    monkeypatch.setattr(dimension, "subexp_check", subexp)


SCHEDULE_MUTANTS = {
    # the builder skips the smallest shell of d2, norm_sq 8
    "anchor_start_at_min_norm": _builder(lambda real, s, f, **options: dataclasses.replace(
        real(dimension.DigitSet.with_min_norm_sq(9), f, **options), digit_set=s)),
    # the builder repeats its second anchor
    "anchors_strictly_increasing": _built(lambda sched: dataclasses.replace(
        sched, anchors=sched.anchors[:2] + sched.anchors[1:])),
    "annulus_weight_at_least_one": _anchor_one_shell_short,
    # the builder miscounts the pool of block 3 by one member
    "block_membership": _built(lambda sched: _block_replaced(
        sched, 2, count=sched.blocks[2].count + 1)),
    # the builder clears 1.1 f while the schedule still names f
    "growth_domination": _builder(lambda real, s, f, **options: dataclasses.replace(
        real(s, lambda n: 1.1 * f(n), **options), f_source=f.source)),
    # the builder builds to twice the tolerance it declares
    "ratio_tolerance_schedule": _builder(lambda real, s, f, ratio_tol, **options: (
        dataclasses.replace(real(s, f, ratio_tol=2 * ratio_tol, **options), ratio_tol=ratio_tol))),
    # the last block stops one step short of the horizon
    "blocks_tile_horizon": _built(lambda sched: _block_replaced(sched, -1, t=sched.blocks[-1].t - 1)),
    "subexponential_final_window": _subexp_read_at_block_ends,
    "lower_bound_chain_n_independent": _chain_charges_every_step,
}
SCHEDULE_NAMES = [name.split(".", 1)[1] for name in VERIFY_ALL if name.startswith("schedule.")]


def test_schedule_mutants_cover_the_suite():
    assert len(SCHEDULE_NAMES) == 9
    assert list(SCHEDULE_MUTANTS) == SCHEDULE_NAMES == list(CHECKS["schedule"])


@pytest.fixture
def fresh_d2_schedule():
    # the suite builds its schedule once per run; each mutant needs its own
    verify._d2_schedule.cache_clear()
    yield
    verify._d2_schedule.cache_clear()


@pytest.mark.parametrize("name", SCHEDULE_NAMES)
def test_schedule_check_fails_under_its_mutant(monkeypatch, fresh_d2_schedule, name):
    SCHEDULE_MUTANTS[name](monkeypatch)
    ok, witness = CHECKS["schedule"][name](RunConfig())
    assert not ok, witness


def test_growth_domination_binds_on_the_suite_schedule(monkeypatch, fresh_d2_schedule):
    # some block starts at the first step from which f clears its level, and
    # neither the ratio rule nor the step after the previous start sets it
    sched, f = verify._d2_schedule(RunConfig().ratio_tol)
    values = np.array([f(n) for n in range(1, sched.horizon + 1)])
    binding = []
    for prev, blk in zip(sched.blocks, sched.blocks[1:]):
        short = np.flatnonzero(values < math.sqrt(sched.anchors[blk.index].norm_sq()))
        clearance = int(short[-1]) + 2 if short.size else 1
        ratio_need = math.ceil(blk.index * math.log(max(blk.count, 2)) / sched.ratio_tol)
        if blk.start == clearance > max(ratio_need, prev.start + 1):
            binding.append(blk.index)
    assert binding
    # a mutant that swaps the suite's bound tests another schedule, not this one
    for name, mutant in SCHEDULE_MUTANTS.items():
        verify._d2_schedule.cache_clear()
        with monkeypatch.context() as patch:
            mutant(patch)
            sched, f = verify._d2_schedule(RunConfig().ratio_tol)
        assert f.source == sched.f_source == "sqrt(n)", name


# one mutant per pressure check: the word table, the pressure estimate or
# the root search goes wrong, and the check must say so; no check threshold
# is touched


def _leaves_then(change):
    """``_table_leaves`` whose sups then go through ``change``, in place."""
    def apply(monkeypatch):
        real = dimension._table_leaves

        def leaves(rows, sups, bases):
            slow = real(rows, sups, bases)
            change(sups)
            return slow

        monkeypatch.setattr(dimension, "_table_leaves", leaves)
    return apply


def _one_branch_too_many(monkeypatch):
    # a one-digit alphabet is counted as two, so bowen_dimension searches for a root
    real = dimension._branch_count
    monkeypatch.setattr(dimension, "_branch_count", lambda alphabet: real(alphabet) + 1)


def _root_search_sign_flipped(monkeypatch):
    # the root search keeps the end where f is negative
    real = dimension._bracketed_root
    monkeypatch.setattr(dimension, "_bracketed_root",
                        lambda f, a, b, tol: real(lambda s: -f(s), a, b, tol))


def _estimate_table_one_digit_long(monkeypatch):
    # the estimate's base-only table is built at n, not n - 1, so the power
    # method compares log Z_base(n) with itself
    real = dimension._word_value_table
    monkeypatch.setattr(dimension, "_word_value_table",
                        lambda digits, n, bases_only=False: real(digits, n + bases_only, bases_only))


def _tile_out_of_phase(monkeypatch):
    # every level meets the digit columns one digit late: the words are
    # enumerated in another order, so word i no longer has the digits of i
    real = dimension._extend_levels
    monkeypatch.setattr(dimension, "_extend_levels", lambda rows, xr, xi, k, levels: real(
        rows, np.roll(xr, 1), np.roll(xi, 1), k, levels))


PRESSURE_MUTANTS = {
    # the leaves drop the factor 4 of sup = 4 den/q
    "partition_submultiplicative": _leaves_then(lambda sups: np.multiply(sups, 0.25, out=sups)),
    "single_branch_dimension_zero": _one_branch_too_many,
    "two_branch_bisection_sign_invariants": _root_search_sign_flipped,
    "dimension_references_enclosed": _estimate_table_one_digit_long,
    "word_table_encloses_exact": _tile_out_of_phase,
}
PRESSURE_NAMES = [name.split(".", 1)[1] for name in VERIFY_ALL if name.startswith("pressure.")]


def test_pressure_mutants_cover_the_suite():
    assert len(PRESSURE_NAMES) == 5
    assert list(PRESSURE_MUTANTS) == PRESSURE_NAMES == list(CHECKS["pressure"])


@pytest.mark.parametrize("name", PRESSURE_NAMES)
def test_pressure_check_fails_under_its_mutant(monkeypatch, name):
    PRESSURE_MUTANTS[name](monkeypatch)
    ok, witness = CHECKS["pressure"][name](RunConfig())
    assert not ok, witness


# one mutant per arith check: the counting, the rounding or the enumeration
# goes wrong, and the check must say so; no check threshold is touched


def _patched(module, name, wrap):
    """``module.<name>`` replaced by ``wrap(real)``."""
    def apply(monkeypatch):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return apply


def _round_off_past_two(real):
    # one too far along the real axis for real parts beyond 2; the check's
    # shifted copies (z + 3 - 2i) all land there
    return lambda z: real(z) + GaussianInt(int(z.re > 2), 0)


def _rows_duplicated(real):
    # the second norm-2 point repeats the first, in place of (-1, 1)
    def rows(lo, hi):
        out = real(lo, hi).copy()
        out[6] = out[5]
        return out
    return rows


def _half_turns_dropped(real):
    # only the points times 1 and i: two rotations of the first quadrant of four
    def rows(lo, hi):
        out = real(lo, hi)
        keep = (out[:, 0] > 0) & (out[:, 1] >= 0) | (out[:, 0] <= 0) & (out[:, 1] > 0)
        return out[keep | (out == 0).all(axis=1)]
    return rows


ARITH_MUTANTS = {
    "nearest_round_residual_in_box": _patched(gaussian, "nearest_round", _round_off_past_two),
    "enumeration_monotone_duplicate_free": _patched(gaussian, "lattice_points", _rows_duplicated),
    "enumeration_index_norm_sandwich": _patched(gaussian, "lattice_points", _half_turns_dropped),
}
ARITH_NAMES = [name.split(".", 1)[1] for name in VERIFY_ALL if name.startswith("arith.")]


def test_arith_mutants_cover_the_suite():
    assert len(ARITH_NAMES) == 3
    assert list(ARITH_MUTANTS) == ARITH_NAMES == list(CHECKS["arith"])


@pytest.mark.parametrize("name", ARITH_NAMES)
def test_arith_check_fails_under_its_mutant(monkeypatch, name):
    ARITH_MUTANTS[name](monkeypatch)
    ok, witness = CHECKS["arith"][name](RunConfig())
    assert not ok, witness


def test_nearest_round_check_refutes_flooring(monkeypatch):
    # floor(x) in place of floor(x + 1/2) sends every coordinate in [-1/2, 0)
    # out of the box; a corpus reduced by the same rounding would hide it
    monkeypatch.setattr(gaussian, "nearest_round",
                        lambda z: GaussianInt(math.floor(z.re), math.floor(z.im)))
    ok, witness = CHECKS["arith"]["nearest_round_residual_in_box"](RunConfig())
    assert not ok, witness


def _tie_swapped(real):
    # the first two norm-2 points change places: norms never fall and no
    # point repeats, but the shell leaves (re, im) order
    def rows(lo, hi):
        out = real(lo, hi).copy()
        out[[5, 6]] = out[[6, 5]]
        return out
    return rows


def test_enumeration_check_refutes_a_tie_out_of_order(monkeypatch):
    _patched(gaussian, "lattice_points", _tie_swapped)(monkeypatch)
    ok, witness = CHECKS["arith"]["enumeration_monotone_duplicate_free"](RunConfig())
    assert not ok, witness


# one mutant per expansion check: the map, its step or the digit alphabet
# goes wrong, and the check must say so


EXPANSION_MUTANTS = {
    # the continuant reads the digits last first
    "expansion_roundtrip_exact": _patched(
        expansion, "evaluate", lambda real: lambda word: real(tuple(word)[::-1])),
    # the step applies the map twice, so its iterate has lost two digits
    "shift_removes_first_digit": _patched(
        expansion, "hurwitz_step", lambda real: lambda z: (real(z)[0], real(real(z)[1])[1])),
    # the four units of norm_sq 1 count as digits
    "exceptional_set_is_the_sixteen": lambda monkeypatch: monkeypatch.setattr(
        expansion, "MIN_DIGIT_NORM_SQ", 1),
}


@pytest.mark.parametrize("name", list(EXPANSION_MUTANTS))
def test_expansion_check_fails_under_its_mutant(monkeypatch, name):
    EXPANSION_MUTANTS[name](monkeypatch)
    ok, witness = CHECKS["expansion"][name](RunConfig())
    assert not ok, witness


# one mutant per ifs check: the branch alphabet, the derivative bounds, the
# compositions or the rendered cylinders go wrong, and the check must say so


def _sup_at_far_corner(monkeypatch):
    # the supremum over the box is taken where the infimum is
    monkeypatch.setattr(ifs.BranchComposition, "sup_deriv_exact",
                        ifs.BranchComposition.inf_deriv_exact)


def _exceptional_branches(monkeypatch):
    # the branches start at the exceptional shell of norm_sq 5, not at 8
    monkeypatch.setattr(ifs, "REGULAR_NORM_SQ", 5)


def _words_reversed(monkeypatch):
    # a word's matrix multiplies its branches in the opposite order
    real = ifs.BranchComposition.from_word
    monkeypatch.setattr(ifs.BranchComposition, "from_word",
                        classmethod(lambda cls, word: real(list(word)[::-1])))


def _class_below(real):
    # each norm class is paired with the sup of the class below it
    def classes(norm_sq_max):
        out = real(norm_sq_max)
        return [(ns, v) for (ns, _), (_, v) in zip(out[1:], out)]
    return classes


IFS_MUTANTS = {
    "contraction_sup_two_ninths": _sup_at_far_corner,
    "contraction_envelope_monotone": _patched(ifs, "sup_deriv_by_norm_class", _class_below),
    "decay_bounds_over_box": _exceptional_branches,
    "chain_rule_matches_matrix_exactly": _words_reversed,
    # every region draws the box of its right neighbour
    "branch_images_separated": _patched(
        svg, "region_paths", lambda real: lambda rows: real(rows + [1, 0])),
    "branch_images_nested": _exceptional_branches,
    # the near and far corners change places
    "distortion_words_within_k0": _patched(
        ifs, "box_distortion_terms",
        lambda real: lambda *rows: (lambda far, near, den: (near, far, den))(*real(*rows))),
    # the bottom row is read as (d, c)
    "ball_inclusion": _patched(
        ifs, "ball_inclusion_holds",
        lambda real: lambda cr, ci, dr, di, *bound: real(dr, di, cr, ci, *bound)),
}


@pytest.mark.parametrize("name", list(IFS_MUTANTS))
def test_ifs_check_fails_under_its_mutant(monkeypatch, name):
    IFS_MUTANTS[name](monkeypatch)
    ok, witness = CHECKS["ifs"][name](RunConfig())
    assert not ok, witness


def test_every_reported_check_has_a_mutant():
    # a check added to `verify all` without a mutant fails here
    tables = {"arith": ARITH_MUTANTS, "expansion": EXPANSION_MUTANTS, "ifs": IFS_MUTANTS,
              "pressure": PRESSURE_MUTANTS, "schedule": SCHEDULE_MUTANTS}
    assert [f"{suite}.{name}" for suite, table in tables.items() for name in table] == VERIFY_ALL
