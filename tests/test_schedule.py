import ast
import bisect
import functools
import itertools
import math
import random
import re
import struct
import types
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitzcf import (
    DigitSet,
    DomainError,
    GrowthFunction,
    build_schedule,
    subexp_check,
    validate_schedule,
    verify_lower_bound_chain,
)
from hurwitzcf import dimension
from hurwitzcf.cli import cli
from hurwitzcf.dimension import (
    _GROWTH_BLOCK, SCHEDULE_CHECKS, _clearance_query, _growth_values, check_entry)


class TestGrowthFunction:
    def test_basic_expressions(self):
        assert GrowthFunction("n+3")(7) == 10.0
        assert GrowthFunction("2*n")(5) == 10.0
        assert GrowthFunction("n^2")(3) == 9.0
        assert GrowthFunction("n^1.5")(4) == 8.0
        assert GrowthFunction("max(10, n/2)")(4) == 10.0
        assert GrowthFunction("max(10, n/2)")(40) == 20.0
        assert GrowthFunction("log(n)+5")(1) == 5.0
        assert GrowthFunction("sqrt(n)")(49) == 7.0
        assert GrowthFunction("(n+1)*(n-1)")(5) == 24.0
        assert GrowthFunction("-1+n")(3) == 2.0
        assert GrowthFunction("-n^2")(3) == -9.0  # ^ binds tighter than unary minus
        assert GrowthFunction("2*-n^2")(3) == -18.0

    def test_bad_expressions(self):
        for bad in ("", "n+", "2**n", "foo(n)", "n$", "max(n)", "1e", "1.2.3", "e5",
                    # Python syntax outside the grammar
                    "0x10", "1j", "True", "n.real", "__import__('os')", "(lambda: n)()",
                    "[n][0]", "log(n, 2)", "max(n, n, n)", "max(a=n, b=1)", "n if n else 1",
                    "n % 2", "n // 2", "n < 1", "1if n else 2", "n # 2", "n+\\\n1",
                    # float() spellings, leading zeros, newlines, non-ASCII digits, 4301 digits
                    "inf", "nan", "05", "n\n+1", "\uff12*n", "1" * 4301):
            with pytest.raises(DomainError):
                GrowthFunction(bad)

    @pytest.mark.parametrize(
        "source", ["-" * 3000 + "n", "(" * 1500 + "n" + ")" * 1500, "n+" * 3000 + "n",
                   "-" * 10_000 + "n", "n^" * 3000 + "n"],
        ids=["minus", "parentheses", "terms", "parser-stack-minus", "parser-stack-power"],
    )
    def test_deep_expressions_are_domain_errors(self, source):
        with pytest.raises(DomainError, match="nested too deeply|too many nested"):
            GrowthFunction(source)

    def test_underscore_digit_groups(self):
        assert GrowthFunction("1_0*n")(2) == 20.0

    # each bench and README growth bound beside the same arithmetic in Python
    PYTHON_ARITHMETIC = [
        ("n+3", lambda n: n + 3),
        ("10", lambda n: 10.0),
        ("2*n+1", lambda n: 2 * n + 1),
        ("max(10, sqrt(n))", lambda n: max(10, math.sqrt(n))),
        ("5*log(n+1)+4", lambda n: 5 * math.log(n + 1) + 4),
        ("n^2", lambda n: n**2),
        ("1e-3*n+5", lambda n: 1e-3 * n + 5),
        ("-n^2+200", lambda n: -n**2 + 200),
    ]

    @pytest.mark.parametrize("source, python", PYTHON_ARITHMETIC,
                             ids=[s for s, _ in PYTHON_ARITHMETIC])
    def test_bit_identical_to_python_arithmetic(self, source, python):
        f = GrowthFunction(source)
        for n in (1, 2, 3, 7, 50, 999, 2048, 3000, 12_000, 10**6 + 1):
            assert f(n) == python(float(n)), (source, n)

    @pytest.mark.parametrize(
        "source, n",
        [("log(n-5)+100", 5), ("sqrt(n-100)+50", 99), ("(n-100)^0.5+50", 99), ("10^n", 400),
         ("1/(n-50)", 50)],
    )
    def test_domain_errors_name_expression_and_n(self, source, n):
        with pytest.raises(DomainError, match=rf"{re.escape(repr(source))}.* n = {n}\b"):
            GrowthFunction(source)(n)

    def test_signed_exponents(self):
        assert GrowthFunction("1e-3*n+5")(1000) == 6.0
        assert GrowthFunction("2.5E+1")(0) == 25.0


# The closure builder that evaluated growth bounds before they were compiled,
# kept as the reference the compiled form must match bit for bit.
_REFERENCE_BINARY = {
    ast.Add: lambda a, b: lambda n: a(n) + b(n),
    ast.Sub: lambda a, b: lambda n: a(n) - b(n),
    ast.Mult: lambda a, b: lambda n: a(n) * b(n),
    ast.Div: lambda a, b: lambda n: a(n) / b(n),
    ast.Pow: lambda a, b: lambda n: a(n) ** b(n),
}
_REFERENCE_CALLS = {
    ("max", 2): lambda a, b: lambda n: max(a(n), b(n)),
    ("log", 1): lambda a: lambda n: math.log(a(n)),
    ("sqrt", 1): lambda a: lambda n: math.sqrt(a(n)),
}


def _reference_closure(node, text):
    if isinstance(node, ast.Name) and node.id == "n":
        return lambda n: n
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(ast.get_source_segment(text, node))
        return lambda n: value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        a = _reference_closure(node.operand, text)
        return lambda n: -a(n)
    if isinstance(node, ast.BinOp) and type(node.op) in _REFERENCE_BINARY:
        a, b = _reference_closure(node.left, text), _reference_closure(node.right, text)
        return _REFERENCE_BINARY[type(node.op)](a, b)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        make = _REFERENCE_CALLS.get((node.func.id, len(node.args)))
        if make is not None:
            return make(*(_reference_closure(arg, text) for arg in node.args))
    raise ValueError("outside the grammar")


def _reference_outcome(source, n):
    text = source.strip().replace("^", "**")
    fn = _reference_closure(ast.parse(text, mode="eval").body, text)
    try:
        return "value", struct.pack("<d", float(fn(float(n))))
    except (ArithmeticError, ValueError, TypeError, RecursionError) as exc:
        return "error", f"growth bound {source.strip()!r} is undefined at n = {n}: {exc}"


def _compiled_outcome(f, n):
    try:
        return "value", struct.pack("<d", f(n))
    except DomainError as exc:
        return "error", str(exc)


_GROWTH_LEAVES = st.sampled_from(
    ["n", "0", "1", "2", "3", "0.5", "1e-3", "1_0", "2.5E+1", "50", "100", "400"]
)
_GROWTH_EXPRESSIONS = st.recursive(
    _GROWTH_LEAVES,
    lambda inner: st.one_of(
        inner.map(lambda a: f"-{a}"),
        inner.map(lambda a: f"({a})"),
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map("".join),
        st.tuples(inner, inner).map(lambda ab: f"max({ab[0]}, {ab[1]})"),
        inner.map(lambda a: f"log({a})"),
        inner.map(lambda a: f"sqrt({a})"),
    ),
    max_leaves=12,
)
# the edges of the domain errors below, and a spread of steps
_GROWTH_STEPS = [0, 1, 2, 3, 5, 49, 50, 51, 99, 100, 101, 399, 400, 1000, 20_000, 10**7]


class TestCompiledGrowthBound:
    @given(_GROWTH_EXPRESSIONS, st.integers(0, 10**7))
    @example("-n^2", 3)
    @example("2^3^2", 1)
    @example("log(n)", 0)
    @example("1/(n-50)", 50)
    @example("(n-100)^0.5", 99)
    @example("10^n", 400)
    @example("max(1e-3*n, sqrt(n))+1_0", 7)
    @settings(max_examples=300, deadline=None)
    def test_matches_closures_bit_for_bit(self, source, drawn):
        f = GrowthFunction(source)
        for n in [drawn, *_GROWTH_STEPS]:
            assert _compiled_outcome(f, n) == _reference_outcome(source, n), (source, n)

    @given(_GROWTH_EXPRESSIONS)
    @example("max(n, 2)+log(n)*sqrt(n)-1e-3")
    @settings(max_examples=200, deadline=None)
    def test_compiled_code_reaches_only_n_max_log_sqrt(self, source):
        fn = GrowthFunction(source)._fn
        code = fn.__code__
        assert set(code.co_names) <= {"max", "log", "sqrt"}
        assert code.co_varnames == ("n",)
        assert not any(isinstance(c, types.CodeType) for c in code.co_consts)
        assert fn.__globals__["__builtins__"] == {}
        assert set(fn.__globals__) <= {"__builtins__", "max", "log", "sqrt"}

    @pytest.mark.parametrize("steps", [range(1, 5000), range(4999, 0, -1),
                                       range(70_001, 70_001 - _GROWTH_BLOCK, -1)])
    def test_growth_values_run_the_lambda_over_float_ranges(self, monkeypatch, steps):
        f = GrowthFunction("max(10, sqrt(n))/3 + n^1.5")
        seen, fn = [], f._fn
        f._fn = lambda x: seen.append(x) or fn(x)
        monkeypatch.setattr(GrowthFunction, "__call__", lambda self, n: pytest.fail("f(n) ran"))
        values = _growth_values(f, steps)
        assert seen == [float(n) for n in steps] and {type(x) for x in seen} == {float}
        assert values.tolist() == [fn(float(n)) for n in steps]

    @pytest.mark.parametrize(
        "source", ["-" * 3000 + "n", "n+" * 3000 + "n", "n^" * 3000 + "n",
                   "sqrt(" * 300 + "n" + ")" * 300, "max(n, " * 300 + "n" + ")" * 300],
        ids=["minus", "terms", "power", "sqrt", "max"],
    )
    def test_too_deep_exits_2(self, source):
        result = CliRunner().invoke(cli, ["schedule", "--set", "d2", "--horizon", "100", "--f", source])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: bad growth bound")


@pytest.fixture(scope="module")
def d2_schedule():
    growth = GrowthFunction("n+3")
    sched = build_schedule(
        DigitSet.d2(), growth, eps=0.5, horizon=10_000, ratio_tol=0.1
    )
    return sched, growth


class TestBuildSchedule:
    def test_first_block_is_min_norm_shell(self, d2_schedule):
        sched, _ = d2_schedule
        first = sched.blocks[0]
        assert sched.anchors[0].norm_sq() == 8
        assert first.norm_sq_lo == 8
        assert first.count == 4  # the four diagonal branches of norm_sq 8

    def test_annulus_weights_from_scratch(self, d2_schedule):
        # every anchor annulus carries weight >= 1 at the built exponent,
        # summed over lattice points counted by a plain double loop
        sched, _ = d2_schedule
        p = sched.digit_set.tau - sched.eps
        r = math.isqrt(sched.anchors[-1].norm_sq())
        shells = Counter(a * a + b * b for a in range(-r, r + 1) for b in range(-r, r + 1))
        norms = sorted(shells)
        for lo_pt, hi_pt in zip(sched.anchors, sched.anchors[1:]):
            i = bisect.bisect_left(norms, lo_pt.norm_sq())
            j = bisect.bisect_left(norms, hi_pt.norm_sq())
            weight = math.fsum(shells[ns] * ns ** (-p / 2) for ns in norms[i:j])
            assert weight >= 1.0 - 1e-12

    def test_annulus_weight_is_compared_with_one_exactly(self, d2_schedule):
        # eps restated a hair below the 0.5 it was built for: the least
        # annulus weight falls to 0.99999999999932, within 1e-12 of 1 but below it
        sched, growth = d2_schedule
        check = dict(SCHEDULE_CHECKS)["annulus_weight_at_least_one"]
        ok, witness = check(replace(sched, eps=0.4999399742615424), growth)
        assert not ok and 1.0 - 1e-12 <= witness["weight"] < 1.0

    def test_blocks_partition_horizon(self, d2_schedule):
        sched, _ = d2_schedule
        assert sched.blocks[0].start == 1
        for a, b in zip(sched.blocks, sched.blocks[1:]):
            assert a.end + 1 == b.start
        assert sched.blocks[-1].end == sched.horizon

    def test_growth_clearance(self, d2_schedule):
        sched, growth = d2_schedule
        for blk in sched.blocks[1:]:
            if blk.index >= len(sched.anchors):
                continue
            level = math.sqrt(sched.anchors[blk.index].norm_sq())
            assert growth(blk.start) >= level

    def test_subexp_trajectory(self, d2_schedule):
        sched, _ = d2_schedule
        traj = subexp_check(sched)
        assert traj.ok
        assert traj.final_window_max < sched.ratio_tol
        rows = list(traj.rows())
        ns, ratio = np.concatenate([n for n, _ in rows]), np.concatenate([r for _, r in rows])
        assert len(ns) == len(ratio) == sched.horizon
        assert np.array_equal(ns, np.arange(1, sched.horizon + 1))
        # single-pool prefix decays like 1/n
        first = sched.blocks[0]
        expect = math.log(first.count) / first.t
        assert abs(ratio[first.t - 1] - expect) < 1e-12

    @pytest.mark.parametrize("growth, horizon, edge", [
        ("n+3", 10_000, False), ("10", 100_000, False), ("n+3", 10_000, True)])
    def test_subexp_rows_match_per_step_arrays(self, growth, horizon, edge):
        # the per-step arrays subexp_check once built, bit for bit: rows in
        # blocks of _TAU_CHUNK steps, and the final-window maximum read at
        # each block's first step in the window
        sched = build_schedule(DigitSet.d2(), GrowthFunction(growth), eps=0.5, horizon=horizon)
        assert sched.truncated == (growth == "10")
        if edge:
            # cut so that the window starts on the last step of a middle
            # block, whose pool, made the largest, sets the maximum alone
            m = len(sched.blocks) // 2
            end = sched.blocks[m].end
            horizon = next(h for h in itertools.count(end) if int(0.9 * h) == end)
            blocks = [b for b in sched.blocks if b.start <= horizon]
            blocks[-1] = replace(blocks[-1], t=horizon - blocks[-1].start + 1)
            blocks[m] = replace(blocks[m], count=10 * max(b.count for b in blocks))
            sched = replace(sched, horizon=horizon, blocks=tuple(blocks))
        traj = subexp_check(sched)
        ns = np.arange(1, horizon + 1, dtype=np.float64)
        sizes = [float(max(b.count, 1)) for b in sched.blocks]
        ratio = np.log(np.repeat(sizes, [b.t for b in sched.blocks])) / ns
        rows = list(traj.rows())
        assert [len(n) for n, _ in rows[:-1]] == [dimension._TAU_CHUNK] * (len(rows) - 1)
        assert np.concatenate([n for n, _ in rows]).tobytes() == ns.astype(np.int64).tobytes()
        assert np.concatenate([r for _, r in rows]).tobytes() == ratio.tobytes()
        window_start = max(int(0.9 * horizon) - 1, 0)
        assert traj.final_window_max == float(ratio[window_start:].max())

    def test_json_shape(self, d2_schedule):
        sched, _ = d2_schedule
        payload = sched.to_json()
        assert set(payload["blocks"][0]) == {"norm_lo", "norm_hi", "count", "t"}
        assert payload["horizon"] == 10_000


class TestScheduleEdges:
    def test_constant_growth_truncates_with_warning(self):
        sched = build_schedule(
            DigitSet.d2(),
            GrowthFunction("2"),
            eps=0.5,
            horizon=500,
            ratio_tol=0.1,
        )
        assert sched.truncated
        assert sched.warning is not None
        assert sched.blocks[-1].end == 500

    def test_truncated_schedule_still_checks_growth(self):
        # f stays below 10, so the schedule truncates; a block moved one step
        # earlier must still fail growth domination
        growth = GrowthFunction("10 - 1000/n")
        sched = build_schedule(
            DigitSet.d2(), growth, eps=0.5, horizon=3000, ratio_tol=0.1
        )
        assert sched.truncated
        blocks = list(sched.blocks)
        m = next(
            i
            for i in range(1, len(blocks))
            if growth(blocks[i].start - 1) < math.sqrt(sched.anchors[blocks[i].index].norm_sq())
        )
        blocks[m - 1] = replace(blocks[m - 1], t=blocks[m - 1].t - 1)
        blocks[m] = replace(blocks[m], start=blocks[m].start - 1, t=blocks[m].t + 1)
        report = validate_schedule(replace(sched, blocks=tuple(blocks)), growth)
        status = {c["check"]: c["status"] for c in report}
        assert status["blocks_tile_horizon"] == "pass"
        assert status["growth_domination"] == "fail"

    def test_subexp_check_rejects_a_dropped_last_block(self, d2_schedule):
        # no block gives the pool size of the last block's steps
        sched, _ = d2_schedule
        with pytest.raises(DomainError, match=r"do not tile \[1, 10000\]"):
            subexp_check(replace(sched, blocks=sched.blocks[:-1]))

    def test_block_of_rejects_a_step_in_a_gap(self, d2_schedule):
        # block 4 ends one step early, so its last step lies in no block
        sched, _ = d2_schedule
        blocks = list(sched.blocks)
        blocks[3] = replace(blocks[3], t=blocks[3].t - 1)
        gapped = replace(sched, blocks=tuple(blocks))
        with pytest.raises(DomainError, match=f"step {blocks[3].end + 1} lies in no block"):
            gapped.block_of(blocks[3].end + 1)
        assert gapped.block_of(blocks[3].end) == blocks[3]
        with pytest.raises(DomainError, match="do not tile"):
            subexp_check(gapped)

    def test_finite_set_rejected(self):
        with pytest.raises(DomainError):
            build_schedule(
                DigitSet.annulus(8, 100), GrowthFunction("n"), 0.5, 1000
            )

    def test_eps_range_enforced(self):
        with pytest.raises(DomainError):
            build_schedule(DigitSet.d2(), GrowthFunction("n"), 5.0, 1000)
        with pytest.raises(DomainError):
            build_schedule(DigitSet.d2(), GrowthFunction("n"), -0.1, 1000)


def _scan_anchors(s, p, count):
    """Reference: anchors by a shell-by-shell scan, one ``weights`` band per shell."""
    shells = s._shells
    anchor_ns = [s.min_norm_sq()]
    while len(anchor_ns) < count:
        lo = anchor_ns[-1]
        hi = shells.next_shell_after(lo)
        while shells.weights([(lo, hi)], p)[0] < 1.0:
            hi = shells.next_shell_after(hi)
        anchor_ns.append(hi)
    return anchor_ns


class TestAnchorSearch:
    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("make_set", [DigitSet.d2, DigitSet.lattice,
                                          lambda: DigitSet.with_min_norm_sq(20)],
                             ids=["d2", "lattice", "minnormsq:20"])
    def test_anchors_match_shell_scan(self, make_set, eps):
        sched = build_schedule(make_set(), GrowthFunction("n+3"), eps=eps, horizon=12_000)
        found = [a.norm_sq() for a in sched.anchors]
        # a fresh set, so the reference scan grows its own shell table
        assert found == _scan_anchors(make_set(), 2.0 - eps, len(found))


def _clearance_scan(f, level, horizon):
    """Reference: smallest n0 with f(n) >= level on [n0, horizon], scanned
    backwards from the horizon."""
    n0 = None
    for n in range(horizon, 0, -1):
        if f(n) >= level:
            n0 = n
        else:
            break
    return n0


def _outcome(query, level):
    try:
        return query(level)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def _domination_scan(sched, f):
    """Reference: growth domination scanned one step at a time, stopping at
    the first step below its block's level."""
    for blk in sched.blocks[1:]:
        if blk.index >= len(sched.anchors):
            continue
        level = math.sqrt(sched.anchors[blk.index].norm_sq())
        for n in range(blk.start, blk.end + 1):
            value = f(n)
            if value < level:
                return False, {"block": blk.index, "n": n, "f": value, "level": level}
    return True, None


def _report(sched, f, domination=None):
    """validate_schedule's report, or the reference report with the one-step
    domination scan; an error is reported by its type and message."""
    try:
        if domination is None:
            return validate_schedule(sched, f)
        return [check_entry(name, *(domination if name == "growth_domination" else check)(sched, f))
                for name, check in SCHEDULE_CHECKS]
    except Exception as exc:
        return type(exc), str(exc)


class TestClearanceQuery:
    GROWTHS = [
        "n+3",
        "10",
        "max(10, sqrt(n))",
        "5*log(n+1)+4",
        "n^2",
        "10 - 1000/n",
        "1/(n-50)",
        "sqrt(n)-3",
        "log(n-5)",
        "0*1e999+n",
    ]
    LEVELS = [-1.0, 0.0, 1e-3, 0.5, 3.0, 4.0, 9.99, 10.0, 10.5, 31.7, 54.0, 501.0, 3004.0]
    LEVELS += [1e7] + [math.sqrt(k) for k in range(8, 400, 37)]

    @pytest.mark.parametrize("horizon", [10, 11, 500, 3001])
    @pytest.mark.parametrize("order", ["ascending", "unordered"])
    def test_matches_backward_scan(self, horizon, order):
        levels = sorted(self.LEVELS)
        if order == "unordered":
            random.Random(horizon).shuffle(levels)
        for source in self.GROWTHS:
            f = GrowthFunction(source)
            query = _clearance_query(f, horizon)
            for level in levels:
                expected = _outcome(lambda lv: _clearance_scan(f, lv, horizon), level)
                assert _outcome(query, level) == expected, (source, level)

    # bounds that raise, or fall below 10, only past a step the scans may reach
    DEEP = ["max(n, 1/(n-3000))", "(n-100)^0.5+n", "11 - n/43000", "max(n, 1/(n-68000))",
            "max(11 - n/43000, 1/(n-69000))"]

    # past 2^16 steps, so the scans cross several _GROWTH_BLOCK boundaries
    @pytest.mark.parametrize("source", ["n+3", "10", "1/(n-50)", "max(n, 1/(n-68000))"])
    def test_matches_backward_scan_across_blocks(self, source):
        horizon = 70_001
        f = GrowthFunction(source)
        cached = functools.cache(f)  # the reference rescans from the horizon per level
        query = _clearance_query(f, horizon)
        for level in sorted(self.LEVELS):
            expected = _outcome(lambda lv: _clearance_scan(cached, lv, horizon), level)
            assert _outcome(query, level) == expected, (source, level)

    @pytest.mark.parametrize("horizon", [10, 11, 500, 3001, 70_001])
    @pytest.mark.parametrize("built", ["n+3", "10", "max(10, sqrt(n))"])
    def test_validation_matches_one_step_scan(self, built, horizon):
        sched = build_schedule(DigitSet.d2(), GrowthFunction(built), eps=0.5, horizon=horizon)
        sources = self.GROWTHS if horizon < 70_000 else ["n+3", "10", "1/(n-50)"]
        for source in sources + self.DEEP:
            f = GrowthFunction(source)
            assert _report(sched, f) == _report(sched, f, _domination_scan), source

    def test_block_paths_evaluate_each_step_once(self):
        # the constant bound truncates, so the last block spans several growth blocks
        horizon = 70_001
        sched = build_schedule(DigitSet.d2(), GrowthFunction("10"), eps=0.5, horizon=horizon)
        assert sched.blocks[-1].t > 4 * _GROWTH_BLOCK
        calls = Counter()
        compiled = GrowthFunction("max(10, sqrt(n))")
        fn = compiled._fn
        compiled._fn = lambda x: calls.update([int(x)]) or fn(x)  # the lambda the blocks call
        for f in (compiled, lambda n: calls.update([n]) or 10.0):
            calls.clear()
            query = _clearance_query(f, horizon)
            for level in sorted(self.LEVELS):
                query(level)
            assert max(calls.values()) == 1 and len(calls) == horizon
            calls.clear()
            assert all(c["status"] == "pass" for c in validate_schedule(sched, f))
            assert max(calls.values()) == 1

    def test_build_schedule_evaluates_each_step_once(self):
        calls = 0

        def counting_f(n):
            nonlocal calls
            calls += 1
            return n + 3.0

        horizon = 10_000
        sched = build_schedule(DigitSet.d2(), counting_f, eps=0.5, horizon=horizon)
        assert len(sched.blocks) > 100
        assert calls <= horizon
        assert all(c["status"] == "pass" for c in validate_schedule(sched, counting_f))
        assert calls <= 2 * horizon  # growth_domination evaluates each step once too

    def test_growth_domination_witness_evaluates_once(self):
        calls = Counter()

        def counting_f(n):
            calls[n] += 1
            return n + 3.0 if n < 2500 else 0.0

        sched = build_schedule(DigitSet.d2(), lambda n: n + 3.0, eps=0.5, horizon=3000)
        report = {c["check"]: c for c in validate_schedule(sched, counting_f)}
        witness = report["growth_domination"]["witness"]
        assert witness["n"] == 2500 and witness["f"] == 0.0
        assert max(calls.values()) == 1


class TestLowerBoundChain:
    def test_dimension_floor_formula(self, d2_schedule):
        sched, _ = d2_schedule
        result = verify_lower_bound_chain(sched, 0.5, 0.1, sched.horizon)
        expected = (sched.digit_set.tau - 0.5) / 2.1
        assert abs(result.s_value - expected) < 1e-12
        assert result.s_value == 1.5 / 2.1  # (tau - eps)/(2 + delta) at the exact tau 2
        # cutoff anchors must clear the decay floor (16/25)|i|^-2 >= |i|^-2.1
        threshold = (25.0 / 16.0) ** 20
        assert sched.anchors[result.block_cutoff].norm_sq() >= threshold

    def test_bound_is_the_product_over_steps(self, d2_schedule):
        # every step of the first N blocks owes c1^s times its pool weight
        # (|z_1|^-2s in block 1), so the log bound is a sum over steps
        sched, _ = d2_schedule
        result = verify_lower_bound_chain(sched, 0.5, 0.1, sched.horizon)
        s, first = result.s_value, sched.blocks[:result.block_cutoff]
        shells = sched.digit_set._shells
        i, j = shells.band(0, first[-1].norm_sq_hi + 1)
        values, counts = shells.values[i:j], shells.ends[i + 1 : j + 1] - shells.ends[i:j]
        weights = {first[0].index: sched.anchors[0].norm_sq() ** -s}  # block 1: z_1 alone
        for blk in first[1:]:
            pool = (values >= blk.norm_sq_lo) & (values < blk.norm_sq_hi)
            weights[blk.index] = math.fsum(int(c) * int(v) ** -s
                                           for v, c in zip(values[pool], counts[pool]))
        terms = [s * math.log(16 / 25) + math.log(weights[sched.block_of(step).index])
                 for step in range(1, first[-1].end + 1)]
        assert len(terms) == 6190 and result.block_cutoff == 91
        assert result.log_lower_bound == pytest.approx(math.fsum(terms), rel=1e-9)
        assert result.log_lower_bound < 0

    def test_degenerate_small_eps(self, d2_schedule):
        # eps close to tau collapses the exponent toward zero
        sched, _ = d2_schedule
        result = verify_lower_bound_chain(
            sched, eps=sched.digit_set.tau - 1e-6, delta=0.1, n=sched.horizon
        )
        assert result.s_value < 1e-6
        assert result.positive

    def test_n_out_of_range(self, d2_schedule):
        sched, _ = d2_schedule
        with pytest.raises(DomainError):
            verify_lower_bound_chain(sched, 0.5, 0.1, sched.horizon + 1)
        with pytest.raises(DomainError):
            verify_lower_bound_chain(sched, 0.5, 0.1, 5)

    def test_delta_positive_required(self, d2_schedule):
        sched, _ = d2_schedule
        with pytest.raises(DomainError):
            verify_lower_bound_chain(sched, 0.5, 0.0, sched.horizon)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, d2_schedule, delta):
        # NaN fails every comparison, so delta <= 0 alone lets it through
        sched, _ = d2_schedule
        with pytest.raises(DomainError, match="delta must be finite"):
            verify_lower_bound_chain(sched, 0.5, delta, sched.horizon)
