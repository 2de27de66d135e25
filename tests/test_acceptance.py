"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single pass line on
success (run with ``pytest tests/test_acceptance.py -v -s``) and pins its
tolerances and runtime budget directly.
"""

import hashlib
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hurwitzcf import (
    DigitSet,
    GrowthFunction,
    bowen_dimension,
    build_schedule,
    classify_digit,
    contraction_bound,
    evaluate,
    exceptional_digits,
    expand,
    partition_sum,
    subexp_check,
    tau_exponent,
    upper_threshold,
    validate_schedule,
    verify_lower_bound_chain,
)
from hurwitzcf.cli import cli
from hurwitzcf.dimension import _restricted_power_sums
from hurwitzcf.gaussian import lattice_points
from hurwitzcf.ifs import (
    COMPOSITION_DISTORTION_BOUND,
    DECAY_C2,
    DIAMETER_K1,
    DIAMETER_K2,
    box_distortion_terms,
    contraction_envelope_check,
    max_single_branch_distortion,
    validate_decay_bounds,
)
from hurwitzcf.svg import TessellationSpec, soundness_check
from hurwitzcf.verify import random_box_rationals, short_words


def report(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS  {detail}")


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20_240_801)
    return random_box_rationals(rng, 1000, 10_000)


def test_criterion_01_expansion_exactness(corpus):
    start = time.perf_counter()
    for z in corpus:
        result = expand(z)
        assert result.terminated, f"no termination for {z}"
        assert evaluate(result.digits) == z, f"roundtrip failed for {z}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"expansion corpus took {elapsed:.2f}s"
    report(1, f"1000 exact roundtrips in {elapsed:.2f}s")


def test_criterion_02_digit_alphabet(corpus):
    for z in corpus:
        for d in expand(z).digits:
            assert d.norm_sq() >= 2
    expected = {
        (1, 1), (1, -1), (-1, 1), (-1, -1),
        (2, 0), (-2, 0), (0, 2), (0, -2),
        (2, 1), (2, -1), (-2, 1), (-2, -1),
        (1, 2), (1, -2), (-1, 2), (-1, -2),
    }
    got = {(d.re, d.im) for d in exceptional_digits()}
    assert got == expected and len(got) == 16
    assert all(classify_digit(d) == "exceptional" for d in exceptional_digits())
    report(2, "all corpus digits have norm_sq >= 2; exceptional set is the sixteen")


def test_criterion_03_lattice_counting():
    start = time.perf_counter()
    # the square [-N, N]^2 lies in the disc of norm_sq 2N^2
    for n in range(51):
        rows = lattice_points(0, 2 * n * n)
        assert int((np.abs(rows) <= n).all(axis=1).sum()) == (2 * n + 1) ** 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"counting took {elapsed:.2f}s"
    report(3, f"lattice_points counts (2N+1)^2 in each square for N <= 50 in {elapsed:.2f}s")


def test_criterion_04_convergence_exponent():
    start = time.perf_counter()
    horizon = 1_000_000
    lattice_norms = np.sqrt(DigitSet.lattice_with_zero().norm_sq_array(horizon))
    est = tau_exponent(lattice_norms, horizon)
    assert abs(est.estimate - 2.0) <= 0.02, est.estimate
    n = np.arange(1, horizon + 1, dtype=np.float64)
    est_linear = tau_exponent(n, horizon)
    assert abs(est_linear.estimate - 1.0) <= 0.001
    est_square = tau_exponent(n**2, horizon)
    assert abs(est_square.estimate - 0.5) <= 0.001
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"tau runs took {elapsed:.2f}s"
    report(
        4,
        f"tau(lattice)={est.estimate:.4f}, tau(n)={est_linear.estimate:.4f}, "
        f"tau(n^2)={est_square.estimate:.4f} in {elapsed:.2f}s",
    )


def test_criterion_05_contraction_and_decay():
    start = time.perf_counter()
    sup_exact = contraction_bound()
    assert sup_exact == Fraction(2, 9)
    assert sup_exact < Fraction(2, 3)
    # exact box infimum and supremum of every branch with norm_sq <= 64
    ok, witness = validate_decay_bounds(norm_sq_max=64)
    assert ok, witness
    # tail: per-class sups fall under the monotone envelope, which analytic
    # bounds extend past any cutoff
    ok, witness = contraction_envelope_check(128)
    assert ok, witness
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"contraction and decay checks took {elapsed:.2f}s"
    report(5, f"sup |Dphi| = 2/9 < 2/3; 16/25 and 16/9 decay bounds hold over the box "
              f"in {elapsed:.2f}s")


def test_criterion_06_distortion():
    start = time.perf_counter()
    assert max_single_branch_distortion() == Fraction(25, 9)
    # exact sup/inf over the box of all 14,424 words of length <= 3
    words, rows = short_words()
    far, near, _ = box_distortion_terms(*rows)
    word_max = max(Fraction(f, n) for f, n in zip(far, near))
    k0 = Fraction(COMPOSITION_DISTORTION_BOUND)
    assert Fraction(25, 9) <= word_max <= k0
    # k0 >= (2 sqrt2 - 1)^2 = 9 - 4 sqrt2
    assert 0 < 9 - k0 and (9 - k0) ** 2 <= 32
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"distortion checks took {elapsed:.2f}s"
    report(
        6,
        f"exact single-branch max 25/9; exact max over {len(words)} words of length <= 3 "
        f"{float(word_max):.4f} <= uniform bound {COMPOSITION_DISTORTION_BOUND:.4f} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_07_pressure_engine():
    start = time.perf_counter()
    quad = DigitSet.from_branches([(2, 2), (-2, -2), (3, 0), (0, 3)])
    for s in (0.5, 1.0):
        z = {
            n: math.exp(n * partition_sum(quad, n, s).log_zn_over_n)
            for n in range(1, 7)
        }
        for m in range(1, 6):
            for n in range(1, 7 - m):
                assert z[m + n] <= z[m] * z[n] * (1 + 1e-12), (s, m, n)

    pair = bowen_dimension(DigitSet.from_branches([(2, 2), (-2, -2)]), tol=1e-3, n_max=12)
    assert pair.upper_at_low >= 0.0 and pair.lower_at_high <= 0.0
    assert 0.0 < pair.s_low and pair.s_high < 2.0 and pair.width <= 1e-3

    single = bowen_dimension(DigitSet.from_branches([(2, 2)]), tol=1e-3, n_max=8)
    assert single.s_low <= 0.0 <= single.s_high and single.width <= 1e-3

    results = []
    for branches in (
        [(2, 2), (-2, -2)],
        [(2, 2), (-2, -2), (2, -2), (-2, 2)],
        [(2, 2), (-2, -2), (2, -2), (-2, 2), (3, 0), (0, 3), (-3, 0), (0, -3)],
    ):
        results.append(bowen_dimension(DigitSet.from_branches(branches), tol=1e-3, n_max=6))
    for smaller, larger in zip(results, results[1:]):
        slack = smaller.width + larger.width
        assert 0.5 * (smaller.s_low + smaller.s_high) <= 0.5 * (larger.s_low + larger.s_high) + slack
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"pressure suite took {elapsed:.2f}s"
    report(
        7,
        f"submultiplicativity, sign invariants, single-branch bracket "
        f"[{single.s_low:.4f},{single.s_high:.4f}], nested monotone in {elapsed:.2f}s",
    )


def test_criterion_08_schedule():
    start = time.perf_counter()
    growth = GrowthFunction("n+3")
    sched = build_schedule(DigitSet.d2(), growth, eps=0.5, horizon=10_000, ratio_tol=0.1)
    checks = validate_schedule(sched, growth)
    failed = [c for c in checks if c["status"] != "pass"]
    assert not failed, failed

    traj = subexp_check(sched)
    assert traj.final_window_max < sched.ratio_tol

    last = sched.blocks[-1]
    ns = [last.start, last.start + last.t // 2, last.end]
    chain = [verify_lower_bound_chain(sched, eps=0.5, delta=0.1, n=n) for n in ns]
    assert len({r.log_lower_bound for r in chain}) == 1, "bound depends on n"
    assert all(r.positive for r in chain)
    expected_s = (sched.digit_set.tau - 0.5) / 2.1
    assert abs(chain[0].s_value - expected_s) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"schedule suite took {elapsed:.2f}s"
    report(
        8,
        f"validator green, subexp max {traj.final_window_max:.2e} < {sched.ratio_tol}, "
        f"n-independent bound at s={chain[0].s_value:.4f} in {elapsed:.2f}s",
    )


def test_criterion_09_upper_threshold():
    res = upper_threshold(DigitSet.d2(), eps=0.5)
    # independent re-evaluation: reassemble the weighted sums at the cutoff
    # straight from the constants and the enumeration-plus-integral estimator
    k0 = COMPOSITION_DISTORTION_BOUND
    p = res.tau + 0.5
    factor = (k0 * DIAMETER_K2 * float(DECAY_C2) / DIAMETER_K1) ** (p / 2.0)
    power_sum = _restricted_power_sums(DigitSet.d2(), p)
    at_cutoff, before = factor * power_sum(res.norm_cutoff), factor * power_sum(res.norm_cutoff - 1)
    assert at_cutoff <= 1.0 < before

    # quadrature oracle for the integral tail bound: full infinite range at
    # moderate cutoffs, a finite stretch at the huge one (where infinite
    # range transforms lose the mass numerically)
    from scipy.integrate import quad

    from hurwitzcf.dimension import tail_integral_bound

    c = math.sqrt(2) / 2
    integrand = lambda r: 2 * math.pi * r * (r - c) ** (-p)
    for a in (10.0, 500.0):
        numeric, _ = quad(integrand, a - c, np.inf)
        assert math.isclose(tail_integral_bound(a, p), numeric, rel_tol=1e-8)
    big = float(res.norm_cutoff)
    stretch, _ = quad(integrand, big - c, 2 * big - c)
    closed_diff = tail_integral_bound(big, p) - tail_integral_bound(2 * big, p)
    assert math.isclose(stretch, closed_diff, rel_tol=1e-8)
    report(9, f"cutoff N={res.norm_cutoff}: weighted sum {at_cutoff:.6f} <= 1 < {before:.6f}")


def test_criterion_10_tessellation_soundness():
    start = time.perf_counter()
    spec = TessellationSpec(norm_sq_max=25)
    ok, witness = soundness_check(spec)
    assert ok, witness
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"soundness check took {elapsed:.2f}s"
    from hurwitzcf.svg import region_digits

    count = len(region_digits(spec))
    report(10, f"{count} regions, every arc on its own box edge, in {elapsed:.1f}s")


# SHA-256 of the stdout of the commands whose outputs are computed in exact
# or basic IEEE arithmetic, recorded before the change that pinned them.  tau,
# pressure, dim and schedule go through numpy and libm log and pow, which may
# differ by an ulp across CPUs, so only their reruns are compared.  A change
# that alters a pinned output updates its digest and says why in CHANGES.md.
PINNED_OUTPUTS = {
    ("expand", "--", "-7/16+3/16 i"):
        "9856144c9ade22f7a3e6b9c74754b52c885f58e2f419b577e35652b640474517",
    ("eval", "[[3,1],[-2,2]]"):
        "8a661642efd01b6b4e928f69466b45a1dabd494030ed0344a93293bdcb18f15c",
    ("classify", "--", "-2", "-1"):
        "821d9909486df3138e090374166dbb1482a31198388f1718d95f956b9f35cea3",
    ("--format", "csv", "verify", "arith"):
        "3266c9575b4d3ff915ee3509ac280e9ddf646f17f4376c66519649ac16952894",
    ("tessellate", "--norm-sq-max", "8"):
        "8ada120a95f5db4c8070a2f2662fa36f718faa6bcc8f56d733ebf3aca6222374",
    ("tessellate", "--norm-sq-max", "25"):
        "08319f1295c7d250f2882c0886022b77da8d02324e3f56cc3fad9020d2193466",
    ("verify", "all"):
        "222ce5c6b99b62f469e734326348ab0946736c50a407e3a2cbc645a6c0caf393",
    ("--format", "csv", "verify", "all"):
        "5e60a5bf2ae2e47b035156d8904b43a85231ef48c75d1849e2205c55f6f95985",
}


def test_criterion_11_determinism(tmp_path):
    runner = CliRunner()
    commands = [list(args) for args in PINNED_OUTPUTS] + [
        ["--format", "csv", "tau", "--source", "power:2", "--horizon", "3000"],
        ["pressure", "--alphabet", "[[2,2],[-2,-2]]", "--n", "5", "--s", "0.9"],
        ["dim", "--alphabet", "[[2,2],[-2,-2]]", "--n-max", "8"],
        ["--seed", "7", "schedule", "--set", "d2", "--f", "n+3", "--horizon", "1500"],
    ]
    for args in commands:
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.exit_code == 0, (args, first.output, first.exception)
        assert first.stdout_bytes == second.stdout_bytes, args
        pinned = PINNED_OUTPUTS.get(tuple(args))
        assert pinned in (None, hashlib.sha256(first.stdout_bytes).hexdigest()), args

    # fresh processes as well, not just in-process reruns
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitzcf.cli", "--seed", "11", "--out", str(out),
             "schedule", "--set", "d2", "--f", "n+3", "--horizon", "1200"],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(11, f"{len(commands)} commands byte-identical across reruns (incl. fresh processes), "
               f"{len(PINNED_OUTPUTS)} of them to their pinned digests")
