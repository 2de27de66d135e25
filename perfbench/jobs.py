"""Seeded job streams and checked job runners for the three workloads.

A workload is an endless sequence of cycles.  A cycle holds one job per
stratum of the input property the workload varies (denominator size,
alphabet size, word count, horizon), so runs of equal length see the same
mix and two seeds differ only in the draws inside each stratum.  Every
runner checks the program's output and raises `CheckError` when a check
fails.  All calls go through module attributes (`dimension.partition_sum`,
not a bound name), so the spans installed by `spans.Tracer` see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterator

import click

from hurwitzcf import cli as hcli
from hurwitzcf import dimension, expansion, gaussian, ifs, svg
from hurwitzcf.gaussian import ExactComplexRational, GaussianInt

import spans


class CheckError(Exception):
    """An output of the program failed one of the benchmark's checks."""


GUARD_RADIUS = 1e-15  # the float approximation of a box point is within 2^-53 of it
DIM_TOL = 1e-3
DIM_N_MAX = 12
DIM_MAX_WORDS = 1 << 18
CERTIFY_WORDS = 1 << 10  # word budget of one certify job

# Digits with norm^2 in [8, 64]: the pool random alphabets are drawn from.
POOL = tuple((g.re, g.im) for g in dimension.DigitSet.annulus(8, 65).members())
# Alphabet sizes in the order a pressure cycle visits them.
DIM_SIZES = (2, 9, 16, 5, 12, 3, 8, 14, 6, 11, 4, 15, 7, 10, 13)
# Reference alphabets and their dimensions (transfer-operator values that
# agree to 1e-10 between two discretisations; see ROADMAP item 1).
REFERENCES = {
    "pair": (((2, 2), (-2, -2)), 0.330994621888),
    "annulus:8:16": (tuple((g.re, g.im) for g in dimension.DigitSet.annulus(8, 17).members()),
                     1.419026440),
}
# Growth functions in the order they meet the ascending horizons of a
# cycle; the truncating ones (10, max(10, sqrt(n)), 5*log(n+1)+4) sit
# between the growing ones.
GROWTHS = ("n+3", "10", "2*n+1", "max(10, sqrt(n))", "5*log(n+1)+4", "n^2")
SCHEDULE_FORMATS = (("json", "blocks"), ("csv", "blocks"), ("json", "subexp"), ("csv", "subexp"))
WARMUP_ALPHABET = ((3, 3), (-3, -3))


@dataclass
class Job:
    kind: str
    params: dict


# ---------------------------------------------------------------------------
# helpers shared by runners and self-tests


def digit_set(name: str) -> dimension.DigitSet:
    """The digit sets the CLI's `schedule --set` accepts, by the same names."""
    if name == "d2":
        return dimension.DigitSet.d2()
    if name == "lattice":
        return dimension.DigitSet.lattice()
    return dimension.DigitSet.with_min_norm_sq(int(name.split(":", 1)[1]))


def alphabet(digits) -> dimension.DigitSet:
    return dimension.DigitSet.from_branches(GaussianInt(re, im) for re, im in digits)


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """Run one hurwitzcf command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            hcli.cli.main(args=args, prog_name="hurwitzcf", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def captured(owner, attr: str) -> Iterator[list]:
    """Collect the return values of owner.attr while the block runs."""
    original = getattr(owner, attr)
    results: list = []

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    setattr(owner, attr, capture)
    try:
        yield results
    finally:
        setattr(owner, attr, original)


def check_roundtrip(z: ExactComplexRational, result) -> None:
    if not result.terminated:
        raise CheckError(f"expansion of {z} did not terminate")
    if expansion.evaluate(result.digits) != z:
        raise CheckError(f"evaluate(expand({z})) differs from {z}")


def check_prefix(guarded: tuple, exact: tuple) -> None:
    if tuple(guarded) != tuple(exact)[: len(guarded)]:
        raise CheckError("guarded digits are not a prefix of the exact digits")


def certify_logs(digits, n: int) -> tuple[list[float], list[float]]:
    """log sup_B |Dphi_w| and log inf_B |Dphi_w| for every word w of length n.

    Computed from exact `ifs.BranchComposition` rationals; only the final
    logarithm is a float.
    """
    members = [GaussianInt(re, im) for re, im in digits]
    log_sups: list[float] = []
    log_infs: list[float] = []

    def log_of(q) -> float:
        return math.log(q.numerator) - math.log(q.denominator)

    def rec(comp, depth: int) -> None:
        if depth == n:
            log_sups.append(log_of(comp.sup_deriv_exact()))
            log_infs.append(log_of(comp.inf_deriv_exact()))
            return
        for g in members:
            rec(comp.extend(g), depth + 1)

    rec(ifs.BranchComposition.identity(), 0)
    return log_sups, log_infs


def log_z_over_n(logs: list[float], s: float, n: int) -> float:
    top = max(logs)
    return (s * top + math.log(math.fsum(math.exp(s * (v - top)) for v in logs))) / n


def refutes(log_sups, log_infs, n: int, s_low: float, s_high: float) -> bool:
    """True iff exact word bounds prove the dimension lies outside [s_low, s_high].

    Z_inf(n) is supermultiplicative because every branch maps the box into
    itself, so log Z_inf(n)/n > 0 at s_high proves positive pressure there
    (dimension above s_high); Z_sup(n) is submultiplicative, so
    log Z_sup(n)/n < 0 at s_low proves the dimension lies below s_low.  The
    float sums carry relative errors near 1e-15, far below the margins seen.
    """
    return log_z_over_n(log_infs, s_high, n) > 0.0 or log_z_over_n(log_sups, s_low, n) < 0.0


def certify_length(size: int) -> int:
    n = 1
    while size ** (n + 1) <= CERTIFY_WORDS:
        n += 1
    return n


# ---------------------------------------------------------------------------
# runners: each returns the counts the metrics need and raises on a failed check


def run_roundtrip(p: dict, tracer) -> dict:
    z = gaussian.parse_exact_complex(p["text"])
    if z != p["value"]:
        raise CheckError(f"parse of {p['text']!r} gave {z}")
    result = expansion.expand(z)
    check_roundtrip(z, result)
    guarded = expansion.expand_guarded(float(z.re), float(z.im), GUARD_RADIUS)
    check_prefix(guarded.digits.digits, result.digits.digits)
    return {"digits": len(result.digits), "guarded": len(guarded.digits)}


def run_soundness(p: dict, tracer) -> dict:
    spec = svg.TessellationSpec(norm_sq_max=p["norm_sq_max"])
    ok, witness = svg.soundness_check(spec, samples_per_region=p["samples"], seed=p["seed"])
    if not ok:
        raise CheckError(f"soundness check failed: {witness}")
    document = svg.render_svg(spec)
    regions = len(svg.region_digits(spec))
    if document.count("<path ") != regions:
        raise CheckError("rendered SVG does not hold one path per region")
    return {"samples": regions * p["samples"]}


def run_dim(p: dict, tracer) -> dict:
    r = dimension.bowen_dimension(
        alphabet(p["digits"]), tol=DIM_TOL, n_max=DIM_N_MAX, max_words=DIM_MAX_WORDS
    )
    if not r.s_low <= r.s_high:
        raise CheckError(f"s_low {r.s_low} > s_high {r.s_high}")
    if r.width > DIM_TOL:
        raise CheckError(f"width {r.width} above tol {DIM_TOL}")
    if not r.upper_at_low >= 0.0 >= r.lower_at_high:
        raise CheckError("bracket invariant upper(s_low) >= 0 >= lower(s_high) broken")
    p["slot"]["result"] = r
    return {"size": len(p["digits"]), "n_used": r.n_used, "iterations": r.iterations,
            "conclusive": r.conclusive, "width": r.width, "s_low": r.s_low,
            "s_high": r.s_high, "ref": p["ref"]}


def run_certify(p: dict, tracer) -> dict:
    if "result" not in p["slot"]:
        raise CheckError("no dim result to certify")
    r = p["slot"]["result"]
    n = certify_length(len(p["digits"]))
    with tracer.span("ifs.certify"):
        log_sups, log_infs = certify_logs(p["digits"], n)
        refuted = refutes(log_sups, log_infs, n, r.s_low, r.s_high)
    if r.conclusive and refuted:
        raise CheckError(f"conclusive interval [{r.s_low}, {r.s_high}] refuted at n={n}")
    return {"words": len(log_sups), "n": n, "refuted": refuted}


def run_pressure(p: dict, tracer) -> dict:
    est = dimension.partition_sum(
        alphabet(p["digits"]), p["n"], p["s"], p["mode"], max_words=DIM_MAX_WORDS
    )
    words = len(p["digits"]) ** p["n"]
    if est.word_count != words:
        raise CheckError(f"enumerated {est.word_count} words, expected {words}")
    if not (math.isfinite(est.log_zn_over_n) and est.lower_bracket <= est.upper_bracket):
        raise CheckError(f"bad pressure bracket {est.to_json()}")
    return {"words": words}


def run_schedule(p: dict, tracer) -> dict:
    args = ["--format", p["format"], "schedule", "--set", p["set"], "--f", p["f"],
            "--eps", p["eps"], "--horizon", str(p["horizon"]), "--emit", p["emit"]]
    with captured(dimension, "build_schedule") as built:
        code, out, err = run_cli(args)
    if code != 0:
        raise CheckError(f"schedule exited {code}: {err.strip()[-200:]}")
    (sched,) = built
    if p["format"] == "json":
        payload = json.loads(out)
        failed = [c["check"] for c in payload["validation"] if c["status"] != "pass"]
        if failed:
            raise CheckError(f"validator checks failed: {failed}")
        rows, expected = len(payload["blocks"]), len(sched.blocks)
    else:  # a failed validator check exits 1, so exit code 0 means all passed
        rows = len(list(csv.DictReader(io.StringIO(out))))
        expected = len(sched.blocks) if p["emit"] == "blocks" else sched.horizon
    if rows != expected:
        raise CheckError(f"{rows} output rows, expected {expected}")
    eps = float(p["eps"])
    last = dimension.verify_lower_bound_chain(sched, eps, p["delta"], sched.horizon)
    first_n = last.n_independent_from
    chain = [dimension.verify_lower_bound_chain(sched, eps, p["delta"], n)
             for n in (first_n, (first_n + sched.horizon) // 2)] + [last]
    bounds = {c.log_lower_bound for c in chain}
    if len(bounds) != 1 or not all(c.positive and math.isfinite(c.log_lower_bound) for c in chain):
        raise CheckError(f"lower-bound chain not positive and n-independent: {bounds}")
    return {"horizon": sched.horizon, "blocks": len(sched.blocks),
            "truncated": sched.truncated, "bytes": len(out)}


TAU_LINE = re.compile(r"tau estimate: (\S+)")


def run_tau(p: dict, tracer) -> dict:
    horizon = p["horizon"]
    code, out, err = run_cli(["--format", "csv", "tau", "--source", p["source"],
                              "--horizon", str(horizon)])
    if code != 0:
        raise CheckError(f"tau exited {code}: {err.strip()[-200:]}")
    rows = list(csv.reader(io.StringIO(out)))
    expected_rows = len(range(0, horizon, max(1, horizon // 10_000)))
    if rows[0] != ["n", "x", "ratio"] or len(rows) - 1 != expected_rows:
        raise CheckError("tau CSV has the wrong header or row count")
    # the CSV holds the trajectory; the estimate is on the stderr summary line
    match = TAU_LINE.search(err)
    if match is None:
        raise CheckError("tau printed no estimate")
    estimate = float(match.group(1))
    source = p["source"]
    exact = 1.0 / float(source.split(":")[1]) if source.startswith("power:") else 2.0
    return {"abs_err": abs(estimate - exact), "bytes": len(out)}


def run_threshold(p: dict, tracer) -> dict:
    r = dimension.upper_threshold(digit_set(p["set"]), p["eps"])
    if not r.sum_at_cutoff <= 1.0 < r.sum_before_cutoff:
        raise CheckError(f"threshold crossing broken: {r.to_json()}")
    return {"N": r.norm_cutoff}


RUNNERS: dict[str, Callable] = {
    "roundtrip": run_roundtrip, "soundness": run_soundness, "dim": run_dim,
    "certify": run_certify, "pressure": run_pressure, "schedule": run_schedule,
    "tau": run_tau, "threshold": run_threshold,
}


def run_job(job: Job, tracer) -> dict:
    return RUNNERS[job.kind](job.params, tracer)


# ---------------------------------------------------------------------------
# seeded streams; `traffic` receives a record of every input generated


def _box_point(rng: random.Random, log10_norm: float) -> ExactComplexRational:
    """A nonzero point alpha/beta of the unit box with N(beta) near 10^log10_norm."""
    radius = math.sqrt(10.0 ** log10_norm)
    while True:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        beta = GaussianInt(round(radius * math.cos(angle)), round(radius * math.sin(angle)))
        if not beta:
            continue
        w = complex(beta) * complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        alpha = GaussianInt(round(w.real), round(w.imag))
        z = ExactComplexRational.from_gaussian(alpha) / ExactComplexRational.from_gaussian(beta)
        z = z.sub_gaussian(gaussian.nearest_round(z))
        if not z.is_zero():
            return z


def _literal(z: ExactComplexRational) -> str:
    return f"{z.re}{'+' if z.im >= 0 else '-'}{abs(z.im)} i"


ROUNDTRIP_STRATA = 18  # equal slices of log10 N(beta) over [1, 18]


def exact_stream(rng: random.Random, traffic: dict) -> Iterator[list[Job]]:
    cycle = 0
    while True:
        jobs = []
        for i in range(ROUNDTRIP_STRATA):
            log10_norm = 1.0 + 17.0 * (i + rng.random()) / ROUNDTRIP_STRATA
            z = _box_point(rng, log10_norm)
            traffic["denominator_log10"].append(int(log10_norm))
            jobs.append(Job("roundtrip", {"text": _literal(z), "value": z}))
        rng.shuffle(jobs)
        norm_sq_max = (8, 13, 25)[cycle % 3]
        samples = rng.randint(1, 4)
        traffic["tessellations"].append((norm_sq_max, samples))
        jobs.append(Job("soundness", {"norm_sq_max": norm_sq_max, "samples": samples,
                                      "seed": rng.randrange(1 << 31)}))
        yield jobs
        cycle += 1


def _draw_alphabet(rng: random.Random, size: int, seen: set) -> tuple:
    while True:
        digits = tuple(rng.sample(POOL, size))
        key = frozenset(digits)
        if key not in seen:
            seen.add(key)
            return digits


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    """Geometric midpoints of `count` equal slices of [lo, hi] in log scale."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + 0.5) / count) for i in range(count)]


def _pressure_shape(target: float) -> tuple[int, int]:
    """(k, n) with 2 <= k <= 16 and k^n in [1e3, 2^18] nearest to target."""
    shapes = [(k, n) for k in range(2, 17) for n in range(1, 19) if 1000 <= k**n <= DIM_MAX_WORDS]
    return min(shapes, key=lambda kn: (abs(math.log(kn[0] ** kn[1] / target)), kn))


# Shapes (alphabet size, word length) of the pressure jobs of a cycle, with
# word counts log-uniform over [1e3, 2^18].  Job cost follows the word
# count, so it is the same in every cycle and every seed.
PRESSURE_SHAPES = tuple(_pressure_shape(t) for t in _log_grid(1e3, DIM_MAX_WORDS, len(DIM_SIZES)))


def _dim_and_certify(digits, ref: str | None = None) -> list[Job]:
    """A dim job and the certify job that checks its interval, sharing a slot."""
    slot: dict = {}
    return [Job("dim", {"digits": digits, "ref": ref, "slot": slot}),
            Job("certify", {"digits": digits, "slot": slot})]


def pressure_stream(rng: random.Random, traffic: dict) -> Iterator[list[Job]]:
    seen = {frozenset(WARMUP_ALPHABET)} | {frozenset(d) for d, _ in REFERENCES.values()}
    while True:
        jobs = []
        for size, (k, n) in zip(DIM_SIZES, PRESSURE_SHAPES):
            digits = _draw_alphabet(rng, size, seen)
            traffic["alphabets"].append(("dim", size, None, frozenset(digits)))
            pdigits = _draw_alphabet(rng, k, seen)
            traffic["alphabets"].append(("pressure", k, n, frozenset(pdigits)))
            jobs += _dim_and_certify(digits)
            jobs.append(Job("pressure", {"digits": pdigits, "n": n, "s": rng.uniform(0.2, 2.0),
                                         "mode": rng.choice(("sup_norm", "base_point"))}))
        yield jobs


def reference_jobs(workload: str, traffic: dict) -> list[Job]:
    """Jobs with known answers that every run of the workload makes once.

    They run before the timed loop, with the same checks, so their
    accuracy is measured every run while the timed mix stays the same.
    """
    if workload != "pressure":
        return []
    out = []
    for name, (digits, _) in REFERENCES.items():
        out += _dim_and_certify(digits, name)
        traffic["alphabets"].append(("dim", len(digits), None, frozenset(digits)))
    return out


SCHEDULE_HORIZONS = tuple(int(h) for h in _log_grid(2e3, 1.2e4, len(GROWTHS)))
TAU_HORIZONS = tuple(int(h) for h in _log_grid(1e5, 1e6, 3))


def _set_name(rng: random.Random, which: int) -> str:
    return ("d2", "lattice", f"minnormsq:{rng.randint(16, 24)}")[which % 3]


def schedule_stream(rng: random.Random, traffic: dict) -> Iterator[list[Job]]:
    """Every cycle pairs the same horizons with the same growth functions,
    digit sets and tau sources, so every cycle costs about the same.  The
    seed draws eps, the minnormsq cutoff, the output format, delta and p;
    eps and the cutoff stay in narrow bands because build time depends on
    them (across eps in [0.3, 0.9] it varied twofold at one horizon)."""
    while True:
        schedules, taus, thresholds = [], [], []
        for i, (horizon, growth) in enumerate(zip(SCHEDULE_HORIZONS, GROWTHS)):
            set_name = _set_name(rng, i)
            fmt, emit = rng.choice(SCHEDULE_FORMATS)
            traffic["schedules"].append((set_name, growth, horizon))
            schedules.append(Job("schedule", {
                "set": set_name, "f": growth, "eps": f"{rng.uniform(0.45, 0.55):.3f}",
                "horizon": horizon, "format": fmt, "emit": emit,
                "delta": rng.choice((0.25, 0.5, 1.0))}))
        sources = ("lattice", "d2", f"power:{rng.uniform(0.5, 2.0):.2f}")
        for i, (horizon, source) in enumerate(zip(TAU_HORIZONS, sources)):
            traffic["tau"].append((source, horizon))
            taus.append(Job("tau", {"source": source, "horizon": horizon}))
            set_name = _set_name(rng, i)
            traffic["thresholds"].append(set_name)
            thresholds.append(Job("threshold", {"set": set_name, "eps": rng.uniform(0.3, 2.0)}))
        jobs = []
        for i in range(3):
            jobs += [schedules[2 * i], taus[i], schedules[2 * i + 1], thresholds[i]]
        yield jobs


STREAMS = {"exact": exact_stream, "pressure": pressure_stream, "schedule": schedule_stream}


# ---------------------------------------------------------------------------
# warm-up and self-tests (fixed inputs, outside every timed set)


def warm_up(workload: str) -> None:
    """One job of each kind on fixed inputs that no stream generates."""
    no_trace = spans.Tracer()  # a tracer that is not enabled records nothing
    if workload == "exact":
        z = gaussian.parse_exact_complex("2/5+0/1 i")
        run_roundtrip({"text": "2/5+0/1 i", "value": z}, no_trace)
        run_soundness({"norm_sq_max": 8, "samples": 1, "seed": 0}, no_trace)
    elif workload == "pressure":
        for job in _dim_and_certify(WARMUP_ALPHABET):
            run_job(job, no_trace)
    else:
        run_cli(["schedule", "--set", "d2", "--f", "n+3", "--eps", "0.5", "--horizon", "500"])
        run_cli(["--format", "csv", "tau", "--source", "lattice", "--horizon", "1000"])
        run_threshold({"set": "d2", "eps": 2.0}, no_trace)


def self_tests(workload: str) -> tuple[dict[str, bool], dict[str, float]]:
    """Show that the checks this workload relies on can fail.

    Returns (named pass/fail results, measured values worth recording).
    """
    out: dict[str, bool] = {}
    values: dict[str, float] = {}
    if workload == "exact":
        z = gaussian.parse_exact_complex("-3/10+17/100 i")
        result = expansion.expand(z)
        digits = result.digits.digits
        tampered = (-digits[0],) + digits[1:]
        out["prefix_check_catches_tampered_digit"] = _raises(check_prefix, tampered, digits)
        wrong = expansion.ExpansionResult(
            expansion.DigitWord(tampered), True, ExactComplexRational())
        out["roundtrip_check_catches_wrong_value"] = _raises(check_roundtrip, z, wrong)
        out["checks_accept_correct_output"] = not (
            _raises(check_prefix, digits[:2], digits) or _raises(check_roundtrip, z, result))
    elif workload == "pressure":
        digits, _ = REFERENCES["annulus:8:16"]
        log_sups, log_infs = certify_logs(digits, 3)
        # bowen_dimension's seed interval for annulus:8:16 at n=3
        out["certify_refutes_low_annulus_interval"] = refutes(
            log_sups, log_infs, 3, 1.341796875, 1.3427734375)
        out["certify_accepts_0_2"] = not refutes(log_sups, log_infs, 3, 0.0, 2.0)
        values["annulus_log_zinf_over_3_at_1.3427734375"] = log_z_over_n(log_infs, 1.3427734375, 3)
    else:
        code, _, _ = run_cli(["schedule", "--set", "d2", "--f", "n+3", "--eps", "5",
                              "--horizon", "500"])
        out["cli_domain_error_exits_2"] = code == 2
    return out, values


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckError:
        return True
    return False
