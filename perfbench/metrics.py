"""End-to-end and per-layer metrics computed from job records and spans."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

from jobs import REFERENCES


@dataclass
class Record:
    """One timed job: kind, cycle, whether it ran traced, timing and outcome.

    `seconds` is the duration scaled to the reference speed (calibrate.py);
    `raw_seconds` is the wall time as measured.
    """

    kind: str
    cycle: int
    traced: bool
    raw_seconds: float
    ok: bool
    info: dict = field(default_factory=dict)
    seconds: float = 0.0


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample; its percentile is the share of samples
    at or below it.  Below 21 samples that percentile would not exceed the
    median, so the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    idx = n - 11 if n >= 21 else n - 1
    return {"value": ordered[idx], "percentile": round(100.0 * (idx + 1) / n, 2), "samples": n}


def _m(value, unit: str, **extra) -> dict:
    return dict(value=value, unit=unit, **extra)


def _of(records: list[Record], kind: str) -> list[Record]:
    return [r for r in records if r.kind == kind]


def _rate(records: list[Record], kind: str, key: str | None = None) -> float:
    """Units of work (ok jobs, or the sum of info[key]) per second spent on `kind`."""
    rs = _of(records, kind)
    busy = sum(r.seconds for r in rs)
    done = sum((r.info[key] if key else 1) for r in rs if r.ok)
    return done / busy if busy > 0 else 0.0


def _latency(records: list[Record], kind: str, name: str, with_tail: bool) -> dict:
    times = [r.seconds for r in _of(records, kind)]
    if not times:
        return {}
    out = {f"{name}_p50_s": _m(statistics.median(times), "s", samples=len(times))}
    if with_tail:
        t = tail(times)
        out[f"{name}_tail_s"] = _m(t["value"], "s", percentile=t["percentile"],
                                   samples=t["samples"])
    return out


def end_to_end(records: list[Record], workload: str) -> dict:
    """The timing metrics of the workload, from the given (timed) jobs."""
    if not records:
        return {}
    times = [r.seconds for r in records]
    t = tail(times)
    out = {
        "jobs_per_s": _m(sum(r.ok for r in records) / sum(times), "1/s"),
        "job_p50_s": _m(statistics.median(times), "s", samples=len(times)),
        # p90 is gated rather than job_tail_s: the tail's percentile moves
        # with the sample count, so runs of different length compare unlike
        # strata.
        "job_p90_s": _m(statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0],
                        "s", samples=len(times)),
        "job_tail_s": _m(t["value"], "s", percentile=t["percentile"], samples=t["samples"]),
    }
    if workload == "exact":
        out["roundtrip_per_s"] = _m(_rate(records, "roundtrip"), "1/s")
        out["soundness_samples_per_s"] = _m(_rate(records, "soundness", "samples"), "1/s")
    elif workload == "pressure":
        out.update(_latency(records, "dim", "dim", True))
        out["pressure_words_per_s"] = _m(_rate(records, "pressure", "words"), "1/s")
    else:
        out.update(_latency(records, "schedule", "schedule", True))
        out.update(_latency(records, "tau", "tau", False))
    return out


def accuracy(records: list[Record], workload: str) -> dict:
    """Failure share and the accuracy metrics, over every job of the run."""
    out = {"fail_ratio": _m(sum(not r.ok for r in records) / len(records), "ratio",
                            failed=sum(not r.ok for r in records), attempted=len(records))}
    if workload == "pressure":
        certified = [r for r in _of(records, "certify") if r.ok]
        if certified:
            refuted = sum(r.info["refuted"] for r in certified)
            out["dim_refuted_ratio"] = _m(refuted / len(certified), "ratio",
                                          refuted=refuted, certified=len(certified))
        refs = {r.info["ref"]: r.info for r in _of(records, "dim") if r.ok and r.info["ref"]}
        if refs:
            misses = {name: max(0.0, info["s_low"] - REFERENCES[name][1],
                                REFERENCES[name][1] - info["s_high"])
                      for name, info in refs.items()}
            out["dim_ref_miss"] = _m(max(misses.values()), "1", per_reference=misses)
    elif workload == "schedule":
        errs = [r.info["abs_err"] for r in _of(records, "tau") if r.ok]
        if errs:
            out["tau_abs_err"] = _m(max(errs), "1", samples=len(errs))
    return out


def by_kind(records: list[Record]) -> dict:
    out = {}
    for kind in dict.fromkeys(r.kind for r in records):
        rs = _of(records, kind)
        times = [r.seconds for r in rs]
        out[kind] = {"jobs": len(rs), "failed": sum(not r.ok for r in rs),
                     "busy_s": sum(times), "p50_s": statistics.median(times),
                     "tail": tail(times)}
    return out


# name, unit, the end-to-end metric it should move, the workload it moves on
PER_LAYER = [
    ("gaussian.parse_exact_complex.self_s", "s", "roundtrip_per_s", "exact"),
    ("expansion.expand.self_s", "s", "roundtrip_per_s", "exact"),
    ("expansion.evaluate.self_s", "s", "roundtrip_per_s", "exact"),
    ("expansion.digits", "count", "roundtrip_per_s", "exact"),
    ("expansion.digits_per_s", "1/s", "roundtrip_per_s", "exact"),
    ("expansion.expand_guarded.self_s", "s", "roundtrip_per_s", "exact"),
    ("expansion.guarded_digit_ratio", "ratio", "roundtrip_per_s", "exact"),
    ("svg.soundness_check.self_s", "s", "soundness_samples_per_s", "exact"),
    ("svg.render_svg.self_s", "s", "soundness_samples_per_s", "exact"),
    ("svg.samples", "count", "soundness_samples_per_s", "exact"),
    ("ifs.certify.self_s", "s", "jobs_per_s, dim_refuted_ratio", "pressure"),
    ("ifs.words", "count", "jobs_per_s, dim_refuted_ratio", "pressure"),
    ("ifs.words_per_s", "1/s", "jobs_per_s, dim_refuted_ratio", "pressure"),
    ("ifs.refuted", "count", "jobs_per_s, dim_refuted_ratio", "pressure"),
    ("dimension.bowen_dimension.self_s", "s", "dim_p50_s, dim_tail_s", "pressure"),
    ("dimension.bisection_iterations", "count", "dim_p50_s, dim_tail_s", "pressure"),
    ("dimension.n_used", "digits", "dim_p50_s, dim_tail_s", "pressure"),
    ("dimension.inconclusive_ratio", "ratio", "dim_p50_s, dim_tail_s", "pressure"),
    ("dimension.width_mean", "1", "dim_p50_s, dim_tail_s", "pressure"),
    ("dimension.partition_sum.self_s", "s", "pressure_words_per_s, dim_p50_s", "pressure"),
    ("dimension.partition_sum.calls", "count", "pressure_words_per_s, dim_p50_s", "pressure"),
    ("dimension.partition_sum.words", "count", "pressure_words_per_s, dim_p50_s", "pressure"),
    ("dimension.build_schedule.self_s", "s", "schedule_p50_s, schedule_tail_s", "schedule"),
    ("dimension.schedule_steps_per_s", "1/s", "schedule_p50_s, schedule_tail_s", "schedule"),
    ("dimension.blocks", "count", "schedule_p50_s, schedule_tail_s", "schedule"),
    ("dimension.truncated_ratio", "ratio", "schedule_p50_s, schedule_tail_s", "schedule"),
    ("dimension.validate_schedule.self_s", "s", "schedule_p50_s", "schedule"),
    ("dimension.subexp_check.self_s", "s", "schedule_p50_s", "schedule"),
    ("dimension.verify_lower_bound_chain.self_s", "s", "schedule_p50_s", "schedule"),
    ("dimension.tau_of_digit_set.self_s", "s", "schedule_p50_s", "schedule"),
    ("dimension.DigitSet.norm_sq_array.self_s", "s", "tau_p50_s", "schedule"),
    ("dimension.tau_exponent.self_s", "s", "tau_p50_s", "schedule"),
    ("dimension.upper_threshold.self_s", "s", "jobs_per_s", "schedule"),
    ("cli.schedule.self_s", "s", "schedule_p50_s", "schedule"),
    ("cli.tau.self_s", "s", "tau_p50_s", "schedule"),
    ("cli.output_bytes", "bytes", "schedule_p50_s, tau_p50_s", "schedule"),
    ("trace.overhead_share", "ratio", "none (cost of the spans themselves)", "all"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(records: list[Record], tracer) -> dict:
    """Per-layer values over the traced jobs; 0 where the workload never reaches a layer."""
    traced = [r for r in records if r.traced and r.ok]
    self_s = tracer.self_times()
    total = tracer.total_times()

    def info_sum(kind: str, key: str) -> float:
        return sum(r.info[key] for r in _of(traced, kind))

    dims = _of(traced, "dim")
    schedules = _of(traced, "schedule")
    digits = info_sum("roundtrip", "digits")
    words = info_sum("certify", "words")
    values = {name: self_s.get(name[: -len(".self_s")], 0.0)
              for name, *_ in PER_LAYER if name.endswith(".self_s")}
    values.update({
        "expansion.digits": digits,
        "expansion.digits_per_s": _ratio(digits, total.get("expansion.expand", 0.0)),
        "expansion.guarded_digit_ratio": _ratio(info_sum("roundtrip", "guarded"), digits),
        "svg.samples": info_sum("soundness", "samples"),
        "ifs.words": words,
        "ifs.words_per_s": _ratio(words, total.get("ifs.certify", 0.0)),
        "ifs.refuted": info_sum("certify", "refuted"),
        "dimension.bisection_iterations": info_sum("dim", "iterations"),
        "dimension.n_used": _ratio(info_sum("dim", "n_used"), len(dims)),
        "dimension.inconclusive_ratio": _ratio(sum(not r.info["conclusive"] for r in dims),
                                               len(dims)),
        "dimension.width_mean": _ratio(info_sum("dim", "width"), len(dims)),
        "dimension.partition_sum.calls": tracer.counts["dimension.partition_sum.calls"],
        "dimension.partition_sum.words": tracer.counts["dimension.partition_sum.words"],
        "dimension.schedule_steps_per_s": _ratio(info_sum("schedule", "horizon"),
                                                 total.get("dimension.build_schedule", 0.0)),
        "dimension.blocks": info_sum("schedule", "blocks"),
        "dimension.truncated_ratio": _ratio(sum(r.info["truncated"] for r in schedules),
                                            len(schedules)),
        "cli.output_bytes": info_sum("schedule", "bytes") + info_sum("tau", "bytes"),
        "trace.overhead_share": overhead_share(records),
    })
    return values


def overhead_share(records: list[Record]) -> float:
    """Extra time per traced job, kind by kind, as a share of the untraced time.

    Each kind's traced mean is compared with its untraced mean, so the
    comparison holds even when traced and untraced cycles differ in length.
    """
    extra = base = 0.0
    for kind in {r.kind for r in records}:
        tr = [r.seconds for r in _of(records, kind) if r.traced]
        un = [r.seconds for r in _of(records, kind) if not r.traced]
        if tr and un:
            extra += len(tr) * (statistics.fmean(tr) - statistics.fmean(un))
            base += len(tr) * statistics.fmean(un)
    return _ratio(extra, base)


def self_time_shares(records: list[Record], tracer) -> dict:
    """Self time of every span name as a share of the traced jobs' time.

    With one client and no contention this share is the most a faster
    layer can save on this workload.
    """
    busy = sum(r.raw_seconds for r in records if r.traced)
    return {name: _ratio(t, busy) for name, t in
            sorted(tracer.self_times().items(), key=lambda kv: -kv[1])}


def _hist(values) -> dict:
    return dict(sorted(Counter(values).items()))


def traffic_summary(traffic: dict, records: list[Record]) -> dict:
    out: dict = {}
    roundtrips = [r for r in _of(records, "roundtrip") if r.ok]
    if roundtrips:
        out["digit_count_histogram"] = _hist(r.info["digits"] for r in roundtrips)
        out["denominator_log10_histogram"] = _hist(traffic["denominator_log10"])
    if traffic["tessellations"]:
        out["tessellations"] = {f"norm_sq_max={a},samples={b}": c for (a, b), c in
                                sorted(Counter(traffic["tessellations"]).items())}
    if traffic["alphabets"]:
        out["alphabet_sizes"] = {
            kind: _hist(size for k, size, _, _ in traffic["alphabets"] if k == kind)
            for kind in ("dim", "pressure")}
        dims = Counter((r.info["size"], r.info["n_used"]) for r in _of(records, "dim") if r.ok)
        out["dim_word_tables"] = [{"size": k, "n": n, "words": k**n, "jobs": c}
                                  for (k, n), c in sorted(dims.items())]
        pressure_words = [size**n for k, size, n, _ in traffic["alphabets"] if k == "pressure"]
        keys = [key for *_, key in traffic["alphabets"]]
        out["repeated_alphabets"] = len(keys) - len(set(keys))
        out["pressure_words_log10_histogram"] = _hist(int(math.log10(w)) for w in pressure_words)
        certify = [r.info for r in _of(records, "certify") if r.ok]
        out["certify_words_log10_histogram"] = _hist(int(math.log10(i["words"])) for i in certify)
    if traffic["schedules"]:
        out["schedule_growths"] = dict(Counter(f for _, f, _ in traffic["schedules"]))
        out["schedule_sets"] = dict(Counter(s.split(":")[0] for s, _, _ in traffic["schedules"]))
        out["schedule_horizons"] = sorted(h for _, _, h in traffic["schedules"])
        out["tau_jobs"] = sorted(traffic["tau"], key=lambda t: t[1])
        out["threshold_sets"] = dict(Counter(s.split(":")[0] for s in traffic["thresholds"]))
    return out
