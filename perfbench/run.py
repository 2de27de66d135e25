"""Benchmark of hurwitzcf: three seeded workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload {exact,pressure,schedule} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ./src (as with PYTHONPATH=src), so nothing
needs installing.  Each workload is a closed loop with one client: one
process, no extra threads, the next job starting when the previous one
ends.  The report goes to stdout as indented JSON; the last line is one
JSON object {correct, attempted, failed, metrics}, holding the gated
end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  A traced run alternates untraced and traced cycles, takes the
per-layer numbers from the traced ones and reports the difference as the
tracing overhead.  Spans of a traced run go to
.perfbench/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# The metrics the BENCHMARK.json end_to_end list gates, on every workload.
GATED = ("setup_s", "jobs_per_s", "job_p50_s", "job_p90_s", "peak_rss_mb")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact", "pressure", "schedule"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(root: Path, workload: str) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and run one warm-up job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload], cwd=root, env=env,
                       check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git inside the checkout only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, seed: int) -> dict:
    from importlib import metadata

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hurwitzcf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    return {
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "mpmath", "click")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "import_path": "src (as PYTHONPATH=src: the package is run from source, not installed)",
    }


def run_one(jobs, metrics, job, cycle: int, tracer):
    """Run and time one job; a job that raises is recorded as failed."""
    start = time.perf_counter()
    try:
        with tracer.span("job." + job.kind):
            info = jobs.run_job(job, tracer)
        ok = True
    except Exception as exc:  # a failing job is counted; the run goes on
        ok = False
        info = {"error": f"{type(exc).__name__}: {exc}", "where": traceback.format_exc(limit=-3)}
    end = time.perf_counter()
    return metrics.Record(job.kind, cycle, tracer.enabled, end - start, ok, info,
                          seconds=end - start)


def run_loop(jobs, metrics, stream, seconds: float, trace: bool, tracer, cal) -> list:
    """Closed loop: run jobs back to back until `seconds` of wall time have passed.

    With tracing on, odd cycles run traced and even cycles untraced.  The
    calibration kernel runs between jobs, outside their timing.
    """
    records = []
    deadline = time.perf_counter() + seconds
    for cycle, job in ((c, j) for c, batch in enumerate(stream) for j in batch):
        if cal.due(time.perf_counter()):
            cal.run()
        tracer.enabled = trace and cycle % 2 == 1
        tracer.job = len(records)
        records.append(run_one(jobs, metrics, job, cycle, tracer))
        if time.perf_counter() >= deadline:
            break
    tracer.enabled = False
    cal.run()
    factor = cal.factor()
    for r in records:
        r.seconds = r.raw_seconds * factor
    return records


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hurwitzcf" / "__init__.py").is_file():
        print("perfbench: src/hurwitzcf not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    setup_times = measure_setup(root, args.workload)

    import random

    import hurwitzcf
    import jobs
    import metrics
    import spans

    jobs.warm_up(args.workload)
    checks, selftest_values = jobs.self_tests(args.workload)

    tracer = spans.Tracer()
    traffic = defaultdict(list)
    references = [run_one(jobs, metrics, job, -1, tracer)
                  for job in jobs.reference_jobs(args.workload, traffic)]
    stream = jobs.STREAMS[args.workload](random.Random(args.seed), traffic)
    cal = calibrate.Calibration()
    patches = tracer.patched(hurwitzcf) if args.trace else contextlib.nullcontext()
    with patches:
        records = run_loop(jobs, metrics, stream, args.seconds, bool(args.trace), tracer, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_records = references + records
    traffic_record = metrics.traffic_summary(traffic, all_records)
    failed = sum(not r.ok for r in all_records)
    repeated = traffic_record.get("repeated_alphabets", 0)
    correct = failed == 0 and all(checks.values()) and repeated == 0

    # Timing metrics use whole cycles only, so every run measures the same
    # mix of strata; the cycle cut short by the deadline is left out.
    whole = [r for r in records if r.cycle < records[-1].cycle] or records
    untraced = [r for r in whole if not r.traced]
    # setup_s is scaled by the same factor as the job times: its raw median
    # follows the host's speed drift from one set of runs to the next.
    e2e = {
        "setup_s": {"value": statistics.median(setup_times) * cal.factor(), "unit": "s",
                    "meaning": "fresh interpreter: import hurwitzcf.cli plus one warm-up job, "
                    "median of the probes"},
        **metrics.end_to_end(untraced, args.workload),
        **metrics.accuracy(all_records, args.workload),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    raw_e2e = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s", "samples": setup_times},
        **metrics.end_to_end([dataclasses.replace(r, seconds=r.raw_seconds) for r in untraced],
                             args.workload),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process, no extra threads",
        "end_to_end": e2e,
        "end_to_end_raw": raw_e2e,
        "calibration": cal.summary(),
        "whole_cycles": len({r.cycle for r in whole}),
        "job_kinds": metrics.by_kind(untraced),
        "self_tests": {"checks": checks, "values": selftest_values},
        "failures": [dict(kind=r.kind, **r.info) for r in all_records if not r.ok][:5],
        "traffic": traffic_record,
        "provenance": provenance(root, args.seed),
    }
    if args.trace:
        traced = [r for r in whole if r.traced] or [r for r in records if r.traced]
        layer_values = metrics.per_layer(records, tracer)
        traced_e2e = metrics.end_to_end(traced, args.workload)
        report["per_layer"] = [
            {"name": name, "value": layer_values[name], "unit": unit,
             "should_move": moves, "on": on}
            for name, unit, moves, on in metrics.PER_LAYER]
        report["self_time_share"] = metrics.self_time_shares(records, tracer)
        report["trace_overhead"] = {
            name: {"traced": m["value"], "untraced": e2e[name]["value"],
                   "traced_minus_untraced": m["value"] - e2e[name]["value"], "unit": m["unit"]}
            for name, m in traced_e2e.items() if name in e2e}
        report["trace_note"] = spans.UNTRACED_NOTE
        spans_path = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        report["spans_file"] = str(spans_path.relative_to(root))
        final = {name: {"value": layer_values[name], "unit": unit}
                 for name, unit, _, _ in metrics.PER_LAYER}
    else:
        final = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]} for name in GATED}

    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": len(all_records), "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
