"""The benchmark's own jobs on their first cycle, so that a change which
breaks a traced name or a bench check fails here and not only in a bench
run.  `perfbench/` is put on the path and only read."""

import random
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import hurwitzcf
import hurwitzcf.cli  # noqa: F401  (the traced `cli.schedule` and `cli.tau` live here)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import jobs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = sorted(jobs.STREAMS)


def test_traced_names_resolve():
    for owner_path, attr, _ in spans.TRACED:
        owner = hurwitzcf
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr)), (owner_path, attr)


def test_tracer_patches_and_restores():
    before = hurwitzcf.dimension.partition_sum
    with spans.Tracer().patched(hurwitzcf):
        assert hurwitzcf.dimension.partition_sum is not before
    assert hurwitzcf.dimension.partition_sum is before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_tests_pass(workload):
    checks, _ = jobs.self_tests(workload)
    assert checks and all(checks.values()), checks


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_cycle_passes_its_checks(workload):
    # run_job raises jobs.CheckError on any wrong output
    traffic = defaultdict(list)
    tracer = spans.Tracer()
    cycle = next(jobs.STREAMS[workload](random.Random(0), traffic))
    for job in jobs.reference_jobs(workload, traffic) + cycle:
        jobs.run_job(job, tracer)


@pytest.mark.parametrize("norm_sq_max", [8, 13, 25])
def test_soundness_jobs_pass_on_every_stratum(norm_sq_max):
    # the exact stream cycles norm_sq_max through 8, 13 and 25 and draws 1 to
    # 4 samples a region; run_soundness raises jobs.CheckError on a failed check
    regions = len(hurwitzcf.svg.region_digits(hurwitzcf.TessellationSpec(norm_sq_max=norm_sq_max)))
    for samples in range(1, 5):
        info = jobs.run_soundness({"norm_sq_max": norm_sq_max, "samples": samples, "seed": samples},
                                  spans.Tracer())
        assert info == {"samples": regions * samples}


@pytest.mark.parametrize("fmt, emit", jobs.SCHEDULE_FORMATS)
def test_schedule_jobs_pass_in_every_format(fmt, emit):
    # run_schedule counts the JSON blocks or the CSV rows against the built
    # schedule and raises jobs.CheckError on a mismatch
    info = jobs.run_schedule({"set": "d2", "f": "n+3", "eps": "0.5", "horizon": 3000,
                              "format": fmt, "emit": emit, "delta": 0.5}, spans.Tracer())
    assert info["horizon"] == 3000 and info["blocks"] > 10 and not info["truncated"]


@pytest.mark.parametrize("source", ["lattice", "d2", "power:0.74"])
def test_tau_jobs_pass_on_every_source(source):
    # run_tau checks the CSV header and its 10^4 trajectory rows
    info = jobs.run_tau({"source": source, "horizon": 100_000}, spans.Tracer())
    assert info["abs_err"] < 0.05 and info["bytes"] > 10_000 * len("1,1.0,0.0\n")


@pytest.mark.parametrize("horizon", jobs.TAU_HORIZONS)
@pytest.mark.parametrize("source", ["lattice", "d2", "power:0.74"])
def test_tau_jobs_pass_at_the_bench_horizons(source, horizon):
    # the horizons every schedule cycle runs, each with its row and estimate checks
    info = jobs.run_tau({"source": source, "horizon": horizon}, spans.Tracer())
    assert info["abs_err"] < 0.05


@pytest.mark.parametrize("eps", [0.3, 2.0])
@pytest.mark.parametrize("set_name", ["d2", "lattice", "minnormsq:16", "minnormsq:24"])
def test_threshold_jobs_pass_at_the_ends_of_the_bench_range(set_name, eps):
    # run_threshold raises jobs.CheckError unless the sum crosses 1 at the cutoff
    assert jobs.run_threshold({"set": set_name, "eps": eps}, spans.Tracer())["N"] >= 1


SHAPE_ENDS = [min(jobs.PRESSURE_SHAPES, key=lambda kn: kn[0] ** kn[1]),
              max(jobs.PRESSURE_SHAPES, key=lambda kn: kn[0] ** kn[1])]


@pytest.mark.parametrize("mode", ["sup_norm", "base_point"])
@pytest.mark.parametrize("k, n", SHAPE_ENDS, ids=[f"k{k}-n{n}" for k, n in SHAPE_ENDS])
def test_pressure_jobs_pass_at_the_smallest_and_largest_shapes(k, n, mode):
    # run_pressure counts the words and raises jobs.CheckError on a bad bracket
    digits = tuple(random.Random(k).sample(jobs.POOL, k))
    info = jobs.run_pressure({"digits": digits, "n": n, "s": 1.1, "mode": mode}, spans.Tracer())
    assert info == {"words": k**n}


# alphabet size -> word length: 2 digits take n 12 in one block with no
# tail levels, 3 digits n 11 in runs with tail levels, 16 digits n 4
DIM_LENGTHS = {2: 12, 3: 11, 16: 4}


@pytest.mark.parametrize("size", list(DIM_LENGTHS))
def test_dim_then_certify_jobs_pass(size):
    # run_dim checks the width and the bracket signs, run_certify its interval
    digits = tuple(random.Random(size).sample(jobs.POOL, size))
    slot: dict = {}
    info = jobs.run_dim({"digits": digits, "ref": None, "slot": slot}, spans.Tracer())
    assert info["n_used"] == DIM_LENGTHS[size]
    certified = jobs.run_certify({"digits": digits, "slot": slot}, spans.Tracer())
    assert certified["words"] > 0
