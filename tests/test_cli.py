import contextlib
import csv
import gc
import hashlib
import inspect
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import types
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hurwitzcf
from hurwitzcf import cli as climod
from hurwitzcf import dimension, expansion
from hurwitzcf.cli import cli
from hurwitzcf.config import RunConfig


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output + str(result.exception)
    return result


class TestExpand:
    def test_two_fifths(self, runner):
        result = run_ok(runner, ["expand", "2/5+0/1 i"])
        payload = json.loads(result.stdout)
        assert payload["digits"] == [[3, 0], [-2, 0]]
        assert payload["display"] == "3; -2"
        assert payload["terminated"] and payload["roundtrip_ok"]

    def test_zero(self, runner):
        payload = json.loads(run_ok(runner, ["expand", "0/1+0/1 i"]).stdout)
        assert payload["digits"] == [] and payload["terminated"]

    def test_boundary_domain_error(self, runner):
        result = runner.invoke(cli, ["expand", "1/2+0/1 i"])
        assert result.exit_code == 2

    def test_parse_error(self, runner):
        result = runner.invoke(cli, ["expand", "not-a-number"])
        assert result.exit_code == 2

    def test_csv_format(self, runner):
        result = run_ok(runner, ["--format", "csv", "expand", "2/5+0/1 i"])
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "index,re,im"
        assert lines[1] == "1,3,0" and lines[2] == "2,-2,0"

    def test_csv_without_rows_has_header(self, runner):
        # 0 has no digits, so its table is the header alone
        assert run_ok(runner, ["--format", "csv", "expand", "0"]).stdout == "index,re,im\n"


class TestCsvRows:
    """Tables of int and float columns are formatted without csv.writer;
    the bytes must be the ones csv.writer writes."""

    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324, 0.1, 1 / 3, 2.5e300]
    INTS = [2**63, -(2**63), 0, 1, -7, 10**30, 2**53 + 1, 42, -1, 3, 2**64]

    @staticmethod
    def _emit(capsys, payload, columns=None):
        table = () if columns is None else (list(columns), [list(columns.values())])  # one block
        climod._emit(types.SimpleNamespace(obj={"format": "csv", "out": None}), payload, *table)
        return capsys.readouterr().out

    @staticmethod
    def _csv_writer(columns):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                               for c in columns.values())))
        return buf.getvalue()

    def test_edge_values_as_lists(self, capsys):
        columns = {"x": self.FLOATS, "k": self.INTS, "mixed": self.INTS[:5] + self.FLOATS[:6]}
        assert self._emit(capsys, {}, columns) == self._csv_writer(columns)

    def test_arrays_across_row_blocks(self, capsys):
        rng = np.random.default_rng(7)
        rows = 3 * climod._ROW_BLOCK + 5
        scale = 10.0 ** rng.integers(-300, 300, rows - len(self.FLOATS))
        x = np.concatenate([self.FLOATS, rng.standard_normal(rows - len(self.FLOATS)) * scale])
        columns = {"n": np.arange(1, rows + 1, dtype=np.int64), "x": x,
                   "u": np.full(rows, 2**63, dtype=np.uint64),
                   "h": rng.standard_normal(rows).astype(np.float32)}
        text = self._emit(capsys, {}, columns)
        assert text == self._csv_writer(columns)
        assert text.count("\n") == rows + 1 and "\n1,nan,9223372036854775808," in text

    def test_no_rows_is_the_header(self, capsys):
        columns = {"n": np.empty(0, dtype=np.int64), "ratio": np.empty(0), "t": []}
        assert self._emit(capsys, {}, columns) == "n,ratio,t\n"

    def test_other_columns_go_through_csv_writer(self, capsys):
        payload = {"f": "max(10, sqrt(n))", "truncated": True, "warning": None, "horizon": 70000,
                   "tau": 2.0}
        text = self._emit(capsys, payload)
        assert text == 'f,truncated,warning,horizon,tau\n"max(10, sqrt(n))",True,,70000,2.0\n'
        columns = {"ok": np.array([True, False]), "n": np.arange(2), "s": ["a,b", 'q"']}
        assert self._emit(capsys, {}, columns) == self._csv_writer(columns)
        columns = {"ok": [True, 1], "x": [0.5, None]}
        assert self._emit(capsys, {}, columns) == "ok,x\nTrue,0.5\n1,\n"

    @staticmethod
    def _count_csv_writer(monkeypatch) -> list:
        calls = []
        real = climod._csv_text
        monkeypatch.setattr(climod, "_csv_text", lambda rows: calls.append(1) or real(rows))
        return calls

    def test_int_uint_and_float_arrays_are_formatted_column_wise(self, capsys, monkeypatch):
        rng = np.random.default_rng(11)
        rows = climod._ROW_BLOCK + 9
        edges32 = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-45, 3.4e38, 0.1, 16777217.0]
        columns = {
            "i64": np.r_[[-(2**63), 2**63 - 1, 0, -1],
                         rng.integers(-(2**63), 2**63 - 1, rows - 4, dtype=np.int64)],
            "u64": np.r_[np.array([2**64 - 1, 0, 2**63], dtype=np.uint64),
                         rng.integers(0, 2**64 - 1, rows - 3, dtype=np.uint64)],
            "f32": np.r_[np.array(edges32, dtype=np.float32),
                         (rng.standard_normal(rows - len(edges32))
                          * 10.0 ** rng.integers(-30, 30, rows - len(edges32))).astype(np.float32)],
            "f64": np.r_[self.FLOATS, rng.standard_normal(rows - len(self.FLOATS))
                         * 10.0 ** rng.integers(-300, 300, rows - len(self.FLOATS))],
        }
        assert [c.dtype.name for c in columns.values()] == ["int64", "uint64", "float32", "float64"]
        calls = self._count_csv_writer(monkeypatch)
        assert self._emit(capsys, {}, columns) == self._csv_writer(columns)
        assert len(calls) == 1  # the header alone: both row blocks took the column-wise path

    @pytest.mark.parametrize("column", [
        np.array([True, False, True, True]),
        np.array([1 + 2j, -0.5j, complex(math.nan, 1.0), 3.0 + 0j]),
        [1, True, 0, False],
    ], ids=["bool array", "complex array", "int and bool list"])
    def test_bool_and_complex_stay_on_csv_writer(self, capsys, monkeypatch, column):
        columns = {"n": np.arange(4), "x": np.linspace(0.0, 1.0, 4), "v": column}
        calls = self._count_csv_writer(monkeypatch)
        assert self._emit(capsys, {}, columns) == self._csv_writer(columns)
        assert len(calls) == 2  # the header and the one row block


class TestEvalAndClassify:
    def test_eval_roundtrip(self, runner):
        payload = json.loads(run_ok(runner, ["eval", "[[3,0],[-2,0]]"]).stdout)
        assert payload["re"] == "2/5" and payload["im"] == "0"

    def test_eval_pole_exit(self, runner):
        result = runner.invoke(cli, ["eval", "[[1,1],[-1,1],[1,1]]"])
        assert result.exit_code == 2

    def test_classify(self, runner):
        payload = json.loads(run_ok(runner, ["classify", "2", "1"]).stdout)
        assert payload["class"] == "exceptional"
        payload = json.loads(run_ok(runner, ["classify", "1", "0"]).stdout)
        assert payload["class"] == "invalid"


class TestTessellate:
    def test_writes_svg(self, runner, tmp_path):
        out = tmp_path / "t.svg"
        run_ok(runner, ["--out", str(out), "tessellate", "--norm-sq-max", "8"])
        doc = out.read_text()
        assert doc.startswith("<?xml") and doc.count("<path") == 20


class TestTau:
    def test_power_source(self, runner):
        payload = json.loads(
            run_ok(runner, ["tau", "--source", "power:2", "--horizon", "5000"]).stdout
        )
        assert abs(payload["estimate"] - 0.5) < 1e-9

    def test_bad_source(self, runner):
        result = runner.invoke(cli, ["tau", "--source", "fib"])
        assert result.exit_code == 2


class TestPressureAndDim:
    def test_pressure_json(self, runner):
        result = run_ok(
            runner,
            ["pressure", "--alphabet", "[[2,2],[-2,-2]]", "--n", "3", "--s", "1.0"],
        )
        payload = json.loads(result.stdout)
        assert set(payload) == {"s", "n", "logZ_over_n", "lo", "hi"}
        assert payload["lo"] <= payload["logZ_over_n"] <= payload["hi"]

    def test_pressure_budget_exit(self, runner, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_words = 10\n")
        result = runner.invoke(
            cli,
            ["--config", str(cfg), "pressure", "--alphabet",
             "[[2,2],[-2,-2],[3,0],[0,3]]", "--n", "6", "--s", "1.0"],
        )
        assert result.exit_code == 3

    def test_one_digit_word_length_budget_exit(self, runner, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_words = 1000\n")
        result = runner.invoke(
            cli,
            ["--config", str(cfg), "pressure", "--alphabet", "[[2,2]]", "--n", "1001", "--s", "0"],
        )
        assert result.exit_code == 3
        assert result.stderr == "budget exhausted: word length 1001 exceeds budget 1000\n"

    def test_dim_json(self, runner):
        result = run_ok(runner, ["dim", "--alphabet", "[[2,2]]", "--n-max", "6"])
        payload = json.loads(result.stdout)
        assert payload["s_low"] <= 0.0 <= payload["s_high"]

    def test_dim_words_beyond_float_range(self, runner):
        result = run_ok(runner, ["dim", "--alphabet", "[[2,2]]", "--n-max", "400"])
        assert json.loads(result.stdout) == {"s_low": 0.0, "s_high": 0.0, "n_used": 0,
                                             "enclosure": [0.0, 0.0], "certified": True}

    def test_dim_deep_one_digit_alphabet(self, runner, monkeypatch):
        # a one-digit attractor is a point: no word table at any n-max
        builds = []
        monkeypatch.setattr(dimension, "_word_value_table", lambda *args: builds.append(args))
        result = run_ok(runner, ["dim", "--alphabet", "[[2,2]]", "--n-max", "5000"])
        payload = json.loads(result.stdout)
        assert [payload["s_low"], payload["s_high"]] == [0, 0]
        assert builds == []

    def test_dim_reports_estimate_inside_enclosure(self, runner):
        result = run_ok(runner, ["dim", "--alphabet", "[[2,2],[-2,-2]]", "--n-max", "8"])
        payload = json.loads(result.stdout)
        low, high = payload["enclosure"]
        assert low <= payload["s_low"] <= payload["s_high"] <= high
        assert payload["certified"] is False

    def test_annulus_alphabet(self, runner):
        result = run_ok(
            runner,
            ["pressure", "--alphabet", "annulus:8:9", "--n", "2", "--s", "0.0"],
        )
        payload = json.loads(result.stdout)
        # eight branches of norm_sq 8 and 9: log 8 per step
        assert abs(payload["logZ_over_n"] - 2.0794415416798357) < 1e-12

    def test_alphabet_file_single_branch(self, runner, tmp_path):
        alpha = tmp_path / "alpha.json"
        alpha.write_text("[[2, 2]]")
        result = run_ok(runner, ["dim", "--alphabet", f"@{alpha}", "--n-max", "6"])
        payload = json.loads(result.stdout)
        assert payload["s_low"] <= 0.0 <= payload["s_high"]

    @pytest.mark.parametrize(
        "args",
        [["pressure", "--n", "3", "--s", "0"], ["dim", "--n-max", "4"]],
    )
    def test_duplicate_digits_collapse(self, runner, args):
        once = run_ok(runner, [args[0], "--alphabet", "[[2,2]]", *args[1:]])
        twice = run_ok(runner, [args[0], "--alphabet", "[[2,2],[2,2]]", *args[1:]])
        assert twice.stdout == once.stdout


class TestSchedule:
    def test_builds_and_validates(self, runner):
        result = run_ok(
            runner,
            ["schedule", "--set", "d2", "--f", "n+3", "--eps", "0.5",
             "--horizon", "2000"],
        )
        payload = json.loads(result.stdout)
        assert payload["horizon"] == 2000
        assert all(c["status"] == "pass" for c in payload["validation"])

    def test_constant_growth_warns_but_truncates(self, runner):
        result = run_ok(
            runner,
            ["schedule", "--set", "d2", "--f", "2", "--horizon", "500",
             "--no-validate"],
        )
        payload = json.loads(result.stdout)
        assert payload["truncated"]

    def test_bad_min_norm_sq_is_usage_error(self, runner):
        result = runner.invoke(cli, ["schedule", "--set", "minnormsq:abc", "--f", "n+3"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failing_validator_check_exits_one(self, runner, monkeypatch, fmt):
        args = ["--format", fmt, "schedule", "--set", "d2", "--f", "n+3", "--horizon", "2000"]
        passing = run_ok(runner, args).stdout
        monkeypatch.setattr(dimension, "SCHEDULE_CHECKS", (
            *dimension.SCHEDULE_CHECKS, ("always_fails", lambda sched, f: (False, None))))
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert result.stderr == "check failure: 1 schedule checks failed\n"
        if fmt == "csv":
            assert result.stdout == passing  # the table is written before the exit
        else:
            payload = json.loads(result.stdout)
            assert payload["validation"][-1] == {"check": "always_fails", "status": "fail"}
            assert dict(payload, validation=None) == dict(json.loads(passing), validation=None)

    @pytest.mark.parametrize("growth", ["-5", "1/(n-50)"])
    def test_negative_growth_bound_is_a_constant_below_the_first_level(self, runner, growth):
        # the builder reads f only at the steps it scans back from the
        # horizon, so a bound negative early on is no special case
        args = ["schedule", "--set", "d2", "--horizon", "1000", "--f"]
        result = run_ok(runner, [*args, growth])
        assert result.stderr == ("warning: growth bound never reaches level 3.606 within horizon; "
                                 "schedule truncated at block 1\n1 blocks, horizon 1000, tau 2\n")
        payload = json.loads(result.stdout)
        assert len(payload["blocks"]) == 1
        constant = json.loads(run_ok(runner, [*args, "2"]).stdout)
        assert dict(payload, f="2") == constant


class TestInputErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["pressure", "--alphabet", "[[2,2],[-2,-2]]", "--n", "3", "--s", "nan"],
            ["pressure", "--alphabet", "[[2,2],[-2,-2]]", "--n", "3", "--s", "inf"],
            ["dim", "--alphabet", "[[2,2],[-2,-2]]", "--tol", "nan"],
            ["dim", "--alphabet", "[[2,2],[-2,-2]]", "--tol", "0"],
            ["schedule", "--set", "d2", "--f", "log(n-5)+100", "--horizon", "300"],
            ["schedule", "--set", "d2", "--f", "(n-100)^0.5+50", "--horizon", "300"],
            ["schedule", "--set", "d2", "--f", "sqrt(n-100)+50", "--horizon", "300"],
            ["dim", "--alphabet", "@{missing}"],
            ["dim", "--alphabet", "@{bad_json}"],
            ["dim", "--alphabet", "[[2.5,2]]"],
            ["dim", "--alphabet", "[[true,8]]"],
            ["dim", "--alphabet", '{{"a": 1}}'],
            ["eval", "[1]"],
            ["eval", "{{}}"],
            ["eval", "@{missing}"],
            ["pressure", "--alphabet", "[[2,2],[-2,-2]]", "--n", "3", "--s", "1e9"],
            ["pressure", "--alphabet", "[[2,2]]", "--n", "400", "--s", "1"],
            ["tau", "--horizon", "0"],
            ["tau", "--source", "power:abc", "--horizon", "1000"],
            ["tau", "--source", "power:nan", "--horizon", "1000"],
            ["tau", "--source", "power:0", "--horizon", "1000"],
            ["tau", "--source", "power:-1", "--horizon", "1000"],
            ["tau", "--source", "power:1e308", "--horizon", "1000"],
            ["--format", "csv", "tau", "--source", "power:1e308", "--horizon", "1000"],
            ["expand", "2/5+0/1 i", "--max-digits", "0"],
            ["schedule", "--set", "d2", "--f", "n+3", "--horizon", "300", "--ratio-tol", "0"],
            ["schedule", "--set", "d2", "--f", "n+3", "--horizon", "300", "--ratio-tol", "-1"],
            ["dim", "--alphabet", "[[2,2]]", "--n-max", "0"],
            ["dim", "--alphabet", "[[2,2]]", "--n-max", "-3"],
            ["schedule", "--set", "minnormsq:0", "--f", "n+3", "--horizon", "1000"],
            ["schedule", "--set", "minnormsq:-5", "--f", "n+3", "--horizon", "1000"],
            ["--seed", "-1", "verify", "arith"],
            ["--config", "{bad_key}", "classify", "2", "2"],
            ["--config", "{bad_value}", "classify", "2", "2"],
            ["--config", "{directory}", "classify", "2", "2"],
            ["--config", "{missing}", "classify", "2", "2"],
            ["--seed", "abc", "classify", "2", "2"],
            ["pressure", "--alphabet", "[[2,2]]", "--n", "abc", "--s", "1"],
            ["pressure", "--alphabet", "[[2,2]]", "--n", "1200", "--s", "1"],
            ["--out", "{directory}", "classify", "2", "2"],
            ["--out", "{missing}/x.json", "classify", "2", "2"],
            ["pressure", "--alphabet", "d2", "--n", "2", "--s", "1"],
            ["dim", "--alphabet", "minnormsq:8"],
            ["dim", "--alphabet", "annulus:8"],
            ["dim", "--alphabet", "[" * 100_000],
            ["eval", "[" * 100_000],
            ["schedule", "--set", "[[2,2],[-2,-2]]", "--f", "n+3"],
            ["schedule", "--set", "annulus:8:16", "--f", "n+3"],
            ["schedule", "--set", "@{missing}", "--f", "n+3"],
            ["tessellate", "--stroke-width", "nan"],
            ["tessellate", "--stroke-width", "inf"],
            ["tessellate", "--stroke-width", "-1"],
        ],
    )
    def test_usage_and_domain_errors_exit_two(self, runner, tmp_path, args):
        (tmp_path / "bad.json").write_text("[[2, 2],")
        (tmp_path / "bad_key.cfg").write_text("wibble = 3\n")
        (tmp_path / "bad_value.cfg").write_text("seed = x\n")
        paths = {"missing": tmp_path / "missing.json", "bad_json": tmp_path / "bad.json",
                 "bad_key": tmp_path / "bad_key.cfg", "bad_value": tmp_path / "bad_value.cfg",
                 "directory": tmp_path}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning line would break the one-line contract
            result = runner.invoke(cli, [a.format(**paths) for a in args])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "args, line",
        [
            (["dim", "--alphabet", "[]"], "error: empty digit set"),
            (["dim", "--alphabet", "annulus:11:11"], "error: alphabet must be nonempty"),
            (["pressure", "--alphabet", "annulus:11:11", "--n", "2", "--s", "1"],
             "error: alphabet must be nonempty"),
        ],
    )
    def test_empty_alphabet_names_itself(self, runner, args, line):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stderr == line + "\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    def test_out_that_fills_up(self, runner):
        result = runner.invoke(cli, ["--out", "/dev/full", "classify", "2", "1"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write '/dev/full': [Errno 28] ")
        assert len(result.stderr.splitlines()) == 1


def _run_limited(args, tmp_path):
    """The CLI in a subprocess with 3 GB of address space (ulimit -v 3000000)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limit = 3_000_000 * 1024
    return subprocess.run(
        [sys.executable, "-m", "hurwitzcf.cli", *args], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


# a launcher a few MB in size runs the CLI and prints its exit code and peak
# RSS in KiB: a child's peak counts the image it was forked from, so the
# CLI is not spawned from pytest itself
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "hurwitzcf.cli", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class TestSizeLimits:
    """Sizes past the module limits end in one stderr line, not an OOM."""

    @staticmethod
    def _peak_mb(tmp_path, args) -> float:
        """Peak RSS of the CLI on args, in MB, once it has exited 0."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", _PEAK_RSS, *args], env=env, cwd=tmp_path,
                                capture_output=True, text=True, timeout=120, check=True)
        code, peak_kib = map(int, result.stdout.split())
        assert code == 0
        return peak_kib / 1024

    @pytest.mark.parametrize("args", [
        ["--format", "csv", "tau", "--source", "d2", "--horizon", "10000000"],
        ["tau", "--horizon", "10000000"],
        ["--format", "csv", "tau", "--source", "power:1.3", "--horizon", "10000000"],
    ], ids=["d2-csv", "default-json", "power-csv"])
    def test_tau_at_the_largest_horizon_peaks_below_100_mb(self, tmp_path, args):
        # tau scans the shell table's runs, and n^p, in blocks: no array as
        # long as the horizon (80 MB of float64 at 10^7) is built
        assert self._peak_mb(tmp_path, args) < 100

    def test_subexp_rows_peak_below_80_mb(self, tmp_path):
        # subexp_check keeps log(size)/n per block, not per step (three
        # horizon-long float64 arrays would take 72 MB here)
        args = ["--format", "json", "schedule", "--set", "d2", "--f", "10", "--horizon", "3000000",
                "--emit", "subexp"]
        assert self._peak_mb(tmp_path, args) < 80

    @pytest.mark.parametrize(
        "config, args, code",
        [
            (None, ["tau", "--source", "power:2", "--horizon", "1000000000000"], 2),
            (None, ["schedule", "--set", "d2", "--f", "n+3", "--horizon", "1000000000000"], 2),
            ("max_words = 1099511627776",
             ["pressure", "--alphabet", "[[2,2],[-2,-2]]", "--n", "40", "--s", "1"], 2),
            (None, ["schedule", "--set", "d2", "--f", "n+3", "--eps", "0.05"], 3),
            (None, ["dim", "--alphabet", "annulus:8:100000000"], 3),
            (None, ["dim", "--alphabet", "annulus:8:16000000"], 3),
            (None, ["tessellate", "--norm-sq-max", "100000000"], 2),
            # 15,707,952 digits within the config's largest budget: the table is built
            ("max_words = 16777216",
             ["pressure", "--alphabet", "annulus:8:5000000", "--n", "1", "--s", "1"], 0),
            # the same digits at n 2 are refused from their count, before any is built
            ("max_words = 16777216",
             ["pressure", "--alphabet", "annulus:8:5000000", "--n", "2", "--s", "1"], 3),
        ],
        ids=["tau-horizon", "schedule-horizon", "config-max-words",
             "schedule-shells", "dim-shells", "dim-members", "tessellate-regions",
             "pressure-members", "pressure-words"],
    )
    def test_exit_in_one_line(self, tmp_path, config, args, code):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            args = ["--config", "run.cfg", *args]
        result = _run_limited(args, tmp_path)
        assert result.returncode == code, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        prefix = {0: "log Z/n = ", 2: "error: ", 3: "budget exhausted: "}[code]
        assert result.stderr.startswith(prefix)

    def test_deep_growth_error_stays_linear(self, tmp_path):
        # a bound that raises far behind the horizon: scanning blocks must not
        # turn the one-step scan into a quadratic one
        args = ["schedule", "--set", "d2", "--f", "max(n, 1/(n-3000))", "--horizon", "80000"]
        start = time.perf_counter()
        result = _run_limited(args, tmp_path)
        assert time.perf_counter() - start < 2.0
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == ("error: growth bound 'max(n, 1/(n-3000))' is undefined at "
                                 "n = 3000: float division by zero\n")

    def test_small_eps_schedule_is_fast_and_valid(self, runner):
        start = time.perf_counter()
        run_ok(runner, ["schedule", "--set", "d2", "--f", "n+3", "--eps", "0.1"])
        assert time.perf_counter() - start < 10.0  # exit 0: every validator check passed


class TestGrowthBoundInput:
    @pytest.mark.parametrize(
        "growth",
        ["-" * 3000 + "n", "(" * 1500 + "n" + ")" * 1500, "n+" * 3000 + "n", "n^" * 3000 + "n",
         "__import__('os').getpid()", "1if n else 2"],
        ids=["deep-minus", "deep-parentheses", "deep-terms", "parser-stack", "import",
             "syntax-warning"],
    )
    def test_rejected_in_one_line(self, tmp_path, growth):
        # a subprocess keeps the interpreter's own warning filters, so a SyntaxWarning would show
        result = _run_limited(["schedule", "--set", "d2", "--horizon", "100", "--f", growth],
                              tmp_path)
        assert result.returncode == 2, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error: bad growth bound")

    def test_unary_minus_binds_looser_than_power(self, runner):
        # -n^2+200 = 200 - n^2 falls below every level, so only the first block is built
        result = run_ok(runner, ["schedule", "--set", "d2", "--f", "-n^2+200", "--horizon", "100"])
        payload = json.loads(result.stdout)
        assert payload["truncated"] and len(payload["blocks"]) == 1


class TestInProcess:
    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "3", "0"],
            ["tessellate", "--norm-sq-max", "2"],
            ["schedule", "--set", "minnormsq:abc", "--f", "n+3"],
        ],
    )
    def test_output_buffers_are_released(self, args):
        out, err = io.StringIO(), io.StringIO()
        refs = weakref.ref(out), weakref.ref(err)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with contextlib.suppress(SystemExit):
                cli.main(args, prog_name="hurwitzcf", standalone_mode=False)
        assert out.getvalue() or err.getvalue()
        del out, err
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_usage_error_exits_two_outside_standalone_mode(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
            cli.main(["pressure", "--alphabet", "[[2,2]]", "--n", "abc", "--s", "1"],
                     prog_name="hurwitzcf", standalone_mode=False)
        assert info.value.code == 2
        assert err.getvalue() == "error: Invalid value for '--n': 'abc' is not a valid integer.\n"


class TestVerify:
    def test_unknown_suite_usage_error(self, runner):
        result = runner.invoke(cli, ["verify", "bogus"])
        assert result.exit_code == 2

    def test_failing_check_exits_one(self, runner, monkeypatch):
        monkeypatch.setitem(
            climod.verifymod.CHECKS["arith"],
            "nearest_round_residual_in_box",
            lambda seed: (False, {"n": 3}),
        )
        result = runner.invoke(cli, ["verify", "arith"])
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        assert payload["passed"] is False
        assert payload["checks"][0] == {
            "check": "nearest_round_residual_in_box",
            "status": "fail",
            "witness": {"n": 3},
        }
        assert all(c["status"] == "pass" for c in payload["checks"][1:])

    def test_raising_check_is_a_failing_entry(self, runner, monkeypatch):
        def boom(seed):
            raise RuntimeError("boom")

        monkeypatch.setitem(climod.verifymod.CHECKS["arith"], "nearest_round_residual_in_box", boom)
        result = runner.invoke(cli, ["verify", "arith"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["checks"][0]["witness"] == {"error": "boom"}
        assert "Traceback" not in result.stderr


class TestConfig:
    def test_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 99\nmax_words = 64\n# comment\n")
        assert RunConfig.from_file(cfg) == RunConfig(seed=99, max_words=64)

    def test_unknown_key_rejected(self, tmp_path, runner):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        result = runner.invoke(cli, ["--config", str(cfg), "classify", "2", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("key", ["max_digits", "horizon", "bisection_tol", "ratio_tol"])
    def test_key_a_flag_sets_is_unknown(self, tmp_path, runner, key):
        # each of these settings has one knob, its command flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        result = runner.invoke(cli, ["--config", str(cfg), "tau", "--source", "lattice"])
        assert result.exit_code == 2
        assert result.stderr == f"error: {cfg}:1: unknown key {key!r}\n"

    def test_flag_defaults_are_the_library_defaults(self):
        def default(command, name):
            return next(p.default for p in cli.commands[command].params if p.name == name)

        bowen = inspect.signature(dimension.bowen_dimension).parameters
        build = inspect.signature(dimension.build_schedule).parameters
        assert default("expand", "max_digits") == expansion.DEFAULT_MAX_DIGITS
        assert (default("dim", "tol"), default("dim", "n_max")) == (
            bowen["tol"].default, bowen["n_max"].default)
        assert default("schedule", "ratio_tol") == build["ratio_tol"].default

    def test_negative_seed_flag_is_usage_error(self, runner):
        result = runner.invoke(cli, ["--seed", "-1", "verify", "arith"])
        assert result.exit_code == 2
        assert "seed must lie in [0, 2**64)" in result.stderr

    @pytest.mark.parametrize("seed", ["-3", str(1 << 64)])
    def test_seed_out_of_range_in_file_is_usage_error(self, tmp_path, runner, seed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {seed}\n")
        result = runner.invoke(cli, ["--config", str(cfg), "verify", "arith"])
        assert result.exit_code == 2
        assert "Traceback" not in result.stderr

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        assert RunConfig.from_file(cfg).override(seed=17).seed == 17

    def test_docs_match_package(self):
        # the README config key list is the RunConfig field list, and every
        # exported name exists
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = readme.split("mirroring `RunConfig`:", 1)[1].split(". ", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(RunConfig)]
        assert [n for n in hurwitzcf.__all__ if not hasattr(hurwitzcf, n)] == []

    def test_runtime_does_not_import_mpmath(self):
        # mpmath is a test dependency only; a fresh interpreter running the
        # CLI module must not pay its import
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, hurwitzcf.cli; print('mpmath' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["expand", "--", "-7/16+3/16 i"],
            ["eval", "[[3,1],[-2,2]]"],
            ["classify", "--", "-2", "-1"],
            ["--format", "csv", "tau", "--source", "power:1", "--horizon", "3000"],
            ["pressure", "--alphabet", "[[2,2],[-2,-2]]", "--n", "4", "--s", "0.7"],
            ["dim", "--alphabet", "[[2,2],[-2,-2]]", "--n-max", "8"],
            ["schedule", "--set", "d2", "--f", "n+3", "--horizon", "1500"],
            ["--format", "csv", "verify", "arith"],
        ],
    )
    def test_byte_identical_reruns(self, runner, args):
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.exit_code == 0, first.output + str(first.exception)
        assert first.stdout_bytes == second.stdout_bytes

    # sha256 of stdout: the CSV bytes of these commands are fixed output
    GOLDEN_CSV = [
        (["tau", "--source", "lattice", "--horizon", "3000"],
         "2935e8b40c5bf7cb3bc5461e83a400d4080b302e8eee7d6b42cfda9da550d85e"),
        (["tau", "--source", "lattice", "--horizon", "150000"],
         "eab1ed64574b880818102d84633395e1feabdcfe00784f970f85e5efd0896907"),
        (["tau", "--source", "d2", "--horizon", "3000"],
         "362ced919c87ac588dfba543e813a1417c117e0309d747f6118f2187d653a821"),
        (["tau", "--source", "d2", "--horizon", "150000"],
         "1fe1e792f0b817584ad6a59d13a0e02b0527d365b66b3ef51f4f86ee9b15ec58"),
        (["tau", "--source", "power:1.3", "--horizon", "3000"],
         "6374f40545801da4245b5d53baa2efee3d208ab13ad5a7bd4db9efd3df994180"),
        (["tau", "--source", "power:1.3", "--horizon", "150000"],
         "1359c95d2a216c977a87edd77e2c924deac306d2d9186d68cabbed10e2aebd66"),
        (["schedule", "--set", "d2", "--f", "n+3", "--horizon", "3000", "--emit", "blocks"],
         "2ef50731820e586e00b9890c6dd9b60f434c2df2f9b8bb7816a8af7bd5f6b44d"),
        (["schedule", "--set", "d2", "--f", "n+3", "--horizon", "3000", "--emit", "subexp"],
         "e1cb397540a66edd38ccfce3a3e6dd74b2744782b5f1acab8eca2e37a75def29"),
        # truncating growth bounds past 2^16 steps, so the growth scans run in many blocks
        (["schedule", "--set", "d2", "--f", "max(10, sqrt(n))", "--horizon", "70000"],
         "9f05b1e1d789c2b85be765a45309b851ac8fdfed984fa833e0fa5be3d1992d5e"),
        (["schedule", "--set", "lattice", "--f", "5*log(n+1)+4", "--horizon", "70000"],
         "2acb5f4e7d45e551cf6ac0de59e0eb1bd8fb7df0b0dd3fab9c55ee341dfb029b"),
        (["schedule", "--set", "d2", "--f", "10", "--horizon", "70000", "--emit", "subexp"],
         "e22ac2ea273f20c2ec7f39e9b4d54b942488b94cf50b10e4209a01b7701b40e1"),
        # subexp rows in many blocks of steps, crossing the final window's start
        (["schedule", "--set", "d2", "--f", "10", "--horizon", "300000", "--emit", "subexp"],
         "16a36b56f9451bd5181278eb810ae476af1b55817a83e44f66f2abca2d433ed3"),
        # n^p in blocks, at two exponents numpy computes as sqrt and square
        (["tau", "--source", "power:0.5", "--horizon", "1000000"],
         "22d75440ff03532e925155045d1a7561bd044e823139c90ea1f18e3a46063654"),
        (["tau", "--source", "power:2", "--horizon", "681292"],
         "fbe3585e2190db3aa91cea76972aa10503a60b85da22cf22f9218dc71ccb1f76"),
        (["expand", "2/5+0/1 i"],
         "8a60fae8cc9ebd78d74ddcf54b6e60ff3ae438674ea7ddf0ae22fdfd82acef71"),
        (["verify", "arith"],
         "3266c9575b4d3ff915ee3509ac280e9ddf646f17f4376c66519649ac16952894"),
        (["verify", "ifs"],
         "a6f35d5bc0ad0ef38acb6f54a688ae45da2a916234184105a3d094f998e1b2a0"),
        (["dim", "--alphabet", "[[2,2],[-2,-2]]"],
         "03ee96dc6c32608cb9d1e032f5aa5420db9d3a8f1de13fc5d93a3a8acb0a659b"),
        (["dim", "--alphabet", "annulus:8:16"],
         "aa804ce9509a53963571d440307993643e21d2e6f65334edde9a4af04db7c994"),
        (["dim", "--alphabet", "[[2,2],[-2,-2],[3,0],[0,3],[-3,1]]"],
         "9122038c5e769a09f22dd910b000b13b96b7624b1fe86067b677fc040d63756f"),
        # int64 rows (3^8 words), then Python-int rows ((2,2)^60 passes int64)
        (["pressure", "--alphabet", "[[2,2],[-2,-2],[3,0]]", "--n", "8", "--s", "0.9"],
         "60e44996be23cff36191f186734734a9aad66ee74e2e0093f8ab4ead6f2e38c9"),
        (["pressure", "--alphabet", "[[2,2],[-2,-2],[3,0]]", "--n", "8", "--s", "0.9",
          "--mode", "base_point"],
         "4a1ed1d005675ae22d1eb57f418fd60439f726717931dbf7faf9c562a244534c"),
        (["pressure", "--alphabet", "[[2,2]]", "--n", "60", "--s", "0.5"],
         "5de5a8db00e5067acc78f09d9036dd1adbb3eb74093eebb0288fdf22e7947123"),
        (["pressure", "--alphabet", "[[2,2]]", "--n", "60", "--s", "0.5", "--mode", "base_point"],
         "046102eb06e6360e1226bf021037aeb8d9a9b760041c1d5c3ead00df27c64e1f"),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN_CSV, ids=[" ".join(a) for a, _ in GOLDEN_CSV])
    def test_golden_csv(self, runner, args, digest):
        stdout = run_ok(runner, ["--format", "csv", *args]).stdout_bytes
        if args[0] == "tau" and args[2] == "lattice":
            assert b"\n1,0.0,nan\n" in stdout  # x = 0 at the first index: no ratio
        assert hashlib.sha256(stdout).hexdigest() == digest

    # sha256 of stdout for JSON output
    GOLDEN_JSON = [
        (["schedule", "--set", "d2", "--f", "10", "--horizon", "3000"],
         "87e032ec0233f7498bf20f0b7526d6bded41da11975c751dd14dc2c2ac745115"),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN_JSON, ids=[" ".join(a) for a, _ in GOLDEN_JSON])
    def test_golden_json(self, runner, args, digest):
        stdout = run_ok(runner, args).stdout_bytes
        assert len(json.loads(stdout)["validation"]) == len(dimension.SCHEDULE_CHECKS)
        assert hashlib.sha256(stdout).hexdigest() == digest

    def test_out_file_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_ok(runner, ["--out", str(a), "tessellate", "--norm-sq-max", "10"])
        run_ok(runner, ["--out", str(b), "tessellate", "--norm-sq-max", "10"])
        assert a.read_bytes() == b.read_bytes()

    def test_out_file_matches_stdout_past_one_row_block(self, runner, tmp_path):
        # 10^4 trajectory rows go out in three row blocks
        args = ["--format", "csv", "tau", "--source", "d2", "--horizon", "150000"]
        stdout = run_ok(runner, args).stdout_bytes
        assert stdout.count(b"\n") > 2 * climod._ROW_BLOCK
        out = tmp_path / "t.csv"
        run_ok(runner, ["--out", str(out), *args])
        assert out.read_bytes() == stdout
