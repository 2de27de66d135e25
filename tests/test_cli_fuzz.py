"""Fuzz of the CLI exit-code contract, in-process.

Every command line exits 0 (ok), 1 (check failure), 2 (usage or domain
error) or 3 (budget), raises nothing but ``SystemExit``, and writes JSON
without NaN or Infinity, to stdout or to an ``--out`` that is a new file,
a directory or a path whose parent is missing.  Some command lines read a
``--config`` file whose lines set each ``RunConfig`` key to an in-range,
huge, NaN, infinite or non-numeric value, name an unknown key or lack
``=``.  Sizes are bounded only to keep the run short: alphabets of at most
4 digits, horizons and word lengths up to 5000, ``--norm-sq-max`` up to 64,
in-range config values up to 5000.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitzcf.cli import cli
from hurwitzcf.config import RunConfig
from hurwitzcf.verify import SUITES

ints = st.integers(-12, 12) | st.integers(-(2**70), 2**70)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, 0.33, 1.0, 2.5])
horizons = st.integers(-1, 5000)


def _text(values) -> st.SearchStrategy[str]:
    return values.map(str)


config_values = (
    _text(st.integers(1, 5000))
    | _text(floats)
    | st.sampled_from(["0", "-1", str(2**40), str(2**70), "9" * 5000, "1e999", "nan", "inf",
                       "-inf", "abc", "", "1_0"])
)
config_lines = st.tuples(
    st.sampled_from([f.name for f in fields(RunConfig)] + ["wibble"]), config_values
).map(" = ".join) | st.just("no equals sign")

alphabets = (
    st.lists(st.tuples(ints, ints).map(list), min_size=1, max_size=4).map(json.dumps)
    | st.sampled_from(["[]", "[[2,2]", "[[2.5,2]]", "[2,2]", "annulus:8", "annulus:8:9", "@"])
)


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(
        ["expand", "eval", "classify", "tau", "pressure", "dim", "schedule", "tessellate",
         "verify"]))
    if command == "expand":
        a, b, c, d = (draw(ints) for _ in range(4))
        z = draw(st.just(f"{a}/{b}+{c}/{d} i") | st.sampled_from(["x", "1/2", "1/0+0/1 i"]))
        args = ["expand", "--max-digits", draw(_text(st.integers(-1, 200))), "--", z]
    elif command == "eval":
        word = draw(st.lists(st.tuples(ints, ints).map(list), max_size=6))
        args = ["eval", draw(st.just(json.dumps(word)) | st.sampled_from(["[1]", "{}", "["]))]
    elif command == "classify":
        args = ["classify", "--", draw(_text(ints)), draw(_text(ints))]
    elif command == "tau":
        p = draw(_text(floats) | st.sampled_from(["abc", "1e308"]))
        source = draw(st.sampled_from(["lattice", "d2", "power:" + p, "bogus"]))
        args = ["tau", "--source", source, "--horizon", draw(_text(horizons))]
    elif command == "pressure":
        args = ["pressure", "--alphabet", draw(alphabets), "--n",
                draw(_text(st.integers(-1, 5000))), "--s", draw(_text(floats)),
                "--mode", draw(st.sampled_from(["sup_norm", "base_point"]))]
    elif command == "dim":
        args = ["dim", "--alphabet", draw(alphabets), "--n-max", draw(_text(horizons))]
        if draw(st.booleans()):
            args += ["--tol", draw(_text(floats))]
    elif command == "schedule":
        digit_set = draw(st.sampled_from(["d2", "lattice", "bogus"])
                         | _text(st.integers(-5, 100)).map("minnormsq:".__add__))
        growth = draw(st.sampled_from(
            ["n+3", "n^2", "log(n)+2", "sqrt(n)", "2", "1/(n-50)", "1/(n-50)+10", "n/0", "(n",
             "exp(n)", "n^-1", "0", "-n", "1e308*n", "log(n-5)+100", "-n^2+200",
             "-" * 3000 + "n", "(" * 1500 + "n" + ")" * 1500, "n+" * 3000 + "n",
             "__import__('os').getpid()"]))
        args = ["schedule", "--set", digit_set, "--f", growth, "--eps", draw(_text(floats)),
                "--horizon", draw(_text(horizons)),
                "--emit", draw(st.sampled_from(["blocks", "subexp"])),
                draw(st.sampled_from(["--validate", "--no-validate"]))]
        if draw(st.booleans()):
            args += ["--ratio-tol", draw(_text(floats))]
    elif command == "tessellate":
        args = ["tessellate", "--norm-sq-max", draw(_text(st.integers(-1, 64))),
                "--stroke-width", draw(_text(floats)),
                draw(st.sampled_from(["--include-exceptional", "--regular-only"]))]
    else:
        args = ["verify", draw(st.sampled_from([*SUITES, "bogus"]))]
    group = ["--format", draw(st.sampled_from(["json", "csv"]))]
    out = draw(st.sampled_from([None, None, None, "file", "directory", "missing"]))
    if out:
        group += ["--out", out]
    if draw(st.booleans()):
        group += ["--seed", draw(_text(st.integers(-1, 2**64)))]
    if draw(st.integers(0, 3)) == 0:
        group += ["--config", "\n".join(draw(st.lists(config_lines, min_size=1, max_size=3)))]
    return group + args


def _reject_constant(name: str):
    raise ValueError(f"{name} in JSON output")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(command_lines())
@example(["--format", "json", "pressure", "--alphabet", "[[2,2]]", "--n", "1200", "--s", "1"])
@example(["--format", "json", "dim", "--alphabet", "[[2,2]]", "--n-max", "5000"])
@example(["--format", "json", "pressure", "--alphabet", "[[2,2]]", "--n", "5000", "--s", "0"])
@example(["--format", "json", "pressure", "--alphabet", "annulus:8:9", "--n", "1462", "--s", "0"])
@example(["--format", "json", "schedule", "--set", "d2", "--f", "n+3", "--horizon", "1000",
          "--ratio-tol", "5e-324"])
@example(["--format", "json", "dim", "--alphabet", "[[2,2]]", "--tol", "nan"])
@example(["--format", "json", "--config", "max_words = 1099511627776", "pressure", "--alphabet",
          "[[2,2],[-2,-2]]", "--n", "40", "--s", "1"])
@example(["--format", "json", "tau", "--horizon", "10000000000000"])
def test_exit_code_contract(args):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"file": Path(tmp, "out.json"), "directory": Path(tmp),
                 "missing": Path(tmp, "missing", "out.json")}
        if "--out" in args:
            at = args.index("--out") + 1
            args = [*args[:at], str(paths[args[at]]), *args[at + 1:]]
        if "--config" in args:
            at = args.index("--config") + 1
            Path(tmp, "run.cfg").write_text(args[at] + "\n")
            args = [*args[:at], str(Path(tmp, "run.cfg")), *args[at + 1:]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(args, prog_name="hurwitzcf", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        if paths["file"].exists():
            out.write(paths["file"].read_text())
    assert code in (0, 1, 2, 3), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert len(err.getvalue().splitlines()) == 1, (args, err.getvalue())
    if args[1] == "json" and "tessellate" not in args and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
