"""Command-line surface.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 budget
exhausted.  Every setting is a command flag except the seed and the word
budget, which come from the ``--config`` file (the seed also from
``--seed``).  All emitted JSON/CSV is a pure function of the command line
and that file, so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import click
import numpy as np

from . import dimension, expansion, svg as svgmod, verify as verifymod
from .config import RunConfig
from .errors import BudgetExceededError, DomainError
from .gaussian import GaussianInt, parse_exact_complex


class CheckFailure(Exception):
    """A verification-style command found a failing check."""


def _write(ctx: click.Context, pieces: Iterable[str]) -> None:
    """Write the pieces of text to --out or stdout, each as it comes; a path
    that cannot be written is a domain error."""
    out: Path | None = ctx.obj["out"]
    if out is None:
        for piece in pieces:
            click.echo(piece, file=sys.stdout, nl=False)
        return
    try:
        with out.open("w") as file:
            file.writelines(pieces)
    except OSError as exc:
        raise DomainError(f"cannot write {str(out)!r}: {exc}") from exc


def _csv_text(rows: Iterable) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _numeric(column) -> bool:
    """Whether every entry is an int or a float (no bool): an int, uint or
    float array by its dtype, anything else by the type of each entry."""
    if isinstance(column, np.ndarray):
        return column.dtype.kind in "iuf"
    return set(map(type, column)) <= {int, float}


def _csv_pieces(names: Iterable[str], blocks: Iterable[Sequence]) -> Iterator[str]:
    """The CSV table: the header of column names, then the rows of each
    block of columns (lists or numpy arrays, one entry per row),
    _ROW_BLOCK rows at a time, one piece each.  A piece of only int and
    float columns is formatted column by column, str() of each value, which
    is what csv.writer writes for them, and joined row by row; a piece with
    bool, None, str or complex goes through csv.writer."""
    yield _csv_text([names])
    for columns in blocks:
        for lo in range(0, min(map(len, columns), default=0), _ROW_BLOCK):
            block = [c[lo : lo + _ROW_BLOCK] for c in columns]
            numeric = all(map(_numeric, block))
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            if numeric:
                yield "\n".join([*map(",".join, zip(*(map(str, c) for c in block))), ""])
            else:
                yield _csv_text(zip(*block))


def _emit(ctx: click.Context, payload: dict, names: Sequence[str] | None = None,
          blocks: Iterable[Sequence] = ()) -> None:
    """Write the JSON form of a result, or its CSV table, to --out or stdout.

    The table has the column names and comes as row blocks, each a
    sequence of columns (lists or numpy arrays, one entry per row); without
    names it is the payload as one row.  The JSON is serialised whole
    before anything is written, and the blocks are not read; the CSV goes
    out one row block at a time (_csv_pieces), so a table without rows is
    its header alone.
    """
    if ctx.obj["format"] == "csv":
        if names is None:
            names, blocks = list(payload), [[[value] for value in payload.values()]]
        _write(ctx, _csv_pieces(names, blocks))
        return
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        bad = [k for k, v in payload.items() if isinstance(v, float) and not math.isfinite(v)]
        raise DomainError(f"non-finite result {', '.join(bad) or 'value'}: {exc}") from exc
    _write(ctx, [text])


def _read_arg(spec: str) -> str:
    """The argument itself, or the text of the file it names as @path."""
    if not spec.startswith("@"):
        return spec
    try:
        return Path(spec[1:]).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {spec[1:]!r}: {exc}") from exc


def _digit_set(spec: str) -> dimension.DigitSet:
    """Digit-set specs: d2, lattice, minnormsq:N, annulus:LO:HI (inclusive norm_sq),
    inline JSON pairs or @file of pairs; each command checks the set's size itself."""
    if spec in ("d2", "lattice"):
        return getattr(dimension.DigitSet, spec)()
    kind, _, bounds = spec.partition(":")
    text = _read_arg(spec)
    try:
        if kind == "minnormsq":
            return dimension.DigitSet.with_min_norm_sq(int(bounds))
        if kind == "annulus":
            lo, hi = bounds.split(":")
            return dimension.DigitSet.annulus(int(lo), int(hi) + 1)
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise DomainError(f"bad digit set {spec!r}; use d2, lattice, minnormsq:N, "
                          "annulus:LO:HI, JSON pairs or @file") from exc
    return dimension.DigitSet.from_branches(GaussianInt.from_pairs(data))


def _tau_estimate(source: str, horizon: int) -> dimension.TauEstimate:
    if source == "lattice":
        return dimension.tau_of_digit_set(dimension.DigitSet.lattice_with_zero(), horizon)
    if source == "d2":
        return dimension.tau_of_digit_set(dimension.DigitSet.d2(), horizon)
    if source.startswith("power:"):
        text = source.split(":", 1)[1]
        try:
            p = float(text)
        except ValueError:
            raise DomainError(f"power exponent must be a number, got {text!r}") from None
        if not (math.isfinite(p) and p > 0):
            raise DomainError(f"power exponent must be finite and positive, got {text}")

        def power(i: slice) -> np.ndarray:
            # x_n = n^p at the 0-based indices of i; it may overflow to inf,
            # which tau_exponent rejects as a non-finite norm
            x = np.arange(i.start + 1, i.stop + 1, i.step, dtype=np.float64)
            with np.errstate(over="ignore"):
                x **= p
            return x

        return dimension.tau_exponent(power, horizon)
    raise DomainError(f"unknown tau source {source!r}; use lattice, d2 or power:<p>")


# click 8.2 and later raise this for a bare command, whose help it prints
_HELP_REQUEST = getattr(click.exceptions, "NoArgsIsHelpError", ())
_ROW_BLOCK = 4096  # rows of a CSV table formatted at a time


@contextlib.contextmanager
def _exit_codes():
    """One stderr line and the exit code of the contract for each error kind."""
    try:
        yield
    except _HELP_REQUEST:
        raise
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", file=sys.stderr)
        sys.exit(2)
    except BudgetExceededError as exc:
        click.echo(f"budget exhausted: {exc}", file=sys.stderr)
        sys.exit(3)
    except CheckFailure as exc:
        click.echo(f"check failure: {exc}", file=sys.stderr)
        sys.exit(1)
    except (DomainError, ZeroDivisionError) as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


class _Group(click.Group):
    """The command group, the one error boundary of the CLI: a usage error,
    in its own options or a subcommand's, and an error raised by the group
    or a command each exit through ``_exit_codes``."""

    def make_context(self, *args, **kwargs) -> click.Context:
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _exit_codes():
            return super().invoke(ctx)


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="Write output here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.pass_context
def cli(ctx, config_path, seed, out, fmt):
    """Hurwitz continued fractions, their branch system and dimension tools."""
    config = RunConfig.from_file(config_path) if config_path else RunConfig()
    config = config.override(seed=seed)
    out = Path(out) if out else None
    if out is not None and (out.is_dir() or not out.parent.is_dir()):  # fail before the work
        raise DomainError(f"cannot write {str(out)!r}: not a file in an existing directory")
    ctx.obj = {"config": config, "out": out, "format": fmt}


@cli.command()
@click.argument("z")
@click.option("--max-digits", type=int, default=expansion.DEFAULT_MAX_DIGITS, show_default=True)
@click.pass_context
def expand(ctx, z, max_digits):
    """Hurwitz digit expansion of an exact point, e.g. "2/5+0/1 i"."""
    point = parse_exact_complex(z)
    result = expansion.expand(point, max_digits)
    roundtrip = expansion.evaluate(result.digits) == point if result.terminated else False
    payload = {
        "input": z,
        "digits": [d.to_pair() for d in result.digits],
        "display": str(result.digits),
        "terminated": result.terminated,
        "roundtrip_ok": roundtrip,
    }
    columns = [
        list(range(1, len(result.digits) + 1)),
        [d.re for d in result.digits],
        [d.im for d in result.digits],
    ]
    _emit(ctx, payload, ("index", "re", "im"), [columns])
    click.echo(f"digits: {result.digits}", file=sys.stderr)
    click.echo(f"terminated: {result.terminated}  roundtrip: {roundtrip}", file=sys.stderr)


@cli.command("eval")
@click.argument("word")
@click.pass_context
def eval_word(ctx, word):
    """Evaluate a digit word given as JSON pairs, e.g. "[[3,0],[-2,0]]"."""
    text = _read_arg(word)
    try:
        digits = expansion.DigitWord.from_json(text)
    except (ValueError, KeyError, RecursionError) as exc:
        raise DomainError(f"bad word {word!r}: {exc}") from exc
    value = expansion.evaluate(digits)
    payload = {
        "word": [d.to_pair() for d in digits],
        "re": str(value.re),
        "im": str(value.im),
        "display": str(value),
    }
    _emit(ctx, payload)
    click.echo(f"value: {value}", file=sys.stderr)


@cli.command()
@click.argument("k", type=int)
@click.argument("l", type=int)
@click.pass_context
def classify(ctx, k, l):
    """Classify a digit as invalid, exceptional or regular."""
    digit = GaussianInt(k, l)
    cls = expansion.classify_digit(digit)
    _emit(ctx, {"digit": [k, l], "norm_sq": digit.norm_sq(), "class": cls})
    click.echo(f"({k},{l}): {cls}", file=sys.stderr)


@cli.command()
@click.option("--norm-sq-max", type=int, default=8, show_default=True)
@click.option("--include-exceptional/--regular-only", default=True, show_default=True)
@click.option("--stroke-width", type=float, default=0.002, show_default=True)
@click.pass_context
def tessellate(ctx, norm_sq_max, include_exceptional, stroke_width):
    """Render the first-digit cylinder tessellation of the unit box as SVG."""
    spec = svgmod.TessellationSpec(
        norm_sq_max=norm_sq_max,
        include_exceptional=include_exceptional,
        stroke_width=stroke_width,
    )
    document = svgmod.render_svg(spec)
    _write(ctx, [document])
    if ctx.obj["out"] is not None:
        click.echo(f"wrote {ctx.obj['out']} ({document.count('<path ')} regions)",
                   file=sys.stderr)


@cli.command()
@click.option("--source", default="lattice", show_default=True,
              help="lattice, d2 or power:<p> for x_n = n^p.")
@click.option("--horizon", type=int, default=1_000_000, show_default=True)
@click.pass_context
def tau(ctx, source, horizon):
    """Convergence exponent estimate of a norm sequence."""
    est = _tau_estimate(source, horizon)
    payload = dict(est.to_json(), source=source)
    columns = [est.trajectory_n.astype(np.int64), est.trajectory_x, est.trajectory_ratio]
    _emit(ctx, payload, ("n", "x", "ratio"), [columns])
    click.echo(f"tau estimate: {est.estimate:.6f} (ratio max {est.ratio_max:.6f})", file=sys.stderr)


@cli.command()
@click.option("--alphabet", required=True,
              help="A finite digit set: JSON pairs, @file or annulus:LO:HI (norm_sq).")
@click.option("--n", "word_len", type=int, required=True)
@click.option("--s", type=float, required=True)
@click.option("--mode", type=click.Choice(["sup_norm", "base_point"]), default="sup_norm")
@click.pass_context
def pressure(ctx, alphabet, word_len, s, mode):
    """Partition sum with distortion brackets at one (n, s)."""
    config: RunConfig = ctx.obj["config"]
    est = dimension.partition_sum(
        _digit_set(alphabet), word_len, s, mode, max_words=config.max_words
    )
    _emit(ctx, est.to_json())
    click.echo(
        f"log Z/n = {est.log_zn_over_n:.6f} bracket [{est.lower_bracket:.6f}, "
        f"{est.upper_bracket:.6f}]",
        file=sys.stderr,
    )


@cli.command()
@click.option("--alphabet", required=True, help="A finite digit set, as for pressure.")
@click.option("--tol", type=float, default=1e-3, show_default=True)
@click.option("--n-max", type=int, default=12, show_default=True)
@click.pass_context
def dim(ctx, alphabet, tol, n_max):
    """Bowen-dimension estimate inside a sound enclosure, from pressure roots."""
    config: RunConfig = ctx.obj["config"]
    result = dimension.bowen_dimension(
        _digit_set(alphabet),
        tol=tol,
        n_max=n_max,
        max_words=config.max_words,
    )
    _emit(ctx, result.to_json())
    click.echo(
        f"s in [{result.s_low:.6f}, {result.s_high:.6f}] within "
        f"[{result.enclosure[0]:.6f}, {result.enclosure[1]:.6f}] "
        f"(n={result.n_used}, certified={result.conclusive})",
        file=sys.stderr,
    )


@cli.command()
@click.option("--set", "set_name", default="d2", show_default=True,
              help="An infinite digit set: d2, lattice or minnormsq:N.")
@click.option("--f", "growth", required=True, help="Growth expression over n, e.g. 'n+3'.")
@click.option("--eps", type=float, default=0.5, show_default=True)
@click.option("--horizon", type=int, default=10_000, show_default=True)
@click.option("--ratio-tol", type=float, default=0.1, show_default=True)
@click.option("--validate/--no-validate", default=True, show_default=True)
@click.option("--emit", type=click.Choice(["blocks", "subexp"]), default="blocks",
              show_default=True, help="Row content for CSV output.")
@click.pass_context
def schedule(ctx, set_name, growth, eps, horizon, ratio_tol, validate, emit):
    """Build (and validate) a non-autonomous block schedule."""
    digit_set = _digit_set(set_name)
    fn = dimension.GrowthFunction(growth)
    sched = dimension.build_schedule(digit_set, fn, eps=eps, horizon=horizon, ratio_tol=ratio_tol)
    payload = sched.to_json()
    if emit == "subexp":
        traj = dimension.subexp_check(sched)
        payload["subexp"] = traj.to_json()
        names, rows = ("n", "ratio"), traj.rows()
    else:
        names = ("norm_lo", "norm_hi", "count", "t", "block")
        blocks = [b.to_json() for b in sched.blocks]
        columns = [[b[name] for b in blocks] for name in names[:-1]]
        rows = [[*columns, [b.index for b in sched.blocks]]]
    failed = []
    if validate:
        payload["validation"] = dimension.validate_schedule(sched, fn)
        failed = [c for c in payload["validation"] if c["status"] != "pass"]
    _emit(ctx, payload, names, rows)
    if sched.warning:
        click.echo(f"warning: {sched.warning}", file=sys.stderr)
    if failed:
        raise CheckFailure(f"{len(failed)} schedule checks failed")
    click.echo(
        f"{len(sched.blocks)} blocks, horizon {sched.horizon}, tau {digit_set.tau:g}",
        file=sys.stderr,
    )


@cli.command()
@click.argument("suite", type=click.Choice(verifymod.SUITES))
@click.pass_context
def verify(ctx, suite):
    """Run a bundled invariant suite; exit 0 iff everything passes."""
    checks = verifymod.run_suite(suite, ctx.obj["config"].seed)
    passed = all(c["status"] == "pass" for c in checks)
    payload = {"suite": suite, "passed": passed, "checks": checks}
    names = ("check", "status")
    _emit(ctx, payload, names, [[[c[name] for c in checks] for name in names]])
    for c in checks:
        click.echo(f"{c['status']:>4}  {c['check']}", file=sys.stderr)
    if not passed:
        raise CheckFailure(f"suite {suite} has failing checks")


def main() -> None:
    cli(prog_name="hurwitzcf")


if __name__ == "__main__":
    main()
