"""Spans recorded from outside the package, around calls into its layers.

`Tracer.patched` replaces module and class attributes with wrappers that
record a span (name, start, end, parent, job) whenever the tracer is
enabled.  Only calls that look the attribute up at call time are seen:
`dimension.build_schedule(...)` from the CLI, or `tau_of_digit_set(...)`
inside `dimension` itself, both go through the patched attribute.  A name
bound by `from .expansion import expand` inside the package (svg, ifs)
keeps pointing at the original function, so that work stays in the
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator

# (owner path, attribute, span name) for every traced public function.
TRACED = [
    ("gaussian", "parse_exact_complex", "gaussian.parse_exact_complex"),
    ("expansion", "expand", "expansion.expand"),
    ("expansion", "evaluate", "expansion.evaluate"),
    ("expansion", "expand_guarded", "expansion.expand_guarded"),
    ("svg", "soundness_check", "svg.soundness_check"),
    ("svg", "render_svg", "svg.render_svg"),
    ("dimension", "bowen_dimension", "dimension.bowen_dimension"),
    ("dimension", "partition_sum", "dimension.partition_sum"),
    ("dimension", "build_schedule", "dimension.build_schedule"),
    ("dimension", "validate_schedule", "dimension.validate_schedule"),
    ("dimension", "subexp_check", "dimension.subexp_check"),
    ("dimension", "verify_lower_bound_chain", "dimension.verify_lower_bound_chain"),
    ("dimension", "tau_of_digit_set", "dimension.tau_of_digit_set"),
    ("dimension", "tau_exponent", "dimension.tau_exponent"),
    ("dimension", "upper_threshold", "dimension.upper_threshold"),
    ("dimension.DigitSet", "norm_sq_array", "dimension.DigitSet.norm_sq_array"),
    ("cli.schedule", "callback", "cli.schedule"),
    ("cli.tau", "callback", "cli.tau"),
]

UNTRACED_NOTE = (
    "calls bound by `from .expansion import expand` inside the package "
    "(svg.soundness_check, ifs) and by `from .gaussian import ...` inside "
    "dimension and cli are not wrapped; their time stays in the caller's self time"
)


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent, job]."""

    def __init__(self) -> None:
        self.enabled = False
        self.job: int | None = None
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "dimension.partition_sum":
                self.counts["dimension.partition_sum.calls"] += 1
                self.counts["dimension.partition_sum.words"] += result.word_count
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, package) -> Iterator[None]:
        """Wrap every function in TRACED for the duration of the block."""
        saved = []
        for owner_path, attr, name in TRACED:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's durations.

        Calls are nested on one thread, so children never overlap and the
        covered part of a span is the plain sum of its children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[idx]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for idx, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
