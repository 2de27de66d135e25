"""Run configuration: seeds, budgets and tolerances.

The file format is flat ``key = value`` lines; unknown keys are rejected
so typos surface instead of silently using defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import DomainError

_MAX_WORDS = 1 << 24  # largest word budget; a table of 2^24 words takes about 0.4 GB


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    max_words: int = 1 << 18
    max_digits: int = 4096
    horizon: int = 1_000_000
    bisection_tol: float = 1e-3
    ratio_tol: float = 0.1

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")
        for name in ("max_words", "max_digits", "horizon", "bisection_tol", "ratio_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite")
        if self.max_words > _MAX_WORDS:
            raise DomainError(f"max_words must be at most {_MAX_WORDS}, got {self.max_words}")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        known = {f.name: f.type for f in fields(cls)}
        values: dict[str, int | float] = {}
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read config {str(path)!r}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in known:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = float(val) if "float" in str(known[key]) else int(val)
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad value {val!r}") from exc
        return cls(**values)

    def override(self, **kwargs) -> "RunConfig":
        clean = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **clean) if clean else self
