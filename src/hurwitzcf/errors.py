"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured budget; it carries only its message."""
