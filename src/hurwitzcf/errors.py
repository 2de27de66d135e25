"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured budget.

    Carries an upper bound on the sum that was not enumerated, so callers
    can still reason about the result.
    """

    def __init__(self, message: str, truncation_bound: float):
        super().__init__(message)
        self.truncation_bound = truncation_bound
