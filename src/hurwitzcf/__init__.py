"""Hurwitz complex continued fractions, the associated branch system and
fractal dimension estimation for restricted digit sets."""

from .config import RunConfig
from .dimension import (
    BowenDimResult,
    DigitSet,
    GrowthFunction,
    NonAutSchedule,
    PressureEstimate,
    TauEstimate,
    bowen_dimension,
    build_schedule,
    partition_sum,
    subexp_check,
    tau_exponent,
    tau_of_digit_set,
    upper_threshold,
    validate_schedule,
    verify_lower_bound_chain,
)
from .errors import BudgetExceededError, DomainError
from .expansion import (
    DigitWord,
    ExpansionResult,
    classify_digit,
    cylinder_check,
    evaluate,
    exceptional_digits,
    expand,
    expand_guarded,
    hurwitz_step,
)
from .gaussian import (
    ExactComplexRational,
    GaussianInt,
    count_in_square,
    nearest_round,
    parse_exact_complex,
)
from .ifs import BranchComposition, contraction_bound
from .svg import TessellationSpec, render_svg, soundness_check

__version__ = "0.1.0"

__all__ = [
    "BowenDimResult",
    "BranchComposition",
    "BudgetExceededError",
    "DigitSet",
    "DigitWord",
    "DomainError",
    "ExactComplexRational",
    "ExpansionResult",
    "GaussianInt",
    "GrowthFunction",
    "NonAutSchedule",
    "PressureEstimate",
    "RunConfig",
    "TauEstimate",
    "TessellationSpec",
    "bowen_dimension",
    "build_schedule",
    "classify_digit",
    "contraction_bound",
    "count_in_square",
    "cylinder_check",
    "evaluate",
    "exceptional_digits",
    "expand",
    "expand_guarded",
    "hurwitz_step",
    "nearest_round",
    "parse_exact_complex",
    "partition_sum",
    "render_svg",
    "soundness_check",
    "subexp_check",
    "tau_exponent",
    "tau_of_digit_set",
    "upper_threshold",
    "validate_schedule",
    "verify_lower_bound_chain",
]
