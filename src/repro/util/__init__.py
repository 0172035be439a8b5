"""Small shared helpers used across the reproduction packages."""

from repro.util.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    validate_process_count,
)
from repro.util.rng import RandomSource, derive_seed, fingerprint
from repro.util.tables import format_table

__all__ = [
    "RandomSource",
    "derive_seed",
    "fingerprint",
    "format_table",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "validate_process_count",
]
