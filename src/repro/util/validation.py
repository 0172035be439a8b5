"""Argument validation helpers.

Every public constructor in the library validates its parameters eagerly so that a
mis-configured experiment fails at build time rather than by producing a silently
meaningless run.  The helpers below raise ``ValueError`` with messages that name the
offending parameter.
"""

from __future__ import annotations

from typing import Optional


def require_positive(value: float, name: str) -> float:
    """Return *value* if it is strictly positive, otherwise raise ``ValueError``.

    NaN is rejected: written as ``not value > 0``, the test fails for it.
    """
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return *value* if it is >= 0, otherwise raise ``ValueError`` (NaN too)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_range(
    value: float,
    name: str,
    low: Optional[float] = None,
    high: Optional[float] = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Return *value* if it lies in the requested interval.

    ``low`` / ``high`` may be ``None`` to leave that side unbounded.  Each
    bound is written as ``not value >= low`` (and so on), so NaN fails it.
    """
    if low is not None:
        if low_inclusive and not value >= low:
            raise ValueError(f"{name} must be >= {low}, got {value!r}")
        if not low_inclusive and not value > low:
            raise ValueError(f"{name} must be > {low}, got {value!r}")
    if high is not None:
        if high_inclusive and not value <= high:
            raise ValueError(f"{name} must be <= {high}, got {value!r}")
        if not high_inclusive and not value < high:
            raise ValueError(f"{name} must be < {high}, got {value!r}")
    return value


def validate_process_count(n: int, t: int) -> None:
    """Validate the system parameters ``n`` (processes) and ``t`` (crash bound).

    The paper's model ``AS_{n,t}`` requires ``n >= 2`` (at least two processes — a
    single-process system elects itself trivially and is rejected here to avoid
    degenerate experiments) and ``0 <= t < n``.
    """
    if not isinstance(n, int) or not isinstance(t, int):
        raise TypeError(f"n and t must be integers, got n={n!r}, t={t!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t >= n:
        raise ValueError(f"t must be < n, got t={t}, n={n}")
