"""Checks of scalar arguments, the one rule every module applies.

A scalar argument must be finite, at least its lower bound (above it when
the bound is strict) and an integer where a count or seed is meant.  It is
returned as the Python ``float`` or ``int`` so that a report can echo it as
JSON.  Each failure raises ``ValueError`` naming the argument; only a real
argument that is no number at all (a string) raises ``TypeError``.
Finiteness is tested first: NaN fails every ordering test, so an ordering
test alone would let it through.
"""

from __future__ import annotations

import math
import operator


def _bound(lower, strict: bool) -> str:
    if lower == 0:
        return "positive" if strict else "nonnegative"
    return f"{'>' if strict else '>='} {lower}"


def check_real(name: str, value, lower: float = -math.inf, strict: bool = False) -> float:
    """``float(value)``; a non-finite value or one below ``lower`` raises.

    With ``strict``, ``lower`` itself raises too.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < lower or (strict and value == lower):
        raise ValueError(f"{name} must be {_bound(lower, strict)}, got {value!r}")
    return float(value)


def check_int(name: str, value, lower: float = -math.inf) -> int:
    """``operator.index(value)``; a float (2.0 and NaN too) or a value below ``lower`` raises."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < lower:
        raise ValueError(f"{name} must be {_bound(lower, False)}, got {value!r}")
    return value
