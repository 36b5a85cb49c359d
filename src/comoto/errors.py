"""The shared exception type, and the input checks that raise it."""

import math

import numpy as np


class ContractViolation(ValueError):
    """An argument broke a documented precondition or invariant."""


def float_array(value, what: str) -> np.ndarray:
    """A new float array of ``value``; ragged or non-numeric input is a ``ContractViolation``."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"{what} must be a rectangular array of numbers: {exc}") from None


def check_real(value, name: str, bound: str = "", integer: bool = False) -> None:
    """Raise a ``ContractViolation`` naming ``name`` unless ``value`` is a finite real
    number (an ``int``, if ``integer``) that is ``bound``: ``""`` (any sign),
    ``"positive"`` or ``"non-negative"``.  A non-number fails too."""
    try:
        ok = isinstance(value, (int, np.integer)) if integer else math.isfinite(value)
        if ok and bound:
            ok = value > 0 if bound == "positive" else value >= 0
    except TypeError:
        ok = False
    if not ok:
        kind = "an integer" if integer else "finite"
        raise ContractViolation(f"{name} must be {kind}{' and ' + bound if bound else ''}, got {value!r}")
