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


def finite_real(value) -> bool:
    """``math.isfinite(value)``, and False for a value that is not a real number."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False
