"""The shared exception type, and the input checks that raise it."""

import math

import numpy as np


class ContractViolation(ValueError):
    """An argument broke a documented precondition or invariant."""


def check_array(value, name: str, shape: tuple, finite: bool = True) -> np.ndarray:
    """A new read-only float64 array of ``value``.  Raise a ``ContractViolation`` naming ``name``
    unless ``value`` is a rectangular array of numbers of ``shape`` (a ``None``
    entry allows any length) whose entries are all finite; with ``finite=False``
    the caller tests finiteness itself."""
    try:
        array = np.asarray(value)
        ok = array.dtype.kind in "iuf"
    except (TypeError, ValueError):  # ragged
        ok = False
    if not ok:
        raise ContractViolation(f"{name} must be a rectangular array of numbers")
    if len(array.shape) != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        want = ", ".join("*" if n is None else str(n) for n in shape) + ("," if len(shape) == 1 else "")
        raise ContractViolation(f"{name} must have shape ({want}), got {array.shape}")
    array = np.array(array, dtype=np.float64)
    if finite and not np.isfinite(array).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(array))[0])
        raise ContractViolation(f"{name} must be finite, got {array[index]} at index {index}")
    array.flags.writeable = False
    return array


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
