"""Shared exception types."""


class ContractViolation(ValueError):
    """An argument broke a documented precondition or invariant."""
