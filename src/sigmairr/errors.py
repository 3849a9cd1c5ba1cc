"""Shared exception types; the CLI maps all of these to exit code 1."""


class DomainError(ValueError):
    """A mathematical precondition of an operation was violated."""


class InputError(ValueError):
    """Malformed or missing input: bad literals, absent required fields."""


class ResourceLimitError(RuntimeError):
    """An enumeration limit would be exceeded: the cap, which the override
    lifts, or the largest order a walk holds, which nothing lifts."""
