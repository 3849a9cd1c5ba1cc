"""Shared exception types; the CLI maps all of these to exit code 1."""


class DomainError(ValueError):
    """A mathematical precondition of an operation was violated."""


class InputError(ValueError):
    """Malformed or missing input: bad literals, absent required fields."""


class ResourceLimitError(RuntimeError):
    """A size limit would be exceeded: the enumeration cap, which the
    override lifts, or a limit nothing lifts (the largest order a walk
    holds, the graph vertex limit, the family edge limit)."""
