"""Shared exception types, and the one rule that maps them to exit code 1.

The CLI and the scripts parse with ``ArgumentParser`` and run through
``exit_code``: these errors, and an ``OSError`` (a file that cannot be
opened, a closed pipe, a full device), print one ``error:`` line, never a
traceback."""

import argparse
import os
import sys
from typing import Callable, NoReturn


class DomainError(ValueError):
    """A mathematical precondition of an operation was violated."""


class InputError(ValueError):
    """Malformed or missing input: bad literals, absent required fields."""


class ResourceLimitError(RuntimeError):
    """A size limit would be exceeded: the enumeration cap, which the
    override lifts, or a limit nothing lifts (the largest order a walk
    holds, the graph vertex limit, the family edge limit)."""


class ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # a bad argument is an input error, not argparse's exit 2
        raise InputError(message)


def exit_code(main: Callable[..., int], *args) -> int:
    """``main(*args)``, or 1 once one ``error:`` line is on stderr."""
    try:
        return main(*args)
    except (DomainError, InputError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def exit_process(main: Callable[[], int]) -> NoReturn:
    """End the process with ``exit_code(main)``, stdout flushed inside it:
    a reader that left early or a full device fails that flush, not the one
    at exit, and so is reported like any other error."""

    def flushed() -> int:
        try:
            return main()
        finally:  # also after --help, which exits through SystemExit
            sys.stdout.flush()

    code = exit_code(flushed)
    if code:  # stdout may still hold what it failed to write: the flush at exit drops it
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    sys.exit(code)
