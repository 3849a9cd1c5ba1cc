"""Shared exception types, and the one rule that maps them to exit code 1.

The CLI and the scripts parse with ``ArgumentParser`` and run through
``exit_code``: these errors, and an ``OSError`` (a file that cannot be
opened, a closed pipe, a full device, a closed stdout, a failed
``streams.split_orders`` worker), print one ``error:`` line, never a traceback."""

import argparse
import errno
import io
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


class _ClosedStdout(io.TextIOBase):
    """``sys.stdout`` of a process started with fd 1 closed, which Python
    sets to None: it takes writes as a buffered stream does, and the flush
    that would send them fails as a write to a closed descriptor does."""

    def __init__(self) -> None:
        self._held = False

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._held = self._held or bool(text)
        return len(text)

    def flush(self) -> None:
        if self._held:
            self._held = False  # dropped, so the flush at exit has nothing left to fail on
            raise OSError(errno.EBADF, "stdout is closed")


def exit_process(main: Callable[[], int]) -> NoReturn:
    """End the process with ``exit_code(main)``, stdout flushed inside it:
    a reader that left early, a full device or a closed stdout fails that
    flush, not the one at exit, and so is reported like any other error.
    An entry point whose output goes to a file succeeds with stdout closed."""
    stdout_closed = sys.stdout is None
    if stdout_closed:
        sys.stdout = _ClosedStdout()

    def flushed() -> int:
        try:
            return main()
        finally:  # also after --help, which exits through SystemExit
            sys.stdout.flush()

    code = exit_code(flushed)
    if code and not stdout_closed:  # stdout may still hold what it failed to write: the flush at exit drops it
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    sys.exit(code)
