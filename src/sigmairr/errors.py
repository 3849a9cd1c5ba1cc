"""Shared exception types, and the one rule that maps them to exit code 1.

The CLI and the scripts parse with ``ArgumentParser`` and run through
``exit_code``: these errors, and an ``OSError`` (a file that cannot be
opened, a closed pipe, a full device, a closed stdout, a failed
``fork_orders`` worker), print one ``error:`` line, never a traceback."""

import argparse
import errno
import io
import os
import sys
from typing import Callable, NoReturn, Optional, TypeVar

T = TypeVar("T")


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


def fork_orders(
    orders: range, send: Callable[[range], bytes], run: Callable[[range], T]
) -> Optional[tuple[bytes, T]]:
    """``(send(orders[:-1]), run(orders[-1:]))``, the first from a forked
    worker through a pipe while this process computes the second, when
    ``orders`` holds at least two orders, ``os.fork`` exists and this
    process may run on at least two CPUs; otherwise None, with nothing run.
    The worker is reaped on every path out, killed first unless it has
    closed the pipe; a worker that fails raises ``ChildProcessError``
    naming its orders."""
    if len(orders) < 2 or not hasattr(os, "fork") or _cpus() < 2:
        return None
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _worker(read_end, write_end, send, orders[:-1])
    os.close(write_end)
    finished = False
    try:
        with open(read_end, "rb") as pipe:
            own = run(orders[-1:])
            sent = pipe.read()
        finished = True
    finally:
        if not finished:  # 9 is SIGKILL: importing the signal module that names it adds 0.1 MB of peak RSS
            os.kill(pid, 9)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return sent, own
    why = f"ended by signal {-code}" if code < 0 else f"failed: {sent.decode('utf-8', 'replace')}"
    raise ChildProcessError(f"the worker for n = {orders[0]}..{orders[-2]} {why}")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker(read_end: int, write_end: int, send: Callable[[range], bytes], orders: range) -> NoReturn:
    """The forked worker: writes ``send(orders)`` to ``write_end`` and exits
    0, or writes the UTF-8 ``repr`` of what it raised and exits 1.  It never
    returns, and it leaves stdout, stderr and the buffers it inherited
    untouched: ``os._exit`` flushes nothing and runs no exit handler."""
    code = 1
    try:
        os.close(read_end)
        try:
            sent, done = send(orders), True
        except BaseException as exc:  # reported through the pipe, as the worker then exits
            sent, done = repr(exc).encode("utf-8", "replace"), False
        while sent:
            sent = sent[os.write(write_end, sent):]
        code = 0 if done else 1
    finally:
        os._exit(code)
