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
from typing import BinaryIO, Callable, Iterable, NoReturn, TypeVar

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
    orders: range,
    send: Callable[[range], Iterable[bytes]],
    run: Callable[[range], T],
    receive: Callable[["Received", T], object],
) -> bool:
    """``receive(sent, run(orders[-1:]))``, where ``sent`` reads the bytes
    of ``send(orders[:-1])`` as a forked worker writes them into a pipe,
    while this process computes ``run``: True once that has returned, when
    ``orders`` holds at least two orders, ``os.fork`` exists and this
    process may run on at least two CPUs; otherwise False, with nothing
    run.  The worker is reaped on every path out, killed first unless it
    has ended its output; a worker that fails, or whose output ends before
    ``receive`` has read what it asks for, raises ``ChildProcessError``
    naming its orders."""
    if len(orders) < 2 or not hasattr(os, "fork") or _cpus() < 2:
        return False
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
    ended = False
    try:
        with open(read_end, "rb") as pipe:
            sent = Received(pipe)
            try:
                receive(sent, run(orders[-1:]))
                sent.read()  # the end of the output, which holds nothing more but a failure
            except _Ended as end:
                failure = str(end)
            else:
                failure = None
        ended = True
    finally:
        if not ended:  # 9 is SIGKILL: importing the signal module that names it adds 0.1 MB of peak RSS
            os.kill(pid, 9)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0 and failure is None:
        return True
    why = f"ended by signal {-code}" if code < 0 else f"failed: {failure}"
    raise ChildProcessError(f"the worker for n = {orders[0]}..{orders[-2]} {why}")


# The header of a frame the worker writes: its length, or this header, after
# which its failure runs to the end of the pipe.
_FAILED = b"\xff" * 8


class _Ended(Exception):
    """The worker's output ended before it was read; the message says why."""


class Received:
    """The output of a ``fork_orders`` worker, read out of its frames as the
    worker writes them."""

    def __init__(self, pipe: BinaryIO) -> None:
        self._pipe = pipe
        self._left = 0  # of the current frame

    def read(self, size: int = -1) -> bytes:
        """The next ``size`` bytes, or every byte left if ``size`` is
        negative."""
        pieces = []
        while size:
            if not self._left:
                header = self._pipe.read(8)
                if header == _FAILED:
                    raise _Ended(self._pipe.read().decode("utf-8", "replace"))
                if not header and size < 0:
                    break
                if len(header) < 8:
                    raise _Ended("its output ended early")
                self._left = int.from_bytes(header, "little")
            want = self._left if size < 0 else min(size, self._left)
            piece = self._pipe.read(want)
            if len(piece) < want:
                raise _Ended("its output ended early")
            self._left -= want
            size -= want if size > 0 else 0
            pieces.append(piece)
        return b"".join(pieces)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker(read_end: int, write_end: int, send: Callable[[range], Iterable[bytes]], orders: range) -> NoReturn:
    """The forked worker: writes each chunk of ``send(orders)`` to
    ``write_end`` as one frame, its length first, and exits 0, or ends with
    a ``_FAILED`` frame of the UTF-8 ``repr`` of what it raised and exits 1.
    It never returns, and it leaves stdout, stderr and the buffers it
    inherited untouched: ``os._exit`` flushes nothing and runs no exit
    handler."""
    code = 1
    try:
        os.close(read_end)
        try:
            for chunk in send(orders):
                if chunk:
                    _write(write_end, len(chunk).to_bytes(8, "little"))
                    _write(write_end, chunk)
            code = 0
        except BaseException as exc:  # reported through the pipe, as the worker then exits
            _write(write_end, _FAILED + repr(exc).encode("utf-8", "replace"))
    finally:
        os._exit(code)


def _write(fd: int, data: bytes) -> None:
    """Write all of ``data`` to ``fd``, which takes part of it at a time."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
