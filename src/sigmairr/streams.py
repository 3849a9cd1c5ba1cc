"""The I/O the CLI and the scripts share: output written whole or not at
all, and the text of orders decided in a forked worker."""

import contextlib
import os
import stat
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Optional, TextIO


@contextlib.contextmanager
def output_file(path: str, newline: Optional[str] = None) -> Iterator[TextIO]:
    """The file at ``path`` for UTF-8 text, written whole or not at all: a new
    file beside it, opened at once with the mode of the file it replaces, is
    renamed over ``path`` once the block succeeds and removed if it fails.
    A path that is empty, a symbolic link, no regular file (``/dev/stdout``),
    a file with another link, owner or no write permission, or in a directory
    that takes no new file, is written directly."""
    try:
        old = os.lstat(path) if path else None
    except OSError:  # nothing there yet, or nothing a new file could replace: opening it says which
        old = None
    fh = None
    if path and (old is None or stat.S_ISREG(old.st_mode) and old.st_mode & stat.S_IWUSR and old.st_nlink == 1
                 and old.st_uid == getattr(os, "geteuid", lambda: old.st_uid)()):
        partial = f"{path}.{os.getpid()}.partial"
        with contextlib.suppress(OSError):
            fh = open(partial, "x", encoding="utf-8", newline=newline)
    if fh is None:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    try:
        with fh:
            if old is not None:
                os.chmod(partial, stat.S_IMODE(old.st_mode))
            yield fh
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def fork_orders(orders: range, send: Callable[[range], Iterable[bytes]], run: Callable[[range], object],
                receive: Callable[["Received", object], object]) -> bool:
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
        """The next ``size`` bytes, or every byte left if ``size`` is negative."""
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

    def text(self) -> Iterator[str]:
        """The next ASCII text that ``sized`` sent, 64 KiB at a time."""
        size = int.from_bytes(self.read(8), "little")
        for start in range(0, size, 1 << 16):
            yield self.read(min(size - start, 1 << 16)).decode("ascii")


def sized(pieces: list[str]) -> Iterator[bytes]:
    """The ASCII text of ``pieces`` as a worker sends it for ``Received.text``."""
    yield sum(map(len, pieces)).to_bytes(8, "little")
    for start in range(0, len(pieces), 1024):
        yield "".join(pieces[start:start + 1024]).encode("ascii")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
