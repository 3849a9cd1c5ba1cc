"""The I/O the CLI and the scripts share: output written whole or not at
all, the text of orders split between this process and a forked worker,
and the batching of text pieces into fewer writes."""

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


def split_orders(orders: range, texts: Callable[[range], list], receive: Callable[[Iterable, list], object]) -> None:
    """``receive(first, last)``, the texts of ``orders[:-1]`` and of
    ``orders[-1:]``: each part's ``texts(part)``, a list of ASCII texts,
    each an iterable of str pieces, which ``receive`` takes in turn, each
    text's pieces before the next text.  ``first`` holds no text if
    ``orders`` holds one order.  When it holds two or more, ``os.fork``
    exists and this process may run on at least two CPUs, a forked worker
    makes the first part while this process makes the last, each making
    every text whole (a list) before this process reads ``first`` from a
    pipe, 64 KiB at a time.  Otherwise both parts are made here, and a lazy
    text stays lazy.  The worker is reaped on every path out, killed first
    unless it has ended its output; a worker that fails raises
    ``ChildProcessError`` naming its orders."""
    if len(orders) < 2 or not hasattr(os, "fork") or _cpus() < 2:
        receive(texts(orders[:-1]) if len(orders) > 1 else [], texts(orders[-1:]))
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _worker(read_end, write_end, texts, orders[:-1])
    os.close(write_end)
    ended = False
    try:
        with open(read_end, "rb") as pipe:
            first = _received(pipe)
            try:
                receive(first, _whole(texts(orders[-1:])))
                for _ in first:  # the end of the output, which holds nothing more but a failure
                    pass
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
        return
    why = f"ended by signal {-code}" if code < 0 else f"failed: {failure}"
    raise ChildProcessError(f"the worker for n = {orders[0]}..{orders[-2]} {why}")


def chunks(pieces: Iterable[str]) -> Iterator[str]:
    """``pieces`` joined in order into strings of about 64 KiB, for fewer writes."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= 1 << 16:
            yield "".join(batch)
            batch, size = [], 0
    if size:
        yield "".join(batch)


# What the worker writes where its first text's length would be when making
# its texts fails, followed by its failure, which runs to the end of the pipe.
_FAILED = b"\xff" * 8


class _Ended(Exception):
    """The worker's output ended before it was read; the message says why."""


def _whole(texts: list) -> list:
    """``texts`` with each that is no list made one."""
    return [text if isinstance(text, list) else list(text) for text in texts]


def _received(pipe: BinaryIO) -> Iterator[Iterator[str]]:
    """The texts the worker writes into ``pipe``, each read 64 KiB at a time
    as it is taken; taking the next skips what is left of the one before."""
    while header := pipe.read(8):
        if header == _FAILED:
            raise _Ended(pipe.read().decode("utf-8", "replace"))
        if len(header) < 8:
            raise _Ended("its output ended early")
        text = _text(pipe, int.from_bytes(header, "little"))
        yield text
        for _ in text:
            pass


def _text(pipe: BinaryIO, size: int) -> Iterator[str]:
    """The next ``size`` bytes of ``pipe``, as ASCII text 64 KiB at a time."""
    for start in range(0, size, 1 << 16):
        want = min(size - start, 1 << 16)
        piece = pipe.read(want)
        if len(piece) < want:
            raise _Ended("its output ended early")
        yield piece.decode("ascii")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker(read_end: int, write_end: int, texts: Callable[[range], list], orders: range) -> NoReturn:
    """The forked worker: makes every text of ``texts(orders)`` whole, then
    writes each to ``write_end``, its length and then its ASCII bytes, and
    exits 0; or, if making them raises, writes ``_FAILED`` and the UTF-8
    ``repr`` of what it raised and exits 1.  It never returns, and it
    leaves stdout, stderr and the buffers it inherited untouched:
    ``os._exit`` flushes nothing and runs no exit handler."""
    code = 1
    try:
        os.close(read_end)
        try:
            whole = _whole(texts(orders))
        except BaseException as exc:  # reported through the pipe, as the worker then exits
            _write(write_end, _FAILED + repr(exc).encode("utf-8", "replace"))
        else:
            for text in whole:
                _write(write_end, sum(map(len, text)).to_bytes(8, "little"))
                for chunk in chunks(text):
                    _write(write_end, chunk.encode("ascii"))
            code = 0
    finally:
        os._exit(code)


def _write(fd: int, data: bytes) -> None:
    """Write all of ``data`` to ``fd``, which takes part of it at a time."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
