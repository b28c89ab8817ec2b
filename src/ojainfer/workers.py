"""Forked workers: the one runner of every caller that splits its work across CPUs.

:func:`run_parts` runs the first part here and each other part in a forked
child that pickles its result back down a pipe; a part whose child failed
runs again here. Its callers are the coverage trials and ``asymvar``'s
estimators, which count their parts with :func:`cpu_ranges`; both ask
:func:`fork_allowed`, the one fork decision.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
from contextlib import suppress
from typing import BinaryIO, Callable

# Loaded before IMPORT_THREADS is read, so that the count includes the BLAS pool
# that numpy starts at import, whichever module imported this one first.
import numpy  # noqa: F401

log = logging.getLogger(__name__)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_ranges(count: int) -> list[tuple[int, int]]:
    """``count`` items cut into contiguous (lo, hi) ranges, in order: min(usable CPUs, count)
    of them where :func:`fork_allowed`, else at most one, since every part then runs here."""
    parts = min(usable_cpus() if fork_allowed() else 1, count)
    return [(count * k // parts, count * (k + 1) // parts) for k in range(parts)]


def os_threads() -> int | None:
    """The process's OS thread count, BLAS threads included; None where it cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


# os_threads() when this module was imported, after numpy and before it forked anything. A fork
# stops OpenBLAS's pool in the parent until a large enough BLAS call restarts it,
# so a later reading of 1 may only mean that the process forked before.
IMPORT_THREADS = os_threads()


def fork_allowed() -> bool:
    """Whether workers may fork: the process has one OS thread now and had one at import."""
    # A forked child restarts its BLAS pool, whose threads then spin on the parent's CPUs
    # (with numpy's default pool the split coverage ran twice as slow), and fork from a
    # threaded process is unsafe. A count that cannot be read is None, which rules it out.
    return IMPORT_THREADS == 1 and os_threads() == 1


def run_parts(parts: list[Callable[[], object]]) -> tuple[list, dict]:
    """Run each part and return their results in order, with the run record.

    Where :func:`fork_allowed`, part 0 runs here and each other part in a
    forked child that pickles its result back. A child leaves by
    ``os._exit``, so it never returns into its parent's stack or runs its
    exit handlers. A part whose child did not fork, exited non-zero or sent
    a short pickle runs again here, with a logged warning, so an error is
    raised as it would be in-process. Every child is reaped before this
    returns or raises, and killed first if its result was not read. In any
    other process every part runs here, in order. The record is
    ``{"workers": processes that ran parts, "reruns": indices of the parts run again here}``.
    """
    if len(parts) < 2 or not fork_allowed():
        return [part() for part in parts], {"workers": 1, "reruns": []}
    children: list[tuple[int, BinaryIO] | None] = []  # (pid, read end); None: not forked or reaped
    try:
        for part in parts[1:]:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: the part runs again here
                os.close(rfd)
                os.close(wfd)
                children.append(None)
                continue
            if pid == 0:
                code = 1  # also for an interrupt
                try:
                    os.close(rfd)
                    for child in children:
                        if child is not None:
                            child[1].close()
                    _send(part, wfd)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            children.append((pid, open(rfd, "rb", buffering=0)))
        results, reruns = [parts[0]()], []
        for k, child in enumerate(children, 1):
            sent, result = _received(child)
            children[k - 1] = None
            if not sent:
                log.warning("part %d of %d: its worker failed, so it runs again here", k, len(parts))
                reruns.append(k)
                result = parts[k]()
            results.append(result)
        return results, {"workers": len(parts), "reruns": reruns}
    finally:
        for child in children:
            if child is not None:
                pid, stream = child
                stream.close()
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _send(part: Callable[[], object], wfd: int) -> None:
    """Forked child's job: run ``part`` and pickle its result to ``wfd``."""
    result = part()
    with open(wfd, "wb") as out:
        pickle.dump(result, out, protocol=pickle.HIGHEST_PROTOCOL)


def _received(child: tuple[int, BinaryIO] | None) -> tuple[bool, object]:
    """Read and reap a child: (True, what its part returned), or (False, None) if it did
    not fork, exited non-zero or sent a short pickle."""
    if child is None:
        return False, None
    pid, stream = child
    payload = stream.read()
    stream.close()
    if os.waitpid(pid, 0)[1] != 0:
        return False, None
    try:
        return True, pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):
        return False, None
