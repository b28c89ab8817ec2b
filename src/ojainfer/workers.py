"""Forked workers: the one process lifecycle of every caller that splits its work across CPUs.

A caller hands :func:`forked` one job per child. Each child runs its job on
the write end of a pipe and leaves by ``os._exit``; the caller reads the
read ends and decides, from what arrived and from each exit status, whether
to use a child's share or to do that share itself. No child outlives the
``with`` block. :func:`run_parts` is that decision for work cut into parts
whose results pickle: the coverage trials and ``asymvar``'s estimators.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator

log = logging.getLogger(__name__)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_ranges(count: int) -> list[tuple[int, int]]:
    """``count`` items cut into min(usable CPUs, count) contiguous (lo, hi) ranges, in order."""
    parts = min(usable_cpus(), count)
    return [(count * k // parts, count * (k + 1) // parts) for k in range(parts)]


def os_threads() -> int | None:
    """The process's OS thread count, BLAS threads included; None where it cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


# os_threads() when this package was imported, before it forked anything. A fork
# stops OpenBLAS's pool in the parent until a large enough BLAS call restarts it,
# so a later reading of 1 may only mean that the process forked before.
IMPORT_THREADS = os_threads()


class Child:
    """A forked worker: its pid and the unbuffered read end of its pipe."""

    def __init__(self, pid: int, stream):
        self.pid = pid
        self.stream = stream
        self.reaped = False

    def succeeded(self) -> bool:
        """Close the pipe, reap the child and say whether it exited with code 0."""
        self.stream.close()
        status = os.waitpid(self.pid, 0)[1]
        self.reaped = True
        return status == 0


@contextmanager
def forked(jobs: list[Callable[[int], None]]) -> Iterator[list[Child | None]]:
    """Fork one child per job and yield them in order, None for a job that could not fork.

    A child closes the read ends it inherited, runs ``job(wfd)`` on the write
    end of its own pipe and leaves by ``os._exit``: code 0 when the job
    returned, 1 when it raised anything, an interrupt included. So it never
    returns into its parent's stack or runs its exit handlers. When the block
    ends, by return or by exception, every child that :meth:`Child.succeeded`
    has not reaped is killed and reaped.
    """
    children: list[Child | None] = []
    try:
        for job in jobs:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: the caller does this share
                os.close(rfd)
                os.close(wfd)
                children.append(None)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(rfd)
                    for child in children:
                        if child is not None:
                            child.stream.close()
                    job(wfd)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            children.append(Child(pid, open(rfd, "rb", buffering=0)))
        yield children
    finally:
        for child in children:
            if child is None or child.reaped:
                continue
            child.stream.close()
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(child.pid, 0)


def run_parts(parts: list[Callable[[], object]]) -> tuple[list, dict]:
    """Run each part and return their results in order, with the run record.

    In a process with one OS thread, now and when this package was imported
    (``IMPORT_THREADS``), part 0 runs here and each other part in a
    :func:`forked` child that pickles its result back. A part whose child did
    not fork, exited non-zero or sent a short pickle runs again here, with a
    logged warning, so an error is raised as it would be in-process. In any
    other process every part runs here, in order. The record is
    ``{"workers": processes that ran parts, "reruns": indices of the parts run again here}``.
    """
    # Fork only from one thread, now and at import: a forked child restarts its BLAS
    # pool, whose threads then spin on the parent's CPUs (with numpy's default pool
    # the split coverage ran twice as slow), and fork from a threaded process is unsafe.
    if len(parts) < 2 or not (IMPORT_THREADS == 1 and os_threads() == 1):
        return [part() for part in parts], {"workers": 1, "reruns": []}
    results, reruns = [], []
    with forked([partial(_send, part) for part in parts[1:]]) as children:
        results.append(parts[0]())
        for k, child in enumerate(children, 1):
            sent, result = _received(child)
            if not sent:
                log.warning("part %d of %d: its worker failed, so it runs again here", k, len(parts))
                reruns.append(k)
                result = parts[k]()
            results.append(result)
    return results, {"workers": len(parts), "reruns": reruns}


def _send(part: Callable[[], object], wfd: int) -> None:
    """Forked child's job: run ``part`` and pickle its result to ``wfd``."""
    result = part()
    with open(wfd, "wb") as out:
        pickle.dump(result, out, protocol=pickle.HIGHEST_PROTOCOL)


def _received(child: Child | None) -> tuple[bool, object]:
    """(True, what the child's part returned), or (False, None) if it did not fork,
    exited non-zero or sent a short pickle."""
    if child is None:
        return False, None
    payload = child.stream.read()
    if not child.succeeded():
        return False, None
    try:
        return True, pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):
        return False, None
