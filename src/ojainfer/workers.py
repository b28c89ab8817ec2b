"""Forked workers: the one process lifecycle of every caller that splits its work across CPUs.

A caller hands :func:`forked` one job per child. Each child runs its job on
the write end of a pipe and leaves by ``os._exit``; the caller reads the
read ends and decides, from what arrived and from each exit status, whether
to use a child's share or to do that share itself. No child outlives the
``with`` block.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Callable, Iterator


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
