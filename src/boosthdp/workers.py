"""Independent jobs in forked worker processes, one per available CPU.

`compare` runs its cells here, and `pretrain` its behaviour clone beside
the critic's TD sweep.  A job is a zero-argument callable.  It reaches its
worker through the fork, not through pickling, because the generated
network kernels cannot be pickled; only a job's result, or the exception
it raised, is pickled, on the way back.  Each worker claims the next
unclaimed job, in submission order, so the longest jobs should come first.
A worker writes no file and logs nothing: the caller does both with the
results, in its own order.

The fork start method is named explicitly, as the jobs cannot travel any
other way.  Forking is safe here because the command's process runs no
other thread.

multiprocessing is imported when workers are first started, so a command
that starts none (`run`) does not load it.
"""

from __future__ import annotations

import os
import traceback
from functools import partial
from typing import Callable, Sequence

__all__ = ["WorkerLost", "Workers"]


class WorkerLost(RuntimeError):
    """A job got no result: its worker process ended first, or none started."""


class _RemoteTraceback(Exception):
    """The traceback of a job's exception as its worker formatted it; the
    cause of the exception re-raised in the parent."""


def _serve(jobs: Sequence[Callable[[], object]], claimed, conn) -> None:
    """A worker: claim the next job, run it, send back its outcome."""
    while True:
        with claimed.get_lock():
            i = claimed.value
            claimed.value = i + 1
        if i >= len(jobs):
            return
        try:
            outcome = (i, True, jobs[i]())
        except Exception as exc:
            outcome = (i, False, exc, traceback.format_exc())
        conn.send(outcome)


def _result(ok: bool, value, remote_traceback: str = ""):
    """A job's result, or its exception raised again."""
    if ok:
        return value
    raise value from (_RemoteTraceback(remote_traceback) if remote_traceback else None)


class Workers:
    """Runs jobs in min(len(jobs), available CPUs) forked workers.

    The workers start when the `with` block is entered, so the caller can
    work beside them, and are killed and reaped when it is left.
    `outcomes()`, called once, waits for every job and returns, in
    submission order, one zero-argument callable per job that returns the
    job's result or raises its exception again; a job that got no result
    raises WorkerLost.
    """

    def __init__(self, jobs: Sequence[Callable[[], object]]) -> None:
        self._jobs = list(jobs)
        self._procs: list = []
        self._conns: list = []
        self._start_error: OSError | None = None

    def __enter__(self) -> "Workers":
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        claimed = ctx.Value("i", 0)
        try:
            for _ in range(min(len(self._jobs), len(os.sched_getaffinity(0)))):
                reader, writer = ctx.Pipe(duplex=False)
                # closed once forked: the worker's copy is then the only
                # writer, so the worker's end ends the reader
                with writer:
                    proc = ctx.Process(target=_serve, args=(self._jobs, claimed, writer))
                    proc.start()
                self._procs.append(proc)
                self._conns.append(reader)
        except OSError as exc:  # no fork: the workers started take every job
            self._start_error = exc
        return self

    def outcomes(self) -> list[Callable[[], object]]:
        from multiprocessing.connection import wait

        results = {}
        pending = list(self._conns)
        while pending:
            for conn in wait(pending):
                try:
                    i, *outcome = conn.recv()
                except (EOFError, OSError):  # the worker has ended, perhaps mid-message
                    pending.remove(conn)
                else:
                    results[i] = partial(_result, *outcome)
        for proc in self._procs:
            proc.join()
        why = (
            f"cannot start a worker process: {self._start_error}" if self._start_error
            else "worker process ended without a result (exit codes "
            + ", ".join(str(proc.exitcode) for proc in self._procs) + ")"
        )
        return [
            results.get(i) or partial(_result, False, WorkerLost(why))
            for i in range(len(self._jobs))
        ]

    def __exit__(self, *exc_info) -> None:
        for proc in self._procs:
            proc.kill()  # a no-op on a worker that has been reaped
            proc.join()
        for conn in self._conns:
            conn.close()
