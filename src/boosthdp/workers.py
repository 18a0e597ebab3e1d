"""Independent jobs in the calling process and in forked worker processes.

`compare` runs its groups of cells here, one job per group, and `pretrain`
its critic's TD sweep and its behaviour clone.  A job is a zero-argument
callable.  The caller runs job 0 itself and forks one worker per further
available CPU, at most one per further job; then the caller and the
workers each claim the next unclaimed job, in submission order, so the
longest jobs should come first.  On one CPU, or with one job, nothing is
forked.  Which process runs a job depends on the CPU count and on timing,
so jobs must not depend on each other's side effects.

While the jobs run, each process keeps to a part of the caller's CPUs of
its own (`sched_setaffinity`; the sorted CPUs dealt out in turn, the
caller's part first), and the caller puts back its own CPU set before it
returns or raises.  Left to the kernel, a forked worker often stays on
its parent's CPU, so the two run at half speed each while another CPU
idles.  Where the system refuses a part, that process runs unpinned.

A job reaches its worker through the fork, not through pickling, because
the generated network kernels cannot be pickled; only a job's result, or
the exception it raised, is pickled, on the way back.  Each worker writes
its outcomes, one whole pickle each, to an unlinked temporary file of its
own, which the caller reads once it has reaped the worker: a worker never
waits for the caller.  A worker writes no other file and logs nothing: the
caller does both with the results, in its own order.

Forking is safe here because the command's process runs no other thread.
multiprocessing, for the claim counter, is imported only when a worker is
to be forked, so a command that forks none (`run`, or any command on one
CPU) does not load it.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
import traceback
from functools import partial
from itertools import chain
from typing import Callable, Iterable, NoReturn, Sequence

__all__ = ["WorkerLost", "run_jobs"]


class WorkerLost(RuntimeError):
    """A job got no result: the worker process that claimed it ended first."""


class _RemoteTraceback(Exception):
    """The traceback of a job's exception as its worker formatted it; the
    cause of the exception re-raised in the caller."""


def _claims(counter, n_jobs: int):
    """The job numbers claimed, one at a time, from the shared counter."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= n_jobs:
            return
        yield i


def _serve(jobs: Sequence[Callable[[], object]], claimed: Iterable[int], record) -> None:
    """Run each claimed job and record its outcome: (i, True, result) or
    (i, False, exception)."""
    for i in claimed:
        try:
            outcome = True, jobs[i]()
        except Exception as exc:
            outcome = False, exc
        record(i, *outcome)


def _pin(cpus: Iterable[int]) -> bool:
    """Keep this process to cpus; where the system refuses, leave it as it
    was and return False."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def _work(
    jobs: Sequence[Callable[[], object]], claimed: Iterable[int], file, cpus: list[int]
) -> NoReturn:
    """A forked worker: keep to cpus, serve the jobs, write each outcome to
    file whole, then exit, 0 if every outcome was written, 1 if not."""
    def record(i: int, ok: bool, value) -> None:
        remote_traceback = "" if ok else "".join(traceback.format_exception(value))
        pickle.dump((i, ok, value, remote_traceback), file)
        file.flush()  # a kill now cuts short at most this record

    code = 1
    try:
        _pin(cpus)
        _serve(jobs, claimed, record)
        code = 0
    finally:
        os._exit(code)  # never back into the caller's code, whatever was raised


def _read(file, results: dict) -> None:
    """Add the outcomes a reaped worker wrote to results."""
    file.seek(0)
    while True:
        try:
            i, *outcome = pickle.load(file)
        except (EOFError, pickle.UnpicklingError):  # the end, or a record cut short
            return
        results[i] = partial(_result, *outcome)


def _result(ok: bool, value, remote_traceback: str = ""):
    """A job's result, or its exception raised again: a worker's with the
    worker's traceback as its cause, the caller's with its own traceback."""
    if ok:
        return value
    if remote_traceback:
        raise value from _RemoteTraceback(remote_traceback)
    raise value


def run_jobs(jobs: Sequence[Callable[[], object]]) -> list[Callable[[], object]]:
    """Run the jobs in this process and in min(len(jobs), available CPUs)
    - 1 forked workers; return, in submission order, one zero-argument
    callable per job that returns the job's result or raises its exception
    again.  A job whose worker ended before writing its outcome raises
    WorkerLost.  If a worker's file, the claim counter or a fork cannot be
    made, this process serves the jobs the missing workers would have.  Each
    worker keeps to its own part of this process's CPUs and this process to
    the rest; the workers are killed and reaped, and this process's CPU set
    put back, before this returns or raises.
    """
    jobs = list(jobs)
    results: dict = {}
    workers: list = []  # (pid, outcome file) of each worker not yet reaped
    codes: list[int] = []
    claimed: Iterable[int] = range(len(jobs))
    entry = os.sched_getaffinity(0)
    pinned = False
    try:
        cpus = sorted(entry)
        n_workers = min(len(jobs), len(cpus)) - 1
        if n_workers > 0:
            # one part per process, in turn, so every CPU is used; part 0 the caller's
            parts = [cpus[i::n_workers + 1] for i in range(n_workers + 1)]
            try:
                import multiprocessing

                # job 0 is the caller's; the fork context's lock needs no
                # semaphore tracker process
                counter = multiprocessing.get_context("fork").Value("i", 1)
                claimed = chain([0], _claims(counter, len(jobs)))
                for part in parts[1:]:
                    file = tempfile.TemporaryFile()
                    try:
                        pid = os.fork()
                    except OSError:
                        file.close()
                        raise
                    if pid == 0:
                        _work(jobs, _claims(counter, len(jobs)), file, part)
                    workers.append((pid, file))
            except OSError:  # no file, counter or fork: this process serves the jobs left
                pass
            if workers:  # the caller takes the parts of the workers that did not start too
                pinned = _pin(entry.difference(*parts[1:len(workers) + 1]))
        _serve(jobs, claimed, lambda i, *outcome: results.update({i: partial(_result, *outcome)}))
        while workers:
            pid, file = workers[0]
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            del workers[0]
            with file:
                _read(file, results)
    finally:
        for pid, file in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            file.close()
        if pinned:
            _pin(entry)
    lost = WorkerLost(
        "worker process ended without a result (exit codes "
        + ", ".join(map(str, codes)) + ")"
    )
    return [results.get(i) or partial(_result, False, lost) for i in range(len(jobs))]
