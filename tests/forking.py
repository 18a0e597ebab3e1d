"""Helpers for tests of jobs that `boosthdp.workers` runs: make a forked
worker, not the calling test process, claim a given job, and end a worker
without ever ending the test process."""

import os
import time

import pytest

# the test process: `run_jobs` runs job 0 here and forks its workers from here
CALLER = os.getpid()

needs_a_worker = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="on one CPU no worker is forked"
)


def wait_for(path, timeout=60.0):
    """Wait until path exists, for at most timeout seconds."""
    deadline = time.monotonic() + timeout
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.001)


def no_children():
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return True
    return False


def exit_in_a_worker(code):
    """End the forked worker that runs this with exit code `code`; in the
    test process, fail the job instead."""
    if os.getpid() == CALLER:
        raise AssertionError("a job meant for a forked worker ran in the caller")
    os._exit(code)


def claimed_by_a_worker(jobs, k, started):
    """The jobs, with job 0 waiting until job k has started, which creates
    the file `started`: the caller runs job 0 itself, so while it waits a
    forked worker claims job k."""
    first, kth = jobs[0], jobs[k]

    def waits():
        wait_for(started)
        return first()

    def starts():
        started.touch()
        return kth()

    return [waits, *jobs[1:k], starts, *jobs[k + 1:]]
