"""Suite-wide guard: no test may leave a child process behind."""

import multiprocessing
import os

import pytest


def _exited_child() -> int:
    """The pid of a child process that has exited but was not reaped, or 0.
    The child stays unreaped (WNOWAIT), so multiprocessing still sees it."""
    try:
        info = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:  # no child processes at all
        return 0
    return info.si_pid if info else 0


def _running_child() -> bool:
    """Whether a child process is running: one forked with `os.fork`, say,
    which multiprocessing does not list."""
    try:
        return os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
    except ChildProcessError:  # no child processes at all
        return False


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process running or exited but
    unreaped, as workers that are not reaped would; then kill and reap the
    multiprocessing children and reap an exited one, so the next test
    starts clean."""
    yield
    unreaped = _exited_child()
    alive = multiprocessing.active_children()  # also reaps its exited children
    for proc in alive:
        proc.kill()
        proc.join()
    if unreaped and _exited_child() == unreaped:  # not a multiprocessing child
        os.waitpid(unreaped, 0)
    assert not alive, f"test left child processes running: {alive}"
    assert not unreaped, f"test left child process {unreaped} unreaped"
    assert not _running_child(), "test left a child process running"
