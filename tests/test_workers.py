"""boosthdp.workers: jobs in the caller and in forked workers, outcomes in
submission order."""

import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pytest

from boosthdp import workers
from boosthdp.hdp import make_critic
from boosthdp.workers import WorkerLost, run_jobs
from forking import (
    CALLER, claimed_by_a_worker, exit_in_a_worker, needs_a_worker, no_children,
)


# the test process's own CPU set, read past any fake a test installs
_cpus_of_this_process = os.sched_getaffinity


@pytest.fixture(autouse=True)
def keeps_the_test_process_cpus():
    # run_jobs puts back the CPU set it entered with: from a faked set that
    # would narrow the test process for the rest of the session
    cpus = _cpus_of_this_process(0)
    yield
    assert _cpus_of_this_process(0) == cpus


class Failure(Exception):
    pass


class Abort(BaseException):
    pass


def fail(message):
    raise Failure(message)


def test_results_and_exceptions_in_submission_order():
    jobs = [lambda k=k: k * k for k in range(5)]
    jobs[2] = lambda: fail("job 2")
    got = run_jobs(jobs)
    assert [got[i]() for i in (0, 1, 3, 4)] == [0, 1, 9, 16]
    with pytest.raises(Failure, match="job 2") as info:
        got[2]()
    assert "in fail" in "".join(traceback.format_exception(info.value))


def test_a_callers_failure_keeps_its_own_traceback():
    (got,) = run_jobs([lambda: fail("job 0")])
    with pytest.raises(Failure, match="job 0") as info:
        got()
    assert info.value.__cause__ is None
    assert "fail" in [frame.name for frame in traceback.extract_tb(info.value.__traceback__)]


@needs_a_worker
def test_a_workers_failure_has_the_workers_traceback_as_its_cause(tmp_path):
    got = run_jobs(claimed_by_a_worker([os.getpid, lambda: fail("job 1")], 1, tmp_path / "s"))
    with pytest.raises(Failure, match="job 1") as info:
        got[1]()
    assert isinstance(info.value.__cause__, workers._RemoteTraceback)
    assert "in fail" in "".join(traceback.format_exception(info.value))


@needs_a_worker
def test_jobs_cross_the_fork_unpickled(tmp_path):
    critic = make_critic(seed=0)
    x = [0.1, -0.2, 0.3, 0.0, 0.5]
    got = run_jobs(claimed_by_a_worker([
        os.getpid,
        lambda: (os.getpid(), critic.kernels.forward(critic.params.tolist(), x)[-1]),
    ], 1, tmp_path / "started"))
    pid, y = got[1]()
    assert pid != CALLER
    assert y == critic.kernels.forward(critic.params.tolist(), x)[-1]


def test_job_0_in_the_caller_and_one_worker_per_further_cpu(monkeypatch):
    fork = os.fork

    def slow_fork():
        # the workers get a head start on the caller
        pid = fork()
        if pid:
            time.sleep(0.1)
        return pid

    monkeypatch.setattr(os, "fork", slow_fork)
    pids = [get() for get in run_jobs([os.getpid] * 8)]
    assert pids[0] == os.getpid()
    assert len(set(pids) - {os.getpid()}) <= len(os.sched_getaffinity(0)) - 1


def test_one_cpu_forks_nothing_and_loads_no_multiprocessing():
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "def refused(*args):\n"
        "    raise AssertionError('forked or pinned')\n"
        "os.fork = os.sched_setaffinity = refused\n"
        "from boosthdp.workers import run_jobs\n"
        "pids = [get() for get in run_jobs([os.getpid] * 3)]\n"
        "assert pids == [os.getpid()] * 3, pids\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    src = str(Path(workers.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_jobs_start_no_worker():
    assert run_jobs([]) == []


@needs_a_worker
def test_lost_worker_loses_only_its_job(tmp_path):
    # the caller and any other worker serve the jobs after the lost one
    got = run_jobs(claimed_by_a_worker(
        [lambda: "kept", lambda: exit_in_a_worker(3), lambda: "kept too", lambda: "and this"],
        1, tmp_path / "started",
    ))
    assert [got[0](), got[2](), got[3]()] == ["kept", "kept too", "and this"]
    with pytest.raises(WorkerLost, match=r"worker process ended without a result \(exit codes .*3"):
        got[1]()


@needs_a_worker
def test_a_worker_killed_mid_message_loses_its_job(tmp_path, monkeypatch):
    dump = pickle.dump

    def cut_short_at_job_2(outcome, file):
        if outcome[0] != 2:
            return dump(outcome, file)
        record = pickle.dumps(outcome)
        file.write(record[:len(record) // 2])
        file.flush()
        exit_in_a_worker(9)

    # the workers inherit the patched function through the fork; the caller
    # pickles nothing
    monkeypatch.setattr(pickle, "dump", cut_short_at_job_2)
    got = run_jobs(claimed_by_a_worker(
        [lambda: "caller", lambda: "whole", lambda: "x" * 1000], 2, tmp_path / "started"
    ))
    assert [got[0](), got[1]()] == ["caller", "whole"]
    with pytest.raises(WorkerLost, match=r"exit codes .*9"):
        got[2]()


def test_every_job_runs_exactly_once(tmp_path):
    # many short jobs contend for the shared claim counter; a lost update
    # would run a job twice or skip it
    log = tmp_path / "ran"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        got = run_jobs([lambda i=i: os.write(fd, b"%d\n" % i) and i for i in range(400)])
    finally:
        os.close(fd)
    assert [get() for get in got] == list(range(400))
    assert sorted(map(int, log.read_text().split())) == list(range(400))


def _unavailable(*args, **kwargs):
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("missing", [
    (multiprocessing.context.BaseContext, "Value"),
    (tempfile, "TemporaryFile"),
    (os, "fork"),
], ids=["counter", "file", "fork"])
def test_a_set_up_failure_leaves_every_job_to_the_caller(monkeypatch, missing):
    monkeypatch.setattr(*missing, _unavailable)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pinned = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(set(cpus)))
    got = run_jobs([os.getpid, os.getpid, lambda: fail("job 2")])
    assert [got[0](), got[1]()] == [os.getpid()] * 2
    with pytest.raises(Failure, match="job 2"):
        got[2]()
    assert pinned == []  # with no worker the caller keeps its CPUs


def test_a_fork_that_fails_leaves_the_jobs_to_the_caller_and_the_workers_started(monkeypatch):
    fork, forks = os.fork, []

    def second_fork_fails():
        if forks:
            _unavailable()
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    # the caller's calls; the started worker's go to its own copy of the list
    pinned = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(set(cpus)))
    got = [get() for get in run_jobs([lambda i=i: (i, os.getpid()) for i in range(50)])]
    assert [i for i, _ in got] == list(range(50))
    assert got[0][1] == os.getpid()
    assert len({pid for _, pid in got}) <= 2
    # the caller takes its own part and the part of the worker that did not
    # start, then puts back the set it entered with
    assert pinned == [{0, 2}, {0, 1, 2}]


@needs_a_worker
def test_the_caller_works_beside_the_workers():
    t0 = time.perf_counter()
    got = run_jobs([lambda: time.sleep(0.5) or "slept"] * 2)
    assert [get() for get in got] == ["slept"] * 2
    assert time.perf_counter() - t0 < 0.9


@needs_a_worker
def test_a_base_exception_in_the_caller_kills_and_reaps_the_workers(tmp_path):
    entry, seen = os.sched_getaffinity(0), []

    def abort():
        seen.append(os.sched_getaffinity(0))
        raise Abort

    t0 = time.perf_counter()
    with pytest.raises(Abort):
        run_jobs(claimed_by_a_worker([abort, lambda: time.sleep(60)], 1, tmp_path / "started"))
    assert time.perf_counter() - t0 < 10.0
    assert no_children()
    assert seen[0] < entry
    assert os.sched_getaffinity(0) == entry


@needs_a_worker
def test_each_process_keeps_to_cpus_of_its_own(tmp_path):
    entry = os.sched_getaffinity(0)
    cpus = lambda: (os.getpid(), os.sched_getaffinity(0))
    got = run_jobs(claimed_by_a_worker([cpus, cpus], 1, tmp_path / "started"))
    (caller, caller_cpus), (worker, worker_cpus) = [get() for get in got]
    assert caller == CALLER and worker != CALLER
    assert caller_cpus and worker_cpus and not caller_cpus & worker_cpus
    assert caller_cpus | worker_cpus <= entry


@needs_a_worker
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_the_caller_puts_back_the_cpus_it_entered_with(raises):
    entry, seen = os.sched_getaffinity(0), []

    def job():
        seen.append(os.sched_getaffinity(0))  # in the caller, the caller's sets only
        if raises:
            fail("job")
        return "done"

    run_jobs([job] * 2)
    assert seen and all(cpus < entry for cpus in seen)
    assert os.sched_getaffinity(0) == entry


@needs_a_worker
def test_cpus_the_system_refuses_leave_the_processes_unpinned(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_setaffinity", _unavailable)
    entry = os.sched_getaffinity(0)
    got = run_jobs(claimed_by_a_worker(
        [lambda i=i: (i, os.getpid(), os.sched_getaffinity(0)) for i in range(4)],
        1, tmp_path / "started",
    ))
    results = [get() for get in got]
    assert [i for i, _, _ in results] == list(range(4))
    assert results[0][1] == CALLER and results[1][1] != CALLER
    assert all(cpus == entry for _, _, cpus in results)
    assert no_children()
