"""boosthdp.workers: jobs in forked workers, outcomes in submission order."""

import multiprocessing
import multiprocessing.connection
import os
import struct
import time

import pytest

from boosthdp.hdp import make_critic
from boosthdp.workers import WorkerLost, Workers


def outcomes(jobs):
    with Workers(jobs) as workers:
        return workers.outcomes()


class Failure(Exception):
    pass


def fail(message):
    raise Failure(message)


def test_results_and_exceptions_in_submission_order():
    jobs = [lambda k=k: k * k for k in range(5)]
    jobs[2] = lambda: fail("job 2")
    got = outcomes(jobs)
    assert [got[i]() for i in (0, 1, 3, 4)] == [0, 1, 9, 16]
    with pytest.raises(Failure, match="job 2") as info:
        got[2]()
    # the worker's traceback comes along as the cause
    assert "fail" in str(info.value.__cause__)


def test_jobs_cross_the_fork_unpickled():
    critic = make_critic(seed=0)
    x = [0.1, -0.2, 0.3, 0.0, 0.5]
    (got,) = outcomes([lambda: critic.kernels.forward(critic.params.tolist(), x)[-1]])
    assert got() == critic.kernels.forward(critic.params.tolist(), x)[-1]


def test_one_worker_per_available_cpu():
    pids = [get() for get in outcomes([os.getpid] * 8)]
    assert os.getpid() not in pids
    assert 1 <= len(set(pids)) <= len(os.sched_getaffinity(0))


def test_one_cpu_one_worker():
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        pids = [get() for get in outcomes([os.getpid] * 3)]
    finally:
        os.sched_setaffinity(0, cpus)
    assert len(set(pids)) == 1 and os.getpid() not in pids


def test_no_jobs_start_no_worker():
    assert outcomes([]) == []


def test_lost_worker_loses_only_its_job():
    # the last job, so on any CPU count the others have run
    got = outcomes([lambda: "kept", lambda: "kept too", lambda: os._exit(3)])
    assert [got[0](), got[1]()] == ["kept", "kept too"]
    with pytest.raises(WorkerLost, match=r"worker process ended without a result \(exit codes .*3"):
        got[2]()


def test_jobs_after_the_last_worker_is_lost_are_lost_too():
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        got = outcomes([lambda: "ran", lambda: os._exit(3), lambda: "never ran"])
    finally:
        os.sched_setaffinity(0, cpus)
    assert got[0]() == "ran"
    for get in got[1:]:
        with pytest.raises(WorkerLost, match=r"\(exit codes 3\)"):
            get()


def test_a_worker_killed_mid_message_loses_its_job(monkeypatch):
    def half_a_message(self, obj):
        # the header of a 1000-byte frame, then 3 bytes of it
        os.write(self.fileno(), struct.pack("!i", 1000) + b"abc")
        os._exit(9)

    # the workers inherit the patched method through the fork
    monkeypatch.setattr(multiprocessing.connection.Connection, "send", half_a_message)
    (got,) = outcomes([lambda: "never arrives"])
    with pytest.raises(WorkerLost, match=r"exit codes 9\)"):
        got()


def test_every_job_runs_exactly_once(tmp_path):
    # many short jobs contend for the shared claim counter; a lost update
    # would run a job twice or skip it
    log = tmp_path / "ran"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        got = outcomes([lambda i=i: os.write(fd, b"%d\n" % i) and i for i in range(400)])
    finally:
        os.close(fd)
    assert [get() for get in got] == list(range(400))
    assert sorted(map(int, log.read_text().split())) == list(range(400))


def test_unstarted_workers_lose_every_job(monkeypatch):
    def no_fork(self):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
    got = outcomes([lambda: 1, lambda: 2])
    for get in got:
        with pytest.raises(WorkerLost, match="cannot start a worker process: .*Resource"):
            get()


def test_the_caller_works_beside_the_workers():
    t0 = time.perf_counter()
    with Workers([lambda: time.sleep(0.5) or "slept"]) as workers:
        time.sleep(0.5)
        (got,) = workers.outcomes()
    assert got() == "slept"
    assert time.perf_counter() - t0 < 0.9


def test_leaving_the_block_kills_the_workers():
    t0 = time.perf_counter()
    with pytest.raises(Failure):
        with Workers([lambda: time.sleep(60)]):
            fail("the caller's own work failed")
    assert time.perf_counter() - t0 < 10.0
    assert multiprocessing.active_children() == []
