"""fork_map: results in job order, job j run by process j mod k, a child's
result larger than a pipe's buffer, the lowest failing index's error from
whichever process ran it, a process stopping at its first failing job, a
child that ends without a result, stdio and atexit in children, the
in-process path, and no child left unreaped. Each test forks at most two
children at a time."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import append_line, read_lines, wait_for
from gammaineq import _fork
from gammaineq._fork import fork_map


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def ran_in(log):
    """{job: pid} from the `started <job> <pid>` lines of `log`."""
    started = (line.split()[1:] for line in read_lines(log) if line.startswith("started "))
    return {int(job): int(pid) for job, pid in started}


def forked_pids(monkeypatch):
    """The pids of the children os.fork starts from now on, in fork order."""
    fork, pids = os.fork, []

    def logged_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", logged_fork)
    return pids


def assert_job_j_ran_in_process_j_mod_k(log, forked, count, processes):
    # k = min(processes, count): this process is process 0, the children
    # processes 1 to k - 1 in the order they are forked
    k = min(processes, count)
    assert len(forked) == k - 1
    # every job ran exactly once
    assert len(read_lines(log)) == count
    owners = [os.getpid(), *forked]
    assert ran_in(log) == {job: owners[job % k] for job in range(count)}


def started_and_square(log):
    def square(job):
        append_line(log, f"started {job} {os.getpid()}")
        return job * job

    return square


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_results_come_back_in_job_order(tmp_path, monkeypatch, processes):
    log = tmp_path / "log"
    forked = forked_pids(monkeypatch)
    assert fork_map(started_and_square(log), range(20), processes) == [job * job for job in range(20)]
    assert_no_child_left()
    assert_job_j_ran_in_process_j_mod_k(log, forked, 20, processes)


def test_no_process_is_forked_for_want_of_a_job(tmp_path, monkeypatch):
    log = tmp_path / "log"
    forked = forked_pids(monkeypatch)
    assert fork_map(started_and_square(log), range(2), 3) == [0, 1]
    assert_no_child_left()
    assert_job_j_ran_in_process_j_mod_k(log, forked, 2, 3)


def test_a_child_result_larger_than_a_pipe_buffer_comes_back_whole(tmp_path):
    # the child's 8 MiB result fills its pipe many times over; this process
    # reads it only after its own job, which waits until the child has started
    log = tmp_path / "log"

    def job(index):
        append_line(log, f"started {index} {os.getpid()}")
        if index == 0:
            wait_for(lambda: 1 in ran_in(log))
            return "here"
        return np.arange(2**20)

    here, there = fork_map(job, range(2), 2)
    assert_no_child_left()
    assert here == "here" and np.array_equal(there, np.arange(2**20))
    assert ran_in(log)[1] != os.getpid()


@pytest.mark.parametrize("owner", ["parent", "child"])
def test_the_lowest_failing_index_wins_whichever_process_ran_it(tmp_path, owner):
    # this process owns jobs 0 and 2, the child 1 and 3. The lowest failing
    # index is this process's job 0 or the child's job 1, and the other
    # process fails at the next index; the jobs below it succeed. The lowest
    # one's error wins whichever of the two fails first in time, as it does
    # in the list comprehension, and no process starts a job after its
    # failing one
    lowest = 0 if owner == "parent" else 1
    for early in (lowest, lowest + 1):
        log = tmp_path / f"log{early}"

        def job(index):
            append_line(log, f"started {index} {os.getpid()}")
            if index < lowest:
                return index
            if index != early:
                wait_for(lambda: f"failed {early}" in read_lines(log))
            append_line(log, f"failed {index}")
            raise (LookupError if index == lowest else ValueError)(f"job {index}")

        with pytest.raises(LookupError, match=f"^job {lowest}$"):
            fork_map(job, range(4), 2)
        assert_no_child_left()
        ran = ran_in(log)
        assert sorted(ran) == list(range(lowest + 2))
        assert [pid == os.getpid() for pid in ran.values()] == [index % 2 == 0 for index in ran]
        assert read_lines(log)[-1] == f"failed {2 * lowest + 1 - early}"


@pytest.mark.parametrize("failing", [0, 1])
def test_a_process_stops_at_its_first_failing_job_while_the_others_run_on(tmp_path, failing):
    # job `failing` fails; the other process waits on its first job until
    # it has, then runs all of its jobs
    log = tmp_path / "log"

    def job(index):
        append_line(log, f"started {index} {os.getpid()}")
        if index == failing:
            append_line(log, f"failed {index}")
            raise ValueError(f"job {index}")
        if index == 1 - failing:
            wait_for(lambda: f"failed {failing}" in read_lines(log))
        return index

    with pytest.raises(ValueError, match=f"^job {failing}$"):
        fork_map(job, range(8), 2)
    assert_no_child_left()
    assert sorted(ran_in(log)) == sorted({failing, *range(1 - failing, 8, 2)})


def test_a_child_that_ends_without_a_result_raises_child_process_error(tmp_path):
    parent = os.getpid()
    log = tmp_path / "log"

    def job(index):
        if os.getpid() != parent:
            append_line(log, f"started {index} {os.getpid()}")
            os._exit(3)
        # hold this process on its first job until the child has taken one
        wait_for(lambda: ran_in(log))
        return index

    with pytest.raises(ChildProcessError) as raised:
        fork_map(job, range(4), 2)
    assert_no_child_left()
    assert isinstance(raised.value, OSError)
    (child,) = set(ran_in(log).values())
    assert str(raised.value) == f"worker process {child} ended without a result (exit code 3)"


class _Abort(BaseException):
    pass


def test_an_exception_that_stops_this_process_still_reaps_every_child():
    # not an Exception: it leaves this process's own job at once, and the
    # child runs on through its jobs and is reaped
    parent = os.getpid()

    def job(index):
        if os.getpid() == parent:
            raise _Abort()
        return index

    with pytest.raises(_Abort):
        fork_map(job, range(50), 2)
    assert_no_child_left()


def test_jobs_run_here_where_the_platform_does_not_fork(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    assert fork_map(lambda job: (job, os.getpid()), range(5), 2) == [(job, os.getpid()) for job in range(5)]


def test_children_neither_flush_inherited_buffers_nor_run_atexit():
    # stdout to a pipe is block-buffered: "before" is still in the buffer
    # at the fork, and would be written again by a child that flushed it
    script = (
        "import atexit\n"
        "from gammaineq._fork import fork_map\n"
        "atexit.register(print, 'atexit')\n"
        "print('before')\n"
        "print(sum(fork_map(abs, range(40), 2)))\n"
    )
    package_root = str(pathlib.Path(_fork.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "before\n780\natexit\n", "")
