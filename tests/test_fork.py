"""fork_map: results in job order, the lowest failing index's error from
whichever process ran it, a child that ends without a result, stdio and
atexit in children, the in-process paths, and no child left unreaped.
Each test forks at most two children."""

import os
import pathlib
import subprocess
import sys
import time

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


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_results_come_back_in_job_order(tmp_path, processes):
    log = tmp_path / "log"

    def square(job):
        append_line(log, f"started {job} {os.getpid()}")
        return job * job

    assert fork_map(square, range(20), processes) == [job * job for job in range(20)]
    assert_no_child_left()
    ran = ran_in(log)
    # every job ran exactly once, in at most `processes` processes
    assert sorted(ran) == list(range(20)) and len(read_lines(log)) == 20
    assert len(set(ran.values())) <= processes


def steer_first_job(monkeypatch, log, first):
    """Make the process named `first`, "parent" or "child", take job 0: the
    other one waits, right after the fork, until job 0 has started."""
    fork = os.fork

    def steered_fork():
        pid = fork()
        if (pid == 0) == (first == "parent"):
            try:
                wait_for(lambda: 0 in ran_in(log))
            except AssertionError:
                if pid == 0:
                    os._exit(1)
                raise
        return pid

    monkeypatch.setattr(os, "fork", steered_fork)


@pytest.mark.parametrize("first", ["parent", "child"])
def test_the_lowest_failing_index_wins_whichever_process_ran_it(tmp_path, monkeypatch, first):
    # job 1 fails first in time, in the other process; job 0's error wins,
    # as it does in the list comprehension
    log = tmp_path / "log"

    def job(index):
        append_line(log, f"started {index} {os.getpid()}")
        if index == 0:
            wait_for(lambda: "failed 1" in read_lines(log))
            raise LookupError("job 0")
        append_line(log, f"failed {index}")
        raise ValueError(f"job {index}")

    steer_first_job(monkeypatch, log, first)
    with pytest.raises(LookupError, match="^job 0$"):
        fork_map(job, range(4), 2)
    assert_no_child_left()
    ran = ran_in(log)
    assert (ran[0] == os.getpid()) == (first == "parent")
    assert ran[1] != ran[0]


def test_a_failure_empties_the_ticket_pipe(tmp_path):
    # after job 0 fails, no process takes another ticket: a handful of the
    # 16,000 jobs start, where all would without the emptying
    log = tmp_path / "log"

    def job(index):
        append_line(log, f"started {index} {os.getpid()}")
        if index == 0:
            wait_for(lambda: len(ran_in(log)) > 1)
            raise ValueError("job 0")
        time.sleep(2e-4)
        return index

    with pytest.raises(ValueError, match="^job 0$"):
        fork_map(job, range(16_000), 2)
    assert_no_child_left()
    assert len(ran_in(log)) < 8_000


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
    # child, which runs on, is stopped and reaped
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


def test_more_jobs_than_the_ticket_pipe_holds_run_here():
    # 2**16 tickets of 4 bytes exceed Linux's default 64 KiB pipe
    assert fork_map(lambda job: os.getpid(), range(2**16), 2) == [os.getpid()] * 2**16


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
