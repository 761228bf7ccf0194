"""fork_map: results in job order, job 0 run here and each further job in
a child of its own, a child's result larger than a pipe's buffer, the first
failing job's error whichever process fails first in time, a child that
ends without a result or with one that fails to pickle, stdio and atexit
in children, the in-process path, and no child left unreaped; split:
contiguous runs of about equal size. Each test forks at most two children
at a time."""

import io
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from conftest import append_line, read_lines, wait_for
from gammaineq import _fork
from gammaineq._fork import fork_map, split


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


def assert_job_j_ran_in_process_j(log, forked, count):
    # this process runs job 0, and the j-th child forked runs job j
    assert len(forked) == count - 1
    # every job ran exactly once
    assert len(read_lines(log)) == count
    assert ran_in(log) == dict(enumerate([os.getpid(), *forked]))


def started_and_square(log):
    def square(job):
        append_line(log, f"started {job} {os.getpid()}")
        return job * job

    return square


@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_come_back_in_job_order(tmp_path, monkeypatch, count):
    log = tmp_path / "log"
    forked = forked_pids(monkeypatch)
    assert fork_map(started_and_square(log), range(count)) == [job * job for job in range(count)]
    assert_no_child_left()
    assert_job_j_ran_in_process_j(log, forked, count)


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

    here, there = fork_map(job, range(2))
    assert_no_child_left()
    assert here == "here" and np.array_equal(there, np.arange(2**20))
    assert ran_in(log)[1] != os.getpid()


@pytest.mark.parametrize("owner", ["parent", "child"])
def test_the_lowest_failing_index_wins_whichever_process_ran_it(tmp_path, monkeypatch, owner):
    # three jobs, each in its own process. The first failing job in job
    # order is this process's job 0 or the first child's job 1, and the
    # next job fails too; any other job succeeds. The first one's error
    # wins whichever of the two fails first in time, as it does in the list
    # comprehension
    lowest = 0 if owner == "parent" else 1
    for early in (lowest, lowest + 1):
        log = tmp_path / f"log{early}"
        forked = forked_pids(monkeypatch)

        def job(index):
            append_line(log, f"started {index} {os.getpid()}")
            if index not in (lowest, lowest + 1):
                return index
            if index != early:
                wait_for(lambda: f"failed {early}" in read_lines(log))
            append_line(log, f"failed {index}")
            raise (LookupError if index == lowest else ValueError)(f"job {index}")

        with pytest.raises(LookupError, match=f"^job {lowest}$"):
            fork_map(job, range(3))
        assert_no_child_left()
        assert ran_in(log) == dict(enumerate([os.getpid(), *forked]))
        failed = [line for line in read_lines(log) if line.startswith("failed ")]
        assert failed == [f"failed {early}", f"failed {2 * lowest + 1 - early}"]


def test_a_child_that_ends_without_a_result_raises_child_process_error(tmp_path):
    parent = os.getpid()
    log = tmp_path / "log"

    def job(index):
        if os.getpid() != parent:
            append_line(log, f"started {index} {os.getpid()}")
            os._exit(3)
        # hold this process on its job until the child has started its own
        wait_for(lambda: ran_in(log))
        return index

    with pytest.raises(ChildProcessError) as raised:
        fork_map(job, range(2))
    assert_no_child_left()
    assert isinstance(raised.value, OSError)
    (child,) = set(ran_in(log).values())
    assert str(raised.value) == f"worker process {child} ended without a result (exit code 3)"


@pytest.mark.parametrize("partway", [True, False], ids=["partway", "from-the-start"])
def test_a_result_that_fails_to_pickle_raises_child_process_error_before_any_unpickling(monkeypatch, partway):
    # partway: the array's 800 kB are written before pickling meets the
    # lambda, so the child's pipe carries a truncated stream
    result = (np.zeros(100_000), lambda: 0) if partway else (lambda: 0)
    written = io.BytesIO()
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dump(result, written, protocol=5)
    assert (written.tell() > 800_000) == partway
    forked = forked_pids(monkeypatch)
    unpickled = []
    loads = pickle.loads
    monkeypatch.setattr(pickle, "loads", lambda data: unpickled.append(data) or loads(data))

    with pytest.raises(ChildProcessError) as raised:
        fork_map(lambda index: result if index else index, range(2))
    assert_no_child_left()
    assert str(raised.value) == f"worker process {forked[0]} ended without a result (exit code 1)"
    assert unpickled == []


class _Abort(BaseException):
    pass


def test_an_exception_that_stops_this_process_still_reaps_every_child():
    # not an Exception: it leaves this process's own job at once, and each
    # child runs its job and is reaped
    parent = os.getpid()

    def job(index):
        if os.getpid() == parent:
            raise _Abort()
        return index

    with pytest.raises(_Abort):
        fork_map(job, range(3))
    assert_no_child_left()


def test_jobs_run_here_where_the_platform_does_not_fork(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    assert fork_map(lambda job: (job, os.getpid()), range(5)) == [(job, os.getpid()) for job in range(5)]


def test_children_neither_flush_inherited_buffers_nor_run_atexit():
    # stdout to a pipe is block-buffered: "before" is still in the buffer
    # at the fork, and would be written again by a child that flushed it
    script = (
        "import atexit\n"
        "from gammaineq._fork import fork_map\n"
        "atexit.register(print, 'atexit')\n"
        "print('before')\n"
        "print(sum(fork_map(abs, [-1, -2, -3])))\n"
    )
    package_root = str(pathlib.Path(_fork.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "before\n6\natexit\n", "")


@pytest.mark.parametrize(
    "cuts, lengths",
    [
        ([0, 100, 210, 300, 400, 520, 600, 700, 800], [4, 4]),
        # a range joins the run its middle byte falls in; a CSV's rows
        # begin after its header
        ([5, 405, 410, 415, 420], [1, 3]),
    ],
)
def test_split_cuts_reader_spans_into_runs_of_about_equal_bytes(cuts, lengths):
    spans = list(zip(cuts, cuts[1:]))
    runs = split(spans, 2, lambda span: span[1] - span[0])
    assert [len(run) for run in runs] == lengths
    assert [span for run in runs for span in run] == spans
