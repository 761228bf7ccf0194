"""Split work into contiguous runs, run a list of jobs on this process and
on children forked from it, one job each, and tune how the C library's
malloc keeps freed memory."""

import contextlib
import ctypes
import itertools
import os
import pickle
import sys

# glibc's `mallopt` parameter that sets how much freed memory at the top of
# the heap is kept rather than handed back to the kernel
M_TOP_PAD = -2

# the C types of the arguments of the malloc calls `malloc_call` makes
_MALLOC_ARGTYPES = {"mallopt": [ctypes.c_int, ctypes.c_int], "malloc_trim": [ctypes.c_size_t]}


def malloc_call(name, *args):
    """Call the C library's `mallopt` or `malloc_trim` (by `name`) with the
    ints `args`; nothing where the library has no such function (on
    Windows, CDLL(None) raises TypeError)."""
    with contextlib.suppress(OSError, AttributeError, TypeError):
        function = getattr(ctypes.CDLL(None), name)
        function.argtypes, function.restype = _MALLOC_ARGTYPES[name], ctypes.c_int
        function(*args)


def split(items, parts, size):
    """At most `parts` contiguous, nonempty runs of `items`, in order, of
    about equal total `size(item)`: an item joins the run its midpoint
    falls in. Every size is positive."""
    parts = min(parts, len(items))
    sizes = [size(item) for item in items]
    total = sum(sizes)
    runs = {}
    for item, end, item_size in zip(items, itertools.accumulate(sizes), sizes):
        runs.setdefault((2 * end - item_size) * parts // (2 * total), []).append(item)
    return list(runs.values())


def fork_map(fn, jobs):
    """[fn(job) for job in jobs], in job order: job 0 run by this process
    and each further job by a child forked from it for that job alone, all
    forked before any job runs. Nothing is pickled on the way out: a child
    finds `fn` and its job in the memory it shares with this process at
    the fork.

    Where jobs raise, the exception of the first failing job in job order
    is raised, as the list comprehension would raise it, whichever process
    fails first in time. A child pickles its result straight into a
    buffered file object on its own pipe, and always leaves by os._exit,
    so it neither flushes stdio buffers it inherited nor runs atexit
    handlers; it exits 0 only once that file is flushed and closed. Every
    child is reaped before this returns or raises: where this process
    leaves its job early, on a BaseException such as KeyboardInterrupt,
    each child runs its job first. A child that ends without a result, for
    instance one killed by a signal or one whose result fails to pickle
    partway, makes this raise ChildProcessError, an OSError, before any
    result is unpickled.

    The jobs run here, in turn, where the platform's default start method
    is not fork (anything but Linux), and where there is one job."""
    jobs = list(jobs)
    if len(jobs) < 2 or sys.platform != "linux":
        return [fn(job) for job in jobs]
    children = {}  # pid: the read end of the pipe its result comes back through
    exit_codes = {}
    try:
        for job in jobs[1:]:
            results, result_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results)
                os.close(result_end)
                raise
            if pid == 0:
                _child(fn, job, result_end, [results, *children.values()])
            os.close(result_end)
            children[pid] = results
        outcomes = [_run(fn, jobs[0])]
        payloads = {}
        for pid, results in children.items():
            with open(results, "rb", closefd=False) as pipe:
                payloads[pid] = pipe.read()
    finally:
        # after a failure here, a child runs its job, and then meets a
        # closed pipe as it writes its result and leaves
        for pid, results in children.items():
            os.close(results)
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, code in exit_codes.items():
        if code != 0:
            raise ChildProcessError(f"worker process {pid} ended without a result (exit code {code})")
        outcomes.append(pickle.loads(payloads[pid]))
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _run(fn, job):
    """(True, fn(job)), or (False, the exception it raised)."""
    try:
        return True, fn(job)
    except Exception as exc:
        return False, exc


def _child(fn, job, result_end, inherited):
    # never returns, and exits 0 only once the result is pickled into the
    # pipe and the pipe is flushed and closed; a result that fails to
    # pickle, or a pipe closed at the other end, exits 1
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(result_end, "wb") as pipe:
            pickle.dump(_run(fn, job), pipe, protocol=5)
        code = 0
    finally:
        os._exit(code)
