"""Run a list of jobs on this process and on children forked from it, and
tune how the C library's malloc keeps freed memory."""

import contextlib
import ctypes
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


def fork_map(fn, jobs, processes):
    """[fn(job) for job in jobs], in job order, run by this process and by
    up to `processes` - 1 children forked from it, all started before any
    job runs. With k processes, process p (this one is 0, the children
    1, ..., k - 1 in the order they are forked) runs jobs p, p + k, p + 2k,
    ... in turn, and stops at the first of them that raises. Nothing is
    pickled on the way out: a child finds `fn` and the jobs in the memory
    it shares with this process at the fork.

    Where jobs raise, the exception of the lowest failing index is raised,
    as the list comprehension would raise it: the process that owns that
    index ran every lower index of its own first, without a failure. A
    child pickles its results back through its own pipe and always leaves
    by os._exit, so it neither flushes stdio buffers it inherited nor runs
    atexit handlers. Every child is reaped before this returns or raises:
    where this process leaves its jobs early, on a BaseException such as
    KeyboardInterrupt, each child runs on through its jobs first.
    A child that ends without a result, for instance one killed by a
    signal, makes this raise ChildProcessError, an OSError.

    The jobs run here, in turn, where the platform's default start method
    is not fork (anything but Linux), and with one process or one job."""
    jobs = list(jobs)
    processes = min(processes, len(jobs))
    if processes < 2 or sys.platform != "linux":
        return [fn(job) for job in jobs]
    children = {}  # pid: the read end of the pipe its results come back through
    exit_codes = {}
    try:
        for p in range(1, processes):
            results, result_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results)
                os.close(result_end)
                raise
            if pid == 0:
                indices = range(p, len(jobs), processes)
                _child(fn, jobs, indices, result_end, [results, *children.values()])
            os.close(result_end)
            children[pid] = results
        outcomes = _run(fn, jobs, range(0, len(jobs), processes))
        payloads = {}
        for pid, results in children.items():
            with open(results, "rb", closefd=False) as pipe:
                payloads[pid] = pipe.read()
    finally:
        # after a failure here, a child runs on through its jobs, and then
        # meets a closed pipe as it writes its results and leaves
        for pid, results in children.items():
            os.close(results)
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, code in exit_codes.items():
        if code != 0:
            raise ChildProcessError(f"worker process {pid} ended without a result (exit code {code})")
        outcomes.update(pickle.loads(payloads[pid]))
    failed = [index for index, (ok, _) in outcomes.items() if not ok]
    if failed:
        raise outcomes[min(failed)][1]
    return [outcomes[index][1] for index in range(len(jobs))]


def _run(fn, jobs, indices):
    """{index: (True, fn(jobs[index])) or (False, exception)} of `indices`,
    run in turn up to the first that raises."""
    outcomes = {}
    for index in indices:
        try:
            outcomes[index] = (True, fn(jobs[index]))
        except Exception as exc:
            outcomes[index] = (False, exc)
            break
    return outcomes


def _child(fn, jobs, indices, result_end, inherited):
    # never returns, and exits 0 only once every result is written
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        payload = memoryview(pickle.dumps(_run(fn, jobs, indices), protocol=5))
        while payload:
            payload = payload[os.write(result_end, payload) :]
        code = 0
    finally:
        os._exit(code)
