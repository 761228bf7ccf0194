"""Run a list of jobs on this process and on children forked from it."""

import os
import pickle
import sys

# A ticket is a job index, written to the ticket pipe in this many bytes.
_TICKET_BYTES = 4


def fork_map(fn, jobs, processes):
    """[fn(job) for job in jobs], in job order, run by this process and by
    up to `processes` - 1 children forked from it, all started before any
    job runs. Each process takes the next job index from a ticket pipe
    until it is empty, so a process the host slows down runs fewer jobs.
    Nothing is pickled on the way out: a child finds `fn` and the jobs in
    the memory it shares with this process at the fork.

    Where jobs raise, the exception of the lowest failing index is raised,
    as the list comprehension would raise it; a process that meets a
    failure empties the ticket pipe, since every index left in it is
    higher. A child pickles its results back through its own pipe and
    always leaves by os._exit, so it neither flushes stdio buffers it
    inherited nor runs atexit handlers. Every child is reaped before this
    returns or raises. A child that ends without a result, for instance
    one killed by a signal, makes this raise ChildProcessError, an OSError.

    The jobs run here, in turn, where the platform's default start method
    is not fork (anything but Linux), with one process or one job, and with
    more jobs than the ticket pipe holds (16,384 in Linux's default 64 KiB)
    rather than forking that many processes."""
    jobs = list(jobs)
    processes = min(processes, len(jobs))
    if processes < 2 or sys.platform != "linux":
        return [fn(job) for job in jobs]
    tickets, ticket_end = os.pipe()
    try:
        os.set_blocking(ticket_end, False)
        written = os.write(
            ticket_end, b"".join(i.to_bytes(_TICKET_BYTES, "little") for i in range(len(jobs)))
        )
    except BlockingIOError:
        written = 0
    finally:
        # closed before the first fork, so the last ticket is followed by EOF
        os.close(ticket_end)
    if written < _TICKET_BYTES * len(jobs):
        os.close(tickets)
        return [fn(job) for job in jobs]
    children = {}  # pid: the read end of the pipe its results come back through
    exit_codes = {}
    try:
        for _ in range(processes - 1):
            results, result_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results)
                os.close(result_end)
                raise
            if pid == 0:
                _child(fn, jobs, tickets, result_end, [results, *children.values()])
            os.close(result_end)
            children[pid] = results
        outcomes = _run_tickets(fn, jobs, tickets)
        payloads = {}
        for pid, results in children.items():
            with open(results, "rb", closefd=False) as pipe:
                payloads[pid] = pipe.read()
    finally:
        # after a failure here, children stop at their current job, and one
        # still writing its results meets a closed pipe and leaves
        _drain(tickets)
        os.close(tickets)
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


def _run_tickets(fn, jobs, tickets):
    """{index: (True, fn(job)) or (False, exception)} of the jobs whose
    tickets this process takes, until the ticket pipe is empty."""
    outcomes = {}
    while ticket := os.read(tickets, _TICKET_BYTES):
        index = int.from_bytes(ticket, "little")
        try:
            outcomes[index] = (True, fn(jobs[index]))
        except Exception as exc:
            outcomes[index] = (False, exc)
            _drain(tickets)
    return outcomes


def _child(fn, jobs, tickets, result_end, inherited):
    # never returns, and exits 0 only once every result is written
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        payload = memoryview(pickle.dumps(_run_tickets(fn, jobs, tickets), protocol=5))
        while payload:
            payload = payload[os.write(result_end, payload) :]
        code = 0
    finally:
        os._exit(code)


def _drain(tickets):
    # the ticket pipe has no write end, so this reads to EOF and never blocks
    while os.read(tickets, 2**16):
        pass
