"""The one fork protocol of a run, shared by the snapshot writers of
runner and the psi' partner of evolution.

cpus() says how many processes a job may use, and so whether it may
fork at all.  start(body, *args) forks a child that runs body(*args)
and always ends the process with os._exit: code 0 once the body
returns, 1 after its traceback.  So a child never flushes buffers it
inherited, runs no atexit handler and never unwinds into the frames it
was forked from; stdout and stderr are flushed before the fork, so
nothing buffered there is written twice.  reap(pids) waits for every
child, and the caller calls it on every path, after a failure too.
"""

import os
import signal
import sys
import threading


def cpus() -> int:
    """The number of processes a job may use: the CPUs in this process's
    affinity set, or 1 where os.fork or os.sched_getaffinity is missing
    or a second Python thread runs, since a fork keeps only the calling
    thread."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() != 1:
        return 1
    return len(os.sched_getaffinity(0))


def start(body, *args) -> int:
    """Flush stdout and stderr, fork, and return the child's pid.  The
    child runs body(*args) and ends with os._exit: 0 once body returns,
    1 after printing the traceback of whatever it raised."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        try:
            body(*args)
            code = 0
        except BaseException:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
    finally:
        os._exit(code)


def reap(pids, kill: bool = False) -> int:
    """Wait for every child in pids, sending each SIGKILL first if kill
    is set, and return how many did not exit with code 0."""
    failed = 0
    for pid in pids:
        if kill:
            os.kill(pid, signal.SIGKILL)
        failed += os.waitpid(pid, 0)[1] != 0
    return failed
