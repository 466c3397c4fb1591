"""Leave no process behind: adopt orphans, stop helpers, reap children.

The shard tier starts worker processes and, through
``multiprocessing.shared_memory``, a ``resource_tracker`` process that
outlives the interpreter that started it unless it is stopped and waited
for.  A benchmark run starts set-up probes, each with its own worker
and tracker.  :func:`adopt_orphans` makes this process the child
subreaper of everything it starts, so descendants whose parent exits
are reparented here rather than to the caller; :func:`stop_all` then
stops the tracker and ends and reaps every remaining child.  Both are
Linux-only and do nothing elsewhere.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the child subreaper of its descendants."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        return False


def children() -> list[int]:
    """Pids of this process's children, zombies included."""
    pids = []
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                pids += [int(p) for p in fh.read().split()]
    except OSError:  # pragma: no cover - no /proc
        pass
    return pids


def _stop_resource_tracker() -> None:
    """Close the tracker's pipe and wait for it to unlink and exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_all(grace_s: float = 5.0) -> bool:
    """Stop the resource tracker, then end and wait for every child.

    Children get SIGTERM, then SIGKILL after ``grace_s``; the loop runs
    until none is left, so orphans reparented here while it runs are
    reaped too.  Returns False if some child outlived four times
    ``grace_s`` (one stuck in the kernel).
    """
    _stop_resource_tracker()
    start = time.monotonic()
    sig = signal.SIGTERM
    while True:
        _reap()
        pids = children()
        if not pids:
            return True
        waited = time.monotonic() - start
        if waited > 4 * grace_s:
            return False
        if waited > grace_s:
            sig = signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.02)
