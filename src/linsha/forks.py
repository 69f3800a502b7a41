"""Blocks of work run side by side in forked children of the calling process.

Both numpy strands split their work this way: the Monte Carlo its chunks
of trials, the ISD chain the weighing of its batches of information sets.  The calling process
runs the last block itself and one os.fork child runs each other block, so
with one block nothing is forked.  Callers make at most one block per
usable CPU, so on one CPU nothing is forked.

fork, not spawn: a fresh interpreter would import numpy again and could not
start from what the caller already holds (the ISD chain's ring of batches
in shared memory, and the pipes that pass its slots).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Sequence


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (taskset, cgroup cpusets), else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked(work: Callable[[Any], Any], blocks: Sequence[Any]) -> list[Any]:
    """work(block) for each block, in order.  The caller runs the last block
    itself; each other block runs in a child, which writes its result as
    JSON, or its error text, to a pipe and always leaves through os._exit.
    A child writes all of its text however long it is, and the caller reads
    each pipe to its end, so a child's result comes back as the JSON value
    of what work returned (tuples as lists); the caller's own is returned
    as is.  Every child is reaped, also when the caller's own block raises;
    then a child that failed or died without a result raises RuntimeError.
    """
    children = []
    try:
        for block in blocks[:-1]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 2              # exit code when no report could be written
                try:
                    try:
                        text, done = json.dumps(work(block)), 0
                    except BaseException as exc:    # reported to the caller, which raises
                        text, done = f"{type(exc).__name__}: {exc}", 1
                    data = memoryview(text.encode())
                    while data:
                        data = data[os.write(write_end, data):]
                    status = done
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end))
        own = work(blocks[-1])
    finally:
        reports = []
        for pid, read_end in children:
            # replace: a child that died mid-write may leave a character cut
            with open(read_end, encoding="utf-8", errors="replace") as pipe:
                text = pipe.read()
            reports.append((pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), text))
    for pid, code, text in reports:
        if code == 1:
            raise RuntimeError(f"forked child {pid} failed: {text}")
        if code != 0:
            raise RuntimeError(f"forked child {pid} died without a result (exit code {code})")
    return [json.loads(text) for _, _, text in reports] + [own]
