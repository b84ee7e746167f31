"""One benchmark process: set up a workload, measure it, check it.

Started by ``run.py`` as ``python3 -m perfbench.child`` from the root
of the checkout, with ``src`` on ``PYTHONPATH``.  It prints two
protocol lines on standard output: ``PERFBENCH-READY {...}`` the
moment set-up ends (the parent times set-up from its own clock) and
``PERFBENCH-RESULT {...}`` at the end.  Everything it opened is closed
before the result line, and it reports any thread or child process
still alive at that point.  The name of every shared-memory segment it
or its forked workers create is appended to the ``--shm-log`` file, so
``run.py`` checks exactly those segments after the process exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
import time

READY = "PERFBENCH-READY "
RESULT = "PERFBENCH-RESULT "


def tail(values):
    """``(value, percentile, samples)`` of the highest percentile with
    at least ten samples beyond it (the maximum below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summary(values):
    value, pct, n = tail(values)
    return {"p50": statistics.median(values), "tail": value,
            "tail_pct": pct, "samples": n}


def processes():
    """``(pid, parent pid, session id, command line)`` of every process
    that can be read under /proc."""
    table = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue  # exited while we looked
        table.append((int(entry), int(fields[1]), int(fields[3]), cmdline))
    return table


def leftovers():
    """Threads and child processes this process still has."""
    problems = []
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread()]
    if threads:
        problems.append(f"threads still alive at exit: {threads}")
    # multiprocessing's resource tracker lives until this process exits;
    # run.py checks that it is gone afterwards.
    kids = [pid for pid, ppid, _, cmdline in processes()
            if ppid == os.getpid() and b"resource_tracker" not in cmdline]
    if kids:
        problems.append(f"child processes still alive at exit: {kids}")
    return problems


def record_shm(path: str) -> None:
    """Append the name of every shared-memory segment created from now
    on, in this process or a process forked from it, to *path*."""
    from multiprocessing import shared_memory

    init = shared_memory.SharedMemory.__init__

    def recording_init(self, name=None, create=False, size=0, **kwargs):
        init(self, name, create, size, **kwargs)
        if create:
            with open(path, "a") as fh:
                fh.write(self.name + "\n")

    shared_memory.SharedMemory.__init__ = recording_init


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "setup"), required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--shm-log", required=True)
    parser.add_argument("--workers", type=int, default=0,
                        help="pool width of a replay workload "
                             "(0: the workload's own)")
    args = parser.parse_args()

    record_shm(args.shm_log)
    start = time.perf_counter()
    import numpy

    from perfbench import workloads
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace_file:
        from perfbench.trace import Tracer

        tracer = Tracer()
        tracer.install()

    def ready(info):
        info["import_s"] = import_s
        print(READY + json.dumps(info), flush=True)
        return args.mode == "run"

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                  tracer)
    if args.workers:
        workload.workers = args.workers
    out = workload.execute(ready)
    if tracer is not None:
        tracer.uninstall()
    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "problems": out.problems + leftovers(),
    }
    if args.mode == "run":
        span = out.last_visible - out.first_due
        result.update(
            attempted=out.attempted,
            failed=out.failed,
            applied=out.applied,
            updates_per_s=out.applied / span if span > 0 else 0.0,
            apply_s_per_update=out.apply_seconds / max(1, out.applied),
            peak_rss_mb=out.rss_mb,
            visible=summary(out.visible),
            ack=summary(out.ack),
            query=summary(out.query),
        )
        if tracer is not None:
            result["layers"] = workloads.layer_metrics(out, tracer)
            result["layers"]["repro.import_ms"] = 1000.0 * import_s
            result["spans"] = len(tracer.spans)
            tracer.write(args.trace_file)
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
