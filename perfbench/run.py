#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reinsert-kron --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; the run and its set-up
happen in fresh processes (``perfbench/child.py``) and set-up is timed
``SETUP_SAMPLES`` times.  ``--trace 1`` runs the same workload and seed
twice more, untraced and traced, and prints the per-layer metrics of
the traced process plus the tracing overhead.  On ``POOL_WORKLOAD`` it
also runs the same inputs traced on a ``POOL_WORKERS``-process pool and
takes the ``parallel.*`` figures from that process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (host and its speed, versions, commit, seed,
sample counts).
The run fails (exit code 1) when an output check fails or when a child
process, thread, shared-memory segment or temporary directory outlives
the process that created it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

from child import READY, RESULT, processes

ROOT = os.getcwd()
#: set-up is timed in this many fresh processes and the median reported
SETUP_SAMPLES = 3
#: time a measuring process may take beyond ``--seconds``: set-up,
#: closing and the output checks
MEASURE_ALLOWANCE_S = 35.0
#: time a set-up-only process may take
SETUP_ALLOWANCE_S = 20.0
#: how long a session may take to empty after its leader exits
GROUP_EXIT_S = 5.0
SHM_DIR = "/dev/shm"
#: the workload whose traced run also measures the pool layer: as a
#: workload of its own, a pool run on a two-core host measured the
#: scheduler (see README.md)
POOL_WORKLOAD = "reinsert-kron"
POOL_WORKERS = 2


class RunFailure(RuntimeError):
    """A child process failed, timed out or left something behind."""


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def _session_pids(sid: int):
    return [pid for pid, _, session, _ in processes() if session == sid]


def budget_s(args) -> float:
    """How long all the processes of one run may take together."""
    if args.trace:
        measuring = 3 if args.workload == POOL_WORKLOAD else 2
        return measuring * (args.seconds + MEASURE_ALLOWANCE_S)
    return (args.seconds + MEASURE_ALLOWANCE_S
            + (SETUP_SAMPLES - 1) * SETUP_ALLOWANCE_S)


def _lines(proc, deadline):
    """Yield ``(line, perf_counter at arrival)`` from the child's stdout
    until it closes; raise :class:`TimeoutError` at *deadline*."""
    fd = proc.stdout.fileno()
    buffer = b""
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("child process ran out of time")
            if not selector.select(left):
                continue
            chunk = os.read(fd, 1 << 16)
            arrived = time.perf_counter()
            if not chunk:
                return
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                yield line.decode(), arrived


def run_child(args, mode, deadline, trace_file=None, workers=0):
    """Run one child process; returns ``(setup seconds, result)``.
    Whatever the outcome, the child's session, the shared-memory
    segments it created and its temporary directory are checked and
    removed before this returns."""
    tmp = os.path.join(ROOT, ".perfbench", "tmp", f"{os.getpid()}-{mode}")
    os.makedirs(tmp, exist_ok=True)
    shm_log = tmp + ".shm"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=tmp)
    cmd = [sys.executable, "-m", "perfbench.child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--shm-log", shm_log]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if workers:
        cmd += ["--workers", str(workers)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    ready_at = ready = result = None
    problems = []
    try:
        for line, arrived in _lines(proc, deadline):
            if line.startswith(READY):
                ready_at, ready = arrived, json.loads(line[len(READY):])
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                print(line, file=sys.stderr)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (TimeoutError, subprocess.TimeoutExpired) as exc:
        problems.append(f"{mode} process: {exc}")
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        problems += _sweep(proc.pid, tmp, shm_log)
    if proc.returncode != 0:
        problems.append(f"{mode} process exited with {proc.returncode}")
    if ready is None or result is None:
        problems.append(f"{mode} process printed no "
                        f"{'ready' if ready is None else 'result'} line")
    if problems:
        raise RunFailure("; ".join(problems))
    return ready_at - started - ready["inputs_s"], result


def _sweep(sid, tmp, shm_log):
    """Problems with what the child left behind, after removing it.
    Only the segments the child's session recorded in *shm_log* are
    looked at; other processes' segments are never touched."""
    problems = []
    give_up = time.monotonic() + GROUP_EXIT_S
    while _session_pids(sid) and time.monotonic() < give_up:
        time.sleep(0.05)
    stragglers = _session_pids(sid)
    if stragglers:
        problems.append(f"processes outlived the run: {stragglers}")
        for pid in stragglers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    created = []
    if os.path.exists(shm_log):
        with open(shm_log) as fh:
            created = fh.read().split()
        os.unlink(shm_log)
    segments = sorted(name for name in set(created)
                      if os.path.exists(os.path.join(SHM_DIR, name)))
    if segments:
        problems.append(f"shared-memory segments left behind: {segments}")
        for name in segments:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except FileNotFoundError:
                pass
    left = os.listdir(tmp)
    if left:
        problems.append(f"temporary files left behind: {left}")
    shutil.rmtree(tmp, ignore_errors=True)
    return problems


# ----------------------------------------------------------------------
# run record
# ----------------------------------------------------------------------
def _commit():
    """The git commit when the checkout is a repository, plus a digest
    of ``src/`` that identifies the code either way."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return commit, digest.hexdigest()[:16]


def host_probe_ms() -> float:
    """Median time in ms of a fixed pure-Python loop, timed for about a
    second: how fast the host runs as the run starts.  Set-up, update
    rate and latency all move with it when the host's speed drifts."""
    times = []
    end = time.perf_counter() + 1.0
    while time.perf_counter() < end:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


def _trace_file(args, suffix=""):
    return os.path.join(ROOT, ".perfbench",
                        f"trace-{args.workload}{suffix}-{args.seed}.csv")


def end_to_end(result, setups):
    """Every end-to-end figure of one untraced run, by metric name."""
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "updates_per_s": result["updates_per_s"],
        "visible_p50_ms": 1000.0 * result["visible"]["p50"],
    }


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def with_units(values, section):
    """The metrics BENCHMARK.json lists in *section*, with their units;
    a listed metric the run did not produce fails the run."""
    listed = benchmark()[section]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RunFailure(f"run produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + budget_s(args)
    commit, src_digest = _commit()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "commit": commit, "src_sha256": src_digest,
        "host_probe_ms": host_probe_ms(),
    }
    try:
        if args.trace:
            _, plain = run_child(args, "run", deadline)
            trace_file = _trace_file(args)
            _, result = run_child(args, "run", deadline, trace_file)
            layers = dict(result["layers"])
            layers["bench.trace_overhead_pct"] = 100.0 * (
                result["apply_s_per_update"] / plain["apply_s_per_update"]
                - 1.0)
            record.update(trace_file=os.path.relpath(trace_file, ROOT),
                          spans=result["spans"])
            problems = plain["problems"] + result["problems"]
            if args.workload == POOL_WORKLOAD:
                pool_trace = _trace_file(args, f"-w{POOL_WORKERS}")
                _, pooled = run_child(args, "run", deadline, pool_trace,
                                      POOL_WORKERS)
                layers.update((name, value)
                              for name, value in pooled["layers"].items()
                              if name.startswith("parallel."))
                record.update(pool_trace_file=os.path.relpath(pool_trace,
                                                              ROOT),
                              pool_updates_per_s=pooled["updates_per_s"])
                problems += pooled["problems"]
            metrics = with_units(layers, "per_layer")
        else:
            setup_s, result = run_child(args, "run", deadline)
            setups, problems = [setup_s], list(result["problems"])
            for _ in range(SETUP_SAMPLES - 1):
                setup_s, setup_only = run_child(args, "setup", deadline)
                setups.append(setup_s)
                problems += setup_only["problems"]
            metrics = with_units(end_to_end(result, setups), "end_to_end")
            record["setup_samples_s"] = setups
    except RunFailure as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    record.update(
        python=result["python"], numpy=result["numpy"],
        applied=result["applied"],
        latency_ms={key: {"p50": 1000.0 * result[key]["p50"],
                          "tail": 1000.0 * result[key]["tail"],
                          "tail_pct": result[key]["tail_pct"],
                          "samples": result[key]["samples"]}
                    for key in ("visible", "ack", "query")},
        problems=problems,
    )
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
