"""The benchmark's three workloads, driven through the public API only.

Each workload builds its inputs from the seed, sets the program up,
calls ``ready()`` (the end of set-up), measures for ``seconds`` and
then closes what it opened and checks the outputs.  ``ready()``
returning ``False`` means the process only measures set-up: the
workload closes at once.

Each graph is the suite's, built with the fixed ``SUITE_SEED`` (one
graph per workload, as in the paper); the run's ``seed`` draws the
sources, the edges removed or deleted and the service's operations:

* ``reinsert-kron``: kron-12 from the suite, k = 128 sources,
  ``REINSERT_POOL_PER_S * seconds`` edges removed and re-inserted one
  at a time (the paper's protocol), serial; the traced run also replays
  the same inputs on a two-process pool (``workers``, see ``run.py``).
* ``delete-smallworld``: the suite's Watts-Strogatz graph (n = 2000),
  k = 64, a stream of deletions of distinct live edges.
* ``service-mix``: kron-10, k = 16, a durable ``BCService`` fed an
  open-loop ``generate_workload`` steady profile.
"""

from __future__ import annotations

import asyncio
import contextlib
import resource
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import checks
from perfbench.trace import Tracer, inclusive_seconds, self_times

# Imported by the child after its import timer started (see child.py).
from repro.bc import DynamicBC
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import DELETE, EdgeEvent, EdgeStream, replay
from repro.graph.suite import make_suite_graph
from repro.resilience.errors import UpdateError
from repro.resilience.wal import scan_wal
from repro.service import BCService, generate_workload
from repro.service.snapshots import SnapshotStore

#: seed of every suite graph: the graph is fixed, the run's seed draws
#: the sources and the events
SUITE_SEED = 0
#: k for the re-insertion workloads
REINSERT_SOURCES = 128
#: k for the deletion workload: at k = 128 a deletion costs about three
#: kron-12 re-insertions and a run held only about 80 samples
DELETE_SOURCES = 64
#: k for the service workload: a batch (mostly one write) takes a median
#: of about 10 ms to apply on the reference host, against 20 ms at k = 32.
#: The part of the visible latency beyond the 50 ms batching window moves
#: with the host's speed; at k = 32 a host phase 13% slower raised
#: visible_p50_ms by 26%
SERVICE_SOURCES = 16
#: removed edges per measured second; about twice what the reference
#: host re-inserts, so a run ends on its deadline, not on its input
REINSERT_POOL_PER_S = 50
#: deletions prepared per measured second (same reasoning)
DELETE_POOL_PER_S = 50
#: offered service write rate (1/s): the apply thread is busy about a
#: tenth of the time, and up to a quarter when the host runs slow, so
#: queueing stays out of the latency figures
SERVICE_WRITE_RATE = 8.0
#: top-k size of every read
TOP_K = 10
#: gpu.* counts are averaged over this fixed prefix of applied updates,
#: so the same seed yields the same exact counts however far a run got
COUNT_PREFIX = 32

Ready = Callable[[Dict], bool]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(tracer: Optional[Tracer], name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


class Outcome:
    """What one measured run saw: latency samples, counts, reports."""

    def __init__(self) -> None:
        self.visible: List[float] = []
        self.ack: List[float] = []
        self.query: List[float] = []
        self.late: List[float] = []
        self.reports: List = []
        self.attempted = 0
        self.failed = 0
        self.first_due = 0.0
        self.last_visible = 0.0
        self.run_start = 0.0
        self.run_end = 0.0
        self.apply_seconds = 0.0
        self.rss_mb = 0.0
        self.problems: List[str] = []
        self.extra: Dict = {}

    @property
    def applied(self) -> int:
        return len(self.reports)


# ----------------------------------------------------------------------
# replay workloads
# ----------------------------------------------------------------------
class ReplayWorkload:
    """Events applied one at a time through ``replay`` in a closed loop:
    each event is due when the previous one (and the read after it) is
    done, and becomes visible when ``replay`` returns.  After each
    applied event one ``top_k`` read runs on the engine, so every round
    is one write and one read."""

    graph_name = ""
    scale = 1.0
    sources = 0
    workers = 1

    def __init__(self, seed: int, seconds: float,
                 tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.engine: Optional[DynamicBC] = None

    def make_events(self, dyn: DynamicGraph, rng) -> List[EdgeEvent]:
        raise NotImplementedError

    def execute(self, ready: Ready) -> Outcome:
        out = Outcome()
        with _span(self.tracer, "graph.build"):
            graph = make_suite_graph(self.graph_name, scale=self.scale,
                                     seed=SUITE_SEED).graph
        inputs_start = time.perf_counter()
        original = checks.edge_set(graph.edge_list())
        dyn = DynamicGraph.from_csr(graph)
        events = self.make_events(dyn, np.random.default_rng(self.seed))
        inputs_s = time.perf_counter() - inputs_start
        try:
            with _span(self.tracer, "bc.initial_state"):
                self.engine = DynamicBC.from_graph(
                    dyn, num_sources=self.sources, seed=self.seed,
                    workers=self.workers,
                )
            if not ready({"inputs_s": inputs_s}):
                return out
            transport0 = self.engine.transport_report()
            self._measure(events, out)
            out.rss_mb = peak_rss_mb()
            out.extra["transport"] = _transport_delta(
                transport0, self.engine.transport_report())
            if self.tracer is not None:
                self.tracer.uninstall()
            engine = self.engine
            sources = engine.sources.copy()
            final_edges = checks.edge_set(engine.graph.snapshot().edge_list())
            bc = engine.bc_scores.copy()
        finally:
            if self.engine is not None:
                self.engine.close()
        expected = self.expected_edges(original, events, out)
        out.problems += checks.edges_match(final_edges, expected)
        out.problems += checks.bc_matches(
            bc, graph.num_vertices, expected, sources)
        out.problems += checks.top_k_sorted(out.extra.pop("tops"))
        return out

    def _measure(self, events: List[EdgeEvent], out: Outcome) -> None:
        engine = self.engine
        applied_events: List[EdgeEvent] = []
        tops = []
        out.run_start = out.first_due = time.perf_counter()
        deadline = out.run_start + self.seconds
        for event in events:
            due = time.perf_counter()
            if due >= deadline:
                break
            out.attempted += 2
            try:
                result = replay(engine, EdgeStream([event]))
            except UpdateError:
                out.failed += 2
                continue
            done = time.perf_counter()
            if result.skipped:
                out.failed += 2
                continue
            out.reports.extend(result.reports)
            out.apply_seconds += result.wall_seconds
            out.visible.append(done - due)
            applied_events.append(event)
            out.last_visible = done
            top = engine.top_k(TOP_K)
            out.query.append(time.perf_counter() - done)
            tops.append(top)
        out.run_end = time.perf_counter()
        # A synchronous call is its own acknowledgement.
        out.ack = list(out.visible)
        out.extra["applied_events"] = applied_events
        out.extra["tops"] = tops

    def expected_edges(self, original, events, out: Outcome):
        raise NotImplementedError


class ReinsertKron(ReplayWorkload):
    """The paper's section IV protocol: remove edges, build the state on
    the reduced graph, re-insert the removed edges one at a time."""

    graph_name = "kron"
    scale = 2.0  # 2048 * 2 = 4096 vertices (kron scale 12)
    sources = REINSERT_SOURCES

    def make_events(self, dyn, rng):
        count = int(REINSERT_POOL_PER_S * self.seconds)
        removed = dyn.remove_random_edges(rng, count)
        return [EdgeEvent(float(i), int(u), int(v))
                for i, (u, v) in enumerate(removed.tolist())]

    def expected_edges(self, original, events, out):
        # Removed edges that were not re-inserted are still missing.
        applied = {(e.u, e.v) for e in out.extra["applied_events"]}
        missing = {checks.key(e.u, e.v) for e in events
                   if (e.u, e.v) not in applied}
        return original - missing


class DeleteSmallworld(ReplayWorkload):
    """Deletions of distinct live edges in random order."""

    graph_name = "small"
    scale = 1.0  # n = 2000, k = 10 neighbours, p = 0.1
    sources = DELETE_SOURCES

    def make_events(self, dyn, rng):
        edges = dyn.snapshot().edge_list()
        count = min(len(edges), int(DELETE_POOL_PER_S * self.seconds))
        picked = edges[rng.permutation(len(edges))[:count]]
        return [EdgeEvent(float(i), int(u), int(v), DELETE)
                for i, (u, v) in enumerate(picked.tolist())]

    def expected_edges(self, original, events, out):
        deleted = {checks.key(e.u, e.v) for e in out.extra["applied_events"]}
        return original - deleted


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
class _ProbeStore(SnapshotStore):
    """A snapshot store that notes when each watermark was published."""

    def __init__(self) -> None:
        super().__init__()
        self.published_at: List[tuple] = []

    def publish_with(self, fill, n, watermark):
        snap = super().publish_with(fill, n, watermark)
        self.published_at.append((time.perf_counter(), int(watermark)))
        return snap


class ServiceMix:
    """Open loop against a durable BCService: every op is issued at its
    due time as its own task, without waiting for earlier ops."""

    def __init__(self, seed: int, seconds: float,
                 tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer

    def make_ops(self, graph):
        """The steady profile truncated after ``W`` writes, its timeline
        scaled so the W-th write is due at ``seconds``: the offered write
        rate is then exactly ``SERVICE_WRITE_RATE``."""
        writes = max(1, round(SERVICE_WRITE_RATE * self.seconds))
        workload = generate_workload(
            graph, "steady", num_ops=3 * writes + 64, read_fraction=0.5,
            delete_fraction=0.3, base_rate=1.0, top_k=TOP_K, seed=self.seed,
        )
        ops, seen = [], 0
        for op in workload.ops:
            ops.append(op)
            seen += isinstance(op, EdgeEvent)
            if seen == writes:
                break
        if seen < writes:
            raise RuntimeError(f"workload holds {seen} of {writes} writes")
        scale = self.seconds / ops[-1].time
        return [(op.time * scale, op) for op in ops]

    def execute(self, ready: Ready) -> Outcome:
        return asyncio.run(self._main(ready))

    async def _main(self, ready: Ready) -> Outcome:
        out = Outcome()
        with _span(self.tracer, "graph.build"):
            graph = make_suite_graph("kron", scale=0.5, seed=SUITE_SEED).graph
        inputs_start = time.perf_counter()
        original = checks.edge_set(graph.edge_list())
        ops = self.make_ops(graph)
        inputs_s = time.perf_counter() - inputs_start
        wal_dir = tempfile.mkdtemp(prefix="perfbench-wal-")
        engine = None
        try:
            with _span(self.tracer, "bc.initial_state"):
                engine = DynamicBC.from_graph(
                    graph, num_sources=SERVICE_SOURCES, seed=self.seed)
            store = _ProbeStore()
            svc = BCService(engine, wal_dir=wal_dir, store=store)
            try:
                svc.start()
                go = ready({"inputs_s": inputs_s})
                if go:
                    record = await self._measure(svc, store, ops, out)
            finally:
                await svc.stop(drain=True)
            if not go:
                return out
            out.rss_mb = peak_rss_mb()
            if self.tracer is not None:
                self.tracer.uninstall()
            sources = engine.sources.copy()
            final_edges = checks.edge_set(engine.graph.snapshot().edge_list())
            bc = engine.bc_scores.copy()
            out.reports = list(svc.core.result.reports)
            out.apply_seconds = svc.core.result.wall_seconds
            out.failed += len(svc.core.result.skipped)
            out.extra["service_stats"] = dict(svc.stats)
            journal = [(s, (e.op, e.u, e.v)) for s, e in scan_wal(wal_dir).events]
        finally:
            if engine is not None:
                engine.close()
            shutil.rmtree(wal_dir, ignore_errors=True)
        out.problems += checks.edges_match(
            final_edges, checks.apply_writes(original, record["submitted"]))
        out.problems += checks.bc_matches(
            bc, graph.num_vertices,
            checks.apply_writes(original, record["submitted"]), sources)
        out.problems += checks.top_k_sorted(record["tops"])
        out.problems += checks.watermarks_monotone(record["watermarks"])
        out.problems += checks.journal_matches(
            journal, record["submitted"], record["acked"])
        return out

    async def _measure(self, svc: BCService, store: _ProbeStore, ops,
                       out: Outcome) -> Dict:
        loop_time = time.perf_counter
        # (op, u, v) in submission order, None where the submit failed
        submitted: List[Optional[tuple]] = []
        acked: Dict[int, tuple] = {}  # seq -> ((op, u, v), due time)
        answers: List[tuple] = []  # (answered at, watermark)
        tops: List[list] = []
        batches: List[tuple] = []  # (apply start, size) when traced
        if self.tracer is not None:
            apply_batch = svc.core.apply_batch

            def probed_apply(batch):
                batches.append((loop_time(), len(batch)))
                return apply_batch(batch)

            svc.core.apply_batch = probed_apply

        async def write(event: EdgeEvent, due: float) -> None:
            index = len(submitted)
            submitted.append((event.op, event.u, event.v))
            try:
                seq = await svc.submit(event)
            except Exception:  # a refused or failed submit is a failed op
                out.failed += 1
                submitted[index] = None
                return
            out.ack.append(loop_time() - due)
            acked[seq] = (submitted[index], due)

        async def read(op, due: float) -> None:
            try:
                if op.kind == "top_k":
                    answer = await svc.query_top_k(op.arg)
                    tops.append(answer["top"])
                else:
                    answer = await svc.query_bc([op.arg])
            except Exception:  # a query error is a failed op
                out.failed += 1
                return
            now = loop_time()
            out.query.append(now - due)
            answers.append((now, answer["watermark"]))

        tasks = []
        start = loop_time() + 0.01
        out.run_start = start
        out.first_due = start + next(offset for offset, op in ops
                                     if isinstance(op, EdgeEvent))
        for offset, op in ops:
            due = start + offset
            delay = due - loop_time()
            if delay > 0:
                await asyncio.sleep(delay)
            out.late.append(max(0.0, loop_time() - due))
            out.attempted += 1
            if isinstance(op, EdgeEvent):
                tasks.append(asyncio.create_task(write(op, due)))
            else:
                tasks.append(asyncio.create_task(read(op, due)))
        await asyncio.gather(*tasks)
        await svc.drain()
        out.run_end = loop_time()
        # The write with journal seq i is visible in the first snapshot
        # whose watermark counts i + 1 events; batches apply seqs in order.
        published = store.published_at
        j = 0
        for seq in sorted(acked):
            while j < len(published) and published[j][1] < seq + 1:
                j += 1
            if j == len(published):
                out.problems.append(f"write {seq} never became visible")
                break
            out.visible.append(published[j][0] - acked[seq][1])
            out.last_visible = published[j][0]
        due_by_seq = [acked[seq][1] for seq in sorted(acked)]
        waits, k = [], 0
        for begun, size in batches:
            waits += [begun - due for due in due_by_seq[k:k + size]]
            k += size
        out.extra["queue_wait"] = waits
        out.extra["batch_sizes"] = [size for _, size in batches]
        return {"submitted": [w for w in submitted if w is not None],
                "acked": {seq: write for seq, (write, _) in acked.items()},
                "tops": tops,
                "watermarks": [w for _, w in sorted(answers)]}


def _transport_delta(before: Dict, after: Dict) -> Dict:
    """Counters the measured phase added to the pool's transport report."""
    return {key: value - before.get(key, 0)
            for key, value in after.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


WORKLOADS = {
    "reinsert-kron": ReinsertKron,
    "delete-smallworld": DeleteSmallworld,
    "service-mix": ServiceMix,
}


# ----------------------------------------------------------------------
# per-layer figures of a traced run
# ----------------------------------------------------------------------
def layer_metrics(out: Outcome, tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures: run-phase times are self milliseconds per
    applied update, counts are per applied update; set-up figures
    (``graph.build_ms``, ``bc.initial_state_ms``,
    ``parallel.pool_start_ms``) are whole span milliseconds."""
    spans = tracer.spans
    selfs, calls = self_times(spans, out.run_start, out.run_end)
    applied = max(1, out.applied)

    def per_update_ms(name: str) -> float:
        return 1000.0 * selfs.get(name, 0.0) / applied

    layers = {
        "graph.build_ms": 1000.0 * inclusive_seconds(spans, "graph.build"),
        "bc.initial_state_ms":
            1000.0 * inclusive_seconds(spans, "bc.initial_state"),
        "parallel.pool_start_ms":
            1000.0 * inclusive_seconds(spans, "parallel.pool_start",
                                       out.run_start),
        "graph.frontier_calls": calls.get("graph.frontier", 0) / applied,
    }
    for name in ("graph.mutate", "graph.frontier", "bc.classify", "bc.case2",
                 "bc.case3", "bc.rebuild", "bc.static_trace",
                 "gpu.accounting", "resilience.txn",
                 "resilience.wal_append", "resilience.wal_sync",
                 "service.apply_batch", "service.publish"):
        layers[name + "_ms"] = per_update_ms(name)
    queries = calls.get("service.query", 0)
    layers["service.query_ms"] = (
        1000.0 * selfs.get("service.query", 0.0) / queries if queries else 0.0)
    # Per-source case mix, from the applied reports: Case 1 same level,
    # 2 adjacent level, 3 distant level (a row rebuild on a deletion).
    case_counts = np.zeros(3)
    rebuilds = 0
    for report in out.reports:
        hist = np.bincount(np.asarray(report.cases, dtype=np.int64),
                           minlength=4)[1:4]
        if report.operation == DELETE:
            rebuilds += int(hist[2])
            hist[2] = 0
        case_counts += hist
    layers["bc.case1_sources"] = case_counts[0] / applied
    layers["bc.case2_sources"] = case_counts[1] / applied
    layers["bc.case3_sources"] = case_counts[2] / applied
    layers["bc.rebuild_sources"] = rebuilds / applied
    prefix = out.reports[:COUNT_PREFIX]
    size = max(1, len(prefix))
    layers["gpu.sim_us"] = 1e6 * sum(r.simulated_seconds for r in prefix) / size
    layers["gpu.work_items"] = sum(r.counters.work_items for r in prefix) / size
    layers["gpu.bytes_moved"] = sum(r.counters.bytes_moved for r in prefix) / size
    stats = out.extra.get("service_stats", {})
    syncs = stats.get("wal_syncs", 0)
    layers["resilience.records_per_sync"] = (
        stats.get("wal_appends", 0) / syncs if syncs else 0.0)
    transport = out.extra.get("transport", {})
    layers["parallel.dispatch_ms"] = (
        1000.0 * transport.get("dispatch_seconds", 0.0) / applied)
    layers["parallel.decode_ms"] = (
        1000.0 * transport.get("decode_seconds", 0.0) / applied)
    layers["parallel.fold_ms"] = (
        1000.0 * transport.get("fold_seconds", 0.0) / applied)
    layers["parallel.chunks"] = transport.get("chunks", 0) / applied
    layers["parallel.slab_bytes"] = transport.get("slab_bytes", 0) / applied
    waits = out.extra.get("queue_wait", [])
    layers["service.queue_wait_ms"] = (
        1000.0 * float(np.mean(waits)) if waits else 0.0)
    sizes = out.extra.get("batch_sizes", [])
    layers["service.batch_size"] = float(np.mean(sizes)) if sizes else 0.0
    layers["bench.generator_late_ms"] = (
        1000.0 * float(np.percentile(out.late, 99)) if out.late else 0.0)
    return layers
