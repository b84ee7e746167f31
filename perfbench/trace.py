"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions of the program from the outside: each
target is replaced at the name its caller looks it up (a module global
the caller imported, or a class attribute) by a wrapper that records a
span ``(name, start, end, parent)``.  Nothing under ``src/`` is edited.
Spans live in memory until :meth:`Tracer.write` stores them at the end
of the run; :func:`self_times` derives each span's self time as its
duration minus the time covered by its child spans.

Every span belongs to a layer, the part of its name before the first
dot (``"bc.case2"`` -> ``bc``), and the layer names are the package's
module names.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

# (module, attribute path, span name).  The attribute path is where the
# caller looks the function up: ``engine.adjacent_level_update`` is the
# name DynamicBC calls; ``CSRGraph.frontier_arcs`` is a class attribute
# every kernel reaches through the graph object.  ``CostModel.step_seconds``
# is left unwrapped: it runs once per simulated step inside
# ``trace_seconds``/``stage_breakdown``, whose spans cover it, and a span
# per step would cost more than the step.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.dynamic", "DynamicGraph.insert_edge", "graph.mutate"),
    ("repro.graph.dynamic", "DynamicGraph.delete_edge", "graph.mutate"),
    ("repro.graph.dynamic", "DynamicGraph.snapshot", "graph.mutate"),
    ("repro.graph.csr", "CSRGraph.frontier_arcs", "graph.frontier"),
    ("repro.bc.engine", "classify_insertions_batch", "bc.classify"),
    ("repro.bc.engine", "classify_deletions_batch", "bc.classify"),
    ("repro.bc.engine", "adjacent_level_update", "bc.case2"),
    ("repro.bc.engine", "distant_level_update", "bc.case3"),
    ("repro.bc.engine", "single_source_state", "bc.rebuild"),
    ("repro.bc.engine", "trace_static_source", "bc.static_trace"),
    ("repro.bc.engine", "schedule_blocks", "gpu.accounting"),
    ("repro.gpu.costmodel", "CostModel.trace_seconds", "gpu.accounting"),
    ("repro.gpu.costmodel", "CostModel.stage_breakdown", "gpu.accounting"),
    ("repro.gpu.counters", "KernelCounters.absorb", "gpu.accounting"),
    ("repro.resilience.transactions", "UpdateTransaction.__init__",
     "resilience.txn"),
    ("repro.resilience.transactions", "UpdateTransaction.save_row",
     "resilience.txn"),
    ("repro.resilience.wal", "WriteAheadLog.append", "resilience.wal_append"),
    ("repro.resilience.wal", "WriteAheadLog.sync", "resilience.wal_sync"),
    ("repro.parallel.supervisor", "SupervisedPool.__init__",
     "parallel.pool_start"),
    ("repro.service.core", "ServiceCore.apply_batch", "service.apply_batch"),
    ("repro.service.core", "ServiceCore.publish", "service.publish"),
    ("repro.service.service", "BCService.query_top_k", "service.query"),
    ("repro.service.service", "BCService.query_bc", "service.query"),
)

#: one recorded span: (id, name, start, end, parent id or -1, thread id)
Span = Tuple[int, str, float, float, int, int]


class Tracer:
    """Records spans from wrapped functions and from ``span()`` blocks.

    Each thread keeps its own stack of open spans, so a span opened on
    the service's apply thread is never the parent of one on the event
    loop.  Appending to a list is atomic under the interpreter lock.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, int, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            (sid, name, start, end, parent, threading.get_ident())
        )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A ``with`` block recorded as one span (used by the benchmark
        around the calls it makes into a layer itself)."""
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, sid, parent, start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return *fn* wrapped so that each call records a span."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid, parent, start = self._open()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(name, sid, parent, start)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target in :data:`TARGETS`."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        """Restore every patched name (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Store the spans as ``id,name,start,end,parent,thread`` CSV."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},"
                         f"{thread}\n")


def self_times(spans: List[Span], since: float = float("-inf"),
               until: float = float("inf")
               ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per span name: summed self seconds and call count, over the spans
    that start inside ``[since, until)``.

    A span's self time is its duration minus the durations of its direct
    children; since children nest inside their parent on one thread,
    that is the part of the interval no child span covers.
    """
    child_seconds: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for sid, name, start, end, _, _ in spans:
        if since <= start < until:
            totals[name] += (end - start) - child_seconds.get(sid, 0.0)
            counts[name] += 1
    return dict(totals), dict(counts)


def inclusive_seconds(spans: List[Span], name: str,
                      until: float = float("inf")) -> float:
    """Summed duration of the *name* spans that start before *until*."""
    return sum(end - start for _, n, start, end, _, _ in spans
               if n == name and start < until)

