"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files: :func:`install`
replaces the public entry point of each layer, where its caller looks
it up, with a wrapper that records a span (name, start, end, parent
span, request id) around the call.  Spans stay in memory and are
written out as JSON when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  A per-layer metric is the self time
(or a count) summed over the measured loop and divided by the number
of operations the loop ran.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: where spans go when the run ends (inside the checkout, git-ignored)
TRACE_DIR = ".perfbench_out"


class Tracer:
    """In-memory span and counter recorder for one run."""

    def __init__(self) -> None:
        self.enabled = False
        #: one row per span: [name, start, end, parent, request]
        self.spans: List[list] = []
        #: request id -> (operation kind, label) of the timed operation
        self.requests: Dict[int, Tuple[str, str]] = {0: ("setup", "")}
        self.request = 0
        #: (request id, counter) -> count
        self.counts: Dict[Tuple[int, str], int] = defaultdict(int)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           stack[-1] if stack else -1, self.request])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def inside(self, name: str) -> bool:
        """True when the innermost open span of this thread is ``name``."""
        stack = self._stack()
        return bool(stack) and self.spans[stack[-1]][0] == name

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, counter: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[(self.request, counter)] += amount

    def start_request(self, kind: str, label: str = "") -> None:
        self.request = len(self.requests)
        self.requests[self.request] = (kind, label)

    def end_request(self) -> None:
        self.request = 0

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (test-data generation, resets)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             after: Optional[Callable[[tuple, object], None]] = None
             ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``;
        ``after(args, result)`` may count what the call did."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else
                           getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its children cover."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, row in enumerate(self.spans):
            if row[3] >= 0:
                children[row[3]].append(index)
        result = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for child in sorted(children.get(index, ()),
                                key=lambda i: self.spans[i][1]):
                c_start = max(self.spans[child][1], cursor)
                c_end = min(self.spans[child][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result.append(max(end - start - covered, 0.0))
        return result

    def totals(self, requests: set) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds) over the
        spans of ``requests`` (request 0 holds set-up and anything else
        outside a timed operation)."""
        own = self.self_times()
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, request) in enumerate(self.spans):
            if request not in requests:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += own[index]
            entry[2] += end - start
        return {name: (int(c), s, i) for name, (c, s, i) in out.items()}

    def counter(self, counter: str, requests: set) -> int:
        return sum(amount for (request, name), amount in self.counts.items()
                   if name == counter and request in requests)

    def write(self, workload: str, seed: int) -> str:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace_{workload}_{seed}.json")
        names = sorted({row[0] for row in self.spans})
        code = {name: position for position, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": workload, "seed": seed,
                "columns": ["name", "start_us", "end_us", "parent",
                            "request"],
                "names": names,
                "requests": {str(r): list(v)
                             for r, v in self.requests.items()},
                "spans": [[code[name], round(start * 1e6, 1),
                           round(end * 1e6, 1), parent, request]
                          for name, start, end, parent, request
                          in self.spans],
            }, handle, separators=(",", ":"))
        return path


def _bound(pattern) -> bool:
    """A probe: the subject or the object is bound."""
    return pattern[0] is not None or pattern[2] is not None


def _counting(tracer: Tracer):
    def counted(rows):
        """Pass rows through, counting them for the request that
        started the scan (also when the consumer stops early)."""
        request, pulled = tracer.request, 0
        try:
            for row in rows:
                pulled += 1
                yield row
        finally:
            tracer.counts[(request, "rdf.id_scan.calls")] += 1
            tracer.counts[(request, "rdf.id_scan.rows")] += pulled
            tracer.counts[(request, "rdf.examined")] += pulled
    return counted


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are taken at.

    Each entry point is replaced where its caller looks it up (a
    module global or a class attribute), so the program runs unchanged
    apart from the recording.
    """
    import repro.ql.executor as ql_executor
    import repro.qb.constraints as qb_constraints
    import repro.rdf.shm as rdf_shm
    import repro.sparql.endpoint as sparql_endpoint
    import repro.sparql.evaluator as sparql_evaluator
    import repro.sparql.parallel as sparql_parallel
    from repro.enrichment.session import EnrichmentSession
    from repro.olap.engine import NativeOLAPEngine
    from repro.olap.parallel import ParallelStarAggregator
    from repro.rdf.concurrency import CONCURRENCY
    from repro.rdf.graph import Dataset, Graph, UnionView

    # repro.ql — the Querying-module phases, as QLEngine calls them
    tracer.wrap(ql_executor, "parse_ql", "ql.parse")
    tracer.wrap(ql_executor, "simplify_with_report", "ql.simplify")
    tracer.wrap(ql_executor, "translate", "ql.translate")
    tracer.wrap(ql_executor, "ResultCube", "ql.cube")

    # repro.sparql — parse (endpoint + IC suite), plan, evaluate; the
    # endpoint's parse-cache verdict is read from endpoint.statistics
    tracer.wrap(sparql_endpoint, "parse_query", "sparql.parse")
    original_parsed = sparql_endpoint.LocalEndpoint.__dict__["_parsed"]

    @functools.wraps(original_parsed)
    def parsed(self, query_text):
        hits = self.statistics.parse_cache_hits
        misses = self.statistics.parse_cache_misses
        query = original_parsed(self, query_text)
        tracer.count("sparql.parse_cache.hits",
                     self.statistics.parse_cache_hits - hits)
        tracer.count("sparql.parse_cache.misses",
                     self.statistics.parse_cache_misses - misses)
        return query

    tracer.replace(sparql_endpoint.LocalEndpoint, "_parsed", parsed)
    tracer.wrap(qb_constraints, "parse_query", "sparql.parse")
    from repro.sparql.optimizer import PLAN_CACHE

    def planned(original):
        @functools.wraps(original)
        def get_plan(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            hits, misses = PLAN_CACHE.hits, PLAN_CACHE.misses
            index = tracer.begin("sparql.plan")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)
                tracer.count("sparql.plan_cache.hits", PLAN_CACHE.hits - hits)
                tracer.count("sparql.plan_cache.misses",
                             PLAN_CACHE.misses - misses)
        return get_plan

    for module in (sparql_evaluator, sparql_parallel):
        tracer.replace(module, "get_plan", planned(module.get_plan))

    def select_rows(_args, table) -> None:
        tracer.count("sparql.result_rows", len(table))

    for module in (sparql_endpoint, sparql_evaluator):
        tracer.wrap(module, "evaluate_select", "sparql.select",
                    after=select_rows)
        tracer.wrap(module, "evaluate_ask", "sparql.ask")

    # repro.rdf — probes (drained inside the span), scans, writes,
    # compaction, snapshots, shared-memory exports
    _counted = _counting(tracer)
    for owner in (Graph, UnionView):
        original_ids = owner.__dict__["triples_ids"]

        def triples_ids(self, *args, _original=original_ids,
                        _member=owner is Graph, **kwargs):
            pattern = args[0] if args else kwargs.get("pattern")
            if not tracer.enabled or tracer.inside("rdf.probe"):
                return _original(self, *args, **kwargs)
            if pattern is None or not _bound(pattern):
                # a lazy range scan, counted where a member graph
                # serves it (a union view delegates to its members)
                result = _original(self, *args, **kwargs)
                return _counted(result) if _member else result
            index = tracer.begin("rdf.probe")
            try:
                rows = list(_original(self, *args, **kwargs))
            finally:
                tracer.end(index)
            tracer.count("rdf.probe.calls")
            tracer.count("rdf.examined", len(rows))
            return iter(rows)

        tracer.replace(owner, "triples_ids", triples_ids)

    def scanned(_args, arrays) -> None:
        tracer.count("rdf.scan.calls")
        rows = 0 if arrays is None else len(arrays[0])
        tracer.count("rdf.scan.rows", rows)
        tracer.count("rdf.examined", rows)

    tracer.wrap(Graph, "match_arrays", "rdf.scan", after=scanned)

    def insert_counted(original):
        def insert(self, *args, **kwargs):
            if not tracer.enabled or tracer.inside("rdf.insert"):
                return original(self, *args, **kwargs)
            before = len(self)
            index = tracer.begin("rdf.insert")
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.end(index)
                tracer.count("rdf.insert.triples", len(self) - before)
        return functools.wraps(original)(insert)

    for attr in ("add", "add_all"):
        tracer.replace(Graph, attr, insert_counted(Graph.__dict__[attr]))
    tracer.wrap(Graph, "_compact", "rdf.compact")
    tracer.wrap(Dataset, "snapshot", "rdf.snapshot")
    # the storage tier reports compactions and copy-on-write copies to
    # CONCURRENCY; count them for the request that caused them
    telemetry = type(CONCURRENCY)
    for attr, counter in (("record_compaction", "rdf.compact.calls"),
                          ("record_cow_copy", "rdf.cow_copies")):
        def recorded(self, _original=telemetry.__dict__[attr],
                     _counter=counter):
            tracer.count(_counter)
            return _original(self)
        tracer.replace(telemetry, attr, recorded)
    for attr in ("export_columns", "export_arrays", "export_terms"):
        tracer.wrap(rdf_shm, attr, "rdf.shm.export")

    # repro.olap — the two star-schema engines
    tracer.wrap(NativeOLAPEngine, "evaluate", "olap.native")
    tracer.wrap(ParallelStarAggregator, "evaluate", "olap.parallel")

    # repro.qb — one span per integrity constraint, named by its IC
    original_check = qb_constraints.check_constraint

    @functools.wraps(original_check)
    def check_constraint(graph, check):
        with tracer.span(f"qb.ic.{check.ic}"):
            return original_check(graph, check)

    tracer.replace(qb_constraints, "check_constraint", check_constraint)

    # repro.enrichment — the session phases the demo enrichment runs
    tracer.wrap(EnrichmentSession, "redefine", "enrichment.redefine")
    tracer.wrap(EnrichmentSession, "suggestions", "enrichment.discover")
    tracer.wrap(EnrichmentSession, "auto_enrich", "enrichment.enrich")
    tracer.wrap(EnrichmentSession, "generate", "enrichment.generate")
