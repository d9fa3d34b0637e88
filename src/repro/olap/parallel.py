"""Parallel evaluation of QL pipelines over a shared fact snapshot.

The morsel-driven idea of :mod:`repro.sparql.parallel`, carried up to
the star schema: the parent exports one compressed
:class:`~repro.olap.star.FactColumns` generation into shared memory
(through the same refcounted :data:`~repro.rdf.concurrency.
SHM_SEGMENTS` registry the SPARQL executor uses, so lifetime rules are
identical), and worker processes map the narrowed dimension-code and
measure columns **zero-copy**.  The aggregation itself is the kernel
of :mod:`repro.olap.engine`, which the serial
:class:`~repro.olap.engine.NativeOLAPEngine` runs as one in-process
morsel: here the parent compiles the program, each worker runs
:func:`~repro.olap.engine.partials` over a contiguous fact-row morsel,
and the parent runs :func:`~repro.olap.engine.merge` and
:func:`~repro.olap.engine.cells` — so both engines share every
semantic rule, including the empty-group one.

What travels in each task is deliberately small: the shm manifest, a
row range and the compiled plan (roll-up maps, aggregate keywords and
dices pre-evaluated into per-member ``member_ok`` arrays — one entry
per member, not per fact).  The heavy per-fact columns never cross the
process boundary.

Worker-side code (``_worker_*`` here, ``partials`` in the engine)
obeys the same shared-nothing contract as the SPARQL workers, enforced
by the ``parallel-safety`` lint rule: it touches only the mapped
arrays and the shipped task — never the live star schema, endpoint, or
parent-side registries.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdf import shm
from repro.rdf.concurrency import SHM_SEGMENTS
from repro.ql.simplifier import SimplifiedProgram
from repro.olap.engine import (
    NativeResult,
    OLAPEngineError,
    Partials,
    StarPlan,
    cells,
    compile,
    fact_views,
    merge,
    partials,
)
from repro.olap.star import FactColumns, StarSchema

__all__ = ["FACT_MORSEL_ROWS", "ParallelStarAggregator"]

#: Default fact rows per worker task.
FACT_MORSEL_ROWS = 16384

#: Process-wide name sequence: segment names must be unique per pid.
_SEGMENT_SEQ = itertools.count(1)


def _segment_name() -> str:
    return f"{shm.SEGMENT_PREFIX}{os.getpid()}_facts{next(_SEGMENT_SEQ)}"


# ---------------------------------------------------------------------------
# worker side (shared-nothing: see the parallel-safety lint rule)
# ---------------------------------------------------------------------------

#: Per-worker attach cache: segment name -> (handle, mapped views).
#: Pruned to the current task's segment each run so stale fact
#: generations do not pin dead segments in long-lived workers.
_WORKER_FACTS: Dict[str, Tuple[object, Dict[str, np.ndarray]]] = {}


def _worker_facts(manifest: shm.ArraysManifest) -> Dict[str, np.ndarray]:
    for name in list(_WORKER_FACTS):
        if name != manifest.segment:
            del _WORKER_FACTS[name]
    cached = _WORKER_FACTS.get(manifest.segment)
    if cached is None:
        cached = shm.attach_arrays(manifest)
        _WORKER_FACTS[manifest.segment] = cached
    return cached[1]


def _worker_partials(task: Tuple[shm.ArraysManifest, int, int, StarPlan]
                     ) -> Partials:
    """One fact morsel: the kernel's partials over the mapped columns."""
    manifest, lo, hi, plan = task
    return partials(_worker_facts(manifest), lo, hi, plan)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class ParallelStarAggregator:
    """Evaluates simplified QL programs across a worker pool, reading
    facts from one pinned shared-memory :class:`FactColumns` snapshot.

    It runs the kernel :class:`~repro.olap.engine.NativeOLAPEngine`
    runs, so keep/drop rules, typed errors and empty-group cells are
    the same by construction; only the fact scan is fanned out.
    """

    def __init__(self, star: StarSchema, workers: int = 4,
                 morsel_rows: int = FACT_MORSEL_ROWS) -> None:
        self.star = star
        self.workers = max(1, int(workers))
        self.morsel_rows = max(1, int(morsel_rows))
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._columns: Optional[FactColumns] = None
        self._pinned: Optional[Tuple[object, ...]] = None
        self.telemetry: Dict[str, int] = {"queries": 0, "morsels": 0}

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                context = multiprocessing.get_context("spawn")
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context)
            return self._pool

    def _pin_export(self) -> Tuple[Tuple[object, ...], shm.ArraysManifest]:
        """Pin (exporting on first sight) the fact snapshot; one
        segment per aggregator per star epoch, refcounted by the
        registry.  Every pin is matched by an ``unpin`` when the query
        finishes; :meth:`close` retires the key afterwards."""
        key = ("facts", id(self), self.star.epoch)

        def build() -> Tuple[object, Sequence[object]]:
            columns = self.star.fact_columns()
            segment, manifest = shm.export_arrays(
                fact_views(columns), _segment_name(), epoch=columns.epoch)
            return (manifest, columns), (segment,)

        manifest, columns = SHM_SEGMENTS.pin_or_export(key, build)
        with self._lock:
            self._columns = columns
            self._pinned = key
        return key, manifest

    def close(self) -> None:
        """Shut the pool down and retire the fact segment.  Idempotent;
        afterwards no segment exported by this aggregator remains
        (provided no query is still running)."""
        with self._lock:
            pool, self._pool = self._pool, None
            pinned, self._pinned = self._pinned, None
            self._columns = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if pinned is not None:
            SHM_SEGMENTS.retire(pinned)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, program: SimplifiedProgram) -> NativeResult:
        """Evaluate ``program`` across the pool; cell-identical to the
        serial engine (float associativity aside)."""
        started = time.perf_counter()
        plan = compile(self.star, program)
        key, manifest = self._pin_export()
        try:
            payloads = self._run(plan, manifest)
        finally:
            SHM_SEGMENTS.unpin(key)
        return cells(plan, self.star, merge(plan, payloads), started)

    def _run(self, plan: StarPlan, manifest: shm.ArraysManifest
             ) -> List[Partials]:
        """The kernel's partials of every morsel, in row order."""
        columns = self._columns
        if columns is None:
            raise OLAPEngineError("fact snapshot vanished mid-query "
                                  "(close() raced evaluate())")
        # at least one morsel, so a scalar query over zero facts still
        # gets its one (empty) group from the kernel
        tasks = [(manifest, lo, min(lo + self.morsel_rows, columns.rows),
                  plan)
                 for lo in range(0, max(columns.rows, 1), self.morsel_rows)]
        self.telemetry["queries"] += 1
        self.telemetry["morsels"] += len(tasks)
        pool = self._ensure_pool()
        try:
            return list(pool.map(_worker_partials, tasks))
        except BrokenProcessPool:
            with self._lock:
                pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            raise OLAPEngineError(
                "parallel OLAP worker died mid-morsel; the pool will be "
                "rebuilt for the next query") from None

    def describe(self, program: SimplifiedProgram) -> str:
        """The EXPLAIN-style fan-out line for ``program``."""
        n = self.star.facts.size
        morsels = (n + self.morsel_rows - 1) // self.morsel_rows
        measures = sorted(
            (program.state.measures if program.state else []),
            key=lambda iri: iri.value)
        spec = ",".join(
            f"{self.star.measure_aggregates.get(iri, 'SUM')}"
            f"({iri.local_name()})" for iri in measures)
        return (f"parallel-olap: workers={self.workers} morsels={morsels} "
                f"facts={n} epoch={self.star.epoch} agg={spec}")

    def __repr__(self) -> str:
        return (f"<ParallelStarAggregator workers={self.workers} "
                f"morsel_rows={self.morsel_rows} "
                f"queries={self.telemetry['queries']}>")
