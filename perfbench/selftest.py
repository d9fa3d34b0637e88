"""Negative controls for the benchmark's correctness accounting.

A perturbed result must be counted as failed, a typed endpoint error
must be counted (not crash the run), a correct result must not be
counted, and a shared-memory segment left behind must be found.  Run
from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.abspath("src")]

from checks import (cube_cells, leaked_segments, same_cells,  # noqa: E402
                    table_checksum)
from harness import Run, tail  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run() -> Run:
    from repro.sparql.errors import EndpointError
    return Run(Tracer(), (EndpointError,))


def _perturbed(cells):
    key = sorted(cells, key=repr)[0]
    measure = sorted(cells[key], key=repr)[0]
    changed = {k: dict(v) for k, v in cells.items()}
    changed[key][measure] = changed[key][measure] + 1
    return changed


def test_perturbed_cube_counts_as_failed():
    from repro.demo import MARY_QL, prepare_enriched_demo

    demo = prepare_enriched_demo(observations=200, small=True)
    reference = cube_cells(demo.engine.execute(MARY_QL).cube)
    assert reference, "the control needs a non-empty cube"
    run = _run()
    run.op("ql", lambda: demo.engine.execute(MARY_QL),
           lambda result: same_cells(reference, cube_cells(result.cube)))
    assert (run.attempted, run.failed) == (1, 0)
    run.op("ql", lambda: demo.engine.execute(MARY_QL),
           lambda result: same_cells(_perturbed(reference),
                                     cube_cells(result.cube)))
    assert (run.attempted, run.failed) == (2, 1)
    assert run.ok_share == 0.5


def test_perturbed_table_counts_as_failed():
    from repro.sparql.endpoint import LocalEndpoint

    endpoint = LocalEndpoint()
    endpoint.update("""INSERT DATA {
        <urn:a> <urn:v> 1 . <urn:b> <urn:v> 2 . }""")
    query = "SELECT ?s ?v WHERE { ?s <urn:v> ?v }"
    reference = table_checksum(endpoint.select(query))
    run = _run()
    run.op("sparql", lambda: endpoint.select(query),
           lambda table: None if table_checksum(table) == reference
           else "differs")
    table = endpoint.select(query)
    table.rows = table.rows[:-1]  # one row lost
    run.op("sparql", lambda: table,
           lambda table: None if table_checksum(table) == reference
           else "differs")
    assert (run.attempted, run.failed) == (2, 1)


def test_typed_error_counts_as_failed():
    from repro.sparql.endpoint import LocalEndpoint

    run = _run()
    # select() of an ASK query raises the typed EndpointError
    result = run.op("sparql", lambda: LocalEndpoint().select("ASK {}"))
    assert result is None
    assert (run.attempted, run.failed) == (1, 1)
    assert not run.values("sparql")  # a failed request has no latency


def test_leaked_segment_is_counted():
    from multiprocessing import shared_memory

    from repro.rdf.shm import SEGMENT_PREFIX

    before = leaked_segments()
    segment = shared_memory.SharedMemory(
        name=f"{SEGMENT_PREFIX}{os.getpid()}_selftest", create=True, size=16)
    try:
        assert leaked_segments() == before + 1
    finally:
        segment.close()
        segment.unlink()
    assert leaked_segments() == before


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    value, percentile, count = tail(values)
    assert (value, count) == (90.0, 100)
    assert sum(1 for v in values if v > value) == 10
    assert percentile == 90.0
    assert tail([3.0, 1.0, 2.0])[:2] == (3.0, 100.0)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok {name}")
