"""Correctness checks the workloads apply to every timed result.

Each check returns ``None`` when the result is right and a short
problem string otherwise, so :meth:`harness.Run.op` can count it.
"""

from __future__ import annotations

import glob
import importlib.util
import math
import os
from typing import Dict, Optional, Tuple


def predefined_programs() -> Dict[str, str]:
    """The E3 predefined QL library (``benchmarks/bench_e3_querying.py``)."""
    path = os.path.join("benchmarks", "bench_e3_querying.py")
    spec = importlib.util.spec_from_file_location("bench_e3_querying", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.PREDEFINED)


#: one QL request: (program name, translation variant)
VARIANTS = ("direct", "optimized")


def cube_cells(cube) -> Dict[Tuple, Dict[object, object]]:
    """A QL result cube as ``{coordinate: {measure: value}}``."""
    return {key: {measure: cube.value(measure, *key)
                  for measure in cube.measures}
            for key in cube.coordinates()}


def close(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def same_cells(expected: Dict, actual: Dict) -> Optional[str]:
    """Compare two ``{coordinate: {measure: value}}`` maps."""
    if set(expected) != set(actual):
        return (f"{len(set(expected) ^ set(actual))} coordinates differ "
                f"({len(expected)} expected, {len(actual)} got)")
    for key, measures in expected.items():
        got = actual[key]
        if set(measures) != set(got) or not all(
                close(value, got[name]) for name, value in measures.items()):
            return f"cell {key!r}: expected {measures!r}, got {got!r}"
    return None


def table_checksum(table) -> Tuple[str, ...]:
    """An order-free fingerprint of a SPARQL result table."""
    return tuple(sorted(repr(row) for row in table.rows))


def leaked_segments() -> int:
    """Shared-memory segments left once every endpoint and aggregator is
    closed: those still in the program's registry plus any
    ``/dev/shm/<prefix><pid>_*`` file of this process."""
    from repro.rdf.concurrency import SHM_SEGMENTS
    from repro.rdf.shm import SEGMENT_PREFIX

    leaked = len(SHM_SEGMENTS.segment_names())
    if os.path.isdir("/dev/shm"):
        leaked += len(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*"))
    return leaked
