"""``ql_session``: an analyst's warm QL session on the enriched demo cube.

One operation is ``QLEngine.execute`` of one program of the E3
predefined library (five programs, ``direct`` and ``optimized``
translations), cycled on the default serial endpoint, read-only.

Set-up generates and loads the 20k-observation demo cube for the seed,
runs the demo enrichment, extracts the star schema, and executes every
request once.  Those first results are the reference: each is checked
against ``NativeOLAPEngine`` through ``olap.compare.compare_results``,
and every timed execution must reproduce its reference cells.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from checks import VARIANTS, cube_cells, predefined_programs, same_cells
from harness import Run, median, tail

OBSERVATIONS = 20_000
SETUPS = 2


class State:
    def __init__(self, demo, requests, reference):
        self.demo = demo
        #: the cycled requests: (program name, QL text, variant)
        self.requests: List[Tuple[str, str, str]] = requests
        #: (program name, variant) -> reference cells
        self.reference: Dict[Tuple[str, str], Dict] = reference

    def close(self) -> None:
        self.demo.endpoint.close()

    def describe(self) -> Dict[str, object]:
        from repro.data.namespaces import QB_GRAPH
        endpoint = self.demo.endpoint
        return {"observations": OBSERVATIONS,
                "qb_triples": len(endpoint.graph(QB_GRAPH)),
                "triples": len(endpoint.dataset)}


def setup(seed: int, tracer) -> State:
    from repro.data import build_demo_endpoint
    from repro.demo import enrich
    from repro.olap import NativeOLAPEngine, compare_results, \
        extract_star_schema
    from repro.ql import parse_ql, simplify

    with tracer.paused():
        demo_data = build_demo_endpoint(observations=OBSERVATIONS, seed=seed)
    demo = enrich(demo_data)
    with tracer.span("olap.etl"):
        star, _ = extract_star_schema(demo.endpoint, demo.schema)
    engine = NativeOLAPEngine(star)
    requests, reference = [], {}
    for name, text in sorted(predefined_programs().items()):
        expected = engine.evaluate(simplify(parse_ql(text), demo.schema))
        for variant in VARIANTS:
            result = demo.engine.execute(text, variant=variant)
            outcome = compare_results(result.cube, expected)
            if not outcome.equal:
                raise RuntimeError(
                    f"reference {name}/{variant} disagrees with the native "
                    f"engine: {outcome.explain()}")
            reference[(name, variant)] = cube_cells(result.cube)
            requests.append((name, text, variant))
    return State(demo, requests, reference)


def cycle(state: State, run: Run) -> None:
    execute = state.demo.engine.execute
    for name, text, variant in state.requests:
        expected = state.reference[(name, variant)]
        run.op(f"ql.{variant}",
               lambda: execute(text, variant=variant),
               lambda result: same_cells(expected, cube_cells(result.cube)),
               label=f"{name}/{variant}")


def end_to_end(state: State, run: Run, raw: bool) -> Dict[str, float]:
    """Generic slots first, then the same numbers under their own names."""
    direct = run.values("ql.direct", raw=raw)
    ql = direct + run.values("ql.optimized", raw=raw)
    value, percentile, count = tail(ql)
    return {
        "p50_ms": median(ql),
        "tail_ms": value,
        "alt_p50_ms": median(direct),
        "ql_p50_ms": median(ql),
        "ql_tail_ms": value,
        "ql_tail_percentile": percentile,
        "ql_samples": count,
        "ql_direct_p50_ms": median(direct),
    }


def facts(state: State, tracer, requests: set) -> List[str]:
    """The loop runs on the serial endpoint, so the parallel executor
    never engages; offer each E3 translation once to a ``parallel=2``
    endpoint over the same dataset to record why it would not."""
    from repro.sparql.endpoint import LocalEndpoint

    endpoint = LocalEndpoint(state.demo.endpoint.dataset, parallel=2)
    lines = []
    try:
        executor = endpoint.parallel_executor
        for name, text, variant in state.requests:
            translation = state.demo.engine.prepare(text)[3]
            before = dict(executor.telemetry)
            endpoint.select(getattr(translation, variant))
            engaged = executor.telemetry["queries"] - before["queries"]
            lines.append(f"parallel=2 probe {name}/{variant}: "
                         + ("engaged" if engaged else
                            f"declined ({executor.last_decline})"))
    finally:
        endpoint.close()
    return lines
