"""``agg_scan``: the aggregation layer on a 100k-observation star cube.

The cube has the shape of ``benchmarks/check_olap.py::build_cube`` (one
graph; 240 cities rolling up to 24 regions; one SUM measure); the
seed draws each observation's city and amount.  One operation is one
request of a cycled mix:

a. grouped and scalar SUM/COUNT/AVG/MIN/MAX SPARQL texts, serialized
   with ``results_to_json``, on a ``parallel=2`` endpoint;
b. the same texts on a serial endpoint over the same dataset;
c. one row-returning SELECT the aggregate pushdown declines, on both;
d. roll-up and dice QL programs through ``NativeOLAPEngine`` and
   ``ParallelStarAggregator(workers=2)`` over the extracted star.

Set-up builds the cube, extracts the star schema, starts both worker
pools and runs every parallel request once (checked against numpy over
the drawn coordinates, as are the native engine's cells).  In the
loop the first serial answer of each text is checked against numpy and
every later answer, parallel or serial, must reproduce its checksum;
every aggregate on the parallel endpoint must engage the pushdown, and
the star aggregator's cells must equal the native engine's.  After the
loop both pools are closed and no shared-memory segment may remain, in
the registry or under ``/dev/shm``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from checks import table_checksum
from harness import Run, median, tail

OBSERVATIONS = 100_000
CITIES = 240
REGIONS = 24
WORKERS = 2
SETUPS = 2

EX = "http://example.org/bench/olap/"

#: part (a)/(b): aggregate texts the parallel executor pushes down
AGGREGATES = {
    "sum_avg_by_city": f"""
        SELECT ?c (SUM(?v) AS ?total) (AVG(?v) AS ?mean) WHERE {{
            ?o <{EX}city> ?c . ?o <{EX}amount> ?v
        }} GROUP BY ?c""",
    "count_min_max_by_city": f"""
        SELECT ?c (COUNT(?v) AS ?n) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)
        WHERE {{ ?o <{EX}city> ?c . ?o <{EX}amount> ?v }} GROUP BY ?c""",
    "scalar": f"""
        SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?total) (MIN(?v) AS ?lo)
               (MAX(?v) AS ?hi) (AVG(?v) AS ?mean)
        WHERE {{ ?o <{EX}amount> ?v }}""",
}
#: part (a) requests per part (b) request: the served path is sampled
#: more often than the serial baseline
PARALLEL_PER_SERIAL = 4
#: part (d): the dice keeps regions whose SUM exceeds this (about half)
DICE_ABOVE = 2_080_000
#: part (c): rows, not groups, so the aggregate pushdown declines
ROWS = f"""
    SELECT ?o ?v WHERE {{ ?o <{EX}city> <{EX}city7> . ?o <{EX}amount> ?v }}"""


class State:
    def __init__(self, endpoint, serial, parallel, aggregator, native,
                 programs, oracle):
        self.endpoint = endpoint
        self.serial = serial
        self.parallel = parallel
        self.aggregator = aggregator
        self.native = native
        #: name -> simplified QL program (part d)
        self.programs = programs
        #: request name -> expected values (numpy over the generated
        #: coordinates) or, for part (d), the native engine's cells
        self.oracle = oracle
        #: request name -> checksum of its first serial answer, which
        #: every later answer on either endpoint must reproduce
        self.checksums: Dict[str, Tuple[str, ...]] = {}

    def executors(self) -> List[object]:
        return [self.parallel.parallel_executor]

    def close(self) -> None:
        self.aggregator.close()
        for endpoint in (self.parallel, self.serial, self.endpoint):
            endpoint.close()

    def describe(self) -> Dict[str, object]:
        return {"observations": OBSERVATIONS,
                "triples": len(self.endpoint.dataset),
                "workers": WORKERS}


def build_cube(seed: int):
    """The schema, triples and drawn coordinates of a seeded
    single-graph star cube shaped like check_olap's."""
    import numpy as np

    from repro.qb import vocabulary as qb
    from repro.qb4olap import vocabulary as qb4o
    from repro.qb4olap.model import (
        CubeSchema, Dimension, Hierarchy, HierarchyStep, Measure)
    from repro.rdf.namespace import SKOS
    from repro.rdf.terms import IRI, Literal

    def ns(name: str) -> IRI:
        return IRI(EX + name)

    schema = CubeSchema(dsd=ns("dsd"), dataset=ns("ds"))
    hierarchy = Hierarchy(ns("geoHier"), ns("geoDim"),
                          levels=[ns("city"), ns("region")],
                          steps=[HierarchyStep(ns("city"), ns("region"))])
    schema.dimensions.append(Dimension(ns("geoDim"), [hierarchy]))
    schema.dimension_levels[ns("geoDim")] = ns("city")
    schema.measures.append(Measure(ns("amount"), qb4o.SUM))

    rng = np.random.default_rng(seed)
    city_of = rng.integers(0, CITIES, OBSERVATIONS)
    amount_of = rng.integers(0, 1000, OBSERVATIONS)
    cities = [ns(f"city{k}") for k in range(CITIES)]
    regions = [ns(f"region{k}") for k in range(REGIONS)]
    amounts = [Literal(value) for value in range(1000)]
    city_predicate, amount_predicate = ns("city"), ns("amount")
    rows = []
    for k, city in enumerate(cities):
        rows.append((city, qb4o.memberOf, ns("city")))
        rows.append((city, SKOS.broader, regions[k % REGIONS]))
    for region in regions:
        rows.append((region, qb4o.memberOf, ns("region")))
    for i, (city, amount) in enumerate(zip(city_of.tolist(),
                                           amount_of.tolist())):
        obs = ns(f"obs{i}")
        rows.append((obs, qb.dataSet, ns("ds")))
        rows.append((obs, city_predicate, cities[city]))
        rows.append((obs, amount_predicate, amounts[amount]))
    return schema, rows, city_of, amount_of


def expected_answers(city_of, amount_of) -> Dict[str, Dict]:
    """What each SPARQL text must return, computed with numpy from the
    drawn coordinates: ``{key values: measure values}``."""
    import numpy as np

    counts = np.bincount(city_of, minlength=CITIES)
    sums = np.bincount(city_of, weights=amount_of, minlength=CITIES)
    low = np.full(CITIES, np.inf)
    high = np.full(CITIES, -np.inf)
    np.minimum.at(low, city_of, amount_of)
    np.maximum.at(high, city_of, amount_of)
    cities = [k for k in range(CITIES) if counts[k]]
    city7 = np.flatnonzero(city_of == 7)
    return {
        "sum_avg_by_city": {
            (f"{EX}city{k}",): (sums[k], sums[k] / counts[k])
            for k in cities},
        "count_min_max_by_city": {
            (f"{EX}city{k}",): (counts[k], low[k], high[k])
            for k in cities},
        "scalar": {(): (len(amount_of), amount_of.sum(), amount_of.min(),
                        amount_of.max(), amount_of.mean())},
        "rows": {(f"{EX}obs{i}",): (amount_of[i],) for i in city7.tolist()},
    }


def expected_regions(city_of, amount_of) -> Dict[str, float]:
    import numpy as np

    sums = np.bincount(np.asarray(city_of) % REGIONS, weights=amount_of,
                       minlength=REGIONS)
    return {f"{EX}region{k}": float(total) for k, total in enumerate(sums)}


def setup(seed: int, tracer) -> State:
    from repro.olap import NativeOLAPEngine, extract_star_schema
    from repro.olap.parallel import ParallelStarAggregator
    from repro.ql import QLBuilder, measure, simplify
    from repro.rdf.terms import IRI
    from repro.sparql.endpoint import LocalEndpoint

    with tracer.paused():
        schema, rows, city_of, amount_of = build_cube(seed)
        oracle = expected_answers(city_of, amount_of)
        regions = expected_regions(city_of, amount_of)
    endpoint = LocalEndpoint()
    graph = endpoint.dataset.default
    graph.add_all(rows)
    graph.compact()
    with tracer.span("olap.etl"):
        star, _ = extract_star_schema(endpoint, schema)
    serial = LocalEndpoint(endpoint.dataset)
    parallel = LocalEndpoint(endpoint.dataset, parallel=WORKERS)
    aggregator = ParallelStarAggregator(star, workers=WORKERS)
    native = NativeOLAPEngine(star)
    amount = IRI(EX + "amount")
    by_region = QLBuilder(schema.dataset).rollup(IRI(EX + "geoDim"),
                                                 IRI(EX + "region"))
    programs = {
        "rollup_region": simplify(by_region.build(), schema),
        "dice_region": simplify(
            by_region.dice(measure(amount) > DICE_ABOVE).build(), schema),
    }
    state = State(endpoint, serial, parallel, aggregator, native, programs,
                  oracle)
    # warm-up: spawn the pools, export the snapshots, fill the caches
    for name, text in {**AGGREGATES, "rows": ROWS}.items():
        problem = check_values(state, name, parallel.select(text))
        if problem:
            raise RuntimeError(f"warm-up {name}: {problem}")
    for name, program in programs.items():
        cells = native.evaluate(program).cells
        got = {key[0].value: values[amount] for key, values in cells.items()}
        want = {region: total for region, total in regions.items()
                if name == "rollup_region" or total > DICE_ABOVE}
        if not same_numbers({k: (v,) for k, v in want.items()},
                            {k: (v,) for k, v in got.items()}):
            raise RuntimeError(f"warm-up {name}: native cells are wrong")
        state.oracle[name] = cells
        aggregator.evaluate(program)
    return state


def same_numbers(expected: Dict, actual: Dict) -> bool:
    return set(expected) == set(actual) and all(
        len(values) == len(actual[key]) and all(
            math.isclose(float(want), float(got), rel_tol=1e-9,
                         abs_tol=1e-9)
            for want, got in zip(values, actual[key]))
        for key, values in expected.items())


def check_values(state: State, name: str, table) -> Optional[str]:
    """The answer's values against the numpy oracle."""
    width = 0 if name == "scalar" else 1
    actual = {tuple(term.value for term in row[:width]):
              tuple(term.value for term in row[width:])
              for row in table.rows}
    if len(actual) != len(table.rows) or \
            not same_numbers(state.oracle[name], actual):
        return f"{name}: answer differs from the numpy oracle"
    return None


def check_answer(state: State, name: str, table) -> Optional[str]:
    """The first serial answer of a text is checked against the oracle
    and becomes the checksum every later answer must reproduce."""
    checksum = table_checksum(table)
    expected = state.checksums.get(name)
    if expected is None:
        problem = check_values(state, name, table)
        if problem:
            return problem
        state.checksums[name] = checksum
    elif checksum != expected:
        return f"{name}: answer differs from the first serial answer"
    return None


def same_cells(expected: Dict, actual: Dict) -> bool:
    """Native-engine cells: the same coordinates, measures and values."""
    return set(expected) == set(actual) and all(
        set(expected[key]) == set(actual[key]) and same_numbers(
            {None: tuple(expected[key].values())},
            {None: tuple(actual[key][m] for m in expected[key])})
        for key in expected)


def cycle(state: State, run: Run) -> None:
    from repro.sparql.serializers import results_to_json

    tracer = run.tracer
    executor = state.parallel.parallel_executor

    def answered(endpoint, text):
        def call():
            table = endpoint.select(text)
            with tracer.span("sparql.serialize"):
                document = results_to_json(table)
            return table, document
        return call

    for name, text in AGGREGATES.items():
        run.op("sparql.serial", answered(state.serial, text),
               lambda result, name=name: check_answer(state, name,
                                                      result[0]),
               label=name)
        for _ in range(PARALLEL_PER_SERIAL):
            pushed = executor.telemetry["agg_pushdown"]

            def pushed_down(result, name=name, pushed=pushed):
                if executor.telemetry["agg_pushdown"] != pushed + 1:
                    return (f"{name}: aggregate pushdown did not engage "
                            f"({executor.last_decline})")
                return check_answer(state, name, result[0])

            run.op("sparql.parallel", answered(state.parallel, text),
                   pushed_down, label=name)
    for kind, endpoint in (("rows.serial", state.serial),
                           ("rows.parallel", state.parallel)):
        run.op(kind, answered(endpoint, ROWS),
               lambda result: check_answer(state, "rows", result[0]),
               label="rows")
    for name, program in state.programs.items():
        expected = state.oracle[name]
        for kind, engine in (("olap.native", state.native),
                             ("olap.parallel", state.aggregator)):
            run.op(kind, lambda: engine.evaluate(program),
                   lambda result: None if same_cells(expected, result.cells)
                   else f"{name}: cells differ from the native engine",
                   label=name)


def end_to_end(state: State, run: Run, raw: bool) -> Dict[str, float]:
    parallel = run.values("sparql.parallel", raw=raw)
    serial = run.values("sparql.serial", raw=raw)
    p_tail, p_pct, p_count = tail(parallel)
    s_tail, s_pct, s_count = tail(serial)
    return {
        "p50_ms": median(parallel),
        "tail_ms": p_tail,
        "alt_p50_ms": median(serial),
        "sparql_parallel_p50_ms": median(parallel),
        "sparql_parallel_tail_ms": p_tail,
        "sparql_parallel_tail_percentile": p_pct,
        "sparql_parallel_samples": p_count,
        "sparql_serial_p50_ms": median(serial),
        "sparql_serial_tail_ms": s_tail,
        "sparql_serial_tail_percentile": s_pct,
        "sparql_serial_samples": s_count,
        "rows_parallel_p50_ms": median(run.values("rows.parallel", raw=raw)),
        "rows_serial_p50_ms": median(run.values("rows.serial", raw=raw)),
        "olap_native_p50_ms": median(run.values("olap.native", raw=raw)),
        "olap_parallel_p50_ms": median(run.values("olap.parallel", raw=raw)),
    }


def facts(state: State, tracer, requests: set) -> List[str]:
    executor = state.parallel.parallel_executor
    return [f"parallel executor telemetry after the run: "
            f"{dict(executor.telemetry)}"]
