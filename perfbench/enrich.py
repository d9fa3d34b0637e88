"""``enrich``: the Enrichment module on freshly loaded, un-enriched cubes.

One operation is one pass: ``normalize_endpoint`` → ``check_graph``
(default policy) on the QB graph → ``redefine`` → ``auto_enrich``
(Mary's preferences plus ``politicalOrganization``, as
``repro.demo.enrich`` does) → ``generate``.  After the first pass of
each size in a cycle, each E3 program runs once per translation
variant: the first (cold) QL executions after the pass's writes, each
timed as an operation of its own.

A cycle is two passes on the large cube (20k observations) with one on
the small cube between them (200 observations, so its QB graph stays
within the 2000-triple limit under which ``check_graph`` runs the
pairwise IC-12 and IC-17).  A single large pass varies by about 6% from
one to the next even after speed scaling, so a run takes the median of
two; the second repeats only the pass, not the cold QL executions.  On the small cube the QB graph is also normalized in place before
the check, as ``repro validate --ic-suite`` does: without the
``qb:componentProperty`` links, IC-12 finds a "duplicate" pair at once
and never does its pairwise work.  At 20k that extra normalization
would add IC-11 and IC-14 scans (about 18 s), so the large pass checks
the QB graph as loaded.

Every pass starts from a fresh endpoint loaded from base graphs built
at set-up; that reset is neither timed nor traced.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from checks import VARIANTS, cube_cells, predefined_programs, same_cells
from harness import Run, median, tail

SIZES = {"large": 20_000, "small": 200}
#: the size of each pass of one cycle, in order
PASSES = ("large", "small", "large")
SETUPS = 2


class State:
    def __init__(self, bases, programs):
        #: size -> (observations, QB graph, reference graph)
        self.bases = bases
        self.programs: Dict[str, str] = programs
        #: size -> (generated triples, IC verdicts, cold-QL cells) of
        #: the first pass of that size in this run
        self.first: Dict[str, Tuple] = {}

    def close(self) -> None:
        """Nothing outlives a pass."""

    def describe(self) -> Dict[str, object]:
        return {size: {"observations": observations,
                       "qb_triples": len(qb),
                       "triples": len(qb) + len(reference)}
                for size, (observations, qb, reference)
                in self.bases.items()}


def setup(seed: int, tracer) -> State:
    """Generate the base graphs of both cubes for ``seed``, and load the
    modules a pass uses so the first timed pass does not import them."""
    import repro.demo  # noqa: F401
    import repro.qb.constraints  # noqa: F401
    import repro.qb.normalize  # noqa: F401
    from repro.data.eurostat import GeneratorConfig, build_qb_graph
    from repro.data.loader import small_demo_config
    from repro.data.reference import ReferenceConfig, build_reference_graph

    bases = {}
    with tracer.paused():
        config = GeneratorConfig(observations=SIZES["large"], seed=seed)
        bases["large"] = (SIZES["large"], build_qb_graph(config),
                          build_reference_graph(ReferenceConfig()))
        config = small_demo_config(SIZES["small"], seed)
        bases["small"] = (SIZES["small"], build_qb_graph(config),
                          build_reference_graph(ReferenceConfig(
                              citizenship=config.citizenship,
                              destinations=config.destinations)))
    return State(bases, predefined_programs())


def fresh_endpoint(state: State, size: str):
    """A new endpoint holding the un-enriched cube, as the demo loader
    lays it out (QB graph + reference graph)."""
    from repro.data.namespaces import DEMO_PREFIXES, QB_GRAPH, \
        REFERENCE_GRAPH
    from repro.sparql.endpoint import LocalEndpoint

    _, qb, reference = state.bases[size]
    endpoint = LocalEndpoint()
    for prefix, namespace in DEMO_PREFIXES.items():
        endpoint.dataset.namespace_manager.bind(prefix, namespace)
    endpoint.insert_triples(qb, graph=QB_GRAPH)
    endpoint.insert_triples(reference, graph=REFERENCE_GRAPH)
    return endpoint


def enrichment_pass(endpoint, size: str, observations: int, run: Run):
    from repro.data.eurostat import DATASET_IRI, DSD_IRI
    from repro.data.loader import DemoData
    from repro.data.namespaces import QB_GRAPH
    from repro.demo import enrich
    from repro.qb.constraints import check_graph
    from repro.qb.normalize import normalize_endpoint, normalize_graph

    tracer = run.tracer
    with tracer.span("qb.normalize"):
        normalize_endpoint(endpoint)
        if size == "small":
            normalize_graph(endpoint.graph(QB_GRAPH))
    with tracer.span("qb.check"):
        report = check_graph(endpoint.graph(QB_GRAPH))
    demo = enrich(DemoData(endpoint=endpoint, dataset=DATASET_IRI,
                           dsd=DSD_IRI, observations=observations))
    return report, demo


class Oracle:
    """The same programs on ``NativeOLAPEngine`` over the star schema of
    an enriched endpoint (extracted on first use)."""

    def __init__(self, demo) -> None:
        self.demo = demo
        self.engine = None

    def check(self, text: str, cube) -> Optional[str]:
        from repro.olap import NativeOLAPEngine, compare_results, \
            extract_star_schema
        from repro.ql import parse_ql, simplify

        demo = self.demo
        if self.engine is None:
            self.engine = NativeOLAPEngine(
                extract_star_schema(demo.endpoint, demo.schema)[0])
        outcome = compare_results(cube, self.engine.evaluate(
            simplify(parse_ql(text), demo.schema)))
        return None if outcome.equal else outcome.explain()


def verify_pass(state: State, size: str, outcome) -> Optional[str]:
    report, demo = outcome
    generated = demo.generation
    count = (generated.schema_triples + generated.membership_triples
             + generated.rollup_triples + generated.attribute_triples)
    verdicts = (tuple(sorted(report.results.items())),
                tuple(report.skipped))
    if size == "small" and not {"IC-12", "IC-17"} <= set(report.results):
        return f"IC-12/IC-17 did not run (skipped {report.skipped})"
    first = state.first.setdefault(size, (count, verdicts))
    if (count, verdicts) != first[:2]:
        return (f"pass differs from the first {size} pass: "
                f"{count} generated triples vs {first[0]}, "
                f"verdicts {verdicts} vs {first[1]}")
    return None


def cycle(state: State, run: Run) -> None:
    tracer = run.tracer
    queried = set()
    for size in PASSES:
        observations = state.bases[size][0]
        with tracer.paused():
            endpoint = fresh_endpoint(state, size)
        outcome = run.op(
            f"pass.{size}",
            lambda: enrichment_pass(endpoint, size, observations, run),
            lambda result: verify_pass(state, size, result),
            label=size)
        if outcome is None or size in queried:
            continue
        queried.add(size)
        # the first cold round of a size is checked against the native
        # engine; every later round must reproduce its cells
        demo, first, cells = outcome[1], state.first[size], {}
        oracle = Oracle(demo) if len(first) == 2 else None
        for name, text in sorted(state.programs.items()):
            for variant in VARIANTS:
                key = (name, variant)

                def check(result) -> Optional[str]:
                    if oracle is not None:
                        return oracle.check(text, result.cube)
                    if key not in first[2]:
                        return "the first pass has no result to compare"
                    return same_cells(first[2][key], cube_cells(result.cube))

                result = run.op(
                    f"ql_cold.{size}",
                    lambda: demo.engine.execute(text, variant=variant),
                    check, label=size)
                if result is not None:
                    cells[key] = cube_cells(result.cube)
        if oracle is not None:
            state.first[size] = first + (cells,)


def end_to_end(state: State, run: Run, raw: bool) -> Dict[str, float]:
    cold = run.values("ql_cold.large", raw=raw)
    value, percentile, count = tail(cold)
    large = median(run.values("pass.large", raw=raw))
    small = median(run.values("pass.small", raw=raw))
    return {
        "p50_ms": median(cold),
        "tail_ms": value,
        "alt_p50_ms": small,
        "work_s": large / 1000.0,
        "enrich_large_s": large / 1000.0,
        "enrich_small_s": small / 1000.0,
        "ql_cold_p50_ms": median(cold),
        "ql_cold_tail_ms": value,
        "ql_cold_tail_percentile": percentile,
        "ql_cold_samples": count,
        "ql_cold_small_p50_ms": median(run.values("ql_cold.small",
                                                  raw=raw)),
    }


def facts(state: State, tracer, requests: set) -> List[str]:
    """The numbers this benchmark was sized from, per pass size."""
    lines = []
    for size in ("large", "small"):
        passes = {r for r in requests
                  if tracer.requests[r] == (f"pass.{size}", size)}
        if not passes:
            continue
        spans = tracer.totals(passes)

        def inclusive(name: str) -> float:
            return spans.get(name, (0, 0.0, 0.0))[2] / len(passes)

        check = inclusive("qb.check")
        lines.append(
            f"{size} pass ({state.bases[size][0]} observations): "
            f"qb.check {check:.3f} s, IC-1 {inclusive('qb.ic.IC-1'):.3f} s "
            f"({100.0 * inclusive('qb.ic.IC-1') / max(check, 1e-12):.1f}% "
            f"of the check), IC-12 {inclusive('qb.ic.IC-12'):.3f} s, "
            f"IC-17 {inclusive('qb.ic.IC-17'):.3f} s, "
            f"rdf.probe.calls {tracer.counter('rdf.probe.calls', passes) / len(passes):.0f} "
            f"per pass")
    return lines
