"""Parallel star aggregation: serial/parallel equivalence on one
pinned shared-memory fact snapshot, morsel-size fuzz, lifecycle and
segment hygiene."""

import math
import random

import numpy as np
import pytest

from repro.data.namespaces import REF_PROP, SCHEMA
from repro.demo import CONTINENT_LEVEL, QUARTER_LEVEL, YEAR_LEVEL
from repro.qb4olap import vocabulary as qb4o
from repro.qb4olap.model import CubeSchema, Dimension, Hierarchy, \
    HierarchyStep, Measure
from repro.rdf import Literal, Namespace
from repro.rdf.concurrency import SHM_SEGMENTS
from repro.rdf.namespace import SDMX_MEASURE
from repro.ql import QLBuilder, all_of, any_of, attr, measure, negate, \
    simplify
from repro.olap import DimensionTable, FactTable, NativeOLAPEngine, \
    StarSchema, extract_star_schema
from repro.olap.parallel import ParallelStarAggregator

from tests.olap.naive_oracle import naive_cells


def assert_same_cells(serial, parallel):
    assert serial.dimension_order == parallel.dimension_order
    assert serial.axis_levels == parallel.axis_levels
    assert set(serial.cells) == set(parallel.cells)
    for key, cell in serial.cells.items():
        other = parallel.cells[key]
        assert set(cell) == set(other), key
        for measure_iri, value in cell.items():
            assert math.isclose(value, other[measure_iri],
                                rel_tol=1e-9, abs_tol=1e-9), \
                (key, measure_iri)


def assert_matches_oracle(star_schema, simplified, result):
    """Cells equal the naive oracle's (floats up to summation order)."""
    expected = naive_cells(star_schema, simplified)
    assert set(result.cells) == set(expected)
    for key, cell in expected.items():
        assert set(result.cells[key]) == set(cell), key
        for measure_iri, value in cell.items():
            assert math.isclose(result.cells[key][measure_iri], value,
                                rel_tol=1e-9, abs_tol=1e-9), \
                (key, measure_iri)


GEN = Namespace("http://example.org/generated/")


def generated_star(seed, facts=400):
    """A seeded star whose five measures use every aggregate keyword.

    Some cities roll up to no region, some facts lack a coordinate
    (code -1) and some lack a measure value (``NaN``), so the keep
    rules are exercised along with the grouping.
    """
    rng = np.random.default_rng(seed)
    schema = CubeSchema(dsd=GEN.dsd, dataset=GEN.ds)
    geo = Hierarchy(GEN.geoHier, GEN.geoDim, levels=[GEN.city, GEN.region],
                    steps=[HierarchyStep(GEN.city, GEN.region)])
    schema.dimensions.append(Dimension(GEN.geoDim, [geo]))
    schema.dimensions.append(Dimension(
        GEN.timeDim, [Hierarchy(GEN.timeHier, GEN.timeDim,
                                levels=[GEN.month])]))
    schema.dimension_levels.update({GEN.geoDim: GEN.city,
                                    GEN.timeDim: GEN.month})
    schema.level_attributes[GEN.region] = [GEN.regionName]
    keywords = {GEN.sumM: qb4o.SUM, GEN.countM: qb4o.COUNT,
                GEN.avgM: qb4o.AVG, GEN.minM: qb4o.MIN, GEN.maxM: qb4o.MAX}
    schema.measures.extend(Measure(iri, keyword)
                           for iri, keyword in keywords.items())

    regions = [GEN[f"region{code}"] for code in range(4)]
    names = ["north", "south", "east", "west"]
    cities = [GEN[f"city{code}"] for code in range(12)]
    star = StarSchema(dataset=GEN.ds, measure_aggregates={
        iri: qb4o.AGGREGATE_TO_SPARQL[keyword]
        for iri, keyword in keywords.items()})
    star.dimensions[GEN.geoDim] = DimensionTable(
        GEN.geoDim, GEN.city, bottom_members=cities,
        level_members={GEN.region: regions},
        ancestor_maps={GEN.region: np.array(
            [code % 4 if code % 5 else -1 for code in range(12)])},
        attributes={GEN.region: {GEN.regionName: {
            region: Literal(label) for region, label in zip(regions, names)}}})
    months = [GEN[f"month{code}"] for code in range(6)]
    star.dimensions[GEN.timeDim] = DimensionTable(
        GEN.timeDim, GEN.month, bottom_members=months)

    def codes(cardinality):
        column = rng.integers(0, cardinality, facts)
        column[rng.random(facts) < 0.05] = -1
        return column

    def values():
        column = rng.integers(0, 100, facts).astype(np.float64)
        column[rng.random(facts) < 0.05] = np.nan
        return column

    star.facts = FactTable(
        coordinates={GEN.geoDim: codes(12), GEN.timeDim: codes(6)},
        measures={iri: values() for iri in keywords})
    return schema, star


def base(schema):
    return (QLBuilder(schema.dataset)
            .slice(SCHEMA.asylappDim)
            .slice(SCHEMA.ageDim)
            .slice(SCHEMA.sexDim))


def programs(schema):
    continent_name = attr(SCHEMA.citizenshipDim, CONTINENT_LEVEL,
                          REF_PROP.continentName)
    return [
        # rollup only
        (base(schema)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .rollup(SCHEMA.timeDim, QUARTER_LEVEL)
         .build()),
        # attribute dice
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .dice(continent_name == "Asia")
         .build()),
        # NOT over a dice that also misses unmapped members
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .rollup(SCHEMA.timeDim, YEAR_LEVEL)
         .dice(negate(continent_name == "Asia"))
         .build()),
        # AND/OR nesting
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .rollup(SCHEMA.timeDim, YEAR_LEVEL)
         .dice(any_of(continent_name == "Asia",
                      all_of(continent_name != "Africa",
                             continent_name != "Europe")))
         .build()),
        # measure dice (post-aggregation, evaluated in the parent)
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .slice(SCHEMA.timeDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .dice(measure(SDMX_MEASURE.obsValue) > 100)
         .build()),
        # mixed measure + attribute dice
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .slice(SCHEMA.timeDim)
         .rollup(SCHEMA.citizenshipDim, CONTINENT_LEVEL)
         .dice(all_of(continent_name != "Asia",
                      measure(SDMX_MEASURE.obsValue) > 50))
         .build()),
        # scalar (GROUP BY nothing)
        (base(schema)
         .slice(SCHEMA.destinationDim)
         .slice(SCHEMA.timeDim)
         .slice(SCHEMA.citizenshipDim)
         .build()),
    ]


@pytest.fixture(scope="module")
def aggregator(star):
    aggregator = ParallelStarAggregator(star.star, workers=2,
                                        morsel_rows=190)
    yield aggregator
    aggregator.close()


class TestSerialParallelEquivalence:
    def test_all_program_shapes(self, star, schema, aggregator):
        for index, program in enumerate(programs(schema)):
            simplified = simplify(program, schema)
            serial = star.evaluate(simplified)
            parallel = aggregator.evaluate(simplified)
            assert len(serial.cells) > 0 or index >= 99, index
            assert_same_cells(serial, parallel)

    def test_both_engines_match_the_naive_oracle(self, star, schema,
                                                 aggregator):
        for program in programs(schema):
            simplified = simplify(program, schema)
            assert_matches_oracle(star.star, simplified,
                                  star.evaluate(simplified))
            assert_matches_oracle(star.star, simplified,
                                  aggregator.evaluate(simplified))

    def test_morsel_size_fuzz(self, star, schema, aggregator):
        """Seeded fuzz: group splits across morsel boundaries must
        never change a cell."""
        rng = random.Random(0xE9)
        simplifieds = [simplify(program, schema)
                       for program in programs(schema)]
        serials = [star.evaluate(simplified)
                   for simplified in simplifieds]
        original = aggregator.morsel_rows
        try:
            for _ in range(6):
                aggregator.morsel_rows = rng.randint(1, 400)
                pick = rng.randrange(len(simplifieds))
                parallel = aggregator.evaluate(simplifieds[pick])
                assert_same_cells(serials[pick], parallel)
        finally:
            aggregator.morsel_rows = original

    def test_scalar_over_zero_facts(self):
        """Scalar query where the keep mask drops every fact: both
        engines must still emit the single no-GROUP-BY cell."""
        from tests.olap.test_engine_errors import edge_cube

        endpoint, schema = edge_cube()
        try:
            star_schema, _ = extract_star_schema(endpoint, schema)
            serial = NativeOLAPEngine(star_schema)
            aggregator = ParallelStarAggregator(star_schema, workers=2,
                                                morsel_rows=1)
            try:
                program = (QLBuilder(schema.dataset)
                           .slice(next(iter(schema.dimension_levels)))
                           .build())
                simplified = simplify(program, schema)
                serial_result = serial.evaluate(simplified)
                parallel_result = aggregator.evaluate(simplified)
                assert len(serial_result.cells) == 1
                assert_same_cells(serial_result, parallel_result)
            finally:
                aggregator.close()
        finally:
            endpoint.close()

    def test_edge_cube_matches_the_naive_oracle(self):
        """No observation of the edge cube carries every measure, so
        every grouped program keeps no cell, and the scalar program
        keeps its one cell with SUM bound at 0 and AVG/MIN undefined."""
        from tests.olap.test_engine_errors import EX, edge_cube

        endpoint, schema = edge_cube()
        try:
            star_schema, _ = extract_star_schema(endpoint, schema)
            aggregator = ParallelStarAggregator(star_schema, workers=2,
                                                morsel_rows=1)
            try:
                cube = schema.dataset
                for program in (
                        QLBuilder(cube).dice(measure(EX.sumM) > 15).build(),
                        QLBuilder(cube).dice(
                            negate(measure(EX.avgM) > 0)).build(),
                        QLBuilder(cube).rollup(EX.geoDim, EX.region).build(),
                        QLBuilder(cube).slice(EX.geoDim).build()):
                    simplified = simplify(program, schema)
                    for engine in (NativeOLAPEngine(star_schema), aggregator):
                        assert_matches_oracle(star_schema, simplified,
                                              engine.evaluate(simplified))
            finally:
                aggregator.close()
        finally:
            endpoint.close()


    @pytest.mark.parametrize("seed", [3, 17])
    def test_generated_star_matches_the_naive_oracle(self, seed):
        """Every aggregate keyword, unmapped members, missing measure
        values and attribute/measure dices on a seeded star."""
        schema, star_schema = generated_star(seed)
        name = attr(GEN.geoDim, GEN.region, GEN.regionName)
        cube = schema.dataset
        program_list = [
            QLBuilder(cube).rollup(GEN.geoDim, GEN.region).build(),
            (QLBuilder(cube).rollup(GEN.geoDim, GEN.region)
             .dice(any_of(name == "north", negate(name != "south")))
             .build()),
            (QLBuilder(cube).slice(GEN.timeDim)
             .dice(all_of(measure(GEN.avgM) > 40,
                          negate(measure(GEN.minM) < 5))).build()),
            (QLBuilder(cube).rollup(GEN.geoDim, GEN.region)
             .slice(GEN.timeDim)
             .dice(any_of(name == "east", measure(GEN.maxM) >= 90))
             .build()),
            QLBuilder(cube).slice(GEN.geoDim).slice(GEN.timeDim).build(),
        ]
        aggregator = ParallelStarAggregator(star_schema, workers=2,
                                            morsel_rows=37)
        try:
            for program in program_list:
                simplified = simplify(program, schema)
                for engine in (NativeOLAPEngine(star_schema), aggregator):
                    assert_matches_oracle(star_schema, simplified,
                                          engine.evaluate(simplified))
        finally:
            aggregator.close()


class TestLifecycle:
    def test_segment_pinned_only_during_queries(self, star, schema,
                                                aggregator):
        program = programs(schema)[0]
        simplified = simplify(program, schema)
        aggregator.evaluate(simplified)
        # between queries the export stays cached but refcounted; after
        # close() nothing may remain (checked again module-wide by the
        # autouse hygiene fixture)
        assert aggregator.telemetry["queries"] >= 1
        assert aggregator.telemetry["morsels"] >= 1

    def test_close_is_idempotent_and_releases_segments(self, star, schema):
        before = set(SHM_SEGMENTS.segment_names())
        aggregator = ParallelStarAggregator(star.star, workers=1,
                                            morsel_rows=500)
        aggregator.evaluate(simplify(programs(schema)[0], schema))
        assert set(SHM_SEGMENTS.segment_names()) > before  # export cached
        aggregator.close()
        aggregator.close()
        # everything THIS aggregator exported is gone; the shared
        # module fixture's cached export (if any) is untouched
        assert set(SHM_SEGMENTS.segment_names()) == before

    def test_describe_names_the_aggregate_spec(self, star, schema,
                                               aggregator):
        simplified = simplify(programs(schema)[0], schema)
        line = aggregator.describe(simplified)
        assert line.startswith("parallel-olap: workers=2 ")
        assert "agg=SUM(obsValue)" in line
        assert f"epoch={star.star.epoch}" in line
