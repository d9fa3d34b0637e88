"""Set-at-a-time existence checks: batch semi-/anti-joins.

A top-level ``FILTER [NOT] EXISTS`` runs as one semi-/anti-join over
the whole child table, solved in chunks of ``EXISTS_CHUNK`` seed keys.
An EXISTS inside a larger expression (here ``EXISTS {...} || false``)
takes the one-row seeded path instead.  The differential tests run
both forms over seeded random graphs and require identical multisets,
with the chunk size shrunk to 1 and 3 so chunk edges are crossed.

The count-based test pins the point of the change: IC-1 on a
2,000-observation cube plans a constant number of times and makes no
point probe per observation, however the seeds are chunked.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import repro.sparql.evaluator as evaluator_module
from repro.rdf import Dataset, Literal, Namespace
from repro.rdf.graph import Graph
from repro.sparql.algebra import Filter
from repro.sparql.evaluator import evaluate_query
from repro.sparql.expressions import ExistsExpression
from repro.sparql.parser import parse_query

EX = Namespace("http://example.org/")
PREFIX = "PREFIX : <http://example.org/>\n"

NODES = 8
PREDICATES = ("p", "q", "r")


def random_dataset(seed: int) -> Dataset:
    """A small random dataset: ~30 default-graph triples over 8 nodes
    and 3 predicates, plus two named graphs sharing those nodes."""
    rng = random.Random(seed)
    dataset = Dataset()

    def fill(graph, count: int) -> None:
        for _ in range(count):
            subject = EX[f"n{rng.randrange(NODES)}"]
            predicate = EX[rng.choice(PREDICATES)]
            if rng.random() < 0.2:
                graph.add(subject, predicate, Literal(rng.randrange(4)))
            else:
                graph.add(subject, predicate, EX[f"n{rng.randrange(NODES)}"])

    fill(dataset.default, 30)
    fill(dataset.graph(EX.g1), 10)
    fill(dataset.graph(EX.g2), 10)
    return dataset


#: ``(outer pattern, EXISTS body)``.  ``[[ ... ]]`` marks a nested
#: existence filter, rendered in the same form as the outer one.
CASES = {
    "plain": ("?a :p ?b", "?b :q ?c"),
    "duplicate_outer_rows": ("{ ?a :p ?b } UNION { ?a :p ?b }",
                             "?b :q ?c"),
    "unbound_seed_cells": ("?a :p ?b OPTIONAL { ?b :q ?c }", "?c :r ?d"),
    "unbound_seed_reused": ("?a :p ?b OPTIONAL { ?b :q ?c }",
                            "?a ?any ?c"),
    "outer_var_only_in_filter": ("?a :p ?b", "?b :q ?c FILTER(?c != ?a)"),
    "uncorrelated": ("?a :p ?b", "?x :r :n1"),
    "empty_group": ("?a :p ?b", ""),
    "nested": ("?a :p ?b", "?b :q ?c FILTER [[NOT EXISTS { ?c :r ?a }]]"),
    "nested_positive": ("?a :p ?b", "?b ?x ?c FILTER [[EXISTS { ?c :p ?b }]]"),
    "optional_inside": ("?a :p ?b",
                        "?b :q ?c OPTIONAL { ?c :r ?d } "
                        "FILTER(!BOUND(?d) || ?d != ?a)"),
    "union_inside": ("?a :p ?b", "{ ?b :q ?c } UNION { ?c :r ?b }"),
    "minus_inside": ("?a :p ?b", "?b :q ?c MINUS { ?c :r ?a }"),
    "graph_var_inside": ("?a :p ?b", "GRAPH ?g { ?b ?x ?c }"),
    "graph_var_seeded": ("?a :p ?b OPTIONAL { GRAPH ?g { ?a ?y ?z } }",
                         "GRAPH ?g { ?b ?x ?c }"),
    "subselect_inside": ("?a :p ?b",
                         "{ SELECT ?b (COUNT(?c) AS ?n) "
                         "WHERE { ?b ?x ?c } GROUP BY ?b } FILTER(?n > 1)"),
    "path_inside": ("?a :p ?b", "?b :q+ ?a"),
    "alternative_star_path": ("?a :r ?b", "?b (:p|:q)* ?c . ?c :r ?a"),
    "values_inside": ("?a :p ?b", "VALUES ?b { :n1 :n2 :n3 }"),
    "bind_inside": ("?a :p ?b", "?b :q ?c BIND(?c AS ?d) ?d :p ?a"),
}


def render(outer: str, body: str, negated: bool, batched: bool,
           limit: bool = False) -> str:
    """The query text with the existence filters in batch form
    (``FILTER [NOT] EXISTS``) or one-row form (inside ``|| false``)."""
    open_, close = ("", "") if batched else ("(", " || false)")
    body = body.replace("[[", open_).replace("]]", close)
    keyword = "NOT EXISTS" if negated else "EXISTS"
    text = (f"{PREFIX}SELECT * WHERE {{ {outer} "
            f"FILTER {open_}{keyword} {{ {body} }}{close} }}")
    return text + (" LIMIT 100000" if limit else "")


def rows(dataset: Dataset, text: str) -> Counter:
    table = evaluate_query(parse_query(text), dataset)
    return Counter(tuple(map(repr, row)) for row in table.rows)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("negated", [False, True],
                         ids=["exists", "not_exists"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_matches_one_row_path(case, negated, seed, monkeypatch):
    dataset = random_dataset(seed)
    outer, body = CASES[case]
    expected = rows(dataset, render(outer, body, negated, batched=False))
    for chunk in (evaluator_module.EXISTS_CHUNK, 1, 3):
        monkeypatch.setattr(evaluator_module, "EXISTS_CHUNK", chunk)
        for limit in (False, True):  # materialized, then streamed
            got = rows(dataset,
                       render(outer, body, negated, batched=True,
                              limit=limit))
            assert got == expected, (case, chunk, limit)


@pytest.mark.parametrize("seed", range(6))
def test_ask_agrees_with_select(seed, monkeypatch):
    """ASK (streamed, or one solve for a UNION) answers whether the
    equivalent SELECT has a row."""
    monkeypatch.setattr(evaluator_module, "EXISTS_CHUNK", 2)
    dataset = random_dataset(seed)
    for outer, body in CASES.values():
        for negated in (False, True):
            select = render(outer, body, negated, batched=True)
            ask = select.replace("SELECT * WHERE", "ASK", 1)
            assert evaluate_query(parse_query(ask), dataset) == bool(
                rows(dataset, select))


def test_exists_variables_include_correlated_ones():
    query = parse_query(PREFIX + """
        SELECT * WHERE {
          ?a :p ?b
          FILTER EXISTS {
            ?b :q ?c
            FILTER(?c != ?outer)
            FILTER NOT EXISTS { ?c :r ?deep }
            { SELECT ?c (COUNT(?hidden) AS ?n) WHERE { ?c :p ?hidden }
              GROUP BY ?c }
          }
        }""")
    condition = query.pattern.condition
    assert isinstance(query.pattern, Filter)
    assert isinstance(condition, ExistsExpression)
    assert {"b", "c", "outer", "deep", "n"} <= condition.variables()
    assert "hidden" not in condition.variables()  # scoped to the sub-SELECT


def test_projected_decoding_keeps_exists_variables():
    """An outer variable used only inside an EXISTS under ``||`` must
    still reach the one-row seed."""
    dataset = Dataset()
    dataset.default.add(EX.a, EX.p, EX.b)
    dataset.default.add(EX.c, EX.p, EX.d)
    dataset.default.add(EX.x, EX.q, EX.b)
    table = evaluate_query(parse_query(PREFIX + """
        SELECT ?s WHERE {
          ?s :p ?o
          FILTER(false || EXISTS { ?z :q ?w FILTER(?w = ?o) })
        }"""), dataset)
    assert [row[0] for row in table.rows] == [EX.a]


def _ic1_query():
    from repro.qb.constraints import STATIC_CONSTRAINTS
    (check,) = [c for c in STATIC_CONSTRAINTS if c.ic == "IC-1"]
    return parse_query(check.queries[0])


@pytest.fixture(scope="module")
def cube_graph() -> Graph:
    from repro.data.eurostat import GeneratorConfig, build_qb_graph
    graph = build_qb_graph(GeneratorConfig(observations=2000, seed=11))
    graph.compact()
    qb = Namespace("http://purl.org/linked-data/cube#")
    assert sum(1 for _ in graph.subjects(predicate=qb.dataSet)) == 2000
    return graph


@pytest.mark.parametrize("chunk", [None, 256])
def test_ic1_plans_and_probes_do_not_scale_with_observations(
        cube_graph, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(evaluator_module, "EXISTS_CHUNK", chunk)
    counts = Counter()
    original_plan = evaluator_module.get_plan

    def counted_plan(*args, **kwargs):
        counts["plans"] += 1
        return original_plan(*args, **kwargs)

    monkeypatch.setattr(evaluator_module, "get_plan", counted_plan)
    original_ids = Graph.triples_ids

    def counted_ids(self, pattern=(None, None, None)):
        if pattern[0] is not None or pattern[2] is not None:
            counts["probes"] += 1
        return original_ids(self, pattern)

    monkeypatch.setattr(Graph, "triples_ids", counted_ids)
    original_arrays = Graph.match_arrays

    def counted_arrays(self, pattern):
        counts["scans"] += 1
        return original_arrays(self, pattern)

    monkeypatch.setattr(Graph, "match_arrays", counted_arrays)
    dataset = Dataset()
    dataset.default = cube_graph
    assert evaluate_query(_ic1_query(), dataset,
                          default_as_union=False) is False
    # chunks: 1 at the default size, 8 at 256 seeds each — the plan
    # count follows the chunks, never the observations
    assert counts["plans"] <= 16
    # the anti-join is a hash join over one scan, built once and
    # reused by every chunk: no per-observation point probe
    assert counts["probes"] <= 4
    assert counts["scans"] <= 8
