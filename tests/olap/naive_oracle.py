"""A deliberately naive star-schema oracle for the OLAP engines.

Both star engines run one kernel, so comparing them with each other
no longer tests that kernel.  This oracle shares no code with it: a
plain-Python loop over ``star.facts`` rolls every fact up, drops the
facts a SPARQL join would drop, dices, groups with dicts and
aggregates each group with the builtins.
"""

import math
import operator

from repro.rdf.terms import Literal
from repro.ql.ast import BooleanCondition, Comparison, MeasureRef, \
    NotCondition

OPERATORS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def naive_cells(star, program):
    """``coordinate → {measure: value}`` for a simplified program, with
    undefined aggregates (AVG/MIN/MAX of an empty group) left out."""
    state = program.state
    axes = sorted(state.levels, key=lambda iri: iri.value)
    measures = list(state.measures)
    fact_dices = [c for c in program.dices if not c.measure_refs()]
    cell_dices = [c for c in program.dices if c.measure_refs()]

    groups = {}
    for row in range(star.facts.size):
        members = {}
        for dimension in axes:
            table = star.dimension(dimension)
            level = state.levels[dimension]
            bottom = int(star.facts.coordinates[dimension][row])
            code = -1 if bottom < 0 else int(table.map_to_level(level)[bottom])
            if code < 0:
                break
            members[dimension] = table.members_at(level)[code]
        else:
            values = {m: float(star.facts.measures[m][row]) for m in measures}
            if any(math.isnan(value) for value in values.values()):
                continue
            if not all(holds(star, c, members, None) for c in fact_dices):
                continue
            key = tuple(members[dimension] for dimension in axes)
            bucket = groups.setdefault(key, {m: [] for m in measures})
            for measure, value in values.items():
                bucket[measure].append(value)
    if not axes and not groups:
        groups[()] = {m: [] for m in measures}  # SPARQL's implicit group

    cells = {}
    for key, bucket in groups.items():
        members = dict(zip(axes, key))
        finished = {m: aggregate(star.measure_aggregates.get(m, "SUM"),
                                 bucket[m]) for m in measures}
        if all(holds(star, c, members, finished) for c in cell_dices):
            cells[key] = {m: value for m, value in finished.items()
                          if value is not None}
    return cells


def aggregate(keyword, values):
    if keyword == "SUM":
        return float(sum(values))
    if keyword == "COUNT":
        return float(len(values))
    if not values:
        return None
    if keyword == "AVG":
        return sum(values) / len(values)
    return min(values) if keyword == "MIN" else max(values)


def holds(star, condition, members, finished):
    if isinstance(condition, BooleanCondition):
        results = [holds(star, operand, members, finished)
                   for operand in condition.operands]
        return all(results) if condition.op == "AND" else any(results)
    if isinstance(condition, NotCondition):
        return not holds(star, condition.operand, members, finished)
    assert isinstance(condition, Comparison)
    compare = OPERATORS[condition.op]
    if isinstance(condition.operand, MeasureRef):
        value = finished[condition.operand.measure]
        return value is not None \
            and compare(value, float(condition.value.value))
    path = condition.operand
    member = members[path.dimension]
    value = star.dimension(path.dimension).attribute_values(
        path.level, path.attribute).get(member)
    if value is None:
        return False
    if isinstance(value, Literal) and isinstance(condition.value, Literal):
        try:
            return compare(value.value, condition.value.value)
        except TypeError:
            return False
    return condition.op in ("=", "!=") and compare(value, condition.value)
