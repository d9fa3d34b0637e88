"""The native OLAP engine over the star schema, and the star-aggregation
kernel it shares with :mod:`repro.olap.parallel`.

The engine evaluates the same canonical pipelines QL produces —
roll-ups, slices and dices — directly with numpy group-bys.  Two roles:

* the **baseline** of experiment E9 (traditional-DW approach: pay ETL
  once, then answer queries from arrays);
* the **correctness oracle**: for every QL query, the SPARQL path and
  this engine must produce identical cells
  (:mod:`repro.olap.compare`).

Grouped SUM/COUNT/AVG/MIN/MAX over the fact table is written once, as
a five-step kernel:

* :func:`compile` turns a simplified program into a :class:`StarPlan`:
  the kept axes with their roll-up maps, the measures with their
  aggregate keywords, and every dice with its attribute comparisons
  pre-evaluated into per-member ``member_ok`` arrays;
* :func:`partials` scans fact rows ``[lo, hi)`` of a column mapping —
  roll up, drop facts the SPARQL joins would drop, dice, group — and
  returns one per-group count column plus only the state each keyword
  needs (sums for SUM/AVG, minima for MIN, maxima for MAX);
* :func:`merge` folds the partials of several row ranges into one;
* :func:`finish` states the empty-group rule;
* :func:`cells` finishes every measure, applies post-aggregation
  (measure) dices and builds the :class:`NativeResult`.

:class:`NativeOLAPEngine` is the one-morsel run of that kernel: it
calls :func:`partials` once over ``[0, n)`` of the working
:class:`~repro.olap.star.FactTable` arrays, in process and without a
copy.  :class:`~repro.olap.parallel.ParallelStarAggregator` runs
:func:`partials` in worker processes over morsels of a shared-memory
snapshot and merges.  :func:`partials` (and the :func:`_mask` it calls)
therefore run in workers: they touch only the mapped columns and the
plan, never the star schema, and the ``parallel-safety`` lint rule
checks them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, \
    Sequence, Tuple, Union

import numpy as np

from repro.rdf.terms import IRI, Literal, Term
from repro.ql.ast import (
    AttributePath,
    BooleanCondition,
    Comparison,
    DiceCondition,
    MeasureRef,
    NotCondition,
)
from repro.ql.simplifier import SimplifiedProgram
from repro.olap.errors import DiceTypeError, OLAPEngineError, UnknownAxisError
from repro.olap.star import FactColumns, FactTable, StarSchema


@dataclass
class NativeResult:
    """Cells produced by the native engine."""

    #: dimension IRI → level the axis sits at
    axis_levels: Dict[IRI, IRI]
    #: rows: coordinate tuple (terms, dimension order) → measure values
    cells: Dict[Tuple[Term, ...], Dict[IRI, float]]
    dimension_order: List[IRI]
    seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.cells)

    def value(self, measure: IRI, *coordinate: Term) -> Optional[float]:
        cell = self.cells.get(tuple(coordinate))
        return None if cell is None else cell.get(measure)

    def as_rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for key, measures in self.cells.items():
            row: Dict[str, object] = {}
            for iri, member in zip(self.dimension_order, key):
                row[iri.value] = getattr(member, "value", str(member))
            for measure, value in measures.items():
                row[measure.value] = value
            rows.append(row)
        return rows


class NativeOLAPEngine:
    """Array-based evaluation of canonical QL pipelines: the one-morsel,
    in-process run of the star-aggregation kernel."""

    def __init__(self, star: StarSchema) -> None:
        self.star = star

    def evaluate(self, program: SimplifiedProgram) -> NativeResult:
        """Evaluate a simplified QL program over the star schema."""
        started = time.perf_counter()
        plan = compile(self.star, program)
        facts = self.star.facts
        payload = partials(fact_views(facts), 0, facts.size, plan)
        return cells(plan, self.star, payload, started)


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

#: A compiled dice, evaluated by :func:`_mask`:
#: ``("member", axis, member_ok)`` for an attribute comparison,
#: ``("measure", measure, op, target)`` for a measure comparison,
#: ``("AND" | "OR", [operands])`` and ``("NOT", operand)``.
DiceSpec = Tuple[Any, ...]

#: the aggregate keywords the kernel computes
_KEYWORDS = frozenset({"SUM", "COUNT", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class StarPlan:
    """A program compiled against one star schema.

    :func:`partials` reads only ``axes``, ``measures`` and
    ``fact_dices``, none of which holds a term that needs the star.
    """

    #: kept dimensions, in axis order, → the level each axis sits at
    axis_levels: Dict[IRI, IRI]
    #: per axis: (column key of its bottom codes, bottom → level code)
    axes: Tuple[Tuple[str, np.ndarray], ...]
    #: per measure: (measure, column key of its values, aggregate keyword)
    measures: Tuple[Tuple[IRI, str, str], ...]
    #: attribute-only dices: filter facts before grouping
    fact_dices: Tuple[DiceSpec, ...]
    #: measure-bearing dices: filter cells after aggregation
    cell_dices: Tuple[DiceSpec, ...]


class Partials(NamedTuple):
    """Per-group aggregate state over some fact rows."""

    #: (groups, axes) level codes of each group
    keys: np.ndarray
    #: kept facts per group, as float64 (every kept fact has every
    #: queried measure, so one count serves them all)
    counts: np.ndarray
    #: per plan measure: its keyword's state column, ``None`` for COUNT
    states: List[Optional[np.ndarray]]


def fact_views(facts: Union[FactTable, FactColumns]) -> Dict[str, np.ndarray]:
    """The kernel's column mapping over a fact table or snapshot: column
    key → array, without copying."""
    views = {f"c:{iri.value}": codes
             for iri, codes in facts.coordinates.items()}
    views.update((f"m:{iri.value}", values)
                 for iri, values in facts.measures.items())
    return views


def compile(star: StarSchema, program: SimplifiedProgram) -> StarPlan:
    """Compile ``program`` against ``star``; every typed error a
    program can raise is raised here, before any fact is read."""
    state = program.state
    if state is None:
        raise OLAPEngineError("program lacks a checked cube state")
    kept = sorted(state.levels, key=lambda iri: iri.value)
    axis_levels = {iri: state.levels[iri] for iri in kept}
    axes = tuple((f"c:{iri.value}",
                  star.dimension(iri).map_to_level(axis_levels[iri]))
                 for iri in kept)
    measures = []
    for iri in state.measures:
        keyword = star.measure_aggregates.get(iri, "SUM")
        if keyword not in _KEYWORDS:
            raise OLAPEngineError(f"unknown aggregate {keyword!r}")
        measures.append((iri, f"m:{iri.value}", keyword))
    fact_dices: List[DiceSpec] = []
    cell_dices: List[DiceSpec] = []
    for condition in program.dices:
        spec = _compile_dice(star, condition, kept, axis_levels,
                             state.measures)
        (cell_dices if condition.measure_refs() else fact_dices).append(spec)
    return StarPlan(axis_levels=axis_levels, axes=axes,
                    measures=tuple(measures), fact_dices=tuple(fact_dices),
                    cell_dices=tuple(cell_dices))


def _compile_dice(star: StarSchema, condition: DiceCondition,
                  kept: List[IRI], axis_levels: Dict[IRI, IRI],
                  measures: Sequence[IRI]) -> DiceSpec:
    if isinstance(condition, Comparison):
        if isinstance(condition.operand, MeasureRef):
            measure = condition.operand.measure
            if measure not in measures:
                raise OLAPEngineError(
                    f"dice references measure {measure.value}, which the "
                    f"cube does not carry at this point of the pipeline")
            return ("measure", measure, condition.op,
                    _dice_target(condition.value))
        path = condition.operand
        assert isinstance(path, AttributePath)
        axis = _require_axis(kept, path.dimension)
        table = star.dimension(path.dimension)
        level = axis_levels[path.dimension]
        values = table.attribute_values(level, path.attribute)
        member_ok = np.array(
            [_compare_terms(values.get(member), condition.op,
                            condition.value)
             for member in table.members_at(level)], dtype=bool)
        return ("member", axis, member_ok)
    if isinstance(condition, BooleanCondition):
        return (condition.op,
                [_compile_dice(star, operand, kept, axis_levels, measures)
                 for operand in condition.operands])
    if isinstance(condition, NotCondition):
        return ("NOT", _compile_dice(star, condition.operand, kept,
                                     axis_levels, measures))
    raise OLAPEngineError(f"unknown condition {condition!r}")


def _mask(spec: DiceSpec, codes: Sequence[np.ndarray],
          aggregates: Mapping[IRI, Tuple[np.ndarray, np.ndarray]]
          ) -> np.ndarray:
    """Evaluate a compiled dice over per-fact level codes (a morsel) or
    per-group key columns (the cells), with ``aggregates`` the finished
    measures for the latter."""
    kind = spec[0]
    if kind == "member":
        column = codes[spec[1]]
        mask = np.zeros(len(column), dtype=bool)
        valid = column >= 0
        mask[valid] = spec[2][column[valid]]
        return mask
    if kind == "measure":
        values, defined = aggregates[spec[1]]
        # a dice over an undefined aggregate is an errored FILTER on
        # the SPARQL side: the group drops
        return defined & _numeric_compare(values, spec[2], spec[3])
    if kind == "NOT":
        return ~_mask(spec[1], codes, aggregates)
    masks = [_mask(operand, codes, aggregates) for operand in spec[1]]
    if kind == "AND":
        return np.logical_and.reduce(masks)
    return np.logical_or.reduce(masks)


def _group(stacked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a ``(rows, axes)`` code matrix, and the group of
    each row.  With no axes every row falls into the one scalar group,
    which exists even over zero rows (SPARQL's implicit group)."""
    rows, axes = stacked.shape
    if not axes:
        return (np.zeros((1, 0), dtype=np.int64),
                np.zeros(rows, dtype=np.intp))
    keys, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return keys, inverse.reshape(-1)


def partials(views: Mapping[str, np.ndarray], lo: int, hi: int,
             plan: StarPlan) -> Partials:
    """Per-group state over fact rows ``[lo, hi)`` of ``views``.

    A fact is kept when every kept axis rolls up to a member (a SPARQL
    join drops unmapped members), every queried measure has a value
    (the ``NaN`` sentinel marks a measure pattern that would not join)
    and every attribute dice holds.
    """
    n = hi - lo
    level_codes: List[np.ndarray] = []
    keep = np.ones(n, dtype=bool)
    for column_key, ancestor in plan.axes:
        bottom = views[column_key][lo:hi]
        codes = np.full(n, -1, dtype=np.int64)
        valid = bottom >= 0
        codes[valid] = ancestor[bottom[valid]]
        keep &= codes >= 0
        level_codes.append(codes)
    values = [views[column_key][lo:hi]
              for _measure, column_key, _keyword in plan.measures]
    for column in values:
        keep &= ~np.isnan(column)
    for spec in plan.fact_dices:
        keep &= _mask(spec, level_codes, {})

    rows = np.flatnonzero(keep)
    stacked = np.stack([codes[rows] for codes in level_codes], axis=1) \
        if level_codes else np.empty((len(rows), 0), dtype=np.int64)
    keys, inverse = _group(stacked)
    groups = keys.shape[0]
    states = [_fold(keyword, inverse, column[rows], groups)
              for column, (_measure, _key, keyword)
              in zip(values, plan.measures)]
    counts = np.bincount(inverse, minlength=groups).astype(np.float64)
    return Partials(keys, counts, states)


def _fold(keyword: str, inverse: np.ndarray, values: np.ndarray,
          groups: int) -> Optional[np.ndarray]:
    """The state ``keyword`` keeps per group, folded from ``values``
    whose groups ``inverse`` gives, in order; ``None`` for COUNT."""
    if keyword == "COUNT":
        return None
    if keyword in ("SUM", "AVG"):
        return np.bincount(inverse, weights=values, minlength=groups)
    ufunc, identity = (np.minimum, np.inf) if keyword == "MIN" \
        else (np.maximum, -np.inf)
    state = np.full(groups, identity)
    ufunc.at(state, inverse, values)
    return state


def merge(plan: StarPlan, payloads: Sequence[Partials]) -> Partials:
    """Fold the partials of several row ranges, in order, into one."""
    if len(payloads) == 1:
        return payloads[0]
    keys, inverse = _group(np.concatenate([p.keys for p in payloads]))
    groups = keys.shape[0]
    counts = np.bincount(inverse, minlength=groups,
                         weights=np.concatenate([p.counts for p in payloads]))
    states: List[Optional[np.ndarray]] = []
    for index, (_measure, _key, keyword) in enumerate(plan.measures):
        parts = [p.states[index] for p in payloads]
        states.append(None if parts[0] is None else
                      _fold(keyword, inverse, np.concatenate(parts), groups))
    return Partials(keys, counts, states)


def finish(keyword: str, state: Optional[np.ndarray], counts: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group values of one measure plus the mask of groups where the
    value is defined.

    SPARQL's empty-group rule: SUM and COUNT over a group with no
    values stay bound at 0, while AVG, MIN and MAX are undefined
    (``NaN`` with ``defined=False``, never ``0.0`` or ±inf), so the
    cell leaves the measure out as the SPARQL projection leaves it
    unbound.
    """
    if keyword == "COUNT":
        return counts, np.ones(len(counts), dtype=bool)
    if keyword == "SUM":
        return state, np.ones(len(counts), dtype=bool)
    defined = counts > 0
    if keyword == "AVG":
        out = np.full(len(counts), np.nan)
        np.divide(state, counts, out=out, where=defined)
        return out, defined
    if keyword in ("MIN", "MAX"):
        return np.where(defined, state, np.nan), defined
    raise OLAPEngineError(f"unknown aggregate {keyword!r}")


def cells(plan: StarPlan, star: StarSchema, payload: Partials,
          started: float) -> NativeResult:
    """Finish every measure, drop the groups a measure dice rejects and
    build the result cells."""
    aggregates = {measure: finish(keyword, state, payload.counts)
                  for (measure, _key, keyword), state
                  in zip(plan.measures, payload.states)}
    keys = payload.keys
    columns = [keys[:, axis] for axis in range(keys.shape[1])]
    keep = np.ones(keys.shape[0], dtype=bool)
    for spec in plan.cell_dices:
        keep &= _mask(spec, columns, aggregates)
    members = [star.dimension(iri).members_at(level)
               for iri, level in plan.axis_levels.items()]
    finished = [(measure, values.tolist(), defined.tolist())
                for measure, (values, defined) in aggregates.items()]
    result: Dict[Tuple[Term, ...], Dict[IRI, float]] = {}
    for group in np.flatnonzero(keep).tolist():
        coordinate = tuple(axis_members[code] for axis_members, code
                           in zip(members, keys[group].tolist()))
        result[coordinate] = {measure: values[group]
                              for measure, values, defined in finished
                              if defined[group]}
    return NativeResult(axis_levels=dict(plan.axis_levels), cells=result,
                        dimension_order=list(plan.axis_levels),
                        seconds=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def _require_axis(kept: List[IRI], dimension: IRI) -> int:
    """Position of ``dimension`` among the kept axes, or a typed error."""
    try:
        return kept.index(dimension)
    except ValueError:
        raise UnknownAxisError(
            f"dice references dimension {dimension.value}, which is not "
            f"an axis of the cube at this point of the pipeline "
            f"(sliced away or never part of the cube)") from None


def _dice_target(value: Term) -> float:
    """The numeric RHS of a measure dice, or a typed error.

    Measure aggregates are numbers; comparing them against an IRI or a
    non-numeric lexical form is a query bug the engine must report, not
    silently coerce to ``0.0``.
    """
    if not isinstance(value, Literal):
        raise DiceTypeError(
            f"measure dice compares against non-literal {value!r}")
    try:
        return float(value.value)
    except (TypeError, ValueError):
        raise DiceTypeError(
            f"measure dice compares against non-numeric literal "
            f"{value.value!r}") from None


def _numeric_compare(values: np.ndarray, op: str, target: float
                     ) -> np.ndarray:
    if op == "=":
        return values == target
    if op == "!=":
        return values != target
    if op == "<":
        return values < target
    if op == "<=":
        return values <= target
    if op == ">":
        return values > target
    if op == ">=":
        return values >= target
    raise OLAPEngineError(f"unknown operator {op!r}")


def _compare_terms(value: Optional[Term], op: str, target: Term) -> bool:
    """Python-side comparison for attribute dices (mirrors SPARQL)."""
    if value is None:
        return False
    if isinstance(value, Literal) and isinstance(target, Literal):
        left = value.value
        right = target.value
        try:
            if op == "=":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError:
            return False
    if op == "=":
        return value == target
    if op == "!=":
        return value != target
    return False
