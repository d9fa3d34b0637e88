"""COUNT, SUM, AVG, MIN and MAX over one group, stated once.

The serial evaluator (:meth:`~repro.sparql.expressions.Aggregate.apply`)
and the parallel executor's in-worker pushdown
(:func:`~repro.sparql.parallel._worker_partials`, merged by
:meth:`~repro.sparql.parallel.ParallelExecutor._merge_aggregate`)
both keep the state defined here, fold it their own way over rows,
and finish it here:

* ``COUNT`` keeps ``n``, the number of bound values;
* ``SUM`` and ``AVG`` keep ``[total, n, err]``: the running total (an
  int or Decimal total stays exact; a double anywhere makes it a
  double), the number of values added, and whether a value that is not
  a number was seen;
* ``MIN`` and ``MAX`` keep the best value so far under
  :func:`~repro.sparql.expressions.order_key`, or ``None``.  A later
  value replaces it only when strictly better, so among tied values
  (``5`` and ``"5.0"^^xsd:decimal``) the first in solution order wins.

:func:`finish` holds the empty-group rule: COUNT and SUM over an empty
group are 0, AVG, MIN and MAX are unbound, and one non-numeric value
unbinds SUM and AVG.

The worker side calls into this module, so it stays shared-nothing
(checked by the ``parallel-safety`` lint rule).
"""

from __future__ import annotations

import functools
import operator
from decimal import Decimal
from typing import Any, Callable, Optional

from repro.rdf.terms import Literal
# a module reference, not a name: expressions imports this module
from repro.sparql import expressions

#: the aggregates whose state this module defines
KINDS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def initial(kind: str) -> Any:
    """The state of a group that has seen no value."""
    if kind == "COUNT":
        return 0
    if kind in ("SUM", "AVG"):
        return [0, 0, False]
    return None


def add(total: Any, *numbers: Any) -> Any:
    """``total`` plus each of ``numbers`` in order, under SPARQL numeric
    promotion: integers and decimals add exactly, and a double makes
    the sum a double."""
    try:
        return functools.reduce(operator.add, numbers, total)
    except TypeError:  # Python refuses to add a Decimal and a float
        for number in numbers:
            try:
                total = total + number
            except TypeError:
                total = float(total) + float(number)
        return total


def merge(kind: str, left: Any, right: Any,
          key: Callable[[Any], Any]) -> Any:
    """Fold state ``right`` into ``left``, which comes first in solution
    order; ``key`` orders MIN/MAX values."""
    if kind == "COUNT":
        return left + right
    if kind in ("SUM", "AVG"):
        return [add(left[0], right[0]), left[1] + right[1],
                left[2] or right[2]]
    if left is None:
        return right
    if right is None or left == right:
        return left
    if kind == "MIN":
        return right if key(right) < key(left) else left
    return right if key(right) > key(left) else left


def finish(kind: str, state: Any) -> Optional[Any]:
    """The value of a finished group, or ``None`` when it is unbound.

    MIN and MAX return their state as it is: the best term, or the id
    of the best term where the caller folded ids.
    """
    if kind == "COUNT":
        return Literal(state)
    if kind in ("SUM", "AVG"):
        total, count, err = state
        if err:
            return None
        if kind == "SUM":
            return expressions._numeric_literal(total)
        if not count:
            return None
        if isinstance(total, int):
            return expressions._numeric_literal(
                Decimal(total) / Decimal(count))
        return expressions._numeric_literal(total / count)
    return state
