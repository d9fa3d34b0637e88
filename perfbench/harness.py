"""Run accounting shared by the workloads: timed operations, failure
counting, speed sampling, percentiles, peak memory and the result line.

A workload operation is timed with :meth:`Run.op`.  The call is timed
on its own; the correctness check that follows it is not.  A typed
``EndpointError`` raised by the call, or a check that reports a
problem, counts the operation as failed (``failed`` in the result
line); any other exception is a bug in the benchmark or the program
and ends the run.

**Speed sampling.**  On a shared host the processor's speed drifts
(a fixed pure-Python loop runs 1.5-2x slower in some seconds than in
others, in CPU time as much as in wall time, with no steal time
reported), and no run length averages that away.  While a run is
measuring, :class:`Sampler` therefore interrupts the process every
:data:`INTERVAL` seconds (``SIGALRM``) and times a fixed interpreter
kernel in the signal handler.  Every timing has the handler's own time
taken out and is reported twice: as measured (``raw``), and scaled to
the reference speed at which the kernel takes :data:`REFERENCE_MS`,
using the mean kernel time of the samples taken inside the timed
interval (and the :data:`NEAREST` on each side of it).  The result
line carries the scaled figures; the printed tables show both.

On a 2-CPU host whose speed moved by up to 2x between runs, five
ql_session runs gave a p50 spread (interquartile range / median) of 4%
scaled against 39% as measured; sampling between operations instead
of inside them left about three times the per-operation spread.
"""

from __future__ import annotations

import bisect
import json
import math
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: seconds between two speed samples
INTERVAL = 0.05
#: the timed kernel's iterations, and the untimed ones before it that
#: refill the caches the interrupted operation evicted (without them
#: the kernel reads 10-20% slower after a cache-hungry operation, and
#: the scaling would forgive part of the program's own memory traffic)
KERNEL = 1_900
WARM_UP = 400
#: the timed kernel's time at the reference speed, in ms (about its
#: time on the 2-CPU reference box in its slower state)
REFERENCE_MS = 0.4
#: samples on each side of an interval that also set its speed (short
#: operations hold no sample of their own)
NEAREST = 2


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile that still
    has at least ten samples beyond it (nearest rank).

    With fewer than 21 samples that percentile would not lie above the
    median, so the maximum is reported instead (percentile 100).
    """
    n = len(values)
    if not n:
        return float("nan"), float("nan"), 0
    ordered = sorted(values)
    if n < 21:
        return ordered[-1], 100.0, n
    rank = n - 11  # zero-based: exactly ten samples lie beyond it
    return ordered[rank], 100.0 * (rank + 1) / n, n


def peak_rss_mb() -> float:
    """Peak resident set size of this process plus its largest waited-for
    child (``getrusage``; kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _kernel(iterations: int) -> int:
    """Fixed interpreter work on a small table: integer arithmetic and
    dict lookups and stores.  It allocates no garbage-collected
    objects, so its time does not grow with the size of the program's
    heap."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 63
        total += table.get(key, i) & 7
        table[key] = total ^ i
    return total


class Sampler:
    """Speed samples taken by a ``SIGALRM`` handler while started.

    Python runs the handler in the main thread between bytecodes, so a
    sample that starts inside an interval the main thread timed also
    ends inside it; :meth:`stolen` is the time to take out again.
    """

    def __init__(self) -> None:
        #: per sample: perf_counter when the handler started, the
        #: handler's seconds, and the timed kernel's milliseconds
        self.starts: List[float] = []
        self.handler_s: List[float] = []
        self.kernel_ms: List[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        _kernel(WARM_UP)
        timed = time.perf_counter()
        _kernel(KERNEL)
        ended = time.perf_counter()
        self.starts.append(started)
        self.handler_s.append(ended - started)
        self.kernel_ms.append((ended - timed) * 1000.0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _inside(self, start: float, end: float) -> Tuple[int, int]:
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_left(self.starts, end))

    def stolen(self, start: float, end: float) -> float:
        """Seconds the handler ran inside ``[start, end]``."""
        first, last = self._inside(start, end)
        return sum(self.handler_s[first:last])

    def factor(self, start: float, end: float) -> float:
        """Reference speed / speed over ``[start, end]``: the mean
        kernel time of the samples inside it and the :data:`NEAREST`
        on each side."""
        first, last = self._inside(start, end)
        picks = self.kernel_ms[max(first - NEAREST, 0):last + NEAREST]
        if not picks:
            raise RuntimeError("no speed sample was taken")
        return REFERENCE_MS / (sum(picks) / len(picks))

    def seconds(self, start: float, end: float, raw: bool) -> float:
        """``[start, end]`` without the handler's time, scaled to the
        reference speed unless ``raw``."""
        own = end - start - self.stolen(start, end)
        return own if raw else own * self.factor(start, end)


class Run:
    """Samples, attempts and failures of one benchmark run."""

    def __init__(self, tracer, error_types: Tuple[type, ...] = ()) -> None:
        #: the span recorder (disabled outside the traced loop): each
        #: operation is one request
        self.tracer = tracer
        #: exceptions that count an operation as failed instead of
        #: ending the run (the program's typed endpoint errors)
        self.error_types = error_types
        self.sampler = Sampler()
        #: kind -> (start, end) of every successful operation
        self.spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, kind: str, call: Callable[[], object],
           check: Optional[Callable[[object], Optional[str]]] = None,
           label: str = "") -> object:
        """Time ``call()`` as one ``kind`` operation, then ``check`` its
        result (untimed, untraced); ``check`` returns a problem string
        or None.  ``label`` tags the request in the trace."""
        tracer = self.tracer
        self.attempted += 1
        tracer.start_request(kind, label)
        started = time.perf_counter()
        try:
            result = call()
        except self.error_types as error:
            self.fail(kind, f"{type(error).__name__}: {error}")
            return None
        finally:
            ended = time.perf_counter()
            tracer.end_request()
        self.spans[kind].append((started, ended))
        if check is not None:
            with tracer.paused():
                problem = check(result)
            if problem:
                self.fail(kind, problem)
        return result

    def fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {problem}")

    def _ms(self, span: Tuple[float, float], raw: bool) -> float:
        return self.sampler.seconds(*span, raw) * 1000.0

    def values(self, *kinds: str, raw: bool = False) -> List[float]:
        """Milliseconds of every operation of ``kinds``, scaled to the
        reference speed unless ``raw``."""
        return [self._ms(span, raw) for kind in kinds
                for span in self.spans[kind]]

    def operations(self) -> int:
        return sum(len(spans) for spans in self.spans.values())

    def summed(self, first: int, last: int, raw: bool = False) -> float:
        """Summed milliseconds of the operations numbered ``first`` to
        ``last - 1`` in start order (one cycle of the loop)."""
        ordered = sorted(span for spans in self.spans.values()
                         for span in spans)[first:last]
        return sum(self._ms(span, raw) for span in ordered)

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed / max(self.attempted, 1)


def timed_setups(count: int, build: Callable[[], object],
                 release: Callable[[object], None], sampler: Sampler
                 ) -> Tuple[object, List[float], List[float]]:
    """Run ``build()`` ``count`` times and keep the last state; earlier
    states are released (untimed) before the next build so they do not
    add to peak memory.  Returns the state and every set-up's duration
    in seconds, scaled and raw."""
    scaled: List[float] = []
    raw: List[float] = []
    state = None
    for _ in range(count):
        if state is not None:
            release(state)
            state = None
        started = time.perf_counter()
        state = build()
        span = (started, time.perf_counter())
        raw.append(sampler.seconds(*span, raw=True))
        scaled.append(sampler.seconds(*span, raw=False))
    return state, scaled, raw


def metric(value: float, unit: str) -> Dict[str, object]:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}


def emit(run: Run, metrics: Dict[str, Dict[str, object]]) -> int:
    """Print the result line (the last line of stdout); the exit code
    is 0 only when every operation was correct."""
    for problem in run.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1
