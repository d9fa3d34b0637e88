#!/usr/bin/env python3
"""The repository benchmark: QB2OLAP workloads timed end to end, or
traced layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload ql_session --seed 1 --seconds 10
    python3 perfbench/run.py --workload agg_scan --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
loop untraced for half of ``--seconds`` and traced for the other half,
prints every per-layer metric with the tracing overhead, and writes the
spans to ``.perfbench_out/``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload is a closed loop with one client: the next operation
starts when the previous one has finished.  The loop runs whole cycles
of the workload's operation mix until ``--seconds`` have passed.  After
it every endpoint and worker pool is closed, and a shared-memory
segment the process left behind fails the run.

The workload runs in a child process group that this script supervises:
when the child has exited, every process it left behind (the
multiprocessing resource tracker outlives its parent for a moment) is
waited for, and killed if it has not ended within :data:`GRACE_S`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

WORKLOADS = ("ql_session", "enrich", "agg_scan")
#: files of the program under test, relative to the repository root
PROGRAM = (os.path.join("src", "repro", "__init__.py"),
           os.path.join("benchmarks", "bench_e3_querying.py"))

#: the end-to-end metrics every workload reports under these shared
#: names (the tables also print each workload's own names for them)
END_TO_END = ("setup_s", "peak_rss_mb", "ok_share", "p50_ms", "tail_ms",
              "alt_p50_ms", "work_s")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
         "p50_ms": "ms", "tail_ms": "ms", "alt_p50_ms": "ms",
         "work_s": "s"}
#: set in the supervised child's environment
CHILD_ENV = "PERFBENCH_SUPERVISED"
#: how long processes left behind by the child may take to end
GRACE_S = 20.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (peak memory is per process)."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or completed.returncode
    return status


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so that they can be reaped
    here; elsewhere the system reaps them."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_group(group: int) -> None:
    """Wait until no process of ``group`` is left, killing the group
    after :data:`GRACE_S` seconds."""
    deadline = time.monotonic() + GRACE_S
    killed = False
    while True:
        reap_children()
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        if time.monotonic() >= deadline:
            if killed:
                print(f"perfbench: processes of group {group} did not end",
                      file=sys.stderr)
                return
            os.killpg(group, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def supervised(argv: List[str]) -> int:
    """Run this script with ``argv`` in a child process group and
    return its exit code once every process of the group has ended."""
    become_subreaper()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv],
        env={**os.environ, CHILD_ENV: "1"}, process_group=0)

    def forward(signum, _frame) -> None:
        try:
            os.killpg(child.pid, signum)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGTERM, forward)
    try:
        status = child.wait()
    finally:
        try:
            wait_group(child.pid)
        finally:
            signal.signal(signal.SIGTERM, previous)
    return status if status >= 0 else 128 - status


def counters(state) -> Dict[str, int]:
    """Parallel-executor telemetry, summed over the workload's
    executors (the per-layer ratios are deltas of it)."""
    out = {"queries": 0, "declined": 0, "agg_pushdown": 0}
    for executor in getattr(state, "executors", lambda: [])():
        for key in out:
            out[key] += executor.telemetry[key]
    return out


def loop(module, state, run, seconds: float) -> List[Tuple[int, int]]:
    """Whole cycles until ``seconds`` have passed (at least one);
    returns each cycle's range of operations."""
    deadline = time.perf_counter() + seconds
    cycles = []
    while True:
        first = run.operations()
        module.cycle(state, run)
        cycles.append((first, run.operations()))
        if time.perf_counter() >= deadline:
            return cycles


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, requests: set, setups: int,
                  delta: Dict[str, int], leaked: int, scale: float,
                  overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric, per timed operation of the traced loop;
    times are scaled to the reference speed by ``scale``."""
    ops = max(len(requests), 1)
    spans = tracer.totals(requests)

    def own_ms(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1] * 1000.0 * scale / ops

    def inclusive_ms(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2] * 1000.0 * scale / ops

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[0] / ops

    def counted(name: str) -> float:
        return tracer.counter(name, requests) / ops

    setup_spans = tracer.totals({0})
    check = inclusive_ms("qb.check")
    parse_hits = tracer.counter("sparql.parse_cache.hits", requests)
    parse_misses = tracer.counter("sparql.parse_cache.misses", requests)
    plan_hits = tracer.counter("sparql.plan_cache.hits", requests)
    plan_misses = tracer.counter("sparql.plan_cache.misses", requests)
    engaged = delta["queries"]
    return {
        "ql.parse_ms": own_ms("ql.parse"),
        "ql.simplify_ms": own_ms("ql.simplify"),
        "ql.translate_ms": own_ms("ql.translate"),
        "ql.cube_ms": own_ms("ql.cube"),
        "sparql.parse_ms": own_ms("sparql.parse"),
        "sparql.parse.calls": calls("sparql.parse"),
        "sparql.parse_cache.hit_ratio": ratio(parse_hits,
                                              parse_hits + parse_misses),
        "sparql.plan_ms": own_ms("sparql.plan"),
        "sparql.plan.calls": calls("sparql.plan"),
        "sparql.plan_cache.hit_ratio": ratio(plan_hits,
                                             plan_hits + plan_misses),
        "sparql.select_ms": own_ms("sparql.select"),
        "sparql.ask_ms": own_ms("sparql.ask"),
        "sparql.serialize_ms": own_ms("sparql.serialize"),
        "sparql.rows_examined_per_row": ratio(
            tracer.counter("rdf.examined", requests),
            tracer.counter("sparql.result_rows", requests)),
        "sparql.parallel.engaged_ratio": ratio(
            engaged, engaged + delta["declined"]),
        "sparql.parallel.agg_pushdown_ratio": ratio(
            delta["agg_pushdown"], engaged),
        "rdf.probe.calls": counted("rdf.probe.calls"),
        "rdf.probe_ms": own_ms("rdf.probe"),
        "rdf.scan.calls": counted("rdf.scan.calls"),
        "rdf.scan_ms": own_ms("rdf.scan"),
        "rdf.scan.rows": counted("rdf.scan.rows"),
        "rdf.id_scan.calls": counted("rdf.id_scan.calls"),
        "rdf.id_scan.rows": counted("rdf.id_scan.rows"),
        "rdf.insert.triples": counted("rdf.insert.triples"),
        "rdf.insert_ms": own_ms("rdf.insert"),
        "rdf.compact.calls": counted("rdf.compact.calls"),
        "rdf.compact_ms": own_ms("rdf.compact"),
        "rdf.snapshot.calls": calls("rdf.snapshot"),
        "rdf.snapshot_ms": own_ms("rdf.snapshot"),
        "rdf.cow_copies": counted("rdf.cow_copies"),
        "rdf.shm.export_ms": own_ms("rdf.shm.export"),
        "rdf.shm.leaked_segments": float(leaked),
        "olap.etl_ms": setup_spans.get("olap.etl", (0, 0.0, 0.0))[2]
        * 1000.0 * scale / max(setups, 1),
        "olap.native_ms": own_ms("olap.native"),
        "olap.parallel_ms": own_ms("olap.parallel"),
        "qb.normalize_ms": own_ms("qb.normalize"),
        "qb.check_ms": check,
        "qb.ic1_ms": inclusive_ms("qb.ic.IC-1"),
        "qb.ic12_ms": inclusive_ms("qb.ic.IC-12"),
        "qb.ic17_ms": inclusive_ms("qb.ic.IC-17"),
        "enrichment.redefine_ms": own_ms("enrichment.redefine"),
        "enrichment.discover_ms": own_ms("enrichment.discover"),
        "enrichment.enrich_ms": own_ms("enrichment.enrich"),
        "enrichment.generate_ms": own_ms("enrichment.generate"),
        "trace.overhead_pct": overhead_pct,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in PROGRAM if not os.path.isfile(path)]
    if missing:
        print(f"perfbench: run from the repository root; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if not os.environ.get(CHILD_ENV):
        return supervised(sys.argv[1:] if argv is None else list(argv))
    sys.path.insert(0, os.path.abspath("src"))

    from checks import leaked_segments
    from harness import Run, emit, median, metric, peak_rss_mb, \
        timed_setups
    from tracing import Tracer, install
    from repro.sparql.errors import EndpointError

    module = importlib.import_module(args.workload)
    tracer = Tracer()
    if args.trace:
        install(tracer)
        tracer.enabled = True
    run = Run(tracer, (EndpointError,))

    def release(state) -> None:
        state.close()
        gc.collect()

    setups = 1 if args.trace else module.SETUPS
    run.sampler.start()
    try:
        state, setup_scaled, setup_raw = timed_setups(
            setups, lambda: module.setup(args.seed, tracer), release,
            run.sampler)
        print(f"workload {args.workload}: seed={args.seed} "
              f"{json.dumps(state.describe())} client=closed-loop x1",
              file=sys.stderr)
        if args.trace:
            tracer.enabled = False
            plain = loop(module, state, run, args.seconds / 2)
            first = len(tracer.requests)
            before = counters(state)
            traced_from = time.perf_counter()
            tracer.enabled = True
            traced = loop(module, state, run, args.seconds / 2)
            tracer.enabled = False
            cycles = plain + traced
        else:
            cycles = loop(module, state, run, args.seconds)
    finally:
        run.sampler.stop()
    if args.trace:
        delta = {key: value - before[key]
                 for key, value in counters(state).items()}
        requests = {r for r in tracer.requests if r >= first}
        facts = module.facts(state, tracer, requests) \
            if hasattr(module, "facts") else []

    scaled = module.end_to_end(state, run, raw=False)
    raw = module.end_to_end(state, run, raw=True)
    release(state)
    leaked = leaked_segments()
    if leaked:
        run.fail("hygiene", f"{leaked} shared-memory segments leaked")

    if args.trace:
        def cycle_ms(ranges):
            return median([run.summed(a, b) for a, b in ranges])

        overhead = 100.0 * (cycle_ms(traced) / cycle_ms(plain) - 1.0)
        scale = median([run.sampler.factor(*span)
                        for spans in run.spans.values()
                        for span in spans if span[0] >= traced_from])
        values = layer_metrics(tracer, requests, setups, delta, leaked,
                               scale, overhead)
        path = tracer.write(args.workload, args.seed)
        tracer.uninstall()
        print(f"per-layer metrics, per operation ({len(requests)} traced "
              f"operations; spans in {path}; times scaled by "
              f"{scale:.3f} to the reference speed):")
        for name, value in values.items():
            print(f"  {name:38s} {value:14.4f} {name_unit(name)}")
        for line in facts:
            print(f"  fact: {line}")
        metrics = {name: metric(value, name_unit(name))
                   for name, value in values.items()}
        return emit(run, metrics)

    def session_s(raw_times: bool) -> float:
        return median([run.summed(a, b, raw_times)
                       for a, b in cycles]) / 1000.0

    values = {"setup_s": median(setup_scaled), "peak_rss_mb": peak_rss_mb(),
              "ok_share": run.ok_share}
    measured = {"setup_s": median(setup_raw), "peak_rss_mb": peak_rss_mb(),
                "ok_share": run.ok_share}
    for table, details, raw_times in ((values, scaled, False),
                                      (measured, raw, True)):
        table["work_s"] = details.pop("work_s", None) \
            or session_s(raw_times)
        for slot in ("p50_ms", "tail_ms", "alt_p50_ms"):
            table[slot] = details.pop(slot)
    print(f"end-to-end metrics ({run.attempted} operations, "
          f"{len(cycles)} cycles, set-ups "
          f"{', '.join(f'{d:.2f}' for d in setup_raw)} s as measured); "
          f"scaled to the reference speed, then as measured:")
    for name in END_TO_END:
        print(f"  {name:32s} {values[name]:12.4f} {measured[name]:12.4f} "
              f"{UNITS[name]}")
    print(f"  {'failed_share':32s} {1.0 - run.ok_share:12.4f} "
          f"{1.0 - run.ok_share:12.4f} share")
    for name, value in scaled.items():
        print(f"  {name:32s} {value:12.4f} {raw[name]:12.4f} "
              f"{name_unit(name)}")
    return emit(run, {name: metric(values[name], UNITS[name])
                      for name in END_TO_END})


def name_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"),
                         ("_percentile", "%")):
        if name.endswith(suffix):
            return unit
    if "ratio" in name or name.endswith("per_row"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
