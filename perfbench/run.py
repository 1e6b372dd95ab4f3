"""The repository benchmark: run one workload, verify it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload store_abd_chaos --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload's cell for ``--seconds`` seconds and
prints the end-to-end metrics; ``--trace 1`` runs the cell once untraced,
then repeats it under the layer tracer and prints the per-layer metrics.
Every repetition is verified: its checker verdict must be ``None``, its
operation and reconfiguration errors empty, and its history signature hash
and exact event/message counts equal to the first repetition's.  A traced
run must also match the untraced one exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Host facts, every
repetition and (traced) the span aggregates and a raw span sample are
written to ``.perfbench_out/`` at the repository root.  Exit codes: 0 when
every check passed, 1 when a check failed, 2 when the program could not be
imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Seconds of calibration loop run before the first repetition and after
#: every repetition.
PROBE_SECONDS = 0.2


def _import_program() -> None:
    """Put the program (``src``) and the scale scenario on the path."""
    for path in (HERE, ROOT / "benchmarks", ROOT / "src"):
        sys.path.insert(0, str(path))
    import bench_scale  # noqa: F401
    import perf_report  # noqa: F401
    import repro  # noqa: F401


def peak_rss_mb() -> float:
    """Lifetime peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts() -> dict:
    """What the figures depend on besides the code: cores, Python, host speed."""
    from perf_report import calibration_probe

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "platform": platform.platform(),
            "calibration_ops_per_s": calibration_probe()}


def host_rate() -> float:
    """This host's current speed: iterations per second of a fixed
    pure-Python loop (the body of ``perf_report.calibration_probe``), as a
    mean over ``PROBE_SECONDS`` rather than a best-of, so that it follows
    the host's slow and fast periods the way a repetition does.  The heap
    is collected first and the collector is off while the loop runs, so the
    rate does not depend on the garbage the program left behind."""
    gc.collect()
    gc.disable()
    try:
        iterations = 0
        total = 0
        bucket: dict = {}
        pair = (0, 0)
        start = time.perf_counter()
        while time.perf_counter() - start < PROBE_SECONDS:
            for i in range(20_000):
                key = i & 1023
                bucket[key] = bucket.get(key, 0) + i
                if (i & 511, key) > pair:
                    pair = (i & 511, key)
                total += i
            iterations += 20_000
        return iterations / (time.perf_counter() - start)
    finally:
        gc.enable()


def _fresh() -> None:
    """Start every repetition alike: cold value caches, collected heap."""
    from repro.common.values import payload_cache_clear
    from repro.erasure.rs import decode_cache_clear

    payload_cache_clear()
    decode_cache_clear()
    gc.collect()


def repeat(cell, seconds: float, wrap=lambda fn: fn, **kwargs) -> list:
    """Run ``cell(**kwargs)`` at least once and until ``seconds`` are used up.

    The host's speed is measured before the first repetition and after each
    one; a repetition's ``host_rate`` is the mean of the two around it.  A
    new repetition starts only if the median repetition so far still fits.
    """
    cells = []
    durations = []
    start = time.perf_counter()
    rate = host_rate()
    while True:
        began = time.perf_counter()
        _fresh()
        result = wrap(cell)(**kwargs)
        after = host_rate()
        result.host_rate = (rate + after) / 2
        rate = after
        cells.append(result)
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return cells


def consistency_failures(reference, cells, what: str) -> list:
    """Every way ``cells`` differ from ``reference`` or failed verification."""
    failures = []
    expected = reference.exact_counts()
    for index, cell in enumerate(cells):
        failures.extend(cell.failures)
        if cell.signature != reference.signature:
            failures.append(f"{what} repetition {index}: signature "
                            f"{cell.signature[:16]} != {reference.signature[:16]}")
        counts = cell.exact_counts()
        if counts != expected:
            failures.append(f"{what} repetition {index}: exact counts differ: "
                            f"{counts} != {expected}")
    return failures


def run_untraced(cell, seconds: float) -> dict:
    from metrics import (END_TO_END, FAILED_OP_RATIO, beyond_p99, end_to_end,
                         host_scale, ops_per_s, tail_note)

    cells = repeat(cell, seconds)
    failures = consistency_failures(cells[0], cells, "untraced")
    values = end_to_end(cells, peak_rss_mb())
    reads = sum(len(run.read_latencies) for run in cells[0].runs)
    writes = sum(len(run.write_latencies) for run in cells[0].runs)
    raw = statistics.median(ops_per_s(c) for c in cells)
    notes = {
        "setup_s": "median, reference host; " + tail_note(
            [c.setup_s / host_scale(c) for c in cells], False),
        "ops_per_s": f"median, reference host (raw {raw:.1f}); " + tail_note(
            [ops_per_s(c) * host_scale(c) for c in cells], True),
        "read_latency_p99_vt": f"{reads} reads, {beyond_p99(reads)} beyond p99",
        "write_latency_p99_vt": f"{writes} writes, {beyond_p99(writes)} beyond p99",
    }
    units = {name: unit for name, unit, _ in END_TO_END + (FAILED_OP_RATIO,)}
    for name, value in values.items():
        print(f"{name:<30} {value:>14.6f} {units[name]:<8} {notes.get(name, '')}")
    return {"failures": failures, "cells": cells,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in END_TO_END}}


def run_traced(cell, seconds: float, trace_path: pathlib.Path) -> dict:
    from metrics import PER_LAYER, host_scale, ops_per_s, per_layer
    from tracing import Tracer

    started = time.perf_counter()
    base = repeat(cell, 0.0, setup_samples=0)[0]
    remaining = max(0.0, seconds - (time.perf_counter() - started))
    tracer = Tracer()

    def traced(fn):
        tracer.new_cell()
        return tracer.timed("bench.cell", fn)

    with tracer:
        cells = repeat(cell, remaining, wrap=traced, setup_samples=0)
    failures = consistency_failures(base, [base] + cells, "traced")
    seen = dict(tracer.per_kind)
    recorded = {}
    for traced_cell in cells:
        for run in traced_cell.runs:
            for kind, count in run.per_kind.items():
                recorded[kind] = recorded.get(kind, 0) + count
    if seen != recorded:
        failures.append(f"traced per-kind counts {seen} != TrafficStats {recorded}")
    values = per_layer(tracer, cells, ops_per_s(base) * host_scale(base))
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in values.items():
        print(f"{name:<46} {value:>14.6f} {units[name]}")
    wall = tracer.span("bench.cell")[1]
    attributed = sum(tracer.layer_self_seconds().values())
    print(f"traced wall {wall:.3f} s over {len(cells)} repetitions; "
          f"summed layer self time {attributed:.3f} s")
    trace_path.write_text(json.dumps(tracer.report()) + "\n")
    return {"failures": failures, "cells": [base] + cells,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in PER_LAYER}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    from metrics import failed_ops
    from workloads import WORKLOADS, make_cell

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_facts()
    print(f"host: {json.dumps(host)}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cell = make_cell(args.workload, args.seed)
    if args.trace:
        outcome = run_traced(cell, args.seconds, OUT_DIR / f"{stem}.spans.json")
    else:
        outcome = run_untraced(cell, args.seconds)
    failures = outcome["failures"]
    cells = outcome["cells"]
    reference = cells[0]
    print(f"signature {reference.signature} over {len(cells)} repetitions")
    for failure in failures:
        print(f"FAILED: {failure}")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "signature": reference.signature,
        "exact_counts": reference.exact_counts(),
        "repetitions": [{"setup_s": c.setup_s, "run_s": c.run_s, "ops": c.ops,
                         "host_rate": c.host_rate} for c in cells],
        "metrics": outcome["metrics"], "failures": failures,
    }, indent=1) + "\n")
    print(json.dumps({"correct": not failures,
                      "attempted": sum(c.planned_ops for c in cells),
                      "failed": failed_ops(cells), "metrics": outcome["metrics"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
