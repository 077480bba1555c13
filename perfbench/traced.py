"""The traced run: per-layer metrics and the tracing overhead.

The workload runs twice from fresh services over the same inputs, for half
of ``--seconds`` each: once untraced, for the reference CPU cost per query,
and once with every entry point of :func:`perfbench.layers.entry_points`
wrapped.  End-to-end metrics never come from here.  The run fails (exit
code 1, no result) if a wrapper that must fire on the workload recorded no
calls, or if layer self times plus the unattributed time miss the timed
wall by more than 5%.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import layers
from perfbench.spans import Tracer, reduce_spans

CLOSURE_TOLERANCE = 0.05


class TraceCheckFailed(Exception):
    """The traced run cannot vouch for its own numbers."""


def _pass(workloads, inputs, seconds):
    started = time.perf_counter()
    service, _ = workloads.start_service(inputs)
    try:
        phase = workloads.timed_phase(service, inputs, seconds)
    finally:
        service.close()
    return phase, started


def run(args, workloads, oracle, kernel_class: str, out: Path):
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed, out)
    try:
        reference, _ = _pass(workloads, inputs, args.seconds / 2)
        # The same seed rebuilds the same inputs, so both passes see the
        # same query stream and writes from their start.
        inputs = workloads.make_inputs(workload, args.seed, out)
        points = layers.entry_points(kernel_class)
        with Tracer(points) as tracer:
            phase, started = _pass(workloads, inputs, args.seconds / 2)
        attempted, failed, problems = oracle.check_phase(
            phase, inputs.path, workload.num_walks, workloads.PROGRAM_SEED
        )
    finally:
        inputs.path.unlink(missing_ok=True)
    tracer.write_jsonl(out / f"spans-{workload.name}-{args.seed}.jsonl")

    layer_map = layers.layer_of(points)
    timed = reduce_spans(tracer.spans, phase.window, layer_map)
    whole = reduce_spans(tracer.spans, (started, phase.window[1]), layer_map)
    reference_cpu = reference.cpu_s / reference.queries
    traced_cpu = phase.cpu_s / phase.queries
    overhead = 100.0 * (traced_cpu - reference_cpu) / reference_cpu
    values = layers.per_layer_metrics(
        timed, whole, phase.stats_before, phase.stats_after, overhead
    )

    wall_ms = 1000.0 * timed.wall
    print(f"per-layer self time, timed wall {wall_ms:.1f} ms")
    for layer, seconds in sorted(timed.layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:20} {1000.0 * seconds:12.1f} ms {seconds / timed.wall:7.1%}")
    print(
        f"  {'unattributed':20} {1000.0 * timed.unattributed:12.1f} ms "
        f"{timed.unattributed / timed.wall:7.1%}"
    )
    closure = timed.closure_error()
    print(f"  layer sum + unattributed misses the wall by {100.0 * closure:.2f}%")
    print(
        f"  tracing overhead {overhead:+.1f}% CPU per query "
        f"({1000.0 * reference_cpu:.2f} ms untraced)"
    )
    missing, predicted = layers.coverage(workload.name, timed)
    for line in predicted:
        print(f"  predicted zero: {line}")

    failures: List[str] = []
    if missing:
        failures.append(f"wrappers recorded no calls on {workload.name}: {missing}")
    if closure > CLOSURE_TOLERANCE:
        failures.append(f"layer table misses the timed wall by {100.0 * closure:.1f}%")
    if failures:
        raise TraceCheckFailed("; ".join(failures))

    metrics: Dict[str, Tuple[float, str, str]] = {
        name: (value, unit_of(name), f"{phase.queries} queries")
        for name, value in values.items()
    }
    return metrics, attempted, failed, problems, {"waves.traced": len(phase.waves)}


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ns_per_step"):
        return "ns"
    if name.endswith("_ms") or name.endswith("_ms_p50"):
        return "ms"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"
