"""Run one benchmark workload against an in-process SimilarityService.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload pair_cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs the workload twice from fresh services, first untraced and then
with every layer entry point wrapped (see ``perfbench/layers.py``), and
reports per-layer metrics; the CPU cost per query of the two passes gives
the tracing overhead.  Either way the answers are checked, a metric table
with units and sample counts is printed, and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Run files (the edge list, spans, a result record) go to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# Set before NumPy loads: the benchmark keeps at most two threads busy.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("pair_cold", "srsp_hot", "topk_ingest")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def probe_ms() -> float:
    """A fixed NumPy and pure-Python loop; its time tracks host speed."""
    import numpy as np

    values = np.random.default_rng(0).random(200_000)
    started = time.perf_counter()
    for _ in range(5):
        np.sort(values)
    total = 0
    for number in range(300_000):
        total += number * number
    return 1000.0 * (time.perf_counter() - started)


def probe_in_child() -> float:
    """:func:`probe_ms` in a child process, which has ended on return.

    Run in the benchmark's own process, the probe's allocations changed how
    fast the program ran afterwards: in most runs ``topk_ingest`` steady
    queries were 30-40% slower for the rest of the process.
    """
    child = subprocess.run(
        [sys.executable, "-c", "from perfbench.run import probe_ms; print(probe_ms())"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(child.stdout)


def run_untraced(args, workloads, oracle) -> Tuple[Dict, int, int, List[str], Dict]:
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed, OUT)
    service = None
    try:
        service, seconds = workloads.start_service(inputs)
        setup_s = [seconds]
        phase = workloads.timed_phase(
            service, inputs, args.seconds, workloads.MIN_STEADY_WAVES
        )
        # Steal as a share of one CPU over the phase: about the share of the
        # busy thread's time the host took.
        host = {"host.steal_pct": 100.0 * phase.steal_s / phase.wall_s}
        workloads.fresh_probes(service, inputs, phase)
        service.close()
        # The other set-ups come after the timed phase, so that the phase's
        # memory readings see one service only.
        while (
            len(setup_s) < workloads.SETUP_REPEATS
            or sum(setup_s) < workloads.SETUP_MIN_SECONDS
        ):
            gc.collect()
            service, seconds = workloads.start_service(inputs)
            setup_s.append(seconds)
            service.close()
        service = None
        attempted, failed, problems = oracle.check_phase(
            phase, inputs.path, workload.num_walks, workloads.PROGRAM_SEED
        )
    finally:
        if service is not None:
            service.close()
        inputs.path.unlink(missing_ok=True)
    metrics = workloads.end_to_end(phase, setup_s, attempted - failed, attempted)
    host["waves.steady"] = sum(1 for wave in phase.waves if wave.kind == "steady")
    return metrics, attempted, failed, problems, host


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    from perfbench import oracle, workloads
    from repro.core.kernels import resolve_kernel

    OUT.mkdir(exist_ok=True)
    kernel = resolve_kernel()
    host: Dict[str, object] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel": kernel.name,
        "host.probe_ms": probe_in_child(),
    }
    if args.trace:
        from perfbench import traced

        try:
            metrics, attempted, failed, problems, extra = traced.run(
                args, workloads, oracle, type(kernel).__name__, OUT
            )
        except traced.TraceCheckFailed as failure:
            print(f"perfbench: {failure}", file=sys.stderr)
            return 1
    else:
        metrics, attempted, failed, problems, extra = run_untraced(
            args, workloads, oracle
        )
    host.update(extra)

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}"
    )
    print("host " + "  ".join(f"{key} {value}" for key, value in host.items()))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"{'metric':32} {'value':>14} {'unit':6} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32} {value:14.4f} {unit:6} {samples}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "problems": problems,
        "metrics": {name: list(entry) for name, entry in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
