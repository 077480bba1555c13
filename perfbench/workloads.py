"""The benchmark's workloads: inputs from a seed, set-up, and the timed loop.

Every workload runs against one in-process
:class:`~repro.service.service.SimilarityService` with the library defaults
for decay and iterations, program seed 7, one read worker and the serial
sampler.  One client thread drives a
closed loop in *waves*: it submits W queries back to back and starts the
next wave only after all W have resolved, so every wave coalesces into the
same batch.

The service only ever sees an edge-list file and the query stream; graph
generation happens before set-up and outside every timed region.

Every wall time the benchmark reports is net of hypervisor *steal*: the time
the host kept this machine's virtual CPUs off the physical ones, which
Linux counts per CPU in ``/proc/stat``.  On a shared virtual machine steal
comes and goes with other tenants' load; with the code unchanged it moved
``qps`` by 30% between runs minutes apart, and no program change can
affect it.  CPU time (``cpu_ms_per_query``) already leaves it out.
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.graphs import write_rmat_edge_list
from repro.graph.io import read_edge_list
from repro.service.service import (
    PairQuery,
    SimilarityService,
    TopKVertexQuery,
)
from repro.service.tenancy import MutationLog

#: The program seed of every service and oracle engine.
PROGRAM_SEED = 7

#: Seed of every workload graph and of the queries that are fixed per
#: workload.  The graphs are fixed so that the spread between runs measures
#: the program and the host, not which R-MAT graph a seed happened to draw:
#: on ``topk_ingest``, graphs drawn per seed moved set-up time by 2x.
GRAPH_SEED = 2016

#: Steady waves between two writes in ``topk_ingest``.
WAVES_PER_WRITE = 20

#: Add-edge operations per mutation log.
OPS_PER_WRITE = 4

#: ``cache_mb`` and ``peak_rss_mb`` are read after this many waves of the
#: timed phase, so that they measure a fixed amount of work and do not grow
#: with the number of waves a faster commit completes in the same time.
MEMORY_PROBE_WAVE = 100

#: Steady waves a latency run needs: p90 then has ten samples beyond it.
MIN_STEADY_WAVES = 100

#: An untraced run sets up at least this many times, and for at least
#: ``SETUP_MIN_SECONDS``; ``setup_s`` is the median.  Spreading a short
#: measurement over seconds matters on a host whose speed changes from one
#: second to the next.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 5.0

#: A workload that does not write in its timed phase makes at least this
#: many writes after it, for at least ``PROBE_MIN_SECONDS``, each followed
#: by one wave; ``fresh_ms`` is the median over them.
PROBE_MIN_WRITES = 5
PROBE_MIN_SECONDS = 5.0


TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def steal_seconds() -> float:
    """Steal so far on the CPUs this process may run on, in seconds.

    An idle virtual CPU accrues no steal, so while the benchmark is the only
    busy process the sum is the time its own threads were kept waiting.
    ``/proc/stat`` counts in clock ticks (10 ms); a difference of two
    readings is exact to one tick.  0.0 where the file cannot be read.
    """
    try:
        allowed = {f"cpu{index}" for index in os.sched_getaffinity(0)}
        with open("/proc/stat", encoding="ascii") as stat:
            ticks = sum(
                int(fields[8])
                for fields in map(str.split, stat)
                if fields and fields[0] in allowed and len(fields) > 8
            )
    except (OSError, ValueError, AttributeError):
        return 0.0
    return ticks / TICKS_PER_SECOND


@dataclass(frozen=True)
class Instant:
    """A wall-clock reading together with the steal counter."""

    wall: float
    steal: float

    @classmethod
    def now(cls) -> "Instant":
        steal = steal_seconds()
        return cls(time.perf_counter(), steal)

    def seconds_to(self, later: "Instant") -> float:
        """Wall seconds from here to ``later``, less the steal between them."""
        return (later.wall - self.wall) - (later.steal - self.steal)


@dataclass(frozen=True)
class Workload:
    name: str
    num_vertices: int
    num_edges: int
    num_walks: int
    wave: int
    #: Whether the timed phase writes (every ``WAVES_PER_WRITE`` waves).
    writes: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Every bundle need misses: the keyed walk kernel does the work.
        Workload("pair_cold", 4000, 40000, 1000, 4),
        # Batch-local SR-SP propagation over a hot set; no kernel calls.
        Workload("srsp_hot", 600, 7500, 1000, 8),
        # Indexed top-k beside writes that drop the bundles and the index.
        Workload("topk_ingest", 1000, 5000, 500, 4, writes=True),
    )
}


@dataclass
class Inputs:
    """Everything a run feeds the service, derived from the workload seed."""

    workload: Workload
    path: Path
    setup_query: object
    stream: Iterator[object]
    probes: Iterator[object]
    next_log: Callable[[], MutationLog]


def _pairs(vertices: Sequence[str]) -> List[PairQuery]:
    return [
        PairQuery(vertices[i], vertices[i + 1])
        for i in range(0, len(vertices) - 1, 2)
    ]


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload graph and build its query stream and write source.

    The set-up query and the queries of the waves that follow a write are
    fixed per workload, like the graph, so ``setup_s`` and ``fresh_ms``
    always time the same work; the seed draws the writes and the timed
    query stream of ``pair_cold`` and ``srsp_hot``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = write_rmat_edge_list(
        directory / f"{workload.name}-{seed}.edges",
        workload.num_vertices,
        workload.num_edges,
        GRAPH_SEED,
    )
    arcs = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            u, v, _ = line.split()
            arcs.add((u, v))
    labels = [str(vertex) for vertex in range(workload.num_vertices)]
    fixed = np.random.default_rng([GRAPH_SEED, 1])
    rng = np.random.default_rng([seed, 1])
    wave = workload.wave
    if workload.name == "pair_cold":
        # No endpoint repeats within a service: the set-up pair and the
        # probe wave are held out of the seeded stream.  The probe wave can
        # repeat, because the write before it drops every bundle.
        held_count = 2 + 2 * wave
        held = [
            labels[i] for i in fixed.choice(len(labels), held_count, replace=False)
        ]
        rest = sorted(set(labels) - set(held), key=int)
        shuffled = [rest[i] for i in rng.permutation(len(rest))]
        setup_query, *probe_pairs = _pairs(held)
        stream = iter(_pairs(shuffled))
        probes = itertools.cycle(probe_pairs)
    elif workload.name == "srsp_hot":
        hot = [labels[i] for i in fixed.choice(len(labels), 24, replace=False)]
        pairs = [
            PairQuery(u, v, method="speedup")
            for u, v in itertools.combinations(hot, 2)
        ]
        setup_query = pairs[0]
        probes = itertools.cycle(pairs[:wave])

        def rounds() -> Iterator[object]:
            while True:
                for index in rng.permutation(len(pairs)):
                    yield pairs[index]

        stream = rounds()
    else:
        # A vertex without out-arcs scores 0 against every candidate, so
        # top-k queries come from vertices with at least one out-arc.  Their
        # order is fixed too: one query's cost ranges over two orders of
        # magnitude, and a seeded order moved cpu_ms_per_query by 12%
        # between seeds.  The seed draws the writes.
        sources = sorted({u for u, _ in arcs}, key=int)
        chosen = [
            sources[i] for i in fixed.choice(len(sources), 1 + wave, replace=False)
        ]
        setup_query = TopKVertexQuery(chosen[0], 10)
        probes = itertools.cycle(
            [TopKVertexQuery(vertex, 10) for vertex in chosen[1:]]
        )
        order = [sources[i] for i in fixed.permutation(len(sources))]
        stream = (TopKVertexQuery(vertex, 10) for vertex in itertools.cycle(order))

    write_rng = np.random.default_rng([seed, 2])

    def next_log() -> MutationLog:
        log = MutationLog()
        while len(log) < OPS_PER_WRITE:
            u, v = (labels[i] for i in write_rng.choice(len(labels), 2, replace=False))
            if (u, v) not in arcs:
                arcs.add((u, v))
                log.add_edge(u, v, float(write_rng.uniform(0.05, 1.0)))
        return log

    return Inputs(workload, path, setup_query, stream, probes, next_log)


def start_service(inputs: Inputs) -> Tuple[SimilarityService, float]:
    """Set-up: edge-list file to the first answered query.

    Returns the service and the set-up seconds, net of steal.  The time
    covers parsing the file, the first epoch (CSR freeze), and whatever the
    first query builds: the SR-SP filters or the first top-k index.
    """
    started = Instant.now()
    graph = read_edge_list(inputs.path)
    service = SimilarityService(
        graph,
        seed=PROGRAM_SEED,
        num_walks=inputs.workload.num_walks,
        read_workers=1,
        executor="serial",
        num_workers=1,
    )
    service.submit(inputs.setup_query).result()
    return service, started.seconds_to(Instant.now())


@dataclass
class Answer:
    """One query of the run and what came back."""

    query: object
    result: object = None
    error: Optional[BaseException] = None
    done: float = 0.0


@dataclass
class Wave:
    kind: str  # "steady", "fresh" or "probe"
    submitted: float
    answers: List[Answer]
    #: Steal from the submit until the client saw the last answer.
    steal_s: float = 0.0

    @property
    def latencies_ms(self) -> List[float]:
        """Submit to done-callback per query, less the wave's steal.  The
        wave runs as one batch, so each query is charged all of it."""
        return [
            1000.0 * (answer.done - self.submitted - self.steal_s)
            for answer in self.answers
        ]

    @property
    def finished(self) -> float:
        return max(answer.done for answer in self.answers)


def run_wave(service: SimilarityService, queries: Sequence[object], kind: str) -> Wave:
    """Submit ``queries`` back to back; return once every one has resolved.

    Each query's latency runs from the wave's submit to its done-callback.
    The callback, not ``Future`` waiting, releases the client: waiters are
    woken before callbacks run, so waiting on the futures could read a
    completion time that has not been written yet.
    """
    answers = [Answer(query) for query in queries]
    remaining = [len(answers)]
    lock = threading.Lock()
    finished = threading.Event()

    def resolved(answer: Answer, future) -> None:
        answer.done = time.perf_counter()
        error = future.exception()
        if error is None:
            answer.result = future.result()
        else:
            answer.error = error
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                finished.set()

    steal_before = steal_seconds()
    wave = Wave(kind, time.perf_counter(), answers)
    for answer in answers:
        try:
            future = service.submit(answer.query)
        except Exception as error:  # refused at the door: a failed query
            answer.done, answer.error = time.perf_counter(), error
            with lock:
                remaining[0] -= 1
            continue
        future.add_done_callback(lambda future, answer=answer: resolved(answer, future))
    with lock:
        if remaining[0] == 0:
            finished.set()
    finished.wait()
    wave.steal_s = steal_seconds() - steal_before
    return wave


@dataclass
class TimedPhase:
    """What one timed phase measured."""

    wall_s: float
    #: Steal during the phase; ``qps`` divides by ``wall_s - steal_s``.
    steal_s: float
    cpu_s: float
    waves: List[Wave]
    fresh_ms: List[float]
    logs: List[Tuple[MutationLog, int]]
    stats_before: Dict[str, object]
    stats_after: Dict[str, object]
    cache_bytes: float
    window: Tuple[float, float]
    peak_rss_mb: float
    extra_waves: List[Wave] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return sum(len(wave.answers) for wave in self.waves)


def cache_bytes(stats: Dict[str, object]) -> float:
    """Bytes in the default tenant's bundle, top-k index and transition caches."""
    caches = stats["tenants"]["default"]["caches"]
    return float(sum(cache["bytes"] for cache in caches.values()))


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _take(stream: Iterator[object], count: int) -> List[object]:
    return list(itertools.islice(stream, count))


def _write_then_wave(
    service: SimilarityService, inputs: Inputs, queries: List[object], kind: str
) -> Tuple[Wave, float, MutationLog, int]:
    log = inputs.next_log()
    started = Instant.now()
    report = service.mutate(log)
    wave = run_wave(service, queries, kind)
    fresh_ms = 1000.0 * started.seconds_to(Instant(wave.finished, steal_seconds()))
    return wave, fresh_ms, log, report.version


def timed_phase(
    service: SimilarityService,
    inputs: Inputs,
    seconds: float,
    min_steady_waves: int = 0,
) -> TimedPhase:
    """Closed-loop waves for ``seconds`` (``topk_ingest`` also writes).

    The phase runs on past ``seconds`` until it holds ``min_steady_waves``
    steady waves, and ends early only if a stream of distinct queries runs
    out.
    """
    workload = inputs.workload
    gc.collect()
    stats_before = service.service_stats()
    waves: List[Wave] = []
    fresh_ms: List[float] = []
    logs: List[Tuple[MutationLog, int]] = []
    memory: Optional[Tuple[float, float]] = None
    steady_since_write = 0
    cpu_started = time.process_time()
    steal_started = steal_seconds()
    started = time.perf_counter()
    steady_waves = 0
    while (
        time.perf_counter() - started < seconds or steady_waves < min_steady_waves
    ):
        if workload.writes and steady_since_write == WAVES_PER_WRITE:
            queries = _take(inputs.probes, workload.wave)
            wave, fresh, log, version = _write_then_wave(
                service, inputs, queries, "fresh"
            )
            waves.append(wave)
            fresh_ms.append(fresh)
            logs.append((log, version))
            steady_since_write = 0
        else:
            queries = _take(inputs.stream, workload.wave)
            if len(queries) < workload.wave:
                break
            waves.append(run_wave(service, queries, "steady"))
            steady_waves += 1
            steady_since_write += 1
        if len(waves) == MEMORY_PROBE_WAVE:
            memory = (cache_bytes(service.service_stats()), peak_rss_mb())
    ended = time.perf_counter()
    steal_s = steal_seconds() - steal_started
    cpu_s = time.process_time() - cpu_started
    stats_after = service.service_stats()
    if memory is None:
        memory = (cache_bytes(stats_after), peak_rss_mb())
    return TimedPhase(
        wall_s=ended - started,
        steal_s=steal_s,
        cpu_s=cpu_s,
        waves=waves,
        fresh_ms=fresh_ms,
        logs=logs,
        stats_before=stats_before,
        stats_after=stats_after,
        cache_bytes=memory[0],
        window=(started, ended),
        peak_rss_mb=memory[1],
    )


def fresh_probes(service: SimilarityService, inputs: Inputs, phase: TimedPhase) -> None:
    """After the timed phase of a workload without writes: writes, each
    followed by one wave of the workload's own kind, for ``fresh_ms``."""
    if inputs.workload.writes:
        return
    started = time.perf_counter()
    while (
        len(phase.fresh_ms) < PROBE_MIN_WRITES
        or time.perf_counter() - started < PROBE_MIN_SECONDS
    ):
        queries = _take(inputs.probes, inputs.workload.wave)
        wave, fresh, log, version = _write_then_wave(service, inputs, queries, "probe")
        phase.extra_waves.append(wave)
        phase.fresh_ms.append(fresh)
        phase.logs.append((log, version))


def percentile(values: Sequence[float], share: float) -> float:
    """The ``share`` quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(
    phase: TimedPhase, setup_s: Sequence[float], verified: int, attempted: int
) -> Dict[str, Tuple[float, str, str]]:
    """Every end-to-end metric as ``name -> (value, unit, samples)``."""
    steady = [wave for wave in phase.waves if wave.kind == "steady"]
    latencies = [ms for wave in steady for ms in wave.latencies_ms]
    queries = phase.queries
    samples = f"{len(steady)} waves, {len(latencies)} queries"
    return {
        "qps": (
            queries / (phase.wall_s - phase.steal_s),
            "1/s",
            f"{queries} queries, {phase.steal_s:.2f} of {phase.wall_s:.2f} s stolen",
        ),
        "latency_p50_ms": (percentile(latencies, 0.5), "ms", samples),
        "latency_p90_ms": (percentile(latencies, 0.9), "ms", samples),
        "cpu_ms_per_query": (1000.0 * phase.cpu_s / queries, "ms", f"{queries} queries"),
        "fresh_ms": (
            statistics.median(phase.fresh_ms),
            "ms",
            f"{len(phase.fresh_ms)} writes: "
            + ", ".join(f"{value:.0f}" for value in phase.fresh_ms),
        ),
        "setup_s": (
            statistics.median(setup_s),
            "s",
            f"{len(setup_s)} set-ups: " + ", ".join(f"{value:.3f}" for value in setup_s),
        ),
        "peak_rss_mb": (phase.peak_rss_mb, "MB", "1 process"),
        "cache_mb": (phase.cache_bytes / 1e6, "MB", "1 reading"),
        "success_ratio": (verified / attempted, "ratio", f"{attempted} queries"),
    }
