"""Micro-benchmarks of the four SimRank algorithms on one dataset.

These are the per-query building blocks of Fig. 9: the wall-clock time of a
single similarity query with Baseline, Sampling, SR-TS and SR-SP on the
Net-like analogue dataset.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.baseline import baseline_simrank
from repro.core.batch_walks import (
    KEYED_CHUNK_MIN_ROWS,
    keyed_chunk_rows,
    sample_walk_matrix_keyed,
)
from repro.core.engine import SimRankEngine
from repro.core.sampling import sampling_simrank
from repro.core.speedup import FilterVectors
from repro.core.two_phase import two_phase_simrank
from repro.core.walks import AlphaCache
from repro.datasets.registry import load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.generators import random_vertex_pairs, related_vertex_pairs, rmat_uncertain

from bench_config import BENCH_NUM_WALKS, QUICK, SWEEP_GRAPH_SIZE
from tests.oracles import scalar_sampling_simrank

ITERATIONS = 4
NUM_WALKS = 300

#: The paper's N, used by the scalar-vs-keyed comparison benchmarks (reduced
#: when REPRO_BENCH_QUICK=1, see benchmarks/conftest.py).
BACKEND_NUM_WALKS = BENCH_NUM_WALKS


@pytest.fixture(scope="module")
def net_graph():
    return load_dataset("net")


@pytest.fixture(scope="module")
def query_pair(net_graph):
    return related_vertex_pairs(net_graph, 1, rng=5)[0]


@pytest.fixture(scope="module")
def shared_cache(net_graph):
    return AlphaCache(net_graph)


@pytest.fixture(scope="module")
def shared_filters(net_graph):
    return FilterVectors(net_graph, NUM_WALKS, rng=5)


@pytest.mark.paper_artifact("fig9-baseline")
def test_bench_baseline_single_query(benchmark, net_graph, query_pair, shared_cache):
    u, v = query_pair
    result = benchmark(
        baseline_simrank, net_graph, u, v, iterations=ITERATIONS, alpha_cache=shared_cache
    )
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("fig9-sampling")
def test_bench_sampling_single_query(benchmark, net_graph, query_pair):
    u, v = query_pair
    result = benchmark(
        sampling_simrank, net_graph, u, v, iterations=ITERATIONS, num_walks=NUM_WALKS, rng=7
    )
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("fig9-sr-ts")
def test_bench_two_phase_single_query(benchmark, net_graph, query_pair, shared_cache):
    u, v = query_pair
    result = benchmark(
        two_phase_simrank,
        net_graph,
        u,
        v,
        iterations=ITERATIONS,
        exact_prefix=1,
        num_walks=NUM_WALKS,
        rng=7,
        alpha_cache=shared_cache,
    )
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("fig9-sr-sp")
def test_bench_speedup_single_query(benchmark, net_graph, query_pair, shared_cache, shared_filters):
    u, v = query_pair
    result = benchmark(
        two_phase_simrank,
        net_graph,
        u,
        v,
        iterations=ITERATIONS,
        exact_prefix=1,
        num_walks=NUM_WALKS,
        rng=7,
        use_speedup=True,
        filters=shared_filters,
        alpha_cache=shared_cache,
    )
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("fig9-offline-filters")
def test_bench_filter_vector_construction(benchmark, net_graph):
    """The offline step of SR-SP: building the per-arc filter vectors."""
    filters = benchmark(FilterVectors, net_graph, NUM_WALKS, 11)
    assert len(filters) > 0


# -- scalar oracle vs keyed sampler on the scalability-sweep graphs -----------


@pytest.fixture(scope="module")
def sweep_graph():
    """An R-MAT graph from the Fig. 12 scalability sweep (smallest in quick mode)."""
    graph = rmat_uncertain(*SWEEP_GRAPH_SIZE, rng=43)
    CSRGraph.from_uncertain(graph)  # warm the snapshot cache for the keyed sampler
    return graph


@pytest.fixture(scope="module")
def sweep_pair(sweep_graph):
    return random_vertex_pairs(sweep_graph, 1, rng=5)[0]


@pytest.mark.paper_artifact("backend-sampling-python")
def test_bench_sampling_backend_python(benchmark, sweep_graph, sweep_pair):
    """The scalar oracle sampler of ``tests/oracles.py`` at the paper's N=1000."""
    u, v = sweep_pair
    score = benchmark(
        scalar_sampling_simrank,
        sweep_graph, u, v,
        iterations=ITERATIONS, num_walks=BACKEND_NUM_WALKS, rng=7,
    )
    assert 0.0 <= score <= 1.0


@pytest.mark.paper_artifact("backend-sampling-vectorized")
def test_bench_sampling_backend_vectorized(benchmark, sweep_graph, sweep_pair):
    """The keyed batch walk sampler at the paper's N=1000."""
    u, v = sweep_pair
    result = benchmark(
        sampling_simrank,
        sweep_graph, u, v,
        iterations=ITERATIONS, num_walks=BACKEND_NUM_WALKS, rng=7,
    )
    assert 0.0 <= result.score <= 1.0


@pytest.mark.paper_artifact("backend-speedup-ratio")
def test_bench_sampling_backend_speedup_ratio(benchmark, sweep_graph, sweep_pair):
    """Measured scalar-oracle / keyed-sampler ratio on the sampling hot path.

    The keyed batch walk sampler should beat the scalar sampler by an order
    of magnitude at N=1000; the exact ratio is machine-dependent, so the
    assertion keeps head-room while the measured value lands in the benchmark
    report (``extra_info``).
    """
    u, v = sweep_pair

    def measure(estimator, repeats: int) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            estimator(
                sweep_graph, u, v,
                iterations=ITERATIONS, num_walks=BACKEND_NUM_WALKS, rng=7,
            )
        return (time.perf_counter() - start) / repeats

    def compare():
        return measure(scalar_sampling_simrank, 2) / measure(sampling_simrank, 10)

    ratio = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["speedup_ratio"] = ratio
    # The measured ratio is the report (typically 10-30x); the assertion is
    # only a sanity floor so noisy or throttled machines don't fail the suite.
    assert ratio > 1.0


@pytest.mark.paper_artifact("keyed-chunk-heuristic")
def test_bench_keyed_chunk_heuristic_no_regression(benchmark):
    """Satellite pin: the shape-aware chunk heuristic never loses to the
    old fixed 2048-row chunking.

    Sparse short-walk sweeps used to serialize on tiny chunks — each chunk
    pays the Python-level step-loop overhead, and with few steps and few
    candidate arcs that overhead dominates the vectorized work.
    :func:`keyed_chunk_rows` budgets by candidate arcs (with a short-walk
    bonus) instead, so this workload runs in larger chunks, while dense
    graphs keep the measured 2048-row optimum.  The assertion is a
    no-regression floor (with noise head-room); the measured ratio lands in
    ``extra_info``.
    """
    # The smallest Fig. 12 sweep graph: sparse (average degree ~2.5), the
    # shape where the fixed chunk size serialized hardest.
    graph = rmat_uncertain(600, 1500, rng=43)
    csr = CSRGraph.from_uncertain(graph)
    length = 2  # short walks: the heuristic picks larger-than-minimum chunks
    degree = csr.num_arcs / csr.num_vertices
    assert keyed_chunk_rows(length, degree) > KEYED_CHUNK_MIN_ROWS
    rng = np.random.default_rng(11)
    count = 20_000 if QUICK else 60_000
    sources = rng.integers(0, csr.num_vertices, size=count).astype(np.int64)
    keys = rng.integers(0, 2**64, size=count, dtype=np.uint64)

    def time_best(chunk_rows) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            sample_walk_matrix_keyed(csr, sources, length, keys, chunk_rows=chunk_rows)
            best = min(best, time.perf_counter() - start)
        return best

    def compare() -> float:
        fixed = time_best(KEYED_CHUNK_MIN_ROWS)  # the old fixed chunking
        heuristic = time_best(None)
        return fixed / heuristic

    ratio = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["chunk_heuristic_speedup"] = ratio
    # >= 1.0 modulo noise: the heuristic must never regress the keyed sweep.
    assert ratio >= 0.8


@pytest.mark.paper_artifact("backend-batched-many")
def test_bench_engine_similarity_many_batched(benchmark, sweep_graph):
    """Batched multi-pair sampling: walk bundles shared across pairs."""
    pairs = random_vertex_pairs(sweep_graph, 12, rng=9)
    engine = SimRankEngine(
        sweep_graph, iterations=ITERATIONS, num_walks=BACKEND_NUM_WALKS, seed=13
    )
    results = benchmark.pedantic(
        engine.similarity_many, args=(pairs,), kwargs={"method": "sampling"},
        rounds=1, iterations=1,
    )
    assert len(results) == len(pairs)
    assert all(r.details.get("shared_bundles") for r in results)
