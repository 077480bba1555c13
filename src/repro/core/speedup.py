"""The SR-SP speed-up technique (Section VI-D): shared sampling via bit vectors.

Instead of extending ``N`` sampled walks one by one, the speed-up technique
runs all ``N`` sampling processes simultaneously:

* every arc ``e = (w, x)`` carries a *filter vector* ``F_e`` of ``N`` bits —
  bit ``i`` is set when, in sampling process ``i``, the walk standing at ``w``
  would move to ``x`` (the out-arcs of ``w`` are instantiated once per
  process, and one instantiated arc is chosen uniformly);
* every vertex ``w`` carries a *counting table* ``M_w`` — ``M_w[k]`` is an
  ``N``-bit vector whose bit ``i`` is set when ``w`` is the ``k``-th vertex of
  the ``i``-th sampled walk.

One breadth-first propagation per endpoint then replaces ``N`` independent
walk extensions: ``M_x[k+1] |= M_w[k] & F_(w,x)``.  The meeting-probability
estimate (Eq. 16) is the popcount of ``M_w[k] & M'_w[k]`` summed over the
vertices reachable at step ``k`` from both endpoints.

Fidelity note (see DESIGN.md §5): the paper builds one set of filter vectors
and reuses it for both endpoints, which correlates the two walk bundles.  By
default this implementation draws an independent filter set per endpoint so
the estimator matches the Sampling algorithm's independence assumption;
``shared_filters=True`` restores the paper's exact behaviour.

The filter construction and the online propagation both run on the
:class:`~repro.graph.csr.CSRGraph` snapshot of the graph.  Filters are stored
once, as one ``(num_arcs, words)`` uint64 matrix; each propagation step is a
handful of numpy gather / AND / segmented-OR passes over the out-arcs of the
step's frontier (the vertices some process stands on), as in the paper's
Fig. 5.  The per-vertex bit-vector formulation of the same propagation is
kept as the test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Hashable, List

import numpy as np

from repro.core.simrank import (
    DEFAULT_DECAY,
    DEFAULT_ITERATIONS,
    SimRankResult,
    simrank_from_meeting_probabilities,
    validate_decay,
    validate_iterations,
)
from repro.graph.csr import CSRGraph
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState, ensure_rng

Vertex = Hashable

#: Default number of simultaneous sampling processes (the paper's ``N``).
DEFAULT_NUM_PROCESSES = 1000


def _pack_bool_rows(flags: np.ndarray, words: int) -> np.ndarray:
    """Pack a ``(rows, bits)`` boolean matrix into ``(rows, words)`` uint64.

    Little bit order: column ``i`` lands in word ``i // 64`` at bit
    ``i % 64``.
    """
    packed_bytes = np.packbits(flags, axis=1, bitorder="little")
    padded = np.zeros((flags.shape[0], words * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view(np.uint64)


class FilterVectors:
    """Per-arc filter vectors for ``num_processes`` simultaneous samples.

    Construction is the "offline" step of the paper: for every vertex and
    every sampling process, the out-arcs are instantiated independently with
    their existence probabilities and one instantiated arc is chosen uniformly
    at random.  Bit ``i`` of the filter vector of arc ``(w, x)`` records that
    process ``i`` chose to move from ``w`` to ``x``.

    The whole construction is one batch of vectorised draws over the CSR arc
    arrays: existence is an ``(num_arcs, N)`` Bernoulli matrix, and the
    uniform choice per (vertex, process) is resolved with a segmented
    cumulative-count trick instead of per-vertex Python loops.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        num_processes: int,
        rng: RandomState = None,
        csr: CSRGraph | None = None,
    ):
        if num_processes < 1:
            raise InvalidParameterError(
                f"num_processes must be >= 1, got {num_processes}"
            )
        self._graph = graph
        # An explicit csr pins the filters to that exact snapshot — required
        # when building from an epoch-pinned EngineCaches whose dict graph
        # may already have moved on.
        self._csr = csr if csr is not None else CSRGraph.from_uncertain(graph)
        self._num_processes = num_processes
        self._words = (num_processes + 63) // 64
        self._packed = np.zeros((self._csr.num_arcs, self._words), dtype=np.uint64)
        self._num_nonzero = 0
        self._build(ensure_rng(rng))

    #: Cap on the size of the dense (processes × arcs) temporaries of one
    #: build chunk (~128 MB of float64); keeps peak memory bounded on large
    #: graphs.  Chunks are multiples of 64 so each packs into disjoint words.
    _BUILD_CHUNK_CELLS = 1 << 24

    def _build(self, rng: np.random.Generator) -> None:
        csr = self._csr
        arcs, n = csr.num_arcs, self._num_processes
        if arcs == 0:
            return
        degrees = csr.out_degrees()
        nonempty = degrees > 0
        starts = csr.indptr[:-1][nonempty]
        segment_of_arc = np.repeat(np.arange(starts.size), degrees[nonempty])
        chunk = max(64, (self._BUILD_CHUNK_CELLS // arcs) // 64 * 64)
        any_chosen = np.zeros(arcs, dtype=bool)
        for first in range(0, n, chunk):
            block = min(chunk, n - first)
            chosen = self._build_block(rng, block, starts, segment_of_arc)
            word = first // 64
            packed = _pack_bool_rows(np.ascontiguousarray(chosen.T), (block + 63) // 64)
            self._packed[:, word : word + packed.shape[1]] = packed
            any_chosen |= chosen.any(axis=0)
        self._num_nonzero = int(any_chosen.sum())

    def _build_block(
        self,
        rng: np.random.Generator,
        block: int,
        starts: np.ndarray,
        segment_of_arc: np.ndarray,
    ) -> np.ndarray:
        """Sample the filter bits of ``block`` processes over every arc.

        Process-major layout: all segmented ops run along the contiguous arc
        axis, with one CSR segment per vertex's out-arc slice.
        """
        csr = self._csr
        exists = rng.random((block, csr.num_arcs)) < csr.probs[None, :]
        # k = number of instantiated out-arcs per (vertex, process); pick one
        # uniformly and locate it by its within-segment running count.
        exists_counts = exists.astype(np.int64)
        counts = np.add.reduceat(exists_counts, starts, axis=1)
        picks = (rng.random(counts.shape) * counts).astype(np.int64)
        cumulative = exists_counts.cumsum(axis=1)
        segment_base = cumulative[:, starts] - exists_counts[:, starts]
        within = cumulative - segment_base[:, segment_of_arc]
        return exists & (within == picks[:, segment_of_arc] + 1)

    @property
    def num_processes(self) -> int:
        """Number of simultaneous sampling processes encoded in each vector."""
        return self._num_processes

    @property
    def graph(self) -> UncertainGraph:
        """The graph the filter vectors were built for."""
        return self._graph

    @property
    def csr(self) -> CSRGraph:
        """The frozen snapshot the filters were sampled on."""
        return self._csr

    @property
    def packed(self) -> np.ndarray:
        """``(num_arcs, words)`` uint64 filter bits in CSR arc order."""
        return self._packed

    def ones_mask(self) -> np.ndarray:
        """Packed all-ones vector over the ``num_processes`` bits."""
        return _pack_bool_rows(
            np.ones((1, self._num_processes), dtype=bool), self._words
        )[0]

    def __len__(self) -> int:
        return self._num_nonzero


def propagate_packed_tables(
    source: Vertex,
    steps: int,
    filters: FilterVectors,
) -> np.ndarray:
    """Propagate the counting tables of ``source`` for ``steps`` steps.

    Returns a ``(steps + 1, n, words)`` uint64 array ``tables`` with
    ``tables[k][w]`` the packed bit vector recording in which sampling
    processes vertex ``w`` is the ``k``-th vertex of the walk from ``source``
    (``M_w[k]`` of the paper); ``tables[0][source]`` is all ones.  Each step
    visits only the out-arcs of its frontier — the vertices with a non-zero
    vector — with one gather, one AND with the packed filter bits, and one
    destination-grouped OR reduction.
    """
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    csr = filters.csr
    if not csr.has_vertex(source):
        raise InvalidParameterError(f"source vertex {source!r} is not in the graph")
    tables = np.zeros((steps + 1, csr.num_vertices, filters.packed.shape[1]), dtype=np.uint64)
    tables[0, csr.index_of(source)] = filters.ones_mask()
    if csr.num_arcs == 0:
        return tables
    # Arcs in destination-grouped (CSC) order: any subset keeps each
    # destination's arcs contiguous, ready for a segmented reduction.
    permutation, _, _ = csr.csc_groups()
    arc_sources = csr.arc_sources()[permutation]
    arc_targets = csr.indices[permutation]
    frontier = np.zeros(csr.num_vertices, dtype=bool)
    frontier[csr.index_of(source)] = True
    for step in range(steps):
        arcs = np.flatnonzero(frontier[arc_sources])
        if arcs.size == 0:
            break
        targets = arc_targets[arcs]
        starts = np.flatnonzero(np.concatenate(([True], targets[1:] != targets[:-1])))
        # np.take gathers whole rows several times faster than fancy indexing.
        contribution = np.take(tables[step], arc_sources[arcs], axis=0)
        contribution &= np.take(filters.packed, permutation[arcs], axis=0)
        reached = np.bitwise_or.reduceat(contribution, starts, axis=0)
        destinations = targets[starts]
        tables[step + 1][destinations] = reached
        frontier[:] = False
        frontier[destinations] = reached.any(axis=1)
    return tables


def packed_meeting_probabilities(
    tables_u: np.ndarray,
    tables_v: np.ndarray,
    num_processes: int,
    u: Vertex,
    v: Vertex,
) -> List[float]:
    """Eq. 16 on packed counting tables: popcount of the per-vertex ANDs."""
    if tables_u.shape != tables_v.shape:
        raise InvalidParameterError("counting tables must cover the same number of steps")
    hits = np.bitwise_count(tables_u[1:] & tables_v[1:]).sum(axis=(1, 2), dtype=np.int64)
    return [1.0 if u == v else 0.0] + (hits / num_processes).tolist()


def speedup_meeting_probabilities(
    graph: UncertainGraph,
    u: Vertex,
    v: Vertex,
    iterations: int,
    num_processes: int = DEFAULT_NUM_PROCESSES,
    rng: RandomState = None,
    shared_filters: bool = False,
    filters: FilterVectors | None = None,
    filters_v: FilterVectors | None = None,
) -> List[float]:
    """Estimate ``m(0) … m(n)`` with the bit-vector propagation of SR-SP.

    ``filters`` (and optionally ``filters_v``) may be passed to reuse
    offline-constructed filter sets — the paper builds them once per graph and
    reuses them for every query.  ``filters`` drives the ``u``-side bundle;
    the ``v``-side bundle uses, in order of precedence, the same set when
    ``shared_filters=True``, the explicit ``filters_v``, or a freshly drawn
    set.
    """
    iterations = validate_iterations(iterations)
    generator = ensure_rng(rng)
    filters_u = filters if filters is not None else FilterVectors(graph, num_processes, generator)
    if filters_u.num_processes != num_processes:
        num_processes = filters_u.num_processes
    if shared_filters:
        filters_v = filters_u
    elif filters_v is None:
        filters_v = FilterVectors(graph, num_processes, generator)
    elif filters_v.num_processes != num_processes:
        raise InvalidParameterError(
            "filters and filters_v must encode the same number of sampling processes"
        )
    tables_u = propagate_packed_tables(u, iterations, filters_u)
    tables_v = propagate_packed_tables(v, iterations, filters_v)
    return packed_meeting_probabilities(tables_u, tables_v, num_processes, u, v)


def speedup_simrank(
    graph: UncertainGraph,
    u: Vertex,
    v: Vertex,
    decay: float = DEFAULT_DECAY,
    iterations: int = DEFAULT_ITERATIONS,
    num_processes: int = DEFAULT_NUM_PROCESSES,
    rng: RandomState = None,
    shared_filters: bool = False,
    filters: FilterVectors | None = None,
    filters_v: FilterVectors | None = None,
) -> SimRankResult:
    """SimRank estimate using the SR-SP bit-vector sampling for every step.

    This is the Speedup algorithm of Fig. 5 applied to the plain sampling
    estimator; the two-phase variant (exact prefix + sped-up tail) lives in
    :func:`repro.core.two_phase.two_phase_simrank` with ``use_speedup=True``.
    """
    decay = validate_decay(decay)
    iterations = validate_iterations(iterations)
    if not graph.has_vertex(u) or not graph.has_vertex(v):
        raise InvalidParameterError(f"both query vertices must be in the graph: {u!r}, {v!r}")
    if filters is not None:
        num_processes = filters.num_processes
    meeting = speedup_meeting_probabilities(
        graph,
        u,
        v,
        iterations,
        num_processes=num_processes,
        rng=rng,
        shared_filters=shared_filters,
        filters=filters,
        filters_v=filters_v,
    )
    score = simrank_from_meeting_probabilities(meeting, decay)
    return SimRankResult(
        u=u,
        v=v,
        score=score,
        meeting_probabilities=tuple(meeting),
        decay=decay,
        iterations=iterations,
        method="speedup",
        details={"num_processes": num_processes, "shared_filters": shared_filters},
    )
