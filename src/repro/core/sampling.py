"""The Sampling algorithm (Section VI-B): Monte-Carlo meeting probabilities.

For each query pair ``(u, v)`` the algorithm samples ``N`` length-``n`` walks
from ``u`` and ``N`` from ``v``.  A walk is sampled *with its walk
probability* by lazily instantiating possible-world edges: the first time the
walk visits a vertex, each of its out-arcs is materialised independently with
its existence probability and the instantiation is remembered for the rest of
the walk; every visit then chooses uniformly among the instantiated out-arcs.
The meeting probability ``m(k)`` is estimated by the fraction of sample
indices ``i`` whose two walks stand on the same vertex at step ``k``
(Eq. 13), and Lemma 4 / Theorem 4 give Chernoff-style error guarantees.

The walks come from the keyed sampler of :mod:`repro.core.batch_walks`: the
``2N`` walks of a pair are one vectorized sweep over the
:class:`~repro.graph.csr.CSRGraph` snapshot of the graph, each walk a pure
function of a 64-bit world key drawn from the caller's generator.
"""

from __future__ import annotations

import math
from typing import Hashable, List

import numpy as np

from repro.core.batch_walks import (
    meeting_probabilities_from_matrices,
    sample_walk_matrix_keyed,
)
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

#: Default number of sampled walks per endpoint (the paper's ``N``).
DEFAULT_NUM_WALKS = 1000


def required_sample_size(epsilon: float, delta: float) -> int:
    """Lemma 4: ``N >= (3 / ε²) · ln(2 / δ)`` guarantees ``|m − m̂| <= ε`` w.p. ``1 − δ``."""
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return int(math.ceil(3.0 / (epsilon**2) * math.log(2.0 / delta)))


def sampling_meeting_probabilities(
    graph: UncertainGraph,
    u: Vertex,
    v: Vertex,
    iterations: int,
    num_walks: int = DEFAULT_NUM_WALKS,
    rng: RandomState = None,
) -> List[float]:
    """Sample walk bundles from both endpoints and estimate ``m(0) … m(n)``.

    Draws ``2 * num_walks`` world keys from ``rng`` (the ``u`` bundle's
    first) and samples both bundles in one keyed sweep.
    """
    iterations = validate_iterations(iterations)
    if num_walks < 1:
        raise InvalidParameterError(f"num_walks must be >= 1, got {num_walks}")
    generator = ensure_rng(rng)
    csr = CSRGraph.from_uncertain(graph)
    u_index, v_index = csr.index_of(u), csr.index_of(v)
    keys = generator.integers(0, 2**64, size=2 * num_walks, dtype=np.uint64)
    sources = np.repeat(np.array([u_index, v_index], dtype=np.int64), num_walks)
    walks = sample_walk_matrix_keyed(csr, sources, iterations, keys)
    return meeting_probabilities_from_matrices(
        walks[:num_walks], walks[num_walks:], iterations, u_index == v_index
    )


def sampling_simrank(
    graph: UncertainGraph,
    u: Vertex,
    v: Vertex,
    decay: float = DEFAULT_DECAY,
    iterations: int = DEFAULT_ITERATIONS,
    num_walks: int = DEFAULT_NUM_WALKS,
    rng: RandomState = None,
) -> SimRankResult:
    """The Sampling algorithm (Fig. 4): estimate ``s(n)(u, v)`` by Monte Carlo.

    Parameters mirror :func:`repro.core.baseline.baseline_simrank`, plus
    ``num_walks`` (the paper's ``N``, default 1000) and ``rng`` for
    reproducibility.
    """
    decay = validate_decay(decay)
    iterations = validate_iterations(iterations)
    if not graph.has_vertex(u) or not graph.has_vertex(v):
        raise InvalidParameterError(f"both query vertices must be in the graph: {u!r}, {v!r}")
    meeting = sampling_meeting_probabilities(
        graph, u, v, iterations, num_walks=num_walks, rng=rng
    )
    score = simrank_from_meeting_probabilities(meeting, decay)
    return SimRankResult(
        u=u,
        v=v,
        score=score,
        meeting_probabilities=tuple(meeting),
        decay=decay,
        iterations=iterations,
        method="sampling",
        details={"num_walks": num_walks},
    )
