"""The two-phase algorithm SR-TS / SR-SP (Section VI-C).

The two-phase algorithm splits the iteration range at ``l`` (the *exact
prefix*):

* **Stage 1** — for ``k <= l`` the meeting probabilities ``m(k)`` are computed
  exactly with the Baseline machinery.  Short transition matrices are sparse
  and cheap, and the exact prefix removes the largest contributions to the
  estimation error (the weight of ``m(k)`` is ``c^k``).
* **Stage 2** — for ``l < k <= n`` the meeting probabilities are estimated by
  sampling (plain walk sampling, or the SR-SP bit-vector propagation when
  ``use_speedup=True``).

Corollary 1 bounds the resulting error by ``ε (c^(l+1) − c^n)`` with
probability at least ``1 − δ`` — roughly an order of magnitude better than the
Sampling algorithm for ``l = 1`` and the paper's default ``c = 0.6``.
"""

from __future__ import annotations

from typing import Hashable, List

from repro.core.baseline import baseline_meeting_probabilities
from repro.core.sampling import (
    DEFAULT_NUM_WALKS,
    sampling_meeting_probabilities,
)
from repro.core.simrank import (
    DEFAULT_DECAY,
    DEFAULT_ITERATIONS,
    SimRankResult,
    simrank_from_meeting_probabilities,
    validate_decay,
    validate_iterations,
)
from repro.core.speedup import FilterVectors, speedup_meeting_probabilities
from repro.core.walks import AlphaCache
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState, ensure_rng

Vertex = Hashable

#: Default exact-prefix length; the paper recommends l = 1 as the sweet spot.
DEFAULT_EXACT_PREFIX = 1


def two_phase_meeting_probabilities(
    graph: UncertainGraph,
    u: Vertex,
    v: Vertex,
    iterations: int,
    exact_prefix: int,
    num_walks: int = DEFAULT_NUM_WALKS,
    rng: RandomState = None,
    use_speedup: bool = False,
    filters: FilterVectors | None = None,
    filters_v: FilterVectors | None = None,
    shared_filters: bool = False,
    max_states: int = 500_000,
    alpha_cache: AlphaCache | None = None,
) -> List[float]:
    """Meeting probabilities with an exact prefix and a sampled tail.

    Returns ``m(0) … m(n)`` where entries ``k <= exact_prefix`` are exact and
    the rest are Monte-Carlo estimates.
    """
    iterations = validate_iterations(iterations)
    if not 0 <= exact_prefix <= iterations:
        raise InvalidParameterError(
            f"exact prefix l must satisfy 0 <= l <= n, got l={exact_prefix}, n={iterations}"
        )
    generator = ensure_rng(rng)

    exact = baseline_meeting_probabilities(
        graph, u, v, exact_prefix, max_states=max_states, alpha_cache=alpha_cache
    )

    if exact_prefix == iterations:
        return exact

    if use_speedup:
        estimated = speedup_meeting_probabilities(
            graph,
            u,
            v,
            iterations,
            num_processes=num_walks,
            rng=generator,
            shared_filters=shared_filters,
            filters=filters,
            filters_v=filters_v,
        )
    else:
        estimated = sampling_meeting_probabilities(
            graph, u, v, iterations, num_walks=num_walks, rng=generator
        )
    return exact + estimated[exact_prefix + 1 :]


def two_phase_simrank(
    graph: UncertainGraph,
    u: Vertex,
    v: Vertex,
    decay: float = DEFAULT_DECAY,
    iterations: int = DEFAULT_ITERATIONS,
    exact_prefix: int = DEFAULT_EXACT_PREFIX,
    num_walks: int = DEFAULT_NUM_WALKS,
    rng: RandomState = None,
    use_speedup: bool = False,
    filters: FilterVectors | None = None,
    filters_v: FilterVectors | None = None,
    shared_filters: bool = False,
    max_states: int = 500_000,
    alpha_cache: AlphaCache | None = None,
) -> SimRankResult:
    """The two-phase algorithm (SR-TS, or SR-SP when ``use_speedup=True``).

    Parameters
    ----------
    exact_prefix:
        The paper's ``l``: meeting probabilities up to step ``l`` are computed
        exactly, the rest are sampled.  Larger ``l`` trades time for accuracy
        (Corollary 1).
    use_speedup:
        Replace the per-walk sampling of stage 2 with the SR-SP bit-vector
        propagation (sharing the sampling work of all ``N`` processes).
    filters, filters_v:
        Optional pre-built :class:`FilterVectors` reused across queries when
        ``use_speedup=True`` (the paper constructs them offline).  ``filters``
        drives the walks from ``u``; ``filters_v`` the walks from ``v``.
    """
    decay = validate_decay(decay)
    iterations = validate_iterations(iterations)
    if not graph.has_vertex(u) or not graph.has_vertex(v):
        raise InvalidParameterError(f"both query vertices must be in the graph: {u!r}, {v!r}")
    meeting = two_phase_meeting_probabilities(
        graph,
        u,
        v,
        iterations,
        exact_prefix,
        num_walks=num_walks,
        rng=rng,
        use_speedup=use_speedup,
        filters=filters,
        filters_v=filters_v,
        shared_filters=shared_filters,
        max_states=max_states,
        alpha_cache=alpha_cache,
    )
    score = simrank_from_meeting_probabilities(meeting, decay)
    return SimRankResult(
        u=u,
        v=v,
        score=score,
        meeting_probabilities=tuple(meeting),
        decay=decay,
        iterations=iterations,
        method="speedup" if use_speedup else "two_phase",
        details={
            "exact_prefix": exact_prefix,
            "num_walks": num_walks,
            "use_speedup": use_speedup,
        },
    )
