"""Golden answers: exact scores of a seeded engine, pinned across refactors.

Every other identity test compares two implementations *within* one
commit; this module compares answers *across* commits.  The values below
are the exact floats (``==``, no tolerance) that ``SimRankEngine(seed=7)``
returns for the three sampled methods and one top-k ranking, on the paper
graph and a small R-MAT graph.  A refactor that claims to keep answers
bit-identical must leave this file untouched and green.

The values change only when the sampling scheme itself changes on purpose
(ROADMAP item 5 will regenerate them, together with the scheme change that
motivates it); regenerate by printing the same calls and pasting the reprs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SimRankEngine
from repro.core.topk import top_k_similar_to
from repro.graph.generators import rmat_uncertain
from repro.graph.uncertain_graph import example_graph


def _rmat_graph():
    return rmat_uncertain(40, 160, rng=np.random.default_rng(11))


#: (graph name, method, u, v) -> score.  The R-MAT pairs use the graph's
#: highest out-degree vertices (0, 16, 1, 2); ``(v3, v3)`` and ``(0, 0)`` are
#: self-pairs, which exercise the twin-bundle / independent-filter paths.
GOLDEN_SCORES = {
    ("paper", "sampling", "v1", "v2"): 0.14266271999999997,
    ("paper", "sampling", "v2", "v4"): 0.05455295999999999,
    ("paper", "sampling", "v3", "v3"): 0.5299561600000001,
    ("paper", "two_phase", "v1", "v2"): 0.14362271999999998,
    ("paper", "two_phase", "v2", "v4"): 0.05455295999999999,
    ("paper", "two_phase", "v3", "v3"): 0.52899616,
    ("paper", "speedup", "v1", "v2"): 0.14858784,
    ("paper", "speedup", "v2", "v4"): 0.05603904,
    ("paper", "speedup", "v3", "v3"): 0.54130528,
    ("rmat", "sampling", 0, 16): 0.022173119999999998,
    ("rmat", "sampling", 1, 2): 0.0190128,
    ("rmat", "sampling", 0, 0): 0.42744351999999997,
    ("rmat", "two_phase", 0, 16): 0.019043534984376314,
    ("rmat", "two_phase", 1, 2): 0.0188007450944313,
    ("rmat", "two_phase", 0, 0): 0.42809853526259006,
    ("rmat", "speedup", 0, 16): 0.017917454984376312,
    ("rmat", "speedup", 1, 2): 0.019915305094431297,
    ("rmat", "speedup", 0, 0): 0.43187709526259005,
}

#: (graph name, query) -> top-3 ``(vertex, score)`` under ``method="sampling"``.
GOLDEN_TOP_K = {
    ("paper", "v1"): [
        ("v5", 0.21444960000000002),
        ("v2", 0.14266271999999997),
        ("v4", 0.02534688),
    ],
    ("rmat", 0): [
        (21, 0.03475584),
        (8, 0.028930559999999998),
        (32, 0.027364799999999998),
    ],
}


@pytest.fixture(scope="module")
def graphs():
    return {"paper": example_graph(), "rmat": _rmat_graph()}


@pytest.mark.parametrize(
    "name, method, u, v", sorted(GOLDEN_SCORES, key=repr), ids=repr
)
def test_engine_score_is_golden(graphs, name, method, u, v):
    engine = SimRankEngine(graphs[name], seed=7)
    score = engine.similarity(u, v, method=method).score
    assert score == GOLDEN_SCORES[(name, method, u, v)]


@pytest.mark.parametrize("name, query", sorted(GOLDEN_TOP_K, key=repr), ids=repr)
def test_top_k_ranking_is_golden(graphs, name, query):
    engine = SimRankEngine(graphs[name], seed=7)
    ranked = top_k_similar_to(engine, query, 3, method="sampling")
    assert ranked == GOLDEN_TOP_K[(name, query)]
