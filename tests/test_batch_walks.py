"""Cross-validation of the keyed batch walk sampler against the scalar oracle.

The keyed sampler must reproduce the semantics of the scalar sampler of
``tests/oracles.py``: walks follow existing arcs, truncate at dead ends of
the sampled possible world, and the meeting-probability estimator agrees
with the scalar one (and with the exact Baseline values) within Monte-Carlo
tolerance.  The SR-SP packed propagation must equal the bit-vector counting
tables of the oracle bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import baseline_meeting_probabilities, baseline_simrank
from repro.core.batch_walks import (
    NO_VERTEX,
    meeting_probabilities_from_matrices,
    sample_walk_matrix_keyed,
)
from repro.core.executors import SerialWalkSource
from repro.core.sampling import sampling_meeting_probabilities, sampling_simrank
from repro.core.speedup import (
    FilterVectors,
    packed_meeting_probabilities,
    propagate_packed_tables,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_uncertain
from repro.graph.uncertain_graph import UncertainGraph, example_graph
from repro.service.bundle_store import WalkBundleStore
from repro.utils.errors import InvalidParameterError
from tests.oracles import (
    counting_tables_as_packed,
    estimate_meeting_probabilities,
    meeting_probabilities_from_tables,
    propagate_counting_tables,
    sample_walk,
    sample_walks,
    scalar_sampling_simrank,
)

#: Monte-Carlo tolerance for two independent estimates at the sample sizes below.
MC_TOLERANCE = 0.05


def keyed_walks(
    graph: UncertainGraph, source, length: int, count: int, rng: np.random.Generator
) -> tuple:
    """``count`` keyed walks from ``source`` with world keys drawn from ``rng``."""
    csr = CSRGraph.from_uncertain(graph)
    sources = np.full(count, csr.index_of(source), dtype=np.int64)
    keys = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    return csr, sample_walk_matrix_keyed(csr, sources, length, keys)


class TestWalkMatrix:
    def test_shape_and_source_column(self, paper_graph, rng):
        csr, walks = keyed_walks(paper_graph, "v1", 5, 40, rng)
        assert walks.shape == (40, 6)
        assert (walks[:, 0] == csr.index_of("v1")).all()

    def test_walks_follow_arcs(self, paper_graph, rng):
        csr, walks = keyed_walks(paper_graph, "v2", 4, 200, rng)
        for row in walks:
            for k in range(4):
                if row[k + 1] == NO_VERTEX:
                    break
                u = csr.vertex_at(int(row[k]))
                v = csr.vertex_at(int(row[k + 1]))
                assert paper_graph.has_arc(u, v)

    def test_truncation_is_monotone(self, paper_graph, rng):
        _, walks = keyed_walks(paper_graph, "v3", 6, 300, rng)
        for row in walks:
            dead = np.flatnonzero(row == NO_VERTEX)
            if dead.size:
                assert (row[dead[0] :] == NO_VERTEX).all()

    def test_certain_graph_never_truncates(self, certain_graph, rng):
        _, walks = keyed_walks(certain_graph, "a", 6, 100, rng)
        assert (walks != NO_VERTEX).all()

    def test_zero_length(self, paper_graph, rng):
        _, walks = keyed_walks(paper_graph, "v1", 0, 7, rng)
        assert walks.shape == (7, 1)

    def test_invalid_inputs(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        keys = np.arange(5, dtype=np.uint64)
        with pytest.raises(InvalidParameterError):
            sample_walk_matrix_keyed(csr, np.full(5, -1), 3, keys)
        with pytest.raises(InvalidParameterError):
            sample_walk_matrix_keyed(csr, np.full(5, csr.num_vertices), 3, keys)
        with pytest.raises(InvalidParameterError):
            sample_walk_matrix_keyed(csr, np.zeros(5, dtype=np.int64), -1, keys)
        with pytest.raises(InvalidParameterError):
            sample_walk_matrix_keyed(csr, np.zeros(4, dtype=np.int64), 3, keys)


class TestDeadEndTruncation:
    def test_exact_agreement_on_deterministic_dead_end(self, rng):
        """On a certain chain into a sink, both samplers truncate identically."""
        graph = UncertainGraph()
        graph.add_arc("a", "b", 1.0)
        graph.add_arc("b", "c", 1.0)
        csr, walks = keyed_walks(graph, "a", 5, 50, rng)
        scalar = sample_walks(graph, "a", 5, 50, rng)
        expected = [csr.index_of(v) for v in ("a", "b", "c")] + [NO_VERTEX] * 3
        assert (walks == np.array(expected)).all()
        assert all(walk == ["a", "b", "c"] for walk in scalar)

    def test_truncation_length_distribution_matches_scalar(self, rng):
        """Stochastic dead ends: per-step survival matches the scalar sampler."""
        graph = UncertainGraph()
        graph.add_arc("a", "b", 0.5)
        graph.add_arc("b", "c", 0.5)
        graph.add_arc("c", "a", 0.5)
        count, steps = 4000, 3
        _, walks = keyed_walks(graph, "a", steps, count, rng)
        vector_survival = (walks != NO_VERTEX).mean(axis=0)
        scalar_lengths = np.array(
            [len(sample_walk(graph, "a", steps, rng)) for _ in range(count)]
        )
        for k in range(steps + 1):
            scalar_survival = (scalar_lengths > k).mean()
            assert vector_survival[k] == pytest.approx(scalar_survival, abs=MC_TOLERANCE)


def _speedup_graph_zoo():
    """Graph shapes that stress the propagation's frontier bookkeeping."""
    zoo = {"paper": example_graph()}
    two_cycle = UncertainGraph()
    two_cycle.add_arc("a", "b", 0.7)
    two_cycle.add_arc("b", "a", 0.4)
    two_cycle.add_arc("b", "c", 0.5)
    zoo["two_cycle"] = two_cycle
    loops = UncertainGraph()
    loops.add_arc("a", "a", 0.6)
    loops.add_arc("a", "b", 0.5)
    loops.add_arc("b", "b", 1.0)
    loops.add_arc("b", "c", 0.3)
    zoo["self_loops"] = loops
    extremes = UncertainGraph()
    extremes.add_arc("a", "b", 1.0)
    extremes.add_arc("a", "c", 1e-12)
    extremes.add_arc("b", "d", 1e-12)
    extremes.add_arc("c", "a", 1.0)
    extremes.add_arc("d", "a", 1.0)
    zoo["p_near_zero_one"] = extremes
    dangling = UncertainGraph()
    dangling.add_arc("a", "b", 0.9)
    dangling.add_arc("a", "c", 0.8)
    dangling.add_arc("b", "d", 0.7)
    dangling.add_vertex("e")
    zoo["dangling"] = dangling
    zoo["rmat"] = rmat_uncertain(60, 300, rng=np.random.default_rng(21))
    return zoo


class TestCrossValidation:
    def test_meeting_probabilities_match_scalar(self, paper_graph):
        keyed = sampling_meeting_probabilities(
            paper_graph, "v1", "v2", 4, num_walks=4000, rng=7
        )
        generator = np.random.default_rng(7)
        scalar = estimate_meeting_probabilities(
            sample_walks(paper_graph, "v1", 4, 4000, generator),
            sample_walks(paper_graph, "v2", 4, 4000, generator),
            4,
            "v1",
            "v2",
        )
        assert keyed[0] == scalar[0] == 0.0
        for keyed_value, scalar_value in zip(keyed[1:], scalar[1:]):
            assert keyed_value == pytest.approx(scalar_value, abs=MC_TOLERANCE)

    def test_meeting_probabilities_match_exact(self, paper_graph):
        exact = baseline_meeting_probabilities(paper_graph, "v2", "v4", 4)
        estimated = sampling_meeting_probabilities(
            paper_graph, "v2", "v4", 4, num_walks=6000, rng=3
        )
        for exact_value, estimate in zip(exact, estimated):
            assert estimate == pytest.approx(exact_value, abs=0.03)

    def test_simrank_score_matches_scalar_backend(self, paper_graph):
        exact = baseline_simrank(paper_graph, "v1", "v2", iterations=4).score
        keyed = sampling_simrank(
            paper_graph, "v1", "v2", iterations=4, num_walks=6000, rng=11
        ).score
        scalar = scalar_sampling_simrank(
            paper_graph, "v1", "v2", iterations=4, num_walks=6000, rng=11
        )
        assert keyed == pytest.approx(exact, abs=0.02)
        assert scalar == pytest.approx(exact, abs=0.02)

    def test_same_endpoint_meets_at_step_zero(self, paper_graph):
        meeting = sampling_meeting_probabilities(
            paper_graph, "v1", "v1", 3, num_walks=500, rng=5
        )
        assert meeting[0] == 1.0

    def test_vectorized_backend_is_reproducible(self, paper_graph):
        first = sampling_simrank(paper_graph, "v1", "v2", num_walks=300, rng=3).score
        second = sampling_simrank(paper_graph, "v1", "v2", num_walks=300, rng=3).score
        assert first == second

    def test_packed_propagation_equals_bitvector_oracle(self):
        """Same filter bits, two propagations: identical tables and estimates.

        The zoo covers 2-cycles, self-loops, arcs with p = 1 and p = 1e-12
        (never instantiated: all-zero filters) and dangling vertices, plus an
        R-MAT graph; up to 12 vertices of each graph are sources.
        """
        for name, graph in _speedup_graph_zoo().items():
            filters_u = FilterVectors(graph, 130, rng=3)
            filters_v = FilterVectors(graph, 130, rng=4)
            vertices = graph.vertices()
            endpoints = vertices if len(vertices) <= 12 else vertices[:12]
            packed = {}
            for vertex in endpoints:
                for side, filters in ((0, filters_u), (1, filters_v)):
                    tables = propagate_counting_tables(graph, vertex, 5, filters)
                    packed[vertex, side] = propagate_packed_tables(vertex, 5, filters)
                    assert np.array_equal(
                        packed[vertex, side], counting_tables_as_packed(tables, filters)
                    ), (name, vertex, side)
            u, v = endpoints[0], endpoints[-1]
            oracle = meeting_probabilities_from_tables(
                propagate_counting_tables(graph, u, 5, filters_u),
                propagate_counting_tables(graph, v, 5, filters_v),
                130,
                u,
                v,
            )
            assert packed_meeting_probabilities(
                packed[u, 0], packed[v, 1], 130, u, v
            ) == oracle, name


class TestMeetingFromMatrices:
    def test_truncated_walks_never_meet(self):
        walks_u = np.array([[0, NO_VERTEX], [0, 2]])
        walks_v = np.array([[1, NO_VERTEX], [1, 2]])
        meeting = meeting_probabilities_from_matrices(walks_u, walks_v, 1, False)
        assert meeting == [0.0, 0.5]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            meeting_probabilities_from_matrices(
                np.zeros((2, 3), dtype=np.int64), np.zeros((3, 3), dtype=np.int64), 2, False
            )

    def test_insufficient_steps_rejected(self):
        walks = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            meeting_probabilities_from_matrices(walks, walks, 5, True)


class TestWalkBundleCache:
    """Per-endpoint bundle sharing through the keyed serial walk source."""

    @staticmethod
    def _meeting(source, csr, u, v, walks):
        u_index, v_index = csr.index_of(u), csr.index_of(v)
        same = u_index == v_index
        bundles = source.resolve(csr, 4, [(u_index, False, walks), (v_index, same, walks)])
        return meeting_probabilities_from_matrices(
            bundles[(u_index, False, walks)], bundles[(v_index, same, walks)], 4, same
        )

    def test_bundles_sampled_once_per_endpoint(self, paper_graph):
        csr = CSRGraph.from_uncertain(paper_graph)
        source = SerialWalkSource(9, store=WalkBundleStore(budget_bytes=None))
        need = (csr.index_of("v1"), False, 100)
        first = source.resolve(csr, 4, [need])[need]
        assert source.resolve(csr, 4, [need])[need] is first
        self._meeting(source, csr, "v1", "v2", 100)
        assert source.resolve(csr, 4, [need])[need] is first

    def test_meeting_probabilities_consistent_with_direct(self, paper_graph):
        exact = baseline_meeting_probabilities(paper_graph, "v1", "v2", 4)
        csr = CSRGraph.from_uncertain(paper_graph)
        estimated = self._meeting(SerialWalkSource(9), csr, "v1", "v2", 6000)
        for exact_value, estimate in zip(exact, estimated):
            assert estimate == pytest.approx(exact_value, abs=0.03)

    def test_self_pair_uses_independent_bundles(self, paper_graph):
        """A (u, u) query must not compare a bundle against itself: the walks
        would be perfectly correlated and m(k) grossly inflated."""
        exact = baseline_meeting_probabilities(paper_graph, "v1", "v1", 4)
        csr = CSRGraph.from_uncertain(paper_graph)
        source = SerialWalkSource(9)
        estimated = self._meeting(source, csr, "v1", "v1", 6000)
        assert estimated[0] == 1.0
        for exact_value, estimate in zip(exact[1:], estimated[1:]):
            assert estimate == pytest.approx(exact_value, abs=0.03)
        index = csr.index_of("v1")
        bundles = source.resolve(csr, 4, [(index, False, 6000), (index, True, 6000)])
        assert not np.array_equal(bundles[(index, False, 6000)], bundles[(index, True, 6000)])
