"""Tests of the benchmark's own machinery: generator, tracer, reducer, oracle."""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import layers, oracle, workloads
from perfbench.graphs import rmat_arcs, write_rmat_edge_list
from perfbench.spans import EntryPoint, Span, Tracer, reduce_spans
from repro.graph.io import read_edge_list
from repro.service.service import PairQuery, SimilarityService, TopKVertexQuery
from repro.service.tenancy import MutationLog


# -- workload generation -------------------------------------------------------


def test_rmat_arcs_are_seeded_distinct_and_in_range():
    first = rmat_arcs(500, 3000, np.random.default_rng(5))
    again = rmat_arcs(500, 3000, np.random.default_rng(5))
    other = rmat_arcs(500, 3000, np.random.default_rng(6))
    for left, right in zip(first, again):
        np.testing.assert_array_equal(left, right)
    assert not np.array_equal(first[0], other[0])
    sources, targets, probabilities = first
    assert sources.size == 3000
    assert np.all(sources != targets)
    assert len(set(zip(sources.tolist(), targets.tolist()))) == 3000
    assert np.all((probabilities > 0) & (probabilities <= 1))
    assert sources.max() < 500 and targets.max() < 500


def test_rmat_edge_list_round_trips_with_isolated_vertices(tmp_path):
    path = write_rmat_edge_list(tmp_path / "g.edges", 300, 600, seed=3)
    graph = read_edge_list(path)
    assert graph.num_vertices == 300
    assert graph.num_arcs == 600
    degrees = np.array([graph.out_degree(vertex) for vertex in graph.vertices()])
    # R-MAT's skew: a heavy head and many dangling vertices.
    assert degrees.max() > 5 * degrees.mean()
    assert (degrees == 0).mean() > 0.1


# -- tracer and reducer ----------------------------------------------------------


def _span(id, name, start, end, parent=0, thread=1):
    return Span(id, name, start, end, parent, thread)


def test_self_time_is_duration_minus_children():
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "inner", 1.0, 4.0, parent=1),
        _span(3, "inner", 5.0, 6.0, parent=1),
        _span(4, "leaf", 2.0, 3.0, parent=2),
    ]
    layers_map = {"outer": "a", "inner": "b", "leaf": "c"}
    reduction = reduce_spans(spans, (0.0, 20.0), layers_map)
    assert reduction.self_time["outer"] == pytest.approx(6.0)
    assert reduction.self_time["inner"] == pytest.approx(3.0)
    assert reduction.self_time["leaf"] == pytest.approx(1.0)
    assert reduction.busy["inner"] == pytest.approx(4.0)
    assert reduction.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert reduction.top_level == pytest.approx(10.0)
    assert reduction.unattributed == pytest.approx(10.0)
    assert reduction.closure_error() == pytest.approx(0.0)


def test_overlapping_roots_on_two_threads_count_once():
    # A writer apply overlapping a read-worker batch: both are roots.
    spans = [
        _span(1, "read", 0.0, 4.0, thread=1),
        _span(2, "write", 3.0, 5.0, thread=2),
    ]
    reduction = reduce_spans(spans, (0.0, 10.0), {})
    assert reduction.top_level == pytest.approx(5.0)
    assert reduction.unattributed == pytest.approx(5.0)
    # The overlap is the only gap between layer sums and the wall.
    assert reduction.closure_error() == pytest.approx(0.1)


def test_window_keeps_only_spans_that_start_inside_it():
    spans = [_span(1, "a", 0.0, 1.0), _span(2, "a", 2.0, 3.0), _span(3, "a", 5.0, 6.0)]
    reduction = reduce_spans(spans, (1.5, 4.0), {})
    assert reduction.calls == {"a": 1}
    assert reduction.wall == pytest.approx(2.5)


class _Layered:
    def outer(self, inner_calls):
        for _ in range(inner_calls):
            self.inner()
        return inner_calls

    def inner(self):
        time.sleep(0.001)

    @classmethod
    def build(cls):
        return cls()


def _points():
    target = f"{__name__}:_Layered"
    return [
        EntryPoint("outer", "top", f"{target}.outer"),
        EntryPoint("inner", "bottom", f"{target}.inner"),
        EntryPoint("build", "top", f"{target}.build"),
    ]


def test_tracer_keeps_a_stack_per_thread_and_restores_on_exit():
    original_outer = _Layered.__dict__["outer"]
    original_build = _Layered.__dict__["build"]
    with Tracer(_points()) as tracer:
        assert isinstance(_Layered.__dict__["build"], classmethod)
        threads = [
            threading.Thread(target=lambda: _Layered.build().outer(3))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
    assert _Layered.__dict__["outer"] is original_outer
    assert _Layered.__dict__["build"] is original_build
    by_id = {span.id: span for span in tracer.spans}
    inner = [span for span in tracer.spans if span.name == "inner"]
    assert len(inner) == 12
    for span in inner:
        parent = by_id[span.parent]
        assert parent.name == "outer" and parent.thread == span.thread
    roots = [span for span in tracer.spans if span.parent == 0]
    assert sorted(span.name for span in roots) == ["build"] * 4 + ["outer"] * 4


def test_coverage_reports_missing_and_predicted_zero_calls():
    reduction = reduce_spans(
        [_span(1, "executors.run_batch", 0.0, 1.0)], (0.0, 2.0), {}
    )
    missing, report = layers.coverage("srsp_hot", reduction)
    assert "speedup.propagate" in missing
    assert "executors.run_batch" not in missing
    assert any(line.startswith("kernels.sample: 0 calls") for line in report)


@pytest.mark.parametrize("name", ["pair_cold", "srsp_hot"])
def test_layer_table_closes_on_the_timed_wall(name, tmp_path):
    """Every entry point binds, and layer self times plus the unattributed
    time equal the timed wall within 5%."""
    from repro.core.kernels import resolve_kernel

    inputs = workloads.make_inputs(workloads.WORKLOADS[name], 3, tmp_path)
    points = layers.entry_points(type(resolve_kernel()).__name__)
    with Tracer(points) as tracer:
        service, _ = workloads.start_service(inputs)
        try:
            phase = workloads.timed_phase(service, inputs, 0.4)
        finally:
            service.close()
    reduction = reduce_spans(tracer.spans, phase.window, layers.layer_of(points))
    assert reduction.closure_error() <= 0.05
    missing, _ = layers.coverage(name, reduction)
    assert missing == []


# -- answer oracle ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A few answers from a real service on a small graph, plus a write."""
    path = write_rmat_edge_list(
        tmp_path_factory.mktemp("oracle") / "g.edges", 200, 1200, seed=4
    )
    walks = 200
    service = SimilarityService(
        read_edge_list(path), seed=workloads.PROGRAM_SEED, num_walks=walks,
        read_workers=1,
    )
    try:
        queries = [PairQuery("0", "1"), PairQuery("2", "3"), TopKVertexQuery("0", 5)]
        answers = [(query, service.submit(query).result()) for query in queries]
        log = MutationLog().add_edge("5", "6", 0.5).add_edge("6", "7", 0.25)
        report = service.mutate(log)
        after = [PairQuery("5", "7"), TopKVertexQuery("6", 5)]
        answers += [(query, service.submit(query).result()) for query in after]
    finally:
        service.close()
    return SimpleNamespace(
        path=path, walks=walks, answers=answers, logs=[(log, report.version)]
    )


def _verify(run, answers):
    return oracle.verify(answers, run.path, run.logs, run.walks, workloads.PROGRAM_SEED)


def test_oracle_verifies_every_answer_at_its_version(small_run):
    verified, problems = _verify(small_run, small_run.answers)
    assert problems == []
    assert verified == len(small_run.answers)
    versions = {oracle.answer_version(result) for _, result in small_run.answers}
    assert len(versions) == 2


def test_a_corrupted_answer_lowers_the_success_ratio(small_run):
    answers = list(small_run.answers)
    query, result = answers[1]
    answers[1] = (query, replace(result, score=float(np.nextafter(result.score, 1.0))))
    verified, problems = _verify(small_run, answers)
    assert verified == len(answers) - 1
    assert len(problems) == 1 and "oracle" in problems[0]


def test_a_misordered_top_k_fails_the_shape_check(small_run):
    answers = list(small_run.answers)
    query, result = answers[2]
    swapped = type(result)(
        list(reversed(result)), epoch=result.epoch, graph_version=result.graph_version
    )
    answers[2] = (query, swapped)
    verified, problems = _verify(small_run, answers)
    assert verified == len(answers) - 1
    assert any("descending" in problem for problem in problems)


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(1, 11)]
    assert workloads.percentile(values, 0.5) == pytest.approx(5.5)
    assert workloads.percentile(values, 0.9) == pytest.approx(9.1)


# -- steal ---------------------------------------------------------------------


def test_steal_counter_never_runs_backwards():
    first = workloads.steal_seconds()
    assert first >= 0.0
    assert workloads.steal_seconds() >= first


def test_wall_times_are_net_of_steal():
    start = workloads.Instant(wall=10.0, steal=2.0)
    assert start.seconds_to(workloads.Instant(wall=10.5, steal=2.1)) == pytest.approx(
        0.4
    )
    answers = [
        workloads.Answer(PairQuery("0", "1"), done=1.060),
        workloads.Answer(PairQuery("2", "3"), done=1.080),
    ]
    wave = workloads.Wave("steady", submitted=1.0, answers=answers, steal_s=0.02)
    assert wave.latencies_ms == pytest.approx([40.0, 60.0])


def test_host_probe_runs_in_a_child_process():
    from perfbench.run import probe_in_child

    assert probe_in_child() > 0.0
