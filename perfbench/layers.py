"""The layers the traced run wraps, and the per-layer metrics it reports.

Each :class:`~perfbench.spans.EntryPoint` names one public entry point of a
repro layer.  Seven of them are functions that ``repro.core.executors`` or
``repro.service.service`` import by name, so they are wrapped at that
binding; the class methods are wrapped on their class.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from perfbench.spans import EntryPoint, Reduction

EXECUTORS = "repro.core.executors"
SERVICE = "repro.service.service"


def _walk_steps(span, args, kwargs, matrix) -> Dict[str, float]:
    # Live cells of the returned (rows, length + 1) walk matrix; -1 marks
    # the tail of a walk that died at a dangling vertex.
    return {"walk_steps": float(np.count_nonzero(matrix >= 0))}


def _count_result(key: str):
    def count(span, args, kwargs, result) -> Dict[str, float]:
        return {key: float(len(result))}

    return count


def _index_build(span, args, kwargs, index) -> Dict[str, float]:
    return {"builds": float(index is not None and not index.cache_hit)}


def _prune_counts(span, args, kwargs, result) -> Dict[str, float]:
    stats = result[1]
    return {
        "candidates": float(stats.candidates_total),
        "rescored": float(stats.candidates_rescored),
    }


def entry_points(kernel_class: str) -> List[EntryPoint]:
    """Every wrapped entry point; ``kernel_class`` is the resolved backend."""
    return [
        EntryPoint(
            "kernels.sample", "core.kernels",
            f"repro.core.kernels:{kernel_class}.sample", _walk_steps,
        ),
        EntryPoint(
            "sharding.sample_bundles_mixed", "service.sharding",
            "repro.service.sharding:ShardedWalkSampler.sample_bundles_mixed",
            _count_result("bundles"),
        ),
        EntryPoint(
            "executors.run_batch", "core.executors",
            f"{EXECUTORS}:MethodExecutor.run_batch", _count_result("pairs"),
        ),
        EntryPoint(
            "executors.resolve", "core.executors",
            f"{EXECUTORS}:WalkSource.resolve", _count_result("needs"),
        ),
        EntryPoint(
            "meeting.against_many", "core.batch_walks",
            f"{EXECUTORS}:meeting_probabilities_against_many",
        ),
        EntryPoint(
            "meeting.from_matrices", "core.batch_walks",
            f"{EXECUTORS}:meeting_probabilities_from_matrices",
        ),
        EntryPoint(
            "transition.single_source", "core.transition",
            f"{EXECUTORS}:single_source_transition_probabilities",
        ),
        EntryPoint(
            "speedup.filter_pair", "core.speedup",
            f"{EXECUTORS}:EngineCaches.filter_pair",
        ),
        EntryPoint(
            "speedup.propagate", "core.speedup",
            f"{EXECUTORS}:propagate_packed_tables",
        ),
        EntryPoint(
            "speedup.packed_meeting", "core.speedup",
            f"{EXECUTORS}:packed_meeting_probabilities",
        ),
        EntryPoint(
            "topk_index.snapshot_index", "core.topk_index",
            f"{SERVICE}:snapshot_index", _index_build,
        ),
        EntryPoint(
            "topk_index.pruned_top_k_vertex", "core.topk_index",
            f"{SERVICE}:pruned_top_k_vertex", _prune_counts,
        ),
        EntryPoint(
            "ingest.apply", "service.tenancy",
            "repro.service.tenancy:GraphTenant.apply",
        ),
        EntryPoint(
            "csr.incremental", "graph.csr",
            "repro.graph.csr:CSRGraph.from_uncertain_incremental",
        ),
        EntryPoint(
            "csr.freeze", "graph.csr", "repro.graph.csr:CSRGraph.from_uncertain",
        ),
        EntryPoint(
            "epoch.pin", "service.epoch",
            "repro.service.tenancy:GraphTenant.pin_epoch",
        ),
    ]


def layer_of(points: List[EntryPoint]) -> Dict[str, str]:
    return {point.span: point.layer for point in points}


#: Span names that must record calls in each workload's timed phase.
EXPECTED_CALLS: Dict[str, Tuple[str, ...]] = {
    "pair_cold": (
        "kernels.sample", "sharding.sample_bundles_mixed",
        "executors.run_batch", "executors.resolve", "meeting.from_matrices",
        "epoch.pin",
    ),
    "srsp_hot": (
        "executors.run_batch", "transition.single_source",
        "speedup.filter_pair", "speedup.propagate", "speedup.packed_meeting",
        "epoch.pin",
    ),
    "topk_ingest": (
        "kernels.sample", "sharding.sample_bundles_mixed",
        "executors.run_batch", "executors.resolve", "meeting.against_many",
        "topk_index.snapshot_index", "topk_index.pruned_top_k_vertex",
        "ingest.apply", "csr.incremental", "epoch.pin",
    ),
}

#: Span names predicted to record no calls in each workload's timed phase.
PREDICTED_ZERO: Dict[str, Tuple[str, ...]] = {
    "pair_cold": (
        "speedup.filter_pair", "speedup.propagate", "speedup.packed_meeting",
        "topk_index.snapshot_index", "ingest.apply", "csr.incremental",
    ),
    "srsp_hot": (
        "kernels.sample", "sharding.sample_bundles_mixed",
        "topk_index.snapshot_index", "ingest.apply", "csr.incremental",
    ),
    "topk_ingest": (
        "speedup.filter_pair", "speedup.propagate", "speedup.packed_meeting",
    ),
}


def coverage(workload: str, reduction: Reduction) -> Tuple[List[str], List[str]]:
    """``(missing, report)``: expected spans with no calls, and a report of
    the predicted-zero spans."""
    missing = [
        name for name in EXPECTED_CALLS[workload] if not reduction.calls.get(name)
    ]
    report = [
        f"{name}: {reduction.calls.get(name, 0)} calls (predicted 0)"
        for name in PREDICTED_ZERO[workload]
    ]
    return missing, report


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(after: Dict[str, float], before: Dict[str, float], key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def per_layer_metrics(
    timed: Reduction,
    whole: Reduction,
    stats_before: Dict[str, object],
    stats_after: Dict[str, object],
    overhead_pct: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``timed`` covers the timed phase, ``whole`` the set-up and the timed
    phase together (the set-up builds: SR-SP filters and the CSR freeze);
    ``stats_before`` / ``stats_after`` are ``service_stats()`` at the edges
    of the timed phase.
    """
    ms = 1000.0
    calls, busy, own, attrs = timed.calls, timed.busy, timed.self_time, timed.attrs

    def count(name: str, key: str) -> float:
        return attrs.get(name, {}).get(key, 0.0)

    caches_before = stats_before["tenants"]["default"]["caches"]
    caches_after = stats_after["tenants"]["default"]["caches"]
    bundles_before = caches_before["walk_bundles"]
    bundles_after = caches_after["walk_bundles"]
    hits = _delta(bundles_after, bundles_before, "hits")
    misses = _delta(bundles_after, bundles_before, "misses")
    transitions_before = caches_before["transitions"]
    transitions_after = caches_after["transitions"]
    t_hits = _delta(transitions_after, transitions_before, "hits")
    t_misses = _delta(transitions_after, transitions_before, "misses")
    batches = _delta(stats_after, stats_before, "batches")
    queries = _delta(stats_after, stats_before, "queries")
    histograms = stats_after["metrics"]["histograms"]
    steps = count("kernels.sample", "walk_steps")
    builds = count("topk_index.snapshot_index", "builds")
    # Resolve misses are the bundles sampled by sharding calls made inside a
    # resolve span; index builds sample through the sampler directly.
    resolves = {span.id for span in timed.spans if span.name == "executors.resolve"}
    resolve_misses = sum(
        span.attrs.get("bundles", 0.0)
        for span in timed.spans
        if span.name == "sharding.sample_bundles_mixed" and span.parent in resolves
    )
    index_build_ms = ms * sum(
        span.duration
        for span in timed.spans
        if span.name == "topk_index.snapshot_index" and span.attrs.get("builds")
    )
    return {
        "kernels.calls": float(calls.get("kernels.sample", 0)),
        "kernels.walk_steps": steps,
        "kernels.busy_ms": ms * busy.get("kernels.sample", 0.0),
        "kernels.ns_per_step": _ratio(1e9 * busy.get("kernels.sample", 0.0), steps),
        "sharding.calls": float(calls.get("sharding.sample_bundles_mixed", 0)),
        "sharding.bundles": count("sharding.sample_bundles_mixed", "bundles"),
        "sharding.self_ms": ms * own.get("sharding.sample_bundles_mixed", 0.0),
        "executors.batches": float(calls.get("executors.run_batch", 0)),
        "executors.pairs": count("executors.run_batch", "pairs"),
        "executors.self_ms": ms * own.get("executors.run_batch", 0.0),
        "executors.resolve_needs": count("executors.resolve", "needs"),
        "executors.resolve_misses": resolve_misses,
        "executors.resolve_self_ms": ms * own.get("executors.resolve", 0.0),
        "bundle_store.hit_ratio": _ratio(hits, hits + misses),
        "bundle_store.misses": misses,
        "bundle_store.mb": bundles_after["bytes"] / 1e6,
        "meeting.calls": float(
            calls.get("meeting.against_many", 0) + calls.get("meeting.from_matrices", 0)
        ),
        "meeting.busy_ms": ms
        * (busy.get("meeting.against_many", 0.0) + busy.get("meeting.from_matrices", 0.0)),
        "transition.runs": float(calls.get("transition.single_source", 0)),
        "transition.busy_ms": ms * busy.get("transition.single_source", 0.0),
        "transition.hit_ratio": _ratio(t_hits, t_hits + t_misses),
        "speedup.filter_build_ms": ms * whole.busy.get("speedup.filter_pair", 0.0),
        "speedup.propagations": float(calls.get("speedup.propagate", 0)),
        "speedup.propagate_ms": ms * busy.get("speedup.propagate", 0.0),
        "speedup.meeting_ms": ms * busy.get("speedup.packed_meeting", 0.0),
        "topk_index.builds": builds,
        "topk_index.build_ms": index_build_ms,
        "topk_index.query_self_ms": ms * own.get("topk_index.pruned_top_k_vertex", 0.0),
        "topk_index.rescore_ratio": _ratio(
            count("topk_index.pruned_top_k_vertex", "rescored"),
            count("topk_index.pruned_top_k_vertex", "candidates"),
        ),
        "topk_index.mb": caches_after["topk_indexes"]["bytes"] / 1e6,
        "ingest.apply_ms": ms * busy.get("ingest.apply", 0.0),
        "csr.incremental_ms": ms * busy.get("csr.incremental", 0.0),
        "csr.freeze_ms": ms * whole.busy.get("csr.freeze", 0.0),
        "epoch.pin_ms": ms * busy.get("epoch.pin", 0.0),
        "service.batches": batches,
        "service.mean_batch_size": _ratio(queries, batches),
        "service.coalesce_ms_p50": float(histograms["service.coalesce_ms"]["p50"]),
        "service.dispatch_wait_ms_p50": float(
            histograms["service.dispatch_wait_ms"]["p50"]
        ),
        "service.read_wait_ms_p50": float(histograms["service.read_wait_ms"]["p50"]),
        "unattributed_ms": ms * timed.unattributed,
        "tracing_overhead_pct": overhead_pct,
    }
