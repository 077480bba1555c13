"""Answer checks behind ``success_ratio``.

Every answer gets shape and range checks.  A fixed sample is recomputed by
a standalone :class:`~repro.core.engine.SimRankEngine` with the service's
seed, shard size, walk count and iterations, at the graph version the
answer reports; the version is reached by replaying the run's own mutation
logs on a fresh read of the edge-list file.  The service documents its
answers as bit-identical to such an engine, so scores and rankings are
compared exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.engine import SimRankEngine
from repro.core.topk import top_k_similar_to
from repro.graph.io import read_edge_list
from repro.service.bundle_store import WalkBundleStore
from repro.service.service import PairQuery, TopKResult, TopKVertexQuery
from repro.service.sharding import DEFAULT_SHARD_SIZE
from repro.service.tenancy import MutationLog

#: Answers recomputed per graph version checked.
SAMPLE_PER_VERSION = 8


def answer_version(result: object) -> int:
    if isinstance(result, TopKResult):
        return int(result.graph_version)
    return int(result.details["graph_version"])


def shape_errors(query: object, result: object) -> List[str]:
    """Range and shape problems of one answer (empty when it is sound)."""
    if isinstance(query, PairQuery):
        score = getattr(result, "score", None)
        if not isinstance(score, float) or not 0.0 <= score <= 1.0:
            return [f"pair score {score!r} outside [0, 1]"]
        return []
    if not isinstance(result, TopKResult):
        return [f"top-k answer is a {type(result).__name__}"]
    vertices = [vertex for vertex, _ in result]
    scores = [score for _, score in result]
    errors = []
    if len(result) != query.k:
        errors.append(f"{len(result)} candidates, expected {query.k}")
    if len(set(vertices)) != len(vertices) or query.query in vertices:
        errors.append("candidates repeat or include the query vertex")
    if any(not (isinstance(s, float) and 0.0 <= s <= 1.0) for s in scores):
        errors.append("a top-k score lies outside [0, 1]")
    if any(a < b for a, b in zip(scores, scores[1:])):
        errors.append("top-k scores are not in descending order")
    return errors


def oracle_sample(answers: Sequence[Tuple[object, object]]) -> List[int]:
    """Positions of the answers to recompute: evenly spread over the run, at
    the first and the last graph version the run answered at."""
    by_version: Dict[int, List[int]] = {}
    for position, (_, result) in enumerate(answers):
        by_version.setdefault(answer_version(result), []).append(position)
    chosen: List[int] = []
    for version in sorted({min(by_version), max(by_version)}):
        positions = by_version[version]
        step = max(1, len(positions) // SAMPLE_PER_VERSION)
        chosen.extend(positions[::step][:SAMPLE_PER_VERSION])
    return chosen


def replay_engine(
    path: Path,
    logs: Sequence[Tuple[MutationLog, int]],
    version: int,
    num_walks: int,
    seed: int,
) -> SimRankEngine:
    """A standalone engine at ``version``: the file plus the logs up to it."""
    graph = read_edge_list(path)
    for log, reported in logs:
        if graph.version >= version:
            break
        log.apply_to(graph)
        if graph.version != reported:
            raise RuntimeError(
                f"replayed graph reached version {graph.version}, the service "
                f"reported {reported}"
            )
    if graph.version != version:
        raise RuntimeError(f"no replay of the run's writes reaches version {version}")
    return SimRankEngine(
        graph,
        num_walks=num_walks,
        seed=seed,
        shard_size=DEFAULT_SHARD_SIZE,
        bundle_store=WalkBundleStore(None),
    )


def expected_answer(engine: SimRankEngine, query: object) -> object:
    if isinstance(query, PairQuery):
        return engine.similarity(query.u, query.v, method=query.method).score
    if isinstance(query, TopKVertexQuery):
        return top_k_similar_to(engine, query.query, query.k, method=query.method)
    raise TypeError(f"no oracle for {type(query).__name__}")


def observed_answer(query: object, result: object) -> object:
    if isinstance(query, PairQuery):
        return result.score
    return list(result)


def verify(
    answers: Sequence[Tuple[object, object]],
    path: Path,
    logs: Sequence[Tuple[MutationLog, int]],
    num_walks: int,
    seed: int,
) -> Tuple[int, List[str]]:
    """``(verified, problems)`` over ``answers``.

    ``answers`` are the ``(query, result)`` pairs that resolved with a
    result; an answer is verified when its shape is sound and, if sampled,
    it equals the oracle's.
    """
    problems: List[str] = []
    bad = set()
    for position, (query, result) in enumerate(answers):
        for problem in shape_errors(query, result):
            bad.add(position)
            problems.append(f"{query}: {problem}")
    engines: Dict[int, SimRankEngine] = {}
    for position in oracle_sample(answers) if answers else []:
        query, result = answers[position]
        version = answer_version(result)
        try:
            if version not in engines:
                engines[version] = replay_engine(path, logs, version, num_walks, seed)
            expected = expected_answer(engines[version], query)
        except Exception as error:  # an oracle that cannot answer verifies nothing
            bad.add(position)
            problems.append(f"{query}: oracle failed: {error!r}")
            continue
        observed = observed_answer(query, result)
        if observed != expected:
            bad.add(position)
            problems.append(f"{query}: answered {observed!r}, oracle {expected!r}")
    return len(answers) - len(bad), problems


def check_phase(
    phase, path: Path, num_walks: int, seed: int
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every query of a timed phase
    and its follow-up waves; a query that raised counts as failed."""
    answers: List[Tuple[object, object]] = []
    errors = 0
    for wave in phase.waves + phase.extra_waves:
        for answer in wave.answers:
            if answer.error is None:
                answers.append((answer.query, answer.result))
            else:
                errors += 1
    verified, problems = verify(answers, path, phase.logs, num_walks, seed)
    attempted = len(answers) + errors
    return attempted, attempted - verified, problems
