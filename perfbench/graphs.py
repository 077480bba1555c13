"""Seeded, vectorised workload graphs written as edge-list files.

:func:`rmat_arcs` draws arcs with the law of
:func:`repro.graph.generators.rmat_uncertain` — the same quadrant partition
on a ``2^ceil(log2 n)`` grid folded modulo ``n``, self-loops and duplicate
arcs dropped in draw order, arc probabilities uniform on ``(0, 1]`` with a
``1e-6`` floor — but draws whole blocks of candidate arcs with NumPy
instead of one quadrant choice per Python loop iteration.  The 40k-arc
``pair_cold`` graph takes milliseconds instead of about ten seconds, so a
run spends its time measuring, and generation stays outside every timed
region.  The random stream differs from ``rmat_uncertain``'s, so the two
produce different graphs from the same seed; only the law is shared.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import numpy as np

#: The R-MAT quadrant partition of ``rmat_uncertain`` (a, b, c, d).
PARTITION = (0.57, 0.19, 0.19, 0.05)

#: Arc probability floor of ``rmat_uncertain`` (``_probability_for``).
MIN_PROBABILITY = 1e-6


def rmat_arcs(
    num_vertices: int, num_edges: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sources, targets, probabilities)`` of one R-MAT uncertain graph."""
    scale = max(1, int(np.ceil(np.log2(num_vertices))))
    spans = (1 << np.arange(scale - 1, -1, -1)).astype(np.int64)
    keys = np.empty(0, dtype=np.int64)
    # Draw blocks of candidates until enough distinct non-loop arcs exist;
    # like rmat_uncertain, stop after 20 draws per wanted arc.
    drawn = 0
    while keys.size < num_edges and drawn < 20 * max(num_edges, 1):
        block = 2 * (num_edges - keys.size) + 1024
        drawn += block
        quadrants = rng.choice(4, size=(block, scale), p=PARTITION)
        rows = ((quadrants >= 2) * spans).sum(axis=1) % num_vertices
        cols = ((quadrants % 2 == 1) * spans).sum(axis=1) % num_vertices
        candidates = rows * num_vertices + cols
        candidates = candidates[rows != cols]
        merged = np.concatenate([keys, candidates])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)][:num_edges]
    probabilities = np.maximum(rng.uniform(0.0, 1.0, size=keys.size), MIN_PROBABILITY)
    return keys // num_vertices, keys % num_vertices, probabilities


def write_rmat_edge_list(
    path: Path, num_vertices: int, num_edges: int, seed: int
) -> Path:
    """Write an R-MAT graph in :func:`repro.graph.io.read_edge_list` format.

    Vertices ``0 .. num_vertices - 1`` all exist; those without arcs are
    listed in ``# vertex:`` comment lines, as ``write_edge_list`` does.
    """
    sources, targets, probabilities = rmat_arcs(
        num_vertices, num_edges, np.random.default_rng(seed)
    )
    lines = [
        f"{u} {v} {p:.10g}"
        for u, v, p in zip(sources.tolist(), targets.tolist(), probabilities.tolist())
    ]
    touched = np.zeros(num_vertices, dtype=bool)
    touched[sources] = True
    touched[targets] = True
    lines.extend(f"# vertex: {vertex}" for vertex in np.flatnonzero(~touched).tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
