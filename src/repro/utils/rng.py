"""Random-number-generator plumbing.

All stochastic code in the library accepts either a seed (``int``), an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  The
helpers here normalise those inputs so that experiments are reproducible from
a single integer seed.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RandomState = Union[int, np.random.Generator, None]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` seed, or an existing generator
        (returned unchanged so that callers can thread one generator through a
        pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def experiment_rngs(
    seed: RandomState,
) -> tuple[np.random.Generator, np.random.Generator]:
    """An ``(inputs, estimators)`` generator pair for one experiment run.

    Experiments draw their graphs and query pairs from ``inputs`` and hand
    ``estimators`` to the algorithms they time, so a change in how many
    numbers an estimator consumes never re-draws a later dataset's pairs.
    ``inputs`` is ``ensure_rng(seed)`` itself; ``estimators`` is spawned
    from it without advancing its stream.
    """
    inputs = ensure_rng(seed)
    return inputs, inputs.spawn(1)[0]


def spawn_rngs(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning so the children do not
    overlap even when ``seed`` is small.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh seeds from the parent generator.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]
