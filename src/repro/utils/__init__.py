"""Shared utilities: RNG plumbing, timing and error statistics."""

from repro.utils.errors import (
    GraphFormatError,
    InvalidParameterError,
    ReproError,
)
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.stats import (
    mean_and_max,
    relative_error,
    relative_errors,
    summarize_bias,
)
from repro.utils.timer import Timer, timed

__all__ = [
    "GraphFormatError",
    "InvalidParameterError",
    "ReproError",
    "ensure_rng",
    "spawn_rngs",
    "relative_error",
    "relative_errors",
    "mean_and_max",
    "summarize_bias",
    "Timer",
    "timed",
]
