"""Outside-in tracing: wrap layer entry points, record spans, reduce them.

The program is not changed.  :class:`Tracer` replaces public entry points
with wrappers for the duration of a ``with`` block and restores them on
exit.  Class methods are replaced on their class, so every lookup through an
instance sees the wrapper.  Functions that a module imports by name are
replaced in the module that *calls* them (for example
``repro.core.executors.propagate_packed_tables``): replacing them in the
defining module would not reach the caller's own binding.

Spans (id, name, start, end, parent, thread, attributes) are kept in memory;
:meth:`Tracer.write_jsonl` writes them out once the run is over.  Each
thread keeps its own stack of open spans, so a span's parent is the span
open on the same thread when it started, and spans of the writer thread and
a read worker may overlap in time without nesting.

:func:`reduce_spans` turns the spans of a time window into per-layer self
time (duration minus the part covered by child spans), call counts and work
counts, plus the wall time no top-level span covers.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One call of a wrapped entry point."""

    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: A counter hook: ``(span, args, kwargs, result)`` -> attributes to record.
Counter = Callable[[Span, tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module:Owner.attr`` or ``module:function``."""

    span: str
    layer: str
    target: str
    count: Optional[Counter] = None


class Tracer:
    """Installs span-recording wrappers around a set of entry points."""

    def __init__(self, entry_points: Sequence[EntryPoint]) -> None:
        self.entry_points = list(entry_points)
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, entry: EntryPoint) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                id=next(tracer._ids),
                name=entry.span,
                start=0.0,
                end=0.0,
                parent=stack[-1].id if stack else 0,
                thread=threading.get_ident(),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            # Work counts are computed after the span has closed, so their
            # cost shows as tracing overhead, never as layer time.
            if entry.count is not None:
                span.attrs.update(entry.count(span, args, kwargs, result))
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for entry in self.entry_points:
                module_name, _, path = entry.target.partition(":")
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for name in owner_path:
                    owner = getattr(owner, name)
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, (classmethod, staticmethod)):
                    replacement = type(original)(self._wrap(original.__func__, entry))
                else:
                    replacement = self._wrap(original, entry)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, replacement)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        """Write every recorded span, one JSON object per line."""
        with self._lock:
            spans = sorted(self.spans, key=lambda span: span.start)
        with open(path, "w", encoding="utf-8") as sink:
            for span in spans:
                sink.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "thread": span.thread,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


@dataclass
class Reduction:
    """Per-span-name totals over one time window (times in seconds)."""

    wall: float
    calls: Dict[str, int]
    busy: Dict[str, float]
    self_time: Dict[str, float]
    attrs: Dict[str, Dict[str, float]]
    layer_self: Dict[str, float]
    top_level: float
    spans: List[Span]

    @property
    def unattributed(self) -> float:
        return self.wall - self.top_level

    def closure_error(self) -> float:
        """``|sum(layer self) + unattributed - wall| / wall``."""
        if self.wall <= 0:
            return 0.0
        total = sum(self.layer_self.values()) + self.unattributed
        return abs(total - self.wall) / self.wall


def reduce_spans(
    spans: Sequence[Span],
    window: Tuple[float, float],
    layers: Dict[str, str],
) -> Reduction:
    """Reduce the spans that start inside ``window`` to per-name totals.

    ``layers`` maps span names to layer names.  A span's self time is its
    duration minus the union of its children's intervals, clipped to it.
    ``top_level`` is the union of the root spans' intervals (spans whose
    parent is not among the window's spans), clipped to the window, so
    overlapping roots on different threads count once.
    """
    low, high = window
    chosen = [span for span in spans if low <= span.start < high]
    ids = {span.id for span in chosen}
    children: Dict[int, List[Span]] = {}
    for span in chosen:
        children.setdefault(span.parent, []).append(span)
    calls: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    attrs: Dict[str, Dict[str, float]] = {}
    layer_self: Dict[str, float] = {}
    for span in chosen:
        covered = _union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        )
        own = span.duration - covered
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        self_time[span.name] = self_time.get(span.name, 0.0) + own
        layer = layers.get(span.name, span.name)
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        totals = attrs.setdefault(span.name, {})
        for key, value in span.attrs.items():
            totals[key] = totals.get(key, 0.0) + value
    roots = [span for span in chosen if span.parent not in ids]
    top_level = _union_length(
        (span.start, min(span.end, high)) for span in roots
    )
    return Reduction(
        wall=high - low,
        calls=calls,
        busy=busy,
        self_time=self_time,
        attrs=attrs,
        layer_self=layer_self,
        top_level=top_level,
        spans=chosen,
    )
