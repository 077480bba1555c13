"""Executable specifications the production code is tested against.

Nothing in ``src/`` imports this module.  It keeps the plain, one-thing-at-
a-time formulations that the vectorized implementations replaced, so tests
and benchmarks can compare the two:

* :class:`BitVector` — an ``N``-bit vector backed by a Python ``int``, the
  paper's bit-vector model of ``N`` simultaneous sampling processes.
* :func:`sample_walk` / :func:`sample_walks` / :func:`estimate_meeting_probabilities`
  — the scalar Sampling algorithm (Section VI-B): one walk at a time over the
  dict-of-dict graph, arc existence and arc choice drawn from a stateful
  ``Generator``.  Statistically equivalent to the keyed sampler of
  :mod:`repro.core.batch_walks`, not bit-identical to it.
* :func:`propagate_counting_tables` / :func:`meeting_probabilities_from_tables`
  — the SR-SP propagation (Section VI-D) as per-vertex :class:`BitVector`
  counting tables.  Reads the same filter bits as
  :func:`repro.core.speedup.propagate_packed_tables`, so the two must agree
  bit for bit (:func:`counting_tables_as_packed` converts for comparison).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.sampling import DEFAULT_NUM_WALKS
from repro.core.simrank import (
    DEFAULT_DECAY,
    DEFAULT_ITERATIONS,
    simrank_from_meeting_probabilities,
)
from repro.core.speedup import FilterVectors
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import RandomState, ensure_rng

Vertex = Hashable


# -- bit vectors ---------------------------------------------------------------


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers only")
    return value.bit_count()


class BitVector:
    """An immutable vector of ``width`` bits backed by a Python integer.

    Bit ``i`` corresponds to sampling process ``i``.  All bit-wise operators
    require both operands to have the same width, mirroring the fixed sample
    count ``N`` of the algorithms that use them.
    """

    __slots__ = ("_bits", "_width")

    def __init__(self, width: int, bits: int = 0):
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if bits < 0:
            raise ValueError("bits must be a non-negative integer")
        if bits >> width:
            raise ValueError("bits has set positions beyond the declared width")
        self._bits = bits
        self._width = width

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, width: int) -> "BitVector":
        """All-zero vector of the given width."""
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> "BitVector":
        """All-one vector of the given width."""
        return cls(width, (1 << width) - 1 if width else 0)

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "BitVector":
        """Vector with exactly the given bit positions set."""
        bits = 0
        for index in indices:
            if not 0 <= index < width:
                raise ValueError(f"bit index {index} out of range for width {width}")
            bits |= 1 << index
        return cls(width, bits)

    @classmethod
    def from_bool_array(cls, flags: np.ndarray) -> "BitVector":
        """Vector whose bit ``i`` is set iff ``flags[i]`` is truthy."""
        flags = np.asarray(flags, dtype=bool)
        if flags.ndim != 1:
            raise ValueError("from_bool_array expects a one-dimensional array")
        packed = np.packbits(flags, bitorder="little")
        return cls(int(flags.size), int.from_bytes(packed.tobytes(), "little"))

    # -- accessors ---------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of bits (the sample count ``N``)."""
        return self._width

    @property
    def bits(self) -> int:
        """The underlying integer."""
        return self._bits

    def count(self) -> int:
        """Number of set bits (the 1-norm used by Eq. 16 of the paper)."""
        return self._bits.bit_count()

    def get(self, index: int) -> bool:
        """Whether bit ``index`` is set."""
        if not 0 <= index < self._width:
            raise IndexError(f"bit index {index} out of range for width {self._width}")
        return bool((self._bits >> index) & 1)

    def indices(self) -> Iterator[int]:
        """Iterate over the positions of set bits in increasing order."""
        bits = self._bits
        position = 0
        while bits:
            if bits & 1:
                yield position
            bits >>= 1
            position += 1

    def to_bool_array(self) -> np.ndarray:
        """Dense boolean numpy array of length ``width``."""
        if self._width == 0:
            return np.zeros(0, dtype=bool)
        raw = self._bits.to_bytes((self._width + 7) // 8, "little")
        unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return unpacked[: self._width].astype(bool)

    def is_zero(self) -> bool:
        """Whether no bit is set."""
        return self._bits == 0

    # -- modifiers (return new vectors) -------------------------------------

    def with_bit(self, index: int) -> "BitVector":
        """Copy of this vector with bit ``index`` set."""
        if not 0 <= index < self._width:
            raise IndexError(f"bit index {index} out of range for width {self._width}")
        return BitVector(self._width, self._bits | (1 << index))

    # -- operators ----------------------------------------------------------

    def _check_width(self, other: "BitVector") -> None:
        if not isinstance(other, BitVector):
            raise TypeError(f"expected BitVector, got {type(other).__name__}")
        if other._width != self._width:
            raise ValueError(
                f"width mismatch: {self._width} vs {other._width}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._width, self._bits & other._bits)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._width, self._bits | other._bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._width, self._bits ^ other._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._width == other._width and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._width, self._bits))

    def __len__(self) -> int:
        return self._width

    def __bool__(self) -> bool:
        return self._bits != 0

    def __repr__(self) -> str:
        return f"BitVector(width={self._width}, set={self.count()})"


# -- the scalar Sampling algorithm ----------------------------------------------


def sample_walk(
    graph: UncertainGraph,
    source: Vertex,
    length: int,
    rng: RandomState = None,
) -> List[Vertex]:
    """Sample one walk of (at most) ``length`` steps starting at ``source``.

    Returns the visited vertex sequence, starting with ``source``.  The walk
    is truncated early if it reaches a vertex none of whose out-arcs were
    instantiated (a dead end in the sampled possible world).
    """
    if not graph.has_vertex(source):
        raise InvalidParameterError(f"source vertex {source!r} is not in the graph")
    if length < 0:
        raise InvalidParameterError(f"length must be >= 0, got {length}")
    generator = ensure_rng(rng)
    walk: List[Vertex] = [source]
    instantiated: dict[Vertex, List[Vertex]] = {}
    current = source
    for _ in range(length):
        if current not in instantiated:
            out_arcs = graph.out_arcs(current)
            present = [
                neighbor
                for neighbor, probability in out_arcs.items()
                if generator.random() < probability
            ]
            instantiated[current] = present
        present = instantiated[current]
        if not present:
            break
        current = present[int(generator.integers(len(present)))]
        walk.append(current)
    return walk


def sample_walks(
    graph: UncertainGraph,
    source: Vertex,
    length: int,
    count: int,
    rng: RandomState = None,
) -> List[List[Vertex]]:
    """Sample ``count`` independent walks from ``source``."""
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    generator = ensure_rng(rng)
    return [sample_walk(graph, source, length, generator) for _ in range(count)]


def estimate_meeting_probabilities(
    walks_u: Sequence[Sequence[Vertex]],
    walks_v: Sequence[Sequence[Vertex]],
    iterations: int,
    u: Vertex,
    v: Vertex,
) -> List[float]:
    """Estimate ``m(0) … m(n)`` from paired walk samples (Eq. 13).

    ``m(0)`` needs no sampling: it is 1 when ``u == v`` and 0 otherwise.  For
    ``k >= 1`` the estimate is the fraction of sample indices whose two walks
    are both long enough and stand on the same vertex at step ``k``.
    """
    if len(walks_u) != len(walks_v):
        raise InvalidParameterError("walk bundles must contain the same number of walks")
    if not walks_u:
        raise InvalidParameterError("at least one pair of sampled walks is required")
    count = len(walks_u)
    meeting = [1.0 if u == v else 0.0]
    for k in range(1, iterations + 1):
        hits = 0
        for walk_u, walk_v in zip(walks_u, walks_v):
            if len(walk_u) > k and len(walk_v) > k and walk_u[k] == walk_v[k]:
                hits += 1
        meeting.append(hits / count)
    return meeting


def scalar_sampling_simrank(
    graph: UncertainGraph,
    u: Vertex,
    v: Vertex,
    decay: float = DEFAULT_DECAY,
    iterations: int = DEFAULT_ITERATIONS,
    num_walks: int = DEFAULT_NUM_WALKS,
    rng: RandomState = None,
) -> float:
    """The Sampling algorithm's score from ``num_walks`` scalar walks per endpoint."""
    generator = ensure_rng(rng)
    walks_u = sample_walks(graph, u, iterations, num_walks, generator)
    walks_v = sample_walks(graph, v, iterations, num_walks, generator)
    meeting = estimate_meeting_probabilities(walks_u, walks_v, iterations, u, v)
    return simrank_from_meeting_probabilities(meeting, decay)


# -- SR-SP counting tables ------------------------------------------------------


def filter_vectors(filters: FilterVectors) -> Dict[Tuple[Vertex, Vertex], BitVector]:
    """Every arc's filter vector, unpacked from :attr:`FilterVectors.packed`."""
    csr = filters.csr
    sources = csr.arc_sources()
    return {
        (csr.vertex_at(int(sources[arc])), csr.vertex_at(int(csr.indices[arc]))): BitVector(
            filters.num_processes,
            int.from_bytes(filters.packed[arc].tobytes(), "little"),
        )
        for arc in range(csr.num_arcs)
    }


CountingTables = List[Dict[Vertex, BitVector]]


def propagate_counting_tables(
    graph: UncertainGraph,
    source: Vertex,
    steps: int,
    filters: FilterVectors,
) -> CountingTables:
    """Propagate the counting tables of ``source`` for ``steps`` steps.

    Returns ``tables`` with ``tables[k][w]`` the bit vector recording in which
    sampling processes ``w`` is the ``k``-th vertex of the walk from
    ``source`` (vertices with an all-zero vector omitted).  ``tables[0]`` maps
    ``source`` to the all-ones vector.  Filter bits are read from
    :attr:`FilterVectors.packed`, the same bits the packed propagation uses.
    """
    if not graph.has_vertex(source):
        raise InvalidParameterError(f"source vertex {source!r} is not in the graph")
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    n = filters.num_processes
    arc_filters = filter_vectors(filters)
    tables: CountingTables = [{source: BitVector.ones(n)}]
    for _ in range(steps):
        current = tables[-1]
        next_table: Dict[Vertex, BitVector] = {}
        for vertex, mask in current.items():
            for neighbor in graph.out_neighbors(vertex):
                arc_filter = arc_filters[(vertex, neighbor)]
                if arc_filter.is_zero():
                    continue
                moved = mask & arc_filter
                if moved.is_zero():
                    continue
                if neighbor in next_table:
                    next_table[neighbor] = next_table[neighbor] | moved
                else:
                    next_table[neighbor] = moved
        tables.append(next_table)
    return tables


def meeting_probabilities_from_tables(
    tables_u: CountingTables,
    tables_v: CountingTables,
    num_processes: int,
    u: Vertex,
    v: Vertex,
) -> List[float]:
    """Eq. 16: estimate ``m(k)`` from two endpoints' counting tables."""
    if len(tables_u) != len(tables_v):
        raise InvalidParameterError("counting tables must cover the same number of steps")
    meeting = [1.0 if u == v else 0.0]
    for k in range(1, len(tables_u)):
        table_u, table_v = tables_u[k], tables_v[k]
        smaller, larger = (table_u, table_v) if len(table_u) <= len(table_v) else (table_v, table_u)
        hits = 0
        for vertex, mask in smaller.items():
            other = larger.get(vertex)
            if other is not None:
                hits += (mask & other).count()
        meeting.append(hits / num_processes)
    return meeting


def counting_tables_as_packed(tables: CountingTables, filters: FilterVectors) -> np.ndarray:
    """Counting tables in the ``(steps + 1, n, words)`` layout of the packed ones."""
    csr = filters.csr
    words = filters.packed.shape[1]
    packed = np.zeros((len(tables), csr.num_vertices, words), dtype=np.uint64)
    for step, table in enumerate(tables):
        for vertex, vector in table.items():
            raw = vector.bits.to_bytes(8 * words, "little")
            packed[step, csr.index_of(vertex)] = np.frombuffer(raw, dtype=np.uint64)
    return packed
