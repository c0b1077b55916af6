"""Physical organizations of stored sequences.

The paper (Sections 3.3, 4.1.1 and footnote 8) stresses that per-record
stream and probed access costs depend on the physical organization of
the sequence.  Three organizations are provided, spanning the
interesting cost regimes:

* ``clustered`` — records packed into pages in position order with an
  in-memory page directory.  Streams are sequential page reads; probes
  are a single page read.  (Both modes cheap.)
* ``indexed`` — records scattered across pages in arrival order, with a
  B-tree-style position index.  Probes cost ``height + 1`` page reads;
  a positional-order stream reads roughly one (random) data page per
  record, so streaming is *expensive* — the "relation with an
  unclustered index" of footnote 8.
* ``log`` — records appended in position order with no index.  Streams
  are cheap; a probe must scan from the head, so probes are *expensive*.
"""

from __future__ import annotations

import abc
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence as PySequence

from repro.errors import CorruptPageError, StorageError
from repro.model.batch import Chunk, column_item, column_to_list, exact_column
from repro.model.span import Span
from repro.model.types import AtomType
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page

ORGANIZATION_KINDS = ("clustered", "indexed", "log")


@dataclass(frozen=True)
class AccessProfile:
    """Estimated access costs of a stored sequence, in page-read units.

    Attributes:
        stream_total: estimated total cost of one full positional-order
            scan of the sequence (the paper's ``A``).
        probe_unit: estimated cost of fetching the record at one given
            position (the paper's ``a``).
    """

    stream_total: float
    probe_unit: float

    def scaled_stream(self, fraction: float) -> float:
        """Stream cost when only ``fraction`` of the span is scanned."""
        return self.stream_total * max(0.0, min(1.0, fraction))


class PhysicalOrganization(abc.ABC):
    """A placement + access-path strategy over the simulated disk."""

    kind: str = "abstract"

    def __init__(self, disk: SimulatedDisk, pool: BufferPool):
        self._disk = disk
        self._pool = pool
        self._count = 0
        self._atypes: tuple[AtomType, ...] = ()

    @property
    def record_count(self) -> int:
        """Number of stored (non-Null) records."""
        return self._count

    def load(
        self,
        positions: list[int],
        columns: PySequence[list[Any]],
        atypes: PySequence[AtomType],
    ) -> None:
        """Bulk-load ascending ``positions`` with parallel value ``columns``."""
        self._atypes = tuple(atypes)
        self._place(positions, columns)

    @abc.abstractmethod
    def _place(self, positions: list[int], columns: PySequence[list[Any]]) -> None:
        """Write the loaded entries onto pages and build the access path."""

    @abc.abstractmethod
    def scan(self, window: Span) -> Iterator[Chunk]:
        """Yield non-empty per-page chunks within ``window``, in position order."""

    @abc.abstractmethod
    def probe(self, position: int) -> Optional[tuple[Any, ...]]:
        """The values stored at ``position``, or None."""

    @abc.abstractmethod
    def profile(self) -> AccessProfile:
        """Estimated stream/probe costs for the cost model."""

    def _write_runs(
        self, positions: list[int], columns: PySequence[list[Any]]
    ) -> Iterator[Page]:
        """Write the entries onto fresh data pages, one capacity-sized run each."""
        capacity = self._disk.page_capacity
        for lo in range(0, len(positions), capacity):
            hi = lo + capacity
            page = self._disk.allocate(Page.DATA)
            page.fill(positions[lo:hi], [values[lo:hi] for values in columns], self._atypes)
            self._count += len(page)
            yield page


def _scan_pages(pool: BufferPool, page_ids: PySequence[int], window: Span) -> Iterator[Chunk]:
    """Stream position-ordered data pages, clipped to ``window``.

    Reads every page from the first one until the page that holds a
    position past the window's end.
    """
    for page_id in page_ids:
        page = pool.get(page_id)
        lo, hi = page.slots_within(window)
        if lo < hi:
            yield page.chunk(lo, hi)
        if hi < len(page):
            return


class ClusteredOrganization(PhysicalOrganization):
    """Position-ordered pages with an in-memory page directory."""

    kind = "clustered"

    def __init__(self, disk: SimulatedDisk, pool: BufferPool):
        super().__init__(disk, pool)
        # The page directory: per page, its first and last position.
        self._firsts: list[int] = []
        self._lasts: list[int] = []
        self._page_ids: list[int] = []

    def _place(self, positions: list[int], columns: PySequence[list[Any]]) -> None:
        for page in self._write_runs(positions, columns):
            self._firsts.append(page.key_at(0))
            self._lasts.append(page.key_at(len(page) - 1))
            self._page_ids.append(page.page_id)

    def scan(self, window: Span) -> Iterator[Chunk]:
        if window.is_empty or not self._page_ids:
            return
        first = 0 if window.start is None else bisect_left(self._lasts, window.start)
        last = (
            len(self._page_ids)
            if window.end is None
            else bisect_right(self._firsts, window.end)
        )
        yield from _scan_pages(self._pool, self._page_ids[first:last], window)

    def probe(self, position: int) -> Optional[tuple[Any, ...]]:
        index = bisect_left(self._lasts, position)
        if index == len(self._lasts) or self._firsts[index] > position:
            return None
        page = self._pool.get(self._page_ids[index])
        slot = bisect_left(page.positions, position)
        if slot < len(page) and page.key_at(slot) == position:
            return page.values_at(slot)
        return None

    def profile(self) -> AccessProfile:
        pages = max(1, len(self._page_ids))
        return AccessProfile(stream_total=float(pages), probe_unit=1.0)


class IndexedOrganization(PhysicalOrganization):
    """Unclustered data pages under a B-tree-style position index."""

    kind = "indexed"

    #: Column types of an index leaf (data page, slot) and of an
    #: internal node (child node), keyed by position / largest key.
    _LEAF_TYPES = (AtomType.INT, AtomType.INT)
    _NODE_TYPES = (AtomType.INT,)

    def __init__(
        self,
        disk: SimulatedDisk,
        pool: BufferPool,
        fanout: int = 64,
        seed: int = 0,
    ):
        super().__init__(disk, pool)
        if fanout < 2:
            raise StorageError(f"index fanout must be >= 2, got {fanout}")
        self._fanout = fanout
        self._seed = seed
        self._root_id: Optional[int] = None
        self._height = 0
        self._leaf_ids: list[int] = []

    def _place(self, positions: list[int], columns: PySequence[list[Any]]) -> None:
        # Scatter records across data pages in a shuffled "arrival" order
        # so a positional-order scan hops across pages (unclustered).
        order = list(range(len(positions)))
        random.Random(self._seed).shuffle(order)
        data_pages = [
            page.page_id
            for page in self._write_runs(
                [positions[i] for i in order],
                [[values[i] for i in order] for values in columns],
            )
        ]
        capacity = self._disk.page_capacity
        location = [0] * len(positions)
        for rank, i in enumerate(order):
            location[i] = rank

        # Index leaves in position order: (position) -> (data page, slot).
        keys: list[int] = []  # each node's largest key, one level at a time
        nodes: list[int] = []
        for lo in range(0, len(positions), self._fanout):
            run = range(lo, min(lo + self._fanout, len(positions)))
            leaf = self._disk.allocate(Page.INDEX, capacity=self._fanout)
            leaf.fill(
                positions[lo : run.stop],
                [
                    [data_pages[location[i] // capacity] for i in run],
                    [location[i] % capacity for i in run],
                ],
                self._LEAF_TYPES,
            )
            self._leaf_ids.append(leaf.page_id)
            keys.append(positions[run.stop - 1])
            nodes.append(leaf.page_id)

        self._height = 1 if nodes else 0
        # Build internal levels bottom-up until a single root remains.
        while len(nodes) > 1:
            parent_keys: list[int] = []
            parents: list[int] = []
            for lo in range(0, len(nodes), self._fanout):
                hi = lo + self._fanout
                node = self._disk.allocate(Page.INDEX, capacity=self._fanout)
                node.fill(keys[lo:hi], [nodes[lo:hi]], self._NODE_TYPES)
                parent_keys.append(keys[min(hi, len(keys)) - 1])
                parents.append(node.page_id)
            keys, nodes = parent_keys, parents
            self._height += 1
        self._root_id = nodes[0] if nodes else None

    def _descend(self, position: int) -> Optional[tuple[int, int]]:
        """Walk root→leaf; return (data_page, slot) or None."""
        if self._root_id is None:
            return None
        node = self._pool.get(self._root_id)
        for _level in range(self._height - 1):
            # Internal node: the first child whose largest key >= position.
            slot = bisect_left(node.positions, position)
            if slot == len(node):
                return None
            node = self._pool.get(column_item(node.columns[0], slot))
        slot = bisect_left(node.positions, position)
        if slot < len(node) and node.key_at(slot) == position:
            data_page, data_slot = node.values_at(slot)
            return data_page, data_slot
        return None

    def _fetch(self, data_page: int, slot: int, position: int) -> Optional[Page]:
        """The data page holding ``position`` at ``slot``, or None on mismatch."""
        page = self._pool.get(data_page)
        if slot < len(page) and page.key_at(slot) == position:
            return page
        return None

    def scan(self, window: Span) -> Iterator[Chunk]:
        if window.is_empty:
            return
        for leaf_id in self._leaf_ids:
            leaf = self._pool.get(leaf_id)
            lo, hi = leaf.slots_within(window)
            if lo < hi:
                positions, (data_pages, slots) = leaf.chunk(lo, hi)
                rows = []
                for position, data_page, slot in zip(
                    column_to_list(positions),
                    column_to_list(data_pages),
                    column_to_list(slots),
                ):
                    page = self._fetch(data_page, slot, position)
                    if page is None:
                        # The index points at a slot that no longer holds
                        # this position: damage the checksum cannot see.
                        raise CorruptPageError(
                            f"index entry for position {position} does not "
                            f"match page {data_page} slot {slot}",
                            page_id=data_page,
                        )
                    rows.append(page.values_at(slot))
                yield positions, tuple(
                    exact_column(list(values), atype)
                    for values, atype in zip(zip(*rows), self._atypes)
                )
            if hi < len(leaf):
                return

    def probe(self, position: int) -> Optional[tuple[Any, ...]]:
        location = self._descend(position)
        if location is None:
            return None
        data_page, slot = location
        page = self._fetch(data_page, slot, position)
        return None if page is None else page.values_at(slot)

    def profile(self) -> AccessProfile:
        leaf_pages = max(1, len(self._leaf_ids))
        # Unclustered positional scan: every record is likely on a cold
        # page, plus the leaf walk.
        stream_total = float(self._count + leaf_pages)
        probe_unit = float(self._height + 1) if self._height else 1.0
        return AccessProfile(stream_total=stream_total, probe_unit=probe_unit)


class AppendLogOrganization(PhysicalOrganization):
    """Position-ordered append-only pages with no access path.

    Streams are sequential and cheap; probes must scan from the head
    until the position is found or passed.
    """

    kind = "log"

    def __init__(self, disk: SimulatedDisk, pool: BufferPool):
        super().__init__(disk, pool)
        self._page_ids: list[int] = []

    def _place(self, positions: list[int], columns: PySequence[list[Any]]) -> None:
        for page in self._write_runs(positions, columns):
            self._page_ids.append(page.page_id)

    def scan(self, window: Span) -> Iterator[Chunk]:
        if window.is_empty:
            return
        yield from _scan_pages(self._pool, self._page_ids, window)

    def probe(self, position: int) -> Optional[tuple[Any, ...]]:
        for page_id in self._page_ids:
            page = self._pool.get(page_id)
            slot = bisect_left(page.positions, position)
            if slot < len(page):
                return page.values_at(slot) if page.key_at(slot) == position else None
        return None

    def profile(self) -> AccessProfile:
        pages = max(1, len(self._page_ids))
        return AccessProfile(stream_total=float(pages), probe_unit=pages / 2.0)


def make_organization(
    kind: str,
    disk: SimulatedDisk,
    pool: BufferPool,
    *,
    fanout: int = 64,
    seed: int = 0,
) -> PhysicalOrganization:
    """Factory for the named organization kind.

    Raises:
        StorageError: for an unknown kind.
    """
    if kind == "clustered":
        return ClusteredOrganization(disk, pool)
    if kind == "indexed":
        return IndexedOrganization(disk, pool, fanout=fanout, seed=seed)
    if kind == "log":
        return AppendLogOrganization(disk, pool)
    raise StorageError(
        f"unknown organization {kind!r}; expected one of {ORGANIZATION_KINDS}"
    )
