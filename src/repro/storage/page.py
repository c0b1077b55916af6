"""Fixed-capacity columnar pages of the simulated disk.

Every page — data page or index node — has one layout: a *positions*
buffer (the sort key of each slot) plus one buffer per column, all of
the same length and bounded by the page capacity.  A data page holds
one column per record attribute; an index leaf holds the ``(data page,
slot)`` columns of each indexed position, and an internal index node
holds the child-node column under each child's largest key.  Pages are
written once (:meth:`Page.fill`) and are plain containers afterwards —
all accounting happens in the disk and buffer pool.

Buffers are built by :func:`repro.model.batch.exact_column`: INT,
FLOAT and BOOL values become typed buffers (numpy ``int64``/
``float64``/``bool``, or ``array.array`` without numpy) when the buffer
reads every value back with its Python type; STR columns, and columns
no typed buffer holds exactly (ints past int64, ints in a FLOAT
attribute), stay lists.  Scans hand the buffers on unchanged, so a
page's values are validated once, at load.

Every page carries a CRC-32 over its buffers' bytes (typed buffers
contribute their raw memory; list columns a type-tagged byte image,
see :func:`_list_bytes`), fixed at :meth:`Page.fill` and re-validated by
the disk on every read (:meth:`Page.verify`), so page corruption —
e.g. injected by :class:`repro.storage.faults.FaultyDisk` — is
*detected* and raised as a typed
:class:`~repro.errors.CorruptPageError`, never silently returned.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Sequence as PySequence

from repro.errors import StorageError
from repro.model.batch import Chunk, Column, column_item, exact_column
from repro.model.span import Span
from repro.model.types import AtomType


def _list_bytes(values: list[Any]) -> bytes:
    """A type-tagged byte image of a list column, for the checksum.

    All-string columns (the common case) encode as their lengths plus
    their UTF-8 text; any other list encodes value by value, tagged
    with its atom type so an int and an equal float image differently.
    """
    if set(map(type, values)) == {str}:
        text = "".join(values).encode("utf-8", "surrogatepass")
        return b"s" + array("q", map(len, values)).tobytes() + text
    parts = []
    for value in values:
        kind = type(value)
        if kind is bool:
            parts.append(b"t" if value else b"f")
        elif kind is int:
            data = value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True)
            parts.append(b"i%d:" % len(data) + data)
        elif kind is str:
            data = value.encode("utf-8", "surrogatepass")
            parts.append(b"s%d:" % len(data) + data)
        else:
            parts.append(b"d" + struct.pack("<d", value))
    return b"".join(parts)


def _crc(column: Column, crc: int) -> int:
    """Fold one buffer's bytes into a running CRC-32."""
    if isinstance(column, list):
        return zlib.crc32(_list_bytes(column), crc)
    return zlib.crc32(column, crc)


class Page:
    """A fixed-capacity columnar page."""

    __slots__ = ("page_id", "capacity", "kind", "positions", "columns", "checksum")

    DATA = "data"
    INDEX = "index"

    def __init__(self, page_id: int, capacity: int, kind: str = DATA):
        if capacity < 1:
            raise StorageError(f"page capacity must be >= 1, got {capacity}")
        self.page_id = page_id
        self.capacity = capacity
        self.kind = kind
        self.positions: Column = []
        self.columns: tuple[Column, ...] = ()
        #: CRC-32 of the buffers' bytes, fixed when the page is written.
        self.checksum = 0

    def fill(
        self,
        positions: list[int],
        columns: PySequence[list[Any]],
        atypes: PySequence[AtomType],
    ) -> None:
        """Write the page: build its typed buffers and fix its checksum.

        Args:
            positions: the slots' keys, in slot order.
            columns: one value list per column, parallel to ``positions``.
            atypes: the atom type of each column.

        Raises:
            StorageError: if the entries exceed the page capacity.
        """
        if len(positions) > self.capacity:
            raise StorageError(
                f"page {self.page_id} is full: {len(positions)} entries "
                f"exceed capacity {self.capacity}"
            )
        self.positions = exact_column(list(positions), AtomType.INT)
        self.columns = tuple(
            exact_column(list(values), atype) for values, atype in zip(columns, atypes)
        )
        self.checksum = self.compute_checksum()

    @property
    def is_full(self) -> bool:
        """Whether the page has no free slots."""
        return len(self.positions) >= self.capacity

    def compute_checksum(self) -> int:
        """Recompute the CRC-32 of the current buffer contents."""
        crc = _crc(self.positions, 0)
        for column in self.columns:
            crc = _crc(column, crc)
        return crc

    def verify(self) -> bool:
        """Whether the buffer contents still match the stored checksum."""
        return self.compute_checksum() == self.checksum

    def key_at(self, slot: int) -> int:
        """The position (key) held in ``slot``, as a Python int."""
        key: int = column_item(self.positions, slot)
        return key

    def values_at(self, slot: int) -> tuple[Any, ...]:
        """The column values in ``slot`` as a tuple of Python scalars."""
        return tuple([column_item(column, slot) for column in self.columns])

    def slots_within(self, window: Span) -> tuple[int, int]:
        """The slot range ``[lo, hi)`` whose keys lie in ``window``.

        Requires the keys to be ascending (every page but an unclustered
        data page).
        """
        keys = self.positions
        lo = 0 if window.start is None else bisect_left(keys, window.start)
        hi = len(keys) if window.end is None else bisect_right(keys, window.end)
        return lo, hi

    def chunk(self, lo: int, hi: int) -> Chunk:
        """Slots ``[lo, hi)`` as buffer slices (views where the backend allows)."""
        return self.positions[lo:hi], tuple(column[lo:hi] for column in self.columns)

    def __len__(self) -> int:
        return len(self.positions)

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, kind={self.kind}, "
            f"used={len(self.positions)}/{self.capacity})"
        )
