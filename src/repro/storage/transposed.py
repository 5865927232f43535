"""Transposed (fully column-wise) files.

The paper (SS2.6, following RAPID and ALDS/SDB) identifies transposed files
as "the best all-around storage structure for statistical data sets": a
statistical operation touching q of m columns reads only those q columns'
pages, while higher software keeps a flat-file view.  The cost is the
"informational" query — reconstructing one whole row touches one page per
column.

Each column is stored as its own chain of pages.  A page holds a uint16
value count followed by the values in one of three layouts, chosen by the
column's dtype and compression:

* plain fixed-width (INT, FLOAT, CATEGORY, BOOL): fixed-stride slots, each
  a validity byte (1 = present, 0 = NA) followed by the little-endian
  value (int64, float64, int32 or one byte); an NA slot is the 0 byte and
  zero padding.  A page decodes with one ``np.frombuffer`` over a
  structured dtype, and rewriting a slot never changes the page's size;
* plain STR: variable-width values (marker byte, uint16 length, UTF-8);
* RLE-compressed (``compress="rle"``): (value, uint32 run length) pairs.

Per-column page metadata (first row and row count per page) lets point
lookups find the right page without scanning the chain, though a
compressed page must still be decoded as a unit — the positional
misalignment penalty the paper mentions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import PageError, StorageError
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.relational.types import NA, DataType, is_na
from repro.storage import compression as comp
from repro.storage.pager import BufferPool

_COUNT = struct.Struct("<H")
_MAX_PAGE_VALUES = 0xFFFF

#: Slot layout of plain pages of fixed-width types: a validity byte, then
#: the value as ``compression._encode_value`` packs it.
_SLOTS = {
    dtype: np.dtype([("valid", "u1"), ("value", fmt)])
    for dtype, fmt in (
        (DataType.INT, "<i8"),
        (DataType.FLOAT, "<f8"),
        (DataType.CATEGORY, "<i4"),
        (DataType.BOOL, "?"),
    )
}


@dataclass
class _ColumnPage:
    page_no: int
    first_row: int
    count: int


class _Column:
    """One attribute's chain of value pages."""

    def __init__(
        self,
        pool: BufferPool,
        dtype: DataType,
        compress: str | None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        if compress not in (None, "rle"):
            raise StorageError(f"unsupported compression {compress!r}")
        self.pool = pool
        self.dtype = dtype
        self.compress = compress
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Fixed-stride slot dtype of plain pages, or None for variable-width
        # (STR) and RLE pages.
        self._slot = _SLOTS.get(dtype) if compress is None else None
        self.pages: list[_ColumnPage] = []
        self.row_count = 0
        # State of the open (last) page, kept in memory to make appends
        # incremental; it mirrors what is on the page.
        self._open_page_no: int | None = None
        self._open_offset = 0  # next free byte (plain mode)
        self._open_runs: list[tuple[object, int]] = []  # rle mode
        self._open_rle_size = 0  # encoded body size of the open runs
        # Last decoded page, memoized: consecutive point probes of the same
        # page (the informational query walking a row range, or an RLE
        # column probed value by value) skip re-decoding the whole page.
        self._memo_page_no = -1
        self._memo_values: list[object] | None = None

    # -- append ------------------------------------------------------------

    def append(self, value: object) -> None:
        if self.compress == "rle":
            self._append_rle(value)
        else:
            self._append_plain(value)
        self.row_count += 1
        if self._memo_page_no == self._open_page_no:
            self._invalidate_memo()

    def _encode_plain(self, value: object) -> bytes:
        if self._slot is not None and is_na(value):
            return bytes(self._slot.itemsize)
        return comp._encode_value(value, self.dtype)

    def _append_plain(self, value: object) -> None:
        encoded = self._encode_plain(value)
        block_size = self.pool.disk.block_size
        meta = self.pages[-1] if self.pages else None
        fits = (
            meta is not None
            and self._open_offset + len(encoded) <= block_size
            and meta.count < _MAX_PAGE_VALUES
        )
        if not fits:
            if _COUNT.size + len(encoded) > block_size:
                raise StorageError(
                    f"a single value of {len(encoded)} bytes exceeds the "
                    f"{block_size}-byte page"
                )
            self._start_page()
            meta = self.pages[-1]
        assert self._open_page_no is not None
        page = self.pool.fetch_page(self._open_page_no)
        try:
            page[self._open_offset : self._open_offset + len(encoded)] = encoded
            meta.count += 1
            _COUNT.pack_into(page, 0, meta.count)
        finally:
            self.pool.unpin(self._open_page_no, dirty=True)
        self._open_offset += len(encoded)

    def _append_rle(self, value: object) -> None:
        block_size = self.pool.disk.block_size
        extends_run = bool(self._open_runs) and self._open_runs[-1][0] == value
        entry_size = 0 if extends_run else len(comp._encode_value(value, self.dtype)) + 4
        body_size = self._open_rle_size + entry_size
        meta = self.pages[-1] if self.pages else None
        fits = (
            meta is not None
            and _COUNT.size + 4 + body_size <= block_size
            and meta.count < _MAX_PAGE_VALUES
        )
        if not fits:
            self._start_page()
            meta = self.pages[-1]
            extends_run = False
            entry_size = len(comp._encode_value(value, self.dtype)) + 4
        if extends_run:
            head, count = self._open_runs[-1]
            self._open_runs[-1] = (head, count + 1)
        else:
            self._open_runs.append((value, 1))
            self._open_rle_size += entry_size
        meta.count += 1
        self._write_open_rle(meta)

    def _write_open_rle(self, meta: _ColumnPage) -> None:
        assert self._open_page_no is not None
        parts = [struct.pack("<I", len(self._open_runs))]
        for value, count in self._open_runs:
            parts.append(comp._encode_value(value, self.dtype))
            parts.append(struct.pack("<I", count))
        encoded = _COUNT.pack(meta.count) + b"".join(parts)
        page = self.pool.fetch_page(self._open_page_no)
        try:
            page[: len(encoded)] = encoded
        finally:
            self.pool.unpin(self._open_page_no, dirty=True)

    def _start_page(self) -> None:
        page_no, page = self.pool.new_page()
        _COUNT.pack_into(page, 0, 0)
        self.pool.unpin(page_no, dirty=True)
        self.pages.append(_ColumnPage(page_no, self.row_count, 0))
        self._open_page_no = page_no
        self._open_offset = _COUNT.size
        self._open_runs = []
        self._open_rle_size = 0

    # -- read --------------------------------------------------------------

    def scan(self) -> Iterator[object]:
        for meta in self.pages:
            yield from self._read_page(meta)

    def scan_pages(self) -> Iterator[list[object]]:
        """Stream the column page by page, each as a decoded value list.

        Callers must treat the yielded lists as read-only: they may be the
        memoized decode shared with point lookups.
        """
        for meta in self.pages:
            yield self._read_page(meta)

    def get(self, row: int) -> object:
        meta = self._page_for_row(row)
        values = self._read_page(meta)
        return values[row - meta.first_row]

    def set(self, row: int, value: object) -> None:
        meta = self._page_for_row(row)
        values = self._read_page(meta)
        values[row - meta.first_row] = value
        if self.compress == "rle":
            body = comp.rle_encode_bytes(values, self.dtype)
        else:
            body = b"".join(self._encode_plain(v) for v in values)
        encoded = _COUNT.pack(meta.count) + body
        if len(encoded) > self.pool.disk.block_size:
            raise StorageError(
                "updated page no longer fits; transposed files do not "
                "support growing in-place updates of variable-width values"
            )
        page = self.pool.fetch_page(meta.page_no)
        try:
            page[: len(encoded)] = encoded
            page[len(encoded) :] = bytes(len(page) - len(encoded))
        finally:
            self.pool.unpin(meta.page_no, dirty=True)
        if meta is self.pages[-1]:
            # Refresh open-page state to mirror the rewrite.
            if self.compress == "rle":
                self._open_runs = comp.rle_runs(values)
                self._open_rle_size = sum(
                    len(comp._encode_value(v, self.dtype)) + 4
                    for v, _ in self._open_runs
                )
            else:
                self._open_offset = len(encoded)
        # The in-place edit above may have mutated the memoized decode;
        # drop it so the next probe re-reads the rewritten page.
        self._invalidate_memo()

    # -- internals ----------------------------------------------------------

    def _page_for_row(self, row: int) -> _ColumnPage:
        if not 0 <= row < self.row_count:
            raise PageError(f"row {row} out of range (column has {self.row_count})")
        lo, hi = 0, len(self.pages) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            meta = self.pages[mid]
            if row < meta.first_row:
                hi = mid - 1
            elif row >= meta.first_row + meta.count:
                lo = mid + 1
            else:
                return meta
        return self.pages[lo]

    def _invalidate_memo(self) -> None:
        self._memo_page_no = -1
        self._memo_values = None

    def _read_page(self, meta: _ColumnPage) -> list[object]:
        if meta.page_no == self._memo_page_no and self._memo_values is not None:
            return self._memo_values
        self.tracer.add("transposed.pages_read")
        page = self.pool.fetch_page(meta.page_no)
        try:
            buf = bytes(page)
        finally:
            self.pool.unpin(meta.page_no)
        (count,) = _COUNT.unpack_from(buf, 0)
        if count != meta.count:
            raise PageError(
                f"page holds {count} values, metadata says {meta.count}"
            )
        body = buf[_COUNT.size :]
        if self._slot is not None:
            slots = np.frombuffer(body, self._slot, count)
            decoded = slots["value"].astype(object)
            decoded[slots["valid"] == 0] = NA
            values = decoded.tolist()
        elif self.compress == "rle":
            values = comp.rle_decode_bytes(body, self.dtype)
        else:
            values = list(comp.iter_value_stream(body, self.dtype, count))
        self._memo_page_no = meta.page_no
        self._memo_values = values
        return values


class TransposedFile:
    """A data set stored column-wise, one page chain per attribute."""

    def __init__(
        self,
        pool: BufferPool,
        types: Sequence[DataType],
        name: str = "transposed",
        compress: str | None = None,
        tracer: AbstractTracer | None = None,
    ) -> None:
        self.pool = pool
        self.name = name
        self.types = tuple(types)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._columns = [
            _Column(pool, dtype, compress, tracer=self.tracer) for dtype in self.types
        ]
        self._row_count = 0

    def __len__(self) -> int:
        return self._row_count

    @property
    def column_count(self) -> int:
        """Number of attributes."""
        return len(self._columns)

    @property
    def page_count(self) -> int:
        """Total pages across all columns."""
        return sum(len(col.pages) for col in self._columns)

    def column_page_count(self, index: int) -> int:
        """Pages in one column's chain."""
        return len(self._columns[index].pages)

    # -- mutation ----------------------------------------------------------

    def append_row(self, values: Sequence[object]) -> int:
        """Append one row (a value to every column); return its row number."""
        if len(values) != len(self._columns):
            raise StorageError(
                f"row has {len(values)} fields, file has {len(self._columns)} columns"
            )
        for column, value in zip(self._columns, values):
            column.append(value)
        row = self._row_count
        self._row_count += 1
        return row

    def append_rows(self, rows: Sequence[Sequence[object]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append_row(row)

    def set_value(self, row: int, column: int, value: object) -> None:
        """Point-update one cell (touches only that column's page)."""
        self._columns[column].set(row, value)

    # -- access ------------------------------------------------------------

    def scan_column(self, index: int) -> Iterator[object]:
        """Stream one column — reads only that column's pages (SS2.6)."""
        yield from self._columns[index].scan()

    def scan_columns(self, indexes: Sequence[int]) -> Iterator[tuple[object, ...]]:
        """Stream several columns zipped row-wise."""
        iters = [self._columns[i].scan() for i in indexes]
        yield from zip(*iters)

    def scan_column_chunks(
        self, indexes: Sequence[int], chunk_size: int = 1024
    ) -> Iterator[list[list[object]]]:
        """Stream fixed-size column chunks straight off the page chains.

        Each yielded item is one list of values per requested column, all of
        the same length (``chunk_size``, except possibly the final chunk).
        Only the requested columns' pages are read — the q-of-m access
        pattern of SS2.6 — and no row tuples are ever built; this is the
        feed the vectorized execution engine consumes.
        """
        if not indexes:
            raise StorageError("scan_column_chunks requires at least one column")
        if chunk_size <= 0:
            raise StorageError(f"chunk_size must be positive, got {chunk_size}")
        streams = [self._columns[i].scan_pages() for i in indexes]
        buffers: list[list[object]] = [[] for _ in indexes]
        remaining = self._row_count
        produced = 0
        while remaining > 0:
            take = min(chunk_size, remaining)
            out: list[list[object]] = []
            for col_pos, (buffer, stream) in enumerate(zip(buffers, streams)):
                while len(buffer) < take:
                    # A bare next() here would surface a truncated page
                    # chain as PEP 479's RuntimeError; translate exhaustion
                    # into a diagnosable storage fault instead.
                    page_values = next(stream, None)
                    if page_values is None:
                        column = indexes[col_pos]
                        have = produced + len(buffer)
                        raise StorageError(
                            f"column {column} page chain exhausted after "
                            f"{have} of {self._row_count} rows "
                            f"({self._row_count - have} missing)"
                        )
                    buffer.extend(page_values)
                out.append(buffer[:take])
                del buffer[:take]
            self.tracer.add("transposed.chunks")
            yield out
            produced += take
            remaining -= take

    def get_value(self, row: int, column: int) -> object:
        """Point-read one cell."""
        return self._columns[column].get(row)

    def get_row(self, row: int) -> tuple[object, ...]:
        """Reconstruct one whole row — the 'informational' query that costs

        one page access per column (SS2.6)."""
        return tuple(col.get(row) for col in self._columns)

    def scan_rows(self) -> Iterator[tuple[object, ...]]:
        """Stream whole rows (reads every column chain once)."""
        iters = [col.scan() for col in self._columns]
        yield from zip(*iters)
