"""Paged on-disk storage for raw series, with I/O accounting.

The paper measures pruning power because every verification of a candidate
is a disk access in a disk-resident database.  This substrate makes that
literal: raw series live in fixed-size pages in a binary file; reads go
through an LRU page cache; and the store counts physical page reads so
experiments can report true I/O instead of the in-memory proxy.
"""

from __future__ import annotations

import os
import pathlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .. import obs

__all__ = ["PageStats", "PagedSeriesStore"]

PathLike = Union[str, pathlib.Path]


@dataclass
class PageStats:
    """Physical-I/O counters."""

    page_reads: int = 0
    cache_hits: int = 0

    @property
    def total_accesses(self) -> int:
        return self.page_reads + self.cache_hits

    def reset(self) -> None:
        """Zero the counters."""
        self.page_reads = 0
        self.cache_hits = 0


class PagedSeriesStore:
    """Fixed-page binary storage of an equal-length series collection.

    Args:
        path: backing file (created by :meth:`write`).
        page_size: page capacity in bytes (default 4 KiB, a classic page).
        cache_pages: LRU cache capacity in pages.
    """

    def __init__(self, path: PathLike, page_size: int = 4096, cache_pages: int = 8):
        if page_size < 64:
            raise ValueError("page_size must be at least 64 bytes")
        if cache_pages < 1:
            raise ValueError("cache_pages must be >= 1")
        self.path = pathlib.Path(path)
        self.page_size = int(page_size)
        self.cache_pages = int(cache_pages)
        self.stats = PageStats()
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._count = 0
        self._length = 0
        self._row_bytes = 0
        #: read-only memmap of the row region; see mapped_rows
        self._mapped: "Optional[np.memmap]" = None

    # ------------------------------------------------------------------
    @classmethod
    def write(
        cls, path: PathLike, data: np.ndarray, page_size: int = 4096, cache_pages: int = 8
    ) -> "PagedSeriesStore":
        """Materialise a collection to disk and return an opened store."""
        data = np.ascontiguousarray(np.asarray(data, dtype="<f8"))
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("write expects a non-empty (count, n) array")
        store = cls(path, page_size=page_size, cache_pages=cache_pages)
        store._count, store._length = data.shape
        store._row_bytes = store._length * 8
        header = np.array([store._count, store._length], dtype="<i8").tobytes()
        with open(store.path, "wb") as handle:
            handle.write(header.ljust(store.page_size, b"\0"))
            handle.write(data.tobytes())
        total_bytes = store.page_size + data.nbytes
        obs.count("storage.page_writes", -(-total_bytes // store.page_size))
        return store

    @classmethod
    def open(cls, path: PathLike, page_size: int = 4096, cache_pages: int = 8) -> "PagedSeriesStore":
        """Open an existing store, reading its header."""
        store = cls(path, page_size=page_size, cache_pages=cache_pages)
        with open(store.path, "rb") as handle:
            header = handle.read(16)
        if len(header) < 16:
            raise ValueError(f"{path} is not a paged series store")
        count, length = np.frombuffer(header, dtype="<i8")
        if count <= 0 or length <= 0:
            raise ValueError(f"{path} has a corrupt header")
        store._count, store._length = int(count), int(length)
        store._row_bytes = store._length * 8
        return store

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def length(self) -> int:
        """Length ``n`` of every stored series."""
        return self._length

    def pages_per_series(self) -> float:
        """How many pages one series read touches on average."""
        return max(self._row_bytes / self.page_size, 1e-12)

    # ------------------------------------------------------------------
    def _read_page(self, page_id: int, handle=None) -> bytes:
        if page_id in self._cache:
            self._cache.move_to_end(page_id)
            self.stats.cache_hits += 1
            obs.count("storage.cache_hits")
            return self._cache[page_id]
        if handle is None:
            with open(self.path, "rb") as handle:
                handle.seek(self.page_size * page_id)
                payload = handle.read(self.page_size)
        else:
            handle.seek(self.page_size * page_id)
            payload = handle.read(self.page_size)
        self.stats.page_reads += 1
        obs.count("storage.page_reads")
        self._cache[page_id] = payload
        if len(self._cache) > self.cache_pages:
            self._cache.popitem(last=False)
        return payload

    def _row_from_pages(self, series_id: int, handle=None) -> np.ndarray:
        start_byte = self.page_size + series_id * self._row_bytes  # page 0 is the header
        end_byte = start_byte + self._row_bytes
        first_page = start_byte // self.page_size
        last_page = (end_byte - 1) // self.page_size
        payload = b"".join(
            self._read_page(p, handle) for p in range(first_page, last_page + 1)
        )
        offset = start_byte - first_page * self.page_size
        return np.frombuffer(payload[offset : offset + self._row_bytes], dtype="<f8").copy()

    def read(self, series_id: int) -> np.ndarray:
        """Read one series through the page cache."""
        if not 0 <= series_id < self._count:
            raise IndexError(f"series {series_id} out of range ({self._count} stored)")
        return self._row_from_pages(series_id)

    def get_rows(self, series_ids) -> np.ndarray:
        """Read many series through the page cache in one batched pass.

        Rows are fetched in ascending id order — page-sequential, so a run
        of candidates sharing a page costs one physical read — over a
        single open file handle, then returned in the *requested* order.
        The cache and the :class:`PageStats` accounting behave exactly as
        the equivalent sequence of :meth:`read` calls would.
        """
        ids = [int(sid) for sid in series_ids]
        for sid in ids:
            if not 0 <= sid < self._count:
                raise IndexError(f"series {sid} out of range ({self._count} stored)")
        obs.count("pages.batch_reads")
        out = np.empty((len(ids), self._length), dtype=float)
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        with open(self.path, "rb") as handle:
            for i in order:
                out[i] = self._row_from_pages(ids[i], handle)
        return out

    def read_all(self) -> np.ndarray:
        """Read the whole collection (sequential scan)."""
        return self.get_rows(range(self._count))

    # ------------------------------------------------------------------
    def mapped_rows(self) -> "Optional[np.memmap]":
        """A read-only ``(count, n)`` float64 memmap of the row region, or ``None``.

        The page file's layout (one header page, then ``count`` contiguous
        little-endian rows) already is a row matrix, so gathering many rows
        is one fancy-index slice instead of per-row page reads, and the
        values are the stored bytes themselves.  Mapped lazily and remapped
        whenever the row count changes (appends extend the file past the
        mapped shape); ``None`` for an empty store or when the file cannot
        be mapped, so callers fall back to :meth:`get_rows`.  Reads through
        the mapping bypass the page cache: charge them with
        :meth:`account_mapped_rows`.
        """
        if self._count == 0:
            return None
        mapped = self._mapped
        if mapped is not None and mapped.shape[0] == self._count:
            return mapped
        try:
            mapped = np.memmap(
                self.path,
                mode="r",
                dtype="<f8",
                offset=self.page_size,
                shape=(self._count, self._length),
            )
        except (OSError, ValueError):
            self._mapped = None
            return None
        obs.count("columns.builds")
        self._mapped = mapped
        return mapped

    def account_mapped_rows(self, series_ids) -> None:
        """Fold memory-mapped row reads into the physical-I/O counters.

        Each row is charged the pages it spans, exactly as :meth:`read`
        would report for a cold cache; mapped access never consults the LRU
        so the charge goes entirely to ``page_reads``.
        """
        idx = np.asarray(series_ids, dtype=np.int64)
        if idx.size == 0:
            return
        start = self.page_size + idx * self._row_bytes
        end = start + self._row_bytes - 1
        pages = int(np.sum(end // self.page_size - start // self.page_size + 1))
        self.stats.page_reads += pages
        obs.count("storage.page_reads", pages)

    # ------------------------------------------------------------------
    def put_row(self, series_id: int, values: np.ndarray, sync: bool = False) -> None:
        """Write one series in place, or append it at ``series_id == count``.

        Appends grow the file and bump the header's row count; overwrites
        (used by crash recovery to heal torn page writes) leave the count
        alone.  Cached pages overlapping the row are invalidated so the
        next read sees the new bytes.
        """
        values = np.ascontiguousarray(np.asarray(values, dtype="<f8")).ravel()
        if not self._length:
            raise ValueError("store has no rows yet; materialise it with write() first")
        if len(values) != self._length:
            raise ValueError(
                f"row length {len(values)} does not match stored {self._length}"
            )
        if not 0 <= series_id <= self._count:
            raise IndexError(
                f"series {series_id} out of range for put_row ({self._count} stored)"
            )
        start_byte = self.page_size + series_id * self._row_bytes
        with open(self.path, "r+b") as handle:
            handle.seek(start_byte)
            handle.write(values.tobytes())
            if series_id == self._count:
                self._count += 1
                header = np.array([self._count, self._length], dtype="<i8").tobytes()
                handle.seek(0)
                handle.write(header)
            handle.flush()
            if sync:
                os.fsync(handle.fileno())
        first_page = start_byte // self.page_size
        last_page = (start_byte + self._row_bytes - 1) // self.page_size
        for page_id in range(first_page, last_page + 1):
            self._cache.pop(page_id, None)
        self._cache.pop(0, None)  # header page
        obs.count("storage.page_writes", last_page - first_page + 1)
