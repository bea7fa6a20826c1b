"""Paged on-disk storage for raw series, with I/O accounting.

The paper measures pruning power because every verification of a candidate
is a disk access in a disk-resident database.  This substrate makes that
literal: raw series live in fixed-size pages in a binary file; reads go
through a memory map of that file; and the store charges every row read the
pages it spans, so experiments can report true I/O instead of the in-memory
proxy.
"""

from __future__ import annotations

import os
import pathlib
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

    def reset(self) -> None:
        """Zero the counters."""
        self.page_reads = 0


class PagedSeriesStore:
    """Fixed-page binary storage of an equal-length series collection.

    Args:
        path: backing file (created by :meth:`write`).
        page_size: page capacity in bytes (default 4 KiB, a classic page).
    """

    def __init__(self, path: PathLike, page_size: int = 4096):
        if page_size < 64:
            raise ValueError("page_size must be at least 64 bytes")
        self.path = pathlib.Path(path)
        self.page_size = int(page_size)
        self.stats = PageStats()
        self._count = 0
        self._length = 0
        self._row_bytes = 0
        #: read-only memmap of the row region; see mapped_rows
        self._mapped: "Optional[np.memmap]" = None

    # ------------------------------------------------------------------
    @classmethod
    def write(cls, path: PathLike, data: np.ndarray, page_size: int = 4096) -> "PagedSeriesStore":
        """Materialise a collection to disk and return an opened store."""
        data = np.ascontiguousarray(np.asarray(data, dtype="<f8"))
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("write expects a non-empty (count, n) array")
        store = cls(path, page_size=page_size)
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
    def open(cls, path: PathLike, page_size: int = 4096) -> "PagedSeriesStore":
        """Open an existing store, reading its header."""
        store = cls(path, page_size=page_size)
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
    def read(self, series_id: int) -> np.ndarray:
        """A copy of series ``series_id``, charged the pages it spans."""
        if not 0 <= series_id < self._count:
            raise IndexError(f"series {series_id} out of range ({self._count} stored)")
        row = np.array(self.mapped_rows()[series_id])
        self.account_mapped_rows([series_id])
        return row

    def mapped_rows(self) -> "Optional[np.memmap]":
        """A read-only ``(count, n)`` float64 memmap of the row region, or ``None``.

        The page file's layout (one header page, then ``count`` contiguous
        little-endian rows) already is a row matrix, so gathering many rows
        is one fancy-index slice, and the values are the stored bytes
        themselves.  Mapped lazily and remapped whenever the row count
        changes (appends extend the file past the mapped shape); ``None``
        for an empty store.  A file shorter than its header's row count
        cannot be mapped and raises ``ValueError``.  Charge reads through
        the mapping with :meth:`account_mapped_rows`.
        """
        if self._count == 0:
            return None
        mapped = self._mapped
        if mapped is not None and mapped.shape[0] == self._count:
            return mapped
        mapped = np.memmap(
            self.path,
            mode="r",
            dtype="<f8",
            offset=self.page_size,
            shape=(self._count, self._length),
        )
        obs.count("columns.builds")
        self._mapped = mapped
        return mapped

    def account_mapped_rows(self, series_ids) -> None:
        """Fold memory-mapped row reads into the physical-I/O counters.

        Each row is charged the pages it spans, in ``page_reads``.
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
        alone.  The file's memory map shares the written bytes, so the next
        read sees them.
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
        obs.count("storage.page_writes", last_page - first_page + 1)
