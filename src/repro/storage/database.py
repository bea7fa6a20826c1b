"""A disk-backed similarity database: index in memory, raw series on pages.

The configuration the paper's GEMINI framing assumes: representations and
the index structure fit in memory; raw series live on disk and each
verification pays physical I/O.  Pruning power then *is* the fraction of
the collection's pages read per query.
"""

from __future__ import annotations

import os
import pathlib
import shutil
from typing import Optional, Union

import numpy as np

from .. import obs
from ..index.knn import SeriesDatabase
from ..kinds import IndexKind, require_int
from ..reduction.base import Reducer
from .pages import PagedSeriesStore

__all__ = ["DiskBackedDatabase"]

PathLike = Union[str, pathlib.Path]

#: filename of the paged store inside a disk-backed database directory
STORE_FILENAME = "series.bin"


class DiskBackedDatabase(SeriesDatabase):
    """GEMINI search with raw data behind a :class:`PagedSeriesStore`.

    A :class:`repro.index.SeriesDatabase` whose row store is
    :class:`PagedRows`: every mutation, replay, snapshot and save is the
    base class's; only where the raw rows land and are read from differs.

    Args:
        reducer: dimensionality reduction method.
        store_path: backing file for the raw pages.
        index: an :class:`repro.IndexKind`, its value, or ``None`` (see
            :class:`repro.index.SeriesDatabase`).
        page_size / cache_pages: storage knobs.
    """

    def __init__(
        self,
        reducer: Reducer,
        store_path: PathLike,
        index: "Union[IndexKind, str, None]" = IndexKind.DBCH,
        page_size: int = 4096,
        cache_pages: int = 8,
    ):
        super().__init__(reducer, index=index)
        self._rows = PagedRows(store_path, page_size, cache_pages)

    def reopen(self, representations: list, live_ids: "Optional[list]" = None) -> None:
        """Attach an existing store file and adopt persisted representations.

        Used by :func:`repro.io.open_database`: the entries come purely
        from the stored representations — no page is read and nothing is
        re-reduced — and no tree is built here: the caller replays the
        WAL into the entries first and then packs the index once; until
        then searches scan.  ``live_ids``
        names the series that survived deletion.  The store header is
        authoritative for the row total, which may exceed the saved one
        when a WAL tail is about to be replayed.
        """
        self._rows.open()
        ids = range(len(representations)) if live_ids is None else [int(i) for i in live_ids]
        if len(ids) != len(representations):
            raise ValueError("one representation per live series is required")
        self._adopt(list(map(self._entry, ids, representations)))

    @property
    def store(self) -> "Optional[PagedSeriesStore]":
        """The paged store holding the raw rows (``None`` before ingest)."""
        return self._rows.store

    @property
    def io_stats(self):
        """Physical-I/O counters of the underlying store."""
        return self.store.stats if self.store is not None else None

    def reset_io(self) -> None:
        """Zero the I/O counters (call between queries to measure one)."""
        if self.store is not None:
            self.store.stats.reset()

    def columns(self):
        """The page file's read-only memmap of the raw rows (no copy), or
        ``None`` before ingest or where the file cannot be mapped."""
        return None if self.store is None else self.store.mapped_rows()


class PagedRows:
    """Row store over a :class:`PagedSeriesStore` (see :mod:`repro.index.rows`).

    Doubles as the array-like readers see as ``db.data``: ``rows[i]`` reads
    series ``i`` through the page cache, and batched access goes through
    :meth:`gather`, which slices the store's memmap (physical I/O charged
    per spanned page) and falls back to the page-cache batch read.
    """

    def __init__(self, path: PathLike, page_size: int, cache_pages: int):
        self._path = pathlib.Path(path)
        self._page_size = page_size
        self._cache_pages = cache_pages
        self.store: Optional[PagedSeriesStore] = None

    # -- the row-store side ----------------------------------------------
    @property
    def view(self):
        """This object, once a store is attached."""
        return self if self.store is not None else None

    def open(self) -> None:
        """Attach the store file already at the path."""
        self.store = PagedSeriesStore.open(
            self._path, page_size=self._page_size, cache_pages=self._cache_pages
        )

    def adopt(self, data: np.ndarray) -> None:
        """Write ``data`` as the whole store, through a temporary file that
        atomically replaces the old one — a crash mid-compaction leaves the
        previous pages intact."""
        tmp = self._path.with_suffix(self._path.suffix + ".tmp")
        PagedSeriesStore.write(tmp, data, page_size=self._page_size)
        os.replace(tmp, self._path)
        self.open()

    def accepts(self, series_id: int, rows: int) -> bool:
        """Replay may append, or rewrite a row's page bytes in place (which
        heals a write torn by the crash)."""
        return series_id <= rows

    def put(self, series_id: int, series: np.ndarray) -> None:
        """Append the row's page bytes, or overwrite them in place."""
        self.store.put_row(series_id, series)

    def persist(self, directory: pathlib.Path) -> dict:
        """Copy the page file in as ``series.bin`` (unless it already lives
        there); raw series keep living on pages after a reopen."""
        target = directory / STORE_FILENAME
        if target.resolve() != self.store.path.resolve():
            shutil.copyfile(self.store.path, target)
        return {
            "kind": "disk",
            "page_size": self.store.page_size,
            "cache_pages": self.store.cache_pages,
        }

    # -- the array-like side ---------------------------------------------
    def __getitem__(self, series_id: int) -> np.ndarray:
        return self.store.read(require_int(series_id, "series_id"))

    def __len__(self) -> int:
        return 0 if self.store is None else len(self.store)

    @property
    def shape(self) -> "tuple[int, int]":
        return (len(self.store), self.store.length)

    def gather(self, series_ids) -> np.ndarray:
        """Rows for ``series_ids`` as one ``(len, n)`` float64 matrix."""
        mapped = self.store.mapped_rows()
        if mapped is None:
            return self.store.get_rows(series_ids)
        idx = np.asarray(series_ids, dtype=np.intp)
        obs.count("columns.gathers")
        self.store.account_mapped_rows(idx)
        return np.asarray(mapped[idx], dtype=float)
