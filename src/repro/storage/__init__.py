"""Disk-backed storage substrate: paged raw series with I/O accounting."""

from .database import DiskBackedDatabase
from .pages import PagedSeriesStore, PageStats

__all__ = ["PagedSeriesStore", "PageStats", "DiskBackedDatabase"]
