"""repro.lifecycle — durable ingestion and maintenance for mutable databases.

The paper's databases are disk-resident and long-lived; this package is the
layer that lets them *stay* long-lived under a continuous stream of inserts
and deletes:

* :mod:`~repro.lifecycle.recordfile` — the checksummed, length-prefixed
  record file (torn-tail-tolerant replay, typed :class:`DurabilityOptions`
  fsync policy) under both this package's WAL and the subscription log;
* :mod:`~repro.lifecycle.wal` — the write-ahead log: ops, LSNs and their
  binary codec on top of a record file;
* :mod:`~repro.lifecycle.recovery` — torn-tail-tolerant, idempotent replay
  on :func:`repro.io.open_database`;
* :mod:`~repro.lifecycle.maintenance` — :func:`checkpoint` folds the log
  into the saved state, :func:`compact` rewrites pages to drop tombstones;
* :mod:`~repro.lifecycle.snapshot` — the generation counter and
  copy-on-write pinning that give ``knn_batch`` a stable read view while
  mutations land.

Attribute access is lazy so that low-level modules (``repro.index.knn``
imports :mod:`~repro.lifecycle.snapshot`) never drag the whole package —
and with it ``repro.io`` — into their import graph.
"""

from __future__ import annotations

__all__ = [
    "CheckpointReport",
    "CompactionReport",
    "DurabilityOptions",
    "FsyncPolicy",
    "MutableDatabase",
    "RecoveryError",
    "RecoveryReport",
    "Snapshot",
    "WAL_FILENAME",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "checkpoint",
    "compact",
    "read_wal",
    "recover_database",
]

#: export name -> defining submodule (resolved lazily via PEP 562)
_LOCATIONS = {
    "DurabilityOptions": "recordfile",
    "FsyncPolicy": "recordfile",
    "WAL_FILENAME": "wal",
    "WalError": "wal",
    "WalRecord": "wal",
    "WriteAheadLog": "wal",
    "read_wal": "wal",
    "RecoveryError": "recovery",
    "RecoveryReport": "recovery",
    "recover_database": "recovery",
    "CheckpointReport": "maintenance",
    "CompactionReport": "maintenance",
    "checkpoint": "maintenance",
    "compact": "maintenance",
    "MutableDatabase": "snapshot",
    "Snapshot": "snapshot",
}


def __getattr__(name: str):
    try:
        module_name = _LOCATIONS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.lifecycle' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(__all__)
