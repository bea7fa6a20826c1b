"""The record file under both durable logs: one behaviour, checked per log.

The data WAL and the subscription log are the same
:class:`repro.lifecycle.recordfile.RecordFile` with different payloads, so
everything about the *file* — torn tails, corrupt prefixes, wrong and torn
headers, the fsync cadence — is asserted once here and run against each.
What only one log has (LSNs, ``reset``, ack state) stays in
``test_wal.py`` / ``tests/continuous/test_registry.py``.
"""

import numpy as np
import pytest

from repro.continuous import KnnWatch, SubscriptionRegistry
from repro.continuous import registry as registry_mod
from repro.lifecycle import DurabilityOptions, FsyncPolicy, WriteAheadLog, read_wal
from repro.lifecycle import recordfile
from repro.lifecycle import wal as wal_mod


class WalLog:
    """The data WAL: record ``i`` is ``delete(i)``."""

    magic = wal_mod.MAGIC
    open = staticmethod(WriteAheadLog.open)

    @staticmethod
    def write(log, i):
        log.append_delete(i)

    @staticmethod
    def records(path):
        """What a reopen recovers (opening truncates, like a restart does)."""
        WriteAheadLog.open(path).close()
        return [(r.lsn, r.op, r.series_id) for r in read_wal(path)[0]]


class SubscriptionLog:
    """The subscription log: record ``i`` registers subscription ``s<i>``."""

    magic = registry_mod.MAGIC
    open = staticmethod(SubscriptionRegistry)

    @staticmethod
    def write(log, i):
        log.subscribe(KnnWatch(query=np.arange(4, dtype=float) + i, k=2), sid=f"s{i}")

    @staticmethod
    def records(path):
        reopened = SubscriptionRegistry(path)
        try:
            return sorted(reopened.subscriptions())
        finally:
            reopened.close()


@pytest.fixture(params=[WalLog, SubscriptionLog], ids=["wal", "subscriptions"])
def kind(request):
    return request.param


def written(kind, path, count):
    """A cleanly closed log of ``count`` records; returns its bytes."""
    log = kind.open(path)
    for i in range(count):
        kind.write(log, i)
    log.close()
    return path.read_bytes()


def test_fresh_log_is_exactly_its_magic(kind, tmp_path):
    assert written(kind, tmp_path / "log", 0) == kind.magic


def test_torn_tail_is_dropped_truncated_and_appendable(kind, tmp_path):
    path = tmp_path / "log"
    clean = written(kind, path, 2)
    committed = kind.records(path)
    assert len(committed) == 2
    # a crash mid-append: a length/crc prefix with only part of its payload
    path.write_bytes(clean + recordfile._PREFIX.pack(64, 123456789) + b"torn")
    assert kind.records(path) == committed
    assert path.read_bytes() == clean  # reopening trimmed the garbage
    log = kind.open(path)
    kind.write(log, 2)
    log.close()
    assert len(kind.records(path)) == 3  # the new record replays cleanly


def test_partial_prefix_is_a_torn_tail(kind, tmp_path):
    path = tmp_path / "log"
    clean = written(kind, path, 2)
    committed = kind.records(path)
    path.write_bytes(clean + b"\x99" * 7)  # not even a whole prefix
    assert kind.records(path) == committed
    assert path.read_bytes() == clean


def test_corrupt_length_prefix_stops_replay(kind, tmp_path):
    path = tmp_path / "log"
    clean = written(kind, path, 1)
    committed = kind.records(path)
    path.write_bytes(clean + recordfile._PREFIX.pack(1 << 30, 0))  # claims a gigabyte
    assert kind.records(path) == committed


def test_corrupt_crc_stops_replay_at_the_flip(kind, tmp_path):
    path = tmp_path / "log"
    blob = bytearray(written(kind, path, 2))
    committed = kind.records(path)
    blob[-1] ^= 0xFF  # flip one payload byte of the second record
    path.write_bytes(bytes(blob))
    assert kind.records(path) == committed[:1]


def test_wrong_magic_is_rejected(kind, tmp_path):
    path = tmp_path / "log"
    path.write_bytes(b"definitely not a log file at all")
    with pytest.raises(ValueError, match="bad magic"):
        kind.open(path)


@pytest.mark.parametrize("on_disk", [0, 3], ids=["empty", "3-bytes"])
def test_torn_header_reopens_as_an_empty_log(kind, tmp_path, on_disk):
    # SIGKILL between creating the file and flushing its 8-byte header
    path = tmp_path / "log"
    path.write_bytes(kind.magic[:on_disk])
    assert kind.records(path) == []
    assert path.read_bytes() == kind.magic  # the header was rewritten whole
    log = kind.open(path)
    kind.write(log, 0)
    log.close()
    assert len(kind.records(path)) == 1


def test_policies_control_fsync_cadence(kind, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(recordfile.os, "fsync", lambda fd: calls.append(fd))
    log = kind.open(tmp_path / "a.log", DurabilityOptions(fsync=FsyncPolicy.ALWAYS))
    calls.clear()  # creating the file fsyncs its header under every policy
    kind.write(log, 1)
    kind.write(log, 2)
    log.close()
    always = len(calls)
    log = kind.open(
        tmp_path / "b.log", DurabilityOptions(fsync=FsyncPolicy.BATCH, batch_records=2)
    )
    calls.clear()
    kind.write(log, 1)
    batched_after_one = len(calls)
    kind.write(log, 2)
    batched_after_two = len(calls)
    log.close()
    assert always >= 2  # one per append (close may add one)
    assert batched_after_one == 0
    assert batched_after_two == 1
