"""Standing-query vocabulary: validation + exact payload round-trips.

The same ``to_payload`` dicts travel the TCP wire and the durable
subscription log, so the round-trip has to be lossless — including the
float values, which must come back bit-identical.
"""

import numpy as np
import pytest

from repro.continuous import KnnWatch, Notification, RangeWatch, query_from_payload


class TestValidation:
    def test_knn_rejects_bad_shapes_and_k(self):
        with pytest.raises(ValueError):
            KnnWatch(query=np.zeros((2, 4)), k=1)
        with pytest.raises(ValueError):
            KnnWatch(query=np.zeros(4), k=0)

    def test_range_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            RangeWatch(query=np.zeros(4), radius=-1.0)


class TestPayloadRoundTrip:
    def test_each_kind_round_trips_exactly(self):
        rng = np.random.default_rng(3)
        watches = [
            KnnWatch(query=rng.normal(size=16), k=5),
            RangeWatch(query=rng.normal(size=16), radius=2.25),
        ]
        for watch in watches:
            rebuilt = query_from_payload(watch.to_payload())
            assert type(rebuilt) is type(watch)
            assert rebuilt.to_payload() == watch.to_payload()

    def test_array_fields_come_back_bit_identical(self):
        query = np.random.default_rng(5).normal(size=12)
        rebuilt = query_from_payload(KnnWatch(query=query, k=2).to_payload())
        assert np.array_equal(rebuilt.query, query)

    def test_unknown_kind_is_rejected(self):
        # "subsequence" and "anomaly" were kinds once; they are refused now
        for kind in ("percentile", "subsequence", "anomaly"):
            with pytest.raises(ValueError, match=f"unknown standing-query kind '{kind}'"):
                query_from_payload({"kind": kind})


class TestNotification:
    def test_payload_round_trip(self):
        note = Notification(
            subscription_id="sub-000003",
            seq=7,
            kind="knn",
            generation=12,
            ids=(4, 9),
            distances=(0.125, 1.5),
            added=(9,),
            removed=(2,),
            full=False,
        )
        assert Notification.from_payload(note.to_payload()) == note

    def test_sharded_generation_survives_as_tuple(self):
        note = Notification(
            subscription_id="sub-000001", seq=1, kind="range", generation=(3, 4)
        )
        payload = note.to_payload()
        assert payload["generation"] == [3, 4]  # JSON-safe on the wire
        assert Notification.from_payload(payload).generation == (3, 4)
