"""The oracle's order and tolerance, the tally, and compare.py's three verdicts."""

import types

import numpy as np

import compare
from oracle import Tally, is_own_neighbour, same_answer, top_k
from spans import Tracer


def test_top_k_breaks_ties_by_id():
    data = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [3.0, 0.0]])
    ids, distances = top_k(data, np.zeros(2), 3)
    assert ids == [0, 1, 2] and distances == [1.0, 1.0, 1.0]


def test_same_answer_wants_the_ids_and_close_distances():
    truth = ([4, 2], [1.0, 2.0])
    assert same_answer([4, 2], [1.0 + 1e-12, 2.0], truth)
    assert not same_answer([2, 4], [1.0, 2.0], truth)
    assert not same_answer([4, 2], [1.0, 2.001], truth)
    assert is_own_neighbour([7], [0.0], 7) and not is_own_neighbour([7], [0.1], 7)


def test_tally_counts_per_phase():
    tally = Tally()
    answer = types.SimpleNamespace(ids=[1], distances=[0.5])
    tally.check("read", answer, ([1], [0.5]))
    tally.check("read", answer, ([2], [0.5]))
    tally.fail("load", "overloaded")
    assert (tally.attempted, tally.failed, tally.correct) == (3, 2, False)
    assert tally.phases == {"read": [2, 1], "load": [1, 1]}


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.op(0):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    parts = tracer.self_seconds()
    total = tracer.durations("op")[0]
    assert abs(sum(parts.values()) - total) < 1e-9
    assert parts["outer"] <= tracer.durations("outer")[0]


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    assert compare.verdict(steady, steady, "lower", 0.10)[2] == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)[2] == "regressed"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.10)[2] == "ok"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)[2] == "unresolved"
    assert compare.verdict(noisy, [v / 10 for v in noisy], "lower", 0.10)[2] == "ok"
