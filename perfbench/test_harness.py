"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_harness.py     (from the repository root)
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402


@pytest.mark.parametrize("n, level", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert harness.tail_level(n) == level
    if level is not None:
        assert n * (1 - level / 100) >= harness.TAIL_MIN_BEYOND - 1e-9


def test_summary_reports_count_and_levels():
    values = [float(v) for v in range(1, 41)]  # 40 queries: p75 is the tail
    s = harness.summarize_latency({i: [v] for i, v in enumerate(values)})
    assert (s["n"], s["runs"]) == (40, 40)
    assert s["tail_level"] == 75.0
    assert s["p50"] == pytest.approx(20.5)
    assert s["per_s"] == pytest.approx(40 / sum(values))
    assert s["tail"] == pytest.approx(np.percentile(values, 75))
    assert harness.level_name(s["tail_level"]) == "p75"
    assert sum(v > s["tail"] for v in values) >= 10


def test_repeated_queries_count_once_at_their_median():
    # 20 distinct queries, the slow one met five times: n is 20, not 24
    times = {i: [1.0] for i in range(19)}
    times["slow"] = [9.0, 10.0, 11.0, 30.0, 10.0]
    s = harness.summarize_latency(times)
    assert (s["n"], s["runs"], s["tail_level"]) == (20, 24, 50.0)
    assert s["p50"] == 1.0
    assert s["per_s"] == pytest.approx(20 / (19 * 1.0 + 10.0))
    assert harness.summarize_latency({**times, "x": [2.0]})["n"] == 21


def test_summary_of_a_small_sample_falls_back_to_max():
    s = harness.summarize_latency({"a": [3.0], "b": [1.0], "c": [2.0]})
    assert (s["n"], s["tail_level"], s["tail"]) == (3, None, 3.0)
    assert harness.level_name(None) == "max"


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_nested_children_once():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    t = harness.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.open("root")
    a = t.open("a")
    a1 = t.open("a1")
    t.close(a1)
    t.close(a)
    b = t.open("b")
    t.close(b)
    t.close(root)
    assert harness.self_times(t.spans) == [10 - 3 - 4, 3 - 1, 1, 4]
    assert [s[3] for s in t.spans] == [None, 0, 1, 0]


def test_spans_close_in_stack_order():
    t = harness.Tracer(clock=FakeClock([0, 1, 2]))
    outer = t.open("outer")
    t.open("inner")
    with pytest.raises(RuntimeError):
        t.close(outer)


def test_patch_wraps_and_restores():
    class Mod:
        @staticmethod
        def f(x):
            return x + 1

    t = harness.Tracer()
    t.patch(Mod, "f", "f", attrs_fn=lambda x: {"x": x},
            result_fn=lambda r, attrs: attrs.update(r=r))
    assert Mod.f(1) == 2
    t.unpatch()
    assert Mod.f(1) == 2
    assert len(t.spans) == 1 and t.spans[0][5] == {"x": 1, "r": 2}


def test_digest_ignores_signed_zero_only():
    logits = np.array([[0.0, 3.0, -2.0]])
    assert harness.logits_digest(logits) == harness.logits_digest(logits * np.array([-1, 1, 1]))
    bumped = logits.copy()
    bumped[0, 1] = np.nextafter(3.0, 4.0)
    assert harness.logits_digest(bumped) != harness.logits_digest(logits)


def test_digest_gate_fails_on_one_perturbed_logit():
    import traced
    from bnnverify import network

    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh)
    nets = traced.digest_networks()
    assert harness.check_digests(traced.logits_digests(nets), recorded) == []
    net, images = nets["XNOR"]
    logits = network.network_forward_batch(net, images)
    logits[2, 7] += 1.0
    actual = {**traced.logits_digests(nets), "XNOR": harness.logits_digest(logits)}
    assert harness.check_digests(actual, recorded) == ["XNOR"]
