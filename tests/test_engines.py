"""Brute-force oracle and branch-and-bound, checked against each other."""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bnnverify.arch import build_arch_xnor, random_tiny_network, with_random_weights
from bnnverify.errors import EnumerationBudgetError
from bnnverify.layers import Flatten, QDense
from bnnverify.network import BATCH_BYTES, Network, images_per_batch, network_forward
from bnnverify.vnnlib import RobustnessProperty, check_witness, make_property
from bnnverify.verify import Deadline, bab_verify, brute_force_verify, verify_ibp
from bab_answer_set import digest

# Frozen regression vectors.  Both toys have four inputs, so epsilon 1
# spans 3^4 = 81 grid points; the expected outcomes below were produced by
# the plain nested-loop enumeration that test_matches_inline_enumeration
# re-runs on every test invocation.
SAFE_W = [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]
SAFE_IMG = [2.0, 0.0, 1.0, 3.0]
SAFE_LABEL = 0

BRITTLE_W = [[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]]
BRITTLE_IMG = [1.0, 1.0, 3.0, 3.0]
BRITTLE_LABEL = 2
BRITTLE_FIRST_WITNESS = (2.0, 0.0, 2.0, 2.0)
BRITTLE_WITNESS_LOGITS = (2.0, -2.0, 2.0)
BRITTLE_WITNESS_ORDINAL = 55


def toy(weights):
    w = np.asarray(weights, dtype=float)
    return Network(
        input_shape=(2, 2, 1),
        layers=(Flatten(), QDense(w, quantize_input=False)),
    )


def toy_prop(img_vals, label, epsilon, num_outputs=3):
    img = np.asarray(img_vals, dtype=float).reshape(2, 2, 1)
    return make_property(img, epsilon=epsilon, label=label, num_outputs=num_outputs)


def inline_enumeration(net, img_vals, label, epsilon):
    """Reference loop: lexicographic scan, first violation wins."""
    offsets = range(-int(epsilon), int(epsilon) + 1)
    ranges = [[v + o for o in offsets] for v in img_vals]
    for ordinal, vals in enumerate(itertools.product(*ranges), start=1):
        logits = network_forward(net, np.asarray(vals, dtype=float).reshape(2, 2, 1))
        if np.any(np.delete(logits, label) >= logits[label]):
            return ordinal, vals, logits
    return None


class TestBruteForce:
    def test_frozen_safe_toy(self):
        net = toy(SAFE_W)
        v = brute_force_verify(net, toy_prop(SAFE_IMG, SAFE_LABEL, 1))
        assert v.status == "verified"
        assert v.nodes == 81

    def test_frozen_brittle_toy(self):
        net = toy(BRITTLE_W)
        v = brute_force_verify(net, toy_prop(BRITTLE_IMG, BRITTLE_LABEL, 1))
        assert v.status == "falsified"
        assert v.nodes == BRITTLE_WITNESS_ORDINAL
        assert v.witness.input_values == BRITTLE_FIRST_WITNESS
        assert v.witness.output_values == BRITTLE_WITNESS_LOGITS

    def test_matches_inline_enumeration(self):
        # the frozen values above must equal a from-scratch loop, always
        assert inline_enumeration(toy(SAFE_W), SAFE_IMG, SAFE_LABEL, 1) is None
        hit = inline_enumeration(toy(BRITTLE_W), BRITTLE_IMG, BRITTLE_LABEL, 1)
        assert hit is not None
        ordinal, vals, logits = hit
        assert ordinal == BRITTLE_WITNESS_ORDINAL
        assert tuple(float(v) for v in vals) == BRITTLE_FIRST_WITNESS
        assert tuple(logits) == BRITTLE_WITNESS_LOGITS

    def test_first_witness_is_lexicographic(self):
        found = 0
        rng = np.random.default_rng(1)
        while found < 15:
            w = rng.choice([-1.0, 1.0], size=(4, 3))
            img = rng.integers(0, 5, size=4).astype(float)
            net = toy(w)
            logits = network_forward(net, img.reshape(2, 2, 1))
            label = int(np.argmax(logits))
            hit = inline_enumeration(net, img.tolist(), label, 1)
            if hit is None:
                continue
            found += 1
            v = brute_force_verify(net, toy_prop(img.tolist(), label, 1))
            assert v.status == "falsified"
            assert v.witness.input_values == tuple(float(x) for x in hit[1])
            assert v.nodes == hit[0]
            assert check_witness(net, toy_prop(img.tolist(), label, 1), v.witness)

    def test_point_query_semantics(self):
        net = toy(SAFE_W)
        img = np.asarray(SAFE_IMG).reshape(2, 2, 1)
        label = int(np.argmax(network_forward(net, img)))
        v = brute_force_verify(net, toy_prop(SAFE_IMG, label, 0))
        assert v.status == "verified"
        assert v.nodes == 1
        # a tied pair of columns falsifies even at epsilon 0
        tie = Network(
            input_shape=(2, 2, 1),
            layers=(Flatten(), QDense(np.ones((4, 2)), quantize_input=False)),
        )
        v = brute_force_verify(tie, toy_prop(SAFE_IMG, 0, 0, num_outputs=2))
        assert v.status == "falsified"
        assert v.witness.input_values == tuple(SAFE_IMG)

    def test_budget_refusal_is_an_exception(self):
        net = toy(SAFE_W)
        with pytest.raises(EnumerationBudgetError) as exc:
            brute_force_verify(net, toy_prop(SAFE_IMG, SAFE_LABEL, 1), max_points=80)
        assert exc.value.points == 81
        assert exc.value.budget == 80
        # exactly at the budget it runs
        v = brute_force_verify(net, toy_prop(SAFE_IMG, SAFE_LABEL, 1), max_points=81)
        assert v.status == "verified"

    def test_non_integer_box_rejected(self):
        net = toy(SAFE_W)
        img = np.array([0.5, 0.0, 1.0, 2.0]).reshape(2, 2, 1)
        prop = make_property(img, epsilon=0, label=0, num_outputs=3)
        with pytest.raises(ValueError, match="no integer point"):
            brute_force_verify(net, prop)

    def test_ball_nesting_monotonicity(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(20):
            w = rng.choice([-1.0, 1.0], size=(4, 3))
            img = rng.integers(0, 5, size=4).astype(float)
            net = toy(w)
            label = int(np.argmax(network_forward(net, img.reshape(2, 2, 1))))
            small = brute_force_verify(net, toy_prop(img.tolist(), label, 1))
            large = brute_force_verify(net, toy_prop(img.tolist(), label, 2))
            if small.status == "falsified":
                assert large.status == "falsified"
            if large.status == "verified":
                assert small.status == "verified"
            checked += 1
        assert checked == 20

    def test_batched_chunks_agree(self, monkeypatch):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_IMG, BRITTLE_LABEL, 1)
        for batch in (1, 7, 81, 1000):
            monkeypatch.setattr("bnnverify.verify.brute.images_per_batch",
                                lambda net: batch)
            v = brute_force_verify(net, prop)
            assert v.status == "falsified"
            assert v.witness.input_values == BRITTLE_FIRST_WITNESS
            assert v.nodes == BRITTLE_WITNESS_ORDINAL

    def test_timeout_stops_between_batches(self, monkeypatch):
        # a clock that advances one second per reading: the deadline's
        # start, then one reading before each batch
        ticks = itertools.count()
        monkeypatch.setattr("bnnverify.verify.verdict.time",
                            SimpleNamespace(monotonic=lambda: float(next(ticks))))
        net = toy(SAFE_W)
        prop = toy_prop(SAFE_IMG, SAFE_LABEL, 1)
        monkeypatch.setattr("bnnverify.verify.brute.images_per_batch", lambda net: 10)
        v = brute_force_verify(net, prop, deadline=Deadline(2.5))
        assert v.status == "timeout"
        assert v.nodes == 20  # two batches ran before the third reading
        assert brute_force_verify(net, prop, deadline=Deadline(0)).nodes == 0
        assert brute_force_verify(net, prop, deadline=Deadline(1e9)).status == "verified"

    def test_nan_timeout_is_refused(self):
        with pytest.raises(ValueError, match="timeout"):
            brute_force_verify(toy(SAFE_W), toy_prop(SAFE_IMG, SAFE_LABEL, 1),
                               deadline=Deadline(float("nan")))


class TestBranchAndBound:
    def test_agrees_with_brute_on_random_instances(self):
        outcomes = {"verified": 0, "falsified": 0}
        for seed in range(60):
            rng = np.random.default_rng(700 + seed)
            net = random_tiny_network(rng, max_side=3)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            label = int(np.argmax(network_forward(net, img)))
            eps = int(rng.integers(0, 2))
            prop = make_property(
                img, epsilon=eps, label=label, num_outputs=net.num_classes
            )
            ref = brute_force_verify(net, prop)
            got = bab_verify(net, prop)
            assert got.status == ref.status, f"seed {seed}"
            if got.status == "falsified":
                assert check_witness(net, prop, got.witness)
            outcomes[got.status] += 1
        assert outcomes["verified"] > 0
        assert outcomes["falsified"] > 0

    def test_root_pruning_costs_one_node(self):
        # target column +1 on positive inputs, rivals -1: dominated at the root
        w = np.array([[1.0, -1.0], [1.0, -1.0], [1.0, -1.0], [1.0, -1.0]])
        net = toy(w)
        prop = toy_prop([5.0, 5.0, 5.0, 5.0], 0, 1, num_outputs=2)
        assert verify_ibp(net, prop).status == "verified"
        v = bab_verify(net, prop)
        assert v.status == "verified"
        assert v.nodes == 1

    def test_timeout_zero_is_immediate(self):
        v = bab_verify(toy(SAFE_W), toy_prop(SAFE_IMG, SAFE_LABEL, 1), deadline=Deadline(0))
        assert v.status == "timeout"
        assert v.nodes == 0

    def test_nan_timeout_is_refused(self):
        # elapsed >= nan is never true, so a NaN deadline would never fire
        with pytest.raises(ValueError, match="timeout"):
            bab_verify(toy(SAFE_W), toy_prop(SAFE_IMG, SAFE_LABEL, 1),
                       deadline=Deadline(float("nan")))

    def test_max_nodes_exhaustion_is_unknown(self):
        v = bab_verify(
            toy(BRITTLE_W), toy_prop(BRITTLE_IMG, BRITTLE_LABEL, 1), max_nodes=1
        )
        assert v.status == "unknown"
        assert v.nodes >= 1

    def test_deterministic_replay(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_IMG, BRITTLE_LABEL, 1)
        a = bab_verify(net, prop)
        b = bab_verify(net, prop)
        assert a.status == b.status == "falsified"
        assert a.witness.input_values == b.witness.input_values
        assert a.nodes == b.nodes

    def test_falsified_witness_is_checked(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_IMG, BRITTLE_LABEL, 1)
        v = bab_verify(net, prop)
        assert v.status == "falsified"
        assert check_witness(net, prop, v.witness)
        assert v.witness.output_values is not None

    def test_continuous_mode(self):
        # a strongly dominated instance stays verified off the grid
        w = np.array([[1.0, -1.0], [1.0, -1.0], [1.0, -1.0], [1.0, -1.0]])
        v = bab_verify(
            toy(w), toy_prop([5.0, 5.0, 5.0, 5.0], 0, 1, num_outputs=2),
            integer_grid=False,
        )
        assert v.status == "verified"
        # at epsilon 2 the violating region has interior volume, so centre
        # probing reaches it
        prop = toy_prop(BRITTLE_IMG, BRITTLE_LABEL, 2)
        net = toy(BRITTLE_W)
        v = bab_verify(net, prop, integer_grid=False, max_nodes=20000)
        assert v.status == "falsified"
        assert check_witness(net, prop, v.witness)

    def test_continuous_mode_misses_corner_only_violations(self):
        # the epsilon-1 brittle ball violates only at one exact corner, a
        # zero-measure set; continuous search legitimately answers unknown
        # where grid mode proves falsified
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_IMG, BRITTLE_LABEL, 1)
        v = bab_verify(net, prop, integer_grid=False, max_nodes=3000)
        assert v.status == "unknown"
        assert bab_verify(net, prop).status == "falsified"

    def test_continuous_mode_stops_at_float_resolution(self):
        # X_1 spans one ulp just above X_0 = 1, so class 0 wins at both of
        # the box's points; the off-grid rounding margin keeps the root
        # box open, and no float lies strictly between X_1's ends to split
        # it at: an open box that cannot shrink is unknown, not verified
        net = Network((1, 2, 1), (Flatten(), QDense(
            np.array([[-1.0, 1.0], [1.0, -1.0]]), quantize_input=False)))
        above = float(np.nextafter(1.0, 2.0))
        x1 = (above, float(np.nextafter(above, 2.0)))
        prop = RobustnessProperty(2, 2, ((1.0, 1.0), x1), 0)
        for x in x1:
            logits = network_forward(net, np.array([1.0, x]).reshape(1, 2, 1))
            assert logits[0] > logits[1]
        v = bab_verify(net, prop, integer_grid=False)
        assert (v.status, v.nodes) == ("unknown", 1)

    def test_integer_witnesses_on_grid(self):
        net = toy(BRITTLE_W)
        v = bab_verify(net, toy_prop(BRITTLE_IMG, BRITTLE_LABEL, 1))
        assert all(float(x).is_integer() for x in v.witness.input_values)

    def test_answers_are_unchanged(self):
        """(status, nodes, witness) of 309 seeded queries, pinned when each
        node held copies of its bounds; any change to the node order, the
        split rule, the probe centres or the counting shows here."""
        sha, count = digest(range(1, 101), 3)
        assert count == 309
        assert sha == "6d6e60352286e8f940ec45f5e7a0e89d2dfcee36a77405ed284215a23ef21e63"

    def test_frontier_grows_by_splits_not_input_copies(self):
        # a full XNOR eps=1 box is never pruned, so every split pushes both
        # children; holding a copy of the input per node takes about 24 MB
        # at this cap
        net = with_random_weights(build_arch_xnor(30, 30), np.random.default_rng(0))
        image = np.random.default_rng(1).integers(0, 256, size=net.input_shape).astype(float)
        label = int(np.argmax(network_forward(net, image)))
        prop = make_property(image, 1, label, num_outputs=net.num_classes)
        bab_verify(net, prop, max_nodes=3)
        tracemalloc.start()
        try:
            v = bab_verify(net, prop, max_nodes=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (v.status, v.nodes) == ("unknown", 1001)
        # the root's interval trace, the probe's point trace and a batch of
        # two children each hold about one forward's working set per image
        working_set = BATCH_BYTES // images_per_batch(net)
        assert peak <= 16 * image.nbytes + 6 * working_set
