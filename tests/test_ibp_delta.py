"""Interval bounds relative to a base trace, against the full trace.

``ibp_propagate(net, box, base=trace)`` recomputes only the part of each
image layer that ``box`` changes against the box of ``trace``.  On
integer boxes it must be bit-identical to ``ibp_trace(net, box)[-1]``;
off the grid it must lie inside those bounds and still contain the
float64 forward of every point.  BaB bounds every non-root node this
way, so its verdicts, node counts and witnesses must equal those of a
run that bounds every node with a full trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnnverify.arch import (
    build_arch_a,
    build_arch_b,
    build_arch_xnor,
    random_tiny_network,
    with_random_weights,
)
from bnnverify.errors import ShapeMismatchError
from bnnverify.layers import BatchNorm, Flatten, MaxPool, QConv, QDense
from bnnverify.network import Network, network_forward, network_forward_batch
from bnnverify.vnnlib import RobustnessProperty, make_property
from bnnverify.verify import IntervalTensor, bab_verify, ibp_propagate, ibp_trace
from bnnverify.verify import bab as bab_module

ARCHS = {"A": (build_arch_a, 64), "B": (build_arch_b, 48), "XNOR": (build_arch_xnor, 30)}
SEEDS = st.integers(0, 2**32 - 1)
# where the changed entries sit: BaB's widest-first split walks the flat
# order from the top-left corner; the others reach the borders and span
# the whole image
WHERE = st.sampled_from(["corner", "border", "random", "far"])
# how they change: narrowed as by a BaB split, shifted, widened, or
# collapsed to a point
HOW = st.sampled_from(["narrow", "shift", "widen", "point"])


@pytest.fixture(scope="module")
def arch_nets():
    rng = np.random.default_rng(21)
    return {
        name: with_random_weights(build(side, side), rng)
        for name, (build, side) in ARCHS.items()
    }


def integer_box(rng, shape, pixel_max, eps=1):
    image = rng.integers(0, pixel_max + 1, size=shape).astype(np.float64)
    return IntervalTensor(image - eps, image + eps)


def changed_entries(rng, shape, k, where):
    h, w, c = shape
    size = h * w * c
    if where == "corner":
        return np.arange(min(k, size))
    if where == "far":
        return np.array([0, size - 1])
    if where == "border":
        rows = rng.choice([0, h - 1], size=k)
        cols = rng.integers(0, w, size=k)
        swap = rng.random(k) < 0.5  # half on the left or right edge instead
        rows[swap] = rng.integers(0, h, size=int(swap.sum()))
        cols[swap] = rng.choice([0, w - 1], size=int(swap.sum()))
        return (rows * w + cols) * c + rng.integers(0, c, size=k)
    return rng.choice(size, size=min(k, size), replace=False)


def child_box(rng, box, k, where, how):
    """``box`` with ``k`` entries moved on the integer grid."""
    lo = box.lo.reshape(-1).copy()
    hi = box.hi.reshape(-1).copy()
    for d in changed_entries(rng, box.shape, k, where):
        if how == "narrow":
            if rng.random() < 0.5:
                hi[d] = lo[d] + rng.integers(0, hi[d] - lo[d] + 1)
            else:
                lo[d] = hi[d] - rng.integers(0, hi[d] - lo[d] + 1)
        elif how == "shift":
            step = float(rng.integers(-3, 4))
            lo[d] += step
            hi[d] += step
        elif how == "widen":
            lo[d] -= float(rng.integers(0, 3))
            hi[d] += float(rng.integers(1, 3))
        else:
            lo[d] = hi[d] = float(rng.integers(lo[d], hi[d] + 1))
    return IntervalTensor(lo.reshape(box.shape), hi.reshape(box.shape))


def assert_equals_full_trace(net, base, box):
    got = ibp_propagate(net, box, base=base)
    want = ibp_trace(net, box)[-1]
    np.testing.assert_array_equal(got.lo, want.lo)
    np.testing.assert_array_equal(got.hi, want.hi)
    return got


class TestIntegerBoxes:
    @settings(max_examples=200)
    @given(net_seed=SEEDS, channels=st.integers(1, 3), max_side=st.integers(2, 7),
           box_seed=SEEDS, k=st.integers(1, 4), where=WHERE, how=HOW)
    def test_tiny_networks(self, net_seed, channels, max_side, box_seed, k, where, how):
        net = random_tiny_network(np.random.default_rng(net_seed),
                                  max_side=max_side, channels=channels)
        rng = np.random.default_rng(box_seed)
        base = ibp_trace(net, integer_box(rng, net.input_shape, 8))
        assert_equals_full_trace(net, base, child_box(rng, base[0], k, where, how))

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    @settings(max_examples=10)
    @given(box_seed=SEEDS, k=st.integers(1, 4), where=WHERE, how=HOW)
    def test_archs(self, arch_nets, arch, box_seed, k, where, how):
        net = arch_nets[arch]
        rng = np.random.default_rng(box_seed)
        base = ibp_trace(net, integer_box(rng, net.input_shape, 255))
        assert_equals_full_trace(net, base, child_box(rng, base[0], k, where, how))

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_changes_that_vanish_at_a_sign(self, arch_nets, arch):
        # narrowing one corner pixel of an eps=1 box mostly leaves every
        # phase of the next quantizing layer as it was: the call must then
        # hand back the base logit box itself, and still be exact
        net = arch_nets[arch]
        rng = np.random.default_rng(5)
        base = ibp_trace(net, integer_box(rng, net.input_shape, 255))
        vanished = 0
        for _ in range(12):
            got = assert_equals_full_trace(net, base, child_box(rng, base[0], 2, "corner",
                                                                 "narrow"))
            vanished += got is base[-1]
        assert vanished > 0

    def test_box_equal_to_base_returns_base_logits(self, arch_nets):
        net = arch_nets["XNOR"]
        base = ibp_trace(net, integer_box(np.random.default_rng(1), net.input_shape, 255))
        assert ibp_propagate(net, base[0], base=base) is base[-1]
        same = IntervalTensor(base[0].lo.copy(), base[0].hi.copy())
        assert ibp_propagate(net, same, base=base) is base[-1]

    def test_odd_pool_and_negative_gamma(self):
        # 6x9 input -> 2x3 conv on raw pixels -> 5x7 -> pool drops row 4
        # and column 6 -> batch norm with every gamma negative -> 1x1
        # quantized conv -> dense
        rng = np.random.default_rng(3)
        net = Network(
            input_shape=(6, 9, 2),
            layers=(
                QConv(3, 2, 3, rng.choice([-1.0, 1.0], size=(2, 3, 2, 3)), False),
                MaxPool(),
                BatchNorm(gamma=[-1.0, -0.5, -2.0], beta=[0.5, -1.0, 0.0],
                          moving_mean=[2.0, -3.0, 1.0], moving_variance=[4.0, 1.0, 9.0]),
                QConv(2, 1, 1, rng.choice([-1.0, 1.0], size=(1, 1, 3, 2)), True),
                Flatten(),
                QDense(3, rng.choice([-1.0, 1.0], size=(12, 3)), True),
            ),
            num_classes=3,
        )
        for seed in range(40):
            rng = np.random.default_rng(seed)
            base = ibp_trace(net, integer_box(rng, net.input_shape, 8))
            for where in ("corner", "border", "far", "random"):
                assert_equals_full_trace(net, base, child_box(rng, base[0], 3, where, "shift"))
        # a change only in the pixels the pool drops reaches no output
        lo, hi = base[0].lo.copy(), base[0].hi.copy()
        hi[5, :, :] += 7.0
        hi[:, 8, :] += 7.0
        box = IntervalTensor(lo, hi)
        assert ibp_propagate(net, box, base=base) is base[-1]
        assert_equals_full_trace(net, base, box)

    def test_base_of_another_shape_rejected(self):
        rng = np.random.default_rng(0)
        net = random_tiny_network(rng, channels=2)
        base = ibp_trace(net, integer_box(rng, net.input_shape, 8))
        with pytest.raises(ShapeMismatchError):
            ibp_propagate(net, IntervalTensor(np.zeros((1, 1, 1)), np.ones((1, 1, 1))),
                          base=base)


def off_grid_child(rng, box, k, where):
    """``box`` with ``k`` entries given new non-integer bounds."""
    lo = box.lo.reshape(-1).copy()
    hi = box.hi.reshape(-1).copy()
    for d in changed_entries(rng, box.shape, k, where):
        lo[d] = rng.uniform(lo[d] - 1.0, hi[d])
        hi[d] = rng.uniform(lo[d], lo[d] + 2.0)
    return IntervalTensor(lo.reshape(box.shape), hi.reshape(box.shape))


class TestOffGridBoxes:
    @settings(max_examples=80)
    @given(net_seed=SEEDS, channels=st.integers(1, 3), box_seed=SEEDS,
           k=st.integers(1, 4), where=WHERE, grid_base=st.booleans())
    def test_inside_full_bounds_and_sound(self, net_seed, channels, box_seed, k,
                                          where, grid_base):
        net = random_tiny_network(np.random.default_rng(net_seed), max_side=6,
                                  channels=channels)
        rng = np.random.default_rng(box_seed)
        if grid_base:
            start = integer_box(rng, net.input_shape, 8)
        else:
            lo = rng.uniform(0.0, 8.0, size=net.input_shape)
            start = IntervalTensor(lo, lo + rng.uniform(0.0, 2.0, size=lo.shape))
        base = ibp_trace(net, start)
        box = off_grid_child(rng, start, k, where)
        got = ibp_propagate(net, box, base=base)
        full = ibp_trace(net, box)[-1]
        assert np.all(full.lo <= got.lo) and np.all(got.hi <= full.hi)
        inner = rng.uniform(box.lo, box.hi, size=(64,) + box.shape)
        points = np.concatenate([box.lo[None], box.hi[None],
                                 np.clip(inner, box.lo, box.hi)])
        logits = network_forward_batch(net, points)
        assert np.all(got.lo <= logits) and np.all(logits <= got.hi)


def sparse_property(image, pixels, label, num_outputs):
    """eps=1 on the given flat entries of ``image``, a point elsewhere."""
    lo = image.reshape(-1).copy()
    hi = lo.copy()
    lo[pixels] -= 1.0
    hi[pixels] += 1.0
    return RobustnessProperty(lo.size, num_outputs, np.column_stack((lo, hi)), label)


def bab_runs(monkeypatch, net, prop, max_nodes):
    """(status, nodes, witness) of bab_verify as it is and with every node
    bounded by a full trace; also whether each non-root node got a base."""
    relative = ibp_propagate
    bases = []

    def spy(net, box, base=None):
        bases.append(base is not None)
        return relative(net, box, base=base)

    def full_trace(net, box, base=None):
        return relative(net, box)

    def key(v):
        return v.status, v.nodes, None if v.witness is None else v.witness.input_values

    monkeypatch.setattr(bab_module, "ibp_propagate", spy)
    got = key(bab_verify(net, prop, max_nodes=max_nodes))
    monkeypatch.setattr(bab_module, "ibp_propagate", full_trace)
    want = key(bab_verify(net, prop, max_nodes=max_nodes))
    assert all(bases)
    assert len(bases) == got[1] - 1  # the root is bounded by its own trace
    return got, want


class TestBranchAndBound:
    def test_tiny_networks_match_full_trace_bab(self, monkeypatch):
        statuses = set()
        for seed in range(60):
            rng = np.random.default_rng(900 + seed)
            net = random_tiny_network(rng, max_side=int(rng.integers(2, 6)),
                                      channels=int(rng.integers(1, 3)))
            image = rng.integers(0, 9, size=net.input_shape).astype(np.float64)
            label = int(np.argmax(network_forward(net, image)))
            pixels = rng.choice(net.num_inputs, size=min(3, net.num_inputs),
                                replace=False)
            for prop, cap in (
                (sparse_property(image, pixels, label, net.num_classes), None),
                (make_property(image, 1, label, num_outputs=net.num_classes), 64),
            ):
                got, want = bab_runs(monkeypatch, net, prop, cap)
                assert got == want, f"seed {900 + seed}"
                statuses.add(got[0])
        assert statuses == {"verified", "falsified", "unknown"}

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_capped_full_boxes_match_full_trace_bab(self, monkeypatch, arch_nets, arch):
        net = arch_nets[arch]
        rng = np.random.default_rng(17)
        for _ in range(3):
            image = rng.integers(0, 256, size=net.input_shape).astype(np.float64)
            label = int(np.argmax(network_forward(net, image)))
            prop = make_property(image, 1, label, num_outputs=net.num_classes)
            got, want = bab_runs(monkeypatch, net, prop, 8)
            assert got == want
