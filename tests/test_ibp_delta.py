"""Interval bounds relative to a base trace, against the full trace.

``ibp_propagate(net, box, base=trace)`` recomputes only the part of each
image layer that ``box`` changes against the box of ``trace``.  On
integer boxes it must be bit-identical to ``ibp_trace(net, box)[-1]``;
off the grid it must lie inside those bounds and still contain the
float64 forward of every point.  A point box is the exact forward:
through a full trace always, through a base trace on integer inputs.
BaB bounds every non-root node and every probe after the first this
way, so its verdicts, node counts and witnesses must equal those of a
run that bounds every node and probe with a full trace.
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
from bnnverify.layers import BatchNorm, Flatten, MaxPool, QConv, QDense, sign_quantize
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
                QConv(rng.choice([-1.0, 1.0], size=(2, 3, 2, 3)), False),
                MaxPool(),
                BatchNorm(gamma=[-1.0, -0.5, -2.0], beta=[0.5, -1.0, 0.0],
                          moving_mean=[2.0, -3.0, 1.0], moving_variance=[4.0, 1.0, 9.0]),
                QConv(rng.choice([-1.0, 1.0], size=(1, 1, 3, 2)), True),
                Flatten(),
                QDense(rng.choice([-1.0, 1.0], size=(12, 3)), True),
            ),
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


def batch_of(items):
    """One box with a leading batch dim from boxes of one kind: a point
    batch (one array) from points, else a two-array box."""
    if all(b.lo is b.hi for b in items):
        return IntervalTensor.point(np.stack([b.lo for b in items]))
    return IntervalTensor(np.stack([b.lo for b in items]), np.stack([b.hi for b in items]))


def item_bounds(out, n, k):
    """Item ``k`` of the logit bounds of a batch of ``n``: a batch whose
    change died out returns the base's unbatched logit box for every item."""
    shape = (n,) + out.lo.shape[-1:]
    return np.broadcast_to(out.lo, shape)[k], np.broadcast_to(out.hi, shape)[k]


def assert_items_equal_own_calls(net, base, items):
    """Each item of a batched call equals its own unbatched call, bit for
    bit; the batch returns ``base[-1]`` itself exactly when every item
    does.  Returns the batched result."""
    got = ibp_propagate(net, batch_of(items), base=base)
    own = [ibp_propagate(net, item, base=base) for item in items]
    assert (got is base[-1]) == all(o is base[-1] for o in own)
    for k, o in enumerate(own):
        lo, hi = item_bounds(got, len(items), k)
        assert_same_bits(lo, o.lo)
        assert_same_bits(hi, o.hi)
    return got


def assert_items_equal_own_traces(net, items):
    batch = batch_of(items)
    trace = ibp_trace(net, batch)
    assert (batch.lo is batch.hi) == all(t.lo is t.hi for t in trace)
    for k, item in enumerate(items):
        for t, own in zip(trace, ibp_trace(net, item), strict=True):
            assert_same_bits(t.lo[k], own.lo)
            assert_same_bits(t.hi[k], own.hi)


def grid_items(rng, base_box, n, points, where, how):
    """``n`` integer children of ``base_box``, or ``n`` integer points
    near its lower corner."""
    if points:
        items = []
        for _ in range(n):
            y = base_box.lo.reshape(-1).copy()
            y[changed_entries(rng, base_box.shape, int(rng.integers(1, 5)), where)] += (
                rng.choice([-1.0, 1.0]))
            items.append(IntervalTensor.point(y.reshape(base_box.shape)))
        return items
    return [child_box(rng, base_box, int(rng.integers(1, 5)), where, how)
            for _ in range(n)]


class TestBatchedCalls:
    """Boxes with a leading batch dim: each item's bounds are its own
    call's, bit for bit, on the integer grid, where every sum is exact.
    BaB bounds both children of a split as one such batch."""

    @settings(max_examples=200)
    @given(net_seed=SEEDS, channels=st.integers(1, 3), max_side=st.integers(2, 7),
           box_seed=SEEDS, n=st.integers(1, 3), points=st.booleans(), where=WHERE,
           how=HOW)
    def test_tiny_networks(self, net_seed, channels, max_side, box_seed, n, points,
                           where, how):
        net = random_tiny_network(np.random.default_rng(net_seed), max_side=max_side,
                                  channels=channels)
        rng = np.random.default_rng(box_seed)
        start = integer_box(rng, net.input_shape, 8)
        if points:
            start = IntervalTensor.point(start.lo)
        items = grid_items(rng, start, n, points, where, how)
        assert_items_equal_own_traces(net, items)
        assert_items_equal_own_calls(net, ibp_trace(net, start), items)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_archs(self, arch_nets, arch):
        net = arch_nets[arch]
        rng = np.random.default_rng(12)
        box_base = ibp_trace(net, integer_box(rng, net.input_shape, 255))
        point_base = ibp_trace(net, IntervalTensor.point(box_base[0].lo))
        died = 0
        for m in range(12):
            where = ("corner", "border", "far", "random")[m % 4]
            how = ("narrow", "shift", "widen", "point")[m % 4]
            n = 1 + m % 3
            for base, points in ((box_base, False), (point_base, True)):
                items = grid_items(rng, base[0], n, points, where, how)
                died += assert_items_equal_own_calls(net, base, items) is base[-1]
            if m < 3:
                assert_items_equal_own_traces(net, items)
        # narrowed corner pixels of BaB's splits mostly flip no sign of the
        # first quantizing layer: a batch that dies out there
        for _ in range(6):
            items = [child_box(rng, box_base[0], 1, "corner", "narrow") for _ in range(2)]
            died += assert_items_equal_own_calls(net, box_base, items) is box_base[-1]
        assert died > 0

    @settings(max_examples=80)
    @given(net_seed=SEEDS, channels=st.integers(1, 3), box_seed=SEEDS,
           n=st.integers(2, 3), where=WHERE)
    def test_off_grid_item_leaves_its_siblings_alone(self, net_seed, channels, box_seed,
                                                     n, where):
        # the rounding margin is decided per item: grid items beside an
        # off-grid one keep their own bounds, and the off-grid one is sound
        net = random_tiny_network(np.random.default_rng(net_seed), max_side=6,
                                  channels=channels)
        rng = np.random.default_rng(box_seed)
        start = integer_box(rng, net.input_shape, 8)
        base = ibp_trace(net, start)
        off = off_grid_child(rng, start, int(rng.integers(1, 4)), where)
        grid = [child_box(rng, start, 2, where, "narrow") for _ in range(n - 1)]
        items = [off] + grid
        got = ibp_propagate(net, batch_of(items), base=base)
        trace = ibp_trace(net, batch_of(items))[-1]
        for k, item in enumerate(items[1:], start=1):
            own = ibp_trace(net, item)[-1]
            for bounds in (got, trace):
                lo, hi = item_bounds(bounds, n, k)
                assert_same_bits(lo, own.lo)
                assert_same_bits(hi, own.hi)
        inner = rng.uniform(off.lo, off.hi, size=(64,) + off.shape)
        points = np.concatenate([off.lo[None], off.hi[None], np.clip(inner, off.lo, off.hi)])
        logits = network_forward_batch(net, points)
        for bounds in (got, trace):
            lo, hi = item_bounds(bounds, n, 0)
            assert np.all(lo <= logits) and np.all(logits <= hi)

    def test_batched_base_and_wrong_item_shape_rejected(self):
        rng = np.random.default_rng(0)
        net = random_tiny_network(rng, channels=2)
        box = integer_box(rng, net.input_shape, 8)
        batch = batch_of([box, box])
        with pytest.raises(ShapeMismatchError):
            ibp_propagate(net, box, base=ibp_trace(net, batch))
        wrong = IntervalTensor(np.zeros((2, 1, 1, 1)), np.ones((2, 1, 1, 1)))
        with pytest.raises(ShapeMismatchError):
            ibp_trace(net, wrong)
        with pytest.raises(ShapeMismatchError):
            ibp_propagate(net, wrong, base=ibp_trace(net, box))



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
    and every probe bounded by a full trace.  Also checks the base of each
    relative call: every non-root node is bounded against the root's trace,
    in batches whose sizes sum to the non-root nodes, and every probe after
    the first against the first probe's trace, which is the exact
    forward's layer outputs."""
    relative = ibp_propagate
    forward = bab_module.network_forward
    traces = []  # full traces: the root's only
    forwards = []  # (image, outputs) of every exact forward
    points = []  # every box made by IntervalTensor.point
    calls = []  # (box, base) of every relative call

    def trace_spy(net, box):
        traces.append(ibp_trace(net, box))
        return traces[-1]

    def forward_spy(net, image, **kwargs):
        forwards.append((np.array(image), forward(net, image, **kwargs)))
        return forwards[-1][1]

    def point_spy(values):
        points.append(make_point(values))
        return points[-1]

    def spy(net, box, base=None):
        calls.append((box, base))
        return relative(net, box, base=base)

    def full_trace(net, box, base=None):
        return relative(net, box)

    def key(v):
        return v.status, v.nodes, None if v.witness is None else v.witness.input_values

    make_point = IntervalTensor.point
    monkeypatch.setattr(bab_module, "ibp_trace", trace_spy)
    monkeypatch.setattr(bab_module, "network_forward", forward_spy)
    monkeypatch.setattr(IntervalTensor, "point", point_spy)
    monkeypatch.setattr(bab_module, "ibp_propagate", spy)
    got = key(bab_verify(net, prop, max_nodes=max_nodes))
    monkeypatch.undo()
    monkeypatch.setattr(bab_module, "ibp_propagate", full_trace)
    want = key(bab_verify(net, prop, max_nodes=max_nodes))

    assert len(traces) == 1
    root = traces[0]
    node_calls = [box for box, base in calls if base is root]
    # the root is bounded by its own trace; each split's children by one call
    assert all(box.lo.ndim == 4 for box in node_calls)
    assert sum(len(box.lo) for box in node_calls) == got[1] - 1
    probe_calls = [(box, base) for box, base in calls if base is not root]
    if forwards:
        (image, outputs), = forwards
        base = points[:len(outputs)]
        assert len(base) == len(net.layers) + 1
        assert_same_bits(base[0].lo, image)
        for t, full in zip(base, ibp_trace(net, make_point(image))):
            assert t.lo is t.hi
            assert_same_bits(t.lo, full.lo)
        # every later probe is the next point box, against that trace
        assert len(probe_calls) == len(points) - len(base)
        assert all(box is point and probe_base is probe_calls[0][1]
                   for (box, probe_base), point in zip(probe_calls, points[len(base):]))
        if probe_calls:
            assert all(a is b for a, b in zip(probe_calls[0][1], base, strict=True))
    else:
        assert not points and not probe_calls
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


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def integer_image(rng, shape, pixel_max):
    return rng.integers(0, pixel_max + 1, size=shape).astype(np.float64)


class TestPoints:
    def test_one_array_point(self):
        v = np.arange(6.0).reshape(1, 2, 3)
        box = IntervalTensor.point(v)
        assert box.lo is box.hi and not box.lo.flags.writeable
        assert box.lo is not v and v.flags.writeable  # the caller's array is copied
        v[0, 0, 0] = 9.0
        assert box.lo[0, 0, 0] == 0.0

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_point_trace_is_the_forward_on_archs(self, arch_nets, arch):
        net = arch_nets[arch]
        rng = np.random.default_rng(2)
        for _ in range(3):
            x = integer_image(rng, net.input_shape, 255)
            trace = ibp_trace(net, IntervalTensor.point(x))
            assert all(b.lo is b.hi for b in trace)
            assert_same_bits(trace[-1].lo, network_forward(net, x))
            outputs = network_forward(net, x, trace=True)
            assert len(outputs) == len(trace)
            for b, out in zip(trace, outputs):
                assert_same_bits(b.lo, out)

    @settings(max_examples=200)
    @given(net_seed=SEEDS, channels=st.integers(1, 3), max_side=st.integers(2, 7),
           x_seed=SEEDS, grid=st.booleans())
    def test_point_trace_is_the_forward_on_tiny_networks(self, net_seed, channels,
                                                         max_side, x_seed, grid):
        net = random_tiny_network(np.random.default_rng(net_seed), max_side=max_side,
                                  channels=channels)
        rng = np.random.default_rng(x_seed)
        if grid:
            x = integer_image(rng, net.input_shape, 8)
        else:
            x = rng.uniform(-1.0, 9.0, size=net.input_shape)
        trace = ibp_trace(net, IntervalTensor.point(x))
        outputs = network_forward(net, x, trace=True)
        assert_same_bits(trace[-1].lo, network_forward(net, x))
        assert len(outputs) == len(trace)
        for b, out in zip(trace, outputs):
            assert_same_bits(b.lo, out)

    @settings(max_examples=100)
    @given(net_seed=SEEDS, channels=st.integers(1, 3), max_side=st.integers(2, 7),
           x_seed=SEEDS)
    def test_one_array_trace_equals_two_array_trace(self, net_seed, channels, max_side,
                                                    x_seed):
        net = random_tiny_network(np.random.default_rng(net_seed), max_side=max_side,
                                  channels=channels)
        x = integer_image(np.random.default_rng(x_seed), net.input_shape, 8)
        one = ibp_trace(net, IntervalTensor.point(x))
        two = ibp_trace(net, IntervalTensor(x, x.copy()))
        for a, b in zip(one, two):
            assert_same_bits(a.lo, b.lo)
            assert_same_bits(a.hi, b.hi)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_one_array_trace_equals_two_array_trace_on_archs(self, arch_nets, arch):
        net = arch_nets[arch]
        x = integer_image(np.random.default_rng(4), net.input_shape, 255)
        one = ibp_trace(net, IntervalTensor.point(x))
        two = ibp_trace(net, IntervalTensor(x, x.copy()))
        for a, b in zip(one, two):
            assert_same_bits(a.lo, b.lo)
            assert_same_bits(a.hi, b.hi)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_delta_probe_is_the_forward(self, arch_nets, arch):
        # BaB's probes: a point trace of one centre as the base, then
        # points that differ from it by +-1 in a few pixels
        net = arch_nets[arch]
        rng = np.random.default_rng(6)
        x = integer_image(rng, net.input_shape, 255)
        base = ibp_trace(net, IntervalTensor.point(x))
        for n in range(40):
            where = ("corner", "border", "far", "random")[n % 4]
            y = x.reshape(-1).copy()
            y[changed_entries(rng, x.shape, int(rng.integers(1, 5)), where)] += (
                rng.choice([-1.0, 1.0]))
            y = y.reshape(x.shape)
            got = ibp_propagate(net, IntervalTensor.point(y), base=base)
            assert got.lo is got.hi
            assert_same_bits(got.lo, network_forward(net, y))

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_points_and_boxes_mixed(self, arch_nets, arch):
        # a point against a box trace, and a box against a point trace
        net = arch_nets[arch]
        rng = np.random.default_rng(7)
        box_base = ibp_trace(net, integer_box(rng, net.input_shape, 255))
        x = box_base[0].lo + 1.0
        point_base = ibp_trace(net, IntervalTensor.point(x))
        for n in range(8):
            where = ("corner", "border", "far", "random")[n % 4]
            # the box's lower corner, moved in a few entries
            y = box_base[0].lo.reshape(-1).copy()
            y[changed_entries(rng, x.shape, 3, where)] += rng.choice([-1.0, 1.0])
            point = IntervalTensor.point(y.reshape(x.shape))
            assert_equals_full_trace(net, box_base, point)
            lo = x.reshape(-1).copy()
            hi = lo.copy()
            hi[changed_entries(rng, x.shape, 3, where)] += 2.0
            box = IntervalTensor(lo.reshape(x.shape), hi.reshape(x.shape))
            assert_equals_full_trace(net, point_base, box)

    @settings(max_examples=200)
    @given(net_seed=SEEDS, channels=st.integers(1, 3), max_side=st.integers(2, 7),
           x_seed=SEEDS, k=st.integers(1, 4), where=WHERE)
    def test_delta_probe_is_the_forward_on_tiny_networks(self, net_seed, channels,
                                                         max_side, x_seed, k, where):
        net = random_tiny_network(np.random.default_rng(net_seed), max_side=max_side,
                                  channels=channels)
        rng = np.random.default_rng(x_seed)
        x = integer_image(rng, net.input_shape, 8)
        base = ibp_trace(net, IntervalTensor.point(x))
        y = x.reshape(-1).copy()
        y[changed_entries(rng, x.shape, k, where)] += rng.choice([-1.0, 1.0])
        y = y.reshape(x.shape)
        got = ibp_propagate(net, IntervalTensor.point(y), base=base)
        assert_same_bits(got.lo, network_forward(net, y))


class TestRankKDense:
    """Deltas that change k entries of the first dense layer's input: from
    ``Flatten`` on every layer recomputes in full, and the logits equal the
    full trace bit for bit."""

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_update_equals_full_recompute(self, arch_nets, arch):
        net = arch_nets[arch]
        flat = next(i for i, layer in enumerate(net.layers) if isinstance(layer, Flatten))
        rng = np.random.default_rng(8)
        flips = 0
        for eps in (0, 1, 3):
            base = ibp_trace(net, integer_box(rng, net.input_shape, 255, eps))
            for n in range(16):
                # a few far-moved pixels change signs up to Flatten
                lo = base[0].lo.reshape(-1).copy()
                hi = base[0].hi.reshape(-1).copy()
                where = ("corner", "border", "far", "random")[n % 4]
                entries = changed_entries(rng, base[0].shape, 4, where)
                lo[entries] -= rng.integers(0, 200, size=entries.size)
                if n % 2:
                    hi[entries] = lo[entries]
                box = IntervalTensor(lo.reshape(base[0].shape), hi.reshape(base[0].shape))
                got = ibp_propagate(net, box, base=base)
                trace = ibp_trace(net, box)
                assert_same_bits(got.lo, trace[-1].lo)
                assert_same_bits(got.hi, trace[-1].hi)
                flips += any(
                    not np.array_equal(sign_quantize(new), sign_quantize(old))
                    for new, old in ((trace[flat].lo, base[flat].lo),
                                     (trace[flat].hi, base[flat].hi))
                )
        # the cases reach the dense layer's signs, not only the image layers
        assert flips >= 3

    def test_unchanged_signs_return_the_base_logits(self):
        # a raw-pixel 1x1 conv feeding Flatten and a quantizing QDense:
        # moving one pixel within the same sign reaches the dense layer,
        # whose quantized input does not change
        net = Network(
            input_shape=(2, 3, 1),
            layers=(QConv(np.ones((1, 1, 1, 1)), False), Flatten(),
                    QDense(np.array([[1.0, -1.0]] * 6), True)),
        )
        x = np.arange(6.0).reshape(2, 3, 1) + 1.0
        base = ibp_trace(net, IntervalTensor.point(x))
        y = x.copy()
        y[1, 2, 0] += 5.0
        got = ibp_propagate(net, IntervalTensor.point(y), base=base)
        assert_same_bits(got.lo, network_forward(net, y))
        assert_same_bits(got.lo, base[-1].lo)
        y[0, 0, 0] = -3.0  # flips one sign of the dense layer's input
        got = ibp_propagate(net, IntervalTensor.point(y), base=base)
        assert_same_bits(got.lo, network_forward(net, y))

    def test_flatten_first_network_recomputes_in_full(self):
        rng = np.random.default_rng(9)
        net = Network(
            input_shape=(3, 4, 2),
            layers=(Flatten(), QDense(rng.choice([-1.0, 1.0], size=(24, 3)), False)),
        )
        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = ibp_trace(net, integer_box(rng, net.input_shape, 8))
            for where in ("corner", "border", "far", "random"):
                for how in ("narrow", "shift", "widen", "point"):
                    assert_equals_full_trace(net, base,
                                             child_box(rng, base[0], 2, where, how))
            x = integer_image(rng, net.input_shape, 8)
            probe_base = ibp_trace(net, IntervalTensor.point(x))
            y = x.copy()
            y[0, 0, 0] += 1.0
            got = ibp_propagate(net, IntervalTensor.point(y), base=probe_base)
            assert_same_bits(got.lo, network_forward(net, y))


class TestOffGridProbes:
    """A delta probe off the integer grid may round apart from the exact
    forward.  A probe that claims a witness which the forward rejects is
    split like a passing probe off the grid, and is an error on it."""

    def runs(self, monkeypatch, integer_grid):
        rng = np.random.default_rng(14)  # capped at 40 nodes without a witness
        net = random_tiny_network(rng, max_side=4, channels=2)
        image = integer_image(rng, net.input_shape, 8)
        label = int(np.argmax(network_forward(net, image)))
        prop = make_property(image, 1, label, num_outputs=net.num_classes)
        relative = ibp_propagate

        def key(v):
            return v.status, v.nodes, v.witness

        clean = key(bab_verify(net, prop, max_nodes=40, integer_grid=integer_grid))
        lied = []

        def lying_probe(net, box, base=None):
            out = relative(net, box, base=base)
            if box.lo is not box.hi:
                return out
            # every class ties: a witness that the forward rejects
            lied.append(box)
            return IntervalTensor.point(np.zeros_like(out.lo))

        monkeypatch.setattr(bab_module, "ibp_propagate", lying_probe)
        return clean, lambda: key(bab_verify(net, prop, max_nodes=40,
                                             integer_grid=integer_grid)), lied

    def test_off_grid_split_like_a_pass(self, monkeypatch):
        clean, run, lied = self.runs(monkeypatch, integer_grid=False)
        assert clean == ("unknown", 41, None)
        assert run() == clean
        assert len(lied) > 10

    def test_on_grid_an_error(self, monkeypatch):
        clean, run, lied = self.runs(monkeypatch, integer_grid=True)
        assert clean == ("unknown", 41, None)
        with pytest.raises(RuntimeError, match="probe witness failed its own check"):
            run()
