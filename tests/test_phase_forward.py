"""The phase forward against the full batched forward, bit for bit."""

import tracemalloc

import numpy as np
import pytest

from bnnverify.arch import (
    build_arch_a,
    build_arch_b,
    build_arch_xnor,
    random_tiny_network,
    with_random_weights,
)
from bnnverify.layers import BatchNorm, Flatten, MaxPool, QConv, QDense, layer_forward
from bnnverify.network import (
    BATCH_BYTES,
    Network,
    images_per_batch,
    margin,
    network_forward_batch,
)
from bnnverify.verify import integer_grid_bounds, intervals
from bnnverify.verify.intervals import (
    IntervalTensor,
    ibp_trace,
    phase_forward,
    stable_phases,
)
from bnnverify.vnnlib import make_property

ARCHS = {"A": (build_arch_a, 64), "B": (build_arch_b, 48), "XNOR": (build_arch_xnor, 30)}


def sampling_box(net, lo, hi):
    return IntervalTensor(lo.reshape(net.input_shape), hi.reshape(net.input_shape))


def draws(net, lo, hi, kind, n, rng):
    """``n`` images of the box: integer-grid draws or uniform floats, as
    ``random_attack`` makes them, with the box that they fill."""
    if kind == "grid":
        lo, hi = np.ceil(lo), np.floor(hi)
        x = rng.integers(lo.astype(np.int64), hi.astype(np.int64) + 1, size=(n, lo.size))
        x = x.astype(np.float64)
    else:
        x = rng.uniform(lo, hi, size=(n, lo.size))
    return sampling_box(net, lo, hi), x.reshape((n,) + net.input_shape)


def assert_bit_identical(net, forward, images):
    want = network_forward_batch(net, images)
    got = forward(images)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def full_size():
    """Each benchmark arch with seeded weights and its highest-margin
    image of a seeded pool, the kind of ball that finds no witness."""
    out = {}
    for tag, (build, side) in ARCHS.items():
        net = with_random_weights(build(side, side), np.random.default_rng(11))
        pool = np.random.default_rng(101).integers(0, 256, size=(8,) + net.input_shape)
        pool = pool.astype(np.float64)
        logits = network_forward_batch(net, pool)
        labels = np.argmax(logits, axis=1)
        k = int(np.argmin([margin(r, r, t) for r, t in zip(logits, labels)]))
        out[tag] = net, pool[k], int(labels[k])
    return out


def box_bounds(image, eps, patch):
    """Bounds of the eps ball around ``image``, or with eps on only the
    ``patch x patch`` pixels at the top left."""
    lo, hi = image.copy(), image.copy()
    if patch is None:
        lo -= eps
        hi += eps
    else:
        lo[:patch, :patch] -= eps
        hi[:patch, :patch] += eps
    return lo.reshape(-1), hi.reshape(-1)


class TestBenchmarkArchs:
    @pytest.mark.parametrize("kind", ["grid", "uniform"])
    @pytest.mark.parametrize("eps", [1, 3])
    @pytest.mark.parametrize("tag, patch", [("A", None), ("A", 6), ("B", None), ("B", 6),
                                            ("XNOR", None)])
    def test_logits_equal_the_full_forward(self, full_size, tag, patch, eps, kind):
        net, image, _ = full_size[tag]
        lo, hi = box_bounds(image, eps, patch)
        box, images = draws(net, lo, hi, kind, 12, np.random.default_rng(eps))
        forward = phase_forward(net, ibp_trace(net, box))
        if forward is None:
            # no boundary that a QDense reads or a linear layer feeds
            # directly has a fixed sign: nothing to skip
            assert tag in ("A", "B") and patch is None
            return
        assert_bit_identical(net, forward, images)

    def test_xnor_ball_fixes_most_phases(self, full_size):
        net, image, _ = full_size["XNOR"]
        box = sampling_box(net, *box_bounds(image, 1, None))
        trace = ibp_trace(net, box)
        for j in (1, 3):  # the second QConv's input and the QDense's
            free = np.count_nonzero(stable_phases(trace[j]) == 0)
            assert 0 < free < trace[j].lo.size // 4

    def test_off_grid_batch_runs_the_raw_conv_in_full(self, full_size, monkeypatch):
        """Window dots only where every sum is exact; elsewhere the first
        QConv runs through ``layer_forward`` and its free entries are
        gathered."""
        net, image, _ = full_size["XNOR"]
        rng = np.random.default_rng(5)
        box, grid = draws(net, *box_bounds(image, 1, None), "grid", 4, rng)
        forward = phase_forward(net, ibp_trace(net, box))
        off_grid = rng.uniform(box.lo, box.hi, size=(4,) + net.input_shape)
        calls = []

        def counted(t, layer, layer_index=None):
            calls.append(layer_index)
            return layer_forward(t, layer, layer_index)

        monkeypatch.setattr(intervals, "layer_forward", counted)
        assert_bit_identical(net, forward, grid)
        assert calls == []
        assert_bit_identical(net, forward, off_grid)
        assert calls == [0]

    @pytest.mark.parametrize("tag, patch", [("A", 6), ("B", 6), ("XNOR", None)])
    def test_batch_at_the_cap_stays_within_the_byte_budget(self, full_size, tag, patch):
        net, image, _ = full_size[tag]
        cap = images_per_batch(net)
        box, images = draws(net, *box_bounds(image, 1, patch), "grid", cap,
                            np.random.default_rng(1))
        forward = phase_forward(net, ibp_trace(net, box))
        forward(images[:1])
        tracemalloc.start()
        try:
            forward(images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the batch itself is live too, allocated before tracing began
        assert images.nbytes + peak <= BATCH_BYTES


@pytest.mark.parametrize("kind", ["grid", "uniform"])
def test_tiny_networks(kind):
    used = {True: 0, False: 0}  # phase forwards, by whether a MaxPool is in the net
    for seed in range(200):
        rng = np.random.default_rng(seed)
        net = random_tiny_network(rng, max_side=5, channels=2)
        image = rng.integers(0, 9, size=net.input_shape).astype(np.float64)
        for eps in (0, 1, 2):
            lo, hi = box_bounds(image, eps, None)
            box, images = draws(net, lo, hi, kind, 16, rng)
            forward = phase_forward(net, ibp_trace(net, box))
            if forward is not None:
                assert_bit_identical(net, forward, images)
                used[any(isinstance(layer, MaxPool) for layer in net.layers)] += 1
    assert used[True] >= 150 and used[False] >= 250


def raw_dense_network(rng):
    """A raw first QConv feeds a quantized QConv through a BatchNorm, and
    the QDense reads the quantized QConv's float64 output unquantized."""
    layers = (
        QConv(2, 2, 2, rng.choice([-1.0, 1.0], size=(2, 2, 1, 2)), False),
        BatchNorm(gamma=np.array([1.0, -0.5]), beta=np.array([0.25, 0.0]),
                  moving_mean=np.array([6.0, -2.0]), moving_variance=np.array([4.0, 1.0])),
        QConv(3, 2, 2, rng.choice([-1.0, 1.0], size=(2, 2, 2, 3)), True),
        Flatten(),
        QDense(3, rng.choice([-1.0, 1.0], size=(27, 3)), quantize_input=False),
    )
    return Network(input_shape=(5, 5, 1), layers=layers, num_classes=3)


@pytest.mark.parametrize("kind", ["grid", "uniform"])
def test_network_whose_qdense_reads_raw_values(kind):
    used = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = raw_dense_network(rng)
        image = rng.integers(0, 9, size=net.input_shape).astype(np.float64)
        box, images = draws(net, *box_bounds(image, 1, None), kind, 16, rng)
        forward = phase_forward(net, ibp_trace(net, box))
        if forward is not None:
            assert_bit_identical(net, forward, images)
            used += 1
    assert used >= 10



def dense_boundary_network(rng):
    """A raw first QDense whose output reaches a boundary: a BatchNorm
    folds it to the signs that a quantized QDense reads.  The batch norm's
    thresholds lie in and around the raw sums' range, so some phases are
    fixed over a box and some free."""
    hidden = 8
    gamma = rng.choice([-1.0, 1.0], size=hidden) * rng.uniform(0.5, 2.0, size=hidden)
    layers = (
        Flatten(),
        QDense(hidden, rng.choice([-1.0, 1.0], size=(9, hidden)), quantize_input=False),
        BatchNorm(gamma=gamma, beta=rng.uniform(-1.0, 1.0, size=hidden),
                  moving_mean=rng.integers(-8, 9, size=hidden).astype(np.float64),
                  moving_variance=rng.uniform(0.5, 4.0, size=hidden)),
        QDense(3, rng.choice([-1.0, 1.0], size=(hidden, 3)), quantize_input=True),
    )
    return Network(input_shape=(3, 3, 1), layers=layers, num_classes=3)


@pytest.mark.parametrize("kind", ["grid", "uniform"])
def test_network_whose_raw_qdense_reaches_a_boundary(kind):
    used = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        net = dense_boundary_network(rng)
        image = rng.integers(0, 5, size=net.input_shape).astype(np.float64)
        box, images = draws(net, *box_bounds(image, 1, None), kind, 16, rng)
        forward = phase_forward(net, ibp_trace(net, box))
        if forward is not None:
            assert_bit_identical(net, forward, images)
            used += 1
    assert used >= 75

def test_a_network_without_a_boundary_has_nothing_to_skip():
    w = np.random.default_rng(0).choice([-1.0, 1.0], size=(4, 3))
    net = Network((2, 2, 1), (Flatten(), QDense(3, w, quantize_input=False)), 3)
    prop = make_property(np.ones((2, 2, 1)), epsilon=1, label=0, num_outputs=3)
    box = sampling_box(net, *integer_grid_bounds(prop))
    assert phase_forward(net, ibp_trace(net, box)) is None


def test_stable_phases_rule():
    box = IntervalTensor(np.array([0.0, -1.0, -2.0, -0.5]), np.array([1.0, 0.0, -1.0, -0.0]))
    # sign(0) = +1, so a box that ends at -0.0 or 0.0 may take either sign
    assert stable_phases(box).tolist() == [1, 0, -1, 0]
    assert stable_phases(box).dtype == np.int8
