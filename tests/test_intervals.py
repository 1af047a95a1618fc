"""Interval propagation and threshold folding against exact inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnnverify.arch import build_arch_b, random_tiny_network, with_random_weights
from bnnverify.errors import ShapeMismatchError
from bnnverify.layers import (
    BatchNorm,
    Flatten,
    MaxPool,
    QConv,
    QDense,
    layer_forward,
    sign_quantize,
)
from bnnverify.network import Network, network_forward, network_forward_batch
from bnnverify.vnnlib import make_property
from bnnverify.verify import (
    IntervalTensor,
    brute_force_verify,
    fold_bn_sign,
    ibp_propagate,
    ibp_trace,
    verify_ibp,
)


def dense_net(weights, quantize=False):
    w = np.asarray(weights, dtype=float)
    side = int(round(w.shape[0] ** 0.5))
    if side * side == w.shape[0]:
        shape = (side, side, 1)
    else:
        shape = (1, w.shape[0], 1)
    return Network(
        input_shape=shape,
        layers=(Flatten(), QDense(w.shape[1], w, quantize_input=quantize)),
        num_classes=w.shape[1],
    )


class TestIntervalTensor:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError, match="lo > hi"):
            IntervalTensor(np.array([1.0]), np.array([0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            IntervalTensor(np.zeros(3), np.zeros(4))

    def test_point_and_width(self):
        box = IntervalTensor.point(np.array([3.0, -1.0]))
        assert np.array_equal(box.width(), [0.0, 0.0])
        assert box.contains([3.0, -1.0])
        assert not box.contains([3.0, -1.5])

    def test_bounds_are_frozen(self):
        box = IntervalTensor(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            box.lo[0] = 5.0


    def test_trace_boxes_are_read_only_float64(self):
        net = random_tiny_network(np.random.default_rng(5), channels=2)
        lo = np.random.default_rng(6).integers(0, 9, size=net.input_shape) - 1.0
        for box in ibp_trace(net, IntervalTensor(lo, lo + 2.0)):
            for bound in (box.lo, box.hi):
                assert bound.dtype == np.float64
                assert not bound.flags.writeable


class TestIbpPropagate:
    def test_point_box_equals_forward(self):
        # zero-width boxes must propagate to the exact logits, bit for bit
        for seed in range(12):
            rng = np.random.default_rng(seed)
            net = random_tiny_network(rng)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            out = ibp_propagate(net, IntervalTensor.point(img))
            ref = network_forward(net, img)
            assert np.array_equal(out.lo, ref)
            assert np.array_equal(out.hi, ref)

    def test_single_dense_passthrough(self):
        # fan-in one, +1 weight: the input interval rides through unchanged
        net = dense_net([[1.0]])
        box = IntervalTensor(np.full((1, 1, 1), 14.0), np.full((1, 1, 1), 34.0))
        out = ibp_propagate(net, box)
        assert out.lo[0] == 14.0
        assert out.hi[0] == 34.0

    def test_sign_interval_rules(self):
        net = dense_net([[1.0]], quantize=True)
        cases = [
            ((-5.0, -0.25), (-1.0, -1.0)),  # hi < 0: stuck negative
            ((0.0, 3.0), (1.0, 1.0)),  # lo >= 0: stuck positive (sign(0)=+1)
            ((-1.0, 1.0), (-1.0, 1.0)),  # straddle: both reachable
            ((-2.0, 0.0), (-1.0, 1.0)),  # hi == 0 still reaches +1
        ]
        for (lo, hi), want in cases:
            out = ibp_propagate(
                net,
                IntervalTensor(np.full((1, 1, 1), lo), np.full((1, 1, 1), hi)),
            )
            assert (out.lo[0], out.hi[0]) == want

    def test_negative_weight_swaps_bounds(self):
        net = dense_net([[-1.0]])
        out = ibp_propagate(
            net, IntervalTensor(np.full((1, 1, 1), 2.0), np.full((1, 1, 1), 7.0))
        )
        assert (out.lo[0], out.hi[0]) == (-7.0, -2.0)

    def test_negative_gamma_batchnorm_swaps(self):
        bn = BatchNorm(
            gamma=np.array([-2.0]),
            beta=np.array([1.0]),
            moving_mean=np.array([0.0]),
            moving_variance=np.array([1.0]),
            eps=0.0,
        )
        net = Network(
            input_shape=(1, 1, 1),
            layers=(
                QConv(1, 1, 1, np.ones((1, 1, 1, 1)), quantize_input=False),
                bn,
                Flatten(),
                QDense(1, np.array([[1.0]]), quantize_input=False),
            ),
            num_classes=1,
        )
        box = IntervalTensor(np.zeros((1, 1, 1)), np.ones((1, 1, 1)))
        out = ibp_propagate(net, box)
        # bn(0) = 1, bn(1) = -1: slope is negative so bounds swap
        assert (out.lo[0], out.hi[0]) == (-1.0, 1.0)

    def test_monte_carlo_soundness(self):
        # sampled logits may never escape the propagated bounds
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            net = random_tiny_network(rng)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            eps = float(rng.integers(1, 3))
            lo = img - eps
            hi = img + eps
            out = ibp_propagate(net, IntervalTensor(lo, hi))
            n = 2000
            cont = rng.uniform(lo, hi, size=(n,) + net.input_shape)
            grid = rng.integers(-int(eps), int(eps) + 1, size=(n,) + net.input_shape)
            samples = np.concatenate([cont, img[None] + grid])
            logits = network_forward_batch(net, samples)
            assert np.all(logits >= out.lo)
            assert np.all(logits <= out.hi)

    def test_bounds_monotone_under_shrinking(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            net = random_tiny_network(rng)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            outer = ibp_propagate(net, IntervalTensor(img - 3, img + 3))
            inner = ibp_propagate(net, IntervalTensor(img - 1, img + 2))
            assert np.all(inner.lo >= outer.lo)
            assert np.all(inner.hi <= outer.hi)

    def test_trace_length_and_shapes(self):
        rng = np.random.default_rng(0)
        net = random_tiny_network(rng)
        img = rng.integers(0, 9, size=net.input_shape).astype(float)
        trace = ibp_trace(net, IntervalTensor.point(img))
        assert len(trace) == len(net.layers) + 1
        shapes = net.layer_shapes()
        for box, shape in zip(trace, shapes):
            assert box.shape == shape

    def test_shape_mismatch_raises(self):
        net = dense_net([[1.0]])
        with pytest.raises(ShapeMismatchError):
            ibp_propagate(net, IntervalTensor(np.zeros((2, 2, 1)), np.ones((2, 2, 1))))

    def test_maxpool_interval_is_entrywise(self):
        net = Network(
            input_shape=(2, 2, 1),
            layers=(
                QConv(1, 1, 1, np.ones((1, 1, 1, 1)), quantize_input=False),
                MaxPool(),
                Flatten(),
                QDense(1, np.array([[1.0]]), quantize_input=False),
            ),
            num_classes=1,
        )
        lo = np.array([[[0.0], [2.0]], [[1.0], [-1.0]]])
        hi = np.array([[[5.0], [2.5]], [[1.5], [0.0]]])
        out = ibp_propagate(net, IntervalTensor(lo, hi))
        assert (out.lo[0], out.hi[0]) == (2.0, 5.0)


def off_grid_box(rng, shape, kind, pixel_max):
    """Box around a random non-integer image: zero-width, one ulp wide, or
    up to two units wide."""
    lo = rng.uniform(0.0, pixel_max, size=shape)
    if kind == "point":
        hi = lo.copy()
    elif kind == "ulp":
        hi = np.nextafter(lo, np.inf)
    else:
        hi = lo + rng.uniform(0.0, 2.0, size=shape)
    return IntervalTensor(lo, hi)


def points_in(rng, box, n):
    """Both corners plus uniform points of the box, stacked on axis 0."""
    inner = rng.uniform(box.lo, box.hi, size=(n,) + box.shape)
    inner = np.clip(inner, box.lo, box.hi)
    return np.concatenate([box.lo[None], box.hi[None], inner])


def assert_trace_contains(net, trace, points):
    acts = points
    for i, layer in enumerate(net.layers):
        acts = layer_forward(acts, layer, i)
        box = trace[i + 1]
        outside = np.count_nonzero((acts < box.lo) | (acts > box.hi))
        assert outside == 0, f"layer {i}: {outside} of {acts.size} outside"


BOX_KINDS = st.sampled_from(["point", "ulp", "wide"])


@pytest.fixture(scope="module")
def arch_b():
    return with_random_weights(build_arch_b(48, 48), np.random.default_rng(11))


class TestFloatSoundness:
    """Bounds must contain the float64 forward of every point in the box,
    also when the box has non-integer bounds; rounding must not leak."""

    @settings(max_examples=60)
    @given(net_seed=st.integers(0, 2**32 - 1), box_seed=st.integers(0, 2**32 - 1),
           kind=BOX_KINDS)
    def test_tiny_networks(self, net_seed, box_seed, kind):
        net = random_tiny_network(np.random.default_rng(net_seed), channels=3)
        rng = np.random.default_rng(box_seed)
        box = off_grid_box(rng, net.input_shape, kind, 8.0)
        assert_trace_contains(net, ibp_trace(net, box), points_in(rng, box, 64))

    @settings(max_examples=8)
    @given(box_seed=st.integers(0, 2**32 - 1), kind=BOX_KINDS)
    def test_arch_b(self, arch_b, box_seed, kind):
        rng = np.random.default_rng(box_seed)
        box = off_grid_box(rng, arch_b.input_shape, kind, 255.0)
        assert_trace_contains(arch_b, ibp_trace(arch_b, box), points_in(rng, box, 6))


class TestVerifyIbp:
    def test_point_query_verified(self):
        net = dense_net([[1.0, -1.0]])
        img = np.full((1, 1, 1), 3.0)
        prop = make_property(img, epsilon=0, label=0, num_outputs=2)
        v = verify_ibp(net, prop)
        assert v.status == "verified"
        assert v.nodes == 1
        assert v.witness is None

    def test_tie_stays_unknown_and_brute_falsifies(self):
        # identical weight columns tie every logit pair
        net = dense_net([[1.0, 1.0]])
        img = np.full((1, 1, 1), 3.0)
        prop = make_property(img, epsilon=0, label=0, num_outputs=2)
        assert verify_ibp(net, prop).status == "unknown"
        v = brute_force_verify(net, prop)
        assert v.status == "falsified"
        assert v.witness.input_values == (3.0,)

    def test_verified_agrees_with_oracle(self):
        verified = 0
        for seed in range(40):
            rng = np.random.default_rng(400 + seed)
            net = random_tiny_network(rng, max_side=3)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            label = int(np.argmax(network_forward(net, img)))
            prop = make_property(
                img, epsilon=1, label=label, num_outputs=net.num_classes
            )
            if verify_ibp(net, prop).status == "verified":
                verified += 1
                assert brute_force_verify(net, prop).status == "verified"
        assert verified > 0  # the sweep must actually exercise the claim

    def test_shape_mismatch(self):
        net = dense_net([[1.0, -1.0]])
        prop = make_property(np.zeros((2, 2, 1)), epsilon=0, label=0, num_outputs=2)
        with pytest.raises(ShapeMismatchError):
            verify_ibp(net, prop)


class TestFoldBnSign:
    def test_identity_bn_thresholds_at_zero(self):
        bn = BatchNorm(
            gamma=np.array([1.0]),
            beta=np.array([0.0]),
            moving_mean=np.array([0.0]),
            moving_variance=np.array([1.0]),
            eps=0.0,
        )
        fold = fold_bn_sign(bn)
        assert fold.direction[0] == 1
        assert fold.threshold[0] == 0.0
        assert np.array_equal(fold.apply(np.array([0.0])), [1.0])  # sign(0) = +1
        assert np.array_equal(fold.apply(np.array([-1e-300])), [-1.0])

    def test_negative_slope_flips_direction(self):
        bn = BatchNorm(
            gamma=np.array([-1.0]),
            beta=np.array([0.0]),
            moving_mean=np.array([5.0]),
            moving_variance=np.array([1.0]),
            eps=0.0,
        )
        fold = fold_bn_sign(bn)
        assert fold.direction[0] == -1
        assert fold.threshold[0] == 5.0
        assert np.array_equal(fold.apply(np.array([5.0])), [1.0])
        assert np.array_equal(fold.apply(np.array([np.nextafter(5.0, 6.0)])), [-1.0])

    def test_zero_gamma_constant(self):
        bn = BatchNorm(
            gamma=np.array([0.0, 0.0, 0.0]),
            beta=np.array([2.0, -0.5, 0.0]),
            moving_mean=np.zeros(3),
            moving_variance=np.ones(3),
        )
        fold = fold_bn_sign(bn)
        assert np.array_equal(fold.direction, [0, 0, 0])
        x = np.array([[7.0, 7.0, 7.0], [-7.0, -7.0, -7.0]])
        assert np.array_equal(fold.apply(x), [[1.0, -1.0, 1.0], [1.0, -1.0, 1.0]])

    def test_matches_composition_exactly(self):
        # the rule must agree with sign(batchnorm(x)) on every probed float,
        # including the threshold itself and its immediate neighbours
        rng = np.random.default_rng(5)
        for _ in range(120):
            c = int(rng.integers(1, 5))
            gamma = np.where(rng.random(c) < 0.15, 0.0, rng.normal(0, 2, c))
            bn = BatchNorm(
                gamma=gamma,
                beta=rng.normal(0, 3, c),
                moving_mean=rng.normal(0, 5, c),
                moving_variance=np.abs(rng.normal(0, 4, c)),
                eps=float(np.float32(1e-3)),
            )
            fold = fold_bn_sign(bn)
            base = np.where(np.isnan(fold.threshold), 0.0, fold.threshold)
            xs = np.concatenate(
                [
                    rng.normal(0, 10, (60, c)),
                    rng.integers(-30, 31, (30, c)).astype(float),
                    base[None, :],
                    np.nextafter(base, np.inf)[None, :],
                    np.nextafter(base, -np.inf)[None, :],
                ]
            )
            want = sign_quantize(layer_forward(xs, bn))
            assert np.array_equal(fold.apply(xs), want)

    def test_apply_channel_mismatch(self):
        bn = BatchNorm(
            gamma=np.ones(2),
            beta=np.zeros(2),
            moving_mean=np.zeros(2),
            moving_variance=np.ones(2),
        )
        with pytest.raises(ShapeMismatchError):
            fold_bn_sign(bn).apply(np.zeros((4, 3)))
