import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from bnnverify.arch import (
    build_arch_a,
    build_arch_b,
    build_arch_xnor,
    random_tiny_network,
    with_random_weights,
)
from bnnverify.errors import InvalidModelError, ShapeMismatchError
from bnnverify.layers import (
    BatchNorm,
    MaxPool,
    QConv,
    QDense,
    conv_windows,
    layer_forward,
    output_shape,
    sign_quantize,
)

ARCHS = {"A": (build_arch_a, 64), "B": (build_arch_b, 48), "XNOR": (build_arch_xnor, 30)}


def reference_conv(image, weights, quantize_input):
    """Naive six-loop valid cross-correlation; the ground truth for qconv."""
    if quantize_input:
        image = np.where(image >= 0, 1.0, -1.0)
    h, w, cin = image.shape
    kh, kw, cin2, cout = weights.shape
    assert cin == cin2
    out = np.zeros((h - kh + 1, w - kw + 1, cout))
    for r in range(h - kh + 1):
        for c in range(w - kw + 1):
            for o in range(cout):
                acc = 0.0
                for i in range(kh):
                    for j in range(kw):
                        for ch in range(cin):
                            acc += image[r + i, c + j, ch] * weights[i, j, ch, o]
                out[r, c, o] = acc
    return out


class TestSignQuantize:
    def test_sign_convention(self):
        np.testing.assert_array_equal(
            sign_quantize([-2.5, 0.0, 7.1]), [-1.0, 1.0, 1.0]
        )

    def test_float32_signs_and_negative_zero(self):
        got = sign_quantize(np.array([-0.0, -1e-300, 1e-300, np.inf, -np.inf]))
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, [1.0, -1.0, 1.0, 1.0, -1.0])

    def test_all_zero_maps_to_plus_one(self):
        np.testing.assert_array_equal(sign_quantize(np.zeros((3, 2))), np.ones((3, 2)))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=(5, 4, 2))
        once = sign_quantize(t)
        np.testing.assert_array_equal(sign_quantize(once), once)


class TestQConv:
    def test_all_ones_sum(self):
        layer = QConv(1, 2, 2, np.ones((2, 2, 1, 1)), quantize_input=False)
        out = layer_forward(np.ones((2, 2, 1)), layer)
        np.testing.assert_array_equal(out, [[[4.0]]])

    def test_sign_flip(self):
        layer = QConv(1, 2, 2, -np.ones((2, 2, 1, 1)), quantize_input=False)
        out = layer_forward(np.ones((2, 2, 1)), layer)
        np.testing.assert_array_equal(out, [[[-4.0]]])

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_reference(self, seed, quantize):
        rng = np.random.default_rng(seed)
        image = rng.normal(size=(5, 5, 2)) * 3
        weights = rng.choice([-1.0, 1.0], size=(3, 2, 2, 4))
        layer = QConv(4, 3, 2, weights, quantize_input=quantize)
        got = layer_forward(image, layer)
        want = reference_conv(image, weights, quantize)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(6, 4, 4, 3)).astype(float)
        weights = rng.choice([-1.0, 1.0], size=(2, 2, 3, 5))
        layer = QConv(5, 2, 2, weights, quantize_input=False)
        batched = layer_forward(images, layer)
        for k in range(6):
            np.testing.assert_array_equal(batched[k], layer_forward(images[k], layer))

    def test_channel_mismatch_names_layer(self):
        layer = QConv(1, 2, 2, np.ones((2, 2, 3, 1)), quantize_input=False)
        with pytest.raises(ShapeMismatchError, match="layer 4"):
            layer_forward(np.ones((4, 4, 2)), layer, layer_index=4)

    def test_rejects_non_binary_weights(self):
        with pytest.raises(InvalidModelError, match=r"\+1/-1"):
            QConv(1, 2, 2, np.full((2, 2, 1, 1), 0.5), quantize_input=False)

    def test_integer_sums_bounded_by_fan_in(self):
        rng = np.random.default_rng(11)
        weights = rng.choice([-1.0, 1.0], size=(2, 2, 2, 3))
        layer = QConv(3, 2, 2, weights, quantize_input=True)
        out = layer_forward(rng.normal(size=(5, 5, 2)), layer)
        fan_in = 2 * 2 * 2
        assert np.all(np.abs(out) <= fan_in)
        np.testing.assert_array_equal(out, np.round(out))
        # parity of the sum equals parity of the fan-in
        assert np.all((out - fan_in) % 2 == 0)


class TestConvWindows:
    @pytest.mark.parametrize("shape, kh, kw", [
        ((5, 7, 3), 2, 3),  # odd H and W
        ((4, 4, 2), 1, 1),  # kernel 1
        ((2, 3, 6, 5, 4), 3, 2),  # two leading batch dims
        ((3, 3, 1), 3, 3),  # one window
    ])
    def test_equals_sliding_window_view(self, shape, kh, kw):
        t = np.random.default_rng(0).normal(size=shape)
        for src in (t, t[..., ::-1]):  # contiguous and negatively strided
            got = conv_windows(src, kh, kw)
            want = np.moveaxis(sliding_window_view(src, (kh, kw), axis=(-3, -2)), -3, -1)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ShapeMismatchError):
            conv_windows(np.zeros((2, 5, 1)), 3, 1)


class TestBinaryWeights:
    # rounds to exactly 1.0 in float32, so it must be caught before the cast
    NEAR_ONE = 1.0 + 2.0**-40

    def test_near_one_rejected_before_the_float32_cast(self):
        assert np.float32(self.NEAR_ONE) == 1.0
        w = np.full((2, 2, 1, 1), self.NEAR_ONE)
        with pytest.raises(InvalidModelError, match=r"\+1/-1"):
            QConv(1, 2, 2, w, quantize_input=False)
        with pytest.raises(InvalidModelError, match=r"\+1/-1"):
            QDense(1, w.reshape(4, 1))

    def test_quantized_fan_in_beyond_exact_float32_sums_rejected(self):
        # broadcast views: the shape check must reject them before any copy
        with pytest.raises(InvalidModelError, match="fan-in"):
            QDense(1, np.broadcast_to(1.0, (2**24 + 1, 1)), quantize_input=True)
        with pytest.raises(InvalidModelError, match="fan-in"):
            QConv(1, 1, 1, np.broadcast_to(1.0, (1, 1, 2**24 + 1, 1)),
                  quantize_input=True)

    def test_stored_once_as_private_read_only_float32(self):
        src = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
        layer = QDense(2, src)
        w = layer.weights
        assert w.dtype == np.float32 and w.flags.c_contiguous
        assert not w.flags.writeable and src.flags.writeable
        assert not np.shares_memory(w, src)
        assert [k for k, v in vars(layer).items() if isinstance(v, np.ndarray)] == ["weights"]
        np.testing.assert_array_equal(w, src)


class TestMaxPool:
    def test_window_max(self):
        out = layer_forward(np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1), MaxPool())
        np.testing.assert_array_equal(out, [[[4.0]]])

    def test_odd_trailing_dims_dropped(self):
        out = layer_forward(np.zeros((11, 11, 64)), MaxPool())
        assert out.shape == (5, 5, 64)

    def test_constant_stays_constant(self):
        out = layer_forward(np.full((6, 8, 3), 2.5), MaxPool())
        np.testing.assert_array_equal(out, np.full((3, 4, 3), 2.5))

    def test_spatial_dims_too_small(self):
        with pytest.raises(ShapeMismatchError):
            layer_forward(np.zeros((1, 5, 2)), MaxPool())


class TestBatchNorm:
    def test_identity_parameters(self):
        layer = BatchNorm(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=0.0)
        t = np.arange(12, dtype=float).reshape(2, 2, 3)
        np.testing.assert_allclose(layer_forward(t, layer), t)

    def test_affine_arithmetic(self):
        layer = BatchNorm([2.0], [3.0], [1.0], [1.0], eps=0.0)
        out = layer_forward(np.array([[[5.0]]]), layer)
        np.testing.assert_allclose(out, [[[11.0]]])

    def test_positive_gamma_preserves_order(self):
        rng = np.random.default_rng(5)
        layer = BatchNorm(
            rng.uniform(0.1, 2.0, 4), rng.normal(size=4),
            rng.normal(size=4), rng.uniform(0.5, 2.0, 4),
        )
        x1 = rng.normal(size=(3, 3, 4))
        x2 = x1 + rng.uniform(0.1, 1.0, size=(3, 3, 4))
        assert np.all(layer_forward(x1, layer) < layer_forward(x2, layer))

    def test_caller_keeps_a_writable_array(self):
        variance = np.ones(2)
        BatchNorm(np.ones(2), np.zeros(2), np.zeros(2), variance)
        variance[0] = 3.0
        assert variance[0] == 3.0

    def test_writes_to_the_base_of_a_view_do_not_reach_the_layer(self):
        base = np.ones((2, 3))
        layer = BatchNorm(np.ones(3), np.zeros(3), np.zeros(3), base[0])
        base[0, 0] = -5.0
        np.testing.assert_array_equal(layer.moving_variance, np.ones(3))

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidModelError, match="variance"):
            BatchNorm([1.0], [0.0], [0.0], [-0.5])


class TestQDense:
    def test_all_ones_dot(self):
        layer = QDense(4, np.ones((6, 4)), quantize_input=False)
        out = layer_forward(np.ones(6), layer)
        np.testing.assert_array_equal(out, np.full(4, 6.0))

    def test_quantizes_input_first(self):
        layer = QDense(1, np.ones((3, 1)), quantize_input=True)
        out = layer_forward(np.array([-5.0, 0.0, 9.0]), layer)
        np.testing.assert_array_equal(out, [1.0])  # signs are -1, +1, +1

    def test_length_mismatch(self):
        layer = QDense(2, np.ones((3, 2)))
        with pytest.raises(ShapeMismatchError):
            layer_forward(np.ones(4), layer)


def contract_net(name):
    if name in ARCHS:
        build, side = ARCHS[name]
        return with_random_weights(build(side, side), np.random.default_rng(0))
    return random_tiny_network(np.random.default_rng(int(name[4:])), channels=2)


def malformed_shapes(layer, shape):
    """Trailing shapes one rank short, with one channel too many, and with
    a spatial size one below the kernel (or the 2x2 pool)."""
    shapes = [shape[1:], shape[:-1] + (shape[-1] + 1,)]
    if len(shape) == 3:
        kh, kw = (layer.kernel_h, layer.kernel_w) if isinstance(layer, QConv) else (2, 2)
        shapes += [(kh - 1,) + shape[1:], (shape[0], kw - 1, shape[2])]
    return shapes


def raises_shape_mismatch(fn):
    try:
        fn()
    except ShapeMismatchError:
        return True
    return False


@pytest.mark.parametrize("name", [f"tiny{s}" for s in range(8)] + list(ARCHS))
def test_layer_forward_honours_output_shape(name):
    net = contract_net(name)
    rng = np.random.default_rng(1)
    rejected = 0
    for layer, shape in zip(net.layers, net.layer_shapes()):
        for batch in (0, 1, 3):
            t = rng.integers(-8, 9, size=(batch,) + shape).astype(float)
            out = layer_forward(t, layer)
            assert out.shape == (batch,) + output_shape(layer, shape)
        for bad in malformed_shapes(layer, shape):
            want = raises_shape_mismatch(lambda: output_shape(layer, bad))
            # a leading axis in front of a rank-short shape would read as
            # one of its trailing dims, so that case runs unbatched only
            leads = [()] if len(bad) < len(shape) else [(), (0,), (3,)]
            for lead in leads:
                got = raises_shape_mismatch(
                    lambda: layer_forward(np.zeros(lead + bad), layer))
                assert got == want, (type(layer).__name__, lead + bad)
            rejected += want
    assert rejected > 0

    class Unknown:
        pass

    with pytest.raises(TypeError, match="unknown layer type"):
        output_shape(Unknown(), net.input_shape)
    with pytest.raises(TypeError, match="unknown layer type"):
        layer_forward(np.zeros(net.input_shape), Unknown())


def equality_cases():
    """Each array-holding layer, and one variant per field that differs
    from it in that field alone."""
    w4 = np.ones((2, 2, 1, 3))
    w4b = w4.copy()
    w4b[0, 0, 0, 0] = -1.0
    conv = dict(out_channels=3, kernel_h=2, kernel_w=2, weights=w4, quantize_input=True)
    w2 = np.ones((4, 2))
    w2b = -w2
    dense = dict(out_features=2, weights=w2, quantize_input=True)
    v = np.array([1.0, 2.0])
    norm = dict(gamma=v, beta=v, moving_mean=v, moving_variance=v, eps=1e-3)
    return [
        (QConv, conv, [dict(weights=w4b), dict(quantize_input=False),
                       dict(out_channels=2, weights=w4[..., :2]),
                       dict(kernel_h=1, weights=w4[:1]), dict(kernel_w=1, weights=w4[:, :1])]),
        (QDense, dense, [dict(weights=w2b), dict(quantize_input=False),
                         dict(out_features=1, weights=w2[:, :1])]),
        (BatchNorm, norm, [dict(gamma=v + 1), dict(beta=v + 1), dict(moving_mean=v + 1),
                           dict(moving_variance=v + 1), dict(eps=1e-5)]),
    ]


@pytest.mark.parametrize("cls,base,variants", equality_cases(),
                         ids=["QConv", "QDense", "BatchNorm"])
def test_layer_equality_is_by_value_of_every_field(cls, base, variants):
    layer = cls(**base)
    copy = cls(**{k: np.copy(v) if isinstance(v, np.ndarray) else v
                  for k, v in base.items()})
    assert layer == copy and not (layer != copy)
    for change in variants:
        other = cls(**{**base, **change})
        assert layer != other and other != layer, change
    assert layer.__eq__(object()) is NotImplemented
    assert layer != MaxPool() and layer != "layer"
    with pytest.raises(TypeError, match="unhashable"):
        hash(layer)
