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
from bnnverify.errors import InvalidModelError, ShapeMismatchError
from bnnverify.layers import BatchNorm, Flatten, QConv, QDense, layer_forward
from bnnverify.network import (
    BATCH_BYTES,
    Network,
    count_params,
    flatten_image,
    image_from_flat,
    images_per_batch,
    network_forward,
    network_forward_batch,
    predict,
)


def single_dense_net(n=6, classes=4):
    layers = (Flatten(), QDense(np.ones((n, classes)), quantize_input=False))
    return Network(input_shape=(1, n // 2, 2), layers=layers)


def test_one_layer_all_ones():
    net = single_dense_net(n=6)
    logits = network_forward(net, np.ones((1, 3, 2)))
    np.testing.assert_array_equal(logits, np.full(4, 6.0))


def test_forward_matches_layer_composition():
    rng = np.random.default_rng(42)
    for _ in range(20):
        net = random_tiny_network(rng)
        image = rng.integers(0, 9, size=net.input_shape).astype(float)
        t = image
        for i, layer in enumerate(net.layers):
            t = layer_forward(t, layer, layer_index=i)
        np.testing.assert_array_equal(network_forward(net, image), t)


def test_forward_deterministic():
    rng = np.random.default_rng(1)
    net = random_tiny_network(rng)
    image = rng.integers(0, 9, size=net.input_shape).astype(float)
    a = network_forward(net, image)
    b = network_forward(net, image.copy())
    np.testing.assert_array_equal(a, b)  # bit-identical


def test_batch_forward_matches_single():
    rng = np.random.default_rng(2)
    net = random_tiny_network(rng)
    images = rng.integers(0, 9, size=(7,) + net.input_shape).astype(float)
    batched = network_forward_batch(net, images)
    for k in range(7):
        np.testing.assert_array_equal(batched[k], network_forward(net, images[k]))


def test_permuting_output_rows_permutes_logits():
    rng = np.random.default_rng(3)
    net = random_tiny_network(rng, num_classes=4)
    dense = net.layers[-1]
    w = dense.weights.copy()
    w[:, [0, 2]] = w[:, [2, 0]]
    swapped = Network(
        net.input_shape,
        net.layers[:-1] + (QDense(w, dense.quantize_input),),
    )
    image = rng.integers(0, 9, size=net.input_shape).astype(float)
    base = network_forward(net, image)
    perm = network_forward(swapped, image)
    np.testing.assert_array_equal(perm[[0, 2]], base[[2, 0]])
    np.testing.assert_array_equal(perm[[1, 3]], base[[1, 3]])


def test_predict_tie_breaks_to_lowest_index():
    # columns sum to [-3, 5, 5, 5] on an all-ones input: tie at the top
    w = np.ones((5, 4))
    w[:, 0] = [-1, -1, -1, -1, 1]
    image = np.ones((1, 5, 1))
    net = Network((1, 5, 1), (Flatten(), QDense(w, quantize_input=False)))
    logits = network_forward(net, image)
    assert logits[1] == logits[2] == logits[3] > logits[0]
    assert predict(net, image) == 1


def test_predict_invariant_under_uniform_shift():
    rng = np.random.default_rng(4)
    for _ in range(10):
        net = random_tiny_network(rng, num_classes=3)
        image = rng.integers(0, 9, size=net.input_shape).astype(float)
        # uniform shift of all logits via an extra output batch norm
        shift = BatchNorm(
            gamma=np.ones(3), beta=np.full(3, 17.5),
            moving_mean=np.zeros(3), moving_variance=np.ones(3), eps=0.0,
        )
        logits = network_forward(net, image)
        shifted = layer_forward(logits, shift)
        np.testing.assert_allclose(shifted, logits + 17.5)
        assert int(np.argmax(shifted)) == predict(net, image)


def test_shape_mismatch_rejected():
    net = single_dense_net()
    with pytest.raises(ShapeMismatchError):
        network_forward(net, np.ones((2, 3, 2)))


def test_final_layer_must_be_dense():
    with pytest.raises(InvalidModelError, match="final layer"):
        Network((2, 2, 1), (Flatten(),))


def test_shapes_are_read_off_the_weights():
    conv = QConv(np.ones((3, 2, 1, 4)), quantize_input=False)
    assert (conv.kernel_h, conv.kernel_w, conv.in_channels, conv.out_channels) == (3, 2, 1, 4)
    dense = QDense(np.ones((16, 5)))
    assert (dense.in_features, dense.out_features) == (16, 5)
    net = Network((4, 3, 1), (conv, Flatten(), dense))
    assert net.num_classes == 5 and net.layer_shapes()[-1] == (5,)


@pytest.mark.parametrize("gamma, variance", [(1.0, 0.0), (1e200, 1e-300)],
                         ids=["zero-variance", "overflowing-slope"])
def test_net_whose_bounds_prove_a_falsifiable_box_is_refused(gamma, variance):
    """X_0 in [1, 2] goes through a raw 1x1 conv into a batch norm with
    mean 1, eps 0 and an infinite slope.  At X_0 = 1 the norm computes
    0 * inf = NaN, whose sign is -1 on both interval corners, so ibp and
    bab would prove label 1; at X_0 = 2 the sign is +1 and label 0 wins."""
    with pytest.raises(InvalidModelError, match="channel 0"):
        Network((1, 1, 1), (QConv(np.ones((1, 1, 1, 1)), quantize_input=False),
                            BatchNorm([gamma], [0.0], [1.0], [variance], eps=0.0),
                            Flatten(), QDense(np.array([[1.0, -1.0]]))))


def test_count_params_total():
    net = single_dense_net(n=6, classes=4)
    pc = count_params(net)
    assert (pc.binary, pc.real, pc.total) == (24, 0, 24)


def test_flatten_roundtrip_and_order():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(4, 5, 3)).astype(float)
    flat = flatten_image(img)
    # channel-last row-major: index (row*W + col)*C + channel
    assert flat[(2 * 5 + 3) * 3 + 1] == img[2, 3, 1]
    np.testing.assert_array_equal(image_from_flat(flat, (4, 5, 3)), img)


@pytest.mark.parametrize("build, side", [(build_arch_a, 64), (build_arch_b, 48),
                                         (build_arch_xnor, 30)], ids=["A", "B", "XNOR"])
def test_forward_at_the_batch_cap_stays_within_the_byte_budget(build, side):
    net = with_random_weights(build(side, side), np.random.default_rng(11))
    cap = images_per_batch(net)
    images = np.random.default_rng(1).integers(
        0, 256, size=(cap,) + net.input_shape).astype(np.float64)
    network_forward_batch(net, images[:1])
    tracemalloc.start()
    try:
        network_forward_batch(net, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the batch itself is live too, allocated before tracing began
    assert images.nbytes + peak <= BATCH_BYTES
