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
from bnnverify.layers import BatchNorm, Flatten, QDense, layer_forward
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
    layers = (Flatten(), QDense(classes, np.ones((n, classes)), quantize_input=False))
    return Network(input_shape=(1, n // 2, 2), layers=layers, num_classes=classes)


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
        net.layers[:-1] + (QDense(dense.out_features, w, dense.quantize_input),),
        net.num_classes,
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
    net = Network((1, 5, 1), (Flatten(), QDense(4, w, quantize_input=False)), 4)
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
        Network((2, 2, 1), (Flatten(),), num_classes=4)


def test_class_count_must_match():
    layers = (Flatten(), QDense(3, np.ones((4, 3)), quantize_input=False))
    with pytest.raises(InvalidModelError, match="expected"):
        Network((2, 2, 1), layers, num_classes=5)


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
