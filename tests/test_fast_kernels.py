"""The float32 im2col contraction, centre/radius interval bounds and the
strided max-pool against the kernels they replaced.

The oracles below are the float64 einsum/matmul forward of a ±1 layer,
the four-contraction bounds (lo @ W+ + hi @ W-, hi @ W+ + lo @ W-) and
the reshape-max pool; they live only here.  On integer inputs and boxes
every partial sum is exact in float64, and after a sign every partial sum
is an integer within the fan-in, exact in float32 too, so the package
must agree with them value for value, not within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from bnnverify.arch import (
    build_arch_a,
    build_arch_b,
    build_arch_xnor,
    random_tiny_network,
    with_random_weights,
)
from bnnverify.layers import (
    BatchNorm,
    MaxPool,
    QConv,
    QDense,
    layer_forward,
)
from bnnverify.network import network_forward
from bnnverify.verify import IntervalTensor, ibp_trace

ARCHS = {"A": (build_arch_a, 64), "B": (build_arch_b, 48), "XNOR": (build_arch_xnor, 30)}
SEEDS = st.integers(0, 2**32 - 1)


def oracle_maxpool(t):
    h, w, c = t.shape[-3:]
    ho, wo = h // 2, w // 2
    t = t[..., : 2 * ho, : 2 * wo, :]
    return t.reshape(t.shape[:-3] + (ho, 2, wo, 2, c)).max(axis=(-2, -4))


def oracle_conv(t, layer, weights):
    windows = sliding_window_view(t, (layer.kernel_h, layer.kernel_w), axis=(-3, -2))
    return np.einsum("...cij,ijco->...o", windows, weights, optimize=True)


def oracle_sign(t):
    return np.where(t >= 0, 1.0, -1.0)


def oracle_linear(t, layer):
    """float64 forward of a QConv or QDense."""
    w = layer.weights.astype(np.float64)
    if layer.quantize_input:
        t = oracle_sign(t)
    if isinstance(layer, QConv):
        return oracle_conv(t, layer, w)
    return t @ w


def oracle_linear_bounds(lo, hi, layer):
    if layer.quantize_input:
        lo, hi = oracle_sign(lo), oracle_sign(hi)
    w = layer.weights.astype(np.float64)
    wpos = np.maximum(w, 0.0)
    wneg = np.minimum(w, 0.0)
    if isinstance(layer, QConv):
        return (
            oracle_conv(lo, layer, wpos) + oracle_conv(hi, layer, wneg),
            oracle_conv(hi, layer, wpos) + oracle_conv(lo, layer, wneg),
        )
    return lo @ wpos + hi @ wneg, hi @ wpos + lo @ wneg


def oracle_trace(net, lo, hi):
    """(lo, hi) before each layer plus the logit bounds, like ibp_trace."""
    trace = [(lo, hi)]
    for layer in net.layers:
        if isinstance(layer, (QConv, QDense)):
            lo, hi = oracle_linear_bounds(lo, hi, layer)
        elif isinstance(layer, MaxPool):
            lo, hi = oracle_maxpool(lo), oracle_maxpool(hi)
        elif isinstance(layer, BatchNorm):
            a, b = layer_forward(lo, layer), layer_forward(hi, layer)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
        else:
            lo, hi = lo.reshape(-1), hi.reshape(-1)
        trace.append((lo, hi))
    return trace


def integer_box(rng, shape, width, sparse, pixel_max):
    """Integer box of the given width around a random image; a sparse box
    keeps most pixels at zero width."""
    img = rng.integers(0, pixel_max + 1, size=shape).astype(float)
    lo = img - rng.integers(0, width + 1, size=shape)
    hi = lo + width
    if sparse:
        free = rng.random(shape) < 0.02
        lo, hi = np.where(free, lo, img), np.where(free, hi, img)
    return IntervalTensor(lo, hi)


def assert_trace_matches_oracle(net, box):
    trace = ibp_trace(net, box)
    oracle = oracle_trace(net, box.lo, box.hi)
    assert len(trace) == len(oracle)
    for i, (got, (lo, hi)) in enumerate(zip(trace, oracle)):
        assert np.array_equal(got.lo, lo), f"lower bound differs before layer {i}"
        assert np.array_equal(got.hi, hi), f"upper bound differs before layer {i}"


@pytest.fixture(scope="module")
def arch_nets():
    rng = np.random.default_rng(3)
    return {
        name: with_random_weights(build(side, side), rng)
        for name, (build, side) in ARCHS.items()
    }


@settings(max_examples=80)
@given(
    net_seed=SEEDS,
    channels=st.integers(1, 3),
    box_seed=SEEDS,
    width=st.integers(0, 15),
    sparse=st.booleans(),
)
def test_tiny_trace_matches_oracle(net_seed, channels, box_seed, width, sparse):
    net = random_tiny_network(np.random.default_rng(net_seed), channels=channels)
    rng = np.random.default_rng(box_seed)
    assert_trace_matches_oracle(net, integer_box(rng, net.input_shape, width, sparse, 8))


@pytest.mark.parametrize("arch", ARCHS)
@settings(max_examples=8)
@given(box_seed=SEEDS, width=st.integers(0, 15), sparse=st.booleans())
def test_arch_trace_matches_oracle(arch_nets, arch, box_seed, width, sparse):
    net = arch_nets[arch]
    rng = np.random.default_rng(box_seed)
    assert_trace_matches_oracle(net, integer_box(rng, net.input_shape, width, sparse, 255))


@settings(max_examples=60)
@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    h=st.integers(2, 9),
    w=st.integers(2, 9),
    c=st.integers(1, 4),
    seed=SEEDS,
    ties=st.booleans(),
)
def test_maxpool_matches_oracle(lead, h, w, c, seed, ties):
    t = np.random.default_rng(seed).normal(0.0, 3.0, size=tuple(lead) + (h, w, c))
    if ties:
        t = np.round(t)
    got = layer_forward(t, MaxPool())
    assert got.shape == tuple(lead) + (h // 2, w // 2, c)
    assert np.array_equal(got, oracle_maxpool(t))


def assert_point_box_is_forward(net, img):
    out = ibp_trace(net, IntervalTensor.point(img))[-1]
    logits = network_forward(net, img)
    assert np.array_equal(out.lo, logits)
    assert np.array_equal(out.hi, logits)


@settings(max_examples=40)
@given(net_seed=SEEDS, img_seed=SEEDS)
def test_tiny_point_box_is_forward(net_seed, img_seed):
    net = random_tiny_network(np.random.default_rng(net_seed), channels=3)
    img = np.random.default_rng(img_seed).integers(0, 9, size=net.input_shape)
    assert_point_box_is_forward(net, img.astype(float))


@pytest.mark.parametrize("arch", ARCHS)
@settings(max_examples=4)
@given(img_seed=SEEDS)
def test_arch_point_box_is_forward(arch_nets, arch, img_seed):
    net = arch_nets[arch]
    img = np.random.default_rng(img_seed).integers(0, 256, size=net.input_shape)
    assert_point_box_is_forward(net, img.astype(float))


def arbitrary_floats(rng, shape):
    """Finite float64 of every magnitude, subnormals and signed zeros
    included."""
    t = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    zero = rng.random(shape) < 0.1
    t[zero] = np.copysign(0.0, t[zero])
    return t


def assert_linear_layers_match_oracle(net, rng, batch):
    """Every QConv/QDense equals the float64 oracle bit for bit: on integer
    inputs for every layer, and on arbitrary finite floats for layers that
    quantize their input."""
    for layer, shape in zip(net.layers, net.layer_shapes()):
        if not isinstance(layer, (QConv, QDense)):
            continue
        size = (batch,) + shape
        inputs = [rng.integers(-300, 301, size=size).astype(np.float64)]
        if layer.quantize_input:
            inputs.append(arbitrary_floats(rng, size))
        for t in inputs:
            got = layer_forward(t, layer)
            assert got.dtype == np.float64
            assert np.array_equal(got, oracle_linear(t, layer))


@settings(max_examples=60)
@given(net_seed=SEEDS, channels=st.integers(1, 3), seed=SEEDS, batch=st.integers(0, 3))
def test_tiny_linear_layers_match_float64_oracle(net_seed, channels, seed, batch):
    net = random_tiny_network(np.random.default_rng(net_seed), channels=channels)
    assert_linear_layers_match_oracle(net, np.random.default_rng(seed), batch)


@pytest.mark.parametrize("arch", ARCHS)
@settings(max_examples=3)
@given(seed=SEEDS)
def test_arch_linear_layers_match_float64_oracle(arch_nets, arch, seed):
    assert_linear_layers_match_oracle(arch_nets[arch], np.random.default_rng(seed), 2)
