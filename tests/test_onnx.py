import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bnnverify.arch import (
    build_arch_b,
    build_arch_xnor,
    random_tiny_network,
    with_random_weights,
)
from bnnverify.errors import (
    BnnVerifyError,
    InvalidModelError,
    ModelFormatError,
    ShapeMismatchError,
    UnsupportedOpError,
)
from bnnverify.layers import BatchNorm, Flatten, MaxPool, QConv, QDense
from bnnverify.network import Network, network_forward, network_forward_batch
from bnnverify.onnx_io import (
    ONNX_OPSET,
    decode_model,
    parse_model,
    serialize_model,
)
from bnnverify.onnx_io import codec, wire
from bnnverify.onnx_io.wire import decode_varint, encode_varint


def multi_channel_net(seed=0):
    """Conv net with >1 channel before the flatten, so the dense row
    order genuinely differs between the two layouts."""
    rng = np.random.default_rng(seed)
    skeleton = Network(
        input_shape=(6, 6, 3),
        layers=(
            QConv(np.ones((3, 3, 3, 4)), quantize_input=False),
            BatchNorm(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4)),
            QConv(np.ones((2, 2, 4, 5)), quantize_input=True),
            Flatten(),
            QDense(np.ones((3 * 3 * 5, 4)), quantize_input=True),
        ),
    )
    return with_random_weights(skeleton, rng, pixel_max=16)


def pooled_net(seed=0):
    rng = np.random.default_rng(seed)
    skeleton = Network(
        input_shape=(7, 7, 2),
        layers=(
            QConv(np.ones((2, 2, 2, 3)), quantize_input=False),
            MaxPool(),
            BatchNorm(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3)),
            Flatten(),
            QDense(np.ones((3 * 3 * 3, 3)), quantize_input=True),
        ),
    )
    return with_random_weights(skeleton, rng, pixel_max=16)


class TestVarint:
    def test_single_byte(self):
        assert decode_varint(b"\x01") == (1, 1)
        assert decode_varint(b"\x00") == (0, 1)
        assert decode_varint(b"\x7f") == (127, 1)

    def test_two_bytes(self):
        assert decode_varint(b"\x96\x01") == (150, 2)

    def test_offset(self):
        assert decode_varint(b"\xff\x96\x01", 1) == (150, 3)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        values = [0, 1, 127, 128, 300, 2**32 - 1, 2**32, 2**64 - 1]
        values += [int(v) for v in rng.integers(0, 2**62, size=200)]
        for v in values:
            enc = encode_varint(v)
            assert decode_varint(enc) == (v, len(enc))

    def test_truncated(self):
        with pytest.raises(ModelFormatError):
            decode_varint(b"\x80")
        with pytest.raises(ModelFormatError):
            decode_varint(b"")

    def test_overlong(self):
        with pytest.raises(ModelFormatError):
            decode_varint(b"\x80" * 10 + b"\x01")

    def test_ten_byte_maximum_accepted(self):
        enc = encode_varint(2**64 - 1)
        assert len(enc) == 10
        assert decode_varint(enc)[0] == 2**64 - 1

    def test_negative_int64_encoding(self):
        enc = encode_varint(-1)
        value, _ = decode_varint(enc)
        assert wire.to_signed64(value) == -1


class TestRoundTrip:
    def test_structural_xnor(self):
        net = with_random_weights(build_arch_xnor(30, 30),
                                  np.random.default_rng(1))
        assert parse_model(serialize_model(net)) == net

    @pytest.mark.parametrize("seed", range(12))
    def test_structural_tiny(self, seed):
        net = random_tiny_network(np.random.default_rng(seed))
        assert parse_model(serialize_model(net)) == net

    def test_structural_multi_channel(self):
        net = multi_channel_net()
        assert parse_model(serialize_model(net)) == net

    def test_structural_pooled(self):
        net = pooled_net()
        assert parse_model(serialize_model(net)) == net

    def test_behavioral_tiny(self):
        rng = np.random.default_rng(2)
        for seed in range(8):
            net = random_tiny_network(np.random.default_rng(100 + seed))
            back = parse_model(serialize_model(net))
            imgs = rng.integers(0, 9, size=(16,) + net.input_shape).astype(float)
            assert np.array_equal(network_forward_batch(net, imgs),
                                  network_forward_batch(back, imgs))

    def test_serialize_deterministic(self):
        net = multi_channel_net()
        assert serialize_model(net) == serialize_model(net)

    def test_sign_node_per_quantizing_layer(self):
        net = multi_channel_net()
        expected = sum(
            1 for l in net.layers
            if isinstance(l, (QConv, QDense)) and l.quantize_input
        )
        assert serialize_model(net).count(b"Sign") == expected

    def test_records_shape(self):
        net = pooled_net()
        rec = decode_model(serialize_model(net))
        assert rec.opset_version == ONNX_OPSET
        assert rec.ir_version == codec.IR_VERSION
        assert [n.op_type for n in rec.graph.nodes] == [
            "Conv", "MaxPool", "BatchNormalization", "Flatten",
            "Sign", "MatMul",
        ]
        entry = rec.graph.inputs[0]
        assert entry.dims == (1, 2, 7, 7)
        assert rec.graph.outputs[0].dims == (1, 3)

    def test_parse_peak_memory_within_twice_the_weights(self):
        net = with_random_weights(build_arch_b(48, 48),
                                  np.random.default_rng(0))
        weight_bytes = sum(v.nbytes for layer in net.layers
                           for v in vars(layer).values()
                           if isinstance(v, np.ndarray))
        data = serialize_model(net)
        tracemalloc.start()
        try:
            back = parse_model(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == net
        assert peak <= 2 * weight_bytes

    def test_custom_epsilon_preserved(self):
        net = Network(
            input_shape=(2, 2, 1),
            layers=(
                QConv(np.ones((2, 2, 1, 2)), quantize_input=False),
                BatchNorm(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2),
                          eps=0.25),
                Flatten(),
                QDense(np.ones((2, 2)), quantize_input=True),
            ),
        )
        back = parse_model(serialize_model(net))
        bn = [l for l in back.layers if isinstance(l, BatchNorm)][0]
        assert bn.eps == 0.25


# ---------------------------------------------------------------------------
# independent channel-first execution of the serialized bytes


def reference_onnx_forward(model_bytes, image_nchw):
    """Run the decoded graph directly under channel-first semantics.

    Everything here is computed from the records with explicit loops and
    C-order reshapes, sharing no layout code with the codec, so a wrong
    transpose or row permutation in either direction shows up as a logit
    mismatch.  The quantization convention at exactly zero follows the
    training stack (+1), which is how this toolkit interprets the Sign op.
    """
    rec = decode_model(model_bytes)
    graph = rec.graph
    # the records hold float32; compute in float64, as the library does
    inits = {name: np.asarray(t.data, dtype=np.float64)
             for name, t in graph.initializers.items()}
    entry = [vi for vi in graph.inputs if vi.name not in inits][0]
    consumers = {n.inputs[0]: n for n in graph.nodes}
    values = {entry.name: np.asarray(image_nchw, dtype=np.float64)}
    current = entry.name
    target = graph.outputs[0].name
    while current != target:
        node = consumers[current]
        x = values[current]
        op = node.op_type
        if op == "Sign":
            y = np.where(x >= 0.0, 1.0, -1.0)
        elif op == "Conv":
            w = inits[node.inputs[1]]  # (M, C, kh, kw)
            n, c, h, wdt = x.shape
            m, _, kh, kw = w.shape
            y = np.zeros((n, m, h - kh + 1, wdt - kw + 1))
            for oc in range(m):
                for r in range(h - kh + 1):
                    for col in range(wdt - kw + 1):
                        window = x[0, :, r:r + kh, col:col + kw]
                        y[0, oc, r, col] = np.sum(window * w[oc])
        elif op == "MaxPool":
            k = node.attrs["kernel_shape"].ints[0]
            n, c, h, wdt = x.shape
            oh, ow = (h - k) // k + 1, (wdt - k) // k + 1
            y = np.zeros((n, c, oh, ow))
            for ch in range(c):
                for r in range(oh):
                    for col in range(ow):
                        y[0, ch, r, col] = np.max(
                            x[0, ch, r * k:(r + 1) * k, col * k:(col + 1) * k]
                        )
        elif op == "BatchNormalization":
            gamma = inits[node.inputs[1]]
            beta = inits[node.inputs[2]]
            mean = inits[node.inputs[3]]
            var = inits[node.inputs[4]]
            eps = node.attrs["epsilon"].f
            shape = (1, -1) + (1,) * (x.ndim - 2)
            y = (gamma.reshape(shape) * (x - mean.reshape(shape))
                 / np.sqrt(var.reshape(shape) + eps) + beta.reshape(shape))
        elif op == "Flatten":
            y = x.reshape(x.shape[0], -1)
        elif op == "MatMul":
            y = x @ inits[node.inputs[1]]
        else:
            raise AssertionError(f"reference interpreter lacks {op}")
        current = node.outputs[0]
        values[current] = y
    return values[target][0]


class TestAgainstReferenceExecution:
    @pytest.mark.parametrize("seed", range(6))
    def test_tiny_nets(self, seed):
        net = random_tiny_network(np.random.default_rng(40 + seed))
        data = serialize_model(net)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            ours = network_forward(net, img)
            nchw = img.transpose(2, 0, 1)[np.newaxis]
            theirs = reference_onnx_forward(data, nchw)
            assert np.array_equal(ours, theirs)

    def test_multi_channel_permutation(self):
        net = multi_channel_net()
        data = serialize_model(net)
        rng = np.random.default_rng(3)
        for _ in range(6):
            img = rng.integers(0, 17, size=(6, 6, 3)).astype(float)
            ours = network_forward(net, img)
            theirs = reference_onnx_forward(data, img.transpose(2, 0, 1)[None])
            assert np.array_equal(ours, theirs)

    def test_pooled_net(self):
        net = pooled_net()
        data = serialize_model(net)
        rng = np.random.default_rng(4)
        for _ in range(6):
            img = rng.integers(0, 17, size=(7, 7, 2)).astype(float)
            ours = network_forward(net, img)
            theirs = reference_onnx_forward(data, img.transpose(2, 0, 1)[None])
            assert np.array_equal(ours, theirs)

    def test_xnor_small_input(self):
        net = with_random_weights(build_arch_xnor(10, 10),
                                  np.random.default_rng(9))
        data = serialize_model(net)
        img = np.random.default_rng(5).integers(0, 256, size=(10, 10, 3)) \
            .astype(float)
        ours = network_forward(net, img)
        theirs = reference_onnx_forward(data, img.transpose(2, 0, 1)[None])
        assert np.array_equal(ours, theirs)


# ---------------------------------------------------------------------------
# hand-built graphs exercising parser features the serializer never emits


def build_model_bytes(graph_body, opset=ONNX_OPSET):
    model = wire.field_varint(1, codec.IR_VERSION)
    model += wire.field_len(7, graph_body)
    model += wire.field_len(8, wire.field_varint(2, opset))
    return model


def int64_tensor_bytes(name, values):
    arr = np.asarray(values, dtype="<i8")
    body = wire.packed_varints(1, arr.shape)
    body += wire.field_varint(2, codec.TENSOR_INT64)
    body += wire.field_string(8, name)
    body += wire.field_len(9, arr.tobytes())
    return body


def simple_dense_graph(matmul_node, weight_init, extra_inits=()):
    nodes = [
        codec._node_bytes("Flatten", "f", ["input"], ["t0"],
                          attrs=[codec._attr_int_bytes("axis", 1)]),
        matmul_node,
    ]
    graph = b"".join(wire.field_len(1, n) for n in nodes)
    graph += wire.field_string(2, "g")
    graph += wire.field_len(5, weight_init)
    for init in extra_inits:
        graph += wire.field_len(5, init)
    graph += wire.field_len(11, codec._value_info_bytes("input", (1, 1, 2, 2)))
    graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
    return graph


class TestParserFeatures:
    def test_gemm_with_transposed_weight(self):
        w = np.array([[1.0, -1.0, 1.0, -1.0],
                      [-1.0, -1.0, 1.0, 1.0],
                      [1.0, 1.0, 1.0, 1.0]])  # (3, 4) = (out, in)
        gemm = codec._node_bytes(
            "Gemm", "g0", ["t0", "w"], ["out"],
            attrs=[codec._attr_int_bytes("transB", 1)],
        )
        graph = simple_dense_graph(gemm, codec._float_tensor_bytes("w", w))
        net = parse_model(build_model_bytes(graph))
        dense = net.layers[-1]
        assert isinstance(dense, QDense)
        assert np.array_equal(dense.weights, w.T)
        assert dense.quantize_input is False

    def test_gemm_with_nonzero_bias_rejected(self):
        w = np.ones((4, 3))
        bias = codec._float_tensor_bytes("b", np.array([0.0, 1.0, 0.0]))
        gemm = codec._node_bytes("Gemm", "g0", ["t0", "w", "b"], ["out"])
        graph = simple_dense_graph(gemm, codec._float_tensor_bytes("w", w),
                                   extra_inits=[bias])
        with pytest.raises(UnsupportedOpError, match="bias"):
            parse_model(build_model_bytes(graph))

    def test_gemm_with_zero_bias_accepted(self):
        w = np.ones((4, 3))
        bias = codec._float_tensor_bytes("b", np.zeros(3))
        gemm = codec._node_bytes("Gemm", "g0", ["t0", "w", "b"], ["out"])
        graph = simple_dense_graph(gemm, codec._float_tensor_bytes("w", w),
                                   extra_inits=[bias])
        net = parse_model(build_model_bytes(graph))
        assert net.num_classes == 3

    def test_reshape_as_flatten(self):
        w = np.ones((4, 3))
        nodes = [
            codec._node_bytes("Reshape", "r", ["input", "shape"], ["t0"]),
            codec._node_bytes("MatMul", "m", ["t0", "w"], ["out"]),
        ]
        graph = b"".join(wire.field_len(1, n) for n in nodes)
        graph += wire.field_string(2, "g")
        graph += wire.field_len(5, codec._float_tensor_bytes("w", w))
        graph += wire.field_len(5, int64_tensor_bytes("shape", [1, -1]))
        graph += wire.field_len(11, codec._value_info_bytes("input",
                                                            (1, 1, 2, 2)))
        graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
        net = parse_model(build_model_bytes(graph))
        assert isinstance(net.layers[0], Flatten)

    def test_reshape_to_other_shape_rejected(self):
        w = np.ones((4, 3))
        nodes = [
            codec._node_bytes("Reshape", "r", ["input", "shape"], ["t0"]),
            codec._node_bytes("MatMul", "m", ["t0", "w"], ["out"]),
        ]
        graph = b"".join(wire.field_len(1, n) for n in nodes)
        graph += wire.field_string(2, "g")
        graph += wire.field_len(5, codec._float_tensor_bytes("w", w))
        graph += wire.field_len(5, int64_tensor_bytes("shape", [2, 2]))
        graph += wire.field_len(11, codec._value_info_bytes("input",
                                                            (1, 1, 2, 2)))
        graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
        with pytest.raises(UnsupportedOpError):
            parse_model(build_model_bytes(graph))

    def test_weight_as_packed_float_data(self):
        w = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0],
                      [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        payload = np.asarray(w, dtype="<f4").tobytes()
        tensor = wire.packed_varints(1, w.shape)
        tensor += wire.field_varint(2, codec.TENSOR_FLOAT)
        tensor += wire.field_len(4, payload)  # float_data, not raw_data
        tensor += wire.field_string(8, "w")
        matmul = codec._node_bytes("MatMul", "m", ["t0", "w"], ["out"])
        graph = simple_dense_graph(matmul, tensor)
        net = parse_model(build_model_bytes(graph))
        assert np.array_equal(net.layers[-1].weights, w)

    def test_bn_between_flatten_and_dense_is_permuted(self):
        # the serializer never writes this pattern; build it by hand with
        # channel-first parameters and check end-to-end agreement
        rng = np.random.default_rng(17)
        c, h, w = 2, 2, 2
        gamma = rng.uniform(0.5, 1.5, c * h * w).astype(np.float32).astype(float)
        beta = rng.normal(0, 0.5, c * h * w).astype(np.float32).astype(float)
        mean = rng.normal(0, 1, c * h * w).astype(np.float32).astype(float)
        var = rng.uniform(0.5, 2.0, c * h * w).astype(np.float32).astype(float)
        dense = np.where(rng.random((c * h * w, 3)) < 0.5, 1.0, -1.0)
        nodes = [
            codec._node_bytes("Flatten", "f", ["input"], ["t0"],
                              attrs=[codec._attr_int_bytes("axis", 1)]),
            codec._node_bytes(
                "BatchNormalization", "bn",
                ["t0", "bn_g", "bn_b", "bn_m", "bn_v"], ["t1"],
                attrs=[codec._attr_float_bytes("epsilon", 0.001)],
            ),
            codec._node_bytes("Sign", "s", ["t1"], ["t2"]),
            codec._node_bytes("MatMul", "m", ["t2", "w"], ["out"]),
        ]
        graph = b"".join(wire.field_len(1, n) for n in nodes)
        graph += wire.field_string(2, "g")
        for name, vec in (("bn_g", gamma), ("bn_b", beta),
                          ("bn_m", mean), ("bn_v", var)):
            graph += wire.field_len(5, codec._float_tensor_bytes(name, vec))
        graph += wire.field_len(5, codec._float_tensor_bytes("w", dense))
        graph += wire.field_len(11, codec._value_info_bytes("input",
                                                            (1, c, h, w)))
        graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
        data = build_model_bytes(graph)
        net = parse_model(data)
        img = rng.integers(0, 9, size=(h, w, c)).astype(float)
        ours = network_forward(net, img)
        theirs = reference_onnx_forward(data, img.transpose(2, 0, 1)[None])
        assert np.array_equal(ours, theirs)


    def test_symbolic_batch_dimension_read_as_unknown(self):
        dims = wire.field_len(1, wire.field_string(2, "N"))  # dim_param
        dims += b"".join(wire.field_len(1, wire.field_varint(1, d))
                         for d in (1, 2, 2))
        tensor_type = wire.field_varint(1, codec.TENSOR_FLOAT)
        tensor_type += wire.field_len(2, dims)
        info = wire.field_string(1, "input")
        info += wire.field_len(2, wire.field_len(1, tensor_type))
        graph = simple_dense_graph(
            codec._node_bytes("MatMul", "m", ["t0", "w"], ["out"]),
            codec._float_tensor_bytes("w", np.ones((4, 3))),
        ).replace(wire.field_len(11, codec._value_info_bytes(
            "input", (1, 1, 2, 2))), wire.field_len(11, info))
        data = build_model_bytes(graph)
        assert decode_model(data).graph.inputs[0].dims == (None, 1, 2, 2)
        assert parse_model(data).input_shape == (2, 2, 1)


class TestRejections:
    def test_value_name_not_utf8_rejected(self):
        graph = simple_dense_graph(
            codec._node_bytes("MatMul", "m", ["t0", "w"], ["out"]),
            codec._float_tensor_bytes("w", np.ones((4, 3))),
        )
        out_info = codec._value_info_bytes("out", (1, 3))
        graph = graph.replace(out_info, out_info.replace(b"out", b"ou\xff"))
        with pytest.raises(ModelFormatError, match="not valid UTF-8"):
            decode_model(build_model_bytes(graph))

    def test_unsupported_op_named(self):
        net = pooled_net()
        data = serialize_model(net).replace(b"MaxPool", b"Softmax")
        with pytest.raises(UnsupportedOpError, match="Softmax"):
            parse_model(data)

    def test_non_binary_weight_rejected(self):
        w = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        net = Network(
            input_shape=(2, 2, 1),
            layers=(Flatten(), QDense(w, quantize_input=False)),
        )
        data = serialize_model(net)
        one = struct.pack("<f", 1.0)
        two = struct.pack("<f", 2.0)
        assert one in data
        with pytest.raises(InvalidModelError, match=r"'dense1_w'.*outside"):
            parse_model(data.replace(one, two, 1))

    @pytest.mark.parametrize("field, value, channel", [
        ("moving_variance", [1.0, 0.0], "channel 1"),
        ("eps", -1.0, "channel 0"),
        ("gamma", [1.0, np.nan], "channel 1"),
        ("beta", [np.inf, 0.0], "channel 0"),
        ("moving_mean", [0.0, -np.inf], "channel 1"),
        ("moving_variance", [np.nan, 1.0], "channel 0"),
        ("eps", np.inf, "epsilon"),
        ("eps", np.nan, "epsilon"),
    ])
    def test_batch_norm_without_a_finite_slope_rejected(self, field, value, channel):
        # interval bounds spread the NaN of 0 * inf, and a sign reads NaN
        # as a definite phase, so such a channel would give wrong proofs.
        # No such layer can be built, so the file is written with marker
        # values in ``field`` and the bad value patched into its bytes.
        params = dict(gamma=[1.0, 1.0], beta=[0.0, 0.0], moving_mean=[0.0, 0.0],
                      moving_variance=[1.0, 1.0], eps=0.0)
        params[field] = marker = 0.375 if field == "eps" else [1.375, 1.625]
        net = Network(
            input_shape=(1, 1, 1),
            layers=(QConv(np.ones((1, 1, 1, 2)), quantize_input=False),
                    BatchNorm(**params), Flatten(), QDense(np.ones((2, 2)))),
        )
        data = serialize_model(net)
        for old, new in zip(np.ravel(marker), np.ravel(value)):
            old, new = struct.pack("<f", old), struct.pack("<f", new)
            assert data.count(old) == 1
            data = data.replace(old, new)
        with pytest.raises(InvalidModelError, match=f"'bn_1' {channel}"):
            parse_model(data)

    @pytest.mark.parametrize("params, where", [
        (([1.0], [0.0], [0.0], [1e-46], 0.0), "channel 0"),  # variance rounds to 0
        (([1e300], [0.0], [0.0], [1.0], 0.0), "channel 0"),  # gamma rounds to inf
        (([1.0], [0.0], [0.0], [1.0], 1e300), "epsilon"),  # eps rounds to inf
    ])
    def test_batch_norm_without_a_finite_slope_at_float32_not_written(self, params,
                                                                      where):
        # finite slopes in memory, which the file's 32-bit floats lose
        *vectors, eps = params
        net = Network(
            input_shape=(1, 1, 1),
            layers=(QConv(np.ones((1, 1, 1, 1)), quantize_input=False),
                    BatchNorm(*vectors, eps=eps), Flatten(),
                    QDense(np.array([[1.0, -1.0]]))),
        )
        with pytest.raises(InvalidModelError, match=f"'bn_1' {where}"):
            serialize_model(net)

    def test_batch_norm_with_zero_variance_and_positive_eps_accepted(self):
        net = Network(
            input_shape=(1, 1, 1),
            layers=(QConv(np.ones((1, 1, 1, 2)), quantize_input=False),
                    BatchNorm([1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], eps=0.5),
                    Flatten(), QDense(np.ones((2, 2)))),
        )
        assert parse_model(serialize_model(net)) == net

    @pytest.mark.parametrize("kernel,stride", [([3, 3], [3, 3]),
                                               ([2, 2], [1, 1]),
                                               ([1, 1], [1, 1])])
    def test_maxpool_other_than_2x2_stride_2_rejected(self, kernel, stride):
        nodes = [
            codec._node_bytes("MaxPool", "p", ["input"], ["t0"], attrs=[
                codec._attr_ints_bytes("kernel_shape", kernel),
                codec._attr_ints_bytes("strides", stride),
            ]),
            codec._node_bytes("Flatten", "f", ["t0"], ["t1"],
                              attrs=[codec._attr_int_bytes("axis", 1)]),
            codec._node_bytes("MatMul", "m", ["t1", "w"], ["out"]),
        ]
        graph = b"".join(wire.field_len(1, n) for n in nodes)
        graph += wire.field_string(2, "g")
        graph += wire.field_len(5, codec._float_tensor_bytes("w",
                                                             np.ones((4, 3))))
        graph += wire.field_len(11, codec._value_info_bytes("input",
                                                            (1, 1, 6, 6)))
        graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
        with pytest.raises(UnsupportedOpError,
                           match=rf"MaxPool with kernel \[{kernel[0]}, "):
            parse_model(build_model_bytes(graph))

    @pytest.mark.parametrize("first,weight,in_dims,match", [
        ("Conv", (1, 2, 2, 2), (1, 1, 2, 2), "QConv channel mismatch"),
        ("Conv", (1, 1, 3, 3), (1, 1, 2, 2), "QConv input smaller than kernel"),
        ("MaxPool", None, (1, 1, 1, 4), "MaxPool input needs spatial dims"),
    ])
    def test_layer_shape_fault_named_by_output_shape(self, first, weight,
                                                     in_dims, match):
        attrs = []
        if first == "MaxPool":
            attrs = [codec._attr_ints_bytes("kernel_shape", [2, 2]),
                     codec._attr_ints_bytes("strides", [2, 2])]
        nodes = [
            codec._node_bytes(first, "l", ["input"] + ["w"] * bool(weight),
                              ["t0"], attrs=attrs),
            codec._node_bytes("Flatten", "f", ["t0"], ["t1"],
                              attrs=[codec._attr_int_bytes("axis", 1)]),
            codec._node_bytes("MatMul", "m", ["t1", "d"], ["out"]),
        ]
        graph = b"".join(wire.field_len(1, n) for n in nodes)
        graph += wire.field_string(2, "g")
        if weight:
            graph += wire.field_len(5, codec._float_tensor_bytes(
                "w", np.ones(weight)))
        graph += wire.field_len(5, codec._float_tensor_bytes("d",
                                                             np.ones((1, 3))))
        graph += wire.field_len(11, codec._value_info_bytes("input", in_dims))
        graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
        with pytest.raises(ShapeMismatchError, match=f"layer 0: {match}"):
            parse_model(build_model_bytes(graph))

    def test_truncated_model(self):
        data = serialize_model(random_tiny_network(np.random.default_rng(0)))
        with pytest.raises(ModelFormatError):
            parse_model(data[:-3])

    def test_wrong_opset_rejected(self):
        graph = simple_dense_graph(
            codec._node_bytes("MatMul", "m", ["t0", "w"], ["out"]),
            codec._float_tensor_bytes("w", np.ones((4, 3))),
        )
        with pytest.raises(ModelFormatError, match="opset 13"):
            parse_model(build_model_bytes(graph, opset=14))

    def test_missing_opset_rejected(self):
        graph = simple_dense_graph(
            codec._node_bytes("MatMul", "m", ["t0", "w"], ["out"]),
            codec._float_tensor_bytes("w", np.ones((4, 3))),
        )
        model = wire.field_varint(1, codec.IR_VERSION)
        model += wire.field_len(7, graph)
        with pytest.raises(ModelFormatError):
            parse_model(model)

    def test_empty_and_garbage_inputs(self):
        for data in (b"", b"\x00", b"not a model at all", b"\xff" * 64):
            with pytest.raises(BnnVerifyError):
                parse_model(data)

    def test_dangling_weight_reference(self):
        graph = simple_dense_graph(
            codec._node_bytes("MatMul", "m", ["t0", "missing"], ["out"]),
            codec._float_tensor_bytes("w", np.ones((4, 3))),
        )
        with pytest.raises(InvalidModelError, match="missing"):
            parse_model(build_model_bytes(graph))

    def test_trailing_sign_rejected(self):
        nodes = [
            codec._node_bytes("Flatten", "f", ["input"], ["t0"],
                              attrs=[codec._attr_int_bytes("axis", 1)]),
            codec._node_bytes("MatMul", "m", ["t0", "w"], ["t1"]),
            codec._node_bytes("Sign", "s", ["t1"], ["out"]),
        ]
        graph = b"".join(wire.field_len(1, n) for n in nodes)
        graph += wire.field_string(2, "g")
        graph += wire.field_len(5, codec._float_tensor_bytes("w",
                                                             np.ones((4, 3))))
        graph += wire.field_len(11, codec._value_info_bytes("input",
                                                            (1, 1, 2, 2)))
        graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
        with pytest.raises(UnsupportedOpError, match="[Ss]ign"):
            parse_model(build_model_bytes(graph))

    def test_fuzzed_mutations_never_crash(self):
        base = serialize_model(random_tiny_network(np.random.default_rng(1)))
        rng = np.random.default_rng(99)
        outcomes = {"ok": 0, "error": 0}
        for _ in range(250):
            data = bytearray(base)
            kind = rng.integers(0, 4)
            if kind == 0:  # flip a byte
                pos = int(rng.integers(0, len(data)))
                data[pos] = int(rng.integers(0, 256))
            elif kind == 1:  # delete a slice
                start = int(rng.integers(0, len(data)))
                stop = min(len(data), start + int(rng.integers(1, 16)))
                del data[start:stop]
            elif kind == 2:  # insert junk
                pos = int(rng.integers(0, len(data)))
                junk = bytes(rng.integers(0, 256, size=int(rng.integers(1, 8)),
                                          dtype=np.uint8))
                data[pos:pos] = junk
            else:  # truncate
                data = data[:int(rng.integers(0, len(data)))]
            try:
                parse_model(bytes(data))
                outcomes["ok"] += 1
            except BnnVerifyError:
                outcomes["error"] += 1
        assert sum(outcomes.values()) == 250

    def test_fuzzed_random_bytes_never_crash(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            n = int(rng.integers(0, 400))
            data = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
            try:
                parse_model(data)
            except BnnVerifyError:
                pass


# ---------------------------------------------------------------------------
# every per-node check, one node variant at a time

ABSENT = "absent"  # attribute value: leave the chain's own attribute out

# Named initializers every node-variant model carries; unused ones are
# ignored by the parser.
NODE_TENSORS = {
    "w": np.ones((2, 1, 2, 2)),       # Conv weight, (out, in, kh, kw)
    "b": np.zeros(2),                 # zero Conv bias
    "nb": np.array([0.0, 1.0]),       # non-zero Conv bias
    "g": np.ones(1), "bb": np.zeros(1), "m": np.zeros(1), "v": np.ones(1),
    "d4": np.ones((4, 3)),
    "d16": np.ones((16, 3)),
    "d16t": np.ones((3, 16)),         # Gemm weight for transB=1
    "d18": np.ones((18, 3)),
    "gb": np.zeros(3),                # zero Gemm bias
    "ngb": np.array([0.0, 0.0, 1.0]), # non-zero Gemm bias
    "fshape": np.array([1.0, -1.0]),  # Reshape shape of the wrong type
}
NODE_SHAPES = {"shape": [1, -1], "shape2": [-1, -1]}

# Attributes each op gets wherever it appears in a chain.
NODE_BASE_ATTRS = {"MaxPool": {"kernel_shape": [2, 2], "strides": [2, 2]}}

# The shortest chains on a (1, 1, 4, 4) input that end in a dense layer.
# Each entry is "op input...", and the starred node is the one under test.
# Node i writes t<i>; the last node writes "out".
NODE_CHAINS = {
    "Conv": ("Conv* input w", "Flatten t0", "MatMul t1 d18"),
    "MaxPool": ("MaxPool* input", "Flatten t0", "MatMul t1 d4"),
    "BatchNormalization": ("BatchNormalization* input g bb m v",
                           "Flatten t0", "MatMul t1 d16"),
    "Flatten": ("Flatten* input", "MatMul t0 d16"),
    "Reshape": ("Reshape* input shape", "MatMul t0 d16"),
    "MatMul": ("Flatten input", "MatMul* t0 d16"),
    "Gemm": ("Flatten input", "Gemm* t0 d16"),
    "Sign": ("Sign* input", "Flatten t0", "MatMul t1 d16"),
    "Sign-Conv": ("Sign* input", "Conv t0 w", "Flatten t1", "MatMul t2 d18"),
    "Sign-MaxPool": ("Sign* input", "MaxPool t0", "Flatten t1",
                     "MatMul t2 d4"),
    "Sign-BatchNormalization": ("Sign* input",
                                "BatchNormalization t0 g bb m v",
                                "Flatten t1", "MatMul t2 d16"),
    "Sign-Sign": ("Sign* input", "Sign t0", "Flatten t1", "MatMul t2 d16"),
    "trailing-Sign": ("Flatten input", "MatMul t0 d16", "Sign* t1"),
    "Relu": ("Relu* input", "Flatten t0", "MatMul t1 d16"),
}


def attr_bytes(name, value):
    """One attribute typed from the Python value; None writes the name
    alone, as proto3 does for a zero or empty value."""
    if value is None:
        return wire.field_string(1, name)
    if isinstance(value, str):
        return (wire.field_string(1, name) + wire.field_string(4, value)
                + wire.field_varint(20, codec.ATTR_STRING))
    if isinstance(value, float):
        return codec._attr_float_bytes(name, value)
    if isinstance(value, list):
        return codec._attr_ints_bytes(name, value)
    return codec._attr_int_bytes(name, value)


def node_variant_model(chain, attrs, inputs):
    nodes = []
    specs = NODE_CHAINS[chain]
    for i, spec in enumerate(specs):
        op, *ins = spec.split()
        node_attrs = dict(NODE_BASE_ATTRS.get(op.rstrip("*"), {}))
        if op.endswith("*"):
            op = op[:-1]
            node_attrs.update(attrs)
            ins = ins if inputs is None else inputs
        out = "out" if i == len(specs) - 1 else f"t{i}"
        nodes.append(codec._node_bytes(
            op, f"n{i}", ins, [out],
            attrs=[attr_bytes(k, v) for k, v in node_attrs.items()
                   if v != ABSENT]))
    graph = b"".join(wire.field_len(1, n) for n in nodes)
    graph += wire.field_string(2, "g")
    for name, array in NODE_TENSORS.items():
        graph += wire.field_len(5, codec._float_tensor_bytes(name, array))
    for name, values in NODE_SHAPES.items():
        graph += wire.field_len(5, int64_tensor_bytes(name, values))
    graph += wire.field_len(11, codec._value_info_bytes("input", (1, 1, 4, 4)))
    graph += wire.field_len(12, codec._value_info_bytes("out", (1, 3)))
    return build_model_bytes(graph)


def node_case(chain, expected, inputs=None, **attrs):
    parts = [f"{k}={v}" for k, v in attrs.items()]
    if inputs is not None:
        parts.append(f"{len(inputs)}-inputs")
    return pytest.param(chain, attrs, inputs, expected,
                        id="-".join([chain] + parts))


U, I, F = UnsupportedOpError, InvalidModelError, ModelFormatError
CONV_OK = "QConv Flatten QDense"
POOL_OK = "MaxPool Flatten QDense"
BN_OK = "BatchNorm Flatten QDense"
DENSE_OK = "Flatten QDense"

NODE_CASES = [
    node_case("Conv", CONV_OK),
    node_case("Conv", CONV_OK, group=1),
    node_case("Conv", U, group=2),
    node_case("Conv", U, group=None),
    node_case("Conv", CONV_OK, dilations=[1, 1]),
    node_case("Conv", U, dilations=[2, 2]),
    node_case("Conv", CONV_OK, strides=[1, 1]),
    node_case("Conv", U, strides=[2, 2]),
    node_case("Conv", CONV_OK, pads=[0, 0, 0, 0]),
    node_case("Conv", U, pads=[1, 1, 1, 1]),
    node_case("Conv", F, pads=None),
    node_case("Conv", CONV_OK, auto_pad="NOTSET"),
    node_case("Conv", CONV_OK, auto_pad="VALID"),
    node_case("Conv", CONV_OK, auto_pad=None),
    node_case("Conv", U, auto_pad="SAME_UPPER"),
    node_case("Conv", CONV_OK, kernel_shape=[2, 2]),
    node_case("Conv", I, kernel_shape=[3, 3]),
    node_case("Conv", U, foo=1),
    node_case("Conv", I, inputs=["input"]),
    node_case("Conv", CONV_OK, inputs=["input", "w", "b"]),
    node_case("Conv", U, inputs=["input", "w", "nb"]),
    node_case("Conv", I, inputs=["input", "w", "b", "b"]),
    node_case("MaxPool", POOL_OK),
    node_case("MaxPool", POOL_OK, ceil_mode=0),
    node_case("MaxPool", POOL_OK, ceil_mode=None),
    node_case("MaxPool", U, ceil_mode=1),
    node_case("MaxPool", POOL_OK, storage_order=0),
    node_case("MaxPool", U, storage_order=1),
    node_case("MaxPool", POOL_OK, dilations=[1, 1]),
    node_case("MaxPool", U, dilations=[2, 2]),
    node_case("MaxPool", POOL_OK, pads=[0, 0, 0, 0]),
    node_case("MaxPool", U, pads=[1, 1, 1, 1]),
    node_case("MaxPool", POOL_OK, auto_pad="NOTSET"),
    node_case("MaxPool", U, auto_pad="SAME_LOWER"),
    node_case("MaxPool", I, kernel_shape=ABSENT),
    node_case("MaxPool", U, kernel_shape=[3, 3], strides=[3, 3]),
    node_case("MaxPool", U, strides=ABSENT),
    node_case("MaxPool", U, foo=1),
    node_case("MaxPool", I, inputs=[]),
    node_case("MaxPool", I, inputs=["input", "w"]),
    node_case("BatchNormalization", BN_OK),
    node_case("BatchNormalization", BN_OK, training_mode=0),
    node_case("BatchNormalization", BN_OK, training_mode=None),
    node_case("BatchNormalization", U, training_mode=1),
    node_case("BatchNormalization", BN_OK, spatial=1),
    node_case("BatchNormalization", U, spatial=0),
    node_case("BatchNormalization", BN_OK, epsilon=0.001),
    node_case("BatchNormalization", F, epsilon=None),
    node_case("BatchNormalization", BN_OK, momentum=0.5),
    node_case("BatchNormalization", U, foo=1),
    node_case("BatchNormalization", I, inputs=["input", "g", "bb", "m"]),
    node_case("BatchNormalization", I,
              inputs=["input", "g", "bb", "m", "v", "v"]),
    node_case("Flatten", DENSE_OK),
    node_case("Flatten", DENSE_OK, axis=0),
    node_case("Flatten", DENSE_OK, axis=None),
    node_case("Flatten", DENSE_OK, axis=1),
    node_case("Flatten", U, axis=2),
    node_case("Flatten", U, axis=-1),
    node_case("Flatten", U, foo=1),
    node_case("Flatten", I, inputs=[]),
    node_case("Flatten", I, inputs=["input", "shape"]),
    node_case("Reshape", DENSE_OK),
    node_case("Reshape", DENSE_OK, allowzero=0),
    node_case("Reshape", U, allowzero=1),
    node_case("Reshape", I, inputs=["input", "fshape"]),
    node_case("Reshape", I, inputs=["input", "shape2"]),
    node_case("Reshape", U, foo=1),
    node_case("Reshape", I, inputs=["input"]),
    node_case("Reshape", I, inputs=["input", "shape", "shape"]),
    node_case("MatMul", DENSE_OK),
    node_case("MatMul", U, foo=1),
    node_case("MatMul", I, inputs=["t0"]),
    node_case("MatMul", I, inputs=["t0", "d16", "gb"]),
    node_case("Gemm", DENSE_OK),
    node_case("Gemm", DENSE_OK, alpha=1.0),
    node_case("Gemm", U, alpha=2.0),
    node_case("Gemm", U, alpha=None),
    node_case("Gemm", DENSE_OK, transA=0),
    node_case("Gemm", U, transA=1),
    node_case("Gemm", DENSE_OK, transB=0),
    node_case("Gemm", DENSE_OK, transB=None),
    node_case("Gemm", DENSE_OK, transB=1, inputs=["t0", "d16t"]),
    node_case("Gemm", U, transB=2),
    node_case("Gemm", DENSE_OK, inputs=["t0", "d16", "gb"]),
    node_case("Gemm", DENSE_OK, beta=0.0, inputs=["t0", "d16", "ngb"]),
    node_case("Gemm", U, beta=1.0, inputs=["t0", "d16", "ngb"]),
    node_case("Gemm", U, foo=1),
    node_case("Gemm", I, inputs=["t0"]),
    node_case("Gemm", I, inputs=["t0", "d16", "gb", "gb"]),
    node_case("Sign", "Flatten QDense+sign"),
    node_case("Sign", U, foo=1),
    node_case("Sign", I, inputs=[]),
    node_case("Sign", I, inputs=["input", "w"]),
    node_case("Sign-Conv", "QConv+sign Flatten QDense"),
    node_case("Sign-MaxPool", U),
    node_case("Sign-BatchNormalization", U),
    node_case("Sign-Sign", U),
    node_case("trailing-Sign", U),
    node_case("Relu", U),
]


@pytest.mark.parametrize("chain,attrs,inputs,expected", NODE_CASES)
def test_node_check(chain, attrs, inputs, expected):
    data = node_variant_model(chain, attrs, inputs)
    if isinstance(expected, str):
        net = parse_model(data)
        kinds = [type(layer).__name__
                 + ("+sign" if getattr(layer, "quantize_input", False) else "")
                 for layer in net.layers]
        assert " ".join(kinds) == expected
    else:
        with pytest.raises(BnnVerifyError) as info:
            parse_model(data)
        assert type(info.value) is expected, info.value


def test_doc_operator_table_matches_the_codec():
    doc = (Path(__file__).resolve().parent.parent / "docs"
           / "onnx-subset.md").read_text()
    section = doc.split("## Operator subset")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        found = re.match(r"\| `(\w+)` \|", line)
        if found:
            rows[found.group(1)] = line
    assert set(rows) == set(codec.OPERATORS)
    for op, (_, _, attrs) in codec.OPERATORS.items():
        for name in attrs:
            assert f"`{name}`" in rows[op], (op, name)


def test_doc_field_map_matches_the_codec():
    doc = (Path(__file__).resolve().parent.parent / "docs"
           / "onnx-subset.md").read_text()
    section = doc.split("## Wire-level field map")[1].split("\n## ")[0]
    block = section.split("```\n")[1]
    fields = {}
    for line in block.splitlines():
        header = re.fullmatch(r"[\w.]+", line)
        entry = re.match(r" +(\d+) (\w+) +(\w+)( +\S.*)?$", line)
        assert header or entry, line
        if header:
            message = fields.setdefault(line, {})
        else:
            number, name, kind = entry.group(1, 2, 3)
            assert name not in message, line
            message[name] = (int(number), kind)
    assert fields == codec.FIELDS
