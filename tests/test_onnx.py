import struct
import tracemalloc

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
            QConv(4, 3, 3, np.ones((3, 3, 3, 4)), quantize_input=False),
            BatchNorm(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4)),
            QConv(5, 2, 2, np.ones((2, 2, 4, 5)), quantize_input=True),
            Flatten(),
            QDense(4, np.ones((3 * 3 * 5, 4)), quantize_input=True),
        ),
        num_classes=4,
    )
    return with_random_weights(skeleton, rng, pixel_max=16)


def pooled_net(seed=0):
    rng = np.random.default_rng(seed)
    skeleton = Network(
        input_shape=(7, 7, 2),
        layers=(
            QConv(3, 2, 2, np.ones((2, 2, 2, 3)), quantize_input=False),
            MaxPool(),
            BatchNorm(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3)),
            Flatten(),
            QDense(3, np.ones((3 * 3 * 3, 3)), quantize_input=True),
        ),
        num_classes=3,
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
                QConv(2, 2, 2, np.ones((2, 2, 1, 2)), quantize_input=False),
                BatchNorm(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2),
                          eps=0.25),
                Flatten(),
                QDense(2, np.ones((2, 2)), quantize_input=True),
            ),
            num_classes=2,
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


class TestRejections:
    def test_unsupported_op_named(self):
        net = pooled_net()
        data = serialize_model(net).replace(b"MaxPool", b"Softmax")
        with pytest.raises(UnsupportedOpError, match="Softmax"):
            parse_model(data)

    def test_non_binary_weight_rejected(self):
        w = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        net = Network(
            input_shape=(2, 2, 1),
            layers=(Flatten(), QDense(2, w, quantize_input=False)),
            num_classes=2,
        )
        data = serialize_model(net)
        one = struct.pack("<f", 1.0)
        two = struct.pack("<f", 2.0)
        assert one in data
        with pytest.raises(InvalidModelError, match=r"'dense1_w'.*outside"):
            parse_model(data.replace(one, two, 1))

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
